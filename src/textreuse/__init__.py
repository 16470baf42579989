"""Batch text-reuse detection over plain-text corpora.

Two-stage detection: shared word n-gram hashes prune the quadratic
document-pair space to candidates, then seed-and-extend alignment locates
the reused passages within each candidate pair. Includes character-level
evaluation, a synthetic-corpus generator with exact ground truth, and a
pipeline CLI.
"""

from .alignment import (
    AlignmentParams,
    NGram,
    ReuseCase,
    Seed,
    align_pair,
    case_record,
    chunk_ngrams,
    extend,
    seed_matches,
)
import importlib

from .ingest import Document, RawDocument, length_filter, normalize
from .pipeline import PipelineError, RunConfig, run_pipeline, summarize_cases
from .retrieval import (
    CandidatePair,
    MinHasher,
    build_index,
    retrieve_candidates,
    retrieve_candidates_exact,
    retrieve_candidates_ngram,
)

__version__ = "0.1.0"

# Evaluation and corpus generation are imported on first use (PEP 562): a
# detection run needs neither.
_LAZY_MODULES = {
    "metrics": (
        "EvaluationReport",
        "GoldAnnotation",
        "GoldSpan",
        "char_precision_recall",
        "evaluate_cases",
        "f_beta",
        "granularity",
        "grid_search",
        "load_gold",
        "write_gold",
    ),
    "synthgen": ("GenSpec", "ObfuscationIntensity", "generate", "obfuscate_random"),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value

__all__ = [
    "AlignmentParams",
    "CandidatePair",
    "Document",
    "EvaluationReport",
    "GenSpec",
    "GoldAnnotation",
    "GoldSpan",
    "MinHasher",
    "NGram",
    "ObfuscationIntensity",
    "PipelineError",
    "RawDocument",
    "ReuseCase",
    "RunConfig",
    "Seed",
    "align_pair",
    "build_index",
    "case_record",
    "char_precision_recall",
    "chunk_ngrams",
    "evaluate_cases",
    "extend",
    "f_beta",
    "generate",
    "granularity",
    "grid_search",
    "length_filter",
    "load_gold",
    "normalize",
    "obfuscate_random",
    "retrieve_candidates",
    "retrieve_candidates_exact",
    "retrieve_candidates_ngram",
    "run_pipeline",
    "seed_matches",
    "summarize_cases",
    "write_gold",
]
