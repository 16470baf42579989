"""Batch text-reuse detection over plain-text corpora.

Two-stage detection: passage-level hash sketching prunes the quadratic
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
from .ingest import Document, RawDocument, length_filter, normalize
from .metrics import (
    EvaluationReport,
    GoldAnnotation,
    GoldSpan,
    char_precision_recall,
    evaluate_cases,
    f_beta,
    granularity,
    grid_search,
    load_gold,
    write_gold,
)
from .pipeline import PipelineError, RunConfig, run_pipeline, summarize_cases
from .retrieval import (
    CandidatePair,
    MinHasher,
    Passage,
    PassageSketch,
    build_index,
    chunk_passages,
    retrieve_candidates,
    retrieve_candidates_exact,
)
from .synthgen import GenSpec, ObfuscationIntensity, generate, obfuscate_random

__version__ = "0.1.0"

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
    "Passage",
    "PassageSketch",
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
    "chunk_passages",
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
    "run_pipeline",
    "seed_matches",
    "summarize_cases",
    "write_gold",
]
