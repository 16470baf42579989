"""End-to-end batch pipeline: ingest -> retrieve -> align -> emit cases.

Stages communicate through files so a run can be checkpointed between
retrieval and alignment. All parallel work is order-insensitive and the
final outputs are produced by deterministic sorts, so identical
(config, corpus, seed) runs are byte-identical at any worker count.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import uuid
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .alignment import AlignmentParams, ReuseCase, align_pair, case_namespace, case_record, window_hashes
from .ingest import Document, length_filter, load_corpus_report, normalize
from .jsonl import atomic_open, scan_jsonl, write_json, write_jsonl
from .retrieval import (
    CandidatePair,
    build_index,
    read_candidates,
    retrieve_candidates,
    retrieve_candidates_exact,
    sketch_corpus,
    write_candidates,
)

log = logging.getLogger(__name__)

RETRIEVAL_MODES = ("minhash", "exact")
OUTPUT_MODES = ("full", "metadata-only")

CANDIDATES_FILE = "candidates.tsv"
CHECKPOINT_STATE_FILE = "retrieval.json"


class PipelineError(RuntimeError):
    pass


class CheckpointMismatch(PipelineError):
    pass


@dataclass
class RunConfig:
    """Effective configuration of one run; recorded verbatim in the manifest."""

    input: str
    output_dir: str
    min_words: int = 1000
    max_words: int = 60000
    passage_size: int = 50
    num_hashes: int = 10
    min_shared_terms: int = 9
    retrieval_mode: str = "minhash"
    df_cap: int = 1000
    ngram_size: int = 8
    ngram_overlap: int = 7
    max_gap: int = 250
    min_seeds: int = 2
    output_mode: str = "full"
    workers: int = 0  # 0 = available hardware parallelism
    seed: int = 1
    checkpoint_dir: str | None = None

    def validate(self) -> None:
        if self.retrieval_mode not in RETRIEVAL_MODES:
            raise ValueError(f"retrieval_mode must be one of {RETRIEVAL_MODES}")
        if self.output_mode not in OUTPUT_MODES:
            raise ValueError(f"output_mode must be one of {OUTPUT_MODES}")
        if self.min_words < 0 or self.max_words < self.min_words:
            raise ValueError("word filter range is empty")
        if self.passage_size < 1 or self.num_hashes < 1 or self.min_shared_terms < 1:
            raise ValueError("retrieval parameters must be >= 1")
        if self.df_cap < 1:
            raise ValueError("df_cap must be >= 1")
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        self.alignment_params()  # validates the alignment block

    def alignment_params(self) -> AlignmentParams:
        return AlignmentParams(self.ngram_size, self.ngram_overlap, self.max_gap, self.min_seeds)

    def effective_workers(self) -> int:
        return self.workers if self.workers > 0 else (os.cpu_count() or 1)


@dataclass
class PipelineResult:
    manifest: dict
    manifest_path: Path | None = None
    cases_path: Path | None = None
    publications_path: Path | None = None
    stats_path: Path | None = None
    candidates_path: Path | None = None


def load_documents(config: RunConfig, corpus: dict | None = None) -> tuple[list[Document], dict]:
    """Load, normalize and length-filter the corpus; returns (docs, counts).

    ``corpus``, if given, receives ``digest``, the hash of the corpus files
    as read (``LoadReport.digest``), which keys the retrieval checkpoint.
    """
    raw_docs, report = load_corpus_report(config.input)
    if corpus is not None:
        corpus["digest"] = report.digest
    docs = []
    filtered = 0
    for raw in raw_docs:
        doc = normalize(raw)
        if length_filter(doc, config.min_words, config.max_words):
            docs.append(doc)
        else:
            filtered += 1
    counts = {
        "documents_loaded": len(raw_docs),
        "documents_filtered": filtered,
        "documents_used": len(docs),
        "records_malformed": report.malformed,
        "duplicate_dois": report.duplicates,
        "tokens": sum(len(doc.tokens) for doc in docs),
    }
    return docs, counts


def run_retrieval(
    docs: Sequence[Document], config: RunConfig, counts: dict | None = None
) -> list[CandidatePair]:
    """Candidate pairs for the configured mode, sorted canonically.

    ``counts``, if given, receives ``hash_postings`` and ``dropped_hashes``
    in minhash mode, and the passage×term matrix shape as ``passages`` and
    ``terms`` in exact mode.
    """
    if config.retrieval_mode == "exact":
        pairs = retrieve_candidates_exact(docs, config.passage_size, config.min_shared_terms, counts=counts)
    else:
        sketches = sketch_corpus(docs, config.passage_size, config.num_hashes, config.seed)
        index = build_index(sketches, config.df_cap)
        if counts is not None:
            counts["hash_postings"] = len(index.postings)
            counts["dropped_hashes"] = index.dropped_hashes
        pairs = retrieve_candidates(index)
    return sorted(pairs, key=lambda p: p.key)


# Per-run alignment tables ({doi: Document}, {doi: window hashes}), installed
# once in each pool worker by the pool initializer.
_worker_tables: tuple[dict[str, Document], dict[str, np.ndarray]] | None = None


def _install_tables(docs: dict[str, Document], hashes: dict[str, np.ndarray]) -> None:
    global _worker_tables
    _worker_tables = (docs, hashes)


def _align_batch(payload: tuple, tables: tuple | None = None) -> list[ReuseCase]:
    """Align a batch of doi pairs against ``tables``, or the worker's tables."""
    doi_pairs, params, namespace_hex = payload
    docs, hashes = tables or _worker_tables
    namespace = uuid.UUID(hex=namespace_hex)
    cases: list[ReuseCase] = []
    for doi_a, doi_b in doi_pairs:
        cases.extend(
            align_pair(
                docs[doi_a], docs[doi_b], params, namespace, hashes_a=hashes[doi_a], hashes_b=hashes[doi_b]
            )
        )
    return cases


def _batch_label(doi_pairs: Sequence[tuple[str, str]]) -> str:
    first, last = doi_pairs[0], doi_pairs[-1]
    return f"{first[0]}/{first[1]} .. {last[0]}/{last[1]}"


def _batch_error(doi_pairs: Sequence[tuple[str, str]]) -> PipelineError:
    return PipelineError(f"alignment failed for candidate pairs {_batch_label(doi_pairs)}")


def run_alignment(
    docs: Sequence[Document],
    pairs: Sequence[CandidatePair],
    config: RunConfig,
    counts: dict | None = None,
) -> list[ReuseCase]:
    """Align all candidate pairs; output sorted by (doi_a, doi_b, begin_a).

    Every document in a candidate pair has its n-grams hashed once, before
    any pair is aligned; the documents and their hash tables reach each pool
    worker once, and batches carry only doi pairs. ``counts``, if given,
    receives ``documents_hashed``.
    """
    by_doi = {doc.doi: doc for doc in docs}
    params = config.alignment_params()
    namespace_hex = case_namespace(config.seed).hex
    doi_pairs = [pair.key for pair in sorted(pairs, key=lambda p: p.key)]
    for doi_a, doi_b in doi_pairs:
        if doi_a not in by_doi or doi_b not in by_doi:
            raise PipelineError(f"candidate pair {(doi_a, doi_b)} references unknown documents")

    involved = {doi: by_doi[doi] for doi in sorted({doi for key in doi_pairs for doi in key})}
    hashes = {
        doi: window_hashes(doc, params.ngram_size, params.ngram_overlap) for doi, doc in involved.items()
    }
    if counts is not None:
        counts["documents_hashed"] = len(hashes)
    if not doi_pairs:
        return []

    workers = config.effective_workers()
    batch_size = max(1, math.ceil(len(doi_pairs) / (workers * 4)))
    batches = [doi_pairs[i : i + batch_size] for i in range(0, len(doi_pairs), batch_size)]
    payloads = [(batch, params, namespace_hex) for batch in batches]

    def align_here(payload: tuple) -> list[ReuseCase]:
        try:
            return _align_batch(payload, tables=(involved, hashes))
        except Exception as exc:
            raise _batch_error(payload[0]) from exc

    # An error raised while aligning is deterministic and ends the run; only
    # a batch lost with a worker process (a broken pool) is re-run, once, here.
    if workers == 1 or len(batches) == 1:
        results = [align_here(payload) for payload in payloads]
    else:
        results = []
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_install_tables, initargs=(involved, hashes)
        ) as pool:
            futures = [pool.submit(_align_batch, payload) for payload in payloads]
            for payload, future in zip(payloads, futures):
                try:
                    results.append(future.result())
                except BrokenProcessPool as exc:
                    log.warning(
                        "alignment batch %s lost with its worker (%s); retrying in this process",
                        _batch_label(payload[0]),
                        exc,
                    )
                    results.append(align_here(payload))
                except Exception as exc:
                    pool.shutdown(cancel_futures=True)
                    raise _batch_error(payload[0]) from exc

    cases = [case for chunk in results for case in chunk]
    cases.sort(key=lambda c: (c.doi_a, c.doi_b, c.begin_a, c.begin_b))
    return cases


_RETRIEVAL_FIELDS = (
    "min_words",
    "max_words",
    "passage_size",
    "num_hashes",
    "min_shared_terms",
    "retrieval_mode",
    "df_cap",
    "seed",
)


def _retrieval_fingerprint(config: RunConfig, corpus_digest: str) -> str:
    payload = {name: getattr(config, name) for name in _RETRIEVAL_FIELDS}
    payload["corpus"] = corpus_digest
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def publication_record(doc: Document) -> dict:
    return {
        "doi": doc.doi,
        "doc_length": doc.doc_length,
        "year": doc.year,
        "field": list(doc.field) if doc.field else [],
        "area": list(doc.area) if doc.area else [],
        "discipline": list(doc.discipline) if doc.discipline else [],
    }


def run_pipeline(config: RunConfig, stop_after: str | None = None) -> PipelineResult:
    """Run the full pipeline; ``stop_after='retrieve'`` checkpoints and returns.

    With a checkpoint directory set, a rerun picks the candidate file up and
    skips retrieval; a checkpoint written under a different configuration or
    corpus is refused.
    """
    config.validate()
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    corpus: dict = {}
    docs, counts = load_documents(config, corpus)
    fingerprint = _retrieval_fingerprint(config, corpus["digest"])

    checkpoint_dir = Path(config.checkpoint_dir) if config.checkpoint_dir else None
    candidates_path = checkpoint_dir / CANDIDATES_FILE if checkpoint_dir else None
    state_path = checkpoint_dir / CHECKPOINT_STATE_FILE if checkpoint_dir else None
    pairs: list[CandidatePair] | None = None
    if checkpoint_dir is not None and state_path.exists() and candidates_path.exists():
        state = json.loads(state_path.read_text(encoding="utf-8"))
        if state.get("fingerprint") != fingerprint:
            raise CheckpointMismatch(
                "checkpoint was written by a different configuration or corpus; refusing to resume"
            )
        pairs = read_candidates(candidates_path)
        counts.update(state.get("counts", {}))
        log.info("resumed %d candidate pairs from %s", len(pairs), candidates_path)

    if pairs is None:
        retrieval_counts: dict = {}
        pairs = run_retrieval(docs, config, retrieval_counts)
        counts.update(retrieval_counts)
        if checkpoint_dir is not None:
            # The state file vouches for the candidate file, so it is removed
            # before the candidates are rewritten and written only after them.
            checkpoint_dir.mkdir(parents=True, exist_ok=True)
            state_path.unlink(missing_ok=True)
            write_candidates(candidates_path, pairs)
            state = {"fingerprint": fingerprint, "candidate_pairs": len(pairs), "counts": retrieval_counts}
            with atomic_open(state_path) as fh:
                fh.write(json.dumps(state, sort_keys=True) + "\n")

    total_pairs = math.comb(len(docs), 2)
    counts["candidate_pairs"] = len(pairs)
    counts["pruning_ratio"] = round(1.0 - len(pairs) / total_pairs, 6) if total_pairs else 1.0

    if stop_after == "retrieve":
        manifest = {"config": asdict(config), "counts": counts}
        return PipelineResult(manifest=manifest, candidates_path=candidates_path)
    if stop_after is not None:
        raise ValueError("stop_after must be None or 'retrieve'")

    cases = run_alignment(docs, pairs, config, counts)
    counts["cases"] = len(cases)
    counts["pairs_with_cases"] = len({case.pair_key for case in cases})

    # Every output appears whole or not at all; the manifest vouches for the
    # others, so a stale one is removed first and the new one written last.
    include_text = config.output_mode == "full"
    manifest_path = out_dir / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    cases_path = out_dir / "cases.jsonl"
    write_jsonl(cases_path, (case_record(c, include_text) for c in cases))
    publications_path = out_dir / "publications.jsonl"
    write_jsonl(publications_path, (publication_record(d) for d in sorted(docs, key=lambda d: d.doi)))
    stats_path = out_dir / "stats.json"
    write_json(stats_path, summarize_cases(cases_path))

    manifest = {"config": asdict(config), "counts": counts}
    write_json(manifest_path, manifest)
    return PipelineResult(
        manifest=manifest,
        manifest_path=manifest_path,
        cases_path=cases_path,
        publications_path=publications_path,
        stats_path=stats_path,
        candidates_path=candidates_path,
    )


def summarize_cases(path: str | Path) -> dict:
    """Aggregate statistics over a case file; malformed records are counted."""
    by_year: Counter[str] = Counter()
    by_field: Counter[str] = Counter()
    by_area: Counter[str] = Counter()
    by_discipline: Counter[str] = Counter()
    length_hist: Counter[str] = Counter()
    partners: defaultdict[str, set[str]] = defaultdict(set)
    cases = 0
    malformed = 0
    for lineno, record, error in scan_jsonl(path):
        if error is None:
            error = _case_record_error(record)
        if error is not None:
            malformed += 1
            log.error("%s:%d: skipping malformed case: %s", path, lineno, error)
            continue
        cases += 1
        for side in ("a", "b"):
            year = record.get(f"year_{side}")
            if year is not None:
                by_year[str(year)] += 1
            for counter, key in ((by_field, "field"), (by_area, "area"), (by_discipline, "discipline")):
                for value in record.get(f"{key}_{side}") or []:
                    counter[value] += 1
            length = record[f"end_{side}"] - record[f"begin_{side}"]
            length_hist[str(length // 100 * 100)] += 1
        partners[record["doi_a"]].add(record["doi_b"])
        partners[record["doi_b"]].add(record["doi_a"])

    pairs_per_doc = Counter(str(len(p)) for p in partners.values())
    return {
        "cases": cases,
        "malformed": malformed,
        "by_year": dict(sorted(by_year.items())),
        "by_field": dict(sorted(by_field.items())),
        "by_area": dict(sorted(by_area.items())),
        "by_discipline": dict(sorted(by_discipline.items())),
        "case_length_hist": dict(sorted(length_hist.items(), key=lambda kv: int(kv[0]))),
        "pairs_per_document": dict(sorted(pairs_per_doc.items(), key=lambda kv: int(kv[0]))),
    }


def _case_record_error(record: dict) -> str | None:
    for side in ("a", "b"):
        for key in (f"begin_{side}", f"end_{side}"):
            if not isinstance(record.get(key), int):
                return f"missing or non-integer {key}"
        if record[f"begin_{side}"] < 0 or record[f"end_{side}"] <= record[f"begin_{side}"]:
            return f"invalid span on side {side}"
        if not isinstance(record.get(f"doi_{side}"), str) or not record[f"doi_{side}"]:
            return f"missing doi_{side}"
    return None
