"""End-to-end batch pipeline: ingest -> retrieve -> align -> emit cases.

Stages communicate through files so a run can be checkpointed between
retrieval and alignment. Alignment runs in this process, pair by pair in
sorted order, and the final outputs are produced by deterministic sorts, so
identical (config, corpus, seed) runs are byte-identical.
"""

from __future__ import annotations

import json
import logging
import math
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, get_type_hints

from .alignment import (
    AlignmentParams, ReuseCase, align_pair, case_from_record, case_namespace, case_record, window_hashes
)
from .ingest import Document, LoadReport, length_filter, normalize_corpus, read_corpus
from .jsonl import json_object, read_lines, scan_lines, sha256, write_json, write_jsonl, write_lines
from .retrieval import (
    RETRIEVAL_NGRAM_SIZE,
    CandidatePair,
    build_index,
    read_candidates,
    retrieve_candidates,
    retrieve_candidates_exact,
    retrieve_candidates_ngram,
    shared_hash_pairs,
    sketch_corpus,
    write_candidates,
)

log = logging.getLogger(__name__)

RETRIEVAL_MODES = ("ngram", "minhash", "exact")
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
    retrieval_mode: str = "ngram"
    df_cap: int = 1000
    ngram_size: int = 8
    ngram_overlap: int = 7
    max_gap: int = 250
    min_seeds: int = 2
    output_mode: str = "full"
    workers: int = 0  # accepted and validated; alignment runs in one process
    seed: int = 1
    checkpoint_dir: str | None = None

    def validate(self) -> None:
        for name, kind in get_type_hints(RunConfig).items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {getattr(kind, '__name__', kind)}, not {value!r}")
        if self.retrieval_mode not in RETRIEVAL_MODES:
            raise ValueError(f"retrieval_mode must be one of {RETRIEVAL_MODES}")
        if self.output_mode not in OUTPUT_MODES:
            raise ValueError(f"output_mode must be one of {OUTPUT_MODES}")
        if self.min_words < 0:
            raise ValueError("min_words must be >= 0")
        if self.max_words < self.min_words:
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


@dataclass
class PipelineResult:
    manifest: dict
    manifest_path: Path
    cases_path: Path
    publications_path: Path
    stats_path: Path
    candidates_path: Path | None = None


def load_documents(config: RunConfig, corpus: dict | None = None) -> tuple[list[Document], dict]:
    """Load, normalize and length-filter the corpus; returns (docs, counts).

    Records are normalized as they are read, one batch at a time
    (``normalize_corpus``), so no raw text outlives its batch.

    ``counts`` holds, besides the document and record tallies, the tokens
    of the documents used and their ``document_bytes`` (``Document.nbytes``).
    ``corpus``, if given, receives ``digest``, the sha256 of the corpus
    files as read (``LoadReport.digest``), which keys the retrieval
    checkpoint. Only then is the corpus hashed, and ``hashlib`` imported.
    """
    report = LoadReport()
    # Of a doi read twice, the last record is kept at the place of the
    # first; None marks a document the length filter drops.
    by_doi: dict[str, Document | None] = {}
    for doc in normalize_corpus(read_corpus(config.input, report, digest=corpus is not None)):
        by_doi[doc.doi] = doc if length_filter(doc, config.min_words, config.max_words) else None
    if corpus is not None:
        corpus["digest"] = report.digest
    docs = [doc for doc in by_doi.values() if doc is not None]
    counts = {
        "documents_loaded": len(by_doi),
        "documents_filtered": len(by_doi) - len(docs),
        "documents_used": len(docs),
        "records_malformed": report.malformed,
        "duplicate_dois": report.duplicates,
        "tokens": sum(len(doc.token_hashes) for doc in docs),
        "document_bytes": sum(doc.nbytes for doc in docs),
    }
    return docs, counts


def run_retrieval(
    docs: Sequence[Document], config: RunConfig, counts: dict | None = None
) -> list[CandidatePair]:
    """Candidate pairs for the configured mode, in ascending ``(doi_a,
    doi_b)`` order: every mode's join emits them in that order, so nothing
    is sorted here.

    ``ngram`` mode hashes word n-grams of min(``RETRIEVAL_NGRAM_SIZE``,
    ``ngram_size``) tokens, so it keeps every pair alignment can match.
    ``counts``, if given, receives the join's ``pair_visits`` in every
    mode, ``hash_postings`` (distinct window hashes in ngram mode, distinct
    sketch values kept in minhash mode), ``dropped_hashes`` in minhash
    mode, and the passage×term matrix shape as ``passages`` and ``terms``
    in exact mode.
    """
    if config.retrieval_mode == "ngram":
        ngram_size = min(RETRIEVAL_NGRAM_SIZE, config.ngram_size)
        return retrieve_candidates_ngram(docs, ngram_size, counts=counts)
    if config.retrieval_mode == "exact":
        return retrieve_candidates_exact(docs, config.passage_size, config.min_shared_terms, counts=counts)
    owner, sketches = sketch_corpus(docs, config.passage_size, config.num_hashes, config.seed)
    index = build_index(owner, sketches, config.df_cap)
    if counts is not None:
        counts["hash_postings"] = index.postings
        counts["dropped_hashes"] = index.dropped_hashes
    return retrieve_candidates(index, [doc.doi for doc in docs], counts=counts)


def run_alignment(
    docs: Sequence[Document],
    pairs: Sequence[CandidatePair],
    config: RunConfig,
    counts: dict | None = None,
) -> list[ReuseCase]:
    """Align all candidate pairs; output sorted by (doi_a, doi_b, begin_a).

    Every document in a candidate pair has its n-grams hashed once. One join
    over those hash arrays finds the document pairs that share a window
    hash; only candidate pairs among them reach ``align_pair``, in sorted
    order. ``seed_matches`` seeds only on equal hashes, so a skipped pair
    has no case. A bad pair (unknown, out of doi order or listed twice), or
    an error while aligning, raises ``PipelineError`` naming the pair.
    ``counts``, if given, receives ``documents_hashed`` and ``pairs_aligned``.
    """
    by_doi = {doc.doi: doc for doc in docs}
    params = config.alignment_params()
    namespace = case_namespace(config.seed)
    doi_pairs = sorted(pair.key for pair in pairs)
    # Sorted, a pair listed twice is next to its repeat.
    for previous, (doi_a, doi_b) in zip([None, *doi_pairs], doi_pairs):
        if doi_a not in by_doi or doi_b not in by_doi:
            raise PipelineError(f"candidate pair {(doi_a, doi_b)} references unknown documents")
        if doi_a >= doi_b:
            raise PipelineError(f"candidate pair {doi_a}/{doi_b} must satisfy doi_a < doi_b")
        if previous == (doi_a, doi_b):
            raise PipelineError(f"candidate pair {doi_a}/{doi_b} listed twice")

    dois = sorted({doi for key in doi_pairs for doi in key})
    hashes = {doi: window_hashes(by_doi[doi], params.ngram_size, params.ngram_overlap) for doi in dois}
    shared_a, shared_b, _ = shared_hash_pairs(list(hashes.values()))
    sharing = {(dois[i], dois[j]) for i, j in zip(shared_a.tolist(), shared_b.tolist())}
    to_align = [key for key in doi_pairs if key in sharing]
    if counts is not None:
        counts["documents_hashed"] = len(hashes)
        counts["pairs_aligned"] = len(to_align)

    cases: list[ReuseCase] = []
    for doi_a, doi_b in to_align:
        a, b = by_doi[doi_a], by_doi[doi_b]
        try:
            cases.extend(align_pair(a, b, params, namespace, hashes_a=hashes[doi_a], hashes_b=hashes[doi_b]))
        except Exception as exc:
            raise PipelineError(f"alignment failed for candidate pair {doi_a}/{doi_b}") from exc
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
    "ngram_size",
    "seed",
)


def _retrieval_fingerprint(config: RunConfig, corpus_digest: str) -> str:
    payload = {name: getattr(config, name) for name in _RETRIEVAL_FIELDS}
    payload["corpus"] = corpus_digest
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return sha256(blob).hexdigest()


def publication_record(doc: Document) -> dict:
    return {
        "doi": doc.doi,
        "doc_length": doc.doc_length,
        "year": doc.year,
        "field": list(doc.field) if doc.field else [],
        "area": list(doc.area) if doc.area else [],
        "discipline": list(doc.discipline) if doc.discipline else [],
    }


def run_pipeline(config: RunConfig) -> PipelineResult:
    """Run the full pipeline.

    The manifest's ``timings`` holds the wall seconds of each stage, also
    logged: ``load_s`` (load and normalize), ``retrieve_s`` (or reading the
    checkpoint), ``align_s`` and ``emit_s`` (cases, publications and stats;
    not the manifest). They differ between runs; ``config`` and ``counts``
    do not.

    Each stage's log line also gives the process's peak RSS so far
    (``peak_rss_mb``).

    With a checkpoint directory set, a rerun picks the candidate file up and
    skips retrieval. The state file vouches for it with the retrieval
    fingerprint (configuration and corpus) and the candidate file's sha256;
    a checkpoint that no longer matches either is refused. Only such a run
    hashes the corpus, as it loads it; a run without a checkpoint directory
    takes no digest.
    """
    config.validate()
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    timings: dict[str, float] = {}
    clock = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal clock
        now = time.perf_counter()
        timings[stage] = round(now - clock, 6)
        log.info("%s took %.3f s, peak RSS %.1f MB", stage, timings[stage], peak_rss_mb())
        clock = now

    checkpoint_dir = Path(config.checkpoint_dir) if config.checkpoint_dir else None
    # Only the checkpoint reads the corpus digest, so only its runs hash the corpus.
    corpus: dict | None = {} if checkpoint_dir is not None else None
    docs, counts = load_documents(config, corpus)
    lap("load_s")
    fingerprint = _retrieval_fingerprint(config, corpus["digest"]) if corpus is not None else None

    candidates_path = checkpoint_dir / CANDIDATES_FILE if checkpoint_dir else None
    state_path = checkpoint_dir / CHECKPOINT_STATE_FILE if checkpoint_dir else None
    pairs: list[CandidatePair] | None = None
    if checkpoint_dir is not None and state_path.exists() and candidates_path.exists():
        state = _read_state(state_path)
        if state.get("fingerprint") != fingerprint:
            raise CheckpointMismatch(
                "checkpoint was written by a different configuration or corpus; refusing to resume"
            )
        if _sha256(candidates_path) != state.get("candidates_sha256"):
            raise CheckpointMismatch(
                f"{candidates_path} does not have the sha256 that {state_path} records; refusing to resume"
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
            state = {
                "fingerprint": fingerprint,
                "candidate_pairs": len(pairs),
                "candidates_sha256": _sha256(candidates_path),
                "counts": retrieval_counts,
            }
            write_lines(state_path, [json.dumps(state, sort_keys=True)])

    lap("retrieve_s")

    total_pairs = math.comb(len(docs), 2)
    counts["candidate_pairs"] = len(pairs)
    counts["pruning_ratio"] = round(1.0 - len(pairs) / total_pairs, 6) if total_pairs else 1.0

    cases = run_alignment(docs, pairs, config, counts)
    counts["cases"] = len(cases)
    counts["pairs_with_cases"] = len({case.pair_key for case in cases})
    lap("align_s")

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
    write_json(stats_path, case_stats(cases))
    lap("emit_s")

    manifest = {"config": asdict(config), "counts": counts, "timings": timings}
    write_json(manifest_path, manifest)
    return PipelineResult(
        manifest=manifest,
        manifest_path=manifest_path,
        cases_path=cases_path,
        publications_path=publications_path,
        stats_path=stats_path,
        candidates_path=candidates_path,
    )


def _sha256(path: Path) -> str:
    """Hex sha256 of the file's bytes, read 1 MiB at a time."""
    digest = sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(2**20), b""):
            digest.update(block)
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MB of 2**20 bytes:
    ``VmHWM`` of ``/proc/self/status``, or ``ru_maxrss`` where that file
    cannot be read."""
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024  # kB
    except OSError:
        pass
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024  # bytes on macOS, kB elsewhere


def _read_state(path: Path) -> dict:
    """The one record of a checkpoint state file; a file that holds
    anything else raises ``CheckpointMismatch`` naming it."""
    try:
        states = read_lines(path, json_object)
    except ValueError as exc:
        raise CheckpointMismatch(f"{exc}; refusing to resume") from None
    if len(states) != 1:
        raise CheckpointMismatch(f"{path}: expected 1 state record, found {len(states)}; refusing to resume")
    return states[0]


def case_stats(cases: Iterable[ReuseCase]) -> dict:
    """Aggregate statistics over cases, as ``stats.json`` holds them, with
    no malformed case."""
    by: defaultdict[str, Counter[str]] = defaultdict(Counter)
    partners: defaultdict[str, set[str]] = defaultdict(set)
    count = 0
    for case in cases:
        count += 1
        for side in ("a", "b"):
            year = getattr(case, f"year_{side}")
            if year is not None:
                by["year"][str(year)] += 1
            for key in ("field", "area", "discipline"):
                by[key].update(getattr(case, f"{key}_{side}") or ())
            length = getattr(case, f"end_{side}") - getattr(case, f"begin_{side}")
            by["length"][str(length // 100 * 100)] += 1
        partners[case.doi_a].add(case.doi_b)
        partners[case.doi_b].add(case.doi_a)

    pairs_per_doc = Counter(str(len(p)) for p in partners.values())
    return {
        "cases": count,
        "malformed": 0,
        **{f"by_{key}": dict(sorted(by[key].items())) for key in ("year", "field", "area", "discipline")},
        "case_length_hist": dict(sorted(by["length"].items(), key=lambda kv: int(kv[0]))),
        "pairs_per_document": dict(sorted(pairs_per_doc.items(), key=lambda kv: int(kv[0]))),
    }


def summarize_cases(path: str | Path) -> dict:
    """``case_stats`` over a case file. Each record is read by
    ``case_from_record``; a line it refuses, or that is not JSON, is logged
    and counted as malformed."""
    malformed = 0

    def read() -> Iterator[ReuseCase]:
        nonlocal malformed
        for lineno, case, error in scan_lines(path, lambda line: case_from_record(json_object(line))):
            if error is not None:
                malformed += 1
                log.error("%s:%d: skipping malformed case: %s", path, lineno, error)
                continue
            yield case

    summary = case_stats(read())
    summary["malformed"] = malformed
    return summary
