"""Character-level evaluation of detected cases against gold annotations.

Scores follow the benchmark conventions for text-alignment tasks: per pair,
precision and recall are computed over the union of detected/gold character
positions on both sides, then macro-averaged across pairs (micro pooling is
available as a switch). A pair with no detections claims no false characters,
so its precision is 1.0; a pair with no gold spans has recall 1.0.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, field, fields
from numbers import Integral
from pathlib import Path
from typing import Iterable, Sequence

from . import spans as sp
from .alignment import AlignmentParams, ReuseCase, align_pair
from .ingest import Document
from .jsonl import read_records, write_jsonl

STRATEGIES = ("none", "no-plagiarism", "random", "translation", "summary")

_STRATEGY_LABELS = {
    "none": "No Obfuscation",
    "no-plagiarism": "No Plagiarism",
    "random": "Random Obfuscation",
    "summary": "Summary Obfuscation",
    "translation": "Translation Obfuscation",
    "entire": "Entire Corpus",
}


@dataclass(frozen=True)
class GoldSpan:
    begin_a: int
    end_a: int
    begin_b: int
    end_b: int

    def __post_init__(self):
        for begin, end, side in ((self.begin_a, self.end_a, "a"), (self.begin_b, self.end_b, "b")):
            if any(isinstance(v, bool) or not isinstance(v, Integral) for v in (begin, end)) or not 0 <= begin < end:
                raise ValueError(f"invalid gold span on side {side}")


@dataclass(frozen=True)
class GoldAnnotation:
    """Ground truth for one document pair (zero spans = no reuse)."""

    pair_id: str
    doi_a: str
    doi_b: str
    spans: tuple[GoldSpan, ...]
    strategy: str = "none"

    def __post_init__(self):
        if not all(isinstance(v, str) for v in (self.pair_id, self.doi_a, self.doi_b)):
            raise ValueError("pair_id, doi_a and doi_b must be strings")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.doi_a >= self.doi_b:
            raise ValueError("gold annotation must satisfy doi_a < doi_b")


@dataclass
class StrategyScores:
    strategy: str
    precision: float
    recall: float
    f_score: float
    pair_count: int
    gold_span_count: int
    detection_count: int
    granularity: float | None = None
    plagdet: float | None = None


@dataclass
class EvaluationReport:
    overall: StrategyScores
    by_strategy: list[StrategyScores] = field(default_factory=list)


def f_beta(precision: float, recall: float, beta: float = 0.5) -> float:
    """Weighted harmonic mean of precision and recall; 0 when both are 0."""
    denom = beta * beta * precision + recall
    if denom == 0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denom


def _pair_entries(gold: Sequence[GoldAnnotation], detected: Iterable[ReuseCase]) -> list[tuple[int, ...]]:
    """Per annotation, in gold order: intersection, detected and gold characters
    over both sides; gold spans; detections; gold spans some detection overlaps;
    detections overlapping those. A pair annotated twice or a detection on a
    pair without annotation raises ValueError."""
    groups: dict[tuple[str, str], list[ReuseCase]] = {}
    for ann in gold:
        if (ann.doi_a, ann.doi_b) in groups:
            raise ValueError(f"pair {ann.doi_a}/{ann.doi_b} annotated twice")
        groups[(ann.doi_a, ann.doi_b)] = []
    for case in detected:
        if case.pair_key not in groups:
            raise ValueError(f"detection references unknown pair {case.pair_key}")
        groups[case.pair_key].append(case)
    entries = []
    for ann in gold:
        cases = groups[(ann.doi_a, ann.doi_b)]
        gold_a = sp.merge((s.begin_a, s.end_a) for s in ann.spans)
        gold_b = sp.merge((s.begin_b, s.end_b) for s in ann.spans)
        det_a = sp.merge((c.begin_a, c.end_a) for c in cases)
        det_b = sp.merge((c.begin_b, c.end_b) for c in cases)
        covered_spans = hits = 0
        for span in ann.spans:
            count = sum(
                sp.overlaps((span.begin_a, span.end_a), (c.begin_a, c.end_a))
                and sp.overlaps((span.begin_b, span.end_b), (c.begin_b, c.end_b))
                for c in cases
            )
            covered_spans += count > 0
            hits += count
        inter = sp.intersect_length(det_a, gold_a) + sp.intersect_length(det_b, gold_b)
        det = sp.total_length(det_a) + sp.total_length(det_b)
        gld = sp.total_length(gold_a) + sp.total_length(gold_b)
        entries.append((inter, det, gld, len(ann.spans), len(cases), covered_spans, hits))
    return entries


def _precision_recall(entries: Sequence[tuple[int, ...]], average: str) -> tuple[float, float]:
    """Micro: ratios of the pooled characters; macro: means of the per-pair ratios."""
    if average not in ("macro", "micro"):
        raise ValueError("average must be 'macro' or 'micro'")
    if not entries:
        return 1.0, 1.0
    if average == "micro":
        inter, det, gld = (sum(e[i] for e in entries) for i in range(3))
        return (inter / det if det else 1.0), (inter / gld if gld else 1.0)
    precision = sum(inter / det if det else 1.0 for inter, det, *_ in entries)
    recall = sum(inter / gld if gld else 1.0 for inter, _, gld, *_ in entries)
    return precision / len(entries), recall / len(entries)


def _granularity(entries: Sequence[tuple[int, ...]]) -> float:
    covered_spans = sum(e[5] for e in entries)
    return sum(e[6] for e in entries) / covered_spans if covered_spans else 1.0


def char_precision_recall(
    gold: Sequence[GoldAnnotation],
    detected: Iterable[ReuseCase],
    average: str = "macro",
) -> tuple[float, float]:
    """Character-level precision and recall across all annotated pairs."""
    _precision_recall((), average)  # refuses an invalid average before any pair
    return _precision_recall(_pair_entries(gold, detected), average)


def granularity(gold: Sequence[GoldAnnotation], detected: Iterable[ReuseCase]) -> float:
    """Mean number of detections overlapping each detected gold span (1.0 ideal)."""
    return _granularity(_pair_entries(gold, detected))


def evaluate_cases(
    gold: Sequence[GoldAnnotation],
    detected: Iterable[ReuseCase],
    average: str = "macro",
    beta: float = 0.5,
    with_granularity: bool = False,
) -> EvaluationReport:
    """Full report: overall scores plus one row per strategy present in gold.
    Each pair is scored once; every row aggregates the entries of its pairs."""
    entries = _pair_entries(gold, detected)
    groups: dict[str, list[tuple[int, ...]]] = {s: [] for s in STRATEGIES}
    for ann, entry in zip(gold, entries):
        groups[ann.strategy].append(entry)
    rows = []
    for label, subset in [(s, groups[s]) for s in STRATEGIES if groups[s]] + [("entire", entries)]:
        precision, recall = _precision_recall(subset, average)
        row = StrategyScores(
            strategy=label,
            precision=precision,
            recall=recall,
            f_score=f_beta(precision, recall, beta),
            pair_count=len(subset),
            gold_span_count=sum(e[3] for e in subset),
            detection_count=sum(e[4] for e in subset),
        )
        if with_granularity:
            row.granularity = _granularity(subset)
            row.plagdet = f_beta(precision, recall, 1.0) / math.log2(1 + row.granularity)
        rows.append(row)
    return EvaluationReport(overall=rows.pop(), by_strategy=rows)


@dataclass(frozen=True)
class GridRow:
    ngram_size: int
    ngram_overlap: int
    max_gap: int
    precision: float
    recall: float
    f_score: float


def grid_search(
    docs: Sequence[Document],
    gold: Sequence[GoldAnnotation],
    ngram_sizes: Iterable[int],
    ngram_overlaps: Iterable[int],
    max_gaps: Iterable[int],
    min_seeds: int = 2,
    beta: float = 0.5,
) -> list[GridRow]:
    """Evaluate alignment over the parameter grid, ranked by F score.

    Combinations with overlap >= ngram_size are skipped; an empty range (or
    an all-invalid grid) is an error. Pairs are taken from the gold set.
    """
    sizes, overlaps, gaps = list(ngram_sizes), list(ngram_overlaps), list(max_gaps)
    if not sizes or not overlaps or not gaps:
        raise ValueError("parameter ranges must be non-empty")
    by_doi = {d.doi: d for d in docs}
    rows = []
    for size in sizes:
        for overlap in overlaps:
            if not 0 <= overlap < size:
                continue
            for max_gap in gaps:
                params = AlignmentParams(size, overlap, max_gap, min_seeds)
                detected = []
                for ann in gold:
                    detected.extend(align_pair(by_doi[ann.doi_a], by_doi[ann.doi_b], params))
                precision, recall = char_precision_recall(gold, detected)
                rows.append(
                    GridRow(size, overlap, max_gap, precision, recall, f_beta(precision, recall, beta))
                )
    if not rows:
        raise ValueError("parameter grid contains no valid combination")
    rows.sort(key=lambda r: (-r.f_score, r.ngram_size, r.ngram_overlap, r.max_gap))
    return rows


def gold_record(ann: GoldAnnotation) -> dict:
    record = asdict(ann)
    record["spans"] = list(record["spans"])
    return record


def write_gold(path: str | Path, annotations: Iterable[GoldAnnotation]) -> int:
    return write_jsonl(path, (gold_record(a) for a in annotations))


def _from_record(cls, record: dict):
    """``cls`` built from a record's entries for its fields; other keys are
    ignored and a field with a default may be absent."""
    if not isinstance(record, dict):
        raise ValueError(f"{cls.__name__} record is not a JSON object")
    for f in fields(cls):
        if f.name not in record and f.default is MISSING:
            raise ValueError(f"missing {f.name}")
    return cls(**{f.name: record[f.name] for f in fields(cls) if f.name in record})


def _gold_from_record(record: dict, seen: set[tuple[str, str]]) -> GoldAnnotation:
    """The annotation of ``record``, whose pair must not be in ``seen``; adds it."""
    if not isinstance(record.get("spans"), list):
        raise ValueError("spans must be an array")
    spans = tuple(_from_record(GoldSpan, s) for s in record["spans"])
    ann = _from_record(GoldAnnotation, {**record, "spans": spans})
    if (ann.doi_a, ann.doi_b) in seen:
        raise ValueError(f"pair {ann.doi_a}/{ann.doi_b} annotated twice")
    seen.add((ann.doi_a, ann.doi_b))
    return ann


def load_gold(path: str | Path) -> list[GoldAnnotation]:
    """Gold annotations in file order; the first line that is not JSON, not a
    valid annotation or a pair annotated twice raises ValueError naming
    ``path:line``."""
    seen: set[tuple[str, str]] = set()
    return read_records(path, lambda record: _gold_from_record(record, seen))


def report_records(report: EvaluationReport) -> list[dict]:
    rows = report.by_strategy + [report.overall]
    out = []
    for row in rows:
        record = {
            "strategy": row.strategy,
            "precision": round(row.precision, 6),
            "recall": round(row.recall, 6),
            "f_score": round(row.f_score, 6),
            "pairs": row.pair_count,
            "gold_spans": row.gold_span_count,
            "detections": row.detection_count,
        }
        if row.granularity is not None:
            record["granularity"] = round(row.granularity, 6)
            record["plagdet"] = round(row.plagdet, 6)
        out.append(record)
    return out


def format_report_table(report: EvaluationReport) -> str:
    """Aligned plain-text score table, one row per strategy plus the total."""
    rows = report.by_strategy + [report.overall]
    with_gran = any(r.granularity is not None for r in rows)
    header = ["", "Precision", "Recall", "F0.5"]
    if with_gran:
        header += ["Granularity"]
    header += ["Pairs", "Detections"]
    table = [header]
    for row in rows:
        cells = [
            _STRATEGY_LABELS.get(row.strategy, row.strategy),
            f"{row.precision:.2f}",
            f"{row.recall:.2f}",
            f"{row.f_score:.2f}",
        ]
        if with_gran:
            cells.append(f"{row.granularity:.2f}" if row.granularity is not None else "-")
        cells += [str(row.pair_count), str(row.detection_count)]
        table.append(cells)
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = []
    for row_cells in table:
        first = row_cells[0].ljust(widths[0])
        rest = "  ".join(cell.rjust(w) for cell, w in zip(row_cells[1:], widths[1:]))
        lines.append(f"{first}  {rest}".rstrip())
    return "\n".join(lines)
