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
from pathlib import Path
from typing import Iterable, Sequence

from . import spans as sp
from .alignment import AlignmentParams, ReuseCase, align_pair
from .ingest import Document
from .jsonl import read_jsonl, write_jsonl

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


@dataclass(frozen=True)
class GoldAnnotation:
    """Ground truth for one document pair (zero spans = no reuse)."""

    pair_id: str
    doi_a: str
    doi_b: str
    spans: tuple[GoldSpan, ...]
    strategy: str = "none"

    def __post_init__(self):
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


def _group_detections(
    gold: Sequence[GoldAnnotation], detected: Iterable[ReuseCase]
) -> dict[tuple[str, str], list[ReuseCase]]:
    known = {(g.doi_a, g.doi_b) for g in gold}
    groups: dict[tuple[str, str], list[ReuseCase]] = {key: [] for key in known}
    for case in detected:
        if case.pair_key not in known:
            raise ValueError(f"detection references unknown pair {case.pair_key}")
        groups[case.pair_key].append(case)
    return groups


def _pair_char_counts(
    ann: GoldAnnotation, cases: Sequence[ReuseCase]
) -> tuple[int, int, int]:
    """(intersection, detected, gold) character counts over both sides."""
    gold_a = sp.merge((s.begin_a, s.end_a) for s in ann.spans)
    gold_b = sp.merge((s.begin_b, s.end_b) for s in ann.spans)
    det_a = sp.merge((c.begin_a, c.end_a) for c in cases)
    det_b = sp.merge((c.begin_b, c.end_b) for c in cases)
    inter = sp.intersect_length(det_a, gold_a) + sp.intersect_length(det_b, gold_b)
    return inter, sp.total_length(det_a) + sp.total_length(det_b), sp.total_length(gold_a) + sp.total_length(gold_b)


def char_precision_recall(
    gold: Sequence[GoldAnnotation],
    detected: Iterable[ReuseCase],
    average: str = "macro",
) -> tuple[float, float]:
    """Character-level precision and recall across all annotated pairs."""
    if average not in ("macro", "micro"):
        raise ValueError("average must be 'macro' or 'micro'")
    groups = _group_detections(gold, detected)
    if not gold:
        return 1.0, 1.0
    precisions, recalls = [], []
    inter_total = det_total = gold_total = 0
    for ann in gold:
        inter, det, gld = _pair_char_counts(ann, groups[(ann.doi_a, ann.doi_b)])
        precisions.append(inter / det if det else 1.0)
        recalls.append(inter / gld if gld else 1.0)
        inter_total += inter
        det_total += det
        gold_total += gld
    if average == "micro":
        precision = inter_total / det_total if det_total else 1.0
        recall = inter_total / gold_total if gold_total else 1.0
        return precision, recall
    return sum(precisions) / len(precisions), sum(recalls) / len(recalls)


def granularity(gold: Sequence[GoldAnnotation], detected: Iterable[ReuseCase]) -> float:
    """Mean number of detections overlapping each detected gold span (1.0 ideal)."""
    groups = _group_detections(gold, detected)
    hits = 0
    covered_spans = 0
    for ann in gold:
        cases = groups[(ann.doi_a, ann.doi_b)]
        for span in ann.spans:
            count = sum(
                1
                for c in cases
                if sp.overlaps((span.begin_a, span.end_a), (c.begin_a, c.end_a))
                and sp.overlaps((span.begin_b, span.end_b), (c.begin_b, c.end_b))
            )
            if count:
                covered_spans += 1
                hits += count
    return hits / covered_spans if covered_spans else 1.0


def evaluate_cases(
    gold: Sequence[GoldAnnotation],
    detected: Iterable[ReuseCase],
    average: str = "macro",
    beta: float = 0.5,
    with_granularity: bool = False,
) -> EvaluationReport:
    """Full report: overall scores plus one row per strategy present in gold."""
    detected = list(detected)
    _group_detections(gold, detected)  # validates pair ids up front
    rows = []
    groups: dict[str, list[GoldAnnotation]] = {}
    for ann in gold:
        groups.setdefault(ann.strategy, []).append(ann)
    for strategy in [s for s in STRATEGIES if s in groups]:
        anns = groups[strategy]
        keys = {(a.doi_a, a.doi_b) for a in anns}
        cases = [c for c in detected if c.pair_key in keys]
        rows.append(_score_row(strategy, anns, cases, average, beta, with_granularity))
    overall = _score_row("entire", list(gold), detected, average, beta, with_granularity)
    return EvaluationReport(overall=overall, by_strategy=rows)


def _score_row(label, anns, cases, average, beta, with_granularity) -> StrategyScores:
    precision, recall = char_precision_recall(anns, cases, average)
    score = StrategyScores(
        strategy=label,
        precision=precision,
        recall=recall,
        f_score=f_beta(precision, recall, beta),
        pair_count=len(anns),
        gold_span_count=sum(len(a.spans) for a in anns),
        detection_count=len(cases),
    )
    if with_granularity:
        score.granularity = granularity(anns, cases)
        f1 = f_beta(precision, recall, 1.0)
        score.plagdet = f1 / math.log2(1 + score.granularity)
    return score


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
    return cls(**{f.name: record[f.name] for f in fields(cls) if f.name in record or f.default is MISSING})


def load_gold(path: str | Path) -> list[GoldAnnotation]:
    annotations = []
    for record in read_jsonl(path):
        spans = tuple(_from_record(GoldSpan, s) for s in record["spans"])
        annotations.append(_from_record(GoldAnnotation, {**record, "spans": spans}))
    return annotations


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
