"""Seed-and-extend text alignment for one candidate document pair.

Both documents are chunked into overlapping word n-grams, hashed into one flat
``uint64`` table per document; n-grams with equal hashes (re-verified by token
equality) become seeds, and seeds whose character gap is at most ``max_gap``
on *both* sides are merged transitively into reuse cases. A case's spans are
the bounding intervals of its member seeds, so reordered or interleaved reuse
still collapses into one case per coherent region.
"""

from __future__ import annotations

import hashlib
import uuid
from dataclasses import dataclass, fields
from typing import Sequence, get_args, get_type_hints

import numpy as np

from . import spans as sp
from .ingest import Document

# Fixed root for deterministic case ids; run namespaces derive from it.
_CASE_NAMESPACE_ROOT = uuid.uuid5(uuid.NAMESPACE_URL, "textreuse/case")

CONTEXT_CHARS = 100


@dataclass(frozen=True)
class NGram:
    doi: str
    start_token: int
    char_span: tuple[int, int]
    hash: int


@dataclass(frozen=True, order=True)
class Seed:
    """A verified matching n-gram occurrence pair (char spans per side)."""

    span_a: tuple[int, int]
    span_b: tuple[int, int]


@dataclass(frozen=True)
class AlignmentParams:
    ngram_size: int = 8
    ngram_overlap: int = 7
    max_gap: int = 250
    min_seeds: int = 2

    def __post_init__(self):
        if self.ngram_size < 1:
            raise ValueError("ngram_size must be >= 1")
        if not 0 <= self.ngram_overlap < self.ngram_size:
            raise ValueError("ngram_overlap must satisfy 0 <= overlap < ngram_size")
        if self.max_gap < 0:
            raise ValueError("max_gap must be >= 0")
        if self.min_seeds < 1:
            raise ValueError("min_seeds must be >= 1")


@dataclass(frozen=True)
class ReuseCase:
    """One detected reuse case; field layout mirrors the emitted record."""

    id: str
    text_a: str
    before_a: str
    after_a: str
    begin_a: int
    end_a: int
    doc_length_a: int
    doi_a: str
    year_a: int | None
    field_a: tuple[str, ...] | None
    area_a: tuple[str, ...] | None
    discipline_a: tuple[str, ...] | None
    text_b: str
    before_b: str
    after_b: str
    begin_b: int
    end_b: int
    doc_length_b: int
    doi_b: str
    year_b: int | None
    field_b: tuple[str, ...] | None
    area_b: tuple[str, ...] | None
    discipline_b: tuple[str, ...] | None

    @property
    def pair_key(self) -> tuple[str, str]:
        return (self.doi_a, self.doi_b)


def ngram_hash(tokens: Sequence[str]) -> int:
    """64-bit hash of a token sequence; depends on the tokens only."""
    joined = " ".join(tokens).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(joined, digest_size=8).digest(), "big")


def _window_starts(n_tokens: int, ngram_size: int, ngram_overlap: int) -> range:
    """Token offsets of the sliding windows; window ``i`` starts at ``i * stride``."""
    if ngram_size < 1:
        raise ValueError("ngram_size must be >= 1")
    if not 0 <= ngram_overlap < ngram_size:
        raise ValueError("ngram_overlap must satisfy 0 <= overlap < ngram_size")
    return range(0, n_tokens - ngram_size + 1, ngram_size - ngram_overlap)


def _window_spans(doc: Document, starts: Sequence[int], ngram_size: int) -> list[tuple[int, int]]:
    """Character span of each window starting at a token in ``starts``, as Python ints."""
    starts = np.asarray(starts, dtype=np.int64)
    begins = doc.token_spans[starts, 0].tolist()
    ends = doc.token_spans[starts + (ngram_size - 1), 1].tolist()
    return list(zip(begins, ends))


def window_hashes(doc: Document, ngram_size: int = 8, ngram_overlap: int = 7) -> np.ndarray:
    """``ngram_hash`` of every sliding window, one ``uint64`` per window.

    Entry ``i`` belongs to the window starting at token ``i * stride`` with
    stride ngram_size - ngram_overlap.
    """
    starts = _window_starts(len(doc.tokens), ngram_size, ngram_overlap)
    tokens = doc.tokens
    return np.fromiter(
        (ngram_hash(tokens[start : start + ngram_size]) for start in starts),
        dtype=np.uint64,
        count=len(starts),
    )


def chunk_ngrams(doc: Document, ngram_size: int = 8, ngram_overlap: int = 7) -> list[NGram]:
    """Sliding n-gram windows with stride ngram_size - ngram_overlap."""
    starts = _window_starts(len(doc.tokens), ngram_size, ngram_overlap)
    hashes = window_hashes(doc, ngram_size, ngram_overlap).tolist()
    return [
        NGram(doc.doi, start, span, value)
        for start, span, value in zip(starts, _window_spans(doc, starts, ngram_size), hashes)
    ]


def seed_matches(
    a: Document,
    b: Document,
    ngram_size: int = 8,
    ngram_overlap: int = 7,
    *,
    hashes_a: np.ndarray | None = None,
    hashes_b: np.ndarray | None = None,
) -> list[Seed]:
    """All n-gram occurrence pairs with equal hashes and equal tokens.

    ``hashes_a``/``hashes_b`` are the documents' ``window_hashes`` for the
    same window parameters; a side left out is hashed here. Token
    re-comparison discards residual hash collisions.
    """
    if hashes_a is None:
        hashes_a = window_hashes(a, ngram_size, ngram_overlap)
    if hashes_b is None:
        hashes_b = window_hashes(b, ngram_size, ngram_overlap)
    # A sort of side a plus a binary search per window of side b finds, for
    # each b window, the run of a windows with the same hash; a pair sharing
    # no hash costs no Python-level work.
    order_a = np.argsort(hashes_a, kind="stable")
    sorted_a = hashes_a[order_a]
    first = np.searchsorted(sorted_a, hashes_b, side="left")
    last = np.searchsorted(sorted_a, hashes_b, side="right")
    rows_b = np.flatnonzero(first < last)
    if rows_b.size == 0:
        return []
    stride = ngram_size - ngram_overlap
    starts_a: list[int] = []
    starts_b: list[int] = []
    for row_b in rows_b.tolist():
        start_b = row_b * stride
        tokens_b = b.tokens[start_b : start_b + ngram_size]
        for row_a in order_a[first[row_b] : last[row_b]].tolist():
            start_a = row_a * stride
            if a.tokens[start_a : start_a + ngram_size] == tokens_b:
                starts_a.append(start_a)
                starts_b.append(start_b)
    seeds = [
        Seed(span_a, span_b)
        for span_a, span_b in zip(_window_spans(a, starts_a, ngram_size), _window_spans(b, starts_b, ngram_size))
    ]
    seeds.sort()
    return seeds


def extend(
    seeds: Sequence[Seed],
    max_gap: int = 250,
    min_seeds: int = 2,
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Merge seeds into cases by single-linkage clustering.

    Two seeds link iff their character gap is <= max_gap on both sides;
    clusters below min_seeds are discarded; surviving bounding boxes that
    overlap on both sides are fused so no nested duplicates are emitted.
    """
    if not seeds:
        return []
    ordered = sorted(seeds)
    n = len(ordered)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx

    # Sorted by span_a begin, any linkable pair (i, j) satisfies
    # begin_j - begin_i <= max_gap + longest span on side a, which bounds the
    # backward scan window.
    longest_a = max(s.span_a[1] - s.span_a[0] for s in ordered)
    window = max_gap + longest_a
    for j in range(n):
        begin_j = ordered[j].span_a[0]
        i = j - 1
        while i >= 0 and begin_j - ordered[i].span_a[0] <= window:
            if (
                sp.gap(ordered[i].span_a, ordered[j].span_a) <= max_gap
                and sp.gap(ordered[i].span_b, ordered[j].span_b) <= max_gap
            ):
                union(i, j)
            i -= 1

    clusters: dict[int, list[Seed]] = {}
    for idx, seed in enumerate(ordered):
        clusters.setdefault(find(idx), []).append(seed)

    boxes = [
        (sp.bounding([s.span_a for s in members]), sp.bounding([s.span_b for s in members]))
        for members in clusters.values()
        if len(members) >= min_seeds
    ]

    merged = True
    while merged:
        merged = False
        fused: list[tuple[tuple[int, int], tuple[int, int]]] = []
        for box in sorted(boxes):
            for k, other in enumerate(fused):
                if sp.overlaps(box[0], other[0]) and sp.overlaps(box[1], other[1]):
                    fused[k] = (sp.bounding([box[0], other[0]]), sp.bounding([box[1], other[1]]))
                    merged = True
                    break
            else:
                fused.append(box)
        boxes = fused
    return sorted(boxes)


def case_namespace(seed: int) -> uuid.UUID:
    """Run-scoped UUID namespace; case ids are reproducible given the seed."""
    return uuid.uuid5(_CASE_NAMESPACE_ROOT, str(seed))


def align_pair(
    a: Document,
    b: Document,
    params: AlignmentParams | None = None,
    namespace: uuid.UUID = _CASE_NAMESPACE_ROOT,
    *,
    hashes_a: np.ndarray | None = None,
    hashes_b: np.ndarray | None = None,
) -> list[ReuseCase]:
    """Detect all reuse cases between two documents.

    Callers supply the pair in canonical (doi_a < doi_b) order; the output
    labels sides by argument position and is sorted by (begin_a, begin_b).
    Precomputed ``window_hashes`` of either side are passed on to
    ``seed_matches``, which hashes a side left out.
    """
    params = params or AlignmentParams()
    seeds = seed_matches(
        a, b, params.ngram_size, params.ngram_overlap, hashes_a=hashes_a, hashes_b=hashes_b
    )
    merged = extend(seeds, params.max_gap, params.min_seeds)
    return [_materialize(a, b, span_a, span_b, namespace) for span_a, span_b in merged]


def _materialize(
    a: Document,
    b: Document,
    span_a: tuple[int, int],
    span_b: tuple[int, int],
    namespace: uuid.UUID,
) -> ReuseCase:
    key = f"{a.doi}|{b.doi}|{span_a[0]}|{span_a[1]}|{span_b[0]}|{span_b[1]}"
    return ReuseCase(
        id=str(uuid.uuid5(namespace, key)),
        **_side_fields("a", a, span_a),
        **_side_fields("b", b, span_b),
    )


def _side_fields(side: str, doc: Document, span: tuple[int, int]) -> dict:
    begin, end = span
    text = doc.normalized_text
    return {
        f"text_{side}": text[begin:end],
        f"before_{side}": text[max(0, begin - CONTEXT_CHARS) : begin],
        f"after_{side}": text[end : end + CONTEXT_CHARS],
        f"begin_{side}": begin,
        f"end_{side}": end,
        f"doc_length_{side}": doc.doc_length,
        f"doi_{side}": doc.doi,
        f"year_{side}": doc.year,
        f"field_{side}": doc.field,
        f"area_{side}": doc.area,
        f"discipline_{side}": doc.discipline,
    }


_FIELDS = tuple(f.name for f in fields(ReuseCase))
# Dropped in metadata-only mode; read back as "".
_TEXT_FIELDS = ("text_a", "before_a", "after_a", "text_b", "before_b", "after_b")
# Tuples in a case, lists in a record; None and an empty tuple are both [].
_LIST_FIELDS = ("field_a", "area_a", "discipline_a", "field_b", "area_b", "discipline_b")
_METADATA_FIELDS = tuple(name for name in _FIELDS if name not in _TEXT_FIELDS)
_NULLABLE_FIELDS = frozenset(
    name for name, hint in get_type_hints(ReuseCase).items() if type(None) in get_args(hint)
)


def case_from_record(record: dict) -> ReuseCase:
    """Rebuild a case from an emitted record; text fields may be absent
    (metadata-only files) and come back empty."""
    values = {}
    for name in _FIELDS:
        if name in _TEXT_FIELDS:
            values[name] = record.get(name, "")
        elif name in _LIST_FIELDS:
            values[name] = tuple(record.get(name) or ()) or None
        elif name in _NULLABLE_FIELDS:
            values[name] = record.get(name)
        else:
            values[name] = record[name]
    return ReuseCase(**values)


def case_record(case: ReuseCase, include_text: bool = True) -> dict:
    """Emitted record for one case, keys in field order; metadata-only mode
    omits the text fields."""
    record = {}
    for name in _FIELDS if include_text else _METADATA_FIELDS:
        value = getattr(case, name)
        record[name] = list(value or ()) if name in _LIST_FIELDS else value
    return record
