"""Seed-and-extend text alignment for one candidate document pair.

Both documents are chunked into overlapping word n-grams, hashed into one flat
``uint64`` table per document from the word hashes that ingest computed
once (``Document.token_hashes``); n-grams with equal hashes (re-verified by
comparing their normalized text) become seeds. Seeds whose character gap
is at most ``max_gap`` on *both* sides are merged transitively into reuse
cases, and cases whose spans overlap on both sides are fused by the same
single-linkage routine, repeated until nothing changes. A case's spans are
the bounding intervals of its member seeds, so reordered or interleaved
reuse still collapses into one case per coherent region.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass
from typing import NamedTuple, Sequence, get_args, get_type_hints

import numpy as np

from . import spans as sp
from .ingest import Document

# Fixed root for deterministic case ids; run namespaces derive from it. It is
# uuid5(NAMESPACE_URL, "textreuse/case") written out: uuid5 imports hashlib,
# and so OpenSSL, which a run then loads only once it derives case ids.
_CASE_NAMESPACE_ROOT = uuid.UUID("3d4eac75-c7fe-58c3-871c-33f3b1232824")

CONTEXT_CHARS = 100


class NGram(NamedTuple):
    doi: str
    start_token: int
    char_span: tuple[int, int]
    hash: int


class Seed(NamedTuple):
    """A verified matching n-gram occurrence pair (char spans per side); a
    case's bounding box is the same pair, so ``extend`` clusters both alike."""

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


class ReuseCase(NamedTuple):
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


# Window hash constant. A window of tokens t_0..t_{n-1} hashes to
# sum(h(t_k) * _TOKEN_BASE**(n-1-k)) modulo 2**64, where h is the word hash
# ``Document.token_hashes`` holds (``ingest._token_hashes``); like the word
# hash, it depends on the window's tokens only.
_TOKEN_BASE = 0xD6E8FEB86659FD93


def _window_starts(n_tokens: int, ngram_size: int, ngram_overlap: int) -> range:
    """Token offsets of the sliding windows; window ``i`` starts at ``i * stride``."""
    if ngram_size < 1:
        raise ValueError("ngram_size must be >= 1")
    if not 0 <= ngram_overlap < ngram_size:
        raise ValueError("ngram_overlap must satisfy 0 <= overlap < ngram_size")
    return range(0, n_tokens - ngram_size + 1, ngram_size - ngram_overlap)


def _window_bounds(doc: Document, starts: np.ndarray, ngram_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Character begin and end of each window starting at a token in ``starts``."""
    return doc.token_offsets[starts], doc.token_offsets[starts + ngram_size] - 1


def window_hashes(doc: Document, ngram_size: int = 8, ngram_overlap: int = 7) -> np.ndarray:
    """64-bit hash of every sliding window's tokens, one ``uint64`` per window.

    Entry ``i`` belongs to the window starting at token ``i * stride`` with
    stride ngram_size - ngram_overlap. Equal token windows hash equally in
    any document; unequal ones may collide, so matches are re-verified.
    """
    per_token = doc.token_hashes
    starts = _window_starts(len(per_token), ngram_size, ngram_overlap)
    if not starts:
        return np.empty(0, dtype=np.uint64)
    count = len(per_token) - ngram_size + 1  # stride-1 windows
    hashes = np.zeros(count, dtype=np.uint64)
    for k in range(ngram_size):
        hashes *= np.uint64(_TOKEN_BASE)
        hashes += per_token[k : k + count]
    return hashes[:: starts.step]


def chunk_ngrams(doc: Document, ngram_size: int = 8, ngram_overlap: int = 7) -> list[NGram]:
    """Sliding n-gram windows with stride ngram_size - ngram_overlap."""
    starts = _window_starts(len(doc.token_hashes), ngram_size, ngram_overlap)
    hashes = window_hashes(doc, ngram_size, ngram_overlap).tolist()
    begins, ends = _window_bounds(doc, np.asarray(starts, dtype=np.int64), ngram_size)
    return [
        NGram(doc.doi, start, span, value)
        for start, span, value in zip(starts, zip(begins.tolist(), ends.tolist()), hashes)
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
    same window parameters; a side left out is hashed here. Comparing the
    windows' text discards residual hash collisions: tokens hold no space
    and are joined by exactly one, so two windows are token-equal exactly
    when their slices of ``normalized_text`` are equal.
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
    run = np.searchsorted(sorted_a, hashes_b, side="right") - first
    rows_b = np.flatnonzero(run)
    if rows_b.size == 0:
        return []
    # Every (a, b) window pair with equal hashes, b rows ascending and each
    # b row's a rows in sorted-hash order.
    run = run[rows_b]
    pair_b = np.repeat(rows_b, run)
    pair_a = order_a[np.repeat(first[rows_b] - (np.cumsum(run) - run), run) + np.arange(pair_b.size)]
    stride = ngram_size - ngram_overlap
    begin_a, end_a = _window_bounds(a, pair_a * stride, ngram_size)
    begin_b, end_b = _window_bounds(b, pair_b * stride, ngram_size)
    text_a, text_b = a.normalized_text, b.normalized_text
    seeds = [
        Seed((ba, ea), (bb, eb))
        for ba, ea, bb, eb in zip(begin_a.tolist(), end_a.tolist(), begin_b.tolist(), end_b.tolist())
        if text_a[ba:ea] == text_b[bb:eb]
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
    clusters below min_seeds are discarded. Surviving bounding boxes are
    clustered at overlap on both sides until nothing changes, so no nested
    duplicates are emitted; boxes that overlap end up in one case whatever
    the order of merges, so the result is unique."""
    boxes = _clusters(seeds, max_gap, min_seeds)
    while (fused := _clusters(boxes, -1, 1)) != boxes:
        boxes = fused
    return boxes


def _clusters(
    boxes: Sequence[tuple[sp.Span, sp.Span]], max_gap: int, min_size: int
) -> list[tuple[sp.Span, sp.Span]]:
    """Sorted bounding boxes of the single-linkage clusters of span pairs with
    at least min_size members. Two pairs link iff ``sp.gap`` is <= max_gap
    on both sides; at max_gap -1 they must overlap on both sides."""
    ordered = sorted(boxes)
    parent = list(range(len(ordered)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # Sorted by span_a begin, any linkable pair (i, j) satisfies
    # begin_j - begin_i <= max_gap + longest span on side a, which bounds the
    # backward scan. Pairs first[j]..j were one cluster once pair j was
    # placed, and clusters only grow: a scan that finds pair i in its own
    # cluster jumps to first[i] - 1 without testing the pairs in between.
    window = max_gap + max((span_a[1] - span_a[0] for span_a, _ in ordered), default=0)
    first: list[int] = []
    for j, (span_a, span_b) in enumerate(ordered):
        start, i = j, j - 1
        while i >= 0 and span_a[0] - ordered[i][0][0] <= window:
            root = find(i)
            if root != j:  # j stays the root of its cluster while it is placed
                if sp.gap(ordered[i][0], span_a) > max_gap or sp.gap(ordered[i][1], span_b) > max_gap:
                    i -= 1
                    continue
                parent[root] = j
            if i == start - 1:
                start = first[i]
            i = first[i] - 1
        first.append(start)

    members: dict[int, list[tuple[sp.Span, sp.Span]]] = {}
    for k, box in enumerate(ordered):
        members.setdefault(find(k), []).append(box)
    return sorted(
        (sp.bounding([a for a, _ in group]), sp.bounding([b for _, b in group]))
        for group in members.values()
        if len(group) >= min_size
    )


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
    labels sides by argument position and comes in ``extend``'s box order,
    by (begin_a, end_a, begin_b, end_b).
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


_FIELDS = ReuseCase._fields
# Dropped in metadata-only mode; read back as "".
_TEXT_FIELDS = ("text_a", "before_a", "after_a", "text_b", "before_b", "after_b")
# Tuples in a case, lists in a record; None and an empty tuple are both [].
_LIST_FIELDS = ("field_a", "area_a", "discipline_a", "field_b", "area_b", "discipline_b")
_METADATA_FIELDS = tuple(name for name in _FIELDS if name not in _TEXT_FIELDS)
# The types each other field's record value may take: its annotation's.
_SCALAR_TYPES = {
    name: get_args(hint) or (hint,) for name, hint in get_type_hints(ReuseCase).items() if name not in _LIST_FIELDS
}


def case_from_record(record: dict) -> ReuseCase:
    """Rebuild a case from an emitted record; raises ValueError when the
    record is malformed.

    Text fields may be absent (metadata-only files) and come back empty, and
    so may years and metadata, whose lists must hold non-empty strings. Every
    other field is required. Each value must have its annotated type (a bool
    is no int), each side's span must satisfy ``0 <= begin < end``, and its
    doi must not be empty.
    """
    values = {}
    for name in _FIELDS:
        value = record.get(name, "" if name in _TEXT_FIELDS else None)
        if name in _LIST_FIELDS:
            value = [] if value is None else value
            if not isinstance(value, list) or not all(isinstance(v, str) and v for v in value):
                raise ValueError(f"{name} must be an array of non-empty strings")
            value = tuple(value) or None
        elif isinstance(value, bool) or not isinstance(value, _SCALAR_TYPES[name]):
            if name not in record:
                raise ValueError(f"missing {name}")
            raise ValueError(f"{name} must be {_SCALAR_TYPES[name][0].__name__}, not {type(value).__name__}")
        values[name] = value
    for side in ("a", "b"):
        if not 0 <= values[f"begin_{side}"] < values[f"end_{side}"]:
            raise ValueError(f"invalid span on side {side}")
        if not values[f"doi_{side}"]:
            raise ValueError(f"empty doi_{side}")
    return ReuseCase(**values)


def case_record(case: ReuseCase, include_text: bool = True) -> dict:
    """Emitted record for one case, keys in field order; metadata-only mode
    omits the text fields."""
    record = {}
    for name in _FIELDS if include_text else _METADATA_FIELDS:
        value = getattr(case, name)
        record[name] = list(value or ()) if name in _LIST_FIELDS else value
    return record
