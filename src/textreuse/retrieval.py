"""Candidate retrieval: prune the quadratic document-pair space to the pairs
that alignment could turn into a case.

The default, ``retrieve_candidates_ngram``, hashes every stride-1 window of
n words in each document with alignment's own ``window_hashes`` and keeps
the document pairs that share at least one window hash; a pair's evidence
is the sum over shared hashes of the product of their counts in the two
documents. The pipeline takes n = min(``RETRIEVAL_NGRAM_SIZE``,
``ngram_size``). Alignment seeds only on token-equal windows of
``ngram_size`` words, and each such window contains a shared n-gram, so
every pair that can yield a case is kept.

Every mode reads words as ``Document.token_hashes``, the 64-bit word hashes
that ``normalize`` computes once per document; no mode touches a token
string. Two bag-of-words modes are kept as references. Both split documents
into the same consecutive fixed-size passages (``_split_passages``), and a
term is a word's ``token_hashes`` entry. ``retrieve_candidates_exact``
builds the binary term×passage matrix as the keys of its distinct (term,
passage) entries (``_passage_matrix``), enumerates exactly the pairs with a
passage-level overlap of at least ``min_shared_terms`` distinct terms, and
doubles as the testing oracle for the sketched path. In ``minhash`` mode
min-hash function j of a word is splitmix64's finalizer of its hash xor a
seeded key, each passage's sketch is the per-function minimum over its
tokens (``sketch_corpus``), an inverted index lists each passage under its
distinct sketch values (``build_index``), and every document pair whose
sketches collide is kept (``retrieve_candidates``). On Zipfian text
frequent words win the min-hashes and nearly every document pair survives.

Every mode, and alignment, reads its pairs off one sorted numpy join of a
count matrix with itself (``_join_blocks``), whose one input is the
ascending ``row * columns + column`` keys that ``_entry_keys`` sorts once:
window hashes by document, words by passage, sketch values by document.
The join hands its pairs on block by block. ``cooccurring_pairs``
concatenates the blocks for ngram mode, minhash mode and alignment, which
join on documents already. Exact mode passes its threshold into the join,
which drops the passage pairs below it block by block, and maps each block
to document pairs at once, so that it holds document pairs, not passage
pairs. No caller names the keys it hands the join: on CPython 3.11 and
later, which move a call's arguments into the callee's frame, they are
freed as the join goes; 3.10 keeps them on the caller's stack until the
call returns. Every mode returns its pairs in ascending ``(doi_a, doi_b)``
order. The package needs numpy alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

from .alignment import window_hashes
from .ingest import Document, _mix, _token_hashes
from .jsonl import read_lines, write_lines

log = logging.getLogger(__name__)

# splitmix64's increment: MinHasher's keys are that generator's outputs.
_KEY_STEP = 0x9E3779B97F4A7C15

# Words per window in ngram mode; capped at alignment's ngram_size.
RETRIEVAL_NGRAM_SIZE = 3

# Pair visits the join (``_join_blocks``) expands at a time: besides its
# arrays over the entries, its working memory is bounded by this, not by
# the number of visits. On exact mode's 5.2 million visits over 1,000
# documents, on a 2-vCPU Xeon with AVX-512, blocks of 2**14 to 2**18 ran the
# join in 64-68 ms, 2**13 in 74-76 ms and 2**12 in 89-91 ms (best of 7,
# three rounds); larger blocks only hold more.
_JOIN_BLOCK = 2**16

# Document pairs ``retrieve_candidates_exact`` holds, summed per block, before
# it merges them (or as many as it has merged, if more).
_DOC_PAIR_MERGE = 2**14

# Word hashes ``MinHasher.minima`` reduces at a time. On 1.0M hashes and 10
# functions, on a Xeon with 2 MiB of L2 per core, 2**15 and 2**16 ran
# fastest, in half the time of one pass over all of them; 2**12 and 2**17
# were slower.
_MINIMA_BLOCK = 2**15


@dataclass(frozen=True, slots=True)
class CandidatePair:
    """Unordered document pair with collision evidence (canonical doi_a < doi_b).

    Slotted: a retrieval run builds one per pair, often 10**5 or more, and
    without an instance dict each takes one allocation instead of two.
    """

    doi_a: str
    doi_b: str
    evidence: int = 1

    def __post_init__(self):
        if self.doi_a >= self.doi_b:
            raise ValueError("candidate pair must satisfy doi_a < doi_b")
        if self.evidence < 1:
            raise ValueError("evidence must be >= 1")

    @property
    def key(self) -> tuple[str, str]:
        return (self.doi_a, self.doi_b)


class MinHasher:
    """Family of ``num_hashes`` seeded hash functions over term sets.

    Function j of a term whose 64-bit word hash is ``h`` (``_token_hashes``)
    is ``_mix(h ^ keys[j])``, splitmix64's finalizer. ``keys[j]`` is output
    ``j + 1`` of the splitmix64 generator started at ``seed`` modulo 2**64,
    so any Python int seeds it and the keys are distinct. The sketch of a
    term set is the per-function minimum.
    """

    def __init__(self, num_hashes: int = 10, seed: int = 0):
        if num_hashes < 1:
            raise ValueError("num_hashes must be >= 1")
        self.num_hashes = num_hashes
        self.seed = seed
        states = [(seed + j * _KEY_STEP) % 2**64 for j in range(1, num_hashes + 1)]
        self.keys = _mix(np.array(states, dtype=np.uint64))

    def minima(self, hashes: np.ndarray, starts: ArrayLike) -> np.ndarray:
        """Per-function minima over each run of the word hashes ``hashes``
        that begins at an offset in ``starts`` and ends at the next one (the
        last at the end); shape ``(len(starts), num_hashes)``.

        The runs are taken about ``_MINIMA_BLOCK`` hashes at a time, whole
        runs only, so that every function's temporaries stay in cache.
        """
        starts = np.asarray(starts, dtype=np.int64)
        sketches = np.empty((len(starts), self.num_hashes), dtype=np.uint64)
        # A block begins at each run that begins in a new _MINIMA_BLOCK window.
        cuts = np.flatnonzero(np.diff(starts // _MINIMA_BLOCK, prepend=-1)).tolist()
        for lo, hi in zip(cuts, [*cuts[1:], len(starts)]):
            end = starts[hi] if hi < len(starts) else hashes.size
            block, offsets = hashes[starts[lo] : end], starts[lo:hi] - starts[lo]
            for j, key in enumerate(self.keys):
                sketches[lo:hi, j] = np.minimum.reduceat(_mix(block ^ key), offsets)
        return sketches

    def values(self, terms: Iterable[str]) -> np.ndarray:
        """Per-function minima over the term set; shape (num_hashes,)."""
        terms = list(terms)
        if not terms:
            raise ValueError("cannot sketch an empty term set")
        return self.minima(_token_hashes(terms), [0])[0]


def _split_passages(docs: Sequence[Document], passage_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Each passage's bounds in the corpus's word hashes in token order
    (``_concatenate`` of the documents' ``token_hashes``): the offset of
    every passage's first token, then the corpus's end; and each passage's
    document index.

    Each document splits into consecutive passages of ``passage_size``
    tokens, the last possibly shorter, so every passage holds at least one
    token; an empty document has none. A word's hash is its
    ``Document.token_hashes`` entry, which is also its one-word
    ``window_hashes`` value in ngram mode and alignment.
    """
    if passage_size < 1:
        raise ValueError("passage_size must be >= 1")
    lengths = np.fromiter((len(doc.token_hashes) for doc in docs), dtype=np.int64, count=len(docs))
    passages = -(-lengths // passage_size)
    owner = np.repeat(np.arange(len(docs), dtype=np.int64), passages)
    # Passage k of its document starts k * passage_size tokens in.
    k = np.arange(owner.size) - (np.cumsum(passages) - passages)[owner]
    starts = (np.cumsum(lengths) - lengths)[owner] + k * passage_size
    return np.append(starts, lengths.sum()), owner


def _concatenate(hashes: Iterable[np.ndarray]) -> np.ndarray:
    """The ``uint64`` arrays ``hashes`` end to end; an empty iterable gives
    an empty array."""
    return np.concatenate([np.empty(0, np.uint64), *hashes])


def _passage_matrix(docs: Sequence[Document], passage_size: int, counts: dict | None = None) -> np.ndarray:
    """Binary term×passage matrix of a corpus as the join's keys ``term *
    passages + passage``, distinct and ascending.

    Passage ``p`` is passage ``p`` of ``_split_passages``. Terms are word
    hashes numbered in hash order (``_entry_keys``), so two words that
    collide count as one term, which can only add candidate pairs.
    ``counts``, if given, receives the matrix shape as ``passages`` and
    ``terms``.
    """
    bounds, owner = _split_passages(docs, passage_size)
    passages = owner.size
    if counts is not None:
        counts["passages"] = passages
    keys = _entry_keys(
        (doc.token_hashes for doc in docs), np.arange(passages), np.diff(bounds), passages, counts, "terms"
    )
    return _distinct(keys)


def _distinct(ordered: np.ndarray) -> np.ndarray:
    """The distinct values of the sorted array ``ordered``, moved to its
    front in place ``_JOIN_BLOCK`` values at a time: a view of that prefix,
    so that no second array over all of them exists."""
    kept = 0
    for lo in range(0, ordered.size, _JOIN_BLOCK):
        chunk = ordered[lo : lo + _JOIN_BLOCK]
        fresh = _run_starts(chunk)
        if kept:
            fresh[0] = chunk[0] != ordered[kept - 1]
        chunk = chunk[fresh]
        ordered[kept : kept + chunk.size] = chunk
        kept += chunk.size
    return ordered[:kept]


def sketch_corpus(
    docs: Sequence[Document],
    passage_size: int = 50,
    num_hashes: int = 10,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Min-hash sketch of every passage with at least two distinct terms.

    Returns ``(owner, sketches)``: row ``i`` of the ``(passages,
    num_hashes)`` array ``sketches`` holds the ``MinHasher(num_hashes,
    seed)`` minima over the distinct terms of a passage of
    ``docs[owner[i]]``, passages in corpus order (``_split_passages``). A
    function's minimum over a passage's tokens is its minimum over the
    passage's distinct terms, so each function is one ``reduceat`` over the
    corpus's word hashes (``MinHasher.minima``, block by block). Passages
    whose words all hash alike are skipped: a near-constant passage sketches
    to copies of a single hash and floods the index.
    """
    bounds, owner = _split_passages(docs, passage_size)
    hashes, starts = _concatenate(doc.token_hashes for doc in docs), bounds[:-1]
    # Every passage is reduced, then passages are dropped: a reduceat over
    # the kept starts alone would fold each dropped passage into the one
    # before it.
    keep = np.minimum.reduceat(hashes, starts) != np.maximum.reduceat(hashes, starts)
    return owner[keep], MinHasher(num_hashes, seed).minima(hashes, starts)[keep]


@dataclass
class PassageIndex:
    """Inverted index over sketch values: one join key ``posting * width +
    document`` per passage in a posting (its value's rank among all values,
    dropped ones included), ascending. ``postings`` counts the kept values."""

    keys: np.ndarray
    width: int
    postings: int
    dropped_hashes: int = 0


def build_index(owner: np.ndarray, sketches: np.ndarray, df_cap: int = 1000) -> PassageIndex:
    """Build the inverted index over ``sketch_corpus`` output.

    A passage enters each of its distinct values' postings once, however
    many functions reach that value. Values occurring in more than
    ``df_cap`` distinct documents are dropped with a diagnostic:
    boilerplate-driven postings grow candidate output quadratically while
    carrying no pair-specific signal.
    """
    ordered = np.sort(sketches, axis=1)
    first = np.ones(ordered.shape, dtype=bool)
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    width = int(owner.max()) + 1 if owner.size else 1
    keys = _entry_keys([ordered[first]], owner, first.sum(axis=1), width)
    # Documents per value: the distinct keys of each posting, one count for
    # every distinct value.
    df = np.bincount(keys[_run_starts(keys)] // width)
    distinct = df.size
    kept = df <= df_cap
    dropped = distinct - int(kept.sum())
    if dropped:
        log.warning("dropped %d over-frequent hash postings (df_cap=%d)", dropped, df_cap)
    return PassageIndex(keys[kept[keys // width]], width, distinct - dropped, dropped)


def retrieve_candidates(
    index: PassageIndex, dois: Sequence[str], *, counts: dict | None = None
) -> list[CandidatePair]:
    """All unordered document pairs co-occurring in at least one posting, in
    ascending ``(doi_a, doi_b)`` order; the index's owners index ``dois``.

    Evidence counts distinct (hash value, passage pair) co-occurrences. With
    ``C[r, d]`` the number of posting ``r``'s entries from document ``d``,
    a pair's evidence is ``(C.T @ C)[a, b]`` (``cooccurring_pairs``, which
    records ``pair_visits`` in ``counts`` if given).
    """
    # The join overwrites its keys; a copy leaves the index usable again.
    a, b, weight = cooccurring_pairs(index.keys.copy(), index.width, counts=counts)
    return _candidates(dois, a, b, weight)


def cooccurring_pairs(
    keys: np.ndarray, n_cols: int, *, counts: dict | None = None, min_weight: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column pairs ``a < b`` that share a row, with their co-occurrence count.

    ``keys`` holds ``row * n_cols + col`` in ascending ``int64`` for each
    count at ``C[row, col]`` of a count matrix ``C`` of ``n_cols`` columns
    (``_entry_keys``): a key repeated m times is a cell of count m. Rows
    need not be dense. The join overwrites ``keys``. Returns parallel
    ``int64`` arrays ``(a, b, weight)`` in ascending ``(a, b)`` order over
    the strict upper triangle of ``Cᵀ C`` where it reaches ``min_weight``:
    ``weight`` is the sum over rows ``r`` of ``C[r, a] * C[r, b]``.

    The blocks of ``_join_blocks`` end to end; ``counts``, if given,
    receives the number of column pairs visited as ``pair_visits``.
    """
    blocks = _join_blocks(keys, n_cols, counts, min_weight)
    # The generator holds the keys from here on and frees them as it goes.
    del keys
    pairs, weights = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for pair, weight in blocks:
        pairs.append(pair)
        weights.append(weight)
    a, b = np.divmod(np.concatenate(pairs), n_cols)
    del pairs
    return a, b, np.concatenate(weights)


def _join_blocks(
    keys: np.ndarray, n_cols: int, counts: dict | None, min_weight: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The join of ``cooccurring_pairs`` as it goes: one ``(pair, weight)``
    of ``int64`` arrays per block, ``pair = a * n_cols + b`` ascending
    within the block and the blocks in ascending ``a``.

    A sorted join: the distinct entries of each row, with their counts, are
    expanded into that row's column pairs, and equal pairs are summed in
    integers. The expansion runs by the lower column ``a``, whole columns
    and about ``_JOIN_BLOCK`` visits at a time, so each block holds every
    visit of its pairs and drops those below ``min_weight`` before it is
    handed on. A block's pair keys count from its first column, ``(a -
    first) * n_cols + b``, in ``int32`` where its span of columns allows,
    which halves the sort that sums them. With binary cells a pair's weight
    is the length of its run of equal keys, so above 1 a sorted block keeps
    the pairs whose key recurs ``min_weight - 1`` places on, without
    reducing every run. Above 1, ``min_weight`` makes this the thresholded
    all-pairs overlap query of Bayardo, Ma & Srikant (WWW 2007), without
    their prefix filtering. ``counts``, if given, receives the number of
    column pairs visited as ``pair_visits`` before the first block.

    Working memory is a block and arrays over the distinct entries besides
    ``keys``: each one's column in the narrowest type that holds ``n_cols``
    and ``int32`` indices (below 2**31 entries), each dropped before the
    next is built. A block's visit offsets are its own: no offset array
    spans the entries. On 99,212 term×passage entries tracemalloc sees a
    peak of 18.2 bytes per entry besides the keys.
    """
    index = _index_type(keys.size)
    # A run of equal keys is one cell; with no run longer than one, every
    # visit weighs one and a pair's weight is the number of its visits.
    fresh = _run_starts(keys)
    starts = None if fresh.all() else np.flatnonzero(fresh)
    del fresh
    cell = None
    if starts is not None:
        cell = np.empty(starts.size, dtype=index)
        np.subtract(starts[1:], starts[:-1], out=cell[:-1], casting="unsafe")
        cell[-1:] = keys.size - starts[-1:]
        keys = keys[starts]
    del starts
    # Columns in the narrowest unsigned type that holds every column: up to
    # 16 bits a stable sort is numpy's radix sort, five times faster here
    # than on int64.
    col = np.empty(keys.size, dtype=np.min_scalar_type(max(n_cols - 1, 0)))
    np.remainder(keys, n_cols, out=col, casting="unsafe")
    keys //= n_cols
    fresh = _run_starts(keys)
    del keys
    # The entries by column, rows ascending within each; sorted before the
    # visit counts exist, when the fewest arrays are live.
    by_col = np.argsort(col, kind="stable").astype(index)
    # Entry i visits each later entry of its row: a column above its own.
    # The k-th row, counting from 1, ends at ``ends[k]``, where the next
    # one starts.
    ends = np.flatnonzero(np.append(fresh, True)).astype(index)
    partners = ends[np.cumsum(fresh, dtype=index)]
    del fresh, ends
    partners -= np.arange(1, partners.size + 1, dtype=index)
    visits = int(partners.sum())
    if counts is not None:
        counts["pair_visits"] = visits
    # Only the entries that visit any are expanded.
    load = partners[by_col]
    del partners
    # One at a time, so that only one of them is held twice.
    active = load > 0
    by_col = by_col[active]
    load = load[active]
    del active
    # Each block starts at the column whose visits cross the next multiple
    # of _JOIN_BLOCK, so it expands at most _JOIN_BLOCK plus one column's
    # visits, and no column is split between two blocks.
    column_starts = np.flatnonzero(_run_starts(col[by_col]))
    totals = np.add.reduceat(load, column_starts, dtype=np.int64)
    crossed = np.searchsorted(np.cumsum(totals) - totals, np.arange(0, visits, _JOIN_BLOCK), side="right") - 1
    bounds = column_starts[crossed[_run_starts(crossed)]].tolist()
    del column_starts, totals, crossed
    for lo, hi in zip(bounds, [*bounds[1:], by_col.size]):
        entry, n = by_col[lo:hi], load[lo:hi]
        first = int(col[entry[0]])
        span = int(col[entry[-1]]) - first + 1
        # Entry e's visits are the block's visits from ``ends - n`` on, and
        # its j-th one pairs it with entry e + 1 + j.
        ends = np.cumsum(n, dtype=np.int64)
        right = np.repeat(entry + 1 - (ends - n), n)
        right += np.arange(right.size)
        pair = np.repeat((col[entry] - first).astype(np.int32 if span * n_cols <= 2**31 else np.int64) * n_cols, n)
        pair += col[right]
        weight = None if cell is None else np.repeat(cell[entry].astype(np.int64), n) * cell[right]
        del right
        if weight is None and min_weight > 1:
            pair.sort()
            # A pair of weight w is a run of w equal keys: it reaches
            # min_weight where a key recurs min_weight - 1 places on, once
            # for each of w - min_weight + 1 places in its run.
            head = pair[: 1 - min_weight]
            pair, weight = _run_lengths(head[head == pair[min_weight - 1 :]])
            del head
            weight += min_weight - 1
        else:
            pair, weight = _sum_by_key(pair, weight)
            kept = weight >= min_weight
            pair, weight = pair[kept], weight[kept]
        pair = pair.astype(np.int64, copy=False)
        pair += first * n_cols
        yield pair, weight


def _index_type(size: int) -> type:
    """The integer type of indices into ``size`` entries: ``int32`` below
    2**31, which halves every index array, else ``int64``."""
    return np.int32 if size < 2**31 else np.int64


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that differ from the one
    before them; the first is True."""
    fresh = np.empty(ordered.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    return fresh


def _dense_ranks(arrays: Iterable[np.ndarray]) -> tuple[np.ndarray, int]:
    """Each value's rank among the distinct values of the ``uint64`` arrays
    ``arrays`` end to end (``_concatenate``), and their number.

    The ranks equal ``np.unique(values, return_inverse=True)[1]`` of that
    concatenation, in ``_index_type``: one argsort, the concatenation
    sorted in place (equal to ``values[order]``), the mask of where it
    changes, and its running count. The concatenation is freed before any
    rank exists, so the peak is two 8-byte arrays per value.
    """
    values = _concatenate(arrays)
    order = np.argsort(values)
    values.sort()
    change = _run_starts(values)
    del values
    ranks = np.cumsum(change, dtype=_index_type(change.size))
    del change
    distinct = int(ranks[-1]) if ranks.size else 0
    ranks -= 1
    inverse = np.empty_like(ranks)
    inverse[order] = ranks
    return inverse, distinct


def _sum_by_key(keys: np.ndarray, weights: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` in ascending order and the sum of ``weights``
    over each, or each key's number of occurrences if ``weights`` is None.

    Sorts rather than calling ``np.unique``: numpy >= 2.3 answers a plain
    ``np.unique`` from a hash table, which took 85 ms against the sort's
    3 ms on the minhash index keys of a 1,000-document corpus. Without
    ``weights`` the sort is in place.
    """
    if weights is None:
        keys.sort()
        return _run_lengths(keys)
    order = np.argsort(keys)
    keys = keys[order]
    weights = weights[order]
    starts = np.flatnonzero(_run_starts(keys))
    return keys[starts], np.add.reduceat(weights, starts)


def _run_lengths(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the sorted array ``ordered``, and the length
    of each one's run as ``int64``."""
    starts = np.flatnonzero(_run_starts(ordered))
    return ordered[starts], np.diff(np.append(starts, ordered.size))


def _entry_keys(
    arrays: Iterable[np.ndarray],
    owner: ArrayLike,
    lengths: ArrayLike,
    width: int,
    counts: dict | None = None,
    name: str = "",
) -> np.ndarray:
    """The ascending join keys of (value, owner) entries.

    The values are the ``uint64`` ``arrays`` end to end. Run ``i`` of them
    holds the next ``lengths[i]`` values, each owned by column ``owner[i]``
    of ``width``; an entry's key is its value's rank among the distinct
    values (``_dense_ranks``) times ``width``, plus its owner, so every rank
    below the number of distinct values has a key. ``counts``, if given,
    receives the number of distinct values as ``name``.
    """
    rank, distinct = _dense_ranks(arrays)
    if counts is not None:
        counts[name] = distinct
    keys = np.multiply(rank, width, dtype=np.int64)
    del rank
    keys += np.repeat(owner, lengths)
    keys.sort()
    return keys


def shared_hash_pairs(
    hashes: Sequence[np.ndarray], *, counts: dict | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs ``i < j`` whose hash arrays share a value.

    Returns ``cooccurring_pairs`` over the distinct-value × array count
    matrix: entry ``(i, j)`` sums, over the shared values, the value's count
    in ``hashes[i]`` times its count in ``hashes[j]``. ``counts``, if given,
    receives the number of distinct values as ``hash_postings`` and the
    join's ``pair_visits``.
    """
    n = len(hashes)
    lengths = np.fromiter(map(len, hashes), dtype=np.int64, count=n)
    # Passed unnamed, the keys are freed as the join goes.
    return cooccurring_pairs(_entry_keys(hashes, np.arange(n), lengths, n, counts, "hash_postings"), n, counts=counts)


def retrieve_candidates_ngram(
    docs: Sequence[Document], ngram_size: int = RETRIEVAL_NGRAM_SIZE, *, counts: dict | None = None
) -> list[CandidatePair]:
    """Document pairs sharing at least one stride-1 word ``ngram_size``-gram
    hash, in ascending ``(doi_a, doi_b)`` order.

    Evidence is the number of shared window occurrence pairs. ``counts``, if
    given, receives the number of distinct window hashes as
    ``hash_postings`` and the join's ``pair_visits``.
    """
    hashes = [window_hashes(doc, ngram_size, ngram_size - 1) for doc in docs]
    a, b, weight = shared_hash_pairs(hashes, counts=counts)
    return _candidates([doc.doi for doc in docs], a, b, weight)


def _candidates(
    dois: Sequence[str], doc_a: np.ndarray, doc_b: np.ndarray, weights: np.ndarray | None = None
) -> list[CandidatePair]:
    """Candidate pairs from parallel arrays of indices into ``dois``, in
    ascending ``(doi_a, doi_b)`` order.

    Each pair is put in canonical doi order, and the weights of repeated
    pairs (one each if ``weights`` is None) are summed into that pair's
    evidence. The order is ``_sum_by_key``'s, over keys that rank the dois.
    """
    names = sorted(set(dois))
    rank = {doi: i for i, doi in enumerate(names)}
    to_rank = np.array([rank[doi] for doi in dois], dtype=np.int64)
    a, b = to_rank[doc_a], to_rank[doc_b]
    keys = np.minimum(a, b) * len(names) + np.maximum(a, b)
    keys, evidence = _sum_by_key(keys, None if weights is None else np.asarray(weights, dtype=np.int64))
    first, second = np.divmod(keys, len(names))
    return [
        CandidatePair(names[i], names[j], n)
        for i, j, n in zip(first.tolist(), second.tolist(), evidence.tolist())
    ]


def retrieve_candidates_exact(
    docs: Sequence[Document],
    passage_size: int = 50,
    min_shared_terms: int = 9,
    *,
    counts: dict | None = None,
) -> list[CandidatePair]:
    """Exact candidate enumeration: pairs with some passage pair sharing
    at least ``min_shared_terms`` distinct terms, in ascending ``(doi_a,
    doi_b)`` order.

    The passage pairs come from ``_join_blocks`` over the term×passage keys
    of ``_passage_matrix`` at ``min_weight=min_shared_terms``; evidence
    counts qualifying passage pairs. Each block is mapped to document pairs
    at once, pairs within one document dropped, and the counts are summed
    per document pair (``_sum_by_key``) whenever the blocks not yet summed
    hold more than ``_DOC_PAIR_MERGE`` pairs, or than the sum so far: the
    memory held grows with the document pairs, not the passage pairs.
    Unlike sketching, all passages participate (including short trailing
    ones), so this mode is sound for downstream alignment at
    min_shared_terms=1. ``counts``, if given, receives the matrix shape as
    ``passages`` and ``terms``, the join's ``pair_visits``, and the
    qualifying passage pairs, within one document included, as
    ``passage_pairs``.
    """
    if min_shared_terms < 1:
        raise ValueError("min_shared_terms must be >= 1")
    owner = _split_passages(docs, passage_size)[1]
    width = len(docs)
    # Passed unnamed, the keys are freed as the join goes.
    blocks = _join_blocks(_passage_matrix(docs, passage_size, counts), owner.size, counts, min_shared_terms)
    keys, weights = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    passage_pairs = summed = pending = 0
    for pair, _ in blocks:
        passage_pairs += pair.size
        a, b = np.divmod(pair, owner.size)
        doc_a, doc_b = owner[a], owner[b]
        cross = doc_a != doc_b
        key, weight = _sum_by_key(doc_a[cross] * width + doc_b[cross])
        keys.append(key)
        weights.append(weight)
        pending += key.size
        if pending > max(_DOC_PAIR_MERGE, summed):
            key, weight = _sum_by_key(np.concatenate(keys), np.concatenate(weights))
            keys, weights, summed, pending = [key], [weight], key.size, 0
    if counts is not None:
        counts["passage_pairs"] = passage_pairs
    key, weight = _sum_by_key(np.concatenate(keys), np.concatenate(weights))
    del keys, weights
    doc_a, doc_b = np.divmod(key, width)
    return _candidates([doc.doi for doc in docs], doc_a, doc_b, weight)


def write_candidates(path: str | Path, pairs: Iterable[CandidatePair]) -> int:
    """Spill candidate pairs to a tab-separated checkpoint file, sorted
    (``write_lines``)."""
    return write_lines(path, (f"{p.doi_a}\t{p.doi_b}\t{p.evidence}" for p in sorted(pairs, key=lambda p: p.key)))


def read_candidates(path: str | Path) -> list[CandidatePair]:
    """Candidate pairs in file order (``read_lines``); a malformed line or a
    pair listed twice raises ``ValueError`` naming ``path:lineno``."""
    seen: set[tuple[str, str]] = set()

    def parse(line: str) -> CandidatePair:
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 3:
            raise ValueError("expected 3 tab-separated fields")
        pair = CandidatePair(parts[0], parts[1], int(parts[2]))
        if pair.key in seen:
            raise ValueError(f"pair {pair.doi_a}/{pair.doi_b} listed twice")
        seen.add(pair.key)
        return pair

    return read_lines(path, parse)
