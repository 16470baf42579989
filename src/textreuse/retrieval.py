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

Two bag-of-words modes are kept as references. Both split documents into
consecutive fixed-size passages and build one binary passage×term matrix
(``_passage_matrix``) whose terms are words' 64-bit hashes.
``retrieve_candidates_exact`` enumerates exactly the pairs with a
passage-level overlap of at least ``min_shared_terms`` distinct terms, and
doubles as the testing oracle for the sketched path. In
``minhash`` mode each term is hashed once with a family of seeded
min-hashes, each passage's sketch is the per-function minimum over its
matrix row (``sketch_corpus``), an inverted index lists each passage under
its distinct sketch values (``build_index``), and every document pair whose
sketches collide is kept (``retrieve_candidates``). On Zipfian text frequent
words win the min-hashes and nearly every document pair survives. The ngram
and minhash modes read their evidence off one sorted numpy join of a count
matrix with itself (``cooccurring_pairs``), which alignment also calls. The
default path needs numpy alone: the sparse matrix library is imported only
by ``_passage_matrix``, which only the two reference modes build.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import ArrayLike

from .alignment import window_hashes
from .ingest import Document
from .jsonl import atomic_open

log = logging.getLogger(__name__)

# uint64 lanes per keyed blake2b digest (64-byte digests)
_LANES = 8

# Words per window in ngram mode; capped at alignment's ngram_size.
RETRIEVAL_NGRAM_SIZE = 3

# Pair visits ``cooccurring_pairs`` expands at a time: its working memory is
# bounded by this plus its output, not by the number of visits.
_JOIN_BLOCK = 2**18


@dataclass(frozen=True)
class CandidatePair:
    """Unordered document pair with collision evidence (canonical doi_a < doi_b)."""

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

    Function j of a term is lane j of a chain of keyed blake2b digests of the
    term (8 independent 64-bit lanes per digest; the key encodes the seed and
    the block index). The sketch of a term set is the per-function minimum.
    """

    def __init__(self, num_hashes: int = 10, seed: int = 0):
        if num_hashes < 1:
            raise ValueError("num_hashes must be >= 1")
        self.num_hashes = num_hashes
        self.seed = seed
        blocks = (num_hashes + _LANES - 1) // _LANES
        self._keys = [f"{seed}:{block}".encode("utf-8")[:64] for block in range(blocks)]

    def term_vectors(self, terms: Sequence[str]) -> np.ndarray:
        """All hash-function values of each term; shape (len(terms), num_hashes)."""
        digests = b"".join(
            hashlib.blake2b(data, digest_size=64, key=key).digest()
            for data in map(str.encode, terms)
            for key in self._keys
        )
        lanes = np.frombuffer(digests, dtype=">u8").reshape(len(terms), len(self._keys) * _LANES)
        return lanes[:, : self.num_hashes].astype(np.uint64)

    def values(self, terms: Iterable[str]) -> np.ndarray:
        """Per-function minima over the term set; shape (num_hashes,)."""
        terms = list(terms)
        if not terms:
            raise ValueError("cannot sketch an empty term set")
        return self.term_vectors(terms).min(axis=0)


def _passage_matrix(docs: Sequence[Document], passage_size: int) -> tuple:
    """Binary passage×term matrix of a corpus (a ``scipy.sparse.csr_matrix``),
    each row's document index, and one word of each term in column order.

    Each document splits into consecutive passages of ``passage_size``
    tokens, the last possibly shorter, so every row holds at least one term;
    an empty document has no rows. Token ``i`` of document ``d`` falls in
    row ``row_offset[d] + i // passage_size``, and each distinct term counts
    once per passage. A term is a word's 64-bit hash (``window_hashes`` of
    one-word windows, the hash of ngram mode and alignment), so two words
    that collide count as one term, which can only add candidate pairs.
    """
    from scipy import sparse  # only the reference modes build this matrix

    if passage_size < 1:
        raise ValueError("passage_size must be >= 1")
    lengths = np.fromiter((len(doc.tokens) for doc in docs), dtype=np.int64, count=len(docs))
    passages = -(-lengths // passage_size)
    row_offset = np.cumsum(passages) - passages
    token_offset = np.cumsum(lengths) - lengths
    # The empty leading array lets an empty corpus concatenate too.
    hashes = np.concatenate([np.empty(0, np.uint64), *(window_hashes(doc, 1, 0) for doc in docs)])
    _, first, cols = np.unique(hashes, return_index=True, return_inverse=True)
    tokens = list(itertools.chain.from_iterable(doc.tokens for doc in docs))
    doc_of_token = np.repeat(np.arange(len(docs)), lengths)
    position = np.arange(cols.size) - token_offset[doc_of_token]
    rows = row_offset[doc_of_token] + position // passage_size
    owner = np.repeat(np.arange(len(docs), dtype=np.int64), passages)
    matrix = sparse.csr_matrix(
        (np.ones(cols.size, dtype=np.int32), (rows, cols)),
        shape=(owner.size, first.size),
    )
    matrix.data[:] = 1  # building from coordinates summed the repeats
    return matrix, owner, [tokens[i] for i in first.tolist()]


def sketch_corpus(
    docs: Sequence[Document],
    passage_size: int = 50,
    num_hashes: int = 10,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Min-hash sketch of every passage with at least two distinct terms.

    Returns ``(owner, sketches)``: row ``i`` of the ``(passages,
    num_hashes)`` array ``sketches`` holds the per-function minima over the
    distinct terms of a passage of ``docs[owner[i]]``, passages in corpus
    order. Each term is hashed once, and a passage's minima are a
    ``reduceat`` over its row of the passage×term matrix. Passages with
    fewer than two distinct terms are skipped: a near-constant passage
    sketches to copies of a single hash and floods the index.
    """
    matrix, owner, terms = _passage_matrix(docs, passage_size)
    vectors = MinHasher(num_hashes, seed).term_vectors(terms).T.copy()
    starts = matrix.indptr[:-1]
    sketches = np.empty((owner.size, num_hashes), dtype=np.uint64)
    # Every row is reduced, then rows are dropped: a reduceat over the kept
    # rows' starts alone would fold each dropped row into the row before it.
    for j, vector in enumerate(vectors):
        sketches[:, j] = np.minimum.reduceat(vector[matrix.indices], starts)
    keep = np.diff(matrix.indptr) >= 2
    return owner[keep], sketches[keep]


@dataclass
class PassageIndex:
    """Inverted index over sketch values, as parallel entry arrays: entry
    ``k`` places one passage of document ``owner[k]`` in posting
    ``posting[k]``, one posting per kept distinct value."""

    posting: np.ndarray
    owner: np.ndarray
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
    values, posting = np.unique(ordered[first], return_inverse=True)
    entry_owner = np.broadcast_to(owner[:, None], ordered.shape)[first]
    # Documents per value: the distinct (posting, owner) keys of each posting.
    width = int(owner.max()) + 1 if owner.size else 1
    df = np.bincount(np.unique(posting * width + entry_owner) // width, minlength=len(values))
    kept = df <= df_cap
    dropped = len(values) - int(kept.sum())
    if dropped:
        log.warning("dropped %d over-frequent hash postings (df_cap=%d)", dropped, df_cap)
    entries = kept[posting]
    renumbered = np.cumsum(kept) - 1
    return PassageIndex(renumbered[posting[entries]], entry_owner[entries], len(values) - dropped, dropped)


def retrieve_candidates(
    index: PassageIndex, dois: Sequence[str], *, counts: dict | None = None
) -> set[CandidatePair]:
    """All unordered document pairs co-occurring in at least one posting;
    ``index.owner`` indexes ``dois``.

    Evidence counts distinct (hash value, passage pair) co-occurrences. With
    ``C[r, d]`` the number of posting ``r``'s entries from document ``d``,
    a pair's evidence is ``(C.T @ C)[a, b]`` (``cooccurring_pairs``, which
    records ``pair_visits`` in ``counts`` if given).
    """
    a, b, weight = cooccurring_pairs(index.posting, index.owner, (index.postings, len(dois)), counts=counts)
    return _candidate_set(dois, a, b, weight)


def cooccurring_pairs(
    rows: ArrayLike, cols: ArrayLike, shape: tuple[int, int], *, counts: dict | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column pairs ``a < b`` that share a row, with their co-occurrence count.

    Entry ``k`` places one count at ``C[rows[k], cols[k]]`` in a ``shape``
    count matrix ``C``. Returns parallel ``int64`` arrays ``(a, b, weight)``
    in ascending ``(a, b)`` order over the nonzero strict upper triangle of
    ``Cᵀ C``: ``weight`` is the sum over rows ``r`` of ``C[r, a] * C[r, b]``.

    A sorted join: the distinct entries of each row, with their counts, are
    expanded into that row's column pairs ``_JOIN_BLOCK`` visits at a time,
    and equal pairs are summed in integers. ``counts``, if given, receives
    the number of column pairs visited as ``pair_visits``.
    """
    n_cols = shape[1]
    keys, cell = np.unique(
        np.asarray(rows, dtype=np.int64) * n_cols + np.asarray(cols, dtype=np.int64), return_counts=True
    )
    row, col = np.divmod(keys, n_cols)
    # Entry i visits each later entry of its row: a column above its own.
    partners = np.searchsorted(row, row, side="right") - np.arange(keys.size) - 1
    before = np.cumsum(partners) - partners
    visits = int(partners.sum())
    if counts is not None:
        counts["pair_visits"] = visits
    # Each block starts at the entry whose visits cross the next multiple of
    # _JOIN_BLOCK, so it expands at most _JOIN_BLOCK plus one entry's visits.
    bounds = np.unique(np.searchsorted(before, np.arange(0, visits, _JOIN_BLOCK), side="right") - 1)
    # parts[0] is the running result, the other parts blocks not yet folded
    # into it. Folding them in once they outgrow it keeps memory linear in
    # the output and the total work O(visits log visits).
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    for lo, hi in zip(bounds.tolist(), [*bounds[1:].tolist(), keys.size]):
        left = np.repeat(np.arange(lo, hi), partners[lo:hi])
        right = left + 1 + np.arange(left.size) - np.repeat(before[lo:hi] - before[lo], partners[lo:hi])
        parts.append(_sum_by_key(col[left] * n_cols + col[right], cell[left] * cell[right]))
        if len(parts) > 1 and (hi == keys.size or sum(p.size for p, _ in parts[1:]) >= parts[0][0].size):
            parts = [_sum_by_key(np.concatenate([p for p, _ in parts]), np.concatenate([w for _, w in parts]))]
    pair, weight = parts[0] if parts else (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    a, b = np.divmod(pair, n_cols)
    return a, b, weight


def _sum_by_key(keys: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` in ascending order and the sum of ``weights`` over each."""
    order = np.argsort(keys)
    keys, weights = keys[order], weights[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    return keys[starts], np.add.reduceat(weights, starts)


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
    # The empty leading array lets an empty list concatenate too.
    values, posting = np.unique(np.concatenate([np.empty(0, np.uint64), *hashes]), return_inverse=True)
    owner = np.repeat(np.arange(len(hashes)), [len(h) for h in hashes])
    if counts is not None:
        counts["hash_postings"] = len(values)
    return cooccurring_pairs(posting, owner, (len(values), len(hashes)), counts=counts)


def retrieve_candidates_ngram(
    docs: Sequence[Document], ngram_size: int = RETRIEVAL_NGRAM_SIZE, *, counts: dict | None = None
) -> set[CandidatePair]:
    """Document pairs sharing at least one stride-1 word ``ngram_size``-gram hash.

    Evidence is the number of shared window occurrence pairs. ``counts``, if
    given, receives the number of distinct window hashes as
    ``hash_postings`` and the join's ``pair_visits``.
    """
    hashes = [window_hashes(doc, ngram_size, ngram_size - 1) for doc in docs]
    a, b, weight = shared_hash_pairs(hashes, counts=counts)
    return _candidate_set([doc.doi for doc in docs], a, b, weight)


def _candidate_set(
    dois: Sequence[str], doc_a: np.ndarray, doc_b: np.ndarray, weights: np.ndarray
) -> set[CandidatePair]:
    """Candidate pairs from parallel arrays of indices into ``dois``.

    Each pair is put in canonical doi order, and the weights of repeated
    pairs are summed into that pair's evidence.
    """
    names = sorted(set(dois))
    rank = {doi: i for i, doi in enumerate(names)}
    to_rank = np.array([rank[doi] for doi in dois], dtype=np.int64)
    a, b = to_rank[doc_a], to_rank[doc_b]
    keys = np.minimum(a, b) * len(names) + np.maximum(a, b)
    keys, evidence = _sum_by_key(keys, np.asarray(weights, dtype=np.int64))
    first, second = np.divmod(keys, len(names))
    return {
        CandidatePair(names[i], names[j], n)
        for i, j, n in zip(first.tolist(), second.tolist(), evidence.tolist())
    }


def retrieve_candidates_exact(
    docs: Sequence[Document],
    passage_size: int = 50,
    min_shared_terms: int = 9,
    *,
    counts: dict | None = None,
) -> set[CandidatePair]:
    """Exact candidate enumeration: pairs with some passage pair sharing
    at least ``min_shared_terms`` distinct terms.

    Implemented as a product of the passage×term matrix (``_passage_matrix``)
    with its transpose, computed in row blocks; evidence counts qualifying
    passage pairs. Unlike sketching, all passages participate (including
    short trailing ones), so this mode is sound for downstream alignment at
    min_shared_terms=1. ``counts``, if given, receives the matrix shape as
    ``passages`` and ``terms``.
    """
    if min_shared_terms < 1:
        raise ValueError("min_shared_terms must be >= 1")
    matrix, owner, terms = _passage_matrix(docs, passage_size)
    if counts is not None:
        counts["passages"], counts["terms"] = matrix.shape
    if not terms:
        return set()

    transposed = matrix.T.tocsc()
    doc_a: list[np.ndarray] = []
    doc_b: list[np.ndarray] = []
    block = 4096
    for lo in range(0, owner.size, block):
        hi = min(lo + block, owner.size)
        shared = (matrix[lo:hi] @ transposed).tocoo()
        keep = shared.data >= min_shared_terms
        row_global = shared.row.astype(np.int64)[keep] + lo
        col = shared.col.astype(np.int64)[keep]
        upper = col > row_global
        row_global, col = row_global[upper], col[upper]
        doc_i, doc_j = owner[row_global], owner[col]
        cross = doc_i != doc_j
        doc_a.append(doc_i[cross])
        doc_b.append(doc_j[cross])
    pair_a, pair_b = np.concatenate(doc_a), np.concatenate(doc_b)
    return _candidate_set([doc.doi for doc in docs], pair_a, pair_b, np.ones_like(pair_a))


def write_candidates(path: str | Path, pairs: Iterable[CandidatePair]) -> int:
    """Spill candidate pairs to a tab-separated checkpoint file, sorted.

    The file appears whole or not at all (see ``atomic_open``).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with atomic_open(path) as fh:
        for pair in sorted(pairs, key=lambda p: p.key):
            fh.write(f"{pair.doi_a}\t{pair.doi_b}\t{pair.evidence}\n")
            count += 1
    return count


def read_candidates(path: str | Path) -> list[CandidatePair]:
    """Candidate pairs in file order; a malformed line or a pair listed
    twice raises ``ValueError`` naming ``path:lineno``."""
    pairs = []
    seen: set[tuple[str, str]] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            try:
                if len(parts) != 3:
                    raise ValueError("expected 3 tab-separated fields")
                pair = CandidatePair(parts[0], parts[1], int(parts[2]))
                if pair.key in seen:
                    raise ValueError(f"pair {pair.doi_a}/{pair.doi_b} listed twice")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            seen.add(pair.key)
            pairs.append(pair)
    return pairs
