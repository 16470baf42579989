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

Two bag-of-words modes are kept as references. In ``minhash`` mode,
documents are split into consecutive fixed-size passages; each passage's
distinct-term set is sketched with a family of seeded min-hashes, and an
inverted index over sketch values surfaces every document pair whose
sketches collide. On Zipfian text frequent words win the min-hashes and
nearly every document pair survives. ``retrieve_candidates_exact``
enumerates exactly the pairs with a passage-level overlap of at least
``min_shared_terms`` distinct terms, and doubles as the testing oracle for
the sketched path. The ngram and minhash modes read their evidence off one
sparse product of a count matrix with itself (``cooccurring_pairs``).
"""

from __future__ import annotations

import hashlib
import itertools
import logging
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.typing import ArrayLike
from scipy import sparse

from .alignment import window_hashes
from .ingest import Document
from .jsonl import atomic_open

log = logging.getLogger(__name__)

# uint64 lanes per keyed blake2b digest (64-byte digests)
_LANES = 8

# Words per window in ngram mode; capped at alignment's ngram_size.
RETRIEVAL_NGRAM_SIZE = 3


@dataclass(frozen=True)
class Passage:
    """A consecutive block of tokens, represented by its distinct-term set."""

    doi: str
    index: int
    token_range: tuple[int, int]
    term_set: frozenset[str]


@dataclass(frozen=True)
class PassageSketch:
    doi: str
    passage_index: int
    hashes: frozenset[int]


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


def chunk_passages(doc: Document, passage_size: int = 50) -> list[Passage]:
    """Partition a document into consecutive passages; the last may be shorter."""
    if passage_size < 1:
        raise ValueError("passage_size must be >= 1")
    passages = []
    for index, begin in enumerate(range(0, len(doc.tokens), passage_size)):
        end = min(begin + passage_size, len(doc.tokens))
        passages.append(
            Passage(
                doi=doc.doi,
                index=index,
                token_range=(begin, end),
                term_set=frozenset(doc.tokens[begin:end]),
            )
        )
    return passages


class MinHasher:
    """Family of ``num_hashes`` seeded hash functions over term sets.

    Function j of a term is lane j of a chain of keyed blake2b digests of the
    term (8 independent 64-bit lanes per digest; the key encodes the seed and
    the block index). The sketch of a term set is the per-function minimum.
    Per-term vectors are cached, so one instance should be reused across a
    corpus.
    """

    def __init__(self, num_hashes: int = 10, seed: int = 0):
        if num_hashes < 1:
            raise ValueError("num_hashes must be >= 1")
        self.num_hashes = num_hashes
        self.seed = seed
        blocks = (num_hashes + _LANES - 1) // _LANES
        self._keys = [f"{seed}:{block}".encode("utf-8")[:64] for block in range(blocks)]
        self._term_cache: dict[str, np.ndarray] = {}

    def term_vector(self, term: str) -> np.ndarray:
        """All hash-function values of one term; shape (num_hashes,)."""
        vector = self._term_cache.get(term)
        if vector is None:
            data = term.encode("utf-8")
            parts = [
                np.frombuffer(
                    hashlib.blake2b(data, digest_size=64, key=key).digest(), dtype=">u8"
                )
                for key in self._keys
            ]
            vector = np.concatenate(parts)[: self.num_hashes].astype(np.uint64)
            self._term_cache[term] = vector
        return vector

    def values(self, terms: Iterable[str]) -> np.ndarray:
        """Per-function minima over the term set; shape (num_hashes,)."""
        vectors = [self.term_vector(t) for t in terms]
        if not vectors:
            raise ValueError("cannot sketch an empty term set")
        return np.minimum.reduce(vectors)

    def sketch(self, passage: Passage) -> PassageSketch:
        values = self.values(passage.term_set)
        return PassageSketch(
            doi=passage.doi,
            passage_index=passage.index,
            hashes=frozenset(int(v) for v in values),
        )


def sketch_corpus(
    docs: Iterable[Document],
    passage_size: int = 50,
    num_hashes: int = 10,
    seed: int = 0,
) -> Iterator[PassageSketch]:
    """Sketch every passage of every document.

    Passages with fewer than two distinct terms are skipped: a near-constant
    passage sketches to copies of a single hash and floods the index.
    """
    hasher = MinHasher(num_hashes, seed)
    for doc in docs:
        for passage in chunk_passages(doc, passage_size):
            if len(passage.term_set) < 2:
                continue
            yield hasher.sketch(passage)


@dataclass
class PassageIndex:
    """Inverted index from sketch hash value to (doi, passage_index) postings."""

    postings: dict[int, list[tuple[str, int]]]
    dropped_hashes: int = 0


def build_index(sketches: Iterable[PassageSketch], df_cap: int = 1000) -> PassageIndex:
    """Build the inverted index; postings sorted by doi.

    Hashes occurring in more than ``df_cap`` distinct documents are dropped
    with a diagnostic: boilerplate-driven postings grow candidate output
    quadratically while carrying no pair-specific signal.
    """
    postings: dict[int, list[tuple[str, int]]] = defaultdict(list)
    for sketch in sketches:
        entry = (sketch.doi, sketch.passage_index)
        for value in sketch.hashes:
            postings[value].append(entry)
    kept: dict[int, list[tuple[str, int]]] = {}
    dropped = 0
    for value, entries in postings.items():
        if len({doi for doi, _ in entries}) > df_cap:
            dropped += 1
            continue
        kept[value] = sorted(entries)
    if dropped:
        log.warning("dropped %d over-frequent hash postings (df_cap=%d)", dropped, df_cap)
    return PassageIndex(postings=kept, dropped_hashes=dropped)


def retrieve_candidates(index: PassageIndex) -> set[CandidatePair]:
    """All unordered document pairs co-occurring in at least one posting.

    Evidence counts distinct (hash value, passage pair) co-occurrences. With
    ``C[r, d]`` the number of posting ``r``'s entries from document ``d``,
    a pair's evidence is ``(C.T @ C)[a, b]``, read off the strict upper
    triangle (columns in doi order).
    """
    entry_dois = [doi for entries in index.postings.values() for doi, _ in entries]
    dois = sorted(set(entry_dois))
    column = {doi: i for i, doi in enumerate(dois)}
    rows = np.repeat(np.arange(len(index.postings)), [len(entries) for entries in index.postings.values()])
    cols = [column[doi] for doi in entry_dois]
    shared = cooccurring_pairs(rows, cols, (len(index.postings), len(dois)))
    return _candidate_set(dois, shared.row, shared.col, shared.data)


def cooccurring_pairs(rows: ArrayLike, cols: ArrayLike, shape: tuple[int, int]) -> sparse.coo_matrix:
    """Column pairs ``a < b`` that share a row, with their co-occurrence count.

    Entry ``k`` places one count at ``C[rows[k], cols[k]]`` in a ``shape``
    count matrix ``C``; the result is the strict upper triangle of ``Cᵀ C``,
    whose ``(a, b)`` entry is the sum over rows ``r`` of ``C[r, a] * C[r, b]``.
    """
    counts = sparse.csr_matrix((np.ones(len(cols), dtype=np.int64), (rows, cols)), shape=shape)
    return sparse.triu(counts.T @ counts, k=1).tocoo()


def shared_hash_pairs(hashes: Sequence[np.ndarray]) -> tuple[int, sparse.coo_matrix]:
    """Index pairs ``i < j`` whose hash arrays share a value.

    Returns the number of distinct values and ``cooccurring_pairs`` over the
    distinct-value × array count matrix: entry ``(i, j)`` sums, over the
    shared values, the value's count in ``hashes[i]`` times its count in
    ``hashes[j]``.
    """
    # The empty leading array lets an empty list concatenate too.
    values, posting = np.unique(np.concatenate([np.empty(0, np.uint64), *hashes]), return_inverse=True)
    owner = np.repeat(np.arange(len(hashes)), [len(h) for h in hashes])
    return len(values), cooccurring_pairs(posting, owner, (len(values), len(hashes)))


def retrieve_candidates_ngram(
    docs: Sequence[Document], ngram_size: int = RETRIEVAL_NGRAM_SIZE, *, counts: dict | None = None
) -> set[CandidatePair]:
    """Document pairs sharing at least one stride-1 word ``ngram_size``-gram hash.

    Evidence is the number of shared window occurrence pairs. ``counts``, if
    given, receives the number of distinct window hashes as
    ``hash_postings``.
    """
    distinct, shared = shared_hash_pairs([window_hashes(doc, ngram_size, ngram_size - 1) for doc in docs])
    if counts is not None:
        counts["hash_postings"] = distinct
    return _candidate_set([doc.doi for doc in docs], shared.row, shared.col, shared.data)


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
    summed = sparse.coo_matrix(
        (np.asarray(weights, dtype=np.int64), (np.minimum(a, b), np.maximum(a, b))),
        shape=(len(names), len(names)),
    )
    summed.sum_duplicates()
    return {
        CandidatePair(names[i], names[j], n)
        for i, j, n in zip(summed.row.tolist(), summed.col.tolist(), summed.data.tolist())
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

    Implemented as a sparse passage-by-term matrix product computed in row
    blocks; evidence counts qualifying passage pairs. Unlike sketching, all
    passages participate (including short trailing ones), so this mode is
    sound for downstream alignment at min_shared_terms=1. Terms are interned
    to integer column ids over the whole corpus, and token ``i`` of document
    ``d`` falls in row ``row_offset[d] + i // passage_size``. ``counts``, if
    given, receives the matrix shape as ``passages`` and ``terms``.
    """
    if passage_size < 1:
        raise ValueError("passage_size must be >= 1")
    if min_shared_terms < 1:
        raise ValueError("min_shared_terms must be >= 1")
    dois = [doc.doi for doc in docs]
    lengths = np.fromiter((len(doc.tokens) for doc in docs), dtype=np.int64, count=len(docs))
    passages = -(-lengths // passage_size)
    row_offset = np.cumsum(passages) - passages
    token_offset = np.cumsum(lengths) - lengths
    vocab = dict(zip(dict.fromkeys(itertools.chain.from_iterable(doc.tokens for doc in docs)), itertools.count()))
    if counts is not None:
        counts["passages"] = int(passages.sum())
        counts["terms"] = len(vocab)
    if not vocab:
        return set()

    cols = np.fromiter(
        map(vocab.__getitem__, itertools.chain.from_iterable(doc.tokens for doc in docs)),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    doc_of_token = np.repeat(np.arange(len(docs)), lengths)
    position = np.arange(cols.size) - token_offset[doc_of_token]
    rows = row_offset[doc_of_token] + position // passage_size
    owner = np.repeat(np.arange(len(docs), dtype=np.int64), passages)
    matrix = sparse.csr_matrix(
        (np.ones(cols.size, dtype=np.int32), (rows, cols)),
        shape=(owner.size, len(vocab)),
    )
    matrix.sum_duplicates()
    matrix.data[:] = 1  # each distinct term counts once per passage
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
    return _candidate_set(dois, pair_a, pair_b, np.ones_like(pair_a))


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
