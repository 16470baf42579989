import dataclasses
import itertools
import logging
import math
import random
import tracemalloc
import warnings
from collections import Counter, defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from textreuse.alignment import AlignmentParams, align_pair, window_hashes
from textreuse.ingest import _token_hashes, normalize
from textreuse import retrieval
from textreuse.pipeline import RunConfig, run_retrieval
from textreuse.retrieval import (
    RETRIEVAL_NGRAM_SIZE,
    MinHasher,
    _dense_ranks,
    _passage_matrix,
    _split_passages,
    build_index,
    cooccurring_pairs,
    retrieve_candidates,
    retrieve_candidates_exact,
    retrieve_candidates_ngram,
    shared_hash_pairs,
    sketch_corpus,
)
from textreuse.synthgen import GenSpec, generate

from conftest import (
    alpha_words,
    brute_force_posting_pairs,
    capped_postings,
    doc_from_tokens,
    exact_pair_visits,
    minhash_reference,
    ngram_holders,
    passage_term_sets,
    qualifying_passage_pairs,
    random_words,
    sketch_postings,
    splitmix,
)


def brute_force_candidates(docs, passage_size, min_shared_terms):
    """O(docs^2 * passages^2) oracle over distinct-term overlap: the number of
    qualifying passage pairs per document pair."""
    term_sets = {doc.doi: passage_term_sets(doc, passage_size) for doc in docs}
    pairs = {}
    dois = sorted(term_sets)
    for i, doi_a in enumerate(dois):
        for doi_b in dois[i + 1 :]:
            qualifying = sum(
                len(x & y) >= min_shared_terms
                for x in term_sets[doi_a]
                for y in term_sets[doi_b]
            )
            if qualifying:
                pairs[(doi_a, doi_b)] = qualifying
    return pairs


def sketch_lists():
    """Hand-built ``(dois, owner, sketches)`` over 1-8 dois: up to 25
    passages of 1-6 functions over few values, so values repeat within a
    sketch and postings often hold a single document."""
    def sketches(shape):
        doi_count, num_hashes = shape
        values = st.lists(st.integers(0, 15), min_size=num_hashes, max_size=num_hashes)
        rows = st.lists(st.tuples(st.integers(0, doi_count - 1), values), max_size=25)
        return rows.map(
            lambda rows: (
                [f"d{k}" for k in range(doi_count)],
                np.array([owner for owner, _ in rows], dtype=np.int64),
                np.array([values for _, values in rows], dtype=np.uint64).reshape(len(rows), num_hashes),
            )
        )

    return st.tuples(st.integers(1, 8), st.integers(1, 6)).flatmap(sketches)


def passage_matrix(docs, passage_size):
    """``_passage_matrix``'s keys, each passage's document index
    (``_split_passages``), and the number of terms."""
    counts = {}
    keys = _passage_matrix(docs, passage_size, counts)
    owner = _split_passages(docs, passage_size)[1]
    assert counts["passages"] == owner.size
    return keys, owner, counts["terms"]


def matrix_rows(docs, passage_size):
    """``_passage_matrix`` as (doc index, set of term hashes) per passage;
    its keys ``term * passages + passage`` are distinct and ascending, and
    terms are numbered in hash order."""
    keys, owner, terms = passage_matrix(docs, passage_size)
    assert keys.dtype == np.int64
    assert keys.tolist() == sorted(set(keys.tolist()))
    entries = [divmod(key, owner.size) for key in keys.tolist()]
    hashes = sorted({h for doc in docs for h in _token_hashes(doc.tokens).tolist()})
    assert terms == len(hashes)
    rows = [set() for _ in range(owner.size)]
    for j, row in entries:
        rows[row].add(hashes[j])
    return list(zip(owner.tolist(), rows))


def term_hashes(tokens):
    """The set of word hashes of ``tokens``."""
    return set(_token_hashes(list(tokens)).tolist())


def index_entries(index):
    """Kept postings of a ``PassageIndex``, as sorted lists of document
    indices; its keys ascend."""
    assert index.keys.tolist() == sorted(index.keys.tolist())
    postings = defaultdict(list)
    for posting, doc in (divmod(key, index.width) for key in index.keys.tolist()):
        postings[posting].append(doc)
    return sorted(sorted(entries) for entries in postings.values())


@st.composite
def token_corpora(draw):
    """0-6 token lists over a vocabulary of 1-24 words, empty ones mixed in,
    so that terms repeat inside passages and empty documents sit between
    non-empty ones."""
    vocab = alpha_words("t", draw(st.integers(1, 24)))
    doc = st.one_of(st.just([]), st.lists(st.sampled_from(vocab), max_size=200))
    return draw(st.lists(doc, max_size=6))


class TestChunkPassages:
    """Passage chunking by ``_passage_matrix``, the passage×term matrix that
    exact and minhash modes share."""

    def test_ceiling_division(self):
        doc = doc_from_tokens(alpha_words("w", 120))
        rows = matrix_rows([doc], 50)
        assert [len(terms) for _, terms in rows] == [50, 50, 20]
        assert [doc for doc, _ in rows] == [0, 0, 0]

    def test_exact_fit(self, rng, vocab):
        doc = doc_from_tokens(random_words(rng, 50, vocab))
        assert len(matrix_rows([doc], 50)) == 1

    def test_empty_document(self, rng, vocab):
        assert matrix_rows([doc_from_tokens([])], 50) == []
        keys, owner, terms = passage_matrix([], 50)
        assert keys.size == owner.size == terms == 0
        # An empty document between two others owns no row.
        docs = [doc_from_tokens(random_words(rng, 60, vocab), doi=d) for d in "ab"]
        docs.insert(1, doc_from_tokens([], doi="e"))
        assert [doc for doc, _ in matrix_rows(docs, 50)] == [0, 0, 2, 2]

    def test_term_sets_are_distinct_tokens(self):
        doc = doc_from_tokens(["alpha", "beta", "alpha", "gamma"])
        assert matrix_rows([doc], 50) == [(0, term_hashes(["alpha", "beta", "gamma"]))]

    def test_covers_all_tokens_in_order(self, rng, vocab):
        docs = [doc_from_tokens(random_words(rng, n, vocab), doi=f"d{n}") for n in (173, 7, 100)]
        expected = [
            (k, term_hashes(terms)) for k, doc in enumerate(docs) for terms in passage_term_sets(doc, 50)
        ]
        assert matrix_rows(docs, 50) == expected
        assert passage_matrix(docs, 50)[2] == len({t for doc in docs for t in doc.tokens})

    def test_passage_size_validated(self):
        with pytest.raises(ValueError):
            _passage_matrix([], 0)
        with pytest.raises(ValueError):
            sketch_corpus([], 0)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: MinHasher(num_hashes=0), "num_hashes must be >= 1"),
            (lambda: retrieve_candidates_exact([], min_shared_terms=0), "min_shared_terms must be >= 1"),
        ],
        ids=["num-hashes", "min-shared-terms"],
    )
    def test_parameter_below_one_rejected(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


class TestMinHash:
    def test_identical_term_sets_identical_sketches(self, rng, vocab):
        tokens = random_words(rng, 50, vocab)
        shuffled = tokens[:]
        rng.shuffle(shuffled)
        docs = [doc_from_tokens(tokens, doi="a"), doc_from_tokens(shuffled, doi="b")]
        owner, sketches = sketch_corpus(docs, 50, 10, seed=7)
        assert owner.tolist() == [0, 1]
        assert sketches[0].tolist() == sketches[1].tolist() == MinHasher(10, 7).values(set(tokens)).tolist()

    def test_disjoint_term_sets_share_nothing(self, rng):
        docs = [doc_from_tokens(alpha_words("qa", 50), doi="a"), doc_from_tokens(alpha_words("zb", 50), doi="b")]
        _, (sa, sb) = sketch_corpus(docs, 50, 10, seed=7)
        assert not set(sa.tolist()) & set(sb.tolist())

    def test_keys_from_any_int_seed(self, rng, vocab):
        """Keys are splitmix64's outputs from the seed modulo 2**64, in
        Python integers: no overflow warning, and the same in every run.
        Seeds equal modulo 2**64 (0 and 2**70) share their keys."""
        docs = [doc_from_tokens(random_words(rng, 120, vocab))]
        sketches = {}
        for seed in (-1, 0, 2**70):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                keys = MinHasher(10, seed).keys.tolist()
                sketches[seed] = sketch_corpus(docs, 50, 10, seed)[1].tolist()
            assert keys == [splitmix((seed + j * 0x9E3779B97F4A7C15) % 2**64) for j in range(1, 11)]
            assert len(set(keys)) == 10
        assert sketches[-1] != sketches[0] == sketches[2**70]
        # splitmix64's published first output from state 0.
        assert MinHasher(1, 0).keys.tolist() == [0xE220A8397B1DCDAF]

    def test_empty_term_set_rejected(self):
        hasher = MinHasher(10, seed=0)
        with pytest.raises(ValueError):
            hasher.values([])

    def test_sketch_size_bounded(self, rng, vocab):
        doc = doc_from_tokens(random_words(rng, 50, vocab))
        owner, sketches = sketch_corpus([doc], 50, 10, seed=1)
        assert sketches.shape == (1, 10) and sketches.dtype == np.uint64
        assert build_index(owner, sketches).postings <= 10

    def test_sketch_skips_passages_under_two_terms(self):
        # Passages: [x y] [z z] [w v] [u]; the skipped ones sit between kept ones.
        doc = doc_from_tokens(["ex", "wy", "zed", "zed", "we", "ve", "ux"])
        owner, sketches = sketch_corpus([doc_from_tokens([], doi="e"), doc], 2, 3, seed=4)
        hasher = MinHasher(3, 4)
        assert owner.tolist() == [1, 1]
        assert sketches.tolist() == [hasher.values({"ex", "wy"}).tolist(), hasher.values({"we", "ve"}).tolist()]

    def test_estimator_tracks_jaccard(self):
        # agreement frequency of per-function minima approximates the exact
        # Jaccard similarity of the term sets
        rng = random.Random(99)
        hasher = MinHasher(num_hashes=1500, seed=5)
        for shared in (5, 25, 45):
            common = [f"c{i}word" for i in range(shared)]
            only_a = [f"a{i}word" for i in range(50 - shared)]
            only_b = [f"b{i}word" for i in range(50 - shared)]
            set_a = frozenset(common + only_a)
            set_b = frozenset(common + only_b)
            exact = len(set_a & set_b) / len(set_a | set_b)
            va = hasher.values(set_a)
            vb = hasher.values(set_b)
            agreement = float((va == vb).mean())
            assert abs(agreement - exact) <= 0.05


def hand_built(rows):
    """``(owner, sketches)`` arrays from (document index, values) rows."""
    return (
        np.array([doc for doc, _ in rows], dtype=np.int64),
        np.array([values for _, values in rows], dtype=np.uint64),
    )


class TestBuildIndex:
    def test_empty_stream(self):
        index = build_index(np.empty(0, np.int64), np.empty((0, 10), np.uint64))
        assert index.postings == index.dropped_hashes == 0
        assert index.keys.size == 0

    def test_one_sketch_ten_postings(self, rng, vocab):
        owner, sketches = sketch_corpus([doc_from_tokens(random_words(rng, 50, vocab))], 50, 10, seed=3)
        index = build_index(owner, sketches)
        assert index.postings == len(set(sketches[0].tolist()))
        assert index_entries(index) == [[0]] * index.postings

    def test_only_shared_hash_has_multi_document_posting(self):
        # hand-built sketches: documents 0 and 1 share exactly value 2, which
        # document 2 repeats in one passage; value 5 repeats within a passage
        index = build_index(*hand_built([(0, [1, 2]), (1, [2, 3]), (2, [4, 5]), (2, [5, 5])]))
        assert index.postings == 5
        assert index_entries(index) == [[0], [0, 1], [1], [2], [2, 2]]

    def test_df_cap_drops_flooded_hash(self, caplog):
        with caplog.at_level(logging.WARNING):
            index = build_index(*hand_built([(i, [77, 100 + i]) for i in range(5)]), df_cap=3)
        assert index.dropped_hashes == 1
        assert index.postings == 5
        assert index_entries(index) == [[i] for i in range(5)]
        assert "dropped 1 over-frequent hash postings (df_cap=3)" in caplog.text

    def test_df_cap_counts_documents_not_passages(self):
        index = build_index(*hand_built([(0, [7, 1]), (0, [7, 2]), (1, [7, 3])]), df_cap=2)
        assert index.dropped_hashes == 0
        assert [0, 0, 1] in index_entries(index)


class TestRetrieveCandidates:
    def test_two_identical_documents(self, rng, vocab):
        tokens = random_words(rng, 120, vocab)
        docs = [doc_from_tokens(tokens, doi="a"), doc_from_tokens(tokens, doi="b")]
        index = build_index(*sketch_corpus(docs, 50, 10, seed=1))
        pairs = retrieve_candidates(index, ["a", "b"])
        assert {p.key for p in pairs} == {("a", "b")}
        assert all(p.evidence >= 1 for p in pairs)

    def test_disjoint_vocabularies(self):
        docs = [
            doc_from_tokens(alpha_words("qa", 100), doi="a"),
            doc_from_tokens(alpha_words("zb", 100), doi="b"),
        ]
        index = build_index(*sketch_corpus(docs, 50, 10, seed=1))
        assert retrieve_candidates(index, ["a", "b"]) == []

    def test_canonical_ordering(self, rng, vocab):
        tokens = random_words(rng, 60, vocab)
        dois = ["zz", "aa", "mm"]
        docs = [doc_from_tokens(tokens, doi=d) for d in dois]
        pairs = retrieve_candidates(build_index(*sketch_corpus(docs, 50, 10, seed=1)), dois)
        assert {p.key for p in pairs} == {("aa", "mm"), ("aa", "zz"), ("mm", "zz")}
        for p in pairs:
            assert p.doi_a < p.doi_b

    @settings(max_examples=200, deadline=None)
    @given(sketches=sketch_lists(), df_cap=st.integers(1, 4))
    @example(sketches=(["d0"], np.empty(0, np.int64), np.empty((0, 1), np.uint64)), df_cap=1)
    def test_matches_posting_pair_oracle(self, sketches, df_cap):
        dois, owner, values = sketches
        index = build_index(owner, values, df_cap)
        pairs = retrieve_candidates(index, dois)
        got = {p.key: p.evidence for p in pairs}
        assert len(got) == len(pairs)
        # run_retrieval hands these on unsorted.
        keys = [p.key for p in pairs]
        assert all(earlier < later for earlier, later in zip(keys, keys[1:]))
        postings = sketch_postings(zip([dois[k] for k in owner.tolist()], values.tolist()))
        kept = capped_postings(postings, df_cap)
        assert got == brute_force_posting_pairs(kept)
        assert (index.postings, index.dropped_hashes) == (len(kept), len(postings) - len(kept))
        # The join works on a copy of the index's keys.
        assert retrieve_candidates(index, dois) == pairs

    def test_evidence_counts_hash_passage_cooccurrences(self):
        index = build_index(*hand_built([(0, [1, 2]), (1, [1, 2]), (1, [2, 9])]))
        (pair,) = retrieve_candidates(index, ["a", "b"])
        # hash 1: (a0, b0); hash 2: (a0, b0) and (a0, b1)
        assert pair.key == ("a", "b")
        assert pair.evidence == 3


class TestMinhashMode:
    @settings(max_examples=200, deadline=None)
    @given(
        corpus=token_corpora(),
        passage_size=st.integers(1, 60),
        num_hashes=st.integers(1, 17),
        df_cap=st.integers(1, 4),
        seed=st.integers(),
    )
    @example(corpus=[], passage_size=50, num_hashes=10, df_cap=1, seed=0)
    @example(corpus=[["taaa", "taab"], [], ["taab", "taaa", "taaa"]], passage_size=2, num_hashes=9, df_cap=2, seed=5)
    def test_matches_the_reference(self, corpus, passage_size, num_hashes, df_cap, seed):
        docs = [doc_from_tokens(tokens, doi=f"d{k}") for k, tokens in enumerate(corpus)]
        config = RunConfig(
            input="x",
            output_dir="y",
            retrieval_mode="minhash",
            passage_size=passage_size,
            num_hashes=num_hashes,
            df_cap=df_cap,
            seed=seed,
        )
        counts = {}
        pairs = run_retrieval(docs, config, counts)
        evidence, postings, dropped, visits = minhash_reference(docs, passage_size, num_hashes, seed, df_cap)
        assert {p.key: p.evidence for p in pairs} == evidence
        assert counts == {"hash_postings": postings, "dropped_hashes": dropped, "pair_visits": visits}

    @settings(max_examples=100, deadline=None)
    @given(corpus=token_corpora(), passage_size=st.integers(1, 60), block=st.sampled_from([1, 2, 7, 64]))
    @example(corpus=[["taaa", "taab"] * 40, [], ["taab"]], passage_size=60, block=7)
    def test_sketches_do_not_depend_on_the_minima_block(self, corpus, passage_size, block):
        """Blocks far smaller than one passage give the one-pass sketches."""
        docs = [doc_from_tokens(tokens, doi=f"d{k}") for k, tokens in enumerate(corpus)]
        owner, sketches = sketch_corpus(docs, passage_size, 6, 11)
        with mock.patch.object(retrieval, "_MINIMA_BLOCK", block):
            blocked_owner, blocked = sketch_corpus(docs, passage_size, 6, 11)
        assert np.array_equal(blocked_owner, owner)
        assert np.array_equal(blocked, sketches)


class TestExactMode:
    def test_shared_verbatim_passage_included(self, rng, vocab):
        shared = random_words(rng, 50, vocab)
        doc_a = doc_from_tokens(shared + alpha_words("xa", 70), doi="a")
        doc_b = doc_from_tokens(alpha_words("xb", 70) + shared, doi="b")
        pairs = retrieve_candidates_exact([doc_a, doc_b], 50, 9)
        assert {p.key for p in pairs} == {("a", "b")}

    @pytest.mark.parametrize("shared,threshold,expected", [(8, 9, False), (9, 9, True)])
    def test_distinct_term_boundary(self, shared, threshold, expected):
        common = alpha_words("com", shared)
        doc_a = doc_from_tokens(common + alpha_words("qa", 50 - shared), doi="a")
        doc_b = doc_from_tokens(common + alpha_words("zb", 50 - shared), doi="b")
        pairs = retrieve_candidates_exact([doc_a, doc_b], 50, threshold)
        assert (len(pairs) == 1) is expected

    def test_matches_brute_force_on_random_corpus(self, vocab):
        rng = random.Random(4242)
        docs = [
            doc_from_tokens(random_words(rng, rng.randint(80, 160), vocab), doi=f"d{i:02d}")
            for i in range(50)
        ]
        for threshold in (3, 6, 12):
            got = {p.key: p.evidence for p in retrieve_candidates_exact(docs, 50, threshold)}
            assert got == brute_force_candidates(docs, 50, threshold)

    def test_empty_corpus(self):
        assert retrieve_candidates_exact([], 50, 9) == []

    @settings(max_examples=300, deadline=None)
    @given(
        corpus=token_corpora(),
        passage_size=st.integers(1, 60),
        min_shared_terms=st.integers(1, 12),
        block=st.sampled_from([1, 3, retrieval._JOIN_BLOCK]),
    )
    @example(corpus=[[], ["taaa"] * 3, [], ["taaa", "taab"], []], passage_size=1, min_shared_terms=1, block=1)
    @example(corpus=[["taaa"] * 3, ["taaa", "taab"]], passage_size=3, min_shared_terms=2, block=3)
    @example(corpus=[[], []], passage_size=5, min_shared_terms=1, block=retrieval._JOIN_BLOCK)
    @example(corpus=[["taaa"] * 4], passage_size=1, min_shared_terms=5, block=1)
    def test_matches_brute_force_on_any_shape(self, corpus, passage_size, min_shared_terms, block):
        """At the default join block and at blocks far smaller than one
        passage's visits, with document pairs merged as often."""
        docs = [doc_from_tokens(tokens, doi=f"d{k}") for k, tokens in enumerate(corpus)]
        counts = {}
        merge = min(block, retrieval._DOC_PAIR_MERGE)
        with mock.patch.object(retrieval, "_JOIN_BLOCK", block), mock.patch.object(retrieval, "_DOC_PAIR_MERGE", merge):
            pairs = retrieve_candidates_exact(docs, passage_size, min_shared_terms, counts=counts)
        got = {p.key: p.evidence for p in pairs}
        assert len(got) == len(pairs)
        assert got == brute_force_candidates(docs, passage_size, min_shared_terms)
        assert counts["passage_pairs"] == qualifying_passage_pairs(docs, passage_size, min_shared_terms)

    def test_colliding_words_count_as_one_term(self):
        # Under a hash where every word collides, each passage holds one
        # term: a collision can only add candidates.
        docs = [doc_from_tokens(alpha_words(p, 20), doi=p) for p in ("qa", "zb", "xc")]
        assert retrieve_candidates_exact(docs, 50, 1) == []
        colliding = [dataclasses.replace(doc, token_hashes=np.zeros_like(doc.token_hashes)) for doc in docs]
        counts = {}
        pairs = retrieve_candidates_exact(colliding, 50, 1, counts=counts)
        assert {p.key for p in pairs} == {("qa", "xc"), ("qa", "zb"), ("xc", "zb")}
        assert counts == {"passages": 3, "terms": 1, "pair_visits": 3, "passage_pairs": 3}

    def test_counts_record_the_matrix_shape(self, rng, vocab):
        docs = [
            doc_from_tokens(random_words(rng, 120, vocab), doi="a"),
            doc_from_tokens([], doi="b"),
            doc_from_tokens(random_words(rng, 51, vocab), doi="c"),
        ]
        docs.append(dataclasses.replace(docs[0], doi="d"))
        counts = {}
        retrieve_candidates_exact(docs, 50, 9, counts=counts)
        assert counts == {
            "passages": 3 + 0 + 2 + 3,
            "terms": len({t for doc in docs for t in doc.tokens}),
            "pair_visits": exact_pair_visits(docs, 50),
            "passage_pairs": qualifying_passage_pairs(docs, 50, 9),
        }
        # Each passage of "a" qualifies with its copy in "d".
        assert counts["passage_pairs"] >= 3


def brute_force_ngram_pairs(docs, n):
    """Oracle for ngram evidence: per document pair, the sum over shared
    word n-grams of the product of their counts in the two documents."""
    grams = {doc.doi: Counter(doc.tokens[i : i + n] for i in range(len(doc.tokens) - n + 1)) for doc in docs}
    pairs = {}
    for doi_a, doi_b in itertools.combinations(sorted(grams), 2):
        shared = sum(count * grams[doi_b][gram] for gram, count in grams[doi_a].items())
        if shared:
            pairs[(doi_a, doi_b)] = shared
    return pairs


@st.composite
def count_entries(draw):
    """A (rows, cols, shape) count matrix of up to 7×7 cells, cells repeated
    or, in a binary matrix, not."""
    shape = (draw(st.integers(1, 7)), draw(st.integers(1, 7)))
    cell = st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1))
    entries = draw(st.lists(cell, max_size=60, unique=draw(st.booleans())))
    return [r for r, _ in entries], [c for _, c in entries], shape


# A 3 × 131072 count matrix with repeated cells, in columns on both sides of
# 2**16.
WIDE = (
    [0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 2],
    [0, 65535, 65536, 65536, 131071, 65535, 65536, 70000, 0, 70000, 131071, 131071],
    (3, 131072),
)

# One join block over lower columns 0 to 32767 of 65536, whose pair keys span
# exactly the 2**31 values that int32 holds, and one over 0 to 32768.
SPAN_2_31 = ([0, 0, 0, 1, 1], [0, 32767, 65535, 0, 32767], (2, 65536))
SPAN_OVER_2_31 = ([0, 0, 0, 1, 1], [0, 32768, 65535, 0, 32768], (2, 65536))


class TestCooccurringPairs:
    @settings(max_examples=300, deadline=None)
    @given(matrix=count_entries(), block=st.sampled_from([1, 2, 3, 5, 2**18]), min_weight=st.integers(1, 12))
    @example(matrix=([], [], (3, 4)), block=2**18, min_weight=1)
    @example(matrix=([0, 1, 2, 2], [0, 0, 0, 0], (3, 1)), block=1, min_weight=1)
    @example(matrix=([0, 0, 0, 0, 1, 1], [2, 2, 0, 1, 0, 2], (2, 3)), block=2**18, min_weight=2)
    @example(matrix=([0] * 7 + [1] * 5, list(range(7)) + list(range(5)), (2, 7)), block=4, min_weight=2)
    # Binary cells, one column a block: blocks of 3, 2 and 1 visits, each
    # fewer than min_weight - 1.
    @example(matrix=([0] * 4, [0, 1, 2, 3], (1, 4)), block=1, min_weight=5)
    @example(matrix=([0] * 4, [0, 1, 2, 3], (1, 4)), block=1, min_weight=12)
    # Binary cells: a block of exactly min_weight visits, of one pair, then
    # of two pairs that reach min_weight only together.
    @example(matrix=([0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 0, 1], (3, 2)), block=1, min_weight=3)
    @example(matrix=([0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 1, 2], (2, 3)), block=1, min_weight=4)
    # More than 2**16 columns: the join sorts on keys wider than 16 bits.
    @example(matrix=WIDE, block=1, min_weight=1)
    @example(matrix=WIDE, block=1, min_weight=2)
    @example(matrix=WIDE, block=2**18, min_weight=1)
    @example(matrix=WIDE, block=2**18, min_weight=2)
    # Block pair keys at both widths, the binary run test among them.
    @example(matrix=SPAN_2_31, block=2**18, min_weight=1)
    @example(matrix=SPAN_2_31, block=2**18, min_weight=2)
    @example(matrix=SPAN_OVER_2_31, block=2**18, min_weight=1)
    @example(matrix=SPAN_OVER_2_31, block=2**18, min_weight=2)
    def test_matches_the_sparse_product(self, matrix, block, min_weight):
        """Against ``triu(Cᵀ C, 1)`` filtered at ``min_weight``, at block
        sizes that split the visits into many blocks, some smaller than
        one column's visits."""
        rows, cols, shape = matrix
        counts = sparse.csr_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=shape)
        oracle = sparse.triu(counts.T @ counts, k=1).tocoo()
        expected = sorted(
            (a, b, weight)
            for a, b, weight in zip(oracle.row.tolist(), oracle.col.tolist(), oracle.data.tolist())
            if weight >= min_weight
        )
        keys = np.sort(np.array(rows, dtype=np.int64) * shape[1] + np.array(cols, dtype=np.int64))
        record = {}
        with mock.patch.object(retrieval, "_JOIN_BLOCK", block):
            a, b, weight = cooccurring_pairs(keys, shape[1], counts=record, min_weight=min_weight)
        assert list(zip(a.tolist(), b.tolist(), weight.tolist())) == expected
        assert a.dtype == b.dtype == weight.dtype == np.int64
        distinct = Counter(r for r, _ in set(zip(rows, cols)))
        assert record == {"pair_visits": sum(math.comb(n, 2) for n in distinct.values())}


class TestDenseRanks:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.sampled_from([0, 1, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1), max_size=40),
        cuts=st.lists(st.integers(0, 40), max_size=4),
    )
    @example(values=[], cuts=[])
    @example(values=[], cuts=[0, 0])
    @example(values=[7] * 5, cuts=[])
    @example(values=[2**64 - 1, 0, 2**64 - 1, 0], cuts=[1, 3])
    def test_match_unique_inverse(self, values, cuts):
        """Over the arrays end to end, however they are cut, and without
        changing any of them."""
        values = np.array(values, dtype=np.uint64)
        arrays = np.split(values, sorted(min(cut, values.size) for cut in cuts))
        copies = [array.copy() for array in arrays]
        ranks, distinct = _dense_ranks(arrays)
        unique, inverse = np.unique(values, return_inverse=True)
        assert ranks.tolist() == inverse.tolist()
        assert distinct == unique.size
        assert ranks.dtype == np.int32
        assert all(np.array_equal(array, copy) for array, copy in zip(arrays, copies))


def traced_peak(call, *args, **kwargs):
    """The peak of the memory ``call`` allocates, as tracemalloc sees it;
    numpy reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestJoinMemory:
    """The join's working memory per term×passage or window entry, with
    join blocks too small to count: 200 documents of 400-600 words hand it
    about 100,000 entries."""

    @pytest.fixture(scope="class")
    def docs(self):
        corpus, _ = generate(GenSpec(doc_count=200, doc_tokens=(400, 600), case_count=20, seed=3))
        return [normalize(raw) for raw in corpus]

    def test_exact_join_bytes_per_entry(self, docs):
        keys, owner, _ = passage_matrix(docs, 50)
        assert keys.size > 80_000
        with mock.patch.object(retrieval, "_JOIN_BLOCK", 2**10):
            peak = traced_peak(cooccurring_pairs, keys, owner.size, min_weight=9)
        assert peak <= 48 * keys.size

    def test_whole_exact_call_bytes_per_token(self, docs):
        """Hashes, keys and join together: no caller keeps the keys once
        handed to the join, and ranking sorts the word hashes' concatenation
        in place and frees it before any rank exists. The peak is in that
        ranking, two 8-byte arrays per token and a mask. With numpy 2.4 on
        CPython 3.11 it read 17.9 bytes per token; 25.9 when ranking built a
        sorted copy beside the concatenation, and 31.7 when the callers also
        kept their keys."""
        tokens = sum(doc.token_hashes.size for doc in docs)
        with mock.patch.object(retrieval, "_JOIN_BLOCK", 2**10):
            peak = traced_peak(retrieve_candidates_exact, docs, 50, 9)
        assert peak <= 20 * tokens

    def test_whole_exact_call_grows_with_document_pairs(self):
        """One 400-word paragraph in each of 120 documents, amid up to 200
        other words: 98,221 passage pairs qualify, over 7,140 document
        pairs. Each join block is summed per document pair as it comes, so
        the call holds document pairs, not passage pairs. It read 1.6 MiB,
        against 8.4 MiB when every qualifying passage pair was held until
        the join returned."""
        rng = random.Random(5)
        vocab = alpha_words("w", 5000)
        paragraph = random_words(rng, 400, vocab)
        docs = []
        for k in range(120):
            before, after = (random_words(rng, rng.randint(0, 100), vocab) for _ in range(2))
            docs.append(doc_from_tokens(before + paragraph + after, doi=f"s{k:03d}"))
        tokens = sum(doc.token_hashes.size for doc in docs)
        counts = {}
        with mock.patch.object(retrieval, "_JOIN_BLOCK", 2**10):
            tracemalloc.start()
            try:
                pairs = retrieve_candidates_exact(docs, 50, 9, counts=counts)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(pairs) == math.comb(120, 2)
        assert peak <= 20 * tokens + 100 * len(pairs)
        assert counts["passage_pairs"] > 10 * len(pairs)

    def test_window_join_bytes_per_entry(self, docs):
        hashes = [window_hashes(doc, 3, 2) for doc in docs]
        entries = sum(h.size for h in hashes)
        assert entries > 80_000
        with mock.patch.object(retrieval, "_JOIN_BLOCK", 2**10):
            peak = traced_peak(shared_hash_pairs, hashes)
        assert peak <= 48 * entries


class TestNgramMode:
    @settings(max_examples=200, deadline=None)
    @given(corpus=token_corpora(), n=st.integers(1, 5))
    @example(corpus=[], n=3)
    def test_matches_the_ngram_oracle(self, corpus, n):
        docs = [doc_from_tokens(tokens, doi=f"d{k}") for k, tokens in enumerate(corpus)]
        counts = {}
        pairs = retrieve_candidates_ngram(docs, n, counts=counts)
        assert {p.key: p.evidence for p in pairs} == brute_force_ngram_pairs(docs, n)
        holders = ngram_holders(docs, n)
        visits = sum(math.comb(len(dois), 2) for dois in holders.values())
        assert counts == {"hash_postings": len(holders), "pair_visits": visits}

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_contains_every_pair_with_a_case(self, data):
        """Soundness: a seed is a token-equal ngram_size window, which holds
        a shared min(RETRIEVAL_NGRAM_SIZE, ngram_size)-gram, so every pair
        align_pair turns into a case is a candidate."""
        vocab = alpha_words("v", data.draw(st.integers(2, 10), label="vocab_size"))
        docs = [
            doc_from_tokens(data.draw(st.lists(st.sampled_from(vocab), max_size=60)), doi=f"d{k}")
            for k in range(data.draw(st.integers(2, 5), label="doc_count"))
        ]
        size = data.draw(st.integers(1, 8), label="ngram_size")
        params = AlignmentParams(
            ngram_size=size,
            ngram_overlap=data.draw(st.integers(0, size - 1), label="ngram_overlap"),
            max_gap=data.draw(st.integers(0, 300), label="max_gap"),
            min_seeds=data.draw(st.integers(1, 3), label="min_seeds"),
        )
        candidates = {p.key for p in retrieve_candidates_ngram(docs, min(RETRIEVAL_NGRAM_SIZE, size))}
        for a, b in itertools.combinations(docs, 2):
            if align_pair(a, b, params):
                assert (a.doi, b.doi) in candidates


class TestDocumentOrder:
    @pytest.mark.parametrize("mode", ["ngram", "exact", "minhash"])
    @settings(max_examples=100, deadline=None)
    @given(
        corpus=token_corpora(),
        passage_size=st.integers(1, 60),
        min_shared_terms=st.integers(1, 12),
        df_cap=st.integers(1, 4),
        num_hashes=st.integers(1, 17),
        ngram_size=st.integers(1, 8),
        data=st.data(),
    )
    def test_permuting_documents_changes_nothing(
        self, mode, corpus, passage_size, min_shared_terms, df_cap, num_hashes, ngram_size, data
    ):
        """Documents are numbered in input order, and those numbers go into
        every join key; the pairs, their evidence and the counts must not
        depend on them."""
        docs = [doc_from_tokens(tokens, doi=f"d{k}") for k, tokens in enumerate(corpus)]
        config = RunConfig(
            input="x",
            output_dir="y",
            retrieval_mode=mode,
            passage_size=passage_size,
            min_shared_terms=min_shared_terms,
            df_cap=df_cap,
            num_hashes=num_hashes,
            ngram_size=ngram_size,
            ngram_overlap=ngram_size - 1,
        )
        results = []
        for order in (docs, data.draw(st.permutations(docs), label="permuted")):
            counts = {}
            pairs = run_retrieval(order, config, counts)
            results.append(([(p.key, p.evidence) for p in pairs], counts))
        assert results[0] == results[1]


class TestMinhashVsExactAgreement:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_minhash_keys_within_exact_oracle(self, data):
        """A shared min-hash value means a shared term, so every minhash
        candidate has a passage pair sharing at least one term."""
        vocab = alpha_words("v", data.draw(st.integers(2, 40), label="vocab_size"))
        docs = [
            doc_from_tokens(data.draw(st.lists(st.sampled_from(vocab), max_size=80)), doi=f"d{k}")
            for k in range(data.draw(st.integers(2, 6), label="doc_count"))
        ]
        passage_size = data.draw(st.integers(2, 30), label="passage_size")
        num_hashes = data.draw(st.integers(1, 10), label="num_hashes")
        index = build_index(*sketch_corpus(docs, passage_size, num_hashes, seed=data.draw(st.integers(0, 3))))
        minhash = {p.key for p in retrieve_candidates(index, [doc.doi for doc in docs])}
        exact = {p.key for p in retrieve_candidates_exact(docs, passage_size, 1)}
        assert minhash <= exact

    def test_high_jaccard_pairs_agree(self):
        """MinHash retrieval finds >= 95% of the pairs exact mode finds at
        passage Jaccard >= 0.2, measured on generated corpora."""
        eligible = 0
        found = 0
        for seed in range(5):
            spec = GenSpec(
                doc_count=16,
                doc_tokens=(300, 500),
                vocab_size=2000,
                case_count=6,
                passage_tokens=(40, 60),
                seed=seed,
            )
            corpus, _ = generate(spec)
            docs = [normalize(raw) for raw in corpus]
            index = build_index(*sketch_corpus(docs, 50, 10, seed=seed))
            minhash_pairs = {p.key for p in retrieve_candidates(index, [doc.doi for doc in docs])}
            for doi_a, doi_b, jaccard in self._pair_jaccards(docs, 50):
                if jaccard >= 0.2:
                    eligible += 1
                    found += (doi_a, doi_b) in minhash_pairs
        assert eligible >= 20
        assert found / eligible >= 0.95

    @staticmethod
    def _pair_jaccards(docs, passage_size):
        term_sets = {doc.doi: passage_term_sets(doc, passage_size) for doc in docs}
        dois = sorted(term_sets)
        for i, doi_a in enumerate(dois):
            for doi_b in dois[i + 1 :]:
                best = max(
                    (
                        len(x & y) / len(x | y)
                        for x in term_sets[doi_a]
                        for y in term_sets[doi_b]
                        if x | y
                    ),
                    default=0.0,
                )
                yield doi_a, doi_b, best


class TestStraddleIncidence:
    def test_short_plants_can_straddle_passage_boundaries(self):
        """Characterizes the known blind spot: a plant shorter than the
        passage size can split across passage boundaries so that no single
        passage pair reaches the 9-term overlap. Long plants (>= 32 tokens,
        the acceptance floor) are never missed."""
        misses_short = 0
        total_short = 0
        for seed in range(8):
            spec = GenSpec(
                doc_count=12,
                doc_tokens=(200, 300),
                vocab_size=5000,
                case_count=4,
                passage_tokens=(10, 14),
                seed=seed,
            )
            corpus, gold = generate(spec)
            docs = [normalize(raw) for raw in corpus]
            found = {p.key for p in retrieve_candidates_exact(docs, 50, 9)}
            for ann in gold:
                total_short += 1
                misses_short += (ann.doi_a, ann.doi_b) not in found

        misses_long = 0
        for seed in range(8):
            spec = GenSpec(
                doc_count=12,
                doc_tokens=(200, 300),
                vocab_size=5000,
                case_count=4,
                passage_tokens=(32, 48),
                seed=seed,
            )
            corpus, gold = generate(spec)
            docs = [normalize(raw) for raw in corpus]
            found = {p.key for p in retrieve_candidates_exact(docs, 50, 9)}
            misses_long += sum((a.doi_a, a.doi_b) not in found for a in gold)

        assert misses_long == 0
        # short plants are genuinely lossy; just pin the measured ballpark
        assert misses_short / total_short <= 0.5
