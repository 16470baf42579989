import itertools
import logging
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textreuse.alignment import AlignmentParams, align_pair
from textreuse.ingest import normalize
from textreuse.retrieval import (
    RETRIEVAL_NGRAM_SIZE,
    CandidatePair,
    MinHasher,
    PassageSketch,
    build_index,
    chunk_passages,
    retrieve_candidates,
    retrieve_candidates_exact,
    retrieve_candidates_ngram,
    sketch_corpus,
)
from textreuse.synthgen import GenSpec, generate

from conftest import alpha_words, brute_force_posting_pairs, doc_from_tokens, random_words


def brute_force_candidates(docs, passage_size, min_shared_terms):
    """O(docs^2 * passages^2) oracle over distinct-term overlap: the number of
    qualifying passage pairs per document pair."""
    term_sets = {
        doc.doi: [
            frozenset(doc.tokens[i : i + passage_size])
            for i in range(0, len(doc.tokens), passage_size)
        ]
        for doc in docs
    }
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
    """Hand-built sketches over 1-8 dois; few passage indices and hash values,
    so entries repeat and postings often hold a single document."""
    def sketches(doi_count):
        sketch = st.builds(
            PassageSketch,
            st.sampled_from([f"d{k}" for k in range(doi_count)]),
            st.integers(0, 2),
            st.frozensets(st.integers(0, 15), min_size=1, max_size=6),
        )
        return st.lists(sketch, max_size=25)

    return st.integers(1, 8).flatmap(sketches)


@st.composite
def token_corpora(draw):
    """0-6 token lists over a vocabulary of 1-24 words, empty ones mixed in,
    so that terms repeat inside passages and empty documents sit between
    non-empty ones."""
    vocab = alpha_words("t", draw(st.integers(1, 24)))
    doc = st.one_of(st.just([]), st.lists(st.sampled_from(vocab), max_size=200))
    return draw(st.lists(doc, max_size=6))


class TestChunkPassages:
    def test_ceiling_division(self, rng, vocab):
        doc = doc_from_tokens(random_words(rng, 120, vocab))
        passages = chunk_passages(doc, 50)
        sizes = [end - begin for _, (begin, end) in ((p.index, p.token_range) for p in passages)]
        assert sizes == [50, 50, 20]
        assert [p.index for p in passages] == [0, 1, 2]

    def test_exact_fit(self, rng, vocab):
        doc = doc_from_tokens(random_words(rng, 50, vocab))
        assert len(chunk_passages(doc, 50)) == 1

    def test_empty_document(self):
        doc = doc_from_tokens([])
        assert chunk_passages(doc, 50) == []

    def test_term_sets_are_distinct_tokens(self):
        doc = doc_from_tokens(["alpha", "beta", "alpha", "gamma"])
        (passage,) = chunk_passages(doc, 50)
        assert passage.term_set == frozenset({"alpha", "beta", "gamma"})

    def test_covers_all_tokens_in_order(self, rng, vocab):
        doc = doc_from_tokens(random_words(rng, 173, vocab))
        passages = chunk_passages(doc, 50)
        flat = []
        for p in passages:
            flat.extend(range(*p.token_range))
        assert flat == list(range(173))


class TestMinHash:
    def test_identical_term_sets_identical_sketches(self, rng, vocab):
        tokens = random_words(rng, 50, vocab)
        shuffled = tokens[:]
        rng.shuffle(shuffled)
        a = chunk_passages(doc_from_tokens(tokens, doi="a"), 50)[0]
        b = chunk_passages(doc_from_tokens(shuffled, doi="b"), 50)[0]
        assert a.term_set == b.term_set
        assert MinHasher(10, 7).sketch(a).hashes == MinHasher(10, 7).sketch(b).hashes

    def test_disjoint_term_sets_share_nothing(self, rng):
        a = chunk_passages(doc_from_tokens(alpha_words("qa", 50), doi="a"), 50)[0]
        b = chunk_passages(doc_from_tokens(alpha_words("zb", 50), doi="b"), 50)[0]
        sa = MinHasher(10, 7).sketch(a)
        sb = MinHasher(10, 7).sketch(b)
        assert not (sa.hashes & sb.hashes)

    def test_empty_term_set_rejected(self):
        hasher = MinHasher(10, seed=0)
        with pytest.raises(ValueError):
            hasher.values([])

    def test_sketch_size_bounded(self, rng, vocab):
        passage = chunk_passages(doc_from_tokens(random_words(rng, 50, vocab)), 50)[0]
        assert len(MinHasher(10, 1).sketch(passage).hashes) <= 10

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


class TestBuildIndex:
    def test_empty_stream(self):
        index = build_index([])
        assert index.postings == {}

    def test_one_sketch_ten_postings(self, rng, vocab):
        passage = chunk_passages(doc_from_tokens(random_words(rng, 50, vocab)), 50)[0]
        sketch = MinHasher(10, 3).sketch(passage)
        index = build_index([sketch])
        assert len(index.postings) == len(sketch.hashes)
        assert all(entries == [("doc-a", 0)] for entries in index.postings.values())

    def test_only_shared_hash_has_multi_document_posting(self):
        # hand-built sketches: A and B share exactly hash 2
        sketches = [
            PassageSketch("a", 0, frozenset({1, 2})),
            PassageSketch("b", 0, frozenset({2, 3})),
            PassageSketch("c", 0, frozenset({4, 5})),
        ]
        index = build_index(sketches)
        multi = {h for h, entries in index.postings.items() if len({d for d, _ in entries}) > 1}
        # oracle: brute-force sketch intersection
        expected = (sketches[0].hashes & sketches[1].hashes) | (
            sketches[0].hashes & sketches[2].hashes
        ) | (sketches[1].hashes & sketches[2].hashes)
        assert multi == expected == {2}

    def test_df_cap_drops_flooded_hash(self, caplog):
        sketches = [PassageSketch(f"d{i:03d}", 0, frozenset({77, 100 + i})) for i in range(5)]
        with caplog.at_level(logging.WARNING):
            index = build_index(sketches, df_cap=3)
        assert 77 not in index.postings
        assert index.dropped_hashes == 1
        assert all(100 + i in index.postings for i in range(5))


class TestRetrieveCandidates:
    def test_two_identical_documents(self, rng, vocab):
        tokens = random_words(rng, 120, vocab)
        docs = [doc_from_tokens(tokens, doi="a"), doc_from_tokens(tokens, doi="b")]
        index = build_index(sketch_corpus(docs, 50, 10, seed=1))
        pairs = retrieve_candidates(index)
        assert {p.key for p in pairs} == {("a", "b")}
        assert all(p.evidence >= 1 for p in pairs)

    def test_disjoint_vocabularies(self):
        docs = [
            doc_from_tokens(alpha_words("qa", 100), doi="a"),
            doc_from_tokens(alpha_words("zb", 100), doi="b"),
        ]
        index = build_index(sketch_corpus(docs, 50, 10, seed=1))
        assert retrieve_candidates(index) == set()

    def test_canonical_ordering(self, rng, vocab):
        tokens = random_words(rng, 60, vocab)
        docs = [doc_from_tokens(tokens, doi=d) for d in ("zz", "aa", "mm")]
        index = build_index(sketch_corpus(docs, 50, 10, seed=1))
        pairs = retrieve_candidates(index)
        for p in pairs:
            assert p.doi_a < p.doi_b

    def test_pair_requires_canonical_order(self):
        with pytest.raises(ValueError):
            CandidatePair("b", "a")
        with pytest.raises(ValueError):
            CandidatePair("a", "a")

    @settings(max_examples=200, deadline=None)
    @given(sketches=sketch_lists(), df_cap=st.integers(1, 4))
    @example(sketches=[], df_cap=1)
    def test_matches_posting_pair_oracle(self, sketches, df_cap):
        index = build_index(sketches, df_cap)
        pairs = retrieve_candidates(index)
        got = {p.key: p.evidence for p in pairs}
        assert len(got) == len(pairs)
        assert got == brute_force_posting_pairs(index)

    def test_evidence_counts_hash_passage_cooccurrences(self):
        sketches = [
            PassageSketch("a", 0, frozenset({1, 2})),
            PassageSketch("b", 0, frozenset({1, 2})),
            PassageSketch("b", 1, frozenset({2, 9})),
        ]
        pairs = retrieve_candidates(build_index(sketches))
        (pair,) = pairs
        # hash 1: (a0, b0); hash 2: (a0, b0) and (a0, b1)
        assert pair.key == ("a", "b")
        assert pair.evidence == 3


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
        assert retrieve_candidates_exact([], 50, 9) == set()

    @settings(max_examples=200, deadline=None)
    @given(corpus=token_corpora(), passage_size=st.integers(1, 60), min_shared_terms=st.integers(1, 12))
    @example(corpus=[[], ["taaa"] * 3, [], ["taaa", "taab"], []], passage_size=1, min_shared_terms=1)
    @example(corpus=[["taaa"] * 3, ["taaa", "taab"]], passage_size=3, min_shared_terms=2)
    @example(corpus=[[], []], passage_size=5, min_shared_terms=1)
    def test_matches_brute_force_on_any_shape(self, corpus, passage_size, min_shared_terms):
        docs = [doc_from_tokens(tokens, doi=f"d{k}") for k, tokens in enumerate(corpus)]
        pairs = retrieve_candidates_exact(docs, passage_size, min_shared_terms)
        got = {p.key: p.evidence for p in pairs}
        assert len(got) == len(pairs)
        assert got == brute_force_candidates(docs, passage_size, min_shared_terms)

    def test_counts_record_the_matrix_shape(self, rng, vocab):
        docs = [
            doc_from_tokens(random_words(rng, 120, vocab), doi="a"),
            doc_from_tokens([], doi="b"),
            doc_from_tokens(random_words(rng, 51, vocab), doi="c"),
        ]
        counts = {}
        retrieve_candidates_exact(docs, 50, 9, counts=counts)
        assert counts == {
            "passages": 3 + 0 + 2,
            "terms": len({t for doc in docs for t in doc.tokens}),
        }


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


class TestNgramMode:
    @settings(max_examples=200, deadline=None)
    @given(corpus=token_corpora(), n=st.integers(1, 5))
    @example(corpus=[], n=3)
    def test_matches_the_ngram_oracle(self, corpus, n):
        docs = [doc_from_tokens(tokens, doi=f"d{k}") for k, tokens in enumerate(corpus)]
        counts = {}
        pairs = retrieve_candidates_ngram(docs, n, counts=counts)
        assert {p.key: p.evidence for p in pairs} == brute_force_ngram_pairs(docs, n)
        grams = {doc.tokens[i : i + n] for doc in docs for i in range(len(doc.tokens) - n + 1)}
        assert counts["hash_postings"] == len(grams)

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
        index = build_index(sketch_corpus(docs, passage_size, num_hashes, seed=data.draw(st.integers(0, 3))))
        minhash = {p.key for p in retrieve_candidates(index)}
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
            minhash_pairs = {
                p.key
                for p in retrieve_candidates(
                    build_index(sketch_corpus(docs, 50, 10, seed=seed))
                )
            }
            for doi_a, doi_b, jaccard in self._pair_jaccards(docs, 50):
                if jaccard >= 0.2:
                    eligible += 1
                    found += (doi_a, doi_b) in minhash_pairs
        assert eligible >= 20
        assert found / eligible >= 0.95

    @staticmethod
    def _pair_jaccards(docs, passage_size):
        term_sets = {
            doc.doi: [p.term_set for p in chunk_passages(doc, passage_size)] for doc in docs
        }
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
