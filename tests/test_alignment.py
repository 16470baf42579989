import json
import random
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import textreuse.alignment as alignment
from textreuse.alignment import (
    AlignmentParams,
    ReuseCase,
    Seed,
    align_pair,
    case_from_record,
    case_namespace,
    case_record,
    chunk_ngrams,
    extend,
    seed_matches,
    window_hashes,
)
from textreuse.spans import bounding, gap, merge, overlaps, total_length

from conftest import alpha_words, doc_from_tokens


def brute_force_seeds(a, b, n, stride=1):
    """All-pairs n-gram comparison oracle over windows starting at multiples of stride."""
    seeds = []
    for i in range(0, len(a.tokens) - n + 1, stride):
        for j in range(0, len(b.tokens) - n + 1, stride):
            if a.tokens[i : i + n] == b.tokens[j : j + n]:
                seeds.append(
                    Seed(
                        (a.token_spans[i][0], a.token_spans[i + n - 1][1]),
                        (b.token_spans[j][0], b.token_spans[j + n - 1][1]),
                    )
                )
    return sorted(seeds)


def brute_force_extend(seeds, max_gap, min_seeds):
    """Connected components over the link relation, then the same box rules."""
    seeds = sorted(seeds)
    n = len(seeds)
    adjacency = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if (
                gap(seeds[i].span_a, seeds[j].span_a) <= max_gap
                and gap(seeds[i].span_b, seeds[j].span_b) <= max_gap
            ):
                adjacency[i].append(j)
                adjacency[j].append(i)
    seen = [False] * n
    boxes = []
    for start in range(n):
        if seen[start]:
            continue
        queue, component = [start], []
        seen[start] = True
        while queue:
            node = queue.pop()
            component.append(node)
            for other in adjacency[node]:
                if not seen[other]:
                    seen[other] = True
                    queue.append(other)
        if len(component) >= min_seeds:
            boxes.append(
                (
                    bounding([seeds[k].span_a for k in component]),
                    bounding([seeds[k].span_b for k in component]),
                )
            )
    changed = True
    while changed:
        changed = False
        out = []
        for box in sorted(boxes):
            for idx, other in enumerate(out):
                if overlaps(box[0], other[0]) and overlaps(box[1], other[1]):
                    out[idx] = (bounding([box[0], other[0]]), bounding([box[1], other[1]]))
                    changed = True
                    break
            else:
                out.append(box)
        boxes = out
    return sorted(boxes)


def seed_strategy(max_pos=2000, max_len=60):
    def build(pairs):
        return [
            Seed((a, a + la), (b, b + lb))
            for a, la, b, lb in pairs
        ]

    return st.lists(
        st.tuples(
            st.integers(0, max_pos),
            st.integers(1, max_len),
            st.integers(0, max_pos),
            st.integers(1, max_len),
        ),
        max_size=40,
    ).map(build)


class TestChunkNgrams:
    def test_stride_one_count(self):
        doc = doc_from_tokens(alpha_words("w", 10))
        grams = chunk_ngrams(doc, 8, 7)
        assert [g.start_token for g in grams] == [0, 1, 2]

    def test_exact_window(self):
        doc = doc_from_tokens(alpha_words("w", 8))
        assert len(chunk_ngrams(doc, 8, 7)) == 1

    def test_below_window(self):
        doc = doc_from_tokens(alpha_words("w", 7))
        assert chunk_ngrams(doc, 8, 7) == []

    @pytest.mark.parametrize("length,size,overlap", [(20, 8, 7), (25, 8, 4), (50, 5, 0), (9, 3, 2)])
    def test_count_formula(self, length, size, overlap):
        doc = doc_from_tokens(alpha_words("w", length))
        expected = (length - size) // (size - overlap) + 1
        assert len(chunk_ngrams(doc, size, overlap)) == expected

    def test_char_spans_cover_windows(self):
        doc = doc_from_tokens(alpha_words("w", 12))
        for gram in chunk_ngrams(doc, 8, 7):
            begin, end = gram.char_span
            text = doc.normalized_text[begin:end]
            assert text.split() == list(doc.tokens[gram.start_token : gram.start_token + 8])

    def test_hash_depends_on_tokens_only(self):
        doc_a = doc_from_tokens(alpha_words("w", 8), doi="a")
        doc_b = doc_from_tokens(["pad"] + alpha_words("w", 8), doi="b")
        (gram_a,) = chunk_ngrams(doc_a, 8, 7)
        gram_b = chunk_ngrams(doc_b, 8, 7)[1]
        assert gram_a.hash == gram_b.hash

    def test_invalid_overlap(self):
        doc = doc_from_tokens(alpha_words("w", 10))
        with pytest.raises(ValueError):
            chunk_ngrams(doc, 8, 8)


class TestSeedMatches:
    def test_identical_documents_diagonal(self):
        tokens = alpha_words("w", 30)
        a = doc_from_tokens(tokens, doi="a")
        b = doc_from_tokens(tokens, doi="b")
        seeds = seed_matches(a, b, 8, 7)
        assert len(seeds) == 30 - 8 + 1
        assert all(s.span_a == s.span_b for s in seeds)

    def test_embedded_sentence_yields_window_count(self):
        sentence = alpha_words("sh", 20)
        a = doc_from_tokens(alpha_words("qa", 40) + sentence + alpha_words("qc", 40), doi="a")
        b = doc_from_tokens(alpha_words("zb", 30) + sentence + alpha_words("zd", 50), doi="b")
        seeds = seed_matches(a, b, 8, 7)
        assert len(seeds) == 20 - 8 + 1  # 13

    def test_disjoint_vocabularies(self):
        a = doc_from_tokens(alpha_words("qa", 40), doi="a")
        b = doc_from_tokens(alpha_words("zb", 40), doi="b")
        assert seed_matches(a, b, 8, 7) == []

    def test_matches_brute_force_on_random_pairs(self):
        rng = random.Random(2024)
        small_vocab = alpha_words("v", 12)  # repeats force off-diagonal matches
        for _ in range(25):
            a = doc_from_tokens([rng.choice(small_vocab) for _ in range(rng.randint(20, 60))], doi="a")
            b = doc_from_tokens([rng.choice(small_vocab) for _ in range(rng.randint(20, 60))], doi="b")
            n = rng.choice([3, 4])
            assert seed_matches(a, b, n, n - 1) == brute_force_seeds(a, b, n)

    def test_hash_collisions_are_verified_away(self, monkeypatch):
        monkeypatch.setattr(alignment, "ngram_hash", lambda tokens: 0)
        rng = random.Random(7)
        small_vocab = alpha_words("v", 6)
        a = doc_from_tokens([rng.choice(small_vocab) for _ in range(30)], doi="a")
        b = doc_from_tokens([rng.choice(small_vocab) for _ in range(30)], doi="b")
        assert seed_matches(a, b, 3, 2) == brute_force_seeds(a, b, 3)


    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_brute_force_at_any_stride(self, data):
        vocab = alpha_words("v", data.draw(st.integers(4, 8), label="vocab size"))
        token_lists = st.lists(st.sampled_from(vocab), max_size=40)
        a = doc_from_tokens(data.draw(token_lists, label="tokens a"), doi="a")
        b = doc_from_tokens(data.draw(token_lists, label="tokens b"), doi="b")
        size = data.draw(st.integers(1, 8), label="ngram_size")
        overlap = data.draw(st.integers(0, size - 1), label="ngram_overlap")
        assert seed_matches(a, b, size, overlap) == brute_force_seeds(a, b, size, size - overlap)

    def test_precomputed_hashes_give_the_same_seeds(self):
        rng = random.Random(11)
        small_vocab = alpha_words("v", 4)
        a = doc_from_tokens([rng.choice(small_vocab) for _ in range(50)], doi="a")
        b = doc_from_tokens([rng.choice(small_vocab) for _ in range(50)], doi="b")
        hashes_a = window_hashes(a, 3, 1)
        hashes_b = window_hashes(b, 3, 1)
        assert hashes_a.dtype == np.uint64 and len(hashes_a) == len(chunk_ngrams(a, 3, 1))
        expected = seed_matches(a, b, 3, 1)
        assert expected
        assert seed_matches(a, b, 3, 1, hashes_a=hashes_a, hashes_b=hashes_b) == expected
        assert seed_matches(a, b, 3, 1, hashes_a=hashes_a) == expected


class TestWindowHashes:
    def test_agrees_with_chunk_ngrams(self):
        doc = doc_from_tokens(alpha_words("w", 25))
        grams = chunk_ngrams(doc, 8, 4)
        assert window_hashes(doc, 8, 4).tolist() == [g.hash for g in grams]
        assert [g.start_token for g in grams] == [0, 4, 8, 12, 16]

    def test_below_window_is_empty(self):
        hashes = window_hashes(doc_from_tokens(alpha_words("w", 7)), 8, 7)
        assert hashes.dtype == np.uint64 and hashes.size == 0

    def test_invalid_overlap(self):
        with pytest.raises(ValueError):
            window_hashes(doc_from_tokens(alpha_words("w", 10)), 8, 8)


class TestExtend:
    def test_two_seeds_within_gap_merge(self):
        seeds = [Seed((0, 50), (0, 50)), Seed((150, 200), (150, 200))]
        cases = extend(seeds, max_gap=250, min_seeds=1)
        assert cases == [((0, 200), (0, 200))]

    def test_gap_exceeded_on_one_side_splits(self):
        seeds = [Seed((0, 50), (0, 50)), Seed((351, 400), (100, 150))]
        cases = extend(seeds, max_gap=250, min_seeds=1)
        assert len(cases) == 2

    def test_gap_boundary_inclusive(self):
        seeds = [Seed((0, 50), (0, 50)), Seed((300, 350), (300, 350))]
        assert len(extend(seeds, max_gap=250, min_seeds=1)) == 1
        seeds = [Seed((0, 50), (0, 50)), Seed((301, 350), (300, 350))]
        assert len(extend(seeds, max_gap=250, min_seeds=1)) == 2

    def test_chain_merges_transitively(self):
        seeds = [Seed((i * 250, i * 250 + 50), (i * 250, i * 250 + 50)) for i in range(5)]
        cases = extend(seeds, max_gap=250, min_seeds=1)
        assert cases == brute_force_extend(seeds, 250, 1) == [((0, 1050), (0, 1050))]

    def test_min_seeds_discards_small_clusters(self):
        seeds = [Seed((0, 50), (0, 50)), Seed((5000, 5050), (5000, 5050)), Seed((5100, 5150), (5100, 5150))]
        cases = extend(seeds, max_gap=250, min_seeds=2)
        assert cases == [((5000, 5150), (5000, 5150))]

    def test_empty_input(self):
        assert extend([], 250, 2) == []

    def test_matches_brute_force_on_random_seed_sets(self):
        rng = random.Random(31337)
        for _ in range(100):
            seeds = [
                Seed(
                    (begin_a := rng.randrange(0, 1500), begin_a + rng.randint(5, 60)),
                    (begin_b := rng.randrange(0, 1500), begin_b + rng.randint(5, 60)),
                )
                for _ in range(rng.randint(0, 30))
            ]
            max_gap = rng.choice([50, 120, 250])
            min_seeds = rng.choice([1, 2, 3])
            assert extend(seeds, max_gap, min_seeds) == brute_force_extend(seeds, max_gap, min_seeds)

    @given(seed_strategy(), st.integers(0, 400))
    @settings(max_examples=60, deadline=None)
    def test_equals_connected_components_oracle(self, seeds, max_gap):
        assert extend(seeds, max_gap, 1) == brute_force_extend(seeds, max_gap, 1)

    @given(seed_strategy(), st.integers(0, 300), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_coverage_monotone_in_gap(self, seeds, max_gap, min_seeds):
        small = extend(seeds, max_gap, min_seeds)
        large = extend(seeds, max_gap + 100, min_seeds)
        for side in (0, 1):
            covered_small = total_length(merge([c[side] for c in small])) if small else 0
            covered_large = total_length(merge([c[side] for c in large])) if large else 0
            assert covered_large >= covered_small

    @given(seed_strategy(), st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_case_count_monotone_in_gap_at_min_seeds_one(self, seeds, max_gap):
        assert len(extend(seeds, max_gap + 100, 1)) <= len(extend(seeds, max_gap, 1))


def paragraph_pair(paragraph, doi_a="doc-a", doi_b="doc-b", insert_extra=None):
    """Two documents sharing `paragraph`, with known insertion offsets."""
    bg_a_left, bg_a_right = alpha_words("qa", 60), alpha_words("qc", 40)
    bg_b_left, bg_b_right = alpha_words("zb", 25), alpha_words("zd", 70)
    tokens_b = paragraph if insert_extra is None else (
        paragraph[: len(paragraph) // 2] + insert_extra + paragraph[len(paragraph) // 2 :]
    )
    a = doc_from_tokens(bg_a_left + paragraph + bg_a_right, doi=doi_a, year=1999, field=("biology",))
    b = doc_from_tokens(bg_b_left + tokens_b + bg_b_right, doi=doi_b, year=2003)
    span_a = (
        a.token_spans[len(bg_a_left)][0],
        a.token_spans[len(bg_a_left) + len(paragraph) - 1][1],
    )
    span_b = (
        b.token_spans[len(bg_b_left)][0],
        b.token_spans[len(bg_b_left) + len(tokens_b) - 1][1],
    )
    return a, b, span_a, span_b


class TestAlignPair:
    def test_shared_paragraph_single_case(self):
        paragraph = alpha_words("sh", 30)
        a, b, span_a, span_b = paragraph_pair(paragraph)
        cases = align_pair(a, b)
        assert len(cases) == 1
        case = cases[0]
        assert (case.begin_a, case.end_a) == span_a
        assert (case.begin_b, case.end_b) == span_b

    def test_inserted_sentence_still_one_case(self):
        paragraph = alpha_words("sh", 30)
        extra = alpha_words("nw", 5)  # ~30 chars, well under max_gap
        a, b, span_a, span_b = paragraph_pair(paragraph, insert_extra=extra)
        cases = align_pair(a, b)
        assert len(cases) == 1
        assert (cases[0].begin_a, cases[0].end_a) == span_a
        assert (cases[0].begin_b, cases[0].end_b) == span_b

    def test_reordered_chunks_merge_into_one_case(self):
        part_one, part_two = alpha_words("sh", 12), alpha_words("st", 12)
        a = doc_from_tokens(alpha_words("qa", 40) + part_one + part_two + alpha_words("qc", 40), doi="a")
        b = doc_from_tokens(alpha_words("zb", 40) + part_two + part_one + alpha_words("zd", 40), doi="b")
        cases = align_pair(a, b)
        assert len(cases) == 1

    def test_identical_documents_whole_text_case(self):
        tokens = alpha_words("w", 150)
        a = doc_from_tokens(tokens, doi="a")
        b = doc_from_tokens(tokens, doi="b")
        cases = align_pair(a, b)
        assert len(cases) == 1
        case = cases[0]
        assert (case.begin_a, case.end_a) == (0, a.doc_length)
        assert (case.begin_b, case.end_b) == (0, b.doc_length)

    def test_symmetry_under_side_swap(self):
        paragraph = alpha_words("sh", 30)
        a, b, _, _ = paragraph_pair(paragraph)
        forward = {(c.begin_a, c.end_a, c.begin_b, c.end_b) for c in align_pair(a, b)}
        backward = {(c.begin_b, c.end_b, c.begin_a, c.end_a) for c in align_pair(b, a)}
        assert forward == backward

    def test_seed_containment(self):
        rng = random.Random(5)
        small_vocab = alpha_words("v", 15)
        a = doc_from_tokens([rng.choice(small_vocab) for _ in range(120)], doi="a")
        b = doc_from_tokens([rng.choice(small_vocab) for _ in range(120)], doi="b")
        params = AlignmentParams(ngram_size=3, ngram_overlap=2, max_gap=100, min_seeds=2)
        seeds = seed_matches(a, b, 3, 2)
        for case in align_pair(a, b, params):
            members = [
                s
                for s in seeds
                if case.begin_a <= s.span_a[0] and s.span_a[1] <= case.end_a
                and case.begin_b <= s.span_b[0] and s.span_b[1] <= case.end_b
            ]
            assert len(members) >= params.min_seeds

    def test_contexts_are_exact_substrings(self):
        paragraph = alpha_words("sh", 30)
        a, b, _, _ = paragraph_pair(paragraph)
        (case,) = align_pair(a, b)
        assert case.text_a == a.normalized_text[case.begin_a : case.end_a]
        assert case.before_a == a.normalized_text[case.begin_a - 100 : case.begin_a]
        assert case.after_a == a.normalized_text[case.end_a : case.end_a + 100]
        assert len(case.before_a) == min(100, case.begin_a)
        assert len(case.after_a) == min(100, a.doc_length - case.end_a)
        assert 0 <= case.begin_a < case.end_a <= case.doc_length_a

    def test_metadata_and_ids(self):
        paragraph = alpha_words("sh", 30)
        a, b, _, _ = paragraph_pair(paragraph)
        ns_one, ns_two = case_namespace(1), case_namespace(2)
        (first,) = align_pair(a, b, namespace=ns_one)
        (again,) = align_pair(a, b, namespace=ns_one)
        (other_ns,) = align_pair(a, b, namespace=ns_two)
        assert first.id == again.id
        assert first.id != other_ns.id
        assert (first.year_a, first.field_a) == (1999, ("biology",))
        assert first.year_b == 2003
        assert first.field_b is None


class TestCaseRecords:
    def _case(self):
        paragraph = alpha_words("sh", 30)
        a, b, _, _ = paragraph_pair(paragraph)
        (case,) = align_pair(a, b)
        return case

    def test_full_record_key_order(self):
        record = case_record(self._case())
        assert list(record) == [
            "id",
            "text_a", "before_a", "after_a",
            "begin_a", "end_a", "doc_length_a",
            "doi_a", "year_a", "field_a", "area_a", "discipline_a",
            "text_b", "before_b", "after_b",
            "begin_b", "end_b", "doc_length_b",
            "doi_b", "year_b", "field_b", "area_b", "discipline_b",
        ]

    def test_metadata_only_drops_exactly_text_fields(self):
        full = case_record(self._case(), include_text=True)
        meta = case_record(self._case(), include_text=False)
        dropped = {"text_a", "before_a", "after_a", "text_b", "before_b", "after_b"}
        assert set(full) - set(meta) == dropped
        assert {k: v for k, v in full.items() if k not in dropped} == meta

    def test_round_trip(self):
        case = self._case()
        assert case_from_record(case_record(case)) == case

    def test_round_trip_metadata_only(self):
        case = self._case()
        revived = case_from_record(case_record(case, include_text=False))
        assert (revived.begin_a, revived.end_a, revived.doi_a) == (case.begin_a, case.end_a, case.doi_a)
        assert revived.text_a == ""


TEXT_FIELDS = {"text_a", "before_a", "after_a", "text_b", "before_b", "after_b"}
LIST_FIELDS = ("field_a", "area_a", "discipline_a", "field_b", "area_b", "discipline_b")
# Metadata lists are None or non-empty; the other fields follow their annotations.
any_case = st.builds(
    ReuseCase,
    **{
        name: st.none() | st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=3).map(tuple)
        for name in LIST_FIELDS
    },
)


class TestCaseCodec:
    @settings(max_examples=200)
    @given(any_case)
    def test_any_case_round_trips_through_json(self, case):
        record = case_record(case)
        assert list(record) == [f.name for f in fields(ReuseCase)]
        assert case_from_record(json.loads(json.dumps(record))) == case

    @settings(max_examples=100)
    @given(any_case)
    def test_metadata_only_drops_exactly_the_text_fields(self, case):
        full = case_record(case)
        meta = case_record(case, include_text=False)
        assert list(meta) == [name for name in full if name not in TEXT_FIELDS]
        assert all(meta[name] == full[name] for name in meta)
        revived = case_from_record(json.loads(json.dumps(meta)))
        assert all(getattr(revived, name) == "" for name in TEXT_FIELDS)
        assert all(getattr(revived, name) == getattr(case, name) for name in meta)
