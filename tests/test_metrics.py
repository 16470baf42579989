import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textreuse.alignment import ReuseCase
from textreuse.ingest import normalize
from textreuse.metrics import (
    STRATEGIES,
    GoldAnnotation,
    GoldSpan,
    char_precision_recall,
    evaluate_cases,
    f_beta,
    format_report_table,
    gold_record,
    granularity,
    grid_search,
    load_gold,
    write_gold,
)
from textreuse.synthgen import GenSpec, generate

from conftest import alpha_words, doc_from_tokens, token_spans


def make_case(doi_a, doi_b, span_a, span_b, case_id="case"):
    return ReuseCase(
        id=case_id,
        text_a="", before_a="", after_a="",
        begin_a=span_a[0], end_a=span_a[1], doc_length_a=10_000, doi_a=doi_a,
        year_a=None, field_a=None, area_a=None, discipline_a=None,
        text_b="", before_b="", after_b="",
        begin_b=span_b[0], end_b=span_b[1], doc_length_b=10_000, doi_b=doi_b,
        year_b=None, field_b=None, area_b=None, discipline_b=None,
    )


def make_gold(doi_a, doi_b, spans, strategy="none", pair_id=None):
    return GoldAnnotation(
        pair_id=pair_id or f"{doi_a}-{doi_b}",
        doi_a=doi_a,
        doi_b=doi_b,
        spans=tuple(GoldSpan(*sa, *sb) for sa, sb in spans),
        strategy=strategy,
    )


def set_oracle(gold, cases_by_pair):
    """Direct character-set arithmetic, macro-averaged."""
    precisions, recalls = [], []
    for ann in gold:
        gold_chars = set()
        for s in ann.spans:
            gold_chars |= {("a", p) for p in range(s.begin_a, s.end_a)}
            gold_chars |= {("b", p) for p in range(s.begin_b, s.end_b)}
        det_chars = set()
        for c in cases_by_pair.get((ann.doi_a, ann.doi_b), []):
            det_chars |= {("a", p) for p in range(c.begin_a, c.end_a)}
            det_chars |= {("b", p) for p in range(c.begin_b, c.end_b)}
        inter = len(gold_chars & det_chars)
        precisions.append(inter / len(det_chars) if det_chars else 1.0)
        recalls.append(inter / len(gold_chars) if gold_chars else 1.0)
    return sum(precisions) / len(precisions), sum(recalls) / len(recalls)


class TestFBeta:
    @pytest.mark.parametrize(
        "precision,recall,expected",
        [(0.93, 0.46, 0.77), (0.90, 0.11, 0.37), (0.99, 0.10, 0.36), (0.88, 0.16, 0.46)],
    )
    def test_published_score_rows(self, precision, recall, expected):
        assert abs(f_beta(precision, recall, 0.5) - expected) <= 0.005

    def test_perfect(self):
        assert f_beta(1.0, 1.0) == 1.0

    def test_zero_recall(self):
        assert f_beta(1.0, 0.0) == 0.0

    def test_both_zero(self):
        assert f_beta(0.0, 0.0) == 0.0


class TestCharPrecisionRecall:
    def test_exact_match(self):
        gold = [make_gold("a", "b", [((0, 100), (50, 150))])]
        cases = [make_case("a", "b", (0, 100), (50, 150))]
        assert char_precision_recall(gold, cases) == (1.0, 1.0)

    def test_empty_detection_convention(self):
        gold = [make_gold("a", "b", [((0, 100), (0, 100))])]
        precision, recall = char_precision_recall(gold, [])
        assert (precision, recall) == (1.0, 0.0)

    def test_half_overlap_half_spurious(self):
        # gold 100 chars per side; detection covers 50 gold + 50 spurious per side
        gold = [make_gold("a", "b", [((0, 100), (0, 100))])]
        cases = [make_case("a", "b", (50, 150), (50, 150))]
        precision, recall = char_precision_recall(gold, cases)
        assert (precision, recall) == (0.5, 0.5)

    def test_no_reuse_pair_scores_perfect(self):
        gold = [make_gold("a", "b", [], strategy="no-plagiarism")]
        assert char_precision_recall(gold, []) == (1.0, 1.0)

    def test_matches_set_arithmetic_oracle(self):
        rng = random.Random(11)
        gold, cases = [], []
        for k in range(12):
            doi_a, doi_b = f"a{k:02d}", f"b{k:02d}"
            spans = []
            for _ in range(rng.randint(0, 3)):
                start_a, start_b = rng.randrange(0, 500), rng.randrange(0, 500)
                spans.append(((start_a, start_a + rng.randint(10, 80)), (start_b, start_b + rng.randint(10, 80))))
            gold.append(make_gold(doi_a, doi_b, spans))
            for _ in range(rng.randint(0, 3)):
                start_a, start_b = rng.randrange(0, 500), rng.randrange(0, 500)
                cases.append(
                    make_case(doi_a, doi_b, (start_a, start_a + rng.randint(10, 80)), (start_b, start_b + rng.randint(10, 80)))
                )
        by_pair = {}
        for c in cases:
            by_pair.setdefault(c.pair_key, []).append(c)
        expected = set_oracle(gold, by_pair)
        got = char_precision_recall(gold, cases)
        assert got == pytest.approx(expected)

    def test_swap_exchanges_precision_and_recall(self):
        gold = [make_gold("a", "b", [((0, 100), (0, 100)), ((300, 350), (300, 350))])]
        cases = [make_case("a", "b", (50, 150), (50, 150))]
        precision, recall = char_precision_recall(gold, cases)
        swapped_gold = [make_gold("a", "b", [((50, 150), (50, 150))])]
        swapped_cases = [
            make_case("a", "b", (0, 100), (0, 100)),
            make_case("a", "b", (300, 350), (300, 350)),
        ]
        swapped_precision, swapped_recall = char_precision_recall(swapped_gold, swapped_cases)
        assert precision == pytest.approx(swapped_recall)
        assert recall == pytest.approx(swapped_precision)

    def test_invariant_under_reordering(self):
        gold = [
            make_gold("a", "b", [((0, 100), (0, 100))]),
            make_gold("c", "d", [((0, 50), (0, 50))]),
        ]
        cases = [
            make_case("c", "d", (0, 25), (0, 25)),
            make_case("a", "b", (0, 100), (0, 100)),
        ]
        forward = char_precision_recall(gold, cases)
        backward = char_precision_recall(list(reversed(gold)), list(reversed(cases)))
        assert forward == backward

    def test_unknown_pair_rejected(self):
        gold = [make_gold("a", "b", [((0, 10), (0, 10))])]
        with pytest.raises(ValueError, match="unknown pair"):
            char_precision_recall(gold, [make_case("a", "zz", (0, 10), (0, 10))])

    @pytest.mark.parametrize("score", [char_precision_recall, granularity, evaluate_cases])
    def test_pair_annotated_twice_rejected(self, score):
        gold = [
            make_gold("a", "b", [((0, 100), (0, 100))]),
            make_gold("a", "b", [], strategy="no-plagiarism", pair_id="again"),
        ]
        with pytest.raises(ValueError, match="^pair a/b annotated twice$"):
            score(gold, [make_case("a", "b", (0, 100), (0, 100))])

    @pytest.mark.parametrize("score", [char_precision_recall, evaluate_cases])
    def test_unknown_average_rejected(self, score):
        gold = [make_gold("a", "b", [((0, 100), (0, 100))])]
        with pytest.raises(ValueError, match="^average must be 'macro' or 'micro'$"):
            score(gold, [make_case("a", "b", (0, 100), (0, 100))], average="mean")

    def test_micro_pools_characters(self):
        gold = [
            make_gold("a", "b", [((0, 100), (0, 100))]),
            make_gold("c", "d", [((0, 10), (0, 10))]),
        ]
        cases = [
            make_case("a", "b", (0, 100), (0, 100)),
            make_case("c", "d", (0, 5), (0, 5)),
        ]
        macro_p, macro_r = char_precision_recall(gold, cases, average="macro")
        micro_p, micro_r = char_precision_recall(gold, cases, average="micro")
        assert (macro_p, macro_r) == (1.0, 0.75)
        assert micro_p == 1.0
        assert micro_r == pytest.approx(210 / 220)


class TestGranularity:
    def test_one_detection_per_span(self):
        gold = [make_gold("a", "b", [((0, 100), (0, 100))])]
        cases = [make_case("a", "b", (0, 100), (0, 100))]
        assert granularity(gold, cases) == 1.0

    def test_split_detection(self):
        gold = [make_gold("a", "b", [((0, 100), (0, 100))])]
        cases = [
            make_case("a", "b", (0, 40), (0, 40)),
            make_case("a", "b", (60, 100), (60, 100)),
        ]
        assert granularity(gold, cases) == 2.0

    def test_mixed_fixture(self):
        gold = [
            make_gold("a", "b", [((0, 100), (0, 100))]),
            make_gold("c", "d", [((0, 100), (0, 100))]),
            make_gold("e", "f", [((0, 100), (0, 100))]),
        ]
        cases = [
            make_case("a", "b", (0, 100), (0, 100)),
            make_case("c", "d", (0, 100), (0, 100)),
            make_case("e", "f", (0, 40), (0, 40)),
            make_case("e", "f", (50, 100), (50, 100)),
        ]
        assert granularity(gold, cases) == pytest.approx(4 / 3)

    def test_no_detections(self):
        gold = [make_gold("a", "b", [((0, 100), (0, 100))])]
        assert granularity(gold, []) == 1.0


# An ordered span in a short text, so that drawn spans often overlap.
near_span = st.lists(st.integers(0, 200), min_size=2, max_size=2, unique=True).map(sorted)


class TestEvaluateCases:
    def test_per_strategy_rows(self):
        gold = [
            make_gold("a", "b", [((0, 100), (0, 100))], strategy="none"),
            make_gold("c", "d", [], strategy="no-plagiarism"),
        ]
        cases = [make_case("a", "b", (0, 100), (0, 100))]
        report = evaluate_cases(gold, cases, with_granularity=True)
        strategies = [row.strategy for row in report.by_strategy]
        assert strategies == ["none", "no-plagiarism"]
        assert report.overall.precision == 1.0
        assert report.overall.recall == 1.0
        no_plag = report.by_strategy[1]
        assert (no_plag.precision, no_plag.recall) == (1.0, 1.0)
        table = format_report_table(report)
        assert "No Plagiarism" in table and "Entire Corpus" in table

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            make_gold("a", "b", [], strategy="cosmic")

    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(STRATEGIES),
                st.lists(st.tuples(near_span, near_span), max_size=3),
                st.lists(st.tuples(near_span, near_span), max_size=4),
            ),
            max_size=8,
        ),
        st.sampled_from(("macro", "micro")),
    )
    def test_rows_score_their_subsets(self, pairs, average):
        gold, cases = [], []
        for k, (strategy, spans, detections) in enumerate(pairs):
            gold.append(make_gold(f"a{k}", f"b{k}", spans, strategy))
            cases += [make_case(f"a{k}", f"b{k}", span_a, span_b) for span_a, span_b in detections]
        report = evaluate_cases(gold, cases, average=average, with_granularity=True)
        assert [row.strategy for row in report.by_strategy] == [s for s in STRATEGIES if s in {a.strategy for a in gold}]
        for row in report.by_strategy + [report.overall]:
            anns = [a for a in gold if row.strategy in (a.strategy, "entire")]
            keys = {(a.doi_a, a.doi_b) for a in anns}
            dets = [c for c in cases if c.pair_key in keys]
            precision, recall = char_precision_recall(anns, dets, average)
            assert (row.precision, row.recall, row.f_score) == (precision, recall, f_beta(precision, recall))
            assert row.granularity == granularity(anns, dets)
            assert row.plagdet == f_beta(precision, recall, 1.0) / math.log2(1 + row.granularity)
            assert row.pair_count == len(anns)
            assert row.gold_span_count == sum(len(a.spans) for a in anns)
            assert row.detection_count == len(dets)


# Each side's (begin, end) satisfies 0 <= begin < end.
ordered_span = st.lists(st.integers(0, 10**6), min_size=2, max_size=2, unique=True).map(sorted)
ordered_gold_span = st.builds(lambda a, b: GoldSpan(*a, *b), ordered_span, ordered_span)


class TestGoldIO:
    def test_round_trip(self, tmp_path):
        gold = [
            make_gold("a", "b", [((0, 10), (5, 15))], strategy="random"),
            make_gold("c", "d", [], strategy="no-plagiarism"),
        ]
        path = tmp_path / "gold.jsonl"
        write_gold(path, gold)
        assert load_gold(path) == gold

    @settings(max_examples=100)
    @given(
        st.lists(
            st.builds(
                GoldAnnotation,
                pair_id=st.text(max_size=10),
                doi_a=st.just("doc-a"),
                doi_b=st.text(min_size=1, max_size=10).map(lambda s: "doc-b" + s),
                spans=st.lists(ordered_gold_span, max_size=3).map(tuple),
                strategy=st.sampled_from(STRATEGIES),
            ),
            max_size=4,
            unique_by=lambda ann: ann.doi_b,  # a pair may be annotated once
        )
    )
    def test_any_annotations_round_trip(self, tmp_path_factory, gold):
        path = tmp_path_factory.mktemp("gold") / "gold.jsonl"
        write_gold(path, gold)
        assert load_gold(path) == gold

    def test_extra_keys_ignored_and_strategy_defaults(self, tmp_path):
        path = tmp_path / "gold.jsonl"
        span = {"begin_a": 0, "end_a": 10, "begin_b": 5, "end_b": 15, "note": "x"}
        record = {"pair_id": "p", "doi_a": "a", "doi_b": "b", "spans": [span], "extra": 1}
        path.write_text(json.dumps(record) + "\n")
        assert load_gold(path) == [make_gold("a", "b", [((0, 10), (5, 15))], pair_id="p")]

    @pytest.mark.parametrize(
        "span",
        [(5, 2, 0, 10), (0, 10, 3, 3), (-1, 10, 0, 10), (0, 10, True, 10), (0, 10.0, 0, 10), ("0", 10, 0, 10)],
    )
    def test_gold_span_refuses_a_span_that_is_not_ordered_integers(self, span):
        with pytest.raises(ValueError, match="invalid gold span"):
            GoldSpan(*span)

    @pytest.mark.parametrize(
        "change, reason",
        [
            ({"pair_id": None}, "missing pair_id"),
            ({"doi_b": None}, "missing doi_b"),
            ({"spans": None}, "spans must be an array"),
            ({"spans": [{"begin_a": 0, "end_a": 10, "begin_b": 5}]}, "missing end_b"),
            ({"spans": [{"begin_a": 10, "end_a": 0, "begin_b": 5, "end_b": 15}]}, "invalid gold span on side a"),
            ({"spans": [[0, 10, 5, 15]]}, "GoldSpan record is not a JSON object"),
            ({"doi_a": 1}, "pair_id, doi_a and doi_b must be strings"),
            ({"pair_id": "q", "spans": [], "strategy": "no-plagiarism"}, "pair a/b annotated twice"),
            ({"doi_a": "c"}, "gold annotation must satisfy doi_a < doi_b"),
        ],
    )
    def test_malformed_record_names_its_line(self, tmp_path, change, reason):
        good = gold_record(make_gold("a", "b", [((0, 10), (5, 15))], pair_id="p"))
        bad = {**good, **change}
        for name, value in change.items():
            if value is None:
                del bad[name]
        path = tmp_path / "gold.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(ValueError) as info:
            load_gold(path)
        assert str(info.value) == f"{path}:2: {reason}"

    def test_record_shape(self):
        record = gold_record(make_gold("a", "b", [((0, 10), (5, 15))]))
        assert record["spans"] == [{"begin_a": 0, "end_a": 10, "begin_b": 5, "end_b": 15}]


class TestGridSearch:
    def _tiny_corpus(self):
        spec = GenSpec(
            doc_count=12,
            doc_tokens=(200, 300),
            vocab_size=3000,
            case_count=5,
            passage_tokens=(32, 48),
            seed=99,
        )
        corpus, gold = generate(spec)
        return [normalize(d) for d in corpus], gold

    def test_singleton_ranges_match_direct_evaluation(self):
        docs, gold = self._tiny_corpus()
        rows = grid_search(docs, gold, [8], [7], [250])
        assert len(rows) == 1
        from textreuse.alignment import align_pair

        by_doi = {d.doi: d for d in docs}
        detected = []
        for ann in gold:
            detected.extend(align_pair(by_doi[ann.doi_a], by_doi[ann.doi_b]))
        precision, recall = char_precision_recall(gold, detected)
        assert rows[0].precision == pytest.approx(precision)
        assert rows[0].recall == pytest.approx(recall)

    def test_empty_range_rejected(self):
        docs, gold = self._tiny_corpus()
        with pytest.raises(ValueError):
            grid_search(docs, gold, [], [7], [250])

    def test_all_invalid_combinations_rejected(self):
        docs, gold = self._tiny_corpus()
        with pytest.raises(ValueError):
            grid_search(docs, gold, [4], [7], [250])  # overlap >= size

    def test_default_parameters_rank_in_top_quartile(self):
        docs, gold = self._tiny_corpus()
        rows = grid_search(docs, gold, [4, 8, 12], [3, 7, 11], [100, 250, 500])
        scores = sorted((r.f_score for r in rows), reverse=True)
        target = next(r for r in rows if (r.ngram_size, r.ngram_overlap, r.max_gap) == (8, 7, 250))
        quartile_floor = scores[max(0, (len(scores) + 3) // 4 - 1)]
        assert target.f_score >= quartile_floor

    def test_ranking_is_sorted_and_deterministic(self):
        docs, gold = self._tiny_corpus()
        rows_one = grid_search(docs, gold, [6, 8], [5], [150, 250])
        rows_two = grid_search(docs, gold, [6, 8], [5], [150, 250])
        assert rows_one == rows_two
        assert all(rows_one[i].f_score >= rows_one[i + 1].f_score for i in range(len(rows_one) - 1))

    def test_widening_gap_degrades_precision_monotonically(self):
        # two distinct gold cases separated by ~90 chars of background on both
        # sides; once max_gap spans the separator the detections merge and the
        # separator chars become false positives
        part_one, part_two = alpha_words("sh", 16), alpha_words("st", 16)
        separator_a, separator_b = alpha_words("ga", 15), alpha_words("gb", 15)
        a = doc_from_tokens(
            alpha_words("qa", 30) + part_one + separator_a + part_two + alpha_words("qc", 30),
            doi="a",
        )
        b = doc_from_tokens(
            alpha_words("zb", 30) + part_one + separator_b + part_two + alpha_words("zd", 30),
            doi="b",
        )

        def token_span(doc, start, count):
            spans = token_spans(doc)
            return (spans[start][0], spans[start + count - 1][1])

        gold = [
            make_gold(
                "a",
                "b",
                [
                    (token_span(a, 30, 16), token_span(b, 30, 16)),
                    (token_span(a, 61, 16), token_span(b, 61, 16)),
                ],
            )
        ]
        precisions = []
        for max_gap in (40, 150, 400, 800):
            rows = grid_search([a, b], gold, [8], [7], [max_gap])
            precisions.append(rows[0].precision)
        assert precisions[0] == 1.0
        assert precisions[-1] < 1.0
        assert all(precisions[i + 1] <= precisions[i] + 1e-9 for i in range(len(precisions) - 1))
