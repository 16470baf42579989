import json
import random

import pytest

from textreuse.ingest import document_record, normalize
from textreuse.metrics import char_precision_recall
from textreuse.synthgen import GenSpec, ObfuscationIntensity, generate, obfuscate_random, spec_record

from conftest import detect_cases, token_spans


def levenshtein(a, b):
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


class TestObfuscateRandom:
    def test_zero_intensity_is_identity(self, rng, vocab):
        tokens = [rng.choice(vocab) for _ in range(80)]
        out, edits = obfuscate_random(list(tokens), ObfuscationIntensity(), rng, vocab)
        assert out == tokens
        assert edits == 0

    def test_delete_probability_one_empties(self, rng, vocab):
        tokens = [rng.choice(vocab) for _ in range(40)]
        out, edits = obfuscate_random(tokens, ObfuscationIntensity(delete=1.0), rng, vocab)
        assert out == []
        assert edits == 40

    def test_empty_input_rejected(self, rng, vocab):
        with pytest.raises(ValueError):
            obfuscate_random([], ObfuscationIntensity(), rng, vocab)

    def test_probabilities_validated(self):
        with pytest.raises(ValueError):
            ObfuscationIntensity(shuffle=-0.1)
        with pytest.raises(ValueError):
            ObfuscationIntensity(shuffle=0.5, add=0.6)

    def test_uniform_splits_evenly(self):
        intensity = ObfuscationIntensity.uniform(0.2)
        assert intensity.shuffle == intensity.add == intensity.delete == intensity.replace == 0.05
        assert intensity.total == pytest.approx(0.2)

    def test_edit_distance_calibration(self, vocab):
        # uniform intensity 0.1 on a 100-token passage: token edit distance
        # lands in [5, 35] for >= 99% of seeds
        master = random.Random(777)
        tokens = [master.choice(vocab) for _ in range(100)]
        intensity = ObfuscationIntensity.uniform(0.1)
        inside = 0
        trials = 250
        for seed in range(trials):
            out, _ = obfuscate_random(list(tokens), intensity, random.Random(seed), vocab)
            inside += 5 <= levenshtein(tokens, out) <= 35
        assert inside / trials >= 0.99


class TestGenSpec:
    def test_passage_longer_than_document_rejected(self):
        spec = GenSpec(doc_count=10, doc_tokens=(100, 200), passage_tokens=(150, 160), case_count=1)
        with pytest.raises(ValueError):
            spec.validate()

    def test_too_many_cases_rejected(self):
        spec = GenSpec(doc_count=10, doc_tokens=(100, 200), passage_tokens=(32, 48), case_count=6)
        with pytest.raises(ValueError):
            spec.validate()

    def test_rate_and_count_mutually_exclusive(self):
        spec = GenSpec(doc_count=10, reuse_rate=0.01, case_count=2)
        with pytest.raises(ValueError):
            spec.validate()

    def test_case_count_from_rate(self):
        spec = GenSpec(doc_count=200, reuse_rate=50 / 19900)
        assert spec.planted_cases() == 50


def small_spec(**overrides):
    base = dict(
        doc_count=14,
        doc_tokens=(250, 400),
        vocab_size=3000,
        case_count=5,
        passage_tokens=(32, 48),
        seed=5,
    )
    base.update(overrides)
    return GenSpec(**base)


    def test_spec_record_layout(self):
        spec = GenSpec(
            doc_count=12,
            doc_tokens=(250, 400),
            vocab_size=3000,
            case_count=3,
            obfuscation="random",
            intensity=ObfuscationIntensity(shuffle=0.1, add=0.2, delete=0.05, replace=0.15),
            seed=9,
        )
        assert json.loads(json.dumps(spec_record(spec))) == {
            "doc_count": 12,
            "doc_tokens": [250, 400],
            "vocab_size": 3000,
            "reuse_rate": None,
            "case_count": 3,
            "passage_tokens": [32, 48],
            "obfuscation": "random",
            "intensity": {"shuffle": 0.1, "add": 0.2, "delete": 0.05, "replace": 0.15},
            "seed": 9,
        }


class TestGenerate:
    def test_same_seed_byte_identical(self):
        corpus_one, gold_one = generate(small_spec())
        corpus_two, gold_two = generate(small_spec())
        blob_one = json.dumps([document_record(d) for d in corpus_one])
        blob_two = json.dumps([document_record(d) for d in corpus_two])
        assert blob_one == blob_two
        assert gold_one == gold_two

    def test_different_seed_differs(self):
        corpus_one, _ = generate(small_spec(seed=5))
        corpus_two, _ = generate(small_spec(seed=6))
        assert corpus_one[0].text != corpus_two[0].text

    def test_zero_reuse_rate(self):
        corpus, gold = generate(small_spec(case_count=None, reuse_rate=0.0))
        assert gold == []
        _, cases = detect_cases(corpus, min_shared_terms=1)
        assert cases == []

    def test_gold_spans_reconstruct_planted_text(self):
        corpus, gold = generate(small_spec())
        docs = {d.doi: normalize(d) for d in corpus}
        for ann in gold:
            (span,) = ann.spans
            text_a = docs[ann.doi_a].normalized_text[span.begin_a : span.end_a]
            text_b = docs[ann.doi_b].normalized_text[span.begin_b : span.end_b]
            assert text_a == text_b  # verbatim plants
            assert text_a and not text_a.startswith(" ") and not text_a.endswith(" ")

    def test_gold_spans_are_token_aligned_under_obfuscation(self):
        spec = small_spec(obfuscation="random", intensity=ObfuscationIntensity.uniform(0.3))
        corpus, gold = generate(spec)
        docs = {d.doi: normalize(d) for d in corpus}
        for ann in gold:
            (span,) = ann.spans
            for doi, begin, end in (
                (ann.doi_a, span.begin_a, span.end_a),
                (ann.doi_b, span.begin_b, span.end_b),
            ):
                doc = docs[doi]
                assert 0 <= begin < end <= doc.doc_length
                text = doc.normalized_text[begin:end]
                assert not text.startswith(" ") and not text.endswith(" ")
                spans = token_spans(doc)
                assert begin in {b for b, _ in spans} and end in {e for _, e in spans}

    def test_obfuscation_intensity_zero_equals_verbatim(self):
        spec = small_spec(obfuscation="random", intensity=ObfuscationIntensity())
        corpus, gold = generate(spec)
        docs = {d.doi: normalize(d) for d in corpus}
        for ann in gold:
            (span,) = ann.spans
            assert (
                docs[ann.doi_a].normalized_text[span.begin_a : span.end_a]
                == docs[ann.doi_b].normalized_text[span.begin_b : span.end_b]
            )

    def test_each_document_in_at_most_one_case(self):
        _, gold = generate(small_spec())
        participants = [doi for ann in gold for doi in (ann.doi_a, ann.doi_b)]
        assert len(participants) == len(set(participants))

    def test_verbatim_plants_contain_seedable_run(self):
        # passage >= 2 * ngram_size guarantees a verbatim window survives
        corpus, gold = generate(small_spec(passage_tokens=(16, 24)))
        docs = {d.doi: normalize(d) for d in corpus}
        for ann in gold:
            (span,) = ann.spans
            planted = docs[ann.doi_b].normalized_text[span.begin_b : span.end_b]
            assert planted in docs[ann.doi_a].normalized_text

    def test_recall_monotone_in_intensity(self):
        """Averaged over 20 seeds, alignment recall does not increase as
        uniform obfuscation intensity rises."""
        intensities = (0.0, 0.15, 0.3, 0.5)
        mean_recalls = []
        for level in intensities:
            recalls = []
            for seed in range(20):
                spec = GenSpec(
                    doc_count=12,
                    doc_tokens=(250, 350),
                    vocab_size=3000,
                    case_count=4,
                    passage_tokens=(32, 48),
                    obfuscation="random",
                    intensity=ObfuscationIntensity.uniform(level),
                    seed=1000 + seed,
                )
                corpus, gold = generate(spec)
                _, cases = detect_cases(corpus)
                _, recall = char_precision_recall(gold, cases)
                recalls.append(recall)
            mean_recalls.append(sum(recalls) / len(recalls))
        assert all(
            mean_recalls[i + 1] <= mean_recalls[i] + 1e-9 for i in range(len(mean_recalls) - 1)
        )
        assert mean_recalls[0] > 0.9
        assert mean_recalls[-1] < 0.2
