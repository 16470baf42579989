"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines. Criterion 2 (external benchmark corpus) is conditional: it
runs only when TEXTREUSE_PAN13 points at the corpus directory, and criteria
3-8 stand in otherwise.
"""

import gc
import json
import math
import os
import random
import time

import pytest

from textreuse.alignment import align_pair, case_from_record, seed_matches
from textreuse.ingest import document_record, normalize
from textreuse.jsonl import write_jsonl
from textreuse.metrics import char_precision_recall, evaluate_cases, f_beta
from textreuse.pipeline import RunConfig, run_pipeline, run_retrieval
from textreuse.retrieval import MinHasher, retrieve_candidates_exact
from textreuse.synthgen import GenSpec, ObfuscationIntensity, generate

from conftest import alpha_words, detect_cases
from test_alignment import Seed, brute_force_extend, brute_force_seeds
from textreuse.alignment import extend


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def write_corpus(tmp_path, corpus, name="corpus.jsonl"):
    path = tmp_path / name
    write_jsonl(path, (document_record(d) for d in corpus))
    return path


def read_cases(path):
    return [case_from_record(json.loads(line)) for line in path.read_text().splitlines()]


def test_criterion_1_fscore_arithmetic():
    rows = [
        (0.93, 0.46, 0.77),
        (0.90, 0.11, 0.37),
        (0.99, 0.10, 0.36),
        (0.88, 0.16, 0.46),
    ]
    start = time.perf_counter()
    deltas = [abs(f_beta(p, r, 0.5) - expected) for p, r, expected in rows]
    elapsed_ms = (time.perf_counter() - start) * 1000
    ok = all(d <= 0.005 for d in deltas)
    assert report(
        1, ok, f"published F0.5 rows reproduced, max|delta|={max(deltas):.4f} ({elapsed_ms:.2f} ms)"
    )


@pytest.mark.skipif(
    not os.environ.get("TEXTREUSE_PAN13") or not os.path.isdir(os.environ.get("TEXTREUSE_PAN13", "")),
    reason="external benchmark corpus not available (set TEXTREUSE_PAN13); criteria 3-8 stand in",
)
def test_criterion_2_benchmark_reproduction():
    from textreuse.pan import load_pan_corpus

    raw_docs, gold = load_pan_corpus(os.environ["TEXTREUSE_PAN13"])
    docs = {d.doi: normalize(d) for d in raw_docs}
    detected = []
    for ann in gold:
        detected.extend(align_pair(docs[ann.doi_a], docs[ann.doi_b]))
    eval_report = evaluate_cases(gold, detected)
    precision, recall = eval_report.overall.precision, eval_report.overall.recall
    f_score = eval_report.overall.f_score
    per_strategy_ok = all(
        row.precision >= 0.85 for row in eval_report.by_strategy if row.detection_count
    )
    ok = (
        precision >= 0.90
        and abs(recall - 0.46) <= 0.06
        and abs(f_score - 0.77) <= 0.04
        and per_strategy_ok
    )
    assert report(2, ok, f"benchmark P={precision:.2f} R={recall:.2f} F0.5={f_score:.2f}")


def test_criterion_3_synthetic_no_obfuscation(tmp_path):
    spec = GenSpec(
        doc_count=200,
        doc_tokens=(1000, 2000),
        vocab_size=10000,
        case_count=50,
        passage_tokens=(32, 48),
        seed=301,
    )
    corpus, gold = generate(spec)
    assert len(gold) == 50
    corpus_path = write_corpus(tmp_path, corpus)
    config = RunConfig(
        input=str(corpus_path),
        output_dir=str(tmp_path / "out"),
        retrieval_mode="exact",
        workers=1,
        seed=3,
    )
    result = run_pipeline(config)
    counts = result.manifest["counts"]
    assert counts["documents_used"] == 200  # all docs pass the 1000-word floor
    precision, recall = char_precision_recall(gold, read_cases(result.cases_path))
    ok = recall >= 0.90 and precision >= 0.88 and counts["pruning_ratio"] >= 0.8
    assert report(
        3,
        ok,
        f"no-obfuscation suite P={precision:.3f} (>=0.88) R={recall:.3f} (>=0.90) "
        f"pruning={counts['pruning_ratio']:.4f} (>=0.8)",
    )


def test_criterion_4_obfuscation_degradation():
    def run_regime(level, seed):
        spec = GenSpec(
            doc_count=40,
            doc_tokens=(800, 1200),
            vocab_size=8000,
            case_count=10,
            passage_tokens=(32, 48),
            obfuscation="random",
            intensity=ObfuscationIntensity.uniform(level),
            seed=seed,
        )
        corpus, gold = generate(spec)
        _, cases = detect_cases(corpus)
        return char_precision_recall(gold, cases)

    seeds = range(5000, 5020)  # 20 seeds
    plain = [run_regime(0.0, s) for s in seeds]
    obfuscated = [run_regime(0.3, s) for s in seeds]
    mean = lambda xs: sum(xs) / len(xs)
    plain_recall = mean([r for _, r in plain])
    obf_recall = mean([r for _, r in obfuscated])
    obf_precision = mean([p for p, _ in obfuscated])
    ok = obf_recall < plain_recall and obf_precision >= 0.85
    assert report(
        4,
        ok,
        f"recall {plain_recall:.3f} -> {obf_recall:.3f} under intensity 0.3; "
        f"precision {obf_precision:.3f} (>=0.85); 20 seeds",
    )


def test_criterion_5_pruning_soundness():
    corpora = 50
    violations = 0
    checked_pairs = 0
    for seed in range(corpora):
        spec = GenSpec(
            doc_count=12,
            doc_tokens=(250, 400),
            vocab_size=3000,
            case_count=3,
            passage_tokens=(16, 40),
            seed=9000 + seed,
        )
        corpus, _ = generate(spec)
        docs = [normalize(d) for d in corpus]
        candidates = {p.key for p in retrieve_candidates_exact(docs, 50, 1)}
        for i in range(len(docs)):
            for j in range(i + 1, len(docs)):
                doc_a, doc_b = sorted((docs[i], docs[j]), key=lambda d: d.doi)
                if align_pair(doc_a, doc_b):
                    checked_pairs += 1
                    if (doc_a.doi, doc_b.doi) not in candidates:
                        violations += 1
    ok = violations == 0 and checked_pairs >= corpora
    assert report(
        5,
        ok,
        f"exact mode (min_shared_terms=1) contains all {checked_pairs} aligning pairs "
        f"across {corpora} corpora; violations={violations}",
    )


def test_criterion_6_pruning_effectiveness():
    spec = GenSpec(
        doc_count=500,
        doc_tokens=(1000, 1500),
        vocab_size=20000,
        case_count=50,  # 0.04% of pairs, under the 1% ceiling
        passage_tokens=(32, 48),
        seed=606,
    )
    corpus, gold = generate(spec)
    docs = [normalize(d) for d in corpus]
    pairs = retrieve_candidates_exact(docs, 50, 9)
    total = math.comb(len(docs), 2)
    fraction = len(pairs) / total
    gold_keys = {(g.doi_a, g.doi_b) for g in gold}
    recalled = gold_keys <= {p.key for p in pairs}
    ok = fraction <= 0.20 and recalled
    assert report(
        6,
        ok,
        f"candidates {len(pairs)}/{total} = {fraction:.4%} of pairs (<=20%); "
        f"pruning ratio {1 - fraction:.4f}; all planted pairs retained={recalled}",
    )


def test_criterion_7_minhash_estimator():
    hasher = MinHasher(num_hashes=2000, seed=77)
    worst = 0.0
    set_size = 50
    for k in range(100):
        target = 0.05 + 0.90 * k / 99
        shared = round(2 * set_size * target / (1 + target))
        shared = min(max(shared, 1), set_size)
        common = [f"pair{k}common{i}" for i in range(shared)]
        set_a = frozenset(common + [f"pair{k}lefty{i}" for i in range(set_size - shared)])
        set_b = frozenset(common + [f"pair{k}right{i}" for i in range(set_size - shared)])
        exact = len(set_a & set_b) / len(set_a | set_b)
        agreement = float((hasher.values(set_a) == hasher.values(set_b)).mean())
        worst = max(worst, abs(agreement - exact))
    ok = worst <= 0.05
    assert report(
        7, ok, f"per-hash collision frequency within +-{worst:.4f} of Jaccard over 100 pairs x 2000 fns"
    )


def test_criterion_8_oracle_equivalence():
    rng = random.Random(88)
    vocab = alpha_words("v", 12)

    seed_mismatches = 0
    for _ in range(100):
        from conftest import doc_from_tokens

        doc_a = doc_from_tokens(
            [rng.choice(vocab) for _ in range(rng.randint(20, 60))], doi="a"
        )
        doc_b = doc_from_tokens(
            [rng.choice(vocab) for _ in range(rng.randint(20, 60))], doi="b"
        )
        size = rng.choice([3, 4])
        if seed_matches(doc_a, doc_b, size, size - 1) != brute_force_seeds(doc_a, doc_b, size):
            seed_mismatches += 1

    extend_mismatches = 0
    for _ in range(100):
        seeds = [
            Seed(
                (a := rng.randrange(0, 1500), a + rng.randint(5, 60)),
                (b := rng.randrange(0, 1500), b + rng.randint(5, 60)),
            )
            for _ in range(rng.randint(0, 30))
        ]
        max_gap = rng.choice([50, 120, 250])
        min_seeds = rng.choice([1, 2, 3])
        if extend(seeds, max_gap, min_seeds) != brute_force_extend(seeds, max_gap, min_seeds):
            extend_mismatches += 1

    ok = seed_mismatches == 0 and extend_mismatches == 0
    assert report(
        8,
        ok,
        f"seed_matches == n-gram cross-product oracle on 100 pairs "
        f"(mismatches={seed_mismatches}); extend == connected-components oracle "
        f"on 100 seed sets (mismatches={extend_mismatches})",
    )


def test_criterion_9_determinism_and_scaling(tmp_path):
    # determinism across reruns and worker counts
    spec = GenSpec(
        doc_count=30,
        doc_tokens=(400, 600),
        vocab_size=5000,
        case_count=8,
        passage_tokens=(32, 48),
        seed=909,
    )
    corpus, _ = generate(spec)
    corpus_path = write_corpus(tmp_path, corpus)

    def run(workers, tag):
        config = RunConfig(
            input=str(corpus_path),
            output_dir=str(tmp_path / tag),
            min_words=10,
            retrieval_mode="exact",
            workers=workers,
            seed=3,
        )
        return run_pipeline(config).cases_path.read_bytes()

    outputs = [run(1, "w1a"), run(1, "w1b"), run(2, "w2"), run(4, "w4")]
    deterministic = all(blob == outputs[0] for blob in outputs[1:])

    # retrieval+indexing wall time scaling at doubled corpus size, fixed
    # per-document reuse density (vocabulary grows with the corpus)
    def timed_retrieval(n_docs, seed):
        gen = GenSpec(
            doc_count=n_docs,
            doc_tokens=(900, 1100),
            vocab_size=300 * n_docs,
            case_count=n_docs // 10,
            passage_tokens=(32, 48),
            seed=seed,
        )
        docs = [normalize(d) for d in generate(gen)[0]]
        config = RunConfig(input="x", output_dir="y", retrieval_mode="minhash", seed=7)
        run_retrieval(docs, config)  # warm allocator and caches off the clock
        best = float("inf")
        for _ in range(5):
            gc.collect()
            gc.disable()
            start = time.perf_counter()
            run_retrieval(docs, config)
            best = min(best, time.perf_counter() - start)
            gc.enable()
        return best

    time_small = timed_retrieval(500, 1)
    time_large = timed_retrieval(1000, 2)
    ratio = time_large / time_small
    scales = ratio <= 2.5
    ok = deterministic and scales
    # Three decimals and the verdict, so the line decides a ratio near 2.5.
    assert report(
        9,
        ok,
        f"byte-identical output at workers 1/1/2/4: {deterministic}; "
        f"retrieval+indexing time x{ratio:.3f} at doubled corpus (<=2.5: {'pass' if scales else 'FAIL'})",
    )
