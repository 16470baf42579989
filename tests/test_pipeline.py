import itertools
import json
import logging
import math
import multiprocessing
import os
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import textreuse.alignment as alignment
import textreuse.pipeline as pipeline
from textreuse.alignment import align_pair, case_namespace
from textreuse.ingest import RawDocument, document_record, normalize
from textreuse.jsonl import write_jsonl
from textreuse.pipeline import (
    CheckpointMismatch,
    PipelineError,
    RunConfig,
    run_alignment,
    run_pipeline,
    summarize_cases,
)
from textreuse.retrieval import (
    CandidatePair,
    build_index,
    read_candidates,
    sketch_corpus,
    write_candidates,
)
from textreuse.synthgen import GenSpec, generate

from conftest import alpha_words, doc_from_tokens


def write_corpus(path, raw_docs):
    write_jsonl(path, (document_record(d) for d in raw_docs))


def synthetic_corpus_file(tmp_path, name="corpus.jsonl", seed=5, case_count=3):
    spec = GenSpec(
        doc_count=12,
        doc_tokens=(250, 400),
        vocab_size=3000,
        case_count=case_count,
        passage_tokens=(32, 48),
        seed=seed,
    )
    corpus, gold = generate(spec)
    path = tmp_path / name
    write_corpus(path, corpus)
    return path, corpus, gold


def base_config(corpus_path, out_dir, **overrides):
    values = dict(
        input=str(corpus_path),
        output_dir=str(out_dir),
        min_words=10,
        retrieval_mode="exact",
        workers=1,
        seed=3,
    )
    values.update(overrides)
    return RunConfig(**values)


def shared_paragraph_corpus(tmp_path):
    """Two documents sharing one paragraph at known token offsets."""
    paragraph = alpha_words("sh", 30)
    tokens_a = alpha_words("qa", 60) + paragraph + alpha_words("qc", 40)
    tokens_b = alpha_words("zb", 25) + paragraph + alpha_words("zd", 70)
    path = tmp_path / "pair.jsonl"
    write_jsonl(
        path,
        [
            {"doi": "doc-a", "text": " ".join(tokens_a), "year": 1999, "field": ["biology"]},
            {"doi": "doc-b", "text": " ".join(tokens_b)},
        ],
    )

    def span(tokens, start, count):
        begin = sum(len(t) for t in tokens[:start]) + start
        inner = sum(len(t) for t in tokens[start : start + count]) + count - 1
        return begin, begin + inner

    return path, span(tokens_a, 60, 30), span(tokens_b, 25, 30)


class TestRunPipeline:
    def test_shared_paragraph_single_case_with_contexts(self, tmp_path):
        corpus_path, span_a, span_b = shared_paragraph_corpus(tmp_path)
        config = base_config(corpus_path, tmp_path / "out")
        result = run_pipeline(config)
        records = [json.loads(line) for line in result.cases_path.read_text().splitlines()]
        assert len(records) == 1
        record = records[0]
        assert (record["begin_a"], record["end_a"]) == span_a
        assert (record["begin_b"], record["end_b"]) == span_b
        assert len(record["before_a"]) == 100
        assert len(record["after_a"]) == 100
        assert record["text_a"] == record["text_b"]
        assert record["year_a"] == 1999 and record["field_a"] == ["biology"]
        assert record["year_b"] is None and record["field_b"] == []
        assert result.manifest["counts"]["cases"] == 1

    def test_disjoint_corpus_no_candidates_no_cases(self, tmp_path):
        path = tmp_path / "disjoint.jsonl"
        write_jsonl(
            path,
            [
                {"doi": "doc-a", "text": " ".join(alpha_words("qa", 120))},
                {"doi": "doc-b", "text": " ".join(alpha_words("zb", 120))},
            ],
        )
        result = run_pipeline(base_config(path, tmp_path / "out"))
        counts = result.manifest["counts"]
        assert counts["candidate_pairs"] == 0
        assert counts["cases"] == 0
        assert counts["pruning_ratio"] == 1.0
        assert result.cases_path.read_text() == ""

    def test_manifest_counts_and_pruning_ratio(self, tmp_path):
        corpus_path, corpus, gold = synthetic_corpus_file(tmp_path)
        result = run_pipeline(base_config(corpus_path, tmp_path / "out"))
        counts = result.manifest["counts"]
        assert counts["documents_loaded"] == len(corpus)
        assert counts["documents_used"] == len(corpus)
        assert counts["documents_filtered"] == 0
        total = math.comb(len(corpus), 2)
        assert counts["pruning_ratio"] == pytest.approx(
            1 - counts["candidate_pairs"] / total, abs=1e-6
        )
        assert counts["cases"] >= len(gold)

    def test_length_filter_wiring(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        write_jsonl(
            path,
            [
                {"doi": "doc-a", "text": " ".join(alpha_words("qa", 120))},
                {"doi": "doc-b", "text": "too short"},
            ],
        )
        result = run_pipeline(base_config(path, tmp_path / "out", min_words=50))
        counts = result.manifest["counts"]
        assert counts["documents_loaded"] == 2
        assert counts["documents_filtered"] == 1
        assert counts["documents_used"] == 1

    def test_reruns_are_byte_identical(self, tmp_path):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path)
        first = run_pipeline(base_config(corpus_path, tmp_path / "one"))
        second = run_pipeline(base_config(corpus_path, tmp_path / "two"))
        for name in ("cases_path", "publications_path", "stats_path", "manifest_path"):
            path_one = getattr(first, name)
            path_two = getattr(second, name)
            if name == "manifest_path":
                # output_dir differs inside the manifest config; compare counts
                assert first.manifest["counts"] == second.manifest["counts"]
                continue
            assert path_one.read_bytes() == path_two.read_bytes()

    def test_worker_count_does_not_change_output(self, tmp_path):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path, case_count=4)
        serial = run_pipeline(base_config(corpus_path, tmp_path / "serial", workers=1))
        parallel = run_pipeline(base_config(corpus_path, tmp_path / "parallel", workers=3))
        assert serial.cases_path.read_bytes() == parallel.cases_path.read_bytes()
        assert serial.publications_path.read_bytes() == parallel.publications_path.read_bytes()

    def test_metadata_only_is_full_minus_text_fields(self, tmp_path):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path)
        full = run_pipeline(base_config(corpus_path, tmp_path / "full", output_mode="full"))
        meta = run_pipeline(
            base_config(corpus_path, tmp_path / "meta", output_mode="metadata-only")
        )
        text_fields = {"text_a", "before_a", "after_a", "text_b", "before_b", "after_b"}
        full_records = [json.loads(line) for line in full.cases_path.read_text().splitlines()]
        meta_records = [json.loads(line) for line in meta.cases_path.read_text().splitlines()]
        assert len(full_records) == len(meta_records)
        for full_record, meta_record in zip(full_records, meta_records):
            stripped = {k: v for k, v in full_record.items() if k not in text_fields}
            assert stripped == meta_record

    def test_resume_after_retrieval_matches_uninterrupted_run(self, tmp_path):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path)
        fresh = run_pipeline(base_config(corpus_path, tmp_path / "fresh"))

        checkpoint = tmp_path / "ckpt"
        interrupted_config = base_config(
            corpus_path, tmp_path / "resumed", checkpoint_dir=str(checkpoint)
        )
        partial = run_pipeline(interrupted_config, stop_after="retrieve")
        assert partial.cases_path is None
        assert (checkpoint / "candidates.tsv").exists()

        resumed = run_pipeline(interrupted_config)
        assert resumed.cases_path.read_bytes() == fresh.cases_path.read_bytes()
        assert resumed.stats_path.read_bytes() == fresh.stats_path.read_bytes()

    def test_checkpoint_mismatch_refused(self, tmp_path):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path)
        checkpoint = tmp_path / "ckpt"
        config = base_config(corpus_path, tmp_path / "out", checkpoint_dir=str(checkpoint))
        run_pipeline(config, stop_after="retrieve")
        changed = base_config(
            corpus_path,
            tmp_path / "out2",
            checkpoint_dir=str(checkpoint),
            min_shared_terms=5,
        )
        with pytest.raises(CheckpointMismatch):
            run_pipeline(changed)

    def test_checkpoint_invalidated_by_corpus_change(self, tmp_path):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path)
        checkpoint = tmp_path / "ckpt"
        config = base_config(corpus_path, tmp_path / "out", checkpoint_dir=str(checkpoint))
        run_pipeline(config, stop_after="retrieve")
        with open(corpus_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"doi": "extra", "text": " ".join(alpha_words("xx", 60))}) + "\n")
        with pytest.raises(CheckpointMismatch):
            run_pipeline(config)

    def test_candidate_write_dying_partway_is_not_resumed(self, tmp_path, monkeypatch):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path)
        checkpoint = tmp_path / "ckpt"
        config = base_config(corpus_path, tmp_path / "out", checkpoint_dir=str(checkpoint))
        first = run_pipeline(config)
        candidates = (checkpoint / "candidates.tsv").read_bytes()
        assert first.manifest["counts"]["candidate_pairs"] >= 2
        (checkpoint / "candidates.tsv").unlink()  # the state file stays behind

        real_retrieval = pipeline.run_retrieval

        def retrieval_with_unwritable_pair(*args, **kwargs):
            pairs = real_retrieval(*args, **kwargs)
            middle = pairs[len(pairs) // 2]
            return pairs + [_UnwritablePair(middle.doi_a, middle.doi_b)]

        monkeypatch.setattr(pipeline, "run_retrieval", retrieval_with_unwritable_pair)
        with pytest.raises(OSError):
            run_pipeline(config)
        monkeypatch.undo()

        rerun = run_pipeline(config)
        assert (checkpoint / "candidates.tsv").read_bytes() == candidates
        assert rerun.manifest == first.manifest
        assert rerun.cases_path.read_bytes() == first.cases_path.read_bytes()
        assert sorted(p.name for p in checkpoint.iterdir()) == ["candidates.tsv", "retrieval.json"]

    def test_candidates_without_state_file_are_recomputed(self, tmp_path, monkeypatch):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path)
        checkpoint = tmp_path / "ckpt"
        config = base_config(corpus_path, tmp_path / "out", checkpoint_dir=str(checkpoint))
        expected = run_pipeline(config, stop_after="retrieve").manifest
        (checkpoint / "candidates.tsv").unlink()

        # a run under another configuration dies between its candidates and its state file
        def no_state(path):
            raise OSError("disk full")

        monkeypatch.setattr(pipeline, "atomic_open", no_state)
        with pytest.raises(OSError):
            run_pipeline(
                base_config(corpus_path, tmp_path / "out", checkpoint_dir=str(checkpoint), min_shared_terms=3)
            )
        monkeypatch.undo()
        assert not (checkpoint / "retrieval.json").exists()

        assert run_pipeline(config, stop_after="retrieve").manifest == expected

    def test_invalid_config_rejected(self, tmp_path):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path)
        with pytest.raises(ValueError):
            run_pipeline(base_config(corpus_path, tmp_path / "out", retrieval_mode="psychic"))

    def test_empty_document_survives_unfiltered_run(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        write_jsonl(
            path,
            [
                {"doi": "doc-a", "text": ""},
                {"doi": "doc-b", "text": " ".join(alpha_words("qa", 120))},
            ],
        )
        result = run_pipeline(base_config(path, tmp_path / "out", min_words=0))
        assert result.manifest["counts"]["documents_used"] == 2
        assert result.manifest["counts"]["cases"] == 0


class TestManifestAlignmentCounters:
    def test_shared_paragraph(self, tmp_path):
        corpus_path, _, _ = shared_paragraph_corpus(tmp_path)
        counts = run_pipeline(base_config(corpus_path, tmp_path / "out")).manifest["counts"]
        assert counts["documents_hashed"] == 2
        assert counts["pairs_with_cases"] == 1
        assert counts["cases"] == 1

    def test_synthetic_corpus(self, tmp_path):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path)
        config = base_config(corpus_path, tmp_path / "out", checkpoint_dir=str(tmp_path / "ckpt"))
        result = run_pipeline(config)
        counts = result.manifest["counts"]
        records = [json.loads(line) for line in result.cases_path.read_text().splitlines()]
        pairs = read_candidates(result.candidates_path)
        assert counts["pairs_with_cases"] == len({(r["doi_a"], r["doi_b"]) for r in records}) > 0
        assert counts["documents_hashed"] == len({doi for pair in pairs for doi in pair.key})


class TestManifestRetrievalCounters:
    def test_minhash_counts_match_the_index(self, tmp_path):
        corpus_path, corpus, _ = synthetic_corpus_file(tmp_path)
        config = base_config(
            corpus_path,
            tmp_path / "out",
            retrieval_mode="minhash",
            df_cap=1,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        result = run_pipeline(config)
        docs = [normalize(raw) for raw in corpus]
        sketches = sketch_corpus(docs, config.passage_size, config.num_hashes, config.seed)
        index = build_index(sketches, config.df_cap)
        counts = json.loads(result.manifest_path.read_text())["counts"]
        assert counts["hash_postings"] == len(index.postings) > 0
        assert counts["dropped_hashes"] == index.dropped_hashes > 0

        config.output_dir = str(tmp_path / "resumed")
        assert run_pipeline(config).manifest["counts"] == counts


class TestManifestIngestAndExactCounters:
    def test_tokens_passages_and_terms(self, tmp_path):
        corpus_path, corpus, _ = synthetic_corpus_file(tmp_path)
        config = base_config(corpus_path, tmp_path / "out", checkpoint_dir=str(tmp_path / "ckpt"))
        result = run_pipeline(config)
        docs = [normalize(raw) for raw in corpus]
        counts = json.loads(result.manifest_path.read_text())["counts"]
        assert counts["tokens"] == sum(len(doc.tokens) for doc in docs) > 0
        assert counts["passages"] == sum(math.ceil(len(doc.tokens) / config.passage_size) for doc in docs)
        assert counts["terms"] == len({t for doc in docs for t in doc.tokens})
        assert "hash_postings" not in counts

        config.output_dir = str(tmp_path / "resumed")
        assert run_pipeline(config).manifest["counts"] == counts

    def test_tokens_count_only_documents_used(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        write_jsonl(
            path,
            [
                {"doi": "doc-a", "text": " ".join(alpha_words("qa", 120))},
                {"doi": "doc-b", "text": "too short"},
            ],
        )
        counts = run_pipeline(base_config(path, tmp_path / "out", min_words=50)).manifest["counts"]
        assert counts["tokens"] == 120

    def test_corpus_is_read_once(self, tmp_path, monkeypatch):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path)
        opened = []
        real_open = open

        def recording_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", recording_open)
        run_pipeline(base_config(corpus_path, tmp_path / "out", checkpoint_dir=str(tmp_path / "ckpt")))
        assert opened.count(str(corpus_path)) == 1


class TestAtomicOutputs:
    def _failing_case_record(self, monkeypatch):
        real = pipeline.case_record
        calls = []

        def failing(case, include_text):
            calls.append(case)
            if len(calls) == 2:
                return {"id": case.id, "unserializable": object()}
            return real(case, include_text)

        monkeypatch.setattr(pipeline, "case_record", failing)
        return calls

    def test_failed_case_write_leaves_no_cases_and_no_manifest(self, tmp_path, monkeypatch):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path, case_count=4)
        out = tmp_path / "out"
        calls = self._failing_case_record(monkeypatch)
        with pytest.raises(TypeError):
            run_pipeline(base_config(corpus_path, out))
        assert len(calls) == 2
        assert sorted(p.name for p in out.iterdir()) == []

    def test_failed_rerun_removes_the_old_manifest(self, tmp_path, monkeypatch):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path, case_count=4)
        out = tmp_path / "out"
        first = run_pipeline(base_config(corpus_path, out))
        assert first.manifest_path.exists()
        self._failing_case_record(monkeypatch)
        with pytest.raises(TypeError):
            run_pipeline(base_config(corpus_path, out))
        assert not (out / "manifest.json").exists()
        assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]


class _UnwritablePair:
    """Sorts with the candidate pair of the same key; fails when written."""

    def __init__(self, doi_a, doi_b):
        self.doi_a, self.doi_b = doi_a, doi_b
        self.key = (doi_a, doi_b)

    @property
    def evidence(self):
        raise OSError("disk full")


def alignment_config(**overrides):
    values = dict(input="unused", output_dir="unused", ngram_size=3, ngram_overlap=2, max_gap=20, min_seeds=1)
    values.update(overrides)
    return RunConfig(**values)


def align_loop(docs, pairs, config):
    """Oracle: align_pair over the candidate pairs, one by one, in key order."""
    by_doi = {doc.doi: doc for doc in docs}
    namespace = case_namespace(config.seed)
    cases = [
        case
        for pair in sorted(pairs, key=lambda p: p.key)
        for case in align_pair(by_doi[pair.doi_a], by_doi[pair.doi_b], config.alignment_params(), namespace)
    ]
    return sorted(cases, key=lambda c: (c.doi_a, c.doi_b, c.begin_a, c.begin_b))


def small_vocab_docs(rng, count, length=60, vocab_size=5):
    vocab = alpha_words("v", vocab_size)
    return [
        doc_from_tokens([rng.choice(vocab) for _ in range(length)], doi=f"d{k}")
        for k in range(count)
    ]


def all_pairs(docs):
    return [CandidatePair(a.doi, b.doi) for a, b in itertools.combinations(docs, 2)]


class TestRunAlignment:
    def test_each_involved_document_hashed_once(self, monkeypatch):
        involved = small_vocab_docs(random.Random(3), 4)
        outsider = doc_from_tokens(alpha_words("zz", 60), doi="z-outsider")
        pairs = all_pairs(involved)  # every involved document is in three pairs
        hashed = []
        real_hash = alignment.ngram_hash

        def counting_hash(tokens):
            hashed.append(tuple(tokens))
            return real_hash(tokens)

        monkeypatch.setattr(alignment, "ngram_hash", counting_hash)
        counts = {}
        cases = run_alignment(involved + [outsider], pairs, alignment_config(workers=1), counts)
        windows = sum(len(doc.tokens) - 3 + 1 for doc in involved)  # 3-grams at stride 1
        assert cases
        assert len(hashed) == windows  # not 2 * len(pairs) * 58
        assert not any(window[0].startswith("zz") for window in hashed)
        assert counts == {"documents_hashed": 4}

    def test_constant_hash_gives_the_same_cases(self, monkeypatch):
        docs = small_vocab_docs(random.Random(5), 4, length=40)
        pairs = all_pairs(docs)
        config = alignment_config(workers=1)
        expected = run_alignment(docs, pairs, config)
        assert expected
        monkeypatch.setattr(alignment, "ngram_hash", lambda tokens: 0)
        assert run_alignment(docs, pairs, config) == expected

    @pytest.mark.parametrize("workers", [1, 2])
    def test_consecutive_runs_do_not_share_state(self, workers):
        config = alignment_config(workers=workers)
        # Same dois, different texts: stale tables would give the first run's cases.
        first = small_vocab_docs(random.Random(1), 4)
        second = small_vocab_docs(random.Random(2), 4)
        first_cases = run_alignment(first, all_pairs(first), config)
        second_cases = run_alignment(second, all_pairs(second), config)
        assert first_cases == align_loop(first, all_pairs(first), config)
        assert second_cases == align_loop(second, all_pairs(second), config)
        assert first_cases != second_cases

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_matches_align_pair_loop_at_one_and_two_workers(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1), label="corpus seed")
        docs = small_vocab_docs(
            random.Random(seed),
            data.draw(st.integers(2, 6), label="documents"),
            length=data.draw(st.integers(0, 50), label="tokens"),
            vocab_size=data.draw(st.integers(4, 8), label="vocab size"),
        )
        candidates = all_pairs(docs)
        pairs = data.draw(st.lists(st.sampled_from(candidates), unique=True), label="pairs")
        size = data.draw(st.integers(1, 4), label="ngram_size")
        overlap = data.draw(st.integers(0, size - 1), label="ngram_overlap")
        config = alignment_config(ngram_size=size, ngram_overlap=overlap, workers=1)
        expected = align_loop(docs, pairs, config)
        assert run_alignment(docs, pairs, config) == expected
        config.workers = 2
        assert run_alignment(docs, pairs, config) == expected


class TestCandidateSpill:
    def test_round_trip(self, tmp_path):
        pairs = [CandidatePair("a", "b", 3), CandidatePair("a", "c", 1)]
        path = tmp_path / "cand.tsv"
        write_candidates(path, pairs)
        assert path.read_text() == "a\tb\t3\na\tc\t1\n"
        assert read_candidates(path) == pairs

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "cand.tsv"
        path.write_text("a\tb\n")
        with pytest.raises(ValueError):
            read_candidates(path)


# Pool workers see the patched pipeline.align_pair only when they are forked.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork", reason="workers are not forked"
)


class TestAlignmentFailures:
    def _broken_align(self, monkeypatch):
        calls = []

        def broken(*args, **kwargs):
            calls.append(os.getpid())
            raise RuntimeError("boom")

        monkeypatch.setattr(pipeline, "align_pair", broken)
        return calls

    def test_error_is_raised_once_naming_the_pair_range(self, monkeypatch):
        docs = small_vocab_docs(random.Random(3), 4)
        calls = self._broken_align(monkeypatch)
        with pytest.raises(PipelineError, match=re.escape("d0/d1 .. d0/d2")) as info:
            run_alignment(docs, all_pairs(docs), alignment_config(workers=1))
        assert calls == [os.getpid()]
        assert str(info.value.__cause__) == "boom"

    @needs_fork
    def test_worker_error_is_not_rerun_in_this_process(self, monkeypatch, caplog):
        docs = small_vocab_docs(random.Random(3), 4)
        calls = self._broken_align(monkeypatch)
        with pytest.raises(PipelineError, match=re.escape("d0/d1 .. d0/d1")):
            run_alignment(docs, all_pairs(docs), alignment_config(workers=2))
        assert calls == []
        assert not any("retrying" in r.message for r in caplog.records)

    @needs_fork
    def test_worker_dying_mid_batch_gives_the_serial_cases(self, tmp_path, monkeypatch, caplog):
        raw = [
            RawDocument(doi=doc.doi, text=doc.normalized_text)
            for doc in small_vocab_docs(random.Random(4), 6, length=40, vocab_size=6)
        ]
        write_corpus(tmp_path / "corpus.jsonl", raw)
        config = dict(min_shared_terms=1, ngram_size=3, ngram_overlap=2, min_seeds=1)
        serial = run_pipeline(base_config(tmp_path / "corpus.jsonl", tmp_path / "serial", **config))

        parent = os.getpid()
        real_align = pipeline.align_pair
        worker_calls = []

        def dying_align(*args, **kwargs):
            if os.getpid() != parent:
                worker_calls.append(1)
                if len(worker_calls) == 2:  # a worker's second pair, inside its first batch
                    os._exit(1)
            return real_align(*args, **kwargs)

        monkeypatch.setattr(pipeline, "align_pair", dying_align)
        with caplog.at_level(logging.WARNING):
            pooled = run_pipeline(
                base_config(tmp_path / "corpus.jsonl", tmp_path / "pooled", workers=2, **config)
            )
        assert pooled.manifest["counts"]["candidate_pairs"] == 15
        assert any("retrying" in r.message for r in caplog.records)
        assert pooled.cases_path.read_bytes() == serial.cases_path.read_bytes()
        assert serial.manifest["counts"]["cases"] > 0


class TestStats:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        path.write_text("")
        summary = summarize_cases(path)
        assert summary["cases"] == 0
        assert summary["malformed"] == 0
        assert summary["by_field"] == {}

    def _record(self, doi_a="a", doi_b="b", begin_a=0, end_a=120, begin_b=10, end_b=130, **extra):
        record = {
            "id": "x",
            "begin_a": begin_a,
            "end_a": end_a,
            "doc_length_a": 1000,
            "doi_a": doi_a,
            "year_a": 1999,
            "field_a": ["biology"],
            "area_a": [],
            "discipline_a": [],
            "begin_b": begin_b,
            "end_b": end_b,
            "doc_length_b": 1000,
            "doi_b": doi_b,
            "year_b": 2001,
            "field_b": ["physics"],
            "area_b": [],
            "discipline_b": [],
        }
        record.update(extra)
        return record

    def test_handcrafted_counts(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        write_jsonl(
            path,
            [
                self._record(doi_a="a", doi_b="b"),
                self._record(doi_a="a", doi_b="c", field_b=["biology"]),
                self._record(doi_a="b", doi_b="c", field_a=["physics"], year_a=2001),
            ],
        )
        summary = summarize_cases(path)
        assert summary["cases"] == 3
        assert summary["by_field"] == {"biology": 3, "physics": 3}
        assert summary["by_year"] == {"1999": 2, "2001": 4}
        # a<->b, a<->c, b<->c: every document touches two partners
        assert summary["pairs_per_document"] == {"2": 3}
        assert summary["case_length_hist"] == {"100": 6}

    def test_totals_equal_records_minus_malformed(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self._record()) + "\n")
            fh.write("{broken\n")
            fh.write(json.dumps(self._record(doi_a="x", doi_b="y")) + "\n")
            fh.write(json.dumps({"id": "bad", "begin_a": 5}) + "\n")
        summary = summarize_cases(path)
        assert summary["cases"] == 2
        assert summary["malformed"] == 2
        total_lines = 4
        assert summary["cases"] == total_lines - summary["malformed"]
