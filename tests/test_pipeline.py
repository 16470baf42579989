import itertools
import json
import logging
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import textreuse.pipeline as pipeline
from textreuse.alignment import align_pair, case_namespace
from textreuse.ingest import Document, document_record, load_corpus_report, normalize, raw_token_runs
from textreuse.jsonl import read_jsonl, write_json, write_jsonl
from textreuse.pan import raw_span_to_normalized
from textreuse.pipeline import (
    CHECKPOINT_STATE_FILE,
    CheckpointMismatch,
    PipelineError,
    RunConfig,
    run_alignment,
    run_pipeline,
    summarize_cases,
)
from textreuse.retrieval import (
    RETRIEVAL_NGRAM_SIZE,
    CandidatePair,
    build_index,
    read_candidates,
    sketch_corpus,
    write_candidates,
)
from textreuse.synthgen import GenSpec, generate

from conftest import (
    alpha_words,
    constant_window_hashes,
    doc_from_tokens,
    exact_pair_visits,
    minhash_reference,
    ngram_holders,
    qualifying_passage_pairs,
    reference_normalize,
)


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


def without_timings(manifest):
    """The parts of a manifest that reruns reproduce: all but the stage timings."""
    return {key: value for key, value in manifest.items() if key != "timings"}


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

    def test_stage_timings_are_recorded_and_logged(self, tmp_path, caplog):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path)
        with caplog.at_level(logging.INFO, logger="textreuse.pipeline"):
            result = run_pipeline(base_config(corpus_path, tmp_path / "out"))
        timings = result.manifest["timings"]
        assert list(timings) == ["load_s", "retrieve_s", "align_s", "emit_s"]
        assert all(isinstance(seconds, float) and seconds >= 0 for seconds in timings.values())
        assert json.loads(result.manifest_path.read_text())["timings"] == timings
        logged = [record.getMessage() for record in caplog.records if record.name == "textreuse.pipeline"]
        for stage, seconds in timings.items():
            assert f"{stage} took {seconds:.3f} s" in logged

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

    def test_resume_after_retrieval_matches_uninterrupted_run(self, tmp_path, monkeypatch):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path)
        fresh = run_pipeline(base_config(corpus_path, tmp_path / "fresh"))

        checkpoint = tmp_path / "ckpt"
        interrupted_config = base_config(
            corpus_path, tmp_path / "resumed", checkpoint_dir=str(checkpoint)
        )

        def interrupted(*args, **kwargs):
            raise RuntimeError("interrupted during alignment")

        monkeypatch.setattr(pipeline, "run_alignment", interrupted)
        with pytest.raises(RuntimeError, match="interrupted"):
            run_pipeline(interrupted_config)
        monkeypatch.undo()
        assert (checkpoint / "candidates.tsv").exists()
        assert not (tmp_path / "resumed" / "cases.jsonl").exists()
        assert not (tmp_path / "resumed" / "manifest.json").exists()

        resumed = run_pipeline(interrupted_config)
        assert resumed.cases_path.read_bytes() == fresh.cases_path.read_bytes()
        assert resumed.stats_path.read_bytes() == fresh.stats_path.read_bytes()

    def test_checkpoint_mismatch_refused(self, tmp_path):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path)
        checkpoint = tmp_path / "ckpt"
        config = base_config(corpus_path, tmp_path / "out", checkpoint_dir=str(checkpoint))
        run_pipeline(config)
        changed = base_config(
            corpus_path,
            tmp_path / "out2",
            checkpoint_dir=str(checkpoint),
            min_shared_terms=5,
        )
        with pytest.raises(CheckpointMismatch):
            run_pipeline(changed)

    def test_checkpoint_written_at_another_ngram_size_refused(self, tmp_path):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path)
        checkpoint = tmp_path / "ckpt"
        config = base_config(
            corpus_path, tmp_path / "out", retrieval_mode="ngram", checkpoint_dir=str(checkpoint)
        )
        run_pipeline(config)
        changed = base_config(
            corpus_path,
            tmp_path / "out2",
            retrieval_mode="ngram",
            checkpoint_dir=str(checkpoint),
            ngram_size=3,
            ngram_overlap=2,
        )
        with pytest.raises(CheckpointMismatch):
            run_pipeline(changed)

    def test_checkpoint_invalidated_by_corpus_change(self, tmp_path):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path)
        checkpoint = tmp_path / "ckpt"
        config = base_config(corpus_path, tmp_path / "out", checkpoint_dir=str(checkpoint))
        run_pipeline(config)
        with open(corpus_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"doi": "extra", "text": " ".join(alpha_words("xx", 60))}) + "\n")
        with pytest.raises(CheckpointMismatch):
            run_pipeline(config)

    def test_checkpoint_missing_a_candidate_line_refused(self, tmp_path):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path)
        checkpoint = tmp_path / "ckpt"
        config = base_config(corpus_path, tmp_path / "out", checkpoint_dir=str(checkpoint))
        assert run_pipeline(config).manifest["counts"]["candidate_pairs"] >= 2
        candidates = checkpoint / "candidates.tsv"
        candidates.write_text("".join(candidates.read_text().splitlines(keepends=True)[:-1]))
        names = f"{re.escape(str(candidates))}.*{re.escape(str(checkpoint / CHECKPOINT_STATE_FILE))}"
        with pytest.raises(CheckpointMismatch, match=names):
            run_pipeline(config)

    @pytest.mark.parametrize(
        "state",
        ["[1]\n", '{"fingerprint": "', "", "{}\n{}\n", "\xff\n"],
        ids=["not-an-object", "truncated", "empty", "two-records", "undecodable"],
    )
    def test_damaged_state_file_refused(self, tmp_path, state):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path)
        checkpoint = tmp_path / "ckpt"
        config = base_config(corpus_path, tmp_path / "out", checkpoint_dir=str(checkpoint))
        run_pipeline(config)
        state_path = checkpoint / CHECKPOINT_STATE_FILE
        state_path.write_bytes(state.encode("latin-1"))
        with pytest.raises(CheckpointMismatch, match=f"^{re.escape(str(state_path))}"):
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
        assert without_timings(rerun.manifest) == without_timings(first.manifest)
        assert rerun.cases_path.read_bytes() == first.cases_path.read_bytes()
        assert sorted(p.name for p in checkpoint.iterdir()) == ["candidates.tsv", "retrieval.json"]

    def test_candidates_without_state_file_are_recomputed(self, tmp_path, monkeypatch):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path)
        checkpoint = tmp_path / "ckpt"
        config = base_config(corpus_path, tmp_path / "out", checkpoint_dir=str(checkpoint))
        expected = without_timings(run_pipeline(config).manifest)
        (checkpoint / "candidates.tsv").unlink()

        # a run under another configuration dies between its candidates and its state file
        def no_state(path, lines):
            raise OSError("disk full")

        monkeypatch.setattr(pipeline, "write_lines", no_state)
        with pytest.raises(OSError):
            run_pipeline(
                base_config(corpus_path, tmp_path / "out", checkpoint_dir=str(checkpoint), min_shared_terms=3)
            )
        monkeypatch.undo()
        assert not (checkpoint / "retrieval.json").exists()

        assert without_timings(run_pipeline(config).manifest) == expected

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
        assert counts["pairs_with_cases"] <= counts["pairs_aligned"] <= counts["candidate_pairs"]

    def test_unrelated_candidate_is_not_aligned(self, tmp_path):
        corpus_path, _, _ = shared_paragraph_corpus(tmp_path)
        # The paragraph's words in reverse order: a candidate of both documents
        # in exact mode, sharing no 8-gram with either.
        with open(corpus_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"doi": "doc-u", "text": " ".join(alpha_words("sh", 30)[::-1])}) + "\n")
        counts = run_pipeline(base_config(corpus_path, tmp_path / "out")).manifest["counts"]
        assert counts["candidate_pairs"] == 3
        assert counts["pairs_aligned"] == counts["pairs_with_cases"] == 1


class TestManifestRetrievalCounters:
    def test_minhash_counts_match_the_index(self, tmp_path):
        corpus_path, corpus, _ = synthetic_corpus_file(tmp_path)
        config = base_config(
            corpus_path,
            tmp_path / "out",
            retrieval_mode="minhash",
            df_cap=2,
            checkpoint_dir=str(tmp_path / "ckpt"),
        )
        result = run_pipeline(config)
        docs = [normalize(raw) for raw in corpus]
        index = build_index(*sketch_corpus(docs, config.passage_size, config.num_hashes, config.seed), config.df_cap)
        _, postings, dropped, visits = minhash_reference(
            docs, config.passage_size, config.num_hashes, config.seed, config.df_cap
        )
        counts = json.loads(result.manifest_path.read_text())["counts"]
        assert counts["hash_postings"] == index.postings == postings > 0
        assert counts["dropped_hashes"] == index.dropped_hashes == dropped > 0
        assert counts["pair_visits"] == visits > 0
        state = json.loads((tmp_path / "ckpt" / CHECKPOINT_STATE_FILE).read_text())
        assert state["counts"]["pair_visits"] == visits

        config.output_dir = str(tmp_path / "resumed")
        assert run_pipeline(config).manifest["counts"] == counts

    def test_ngram_counts_the_distinct_window_hashes(self, tmp_path):
        corpus_path, corpus, _ = synthetic_corpus_file(tmp_path)
        config = base_config(
            corpus_path, tmp_path / "out", retrieval_mode="ngram", checkpoint_dir=str(tmp_path / "ckpt")
        )
        result = run_pipeline(config)
        docs = [normalize(raw) for raw in corpus]
        n = RETRIEVAL_NGRAM_SIZE
        holders = ngram_holders(docs, n)
        visits = sum(math.comb(len(dois), 2) for dois in holders.values())
        counts = json.loads(result.manifest_path.read_text())["counts"]
        assert counts["hash_postings"] == len(holders)
        assert counts["pair_visits"] == visits > 0
        assert "dropped_hashes" not in counts
        state = json.loads((tmp_path / "ckpt" / CHECKPOINT_STATE_FILE).read_text())
        assert state["counts"] == {"hash_postings": len(holders), "pair_visits": visits}

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
        assert counts["pair_visits"] == exact_pair_visits(docs, config.passage_size) > 0
        passage_pairs = qualifying_passage_pairs(docs, config.passage_size, config.min_shared_terms)
        assert counts["passage_pairs"] == passage_pairs > 0
        assert "hash_postings" not in counts
        state = json.loads((tmp_path / "ckpt" / CHECKPOINT_STATE_FILE).read_text())
        assert state["counts"]["pair_visits"] == counts["pair_visits"]
        assert state["counts"]["passage_pairs"] == passage_pairs

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

    def test_document_bytes_are_the_same_on_every_run(self, tmp_path):
        corpus_path, corpus, _ = synthetic_corpus_file(tmp_path)
        first = run_pipeline(base_config(corpus_path, tmp_path / "first")).manifest["counts"]
        second = run_pipeline(base_config(corpus_path, tmp_path / "second")).manifest["counts"]
        assert first["document_bytes"] == second["document_bytes"]
        docs = [normalize(raw) for raw in corpus]
        arrays = sum(d.token_hashes.nbytes + d.token_offsets.nbytes for d in docs)
        assert arrays == 12 * first["tokens"] + 4 * len(docs)
        assert first["document_bytes"] == arrays + sum(sys.getsizeof(d.normalized_text) for d in docs)

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


# Imports the CLI with scipy blocked, so that any import of it fails, runs
# the pipeline in the mode given on the command line and prints the case
# count.
SCIPY_PROBE = """
import json, sys
sys.modules["scipy"] = None
import textreuse.cli
from textreuse.pipeline import RunConfig, run_pipeline
corpus, out_dir, mode = sys.argv[1:]
config = RunConfig(input=corpus, output_dir=out_dir, min_words=10, retrieval_mode=mode)
counts = run_pipeline(config).manifest["counts"]
print(json.dumps({"cases": counts["cases"]}))
"""


class TestHotPathsReadNoTokenStrings:
    """``Document.tokens`` splits the normalized text anew on every read; no
    program path may read it."""

    def outputs(self, corpus_path, out):
        blobs = {}
        for mode in ("ngram", "minhash", "exact"):
            config = base_config(corpus_path, out / mode, retrieval_mode=mode)
            blobs[mode] = run_pipeline(config).cases_path.read_bytes()
        config = base_config(corpus_path, out / "resumed", checkpoint_dir=str(out / "ckpt"))
        run_pipeline(config)
        blobs["resumed"] = run_pipeline(config).cases_path.read_bytes()
        docs, _ = pipeline.load_documents(config)
        cases = run_alignment(docs, read_candidates(out / "ckpt" / "candidates.tsv"), config)
        texts = {raw.doi: raw.text for raw in load_corpus_report(corpus_path)[0]}
        spans = []
        for doc in docs:
            runs = raw_token_runs(texts[doc.doi])[0]
            end = int(runs[-1, 1])
            spans += [raw_span_to_normalized(doc, runs, b, e) for b, e in ((0, 1), (3, 40), (end - 5, end))]
        return blobs, cases, spans

    def test_outputs_unchanged_when_tokens_raise(self, tmp_path, monkeypatch):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path)
        expected = self.outputs(corpus_path, tmp_path / "free")
        assert expected[1]

        def unreadable(doc):
            raise AssertionError("Document.tokens read on a program path")

        monkeypatch.setattr(Document, "tokens", property(unreadable))
        with pytest.raises(AssertionError, match="program path"):
            doc_from_tokens(["alpha"]).tokens
        assert self.outputs(corpus_path, tmp_path / "guarded") == expected


class TestNoModeImportsScipy:
    """Every retrieval mode, and alignment, runs on numpy alone."""

    @pytest.mark.parametrize("mode", ["ngram", "minhash", "exact"])
    def test_mode_runs_without_scipy(self, tmp_path, mode):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path)
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        run = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE, str(corpus_path), str(tmp_path / "out"), mode],
            env=env, check=True, capture_output=True, text=True, timeout=300,
        )  # fmt: skip
        probe = json.loads(run.stdout.splitlines()[-1])
        assert probe["cases"] > 0


# Twelve documents in Latin with diacritics and ligatures, Greek, Cyrillic,
# CJK, Turkish and a mix of Arabic, Hebrew, Fraktur and symbols. Each
# script's pair shares one 45-word passage, written with other case and
# separators (no-break and thin spaces, dashes, middle dots, digits) on side
# 1. Some documents hold "İ", which normalizes to "i".
MIXED_SCRIPT_CORPUS = Path(__file__).resolve().parent / "data" / "mixed_script.jsonl"


class TestMixedScriptCorpus:
    @pytest.mark.parametrize("mode", ["ngram", "minhash", "exact"])
    def test_cases_slice_the_reference_normalization(self, tmp_path, mode):
        config = base_config(MIXED_SCRIPT_CORPUS, tmp_path, min_words=0, retrieval_mode=mode)
        cases = list(read_jsonl(run_pipeline(config).cases_path))
        records = list(read_jsonl(MIXED_SCRIPT_CORPUS))
        normalized = {r["doi"]: " ".join(reference_normalize(r["text"])) for r in records}
        scripts = {doi.rsplit(".", 1)[0] for doi in normalized}
        assert {(case["doi_a"], case["doi_b"]) for case in cases} == {(f"{s}.0", f"{s}.1") for s in scripts}
        for case in cases:
            for side in "ab":
                text = normalized[case[f"doi_{side}"]]
                assert case[f"text_{side}"] == text[case[f"begin_{side}"] : case[f"end_{side}"]]
                assert case[f"doc_length_{side}"] == len(text)


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
        real_hashes = pipeline.window_hashes

        def counting_hashes(doc, *args):
            hashed.append(doc.doi)
            return real_hashes(doc, *args)

        monkeypatch.setattr(pipeline, "window_hashes", counting_hashes)
        counts = {}
        cases = run_alignment(involved + [outsider], pairs, alignment_config(workers=1), counts)
        assert cases
        assert sorted(hashed) == ["d0", "d1", "d2", "d3"]  # not once per pair, never the outsider
        assert counts == {"documents_hashed": 4, "pairs_aligned": 6}

    def test_constant_hash_gives_the_same_cases(self, monkeypatch):
        docs = small_vocab_docs(random.Random(5), 4, length=40)
        pairs = all_pairs(docs)
        config = alignment_config(workers=1)
        expected = run_alignment(docs, pairs, config)
        assert expected
        monkeypatch.setattr(pipeline, "window_hashes", constant_window_hashes)
        assert run_alignment(docs, pairs, config) == expected

    def test_unsorted_pairs_give_the_sorted_cases(self):
        docs = small_vocab_docs(random.Random(4), 4)
        pairs = all_pairs(docs)
        config = alignment_config(workers=1)
        expected = run_alignment(docs, pairs, config)
        assert expected
        assert run_alignment(docs, pairs[::-1], config) == expected

    def test_pair_listed_twice_is_refused(self):
        docs = [doc_from_tokens(alpha_words("w", 20), doi=doi) for doi in ("a", "b", "c")]
        pairs = [CandidatePair("a", "b"), CandidatePair("b", "c"), CandidatePair("a", "b", 2)]
        with pytest.raises(PipelineError, match="^candidate pair a/b listed twice$"):
            run_alignment(docs, pairs, alignment_config(workers=1))

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

    def test_pair_sharing_no_window_hash_is_not_aligned(self, monkeypatch):
        involved = small_vocab_docs(random.Random(3), 3)
        outsider = doc_from_tokens(alpha_words("zz", 60), doi="z-outsider")
        docs = involved + [outsider]
        aligned = []
        real_align = pipeline.align_pair

        def counting_align(a, b, *args, **kwargs):
            aligned.append((a.doi, b.doi))
            return real_align(a, b, *args, **kwargs)

        monkeypatch.setattr(pipeline, "align_pair", counting_align)
        config = alignment_config(workers=1)
        counts = {}
        cases = run_alignment(docs, all_pairs(docs), config, counts)
        assert aligned == [("d0", "d1"), ("d0", "d2"), ("d1", "d2")]
        assert counts == {"documents_hashed": 4, "pairs_aligned": 3}
        assert cases == align_loop(docs, all_pairs(docs), config)

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
        if data.draw(st.booleans(), label="outsider"):
            # Its own vocabulary: every pair with it shares no window hash.
            docs.append(doc_from_tokens(alpha_words("w", 30), doi="z-outsider"))
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

    def test_unsorted_pairs_are_written_sorted(self, tmp_path):
        pairs = [CandidatePair("b", "c", 2), CandidatePair("a", "c", 1), CandidatePair("a", "b", 3)]
        path = tmp_path / "cand.tsv"
        assert write_candidates(path, iter(pairs)) == 3
        assert path.read_text() == "a\tb\t3\na\tc\t1\nb\tc\t2\n"
        assert read_candidates(path) == pairs[::-1]

    def test_whitespace_only_line_skipped(self, tmp_path):
        path = tmp_path / "cand.tsv"
        path.write_bytes(b"a\tb\t3\n \t\r\n\na\tc\t1\n")
        assert read_candidates(path) == [CandidatePair("a", "b", 3), CandidatePair("a", "c", 1)]

    @pytest.mark.parametrize(
        "line, message",
        [
            ("a\tb", "expected 3 tab-separated fields"),
            ("a\tb\tmany", "invalid literal for int()"),
            ("a\tb\t0", "evidence must be >= 1"),
            ("b\ta\t1", "doi_a < doi_b"),
            ("a\tc\t2", "pair a/c listed twice"),
        ],
        ids=["field-count", "non-integer", "zero-evidence", "doi-order", "repeated-pair"],
    )
    def test_malformed_line_rejected(self, tmp_path, line, message):
        path = tmp_path / "cand.tsv"
        path.write_text(f"a\tc\t1\n{line}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}:2: ')}.*{re.escape(message)}"):
            read_candidates(path)


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
        with pytest.raises(PipelineError) as info:
            run_alignment(docs, all_pairs(docs), alignment_config(workers=2))
        assert calls == [os.getpid()]
        assert str(info.value) == "alignment failed for candidate pair d0/d1"
        assert str(info.value.__cause__) == "boom"


class TestStats:
    @pytest.mark.parametrize("output_mode", ["full", "metadata-only"])
    def test_pipeline_stats_come_from_its_cases_not_the_file(self, tmp_path, monkeypatch, output_mode):
        corpus_path, _, _ = synthetic_corpus_file(tmp_path)
        scanned = []
        scan = pipeline.scan_lines
        monkeypatch.setattr(pipeline, "scan_lines", lambda path, *args: scanned.append(path) or scan(path, *args))
        result = run_pipeline(base_config(corpus_path, tmp_path / "out", output_mode=output_mode))
        assert scanned == []
        assert json.loads(result.stats_path.read_text())["cases"] > 0
        write_json(tmp_path / "read-back.json", summarize_cases(result.cases_path))
        assert result.stats_path.read_bytes() == (tmp_path / "read-back.json").read_bytes()

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

    @pytest.mark.parametrize(
        "change",
        [
            {"field_a": 5},  # a TypeError while counting
            {"field_a": "bio"},  # counted as the fields b, i and o
            {"field_a": [1]},  # a TypeError while sorting beside "biology"
            {"begin_a": True},
            {"begin_a": 5, "end_a": 2},
            {"doi_b": ""},
            {"id": None},
        ],
    )
    def test_record_the_case_reader_refuses_is_malformed(self, tmp_path, change):
        bad = self._record(**change)
        if bad["id"] is None:
            del bad["id"]
        path = tmp_path / "cases.jsonl"
        write_jsonl(path, [self._record(), bad])
        summary = summarize_cases(path)
        assert (summary["cases"], summary["malformed"]) == (1, 1)
        assert summary["by_field"] == {"biology": 1, "physics": 1}

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
