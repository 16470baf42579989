import json

import pytest

import textreuse.cli as cli
from textreuse.cli import main
from textreuse.jsonl import write_jsonl
from textreuse.ingest import document_record
from textreuse.pipeline import RunConfig
from textreuse.synthgen import GenSpec, generate


@pytest.fixture
def corpus_file(tmp_path):
    spec = GenSpec(
        doc_count=12,
        doc_tokens=(250, 400),
        vocab_size=3000,
        case_count=3,
        passage_tokens=(32, 48),
        seed=9,
    )
    corpus, gold = generate(spec)
    path = tmp_path / "corpus.jsonl"
    write_jsonl(path, (document_record(d) for d in corpus))
    return path, gold


def read_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestNormalizeCommand:
    def test_writes_normalized_corpus_and_publications(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        write_jsonl(
            raw,
            [
                {"doi": "d1", "text": "The 3 Cats, RUNNING!", "year": 2001, "field": ["biology"]},
                {"doi": "d2", "text": "Small."},
            ],
        )
        out = tmp_path / "norm.jsonl"
        pubs = tmp_path / "pubs.jsonl"
        assert main(["normalize", "--input", str(raw), "--output", str(out), "--publications", str(pubs)]) == 0
        records = read_lines(out)
        assert records[0]["text"] == "the cats running"
        assert records[0]["year"] == 2001
        pub_records = read_lines(pubs)
        assert list(pub_records[0]) == ["doi", "doc_length", "year", "field", "area", "discipline"]
        assert pub_records[0]["doc_length"] == len("the cats running")
        assert "documents=2 kept=2" in capsys.readouterr().out

    def test_word_filter(self, tmp_path, capsys):
        raw = tmp_path / "raw.jsonl"
        write_jsonl(raw, [{"doi": "d1", "text": "only four words here"}])
        out = tmp_path / "norm.jsonl"
        assert main(["normalize", "--input", str(raw), "--output", str(out), "--min-words", "10"]) == 0
        assert read_lines(out) == []


class TestStageCommands:
    def test_retrieve_then_align_matches_pipeline(self, tmp_path, corpus_file):
        corpus, _ = corpus_file
        candidates = tmp_path / "candidates.tsv"
        cases_two_stage = tmp_path / "cases.jsonl"
        assert main([
            "retrieve", "--input", str(corpus), "--output", str(candidates),
            "--retrieval-mode", "exact", "--min-words", "10", "--seed", "3",
        ]) == 0
        assert candidates.exists()
        assert main([
            "align", "--input", str(corpus), "--candidates", str(candidates),
            "--output", str(cases_two_stage), "--min-words", "10", "--seed", "3",
        ]) == 0

        out_dir = tmp_path / "pipe"
        assert main([
            "pipeline", "--input", str(corpus), "--output-dir", str(out_dir),
            "--retrieval-mode", "exact", "--min-words", "10", "--seed", "3", "--workers", "1",
        ]) == 0
        assert cases_two_stage.read_bytes() == (out_dir / "cases.jsonl").read_bytes()

    def test_pipeline_outputs(self, tmp_path, corpus_file, capsys):
        corpus, gold = corpus_file
        out_dir = tmp_path / "out"
        assert main([
            "pipeline", "--input", str(corpus), "--output-dir", str(out_dir),
            "--retrieval-mode", "exact", "--min-words", "10", "--workers", "1",
        ]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["counts"]["cases"] >= len(gold)
        assert manifest["config"]["retrieval_mode"] == "exact"
        assert (out_dir / "publications.jsonl").exists()
        assert (out_dir / "stats.json").exists()
        assert "pruning_ratio" in capsys.readouterr().out


class _ConfigBuilt(Exception):
    pass


class TestFlagDefaults:
    @pytest.mark.parametrize(
        "command, target",
        [
            (["retrieve", "--output", "out/candidates.tsv"], "load_documents"),
            (["align", "--candidates", "c.tsv", "--output", "out/cases.jsonl"], "load_documents"),
            (["pipeline", "--output-dir", "out"], "run_pipeline"),
        ],
    )
    def test_no_flags_give_the_run_config_defaults(self, monkeypatch, command, target):
        built = []

        def capture(config, *args):
            built.append(config)
            raise _ConfigBuilt

        monkeypatch.setattr(cli, target, capture)
        with pytest.raises(_ConfigBuilt):
            main([*command, "--input", "corpus.jsonl"])
        assert built == [RunConfig(input="corpus.jsonl", output_dir="out")]


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path, corpus_file):
        corpus, _ = corpus_file
        config = tmp_path / "run.cfg"
        config.write_text(
            "\n".join(
                [
                    "# pipeline settings",
                    f"input = {corpus}",
                    "retrieval_mode = exact",
                    "min_words = 10",
                    "workers = 1",
                    "max_gap = 100",
                ]
            )
            + "\n"
        )
        out_dir = tmp_path / "out"
        assert main([
            "pipeline", "--config", str(config), "--output-dir", str(out_dir),
            "--max-gap", "250",
        ]) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["config"]["max_gap"] == 250  # flag wins
        assert manifest["config"]["min_words"] == 10  # file value

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("warp_speed = 9\n")
        assert main(["pipeline", "--config", str(config), "--output-dir", "x"]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_required_options(self, capsys):
        assert main(["pipeline", "--output-dir", "somewhere"]) == 1
        assert "input" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_scores_pipeline_output(self, tmp_path, corpus_file, capsys):
        corpus, gold = corpus_file
        out_dir = tmp_path / "out"
        main([
            "pipeline", "--input", str(corpus), "--output-dir", str(out_dir),
            "--retrieval-mode", "exact", "--min-words", "10", "--workers", "1",
        ])
        from textreuse.metrics import write_gold

        gold_path = tmp_path / "gold.jsonl"
        write_gold(gold_path, gold)
        report_path = tmp_path / "report.jsonl"
        assert main([
            "evaluate", "--cases", str(out_dir / "cases.jsonl"), "--gold", str(gold_path),
            "--output", str(report_path), "--granularity",
        ]) == 0
        table = capsys.readouterr().out
        assert "Entire Corpus" in table
        rows = read_lines(report_path)
        overall = rows[-1]
        assert overall["strategy"] == "entire"
        assert overall["recall"] >= 0.9
        assert overall["precision"] >= 0.9
        assert "granularity" in overall


class TestGenCorpusCommand:
    def test_generates_corpus_gold_and_manifest(self, tmp_path, capsys):
        out_dir = tmp_path / "gen"
        assert main([
            "gen-corpus", "--output-dir", str(out_dir), "--docs", "10",
            "--doc-tokens", "200", "300", "--vocab-size", "2000",
            "--cases", "3", "--passage-tokens", "32", "40", "--seed", "4",
        ]) == 0
        assert len(read_lines(out_dir / "corpus.jsonl")) == 10
        assert len(read_lines(out_dir / "gold.jsonl")) == 3
        genspec = json.loads((out_dir / "genspec.json").read_text())
        assert genspec["seed"] == 4
        assert "planted_cases=3" in capsys.readouterr().out

    def test_same_seed_same_bytes(self, tmp_path):
        args = lambda out: [
            "gen-corpus", "--output-dir", out, "--docs", "8",
            "--doc-tokens", "150", "200", "--cases", "2", "--seed", "11",
        ]
        main(args(str(tmp_path / "one")))
        main(args(str(tmp_path / "two")))
        assert (tmp_path / "one" / "corpus.jsonl").read_bytes() == (tmp_path / "two" / "corpus.jsonl").read_bytes()
        assert (tmp_path / "one" / "gold.jsonl").read_bytes() == (tmp_path / "two" / "gold.jsonl").read_bytes()

    def test_obfuscated_generation(self, tmp_path):
        out_dir = tmp_path / "gen"
        assert main([
            "gen-corpus", "--output-dir", str(out_dir), "--docs", "10",
            "--doc-tokens", "200", "300", "--cases", "3",
            "--obfuscation", "random", "--intensity", "0.3", "--seed", "4",
        ]) == 0
        strategies = {r["strategy"] for r in read_lines(out_dir / "gold.jsonl")}
        assert strategies == {"random"}


class TestStatsCommand:
    def test_stdout_and_file(self, tmp_path, corpus_file, capsys):
        corpus, _ = corpus_file
        out_dir = tmp_path / "out"
        main([
            "pipeline", "--input", str(corpus), "--output-dir", str(out_dir),
            "--retrieval-mode", "exact", "--min-words", "10", "--workers", "1",
        ])
        capsys.readouterr()
        stats_file = tmp_path / "summary.json"
        assert main(["stats", "--cases", str(out_dir / "cases.jsonl"), "--output", str(stats_file)]) == 0
        summary = json.loads(stats_file.read_text())
        assert summary["cases"] >= 3
        assert summary["malformed"] == 0
        # identical to what the pipeline wrote
        assert summary == json.loads((out_dir / "stats.json").read_text())

    def test_malformed_lines_counted(self, tmp_path, capsys):
        path = tmp_path / "cases.jsonl"
        path.write_text("nonsense\n")
        assert main(["stats", "--cases", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["malformed"] == 1


class TestErrorPaths:
    def test_missing_input_file(self, tmp_path, capsys):
        assert main([
            "retrieve", "--input", str(tmp_path / "nope.jsonl"),
            "--output", str(tmp_path / "cand.tsv"),
        ]) == 1
        assert "error:" in capsys.readouterr().err

    def test_metadata_only_pipeline(self, tmp_path, corpus_file):
        corpus, _ = corpus_file
        out_dir = tmp_path / "meta"
        assert main([
            "pipeline", "--input", str(corpus), "--output-dir", str(out_dir),
            "--retrieval-mode", "exact", "--min-words", "10", "--workers", "1",
            "--output-mode", "metadata-only",
        ]) == 0
        records = read_lines(out_dir / "cases.jsonl")
        assert records and all("text_a" not in r for r in records)
