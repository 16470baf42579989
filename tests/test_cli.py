import json
import os
import subprocess
import sys
import uuid
from pathlib import Path

import pytest

import textreuse.cli as cli
from textreuse.alignment import _CASE_NAMESPACE_ROOT
from textreuse.cli import main
from textreuse.jsonl import read_jsonl, write_jsonl
from textreuse.ingest import document_record
from textreuse.pipeline import RunConfig
from textreuse.synthgen import GenSpec, generate

from conftest import reference_normalize


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

    def test_mixed_script_corpus_with_a_malformed_line_and_a_duplicate(self, tmp_path, capsys):
        fixture = Path(__file__).resolve().parent / "data" / "mixed_script.jsonl"
        duplicate = {"doi": "10.1000/mixed.dup", "text": "first version"}
        last = {"doi": "10.1000/mixed.dup", "text": "ΣİΣ aİ — İ\u0307ΣΑ", "year": 2006, "field": ["linguistics"]}
        raw = tmp_path / "raw.jsonl"
        raw.write_text(
            fixture.read_text(encoding="utf-8")
            + json.dumps(duplicate, ensure_ascii=False) + "\n{broken\n"
            + json.dumps(last, ensure_ascii=False) + "\n",
            encoding="utf-8",
        )  # fmt: skip
        expected = {r["doi"]: r for r in [*read_jsonl(fixture), last]}
        once = tmp_path / "once.jsonl"
        assert main(["normalize", "--input", str(raw), "--output", str(once)]) == 0
        assert f"documents=13 kept=13 malformed=1 duplicates=1 -> {once}" in capsys.readouterr().out
        records = list(read_jsonl(once))
        assert [r["doi"] for r in records] == list(expected)
        for record in records:
            source = expected[record["doi"]]
            assert record["text"] == " ".join(reference_normalize(source["text"]))
            assert {k: v for k, v in record.items() if k != "text"} == {k: v for k, v in source.items() if k != "text"}
        twice = tmp_path / "twice.jsonl"
        assert main(["normalize", "--input", str(once), "--output", str(twice)]) == 0
        assert twice.read_bytes() == once.read_bytes()

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

    def test_retrieve_does_not_depend_on_the_string_hash_seed(self, tmp_path, corpus_file):
        corpus, _ = corpus_file
        src = Path(__file__).resolve().parents[1] / "src"
        outputs = []
        for hash_seed in ("1", "2"):
            output = tmp_path / f"candidates-{hash_seed}.tsv"
            env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
            subprocess.run(
                [sys.executable, "-m", "textreuse.cli", "retrieve", "--input", str(corpus),
                 "--output", str(output), "--min-words", "10"],
                env=env, check=True, capture_output=True, timeout=300,
            )  # fmt: skip
            outputs.append(output.read_bytes())
        assert outputs[0] == outputs[1]
        assert outputs[0].count(b"\n") >= 3  # the planted pairs

    def test_doi_with_a_tab_is_skipped_so_the_checkpoint_resumes(self, tmp_path, caplog):
        corpus = tmp_path / "corpus.jsonl"
        text = " ".join(f"word{chr(97 + i % 26)}{chr(97 + i // 26)}" for i in range(40))
        write_jsonl(corpus, [{"doi": doi, "text": text} for doi in ("10.1/a\tb", "10.1/c", "10.1/d")])
        candidates = tmp_path / "cand.tsv"
        assert main(["retrieve", "--input", str(corpus), "--output", str(candidates), "--min-words", "1"]) == 0
        assert candidates.read_text() == "10.1/c\t10.1/d\t38\n"  # 38 shared 3-grams
        assert main([
            "align", "--input", str(corpus), "--candidates", str(candidates),
            "--output", str(tmp_path / "cases.jsonl"), "--min-words", "1",
        ]) == 0
        run = ["pipeline", "--input", str(corpus), "--min-words", "1", "--checkpoint-dir", str(tmp_path / "ckpt")]
        assert main([*run, "--output-dir", str(tmp_path / "first")]) == 0
        assert main([*run, "--output-dir", str(tmp_path / "resumed")]) == 0
        assert "skipping malformed record" in caplog.text

    @pytest.mark.parametrize("metadata", [{"doi": "10.1/a\ud800"}, {"doi": "10.1/a", "field": ["bio\udc00"]}])
    def test_doi_or_metadata_not_utf8_is_a_malformed_record(self, tmp_path, caplog, metadata):
        # JSON's \ud800 escapes decode to lone surrogates, which no output file can hold
        corpus = tmp_path / "corpus.jsonl"
        text = " ".join(f"word{chr(97 + i % 26)}{chr(97 + i // 26)}" for i in range(40))
        records = [{**metadata, "text": text}, {"doi": "10.1/b", "text": text}]
        corpus.write_text("".join(json.dumps(record) + "\n" for record in records))
        commands = [
            ["normalize", "--output", str(tmp_path / "normalized.jsonl")],
            ["retrieve", "--output", str(tmp_path / "cand.tsv")],
            ["pipeline", "--output-dir", str(tmp_path / "out")],
        ]
        for command in commands:
            caplog.clear()
            assert main([*command, "--input", str(corpus), "--min-words", "1"]) == 0
            assert [r.message for r in caplog.records if "skipping malformed record" in r.message] == [
                f"{corpus}:1: skipping malformed record: doi or metadata is not valid UTF-8"
            ]
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["counts"]["records_malformed"] == 1

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


MIXED_SCRIPT = Path(__file__).resolve().parent / "data" / "mixed_script.jsonl"


def python_lines(code: str) -> list[str]:
    """The stdout lines of ``code`` run in a fresh interpreter on this checkout's ``src``."""
    src = Path(__file__).resolve().parents[1] / "src"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)),
        check=True,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return result.stdout.splitlines()


class TestLazyImports:
    def test_cli_loads_neither_evaluation_nor_generation(self):
        """Importing the command line leaves ``metrics`` and ``synthgen``
        unloaded; every name of ``textreuse.__all__`` still resolves, and
        loads them."""
        code = (
            "import sys, textreuse, textreuse.cli\n"
            "lazy = ('textreuse.metrics', 'textreuse.synthgen')\n"
            "print(sorted(name for name in lazy if name in sys.modules))\n"
            "for name in textreuse.__all__: getattr(textreuse, name)\n"
            "print(sorted(name for name in lazy if name in sys.modules))\n"
        )
        assert python_lines(code) == ["[]", "['textreuse.metrics', 'textreuse.synthgen']"]

    def test_retrieve_and_normalize_never_load_openssl(self, tmp_path):
        """``_hashlib`` (OpenSSL's libcrypto) stays unloaded through importing
        the command line, a retrieval and a normalization: neither hashes
        the corpus nor derives a case id."""
        commands = [
            ["retrieve", "--output", str(tmp_path / "candidates.tsv"), "--min-words", "0"],
            ["normalize", "--output", str(tmp_path / "normalized.jsonl")],
        ]
        code = (
            "import sys\n"
            "from textreuse.cli import main\n"
            "loaded = ['_hashlib' in sys.modules]\n"
            f"for command in {commands!r}:\n"
            f"    assert main([*command, '--input', {str(MIXED_SCRIPT)!r}]) == 0\n"
            "    loaded.append('_hashlib' in sys.modules)\n"
            "print(loaded)\n"
        )
        assert python_lines(code)[-1] == "[False, False, False]"
        assert (tmp_path / "candidates.tsv").read_text().count("\n") > 0

    @pytest.mark.parametrize("checkpoint, loaded", [(True, "[True, True]"), (False, "[False, True]")])
    def test_only_a_checkpointed_pipeline_loads_openssl_before_retrieval(self, tmp_path, checkpoint, loaded):
        """Whether ``_hashlib`` is loaded as retrieval starts, and once the
        run ends: a checkpointed run hashes the corpus as it loads it; any
        run loads it for its case ids, after retrieval."""
        command = ["pipeline", "--input", str(MIXED_SCRIPT), "--output-dir", str(tmp_path / "out"), "--min-words", "0"]
        if checkpoint:
            command += ["--checkpoint-dir", str(tmp_path / "checkpoint")]
        code = (
            "import sys\n"
            "import textreuse.pipeline as pipeline\n"
            "from textreuse.cli import main\n"
            "loaded = []\n"
            "retrieve = pipeline.run_retrieval\n"
            "def traced(*args, **kwargs):\n"
            "    loaded.append('_hashlib' in sys.modules)\n"
            "    return retrieve(*args, **kwargs)\n"
            "pipeline.run_retrieval = traced\n"
            f"assert main({command!r}) == 0\n"
            "loaded.append('_hashlib' in sys.modules)\n"
            "print(loaded)\n"
        )
        assert python_lines(code)[-1] == loaded

    def test_case_namespace_root_is_its_uuid5(self):
        assert _CASE_NAMESPACE_ROOT == uuid.uuid5(uuid.NAMESPACE_URL, "textreuse/case")

    def test_unknown_name_is_an_attribute_error(self):
        import textreuse

        with pytest.raises(AttributeError, match="no attribute 'evaluate'"):
            textreuse.evaluate


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

    @pytest.mark.parametrize(
        "line, field",
        [
            ('min_words = "0"', "min_words"),
            ("passage_size = 50.0", "passage_size"),
            ("ngram_size = 8.0", "ngram_size"),
            ("workers = true", "workers"),
            ("checkpoint_dir = 3", "checkpoint_dir"),
        ],
    )
    def test_value_of_the_wrong_type_rejected(self, tmp_path, corpus_file, capsys, line, field):
        corpus, _ = corpus_file
        config = tmp_path / "run.cfg"
        config.write_text(f"input = {corpus}\nretrieval_mode = exact\n{line}\n")
        out_dir = tmp_path / "out"
        assert main(["pipeline", "--config", str(config), "--output-dir", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not out_dir.exists()

    def test_line_without_an_equals_sign_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("# settings\nmin_words 10\n")
        assert main(["pipeline", "--config", str(config), "--input", "x", "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {config}:2: expected key=value\n"

    def test_value_nested_too_deep_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("workers = " + "[" * 100_000 + "\n")
        assert main(["pipeline", "--config", str(config), "--input", "x", "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: workers must be int")

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


    @pytest.mark.parametrize(
        "change, reason",
        [({"id": None}, "missing id"), ({"begin_a": 5, "end_a": 2}, "invalid span on side a")],
    )
    def test_malformed_case_stops_at_its_line(self, tmp_path, capsys, change, reason):
        good = {
            "id": "x", "begin_a": 0, "end_a": 10, "doc_length_a": 100, "doi_a": "a",
            "begin_b": 0, "end_b": 10, "doc_length_b": 100, "doi_b": "b",
        }
        bad = {name: value for name, value in {**good, **change}.items() if value is not None}
        cases = tmp_path / "cases.jsonl"
        write_jsonl(cases, [good, bad])
        gold = tmp_path / "gold.jsonl"
        write_jsonl(gold, [{"pair_id": "p", "doi_a": "a", "doi_b": "b", "spans": []}])
        assert main(["evaluate", "--cases", str(cases), "--gold", str(gold)]) == 1
        assert capsys.readouterr().err == f"error: {cases}:2: {reason}\n"

    def test_gold_record_without_a_field_stops_at_its_line(self, tmp_path, capsys):
        cases = tmp_path / "cases.jsonl"
        cases.write_text("")
        gold = tmp_path / "gold.jsonl"
        write_jsonl(gold, [{"doi_a": "a", "doi_b": "b", "spans": []}])
        assert main(["evaluate", "--cases", str(cases), "--gold", str(gold)]) == 1
        assert capsys.readouterr().err == f"error: {gold}:1: missing pair_id\n"


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

    def test_directory_without_corpus_files(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("not corpus")
        assert main(["retrieve", "--input", str(tmp_path), "--output", str(tmp_path / "cand.tsv")]) == 1
        assert capsys.readouterr().err == f"error: no *.jsonl files in {tmp_path}\n"

    def test_unreadable_case_file(self, tmp_path, capsys):
        # a directory is an OSError other than FileNotFoundError
        assert main(["stats", "--cases", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

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
