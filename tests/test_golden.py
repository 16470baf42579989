"""Byte identity of the pipeline's outputs, against recorded digests.

``tests/data/golden.json`` maps each corpus and mode to the sha256 of the
run's ``cases.jsonl``, ``candidates.tsv`` (its checkpoint), ``stats.json`` and
``publications.jsonl``, and to the manifest's ``counts``. The corpora are
the smoke-size benchmark workloads at seed 7, ``mixed_script.jsonl``,
which reaches the non-ASCII paths, and ``gap_corpus``, whose shared
passages lie exactly ``max_gap`` and ``max_gap + 1`` characters apart: no
seed gap in the others is that close to the bound. A change that alters an output rewrites
the file with

    PYTHONPATH=src python tests/test_golden.py

and says which digests changed and why. ``counts["document_bytes"]``
includes ``sys.getsizeof`` of each normalized text, whose header CPython
3.10 and 3.11 share.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from test_bench_api import load_bench_module
from textreuse.jsonl import write_json, write_jsonl
from textreuse.pipeline import RunConfig, run_pipeline

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden.json"
BENCH_CORPORA = ("uniform-exact", "zipf-retrieve", "zipf-align")
CORPORA = (*BENCH_CORPORA, "mixed-script", "max-gap")
BENCH_SEED = 7
# RunConfig fields of each mode; every run keeps documents of any length.
MODES = {
    "ngram": {},
    "exact": {"retrieval_mode": "exact"},
    "exact-1": {"retrieval_mode": "exact", "min_shared_terms": 1},
    "minhash": {"retrieval_mode": "minhash"},
    "metadata-only": {"output_mode": "metadata-only"},
}
OUTPUTS = ("cases.jsonl", "candidates.tsv", "stats.json", "publications.jsonl")


def _words(prefix: str, chars: int) -> str:
    """Distinct words that start with ``prefix``, joined by single spaces
    into exactly ``chars`` characters."""
    size = len(prefix) + 2
    count = (chars - 1) // (size + 1) - 1  # the last word is longer than these
    words = [f"{prefix}{chr(97 + k // 26)}{chr(97 + k % 26)}" for k in range(count)]
    return " ".join([*words, prefix.ljust(chars - count * (size + 1), "z")])


def gap_corpus(path: Path, max_gap: int = RunConfig.max_gap) -> Path:
    """Two document pairs, each sharing two passages with distinct words
    between them: the passages lie ``max_gap`` characters apart in one pair,
    so they form one case, and ``max_gap + 1`` apart in the other, so they
    form two."""
    records = []
    for tag, gap in (("near", max_gap), ("far", max_gap + 1)):
        first, second = _words(f"{tag}p", 150), _words(f"{tag}s", 150)
        for side in "ab":
            # A space each side of the filler: the passages' nearest seeds lie gap characters apart.
            filler = _words(f"{tag}x{side}", gap - 2)
            records.append({"doi": f"{tag}-{side}", "text": f"{first} {filler} {second}"})
    write_jsonl(path, records)
    return path


def build_corpora(directory: Path) -> dict[str, Path]:
    """Each corpus's path, those built here written under ``directory``."""
    workloads = load_bench_module("workloads")
    paths = {"mixed-script": DATA / "mixed_script.jsonl", "max-gap": gap_corpus(directory / "max-gap.jsonl")}
    for name in BENCH_CORPORA:
        size = workloads.SIZES["smoke"][name]
        paths[name] = workloads.build_inputs(name, size, BENCH_SEED, directory / name).corpus
    return paths


def digests(corpus: Path, mode: str, directory: Path) -> dict:
    """Digests and counts of one pipeline run on ``corpus`` in ``mode``."""
    out, checkpoint = directory / "out", directory / "checkpoint"
    config = RunConfig(
        input=str(corpus), output_dir=str(out), min_words=0, checkpoint_dir=str(checkpoint), **MODES[mode]
    )
    manifest = run_pipeline(config).manifest
    files = {name: (checkpoint if name == "candidates.tsv" else out) / name for name in OUTPUTS}
    return {
        **{name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()},
        "counts": manifest["counts"],
    }


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    return build_corpora(tmp_path_factory.mktemp("golden-corpora"))


@pytest.mark.parametrize("corpus", CORPORA)
@pytest.mark.parametrize("mode", MODES)
def test_outputs_match_the_recorded_digests(corpora, tmp_path, corpus, mode):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[corpus][mode]
    assert digests(corpora[corpus], mode, tmp_path) == expected


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        paths = build_corpora(directory / "corpora")
        golden = {
            corpus: {mode: digests(paths[corpus], mode, directory / corpus / mode) for mode in MODES}
            for corpus in CORPORA
        }
    write_json(GOLDEN, golden)
    print(f"wrote {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
