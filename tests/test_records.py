"""Every record reader accepts or refuses any JSON record, and never raises.

Each corpus or case record starts plausible, and up to three of its fields
are left out or replaced by an arbitrary JSON value: null, a bool, an int, a
float, a string that may hold lone surrogates, an array or an object.
Loading a corpus and summarizing a case file count each record as accepted
or malformed; ``textreuse evaluate`` scores the case file or stops with one
``error:`` line.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from textreuse.cli import main
from textreuse.ingest import document_record, load_corpus_report, normalize
from textreuse.jsonl import write_jsonl
from textreuse.metrics import GoldAnnotation, GoldSpan, write_gold
from textreuse.pipeline import summarize_cases

# Strings may hold any code point, lone surrogates included.
any_text = st.text(st.characters(exclude_categories=()), max_size=6)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | any_text,
    lambda children: st.lists(children, max_size=3) | st.dictionaries(any_text, children, max_size=3),
    max_leaves=6,
)
labels = st.lists(st.text(min_size=1, max_size=6), max_size=2)


@st.composite
def records(draw, plausible: dict) -> dict:
    """A plausible object with a few of its fields left out or replaced by
    any JSON value."""
    record = draw(st.fixed_dictionaries(plausible))
    for name in draw(st.sets(st.sampled_from(sorted(plausible)), max_size=3)):
        if draw(st.booleans()):
            del record[name]
        else:
            record[name] = draw(json_values)
    return record


corpus_records = records(
    {
        "doi": st.sampled_from(["a", "b", "c\ud800"]),
        "text": any_text,
        "year": st.integers(1900, 2030),
        "field": labels,
        "area": labels,
        "discipline": labels,
    }
)

_case_fields = {"id": any_text}
for side in ("a", "b"):
    _case_fields.update(
        {
            f"text_{side}": any_text,
            f"before_{side}": any_text,
            f"after_{side}": any_text,
            f"begin_{side}": st.integers(-1, 20),
            f"end_{side}": st.integers(0, 60),
            f"doc_length_{side}": st.integers(0, 60),
            f"doi_{side}": st.just(side),
            f"year_{side}": st.none() | st.integers(1900, 2030),
            f"field_{side}": labels,
            f"area_{side}": labels,
            f"discipline_{side}": labels,
        }
    )
case_records = records(_case_fields)


def write_records(path, lines):
    # json.dumps escapes a lone surrogate as \ud800, as other writers may
    path.write_text("".join(json.dumps(record) + "\n" for record in lines), encoding="utf-8")


@settings(max_examples=150, deadline=None)
@given(st.lists(corpus_records, max_size=6))
def test_corpus_records_are_loaded_or_counted_as_malformed(tmp_path_factory, lines):
    directory = tmp_path_factory.mktemp("corpus")
    write_records(directory / "corpus.jsonl", lines)
    docs, report = load_corpus_report(directory / "corpus.jsonl")
    assert report.records + report.malformed == len(lines)
    # every document loaded can be normalized and written out
    write_jsonl(directory / "out.jsonl", (document_record(normalize(doc), text="") for doc in docs))


@settings(max_examples=150, deadline=None)
@given(st.lists(case_records, max_size=6))
def test_case_records_are_summarized_or_counted_as_malformed(tmp_path_factory, lines):
    directory = tmp_path_factory.mktemp("cases")
    write_records(directory / "cases.jsonl", lines)
    summary = summarize_cases(directory / "cases.jsonl")
    assert summary["cases"] + summary["malformed"] == len(lines)
    json.dumps(summary)


@settings(max_examples=150, deadline=None)
@given(st.lists(case_records, max_size=6))
def test_evaluate_scores_or_names_one_error(tmp_path_factory, lines):
    directory = tmp_path_factory.mktemp("evaluate")
    write_records(directory / "cases.jsonl", lines)
    write_gold(directory / "gold.jsonl", [GoldAnnotation("p", "a", "b", (GoldSpan(0, 10, 5, 15),))])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(["evaluate", "--cases", str(directory / "cases.jsonl"), "--gold", str(directory / "gold.jsonl")])
    if status == 0:
        assert "Entire Corpus" in out.getvalue()
    else:
        assert status == 1
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


def test_line_nested_too_deep_is_malformed(tmp_path):
    line = "[" * 100_000 + "\n"
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"doi": "a", "text": "x"}) + "\n" + line)
    docs, report = load_corpus_report(corpus)
    assert ([doc.doi for doc in docs], report.malformed) == (["a"], 1)
    cases = tmp_path / "cases.jsonl"
    cases.write_text(line)
    assert summarize_cases(cases)["malformed"] == 1
