import hashlib
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textreuse.ingest import (
    Document,
    RawDocument,
    length_filter,
    load_corpus_report,
    normalize,
    parse_record,
)
from textreuse.pan import raw_span_to_normalized

from conftest import make_doc


def reference_normalize(text):
    """Independent single-pass character walk applying the stated rules."""
    tokens = []
    current = []
    for ch in text:
        if ch.isalpha():
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    out = []
    for run in tokens:
        token = "".join(c for c in run.lower() if c.isalpha())
        if token:
            out.append(token)
    return out


def reference_corpus_digest(path):
    """The checkpoint key as a separate pass over the corpus files computed it."""
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    digest = hashlib.sha256()
    for file in files:
        digest.update(file.name.encode("utf-8"))
        digest.update(file.read_bytes())
    return digest.hexdigest()


class TestNormalize:
    def test_strips_digits_and_punctuation(self):
        doc = make_doc("The 3 cats, running!")
        assert doc.tokens == ("the", "cats", "running")
        assert doc.normalized_text == "the cats running"

    def test_empty_text(self):
        doc = make_doc("")
        assert doc.tokens == ()
        assert doc.doc_length == 0

    def test_case_folding(self):
        doc = make_doc("ABC abc")
        assert doc.tokens == ("abc", "abc")

    def test_metadata_copied_verbatim(self):
        doc = make_doc("word", year=1999, field=("biology",), area=("x",), discipline=("y",))
        assert (doc.year, doc.field, doc.area, doc.discipline) == (
            1999,
            ("biology",),
            ("x",),
            ("y",),
        )

    def test_unicode_letters_kept(self):
        doc = make_doc("Größe écru Москва 北京 2024")
        assert doc.tokens == ("größe", "écru", "москва", "北京")

    def test_wordish_but_not_alphabetic_is_dropped(self):
        # superscript two is a word character but not alphabetic
        doc = make_doc("abc²def")
        assert doc.tokens == ("abc", "def")

    def test_raw_spans_point_at_source_runs(self):
        text = "  Alpha, beta!  "
        doc = make_doc(text)
        assert [text[b:e].lower() for b, e in doc.raw_token_spans] == ["alpha", "beta"]

    @given(st.text(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_walk(self, text):
        assert list(normalize(RawDocument(doi="d", text=text)).tokens) == reference_normalize(text)

    @given(st.text(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, text):
        once = normalize(RawDocument(doi="d", text=text))
        twice = normalize(RawDocument(doi="d", text=once.normalized_text))
        assert twice.normalized_text == once.normalized_text
        assert twice.tokens == once.tokens

    @given(st.text(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_offset_round_trip(self, text):
        doc = normalize(RawDocument(doi="d", text=text))
        assert doc.doc_length == len(doc.normalized_text)
        previous_end = -1
        for token, (begin, end) in zip(doc.tokens, doc.token_spans):
            assert begin < end
            assert begin > previous_end
            assert doc.normalized_text[begin:end] == token
            previous_end = end

    @given(st.text(max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_output_alphabet(self, text):
        doc = normalize(RawDocument(doi="d", text=text))
        assert all(ch.isalpha() and ch == ch.lower() for ch in doc.normalized_text.replace(" ", ""))
        assert "  " not in doc.normalized_text
        assert doc.normalized_text == doc.normalized_text.strip()


# Characters near the edges of the fast path: a capital whose lowercase is two
# characters, final sigma, a titlecase digraph, a ligature, a wordish
# non-letter, a combining mark, a case-ignorable modifier letter, accents,
# digits and punctuation.
_EDGE_ALPHABET = "aZ İΣσς ǅﬁ²\u0345ʰé.'1\t"
_EDGE_TEXTS = ["İstanbul", "ΟΔΟΣ ΟΔΟΣ.", "ǅemal", "ﬁne", "abc²def", "été", "123 -- 4.5!", ""]


def check_offsets(text):
    """Every token is its raw run folded, and both offset maps agree."""
    doc = normalize(RawDocument(doi="d", text=text))
    assert list(doc.tokens) == reference_normalize(text)
    n = len(doc.tokens)
    for spans in (doc.token_spans, doc.raw_token_spans):
        assert isinstance(spans, np.ndarray)
        assert spans.shape == (n, 2) and spans.dtype == np.int64
    for i, token in enumerate(doc.tokens):
        begin, end = doc.raw_token_spans[i]
        assert "".join(c for c in text[begin:end].lower() if c.isalpha()) == token
        assert raw_span_to_normalized(doc, *doc.raw_token_spans[i]) == tuple(doc.token_spans[i].tolist())


class TestNormalizeSpans:
    @pytest.mark.parametrize("text", _EDGE_TEXTS)
    def test_edge_texts_match_reference(self, text):
        check_offsets(text)

    def test_dotted_capital_i_folds_per_run(self):
        doc = make_doc("İstanbul Ankara")
        assert doc.tokens == ("istanbul", "ankara")
        assert doc.raw_token_spans.tolist() == [[0, 8], [9, 15]]

    @given(st.one_of(st.text(max_size=300), st.text(alphabet=_EDGE_ALPHABET, max_size=60)))
    @settings(max_examples=300, deadline=None)
    def test_raw_spans_fold_to_tokens(self, text):
        check_offsets(text)


class TestLengthFilter:
    @pytest.mark.parametrize(
        "count,expected",
        [(999, False), (1000, True), (60000, True), (60001, False)],
    )
    def test_boundaries(self, count, expected):
        doc = Document(
            doi="d",
            tokens=("w",) * count,
            token_spans=tuple((2 * i, 2 * i + 1) for i in range(count)),
            raw_token_spans=tuple((2 * i, 2 * i + 1) for i in range(count)),
            normalized_text=" ".join(["w"] * count),
        )
        assert length_filter(doc) is expected

    def test_depends_only_on_token_count(self):
        a = make_doc(" ".join(["alpha"] * 1000))
        b = make_doc(" ".join(["betaword"] * 1000))
        assert length_filter(a) == length_filter(b) is True


class TestRawDocument:
    def test_rejects_empty_doi(self):
        with pytest.raises(ValueError):
            RawDocument(doi="", text="x")

    def test_rejects_empty_metadata_entry(self):
        with pytest.raises(ValueError):
            RawDocument(doi="d", text="x", field=("ok", ""))


class TestParseRecord:
    def test_year_must_be_integer(self):
        with pytest.raises(ValueError):
            parse_record({"doi": "d", "text": "x", "year": "1999"})

    def test_bool_year_rejected(self):
        with pytest.raises(ValueError):
            parse_record({"doi": "d", "text": "x", "year": True})

    def test_lists_validated(self):
        with pytest.raises(ValueError):
            parse_record({"doi": "d", "text": "x", "field": ["a", 3]})


class TestLoadCorpus:
    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_three_valid_lines(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        self._write(path, [json.dumps({"doi": f"d{i}", "text": "hello"}) for i in range(3)])
        docs, _ = load_corpus_report(path)
        assert [d.doi for d in docs] == ["d0", "d1", "d2"]

    def test_malformed_line_is_skipped_with_diagnostic(self, tmp_path, caplog):
        path = tmp_path / "corpus.jsonl"
        self._write(
            path,
            [
                json.dumps({"doi": "d0", "text": "hello"}),
                "{not json",
                json.dumps({"doi": "d2", "text": "world"}),
            ],
        )
        with caplog.at_level(logging.ERROR):
            docs, report = load_corpus_report(path)
        assert [d.doi for d in docs] == ["d0", "d2"]
        assert report.malformed == 1
        assert any(":2:" in r.message for r in caplog.records)

    def test_duplicate_doi_last_wins(self, tmp_path, caplog):
        path = tmp_path / "corpus.jsonl"
        self._write(
            path,
            [
                json.dumps({"doi": "d0", "text": "first"}),
                json.dumps({"doi": "d0", "text": "second"}),
            ],
        )
        with caplog.at_level(logging.WARNING):
            docs, report = load_corpus_report(path)
        assert len(docs) == 1
        assert docs[0].text == "second"
        assert report.duplicates == 1

    def test_undecodable_line_is_diagnosed(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        with open(path, "wb") as fh:
            fh.write(json.dumps({"doi": "d0", "text": "ok"}).encode() + b"\n")
            fh.write(b'{"doi": "d1", "text": "\xff\xfe"}\n')
        docs, report = load_corpus_report(path)
        assert [d.doi for d in docs] == ["d0"]
        assert report.malformed == 1

    def test_unreadable_file_is_fatal(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus_report(tmp_path / "missing.jsonl")

    def test_digest_of_a_file_corpus(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        self._write(
            path,
            [json.dumps({"doi": "d0", "text": "x"}), "", "{broken", json.dumps({"doi": "d1", "text": "y"})],
        )
        _, report = load_corpus_report(path)
        assert report.digest == reference_corpus_digest(path)

    def test_digest_of_a_directory_corpus(self, tmp_path):
        self._write(tmp_path / "b.jsonl", [json.dumps({"doi": "d1", "text": "x"})])
        self._write(tmp_path / "a.jsonl", [json.dumps({"doi": "d0", "text": "x"}), ""])
        (tmp_path / "c.jsonl").write_bytes(json.dumps({"doi": "d2", "text": "z"}).encode())  # no final newline
        (tmp_path / "ignored.txt").write_text("not corpus")
        _, report = load_corpus_report(tmp_path)
        assert report.digest == reference_corpus_digest(tmp_path)

    def test_directory_of_files(self, tmp_path):
        self._write(tmp_path / "b.jsonl", [json.dumps({"doi": "d1", "text": "x"})])
        self._write(tmp_path / "a.jsonl", [json.dumps({"doi": "d0", "text": "x"})])
        docs, _ = load_corpus_report(tmp_path)
        assert [d.doi for d in docs] == ["d0", "d1"]
