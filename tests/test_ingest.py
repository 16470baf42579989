import hashlib
import json
import logging
import random
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import textreuse.ingest as ingest
from textreuse.ingest import (
    _CHAR_BASE,
    Document,
    RawDocument,
    length_filter,
    load_corpus_report,
    normalize,
    normalize_corpus,
    parse_record,
    raw_token_runs,
)
from textreuse.jsonl import write_jsonl
from textreuse.pan import raw_span_to_normalized
from textreuse.pipeline import RunConfig, load_documents

from conftest import ASCII_TEXT, EDGE_ALPHABET, make_doc, mixed_examples, reference_normalize, splitmix, token_spans


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
        assert [text[b:e].lower() for b, e in raw_token_runs(text)[0]] == ["alpha", "beta"]

    @given(st.one_of(st.text(max_size=300), ASCII_TEXT))
    @mixed_examples
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

    @given(st.one_of(st.text(max_size=300), ASCII_TEXT))
    @mixed_examples
    @settings(max_examples=200, deadline=None)
    def test_offset_round_trip(self, text):
        doc = normalize(RawDocument(doi="d", text=text))
        assert doc.doc_length == len(doc.normalized_text)
        previous_end = -1
        offsets = doc.token_offsets.tolist()
        for token, begin, end in zip(doc.tokens, offsets, [offset - 1 for offset in offsets[1:]]):
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


_EDGE_TEXTS = [
    "İstanbul", "ΟΔΟΣ ΟΔΟΣ.", "ǅemal", "ﬁne", "abc²def", "été", "123 -- 4.5!", "", "a\ud800b",
    "ΣİΣ", "ΟΔΟΣ İΣ", "İΣ", "aİ", "İ\u0307",
]  # fmt: skip


def check_offsets(text):
    """Every token is its raw run folded, and the token offsets and the raw
    runs agree with the reference spans."""
    doc = normalize(RawDocument(doi="d", text=text))
    assert list(doc.tokens) == reference_normalize(text)
    n = len(doc.tokens)
    offsets, runs = doc.token_offsets, raw_token_runs(text)[0]
    assert isinstance(offsets, np.ndarray) and offsets.shape == (n + 1,) and offsets.dtype == np.int32
    assert offsets[-1] == (doc.doc_length + 1 if n else 0)
    assert runs.shape == (n, 2)
    spans = token_spans(doc)
    assert list(zip(offsets[:-1].tolist(), (offsets[1:] - 1).tolist())) == spans
    for i, token in enumerate(doc.tokens):
        begin, end = runs[i]
        assert "".join(c for c in text[begin:end].lower() if c.isalpha()) == token
        assert raw_span_to_normalized(doc, runs, begin, end) == spans[i]


class TestNormalizeSpans:
    @pytest.mark.parametrize("text", _EDGE_TEXTS)
    def test_edge_texts_match_reference(self, text):
        check_offsets(text)

    def test_dotted_capital_i_is_the_only_letter_not_lowercasing_to_one_letter(self):
        # normalize lowercases every letter in place and reads U+0130 as "i".
        odd = [
            c
            for c in map(chr, range(0x110000))
            if c.isalpha() and not (len(low := c.lower()) == 1 and low.isalpha())
        ]
        assert odd == ["\u0130"]
        assert "".join(c for c in "\u0130".lower() if c.isalpha()) == "i"

    def test_dotted_capital_i_folds_per_run(self):
        doc = make_doc("İstanbul Ankara")
        assert doc.tokens == ("istanbul", "ankara")
        assert raw_token_runs("İstanbul Ankara")[0].tolist() == [[0, 8], [9, 15]]

    @given(st.one_of(st.text(max_size=300), ASCII_TEXT, st.text(alphabet=EDGE_ALPHABET, max_size=60)))
    @mixed_examples
    @settings(max_examples=300, deadline=None)
    def test_raw_spans_fold_to_tokens(self, text):
        check_offsets(text)


def assert_normalized_alone(doc, raw):
    """``doc`` is ``normalize(raw)``, field for field and byte for byte, and
    holds its own arrays, so nothing of a batch stays alive through it."""
    alone = normalize(raw)
    assert doc.doi == raw.doi
    assert doc.normalized_text == alone.normalized_text
    assert list(doc.tokens) == reference_normalize(raw.text)
    for name in ("token_hashes", "token_offsets"):
        got, want = getattr(doc, name), getattr(alone, name)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert got.base is None
    assert doc.nbytes == alone.nbytes  # the text is as compact as normalized alone
    assert (doc.year, doc.field, doc.area, doc.discipline) == (raw.year, raw.field, raw.area, raw.discipline)


class TestBatches:
    """Documents normalized in a batch equal each normalized alone. The batch
    constant is a few characters here, so batches end at every place a
    document can."""

    @given(
        st.lists(
            st.one_of(st.text(max_size=30), st.text(alphabet=EDGE_ALPHABET, max_size=20), ASCII_TEXT),
            max_size=8,
        ),
        st.integers(1, 24),
    )
    @example(["ΟΔΟΣ ΑΣ", "Σοφία ΑΣ", "ΑΣ"], 4)  # a final sigma before a document starting with a letter
    @example(["ΑΣ", "ʰΣ", "Σʰ", "Β"], 100)  # the modifier letter is case-ignorable
    @example(["İ", "İstanbul", "aİ", "İ\u0307", "İ"], 3)  # U+0130 at either edge
    @example(["a\ud800", "\udc00b", "\ud83d", "\ude00"], 50)  # lone surrogates at the edges
    @example(["", "123 -- 4.5!", "", "  ", "x", ""], 2)  # no text, and no letters
    @example(["naïve " * 12, "word", "ΟΔΟΣ " * 9], 16)  # documents longer than a batch
    @example(["abc", "de", "f", "ghi"], 4)  # "abc" and its space end the first batch at the constant
    @example(["北京 ab", "plain ascii", "Москва"], 100)  # one batch of wide and ASCII documents
    @settings(max_examples=200, deadline=None)
    def test_each_document_as_normalized_alone(self, texts, batch_chars):
        raws = [RawDocument(doi=f"d{i}", text=text, year=i) for i, text in enumerate(texts)]
        with mock.patch.object(ingest, "_BATCH_CHARS", batch_chars):
            docs = list(normalize_corpus(raws))
            with tempfile.TemporaryDirectory() as directory:
                path = Path(directory) / "corpus.jsonl"
                # json.dumps escapes lone surrogates, which UTF-8 cannot hold
                records = ({"doi": raw.doi, "text": raw.text, "year": raw.year} for raw in raws)
                path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
                loaded, counts = load_documents(RunConfig(input=str(path), output_dir=directory, min_words=0))
        assert len(docs) == len(loaded) == counts["documents_used"] == len(raws)
        for raw, doc, loaded_doc in zip(raws, docs, loaded):
            assert_normalized_alone(doc, raw)
            assert_normalized_alone(loaded_doc, raw)

    def test_a_batch_ends_once_it_reaches_the_constant(self):
        # Each text counts one space after it: "abc" fills a batch of 4 exactly.
        raws = [RawDocument(doi=f"d{i}", text=text) for i, text in enumerate(["abc", "de", "f", "ghi", "j"])]
        with mock.patch.object(ingest, "_BATCH_CHARS", 4):
            batches = [[raw.text for raw in batch] for batch in ingest._batches(raws)]
        assert batches == [["abc"], ["de", "f"], ["ghi"], ["j"]]

    def test_later_record_of_a_doi_wins_across_batches(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        records = [{"doi": "a", "text": "first one"}, {"doi": "b", "text": "middle"}, {"doi": "a", "text": "last"}]
        write_jsonl(path, records)
        with mock.patch.object(ingest, "_BATCH_CHARS", 1):
            docs, counts = load_documents(RunConfig(input=str(path), output_dir=str(tmp_path), min_words=0, max_words=1))
        assert [doc.doi for doc in docs] == ["a", "b"]
        assert docs[0].normalized_text == "last"
        assert (counts["documents_loaded"], counts["duplicate_dois"], counts["documents_filtered"]) == (2, 1, 0)


class TestLoadMemory:
    def test_load_peaks_at_the_documents_plus_one_batch(self, tmp_path):
        """``load_documents`` holds the raw text of one batch at a time: its
        peak is the memory of the documents it returns plus working memory
        proportional to a batch, which is at most ``_BATCH_CHARS`` plus one
        document. Holding the raw corpus, as loading every record before
        normalizing any does, would not fit. Everything each batch
        allocates is released by the time the next is read, whichever
        CPython frees call arguments at."""
        rng = random.Random(5)
        vocab = ["".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(2, 9))) for _ in range(2000)]
        texts = [" ".join(rng.choices(vocab, k=rng.randint(500, 650))) for _ in range(1000)]
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, ({"doi": f"d{i}", "text": text} for i, text in enumerate(texts)))
        bound = 80 * (ingest._BATCH_CHARS + max(map(len, texts)))
        assert sum(map(len, texts)) > 2 * bound
        del texts

        tracemalloc.start()
        try:
            docs, counts = load_documents(RunConfig(input=str(path), output_dir=str(tmp_path), min_words=0))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert counts["document_bytes"] <= held
        assert peak - held <= bound


def reference_word_hash(token):
    """Scalar reference for one entry of ``Document.token_hashes``, in
    Python integers."""
    chars = sum(ord(c) * pow(_CHAR_BASE, j + 1, 1 << 64) for j, c in enumerate(token))
    return splitmix(chars & ((1 << 64) - 1))


def check_token_hashes(text):
    doc = normalize(RawDocument(doi="d", text=text))
    assert doc.token_hashes.dtype == np.uint64
    assert doc.token_hashes.tolist() == [reference_word_hash(t) for t in reference_normalize(text)]


class TestTokenHashes:
    @pytest.mark.parametrize("text", ["İ", "ǅ", "İstanbul ǅemal 𝔄𝔅", "", "123 -- 4.5!", "a\ud800b", "ΣİΣ"])
    def test_fold_path_and_empty_documents_match_reference(self, text):
        check_token_hashes(text)

    @given(st.one_of(st.text(max_size=300), ASCII_TEXT, st.text(alphabet=EDGE_ALPHABET + "𝔄", max_size=60)))
    @mixed_examples
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_reference(self, text):
        check_token_hashes(text)


class TestLengthFilter:
    @pytest.mark.parametrize(
        "count,expected",
        [(999, False), (1000, True), (60000, True), (60001, False)],
    )
    def test_boundaries(self, count, expected):
        doc = Document(
            doi="d",
            token_hashes=np.zeros(count, np.uint64),
            token_offsets=np.arange(0, 2 * count + 1, 2, dtype=np.int32),
            normalized_text=" ".join(["w"] * count),
        )
        assert length_filter(doc) is expected

    def test_depends_only_on_token_count(self):
        a = make_doc(" ".join(["alpha"] * 1000))
        b = make_doc(" ".join(["betaword"] * 1000))
        assert length_filter(a) == length_filter(b) is True


class LongText(str):
    """A short string that reports 2**31 characters, one more than int32
    offsets index."""

    def __len__(self):
        return 2**31


class TestRawDocument:
    def test_rejects_text_too_long_for_int32_offsets(self):
        with pytest.raises(ValueError, match="int32"):
            RawDocument(doi="d", text=LongText("x"))

    def test_rejects_empty_doi(self):
        with pytest.raises(ValueError):
            RawDocument(doi="", text="x")

    def test_rejects_empty_metadata_entry(self):
        with pytest.raises(ValueError):
            RawDocument(doi="d", text="x", field=("ok", ""))

    @pytest.mark.parametrize("doi", ["10.1/a\tb", "10.1/a\nb", "10.1/a\rb", "\t"])
    def test_rejects_tab_or_line_break_in_doi(self, doi):
        # candidates.tsv holds one tab-separated pair of dois per line
        with pytest.raises(ValueError, match="tab or line break"):
            RawDocument(doi=doi, text="x")


    @pytest.mark.parametrize("values", [{"doi": "d\ud800"}, {"field": ("ok", "\udfff")}, {"discipline": ("\ud83d",)}])
    def test_rejects_doi_or_metadata_not_utf8(self, values):
        with pytest.raises(ValueError, match="not valid UTF-8"):
            RawDocument(**{"doi": "d", "text": "x", **values})

    def test_text_may_hold_a_lone_surrogate(self):
        assert normalize(RawDocument(doi="d", text="ab\ud800cd")).normalized_text == "ab cd"

    @pytest.mark.parametrize("year", [True, "1999", 1999.0])
    def test_rejects_year_that_is_not_an_integer(self, year):
        with pytest.raises(ValueError, match="year"):
            RawDocument(doi="d", text="x", year=year)

    @pytest.mark.parametrize("field", [["a"], "a", ("a", 3), {"a": 1}])
    def test_rejects_metadata_that_is_not_a_tuple_of_strings(self, field):
        with pytest.raises(ValueError, match="field"):
            RawDocument(doi="d", text="x", field=field)


class TestParseRecord:
    def test_arrays_become_tuples(self):
        record = {"doi": "d", "text": "x", "year": 1999, "field": ["a"], "area": [], "extra": 1}
        assert parse_record(record) == RawDocument(doi="d", text="x", year=1999, field=("a",), area=())

    def test_missing_doi_or_text_rejected(self):
        for record in ({"text": "x"}, {"doi": "d"}):
            with pytest.raises(ValueError):
                parse_record(record)

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

    def test_doi_with_a_tab_is_a_malformed_record(self, tmp_path, caplog):
        path = tmp_path / "corpus.jsonl"
        self._write(path, [json.dumps({"doi": d, "text": "hello"}) for d in ("10.1/a\tb", "10.1/c")])
        with caplog.at_level(logging.ERROR):
            docs, report = load_corpus_report(path)
        assert [d.doi for d in docs] == ["10.1/c"]
        assert report.malformed == 1
        assert any(":1:" in r.message and "tab or line break" in r.message for r in caplog.records)

    def test_text_too_long_for_int32_offsets_is_a_malformed_record(self, tmp_path, monkeypatch, caplog):
        path = tmp_path / "corpus.jsonl"
        self._write(path, [json.dumps({"doi": doi, "text": "hello"}) for doi in ("d0", "d1")])
        json_object = ingest.json_object

        def long_first_text(line):
            record = json_object(line)
            if record["doi"] == "d0":
                record["text"] = LongText(record["text"])
            return record

        monkeypatch.setattr(ingest, "json_object", long_first_text)
        with caplog.at_level(logging.ERROR):
            docs, report = load_corpus_report(path)
        assert [d.doi for d in docs] == ["d1"]
        assert report.malformed == 1
        assert any(":1:" in r.message and "int32" in r.message for r in caplog.records)

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
