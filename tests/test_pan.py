import re

import pytest

from textreuse.ingest import RawDocument, normalize, raw_token_runs
from textreuse.pan import load_pan_corpus, raw_span_to_normalized


def build_pan_dir(base):
    copied = "Energy is conserved, in every closed system; momentum too."
    susp_text = f"Intro text (with noise 123)!! {copied} And a closing remark."
    src_text = f"Preamble, unrelated. {copied} Trailing discussion 456."

    (base / "susp").mkdir(parents=True)
    (base / "src").mkdir(parents=True)
    (base / "susp" / "suspicious-document00001.txt").write_text(susp_text, encoding="utf-8")
    (base / "susp" / "suspicious-document00002.txt").write_text(
        "Nothing shared here at all, honestly.", encoding="utf-8"
    )
    (base / "src" / "source-document00001.txt").write_text(src_text, encoding="utf-8")
    (base / "src" / "source-document00002.txt").write_text(
        "A completely different body of text.", encoding="utf-8"
    )
    (base / "pairs").write_text(
        "suspicious-document00001.txt source-document00001.txt\n"
        "suspicious-document00002.txt source-document00002.txt\n",
        encoding="utf-8",
    )

    xml_dir = base / "02-no-obfuscation"
    xml_dir.mkdir()
    this_offset = susp_text.find(copied)
    source_offset = src_text.find(copied)
    (xml_dir / "suspicious-document00001-source-document00001.xml").write_text(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<document reference="suspicious-document00001.txt">\n'
        f'<feature name="plagiarism" type="artificial" obfuscation="none" '
        f'this_offset="{this_offset}" this_length="{len(copied)}" '
        f'source_reference="source-document00001.txt" '
        f'source_offset="{source_offset}" source_length="{len(copied)}"/>\n'
        "</document>\n",
        encoding="utf-8",
    )
    (base / "01-no-plagiarism").mkdir()
    (base / "01-no-plagiarism" / "suspicious-document00002-source-document00002.xml").write_text(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<document reference="suspicious-document00002.txt">\n</document>\n',
        encoding="utf-8",
    )
    return copied


class TestRawSpanMapping:
    def test_maps_to_token_bounding_span(self):
        raw = "Alpha, beta! gamma."
        doc = normalize(RawDocument(doi="d", text=raw))
        begin = raw.find("beta")
        span = raw_span_to_normalized(doc, raw_token_runs(raw)[0], begin, begin + len("beta"))
        assert doc.normalized_text[span[0] : span[1]] == "beta"

    def test_partial_token_overlap_rounds_to_whole_tokens(self):
        raw = "Alpha beta gamma"
        doc = normalize(RawDocument(doi="d", text=raw))
        span = raw_span_to_normalized(doc, raw_token_runs(raw)[0], 2, 8)  # "pha be"
        assert doc.normalized_text[span[0] : span[1]] == "alpha beta"

    def test_span_in_punctuation_is_none(self):
        raw = "alpha ... beta"
        doc = normalize(RawDocument(doi="d", text=raw))
        assert raw_span_to_normalized(doc, raw_token_runs(raw)[0], 6, 9) is None

    def test_empty_span_is_none(self):
        doc = normalize(RawDocument(doi="d", text="alpha"))
        assert raw_span_to_normalized(doc, raw_token_runs("alpha")[0], 3, 3) is None


class TestLoadPanCorpus:
    def test_documents_gold_and_strategies(self, tmp_path):
        copied = build_pan_dir(tmp_path)
        raw_docs, gold = load_pan_corpus(tmp_path)
        assert {d.doi for d in raw_docs} == {
            "suspicious-document00001",
            "suspicious-document00002",
            "source-document00001",
            "source-document00002",
        }
        by_pair = {g.pair_id: g for g in gold}
        reuse = by_pair["suspicious-document00001-source-document00001"]
        empty = by_pair["suspicious-document00002-source-document00002"]
        assert reuse.strategy == "none"
        assert len(reuse.spans) == 1
        assert empty.strategy == "no-plagiarism"
        assert empty.spans == ()
        assert reuse.doi_a < reuse.doi_b

        docs = {d.doi: normalize(d) for d in raw_docs}
        (span,) = reuse.spans
        expected = normalize(RawDocument(doi="t", text=copied)).normalized_text
        assert docs[reuse.doi_a].normalized_text[span.begin_a : span.end_a] == expected
        assert docs[reuse.doi_b].normalized_text[span.begin_b : span.end_b] == expected

    def test_detection_on_converted_corpus(self, tmp_path):
        build_pan_dir(tmp_path)
        raw_docs, gold = load_pan_corpus(tmp_path)
        docs = {d.doi: normalize(d) for d in raw_docs}
        from textreuse.alignment import AlignmentParams, align_pair
        from textreuse.metrics import char_precision_recall

        params = AlignmentParams(ngram_size=4, ngram_overlap=3, max_gap=250, min_seeds=2)
        detected = []
        for ann in gold:
            detected.extend(align_pair(docs[ann.doi_a], docs[ann.doi_b], params))
        precision, recall = char_precision_recall(gold, detected)
        assert recall == 1.0
        assert precision == 1.0

    def test_missing_pairs_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_pan_corpus(tmp_path)

    def test_pairs_line_with_one_name_names_its_line(self, tmp_path):
        build_pan_dir(tmp_path)
        pairs = tmp_path / "pairs"
        pairs.write_text(pairs.read_text(encoding="utf-8") + "\nsuspicious-document00003.txt\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_pan_corpus(tmp_path)
        assert str(info.value) == f"{pairs}:4: expected 2 file names, found 1"

    def test_feature_without_source_length_names_its_file(self, tmp_path):
        build_pan_dir(tmp_path)
        (xml,) = (tmp_path / "02-no-obfuscation").glob("*.xml")
        text = xml.read_text(encoding="utf-8")
        xml.write_text(re.sub(r' source_length="\d+"', "", text), encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_pan_corpus(tmp_path)
        assert str(info.value) == f"{xml}: plagiarism feature needs an integer source_length, not None"

    def test_pair_listed_twice_names_its_line(self, tmp_path):
        build_pan_dir(tmp_path)
        pairs = tmp_path / "pairs"
        pairs.write_text(
            pairs.read_text(encoding="utf-8") + "source-document00001.txt suspicious-document00001.txt\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError) as info:
            load_pan_corpus(tmp_path)
        assert str(info.value) == (
            f"{pairs}:3: pair source-document00001/suspicious-document00001 listed twice"
        )

    def test_two_annotation_files_of_one_pair_name_both(self, tmp_path):
        """A pair's gold must not depend on which of its files is read last."""
        build_pan_dir(tmp_path)
        (xml,) = (tmp_path / "02-no-obfuscation").glob("*.xml")
        (tmp_path / "03-random-obfuscation").mkdir()
        other = tmp_path / "03-random-obfuscation" / xml.name
        other.write_text(xml.read_text(encoding="utf-8").replace('name="plagiarism"', 'name="other"'), encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_pan_corpus(tmp_path)
        assert str(info.value) == f"{xml} and {other} both annotate pair {xml.stem}"

    def test_malformed_xml_names_its_file(self, tmp_path):
        build_pan_dir(tmp_path)
        (xml,) = (tmp_path / "02-no-obfuscation").glob("*.xml")
        xml.write_text("<document><feature", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_pan_corpus(tmp_path)
        assert str(info.value).startswith(f"{xml}: ")

    @pytest.mark.parametrize(
        "attribute,value,message",
        [
            ("source_length", "10000", "source_offset + source_length is 10021, past the 104 characters of source-document00001"),
            ("this_offset", "-5", "plagiarism feature has a negative this_offset, '-5'"),
            ("source_length", "-1", "plagiarism feature has a negative source_length, '-1'"),
        ],
        ids=["length-past-the-end", "negative-offset", "negative-length"],
    )
    def test_feature_outside_its_text_names_its_file(self, tmp_path, attribute, value, message):
        build_pan_dir(tmp_path)
        (xml,) = (tmp_path / "02-no-obfuscation").glob("*.xml")
        text = xml.read_text(encoding="utf-8")
        xml.write_text(re.sub(f' {attribute}="\\d+"', f' {attribute}="{value}"', text), encoding="utf-8")
        with pytest.raises(ValueError) as info:
            load_pan_corpus(tmp_path)
        assert str(info.value) == f"{xml}: {message}"

    def test_feature_ending_at_its_text_end_is_kept(self, tmp_path):
        build_pan_dir(tmp_path)
        (xml,) = (tmp_path / "02-no-obfuscation").glob("*.xml")
        text = xml.read_text(encoding="utf-8")
        source = (tmp_path / "src" / "source-document00001.txt").read_text(encoding="utf-8")
        offset = int(re.search(r' source_offset="(\d+)"', text).group(1))
        xml.write_text(re.sub(r' source_length="\d+"', f' source_length="{len(source) - offset}"', text), encoding="utf-8")
        _, gold = load_pan_corpus(tmp_path)
        (span,) = next(g for g in gold if g.spans).spans
        assert span.end_b - span.begin_b > 0
