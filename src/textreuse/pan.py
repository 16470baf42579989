"""Adapter for the PAN text-alignment benchmark layout.

Reads the ``pairs`` file plus ``susp/`` and ``src/`` text directories and the
per-pair XML annotation files, and converts everything to the internal corpus
and gold formats. Benchmark offsets refer to the raw text files, so each gold
span is mapped to normalized coordinates through the token-level raw-offset
map: the span becomes the bounding normalized span of all tokens whose raw
span it intersects.
"""

from __future__ import annotations

import logging
from pathlib import Path
from xml.etree import ElementTree

import numpy as np

from .ingest import Document, RawDocument, normalize
from .metrics import GoldAnnotation, GoldSpan

log = logging.getLogger(__name__)

_DIR_STRATEGIES = {
    "no-plagiarism": "no-plagiarism",
    "no-obfuscation": "none",
    "random-obfuscation": "random",
    "translation-obfuscation": "translation",
    "summary-obfuscation": "summary",
}


def _strategy_for(xml_path: Path, feature_obfuscation: str | None) -> str:
    for part in xml_path.parts:
        for suffix, strategy in _DIR_STRATEGIES.items():
            if part.endswith(suffix):
                return strategy
    if feature_obfuscation in ("none", "random", "translation", "summary"):
        return feature_obfuscation
    return "none"


def raw_span_to_normalized(doc: Document, begin: int, end: int) -> tuple[int, int] | None:
    """Bounding normalized span of the tokens intersecting raw [begin, end)."""
    raw = doc.raw_token_spans
    if end <= begin or len(raw) == 0:
        return None
    first = int(np.searchsorted(raw[:, 1], begin, side="right"))  # first token ending after begin
    last = int(np.searchsorted(raw[:, 0], end, side="left")) - 1  # last token starting before end
    if first > last or first >= len(doc.token_spans):
        return None
    return (int(doc.token_spans[first, 0]), int(doc.token_spans[last, 1]))


def load_pan_corpus(base: str | Path) -> tuple[list[RawDocument], list[GoldAnnotation]]:
    """Load a PAN-style corpus directory into (raw documents, gold annotations).
    A ``pairs`` line that is not two file names, or that repeats the
    document pair of an earlier line, raises ValueError naming
    ``pairs:line``."""
    base = Path(base)
    pairs_file = base / "pairs"
    if not pairs_file.exists():
        raise FileNotFoundError(f"{pairs_file} not found")
    pair_names = []
    seen: set[tuple[str, str]] = set()
    for lineno, line in enumerate(pairs_file.read_text(encoding="utf-8").splitlines(), 1):
        names = line.split()
        if not names:
            continue
        if len(names) != 2:
            raise ValueError(f"{pairs_file}:{lineno}: expected 2 file names, found {len(names)}")
        # Documents are keyed by file stem, so a pair is its two stems in order.
        key = tuple(sorted(Path(name).stem for name in names))
        if key in seen:
            raise ValueError(f"{pairs_file}:{lineno}: pair {key[0]}/{key[1]} listed twice")
        seen.add(key)
        pair_names.append((names[0], names[1]))

    raw_docs: dict[str, RawDocument] = {}
    documents: dict[str, Document] = {}

    def get_doc(folder: str, name: str) -> Document:
        doi = Path(name).stem
        if doi not in documents:
            text = (base / folder / name).read_text(encoding="utf-8", errors="replace")
            raw = RawDocument(doi=doi, text=text)
            raw_docs[doi] = raw
            documents[doi] = normalize(raw)
        return documents[doi]

    xml_by_stem = {path.stem: path for path in base.rglob("*.xml")}

    gold = []
    for susp_name, src_name in pair_names:
        susp_doc = get_doc("susp", susp_name)
        src_doc = get_doc("src", src_name)
        stem = f"{Path(susp_name).stem}-{Path(src_name).stem}"
        xml_path = xml_by_stem.get(stem)
        spans: list[tuple[tuple[int, int], tuple[int, int]]] = []
        strategy = "no-plagiarism"
        if xml_path is not None:
            features, obfuscation = _read_features(xml_path)
            strategy = _strategy_for(xml_path, obfuscation) if features else "no-plagiarism"
            for (s_begin, s_len), (r_begin, r_len) in features:
                susp_span = raw_span_to_normalized(susp_doc, s_begin, s_begin + s_len)
                src_span = raw_span_to_normalized(src_doc, r_begin, r_begin + r_len)
                if susp_span is None or src_span is None:
                    log.warning("%s: dropping annotation outside tokenized text", xml_path)
                    continue
                spans.append((susp_span, src_span))

        if susp_doc.doi < src_doc.doi:
            doi_a, doi_b = susp_doc.doi, src_doc.doi
            gold_spans = tuple(GoldSpan(*sa, *sb) for sa, sb in spans)
        else:
            doi_a, doi_b = src_doc.doi, susp_doc.doi
            gold_spans = tuple(GoldSpan(*sb, *sa) for sa, sb in spans)
        gold.append(
            GoldAnnotation(
                pair_id=stem,
                doi_a=doi_a,
                doi_b=doi_b,
                spans=gold_spans,
                strategy=strategy,
            )
        )
    return list(raw_docs.values()), gold


def _read_features(xml_path: Path):
    """[(susp (offset, length), src (offset, length)), ...], obfuscation attr.
    A file that is not well-formed XML, or a feature without an integer
    offset or length, raises ValueError naming ``xml_path``."""
    try:
        root = ElementTree.parse(xml_path).getroot()
    except ElementTree.ParseError as exc:
        raise ValueError(f"{xml_path}: {exc}") from None
    features = []
    obfuscation = None
    for feature in root.iter("feature"):
        if feature.get("name") not in ("plagiarism", "detected-plagiarism"):
            continue
        obfuscation = feature.get("obfuscation", obfuscation)
        numbers = []
        for name in ("this_offset", "this_length", "source_offset", "source_length"):
            value = feature.get(name)
            try:
                numbers.append(int(value))
            except (TypeError, ValueError):
                raise ValueError(
                    f"{xml_path}: {feature.get('name')} feature needs an integer {name}, not {value!r}"
                ) from None
        features.append(((numbers[0], numbers[1]), (numbers[2], numbers[3])))
    return features, obfuscation
