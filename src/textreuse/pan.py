"""Adapter for the PAN text-alignment benchmark layout.

Reads the ``pairs`` file plus ``susp/`` and ``src/`` text directories and the
per-pair XML annotation files, and converts everything to the internal corpus
and gold formats. Benchmark offsets refer to the raw text files, so each gold
span is mapped to normalized coordinates through the raw token runs of its
text (``ingest.raw_token_runs``): the span becomes the bounding normalized
span of all tokens whose raw run it intersects.
"""

from __future__ import annotations

import logging
from pathlib import Path
from xml.etree import ElementTree

import numpy as np

from .ingest import Document, RawDocument, normalize, raw_token_runs
from .jsonl import read_lines
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


def raw_span_to_normalized(doc: Document, runs: np.ndarray, begin: int, end: int) -> tuple[int, int] | None:
    """Bounding normalized span of the tokens of ``doc`` whose raw run
    intersects raw ``[begin, end)``; ``runs`` is ``raw_token_runs`` of the
    raw text ``doc`` was normalized from, one ``[begin, end)`` row per token."""
    if end <= begin or len(runs) == 0:
        return None
    first = int(np.searchsorted(runs[:, 1], begin, side="right"))  # first token ending after begin
    last = int(np.searchsorted(runs[:, 0], end, side="left")) - 1  # last token starting before end
    if first > last or first >= len(runs):
        return None
    return (int(doc.token_offsets[first]), int(doc.token_offsets[last + 1]) - 1)


def load_pan_corpus(base: str | Path) -> tuple[list[RawDocument], list[GoldAnnotation]]:
    """Load a PAN-style corpus directory into (raw documents, gold annotations).
    A ``pairs`` line that is not two file names, or that repeats the
    document pair of an earlier line, raises ValueError naming
    ``pairs:line``; a feature whose range runs past the end of its text
    raises ValueError naming its XML file, and two XML files of one pair
    raise ValueError naming both."""
    base = Path(base)
    pairs_file = base / "pairs"
    if not pairs_file.exists():
        raise FileNotFoundError(f"{pairs_file} not found")
    seen: set[tuple[str, str]] = set()

    def parse(line: str) -> tuple[str, str]:
        names = line.split()
        if len(names) != 2:
            raise ValueError(f"expected 2 file names, found {len(names)}")
        # Documents are keyed by file stem, so a pair is its two stems in order.
        key = tuple(sorted(Path(name).stem for name in names))
        if key in seen:
            raise ValueError(f"pair {key[0]}/{key[1]} listed twice")
        seen.add(key)
        return names[0], names[1]

    pair_names = read_lines(pairs_file, parse)

    documents: dict[str, tuple[RawDocument, Document, np.ndarray]] = {}

    def get_doc(folder: str, name: str) -> tuple[RawDocument, Document, np.ndarray]:
        doi = Path(name).stem
        if doi not in documents:
            text = (base / folder / name).read_text(encoding="utf-8", errors="replace")
            raw = RawDocument(doi=doi, text=text)
            documents[doi] = (raw, normalize(raw), raw_token_runs(text)[0])
        return documents[doi]

    xml_by_stem: dict[str, Path] = {}
    for path in sorted(base.rglob("*.xml")):
        if (first := xml_by_stem.setdefault(path.stem, path)) != path:
            raise ValueError(f"{first} and {path} both annotate pair {path.stem}")

    gold = []
    for susp_name, src_name in pair_names:
        sides = (get_doc("susp", susp_name), get_doc("src", src_name))
        stem = f"{Path(susp_name).stem}-{Path(src_name).stem}"
        xml_path = xml_by_stem.get(stem)
        spans: list[tuple[tuple[int, int], tuple[int, int]]] = []
        strategy = "no-plagiarism"
        if xml_path is not None:
            features, obfuscation = _read_features(xml_path)
            strategy = _strategy_for(xml_path, obfuscation) if features else "no-plagiarism"
            for feature in features:
                mapped = []
                for side, (raw, doc, runs), (offset, length) in zip(("this", "source"), sides, feature):
                    if offset + length > len(raw.text):
                        past = f"{side}_offset + {side}_length is {offset + length}"
                        raise ValueError(f"{xml_path}: {past}, past the {len(raw.text)} characters of {raw.doi}")
                    mapped.append(raw_span_to_normalized(doc, runs, offset, offset + length))
                if None in mapped:
                    log.warning("%s: dropping annotation outside tokenized text", xml_path)
                    continue
                spans.append(tuple(mapped))

        dois = (sides[0][0].doi, sides[1][0].doi)
        if dois[1] < dois[0]:  # gold pairs are in doi order
            dois, spans = dois[::-1], [(src_span, susp_span) for susp_span, src_span in spans]
        gold_spans = tuple(GoldSpan(*span_a, *span_b) for span_a, span_b in spans)
        gold.append(GoldAnnotation(pair_id=stem, doi_a=dois[0], doi_b=dois[1], spans=gold_spans, strategy=strategy))
    return [raw for raw, _, _ in documents.values()], gold


def _read_features(xml_path: Path):
    """[(susp (offset, length), src (offset, length)), ...], obfuscation attr.
    A file that is not well-formed XML, or a feature without a non-negative
    integer offset or length, raises ValueError naming ``xml_path``."""
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
            if numbers[-1] < 0:
                raise ValueError(f"{xml_path}: {feature.get('name')} feature has a negative {name}, {value!r}")
        features.append(((numbers[0], numbers[1]), (numbers[2], numbers[3])))
    return features, obfuscation
