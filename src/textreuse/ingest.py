"""Corpus loading and text normalization.

Documents arrive as line-delimited JSON records of pre-extracted plain text.
Normalization reduces each text to lowercase alphabetic tokens separated by
single spaces. All character offsets emitted by the downstream stages refer
to this normalized text, so the rules here are part of the output contract:

* a token is a maximal run of Unicode-alphabetic characters in the raw text,
  lowercased (characters whose lowercase expansion is not itself alphabetic
  are dropped from the token);
* everything between tokens collapses to a single space, with no leading or
  trailing whitespace;
* normalizing already-normalized text is the identity.

A normalized ``Document`` holds no per-token objects: each token is its
64-bit word hash (``token_hashes``, computed here once), and its offsets in
the normalized and in the raw text are two ``(n, 2)`` integer arrays. The
words themselves are read back from ``normalized_text``.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .jsonl import scan_jsonl

log = logging.getLogger(__name__)

# Word hash constants. A token hashes to splitmix64's finalizer of
# sum(ord(c_j) * _CHAR_BASE**(j + 1)) over its characters c_0, c_1, ...,
# modulo 2**64. The hash depends on the word only, not on the process or the
# corpus, so each document is hashed on its own.
_CHAR_BASE = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_METADATA_LISTS = ("field", "area", "discipline")


@dataclass(frozen=True)
class RawDocument:
    """One corpus record: plain text plus publication metadata."""

    doi: str
    text: str
    year: int | None = None
    field: tuple[str, ...] | None = None
    area: tuple[str, ...] | None = None
    discipline: tuple[str, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.doi, str) or not self.doi:
            raise ValueError("doi must be a non-empty string")
        if any(c in self.doi for c in "\t\n\r"):
            raise ValueError("doi contains a tab or line break")  # candidates.tsv could not hold it
        if not isinstance(self.text, str):
            raise ValueError("text must be a string")
        for name in _METADATA_LISTS:
            values = getattr(self, name)
            if values is not None and any(not v for v in values):
                raise ValueError(f"{name} contains an empty string")


@dataclass(frozen=True, eq=False)
class Document:
    """Normalized document: one word hash and two offset pairs per token.

    ``token_hashes`` is a ``uint64`` array holding each token's word hash
    (``_token_hashes``), the one token representation that retrieval and
    alignment read. ``token_spans`` and ``raw_token_spans`` are ``(n, 2)``
    ``int64`` arrays of ``[begin, end)`` offsets, one row per token.
    ``token_spans`` index into ``normalized_text``; ``raw_token_spans``
    index into the original raw text, which lets external (raw-offset)
    annotations be carried over to normalized coordinates. Documents
    compare by identity.
    """

    doi: str
    token_hashes: np.ndarray
    token_spans: np.ndarray
    raw_token_spans: np.ndarray
    normalized_text: str
    year: int | None = None
    field: tuple[str, ...] | None = None
    area: tuple[str, ...] | None = None
    discipline: tuple[str, ...] | None = None

    @property
    def doc_length(self) -> int:
        return len(self.normalized_text)

    @property
    def tokens(self) -> tuple[str, ...]:
        """The words, split off ``normalized_text`` on each call."""
        return tuple(self.normalized_text.split())


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer of every entry of the ``uint64`` array ``x``,
    in place; returns ``x``. A bijection on 64-bit values."""
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX_A)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX_B)
    x ^= x >> np.uint64(31)
    return x


def _token_hashes(tokens: Sequence[str]) -> np.ndarray:
    """One ``uint64`` word hash per token, in whole-array operations over the
    joined tokens' code points; memory is linear in the number of characters."""
    lengths = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    codes = np.frombuffer("".join(tokens).encode("utf-32-le"), dtype="<u4").astype(np.uint64)
    begins = np.cumsum(lengths) - lengths
    powers = np.cumprod(np.full(lengths.max(initial=0), _CHAR_BASE, dtype=np.uint64))
    position = np.arange(codes.size) - np.repeat(begins, lengths)
    # Each token's polynomial is a difference of prefix sums (uint64 wraps).
    prefix = np.zeros(codes.size + 1, dtype=np.uint64)
    np.cumsum(codes * powers[position], out=prefix[1:])
    return _mix(prefix[begins + lengths] - prefix[begins])


def normalize(raw: RawDocument) -> Document:
    """Normalize a raw document into lowercase alphabetic tokens.

    Tokens are found by whole-text operations: every non-alphabetic
    character is translated to a space (so positions are kept), and the
    raw spans are the edges of the resulting alphabetic mask. The tokens are
    the lowercased text split on spaces when every alphabetic character of
    the text lowercases to exactly one alphabetic character (virtually all
    text); otherwise each run is folded on its own and runs that fold to
    nothing are dropped with their spans.
    """
    if not isinstance(raw.text, str):
        raise TypeError("raw.text must be decoded text, not bytes")
    chars = set(raw.text)
    letters = {c for c in chars if c.isalpha()}
    spaced = raw.text.translate({ord(c): " " for c in chars - letters})
    mask = np.zeros(len(spaced) + 2, dtype=bool)
    mask[1:-1] = np.frombuffer(spaced.encode("utf-32-le"), dtype=np.uint32) != 32
    raw_spans = np.flatnonzero(mask[1:] != mask[:-1]).reshape(-1, 2)

    if all(len(low := c.lower()) == 1 and low.isalpha() for c in letters):
        tokens = spaced.lower().split()
    else:
        folded = ["".join(c for c in run.lower() if c.isalpha()) for run in spaced.split()]
        raw_spans = raw_spans[np.fromiter(map(bool, folded), dtype=bool, count=len(folded))]
        tokens = [token for token in folded if token]

    lengths = np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens))
    ends = np.cumsum(lengths) + np.arange(len(tokens))
    return Document(
        doi=raw.doi,
        token_hashes=_token_hashes(tokens),
        token_spans=np.column_stack((ends - lengths, ends)),
        raw_token_spans=raw_spans.astype(np.int64, copy=False),
        normalized_text=" ".join(tokens),
        year=raw.year,
        field=raw.field,
        area=raw.area,
        discipline=raw.discipline,
    )


def length_filter(doc: Document, min_words: int = 1000, max_words: int = 60000) -> bool:
    """Keep documents whose token count lies in [min_words, max_words]."""
    return min_words <= len(doc.token_spans) <= max_words


@dataclass
class LoadReport:
    """What loading a corpus saw; ``digest`` is the sha256 of each file's
    name followed by its bytes, over the files in load order."""

    files: int = 0
    records: int = 0
    malformed: int = 0
    duplicates: int = 0
    digest: str = ""


def parse_record(record: dict) -> RawDocument:
    """Validate and convert one corpus record; raises ValueError when malformed."""
    doi = record.get("doi")
    text = record.get("text")
    if not isinstance(doi, str) or not doi:
        raise ValueError("missing or invalid 'doi'")
    if not isinstance(text, str):
        raise ValueError("missing or invalid 'text'")
    year = record.get("year")
    if year is not None and (isinstance(year, bool) or not isinstance(year, int)):
        raise ValueError("'year' must be an integer")
    lists: dict[str, tuple[str, ...] | None] = {}
    for name in _METADATA_LISTS:
        values = record.get(name)
        if values is None:
            lists[name] = None
            continue
        if not isinstance(values, list) or any(not isinstance(v, str) or not v for v in values):
            raise ValueError(f"'{name}' must be an array of non-empty strings")
        lists[name] = tuple(values)
    return RawDocument(doi=doi, text=text, year=year, **lists)


def document_record(raw: RawDocument, text: str | None = None) -> dict:
    """Corpus-format record for a document; pass text to emit a rewritten body."""
    record = {"doi": raw.doi, "text": raw.text if text is None else text}
    if raw.year is not None:
        record["year"] = raw.year
    for name in _METADATA_LISTS:
        values = getattr(raw, name)
        if values is not None:
            record[name] = list(values)
    return record


def load_corpus_report(path: str | Path) -> tuple[list[RawDocument], LoadReport]:
    """Load raw documents in file order.

    Malformed lines are logged with their line number and skipped; duplicate
    dois are logged and the last record wins. An unreadable file is fatal.
    Each file is read once: the bytes parsed are the bytes hashed into
    ``report.digest``.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.jsonl"))
        if not files:
            raise FileNotFoundError(f"no *.jsonl files in {path}")
    else:
        files = [path]

    report = LoadReport(files=len(files))
    digest = hashlib.sha256()
    by_doi: dict[str, RawDocument] = {}
    for file in files:
        digest.update(file.name.encode("utf-8"))
        for lineno, record, error in scan_jsonl(file, digest):
            if error is None:
                try:
                    doc = parse_record(record)
                except ValueError as exc:
                    error = str(exc)
            if error is not None:
                report.malformed += 1
                log.error("%s:%d: skipping malformed record: %s", file, lineno, error)
                continue
            report.records += 1
            if doc.doi in by_doi:
                report.duplicates += 1
                log.warning("%s:%d: duplicate doi %r (last record wins)", file, lineno, doc.doi)
            by_doi[doc.doi] = doc
    report.digest = digest.hexdigest()
    return list(by_doi.values()), report
