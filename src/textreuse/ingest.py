"""Corpus loading and text normalization.

Documents arrive as line-delimited JSON records of pre-extracted plain text.
Normalization reduces each text to lowercase alphabetic tokens separated by
single spaces. All character offsets emitted by the downstream stages refer
to this normalized text, so the rules here are part of the output contract:

* a token is a maximal run of Unicode-alphabetic characters in the raw text,
  lowercased; every letter but U+0130 lowercases to exactly one letter, and
  U+0130 "İ", whose lowercase is "i" and a combining dot above, reads as "i",
  so a token has as many characters as its raw run;
* everything between tokens collapses to a single space, with no leading or
  trailing whitespace;
* normalizing already-normalized text is the identity.

A normalized ``Document`` holds no per-token objects: each token is its
64-bit word hash (``token_hashes``, computed here once) and the ``int32``
offset where it begins in the normalized text (``token_offsets``), 12 bytes
per token in all. The words are read back from ``normalized_text``, and
their offsets in the raw text from ``raw_token_runs``.

Normalization takes one path, in whole-text passes over the text's code
points. A 128-entry table classifies ASCII; only the distinct non-ASCII code
points are classified in Python. Word hashes are differences of one prefix sum
per text: with ``P[i] = sum(c_k * B**(k + 1) for k < i)`` modulo 2**64 over
the code points ``c_k``, the token ``[b, e)`` hashes to
``_mix((P[e] - P[b]) * B**-b)``, which is ``_mix(sum(c_(b+j) * B**(j + 1)))``
over its characters bit for bit. ``B = _CHAR_BASE`` is odd, so it is a unit
modulo 2**64 and ``B**-b`` exists.
"""

from __future__ import annotations

import hashlib
import logging
import sys
from dataclasses import dataclass, fields
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
_CHAR_BASE_INVERSE = pow(_CHAR_BASE, -1, 1 << 64)
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_METADATA_LISTS = ("field", "area", "discipline")

# Which ASCII code points are letters.
_ASCII_LETTERS = np.array([chr(c).isalpha() for c in range(128)])


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
        if len(self.text) >= 2**31 - 1:  # token_offsets runs one past the normalized text
            raise ValueError("text is too long for int32 offsets")
        if self.year is not None and (isinstance(self.year, bool) or not isinstance(self.year, int)):
            raise ValueError("year must be an integer")
        labels = [self.doi]
        for name in _METADATA_LISTS:
            values = getattr(self, name)
            if values is None:
                continue
            if not isinstance(values, tuple) or not all(isinstance(v, str) and v for v in values):
                raise ValueError(f"{name} must be an array of non-empty strings")
            labels.extend(values)
        try:  # JSON's "\ud800" escapes give lone surrogates, which no output file could hold
            "".join(labels).encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError("doi or metadata is not valid UTF-8") from None


@dataclass(frozen=True, eq=False)
class Document:
    """Normalized document: one word hash and one offset per token.

    ``token_hashes`` is a ``uint64`` array holding each token's word hash,
    the one token representation that retrieval and alignment read: token
    ``[b, e)`` of code points ``c`` hashes to ``_mix((P[e] - P[b]) * B**-b)``
    with ``P[i] = sum(c_k * B**(k + 1) for k < i)`` modulo 2**64, which equals
    ``_mix(sum(c_(b+j) * B**(j + 1)))`` because the odd ``B = _CHAR_BASE`` is
    invertible modulo 2**64. ``token_offsets`` is an ``int32`` array of
    ``n + 1`` entries: token ``i`` is ``normalized_text[token_offsets[i] :
    token_offsets[i + 1] - 1]``, and the last entry is
    ``len(normalized_text) + 1`` (0 for a document without tokens).
    Documents compare by identity.
    """

    doi: str
    token_hashes: np.ndarray
    token_offsets: np.ndarray
    normalized_text: str
    year: int | None = None
    field: tuple[str, ...] | None = None
    area: tuple[str, ...] | None = None
    discipline: tuple[str, ...] | None = None

    @property
    def doc_length(self) -> int:
        return len(self.normalized_text)

    @property
    def nbytes(self) -> int:
        """Bytes the document holds: its two arrays plus ``sys.getsizeof`` of its normalized text."""
        return self.token_hashes.nbytes + self.token_offsets.nbytes + sys.getsizeof(self.normalized_text)

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


def _code_points(text: str) -> np.ndarray:
    """The code points of ``text`` as a ``uint32`` array; a lone surrogate,
    which JSON's ``\\ud800`` escapes can produce, is kept as its code point."""
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")


def _powers(base: int, n: int) -> np.ndarray:
    """``base**k`` modulo 2**64 for ``k`` in ``range(n)``, as ``uint64``."""
    powers = np.empty(n, dtype=np.uint64)
    powers[0] = 1
    powers[1:] = base
    return np.cumprod(powers, out=powers)


def _span_hashes(codes: np.ndarray, begins: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Word hash of each span ``[begins[i], ends[i])`` over the code points
    ``codes``: one prefix sum of ``codes`` weighted by powers of
    ``_CHAR_BASE``, differenced at each span and shifted back to its first
    character by an inverse power (uint64 wraps)."""
    n = codes.size + 1
    prefix = np.zeros(n, dtype=np.uint64)
    np.multiply(codes, _powers(_CHAR_BASE, n)[1:], out=prefix[1:])
    np.cumsum(prefix[1:], out=prefix[1:])
    return _mix((prefix[ends] - prefix[begins]) * _powers(_CHAR_BASE_INVERSE, n)[begins])


def _token_offsets(lengths: np.ndarray) -> np.ndarray:
    """``Document.token_offsets`` of tokens of ``lengths`` joined by single spaces."""
    return np.concatenate(([0], np.cumsum(lengths + 1))).astype(np.int32)


def _token_hashes(tokens: Sequence[str]) -> np.ndarray:
    """One ``uint64`` word hash per token."""
    offsets = _token_offsets(np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens)))
    return _span_hashes(_code_points(" ".join(tokens)), offsets[:-1], offsets[1:] - 1)


def raw_token_runs(text: str) -> tuple[np.ndarray, str]:
    """``(runs, spaced)``: one ``[begin, end)`` row per raw token, a maximal
    run of alphabetic characters in ``text``, and ``text`` with each
    non-letter a space and U+0130 "İ" read as "i". ASCII is classified by
    table and each distinct non-ASCII code point once."""
    codes = _code_points(text)
    mask = np.zeros(codes.size + 2, dtype=bool)
    letter = mask[1:-1]
    _ASCII_LETTERS.take(codes, out=letter, mode="clip")  # code point 127 is no letter
    wide = codes >= 128
    if wide.any():
        points, inverse = np.unique(codes[wide], return_inverse=True)
        is_alpha = np.array([chr(c).isalpha() for c in points.tolist()], dtype=bool)
        letter[wide] = is_alpha[inverse]
        if 0x130 in points:
            codes = np.where(codes == 0x130, np.uint32(ord("i")), codes)
    runs = np.flatnonzero(mask[1:] != mask[:-1]).reshape(-1, 2)
    # No surrogate is a letter, so this decodes.
    return runs, np.where(letter, codes, 32).astype("<u4").tobytes().decode("utf-32-le")


def normalize(raw: RawDocument) -> Document:
    """Normalize a raw document: its tokens are its raw token runs,
    lowercased. Every letter but U+0130 lowercases to exactly one letter,
    and ``raw_token_runs`` reads U+0130 "İ" (lowercase "i" and a combining
    dot above) as "i". So the spaced text lowercases in place, and the
    normalized text is its letters plus one space after each token but the
    last."""
    runs, spaced = raw_token_runs(raw.text)
    lowered = _code_points(spaced.lower())
    keep = lowered != 32  # the letters
    keep[runs[:-1, 1]] = True  # the space after each token but the last

    return Document(
        doi=raw.doi,
        token_hashes=_span_hashes(lowered, runs[:, 0], runs[:, 1]),
        token_offsets=_token_offsets(runs[:, 1] - runs[:, 0]),
        normalized_text=lowered[keep].tobytes().decode("utf-32-le"),
        year=raw.year,
        field=raw.field,
        area=raw.area,
        discipline=raw.discipline,
    )


def length_filter(doc: Document, min_words: int = 1000, max_words: int = 60000) -> bool:
    """Keep documents whose token count lies in [min_words, max_words]."""
    return min_words <= len(doc.token_hashes) <= max_words


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
    """One corpus record as a ``RawDocument``, JSON arrays read as tuples;
    ``RawDocument`` raises ValueError when a value is malformed."""
    values = (record.get(f.name) for f in fields(RawDocument))
    return RawDocument(*(tuple(v) if isinstance(v, list) else v for v in values))


def document_record(doc: RawDocument | Document, text: str | None = None) -> dict:
    """Corpus-format record for a raw or a normalized document; pass text to
    emit a rewritten body (a ``Document`` keeps no raw text, so it needs one)."""
    record = {"doi": doc.doi, "text": doc.text if text is None else text}
    if doc.year is not None:
        record["year"] = doc.year
    for name in _METADATA_LISTS:
        values = getattr(doc, name)
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
