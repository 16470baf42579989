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

Normalization takes one path, ``normalize_corpus``, which works on batches
of about ``_BATCH_CHARS`` characters; ``normalize`` is that path on one
document. A batch's texts are joined by single spaces, and the batch takes
one pass each over its code points: encoding, letter classification,
``lower()``, prefix sum and decoding. Arithmetic classifies ASCII;
only the distinct non-ASCII code points are classified in Python. Each
``Document`` then gets copies of its slices. Word hashes are differences of
one prefix sum per batch: with ``P[i] = sum(c_k * B**(k + 1) for k < i)``
modulo 2**64 over the code points ``c_k``, the token ``[b, e)`` hashes to
``_mix((P[e] - P[b]) * B**-b)``, which is ``_mix(sum(c_(b+j) * B**(j + 1)))``
over its characters bit for bit, wherever the token sits. ``B =
_CHAR_BASE`` is odd, so it is a unit modulo 2**64 and ``B**-b`` exists. The
two power tables are built once per load. ``pipeline.load_documents``
normalizes records as they are read and drops each batch's raw documents
once it is normalized, so no raw text outlives its batch.

On the 1,000 documents (3.41M characters of text) of the benchmark's
``uniform-exact`` corpus at seed 7, ``load_documents`` takes 81-87 ms
in-process (Python 3.11, numpy 2.4, 2-vCPU host), against 127-131 ms when
each document was normalized alone after the whole corpus was read. Its
traced peak is 0.9 MB above the documents it returns, against 3.7 MB.
"""

from __future__ import annotations

import hashlib
import logging
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .jsonl import json_object, scan_lines

log = logging.getLogger(__name__)

# Word hash constants. A token hashes to splitmix64's finalizer of
# sum(ord(c_j) * _CHAR_BASE**(j + 1)) over its characters c_0, c_1, ...,
# modulo 2**64. The hash depends on the word only, not on the process, the
# corpus or the batch the word is hashed in.
_CHAR_BASE = 0x9E3779B97F4A7C15
_CHAR_BASE_INVERSE = pow(_CHAR_BASE, -1, 1 << 64)
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

_METADATA_LISTS = ("field", "area", "discipline")

# Characters normalized in one pass by ``normalize_corpus``. Loading the
# uniform-exact corpus (seed 7, in-process, best of 15 per run, two runs)
# took 98-99 ms at 2**12, 81 ms at 2**14 and 77-78 ms at 2**16; its traced
# peak above the documents was 0.3, 0.9 and 3.2 MB.
_BATCH_CHARS = 2**14


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


def _power_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(B**k, B**-k)`` modulo 2**64 for ``k`` in ``range(n)``, with ``B = _CHAR_BASE``."""
    return _powers(_CHAR_BASE, n), _powers(_CHAR_BASE_INVERSE, n)


def _span_hashes(
    codes: np.ndarray, begins: np.ndarray, ends: np.ndarray, powers: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Word hash of each span ``[begins[i], ends[i])`` over the code points
    ``codes``: one prefix sum of ``codes`` weighted by powers of
    ``_CHAR_BASE``, differenced at each span and shifted back to its first
    character by an inverse power (uint64 wraps). ``powers`` is
    ``_power_tables(m)`` for some ``m > codes.size``."""
    forward, inverse = powers
    n = codes.size + 1
    prefix = np.zeros(n, dtype=np.uint64)
    np.multiply(codes, forward[1:n], out=prefix[1:])
    np.cumsum(prefix[1:], out=prefix[1:])
    return _mix((prefix[ends] - prefix[begins]) * inverse[begins])


def _token_offsets(lengths: np.ndarray) -> np.ndarray:
    """``Document.token_offsets``, as ``int64``, of tokens of ``lengths`` joined by single spaces."""
    return np.concatenate(([0], np.cumsum(lengths + 1)))


def _token_hashes(tokens: Sequence[str]) -> np.ndarray:
    """One ``uint64`` word hash per token."""
    offsets = _token_offsets(np.fromiter(map(len, tokens), dtype=np.int64, count=len(tokens)))
    codes = _code_points(" ".join(tokens))
    return _span_hashes(codes, offsets[:-1], offsets[1:] - 1, _power_tables(codes.size + 1))


def raw_token_runs(text: str) -> tuple[np.ndarray, str]:
    """``(runs, spaced)``: one ``[begin, end)`` row per raw token, a maximal
    run of alphabetic characters in ``text``, and ``text`` with each
    non-letter a space and U+0130 "İ" read as "i". ASCII is classified by
    arithmetic and each distinct non-ASCII code point once."""
    codes = _code_points(text)
    mask = np.zeros(codes.size + 2, dtype=bool)
    letter = mask[1:-1]
    np.less((codes | 32) - 97, 26, out=letter)  # A-Z and a-z; no code point >= 128 passes
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


def _normalize_batch(raws: Sequence[RawDocument], powers: tuple[np.ndarray, np.ndarray]) -> list[Document]:
    """Normalize ``raws`` in one pass over their texts joined by single
    spaces. A space is no letter, so no token spans two documents, and
    ``str.lower`` reads a final sigma as it does in the document alone.

    The tokens are the raw token runs, lowercased. Every letter but U+0130
    lowercases to exactly one letter, and ``raw_token_runs`` reads U+0130
    "İ" (lowercase "i" and a combining dot above) as "i". So the spaced text
    lowercases in place, and the normalized text is its letters plus one
    space after each token but the last: each document's normalized text is
    one slice of it. ``powers`` is ``_power_tables(m)`` for some ``m``
    above the joined length. Each ``Document`` holds copies, so nothing of
    the batch outlives the call."""
    runs, spaced = raw_token_runs(" ".join(raw.text for raw in raws))
    lowered = _code_points(spaced.lower())
    keep = lowered != 32  # the letters
    keep[runs[:-1, 1]] = True  # the space after each token but the last
    hashes = _span_hashes(lowered, runs[:, 0], runs[:, 1], powers)
    offsets = _token_offsets(runs[:, 1] - runs[:, 0])
    normalized = lowered[keep].tobytes().decode("utf-32-le")

    # Document i starts at starts[i] of the joined text; its tokens are the
    # runs that begin between starts[i] and starts[i + 1].
    starts = np.cumsum([0] + [len(raw.text) + 1 for raw in raws])
    firsts = np.searchsorted(runs[:, 0], starts).tolist()
    text_starts = offsets[firsts].tolist()
    docs = []
    for i, raw in enumerate(raws):
        first, last = firsts[i], firsts[i + 1]
        begin = text_starts[i]
        docs.append(
            Document(
                doi=raw.doi,
                token_hashes=hashes[first:last].copy(),
                token_offsets=(offsets[first : last + 1] - begin).astype(np.int32),
                normalized_text=normalized[begin : text_starts[i + 1] - 1] if last > first else "",
                year=raw.year,
                field=raw.field,
                area=raw.area,
                discipline=raw.discipline,
            )
        )
    return docs


def normalize(raw: RawDocument) -> Document:
    """Normalize one raw document: ``normalize_corpus`` of it alone."""
    return _normalize_batch([raw], _power_tables(len(raw.text) + 1))[0]


def _batches(raws: Iterable[RawDocument]) -> Iterator[list[RawDocument]]:
    """``raws`` in order, in lists whose texts hold at least ``_BATCH_CHARS``
    characters counting one space after each; the last list may hold fewer."""
    batch: list[RawDocument] = []
    size = 0
    for raw in raws:
        batch.append(raw)
        size += len(raw.text) + 1
        if size >= _BATCH_CHARS:
            yield batch
            batch, size = [], 0
    if batch:
        yield batch


def normalize_corpus(raws: Iterable[RawDocument]) -> Iterator[Document]:
    """``normalize`` of each raw document, in order, one batch of about
    ``_BATCH_CHARS`` characters at a time. The power tables are built once;
    only a batch holding a document of more than ``_BATCH_CHARS`` characters
    can outgrow them. Each batch's raw documents are dropped once it is
    normalized, so, read from a lazy ``raws``, no raw text outlives its
    batch."""
    powers = _power_tables(2 * _BATCH_CHARS)
    for batch in _batches(raws):
        size = sum(len(raw.text) + 1 for raw in batch)
        if powers[0].size < size:
            powers = _power_tables(size)
        docs = _normalize_batch(batch, powers)
        batch.clear()
        yield from docs


def length_filter(doc: Document, min_words: int = 1000, max_words: int = 60000) -> bool:
    """Keep documents whose token count lies in [min_words, max_words]."""
    return min_words <= len(doc.token_hashes) <= max_words


@dataclass
class LoadReport:
    """What loading a corpus saw; ``digest`` is the sha256 of each file's
    name followed by its bytes, over the files in load order."""

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


def read_corpus(path: str | Path, report: LoadReport) -> Iterator[RawDocument]:
    """The well-formed records of a corpus file, or of a directory's
    ``*.jsonl`` files in name order, as raw documents in file order.

    Malformed lines are logged with their line number and skipped. A doi
    seen before is logged and yielded again: the consumer keeps the last
    record of each doi. An unreadable file is fatal. ``report`` counts as
    the records are read and gets its ``digest`` once the last file is read;
    each file is read once, so the bytes parsed are the bytes hashed.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.jsonl"))
        if not files:
            raise FileNotFoundError(f"no *.jsonl files in {path}")
    else:
        files = [path]

    digest = hashlib.sha256()
    seen: set[str] = set()
    for file in files:
        digest.update(file.name.encode("utf-8"))
        for lineno, doc, error in scan_lines(file, lambda line: parse_record(json_object(line)), digest):
            if error is not None:
                report.malformed += 1
                log.error("%s:%d: skipping malformed record: %s", file, lineno, error)
                continue
            report.records += 1
            if doc.doi in seen:
                report.duplicates += 1
                log.warning("%s:%d: duplicate doi %r (last record wins)", file, lineno, doc.doi)
            seen.add(doc.doi)
            yield doc
    report.digest = digest.hexdigest()


def load_corpus_report(path: str | Path) -> tuple[list[RawDocument], LoadReport]:
    """Load raw documents in file order (``read_corpus``); of a doi seen
    twice, the last record is kept at the place of the first."""
    report = LoadReport()
    by_doi = {doc.doi: doc for doc in read_corpus(path, report)}
    return list(by_doi.values()), report
