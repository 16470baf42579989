"""Synthetic evaluation corpora with exact ground truth.

Background documents are i.i.d. draws from a synthetic vocabulary, which
makes accidental n-gram matches between unrelated documents vanishingly
rare; every planted case is therefore recoverable from its gold coordinates
alone. Reuse is planted by copying a source span into a target document,
optionally passing it through random obfuscation (local shuffles, insertions,
deletions, replacements of 1-3 token runs) first.

Each document takes part in at most one planted case. That keeps the gold
set exact: a span copied into two targets, or a source region that itself
contains planted text, would create reuse between pairs the gold set does
not know about.
"""

from __future__ import annotations

import math
import random
import string
from dataclasses import asdict, dataclass, field

from .ingest import RawDocument
from .metrics import GoldAnnotation, GoldSpan

_FIELD_CATALOG = (
    ("biology", "life sciences", "natural sciences"),
    ("chemistry", "molecular chemistry", "natural sciences"),
    ("physics", "particle physics", "natural sciences"),
    ("medicine", "clinical medicine", "life sciences"),
    ("computer science", "systems engineering", "engineering"),
    ("linguistics", "language studies", "humanities"),
    ("economics", "social and behavioural sciences", "social sciences"),
    ("mathematics", "mathematical sciences", "natural sciences"),
)


@dataclass(frozen=True)
class ObfuscationIntensity:
    """Per-token probabilities for each edit operation."""

    shuffle: float = 0.0
    add: float = 0.0
    delete: float = 0.0
    replace: float = 0.0

    def __post_init__(self):
        for name in ("shuffle", "add", "delete", "replace"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability must be in [0, 1]")
        if self.total > 1.0:
            raise ValueError("operation probabilities must sum to <= 1")

    @property
    def total(self) -> float:
        return self.shuffle + self.add + self.delete + self.replace

    @classmethod
    def uniform(cls, level: float) -> "ObfuscationIntensity":
        """Total edit-event probability ``level``, split evenly over the ops."""
        return cls(shuffle=level / 4, add=level / 4, delete=level / 4, replace=level / 4)


@dataclass(frozen=True)
class GenSpec:
    """Recipe for one synthetic corpus; the seed fixes it byte-exactly."""

    doc_count: int
    doc_tokens: tuple[int, int] = (1000, 2000)
    vocab_size: int = 10000
    reuse_rate: float | None = None
    case_count: int | None = None
    passage_tokens: tuple[int, int] = (32, 48)
    obfuscation: str = "none"
    intensity: ObfuscationIntensity = field(default_factory=ObfuscationIntensity)
    seed: int = 0

    def planted_cases(self) -> int:
        if self.case_count is not None:
            return self.case_count
        if self.reuse_rate is not None:
            return round(self.reuse_rate * math.comb(self.doc_count, 2))
        return 0

    def validate(self) -> None:
        if self.doc_count < 1:
            raise ValueError("doc_count must be >= 1")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        for name, (lo, hi) in (("doc_tokens", self.doc_tokens), ("passage_tokens", self.passage_tokens)):
            if lo < 1 or hi < lo:
                raise ValueError(f"{name} range must be non-empty and positive")
        if self.reuse_rate is not None and not 0.0 <= self.reuse_rate <= 1.0:
            raise ValueError("reuse_rate must be in [0, 1]")
        if self.case_count is not None and self.reuse_rate is not None:
            raise ValueError("give either reuse_rate or case_count, not both")
        if self.obfuscation not in ("none", "random"):
            raise ValueError("obfuscation must be 'none' or 'random'")
        if self.passage_tokens[1] > self.doc_tokens[0]:
            raise ValueError("planted passage may not be longer than the shortest document")
        if 2 * self.planted_cases() > self.doc_count:
            raise ValueError(
                "corpus too small: each document participates in at most one planted case"
            )


def _make_vocab(size: int, rng: random.Random) -> list[str]:
    seen: set[str] = set()
    vocab: list[str] = []
    while len(vocab) < size:
        word = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(4, 9)))
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    return vocab


def obfuscate_random(
    tokens: list[str],
    intensity: ObfuscationIntensity,
    rng: random.Random,
    vocab: list[str] | None = None,
) -> tuple[list[str], int]:
    """Apply random edits to a token sequence; returns (tokens, edit count).

    At each position an edit event fires with probability ``intensity.total``
    and the operation is drawn proportionally to the per-op probabilities;
    affected runs are 1-3 tokens long. Insertions and replacements draw from
    ``vocab`` (defaults to the sequence's own distinct tokens).
    """
    if not tokens:
        raise ValueError("cannot obfuscate an empty token sequence")
    if vocab is None:
        vocab = sorted(set(tokens))
    total = intensity.total
    out: list[str] = []
    edits = 0
    i = 0
    n = len(tokens)
    while i < n:
        r = rng.random()
        if r >= total:
            out.append(tokens[i])
            i += 1
            continue
        run = rng.randint(1, 3)
        if r < intensity.shuffle:
            window = list(tokens[i : i + run])
            permuted = window[:]
            rng.shuffle(permuted)
            edits += sum(1 for x, y in zip(window, permuted) if x != y)
            out.extend(permuted)
            i += len(window)
        elif r < intensity.shuffle + intensity.add:
            added = [rng.choice(vocab) for _ in range(run)]
            out.extend(added)
            out.append(tokens[i])
            edits += run
            i += 1
        elif r < intensity.shuffle + intensity.add + intensity.delete:
            removed = min(run, n - i)
            edits += removed
            i += removed
        else:
            span = min(run, n - i)
            out.extend(rng.choice(vocab) for _ in range(span))
            edits += span
            i += span
    return out, edits


def _char_span(tokens: list[str], start: int, count: int) -> tuple[int, int]:
    """Character span of tokens[start:start+count] in the space-joined text."""
    begin = sum(len(t) for t in tokens[:start]) + start
    length = sum(len(t) for t in tokens[start : start + count]) + max(0, count - 1)
    return begin, begin + length


def generate(spec: GenSpec) -> tuple[list[RawDocument], list[GoldAnnotation]]:
    """Generate (corpus, gold annotations) for the given recipe."""
    spec.validate()
    rng = random.Random(spec.seed)
    vocab = _make_vocab(spec.vocab_size, rng)

    width = max(5, len(str(spec.doc_count)))
    dois = [f"synth-{i:0{width}d}" for i in range(spec.doc_count)]
    docs = [rng.choices(vocab, k=rng.randint(*spec.doc_tokens)) for _ in range(spec.doc_count)]
    metadata = []
    for _ in range(spec.doc_count):
        fld, area, discipline = rng.choice(_FIELD_CATALOG)
        metadata.append((rng.randint(1900, 2018), (fld,), (area,), (discipline,)))

    n_cases = spec.planted_cases()
    participants = rng.sample(range(spec.doc_count), 2 * n_cases)
    gold: list[GoldAnnotation] = []
    for case_index in range(n_cases):
        src = participants[2 * case_index]
        tgt = participants[2 * case_index + 1]
        length = rng.randint(*spec.passage_tokens)
        start = rng.randint(0, len(docs[src]) - length)
        passage = docs[src][start : start + length]
        if spec.obfuscation == "random":
            planted, _ = obfuscate_random(passage, spec.intensity, rng, vocab)
        else:
            planted = list(passage)
        if not planted:
            continue
        insert_at = rng.randint(0, len(docs[tgt]))
        docs[tgt] = docs[tgt][:insert_at] + planted + docs[tgt][insert_at:]

        src_span = _char_span(docs[src], start, length)
        tgt_span = _char_span(docs[tgt], insert_at, len(planted))
        if dois[src] < dois[tgt]:
            doi_a, doi_b, span = dois[src], dois[tgt], GoldSpan(*src_span, *tgt_span)
        else:
            doi_a, doi_b, span = dois[tgt], dois[src], GoldSpan(*tgt_span, *src_span)
        gold.append(
            GoldAnnotation(
                pair_id=f"pair-{case_index:05d}",
                doi_a=doi_a,
                doi_b=doi_b,
                spans=(span,),
                strategy=spec.obfuscation if spec.obfuscation == "random" else "none",
            )
        )

    corpus = [
        RawDocument(
            doi=dois[i],
            text=" ".join(docs[i]),
            year=metadata[i][0],
            field=metadata[i][1],
            area=metadata[i][2],
            discipline=metadata[i][3],
        )
        for i in range(spec.doc_count)
    ]
    gold.sort(key=lambda g: (g.doi_a, g.doi_b))
    return corpus, gold


def spec_record(spec: GenSpec) -> dict:
    """Manifest entry capturing the generation recipe."""
    return asdict(spec)
