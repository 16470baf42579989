"""Input generation for the benchmark workloads.

Every input is synthetic with exact gold and is a pure function of the
workload seed. The program under test only ever sees the files written here:
``corpus.jsonl``, ``gold.jsonl`` and, for ``zipf-align``, the frozen
all-pairs checkpoint ``checkpoint.tsv``.
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass
from pathlib import Path

from textreuse.ingest import RawDocument, document_record, normalize
from textreuse.jsonl import write_jsonl
from textreuse.metrics import GoldAnnotation, GoldSpan, write_gold
from textreuse.retrieval import CandidatePair, write_candidates
from textreuse.synthgen import GenSpec, ObfuscationIntensity, generate, obfuscate_random

WORKLOADS = ("uniform-exact", "zipf-retrieve", "zipf-align")

# Random obfuscation level of the obfuscated half of the Zipfian plants.
ZIPF_OBFUSCATION = 0.3
# The Zipfian vocabulary is fixed; the workload seed draws documents and
# plants. With a fixed vocabulary the words that win the min-hashes, and so
# the posting lengths retrieval enumerates, do not change from seed to seed.
ZIPF_VOCAB_SEED = 0


@dataclass(frozen=True)
class Size:
    """Corpus shape of one workload."""

    docs: int
    doc_tokens: tuple[int, int]
    plants: int
    vocab_size: int = 20000
    passage_tokens: tuple[int, int] = (32, 48)


# Sizes are chosen so that one run of the program takes a few seconds on
# 2 CPUs, which lets a benchmark run repeat it and report a median. The
# shapes that matter are kept: 1,000 documents on uniform-exact (pruning
# ratio 1 - 100/499,500), every pair kept by retrieval on zipf-retrieve, and
# 80 documents on zipf-align (each document re-hashed in 79 pairs, with as
# many plants as documents allow, so quality varies less between seeds).
SIZES = {
    "full": {
        "uniform-exact": Size(docs=1000, doc_tokens=(300, 600), plants=100),
        "zipf-retrieve": Size(docs=300, doc_tokens=(300, 600), plants=20),
        "zipf-align": Size(docs=80, doc_tokens=(150, 300), plants=40),
    },
    "smoke": {
        "uniform-exact": Size(docs=30, doc_tokens=(60, 120), plants=4, vocab_size=2000),
        "zipf-retrieve": Size(docs=20, doc_tokens=(60, 120), plants=4, vocab_size=2000),
        "zipf-align": Size(docs=12, doc_tokens=(60, 120), plants=4, vocab_size=2000),
    },
}


@dataclass(frozen=True)
class Inputs:
    corpus: Path
    checkpoint: Path | None
    gold_annotations: list[GoldAnnotation]
    doc_count: int


def build_inputs(workload: str, size: Size, seed: int, out_dir: Path) -> Inputs:
    """Write the workload's input files under ``out_dir``; same seed, same bytes."""
    if workload == "uniform-exact":
        spec = GenSpec(
            doc_count=size.docs,
            doc_tokens=size.doc_tokens,
            vocab_size=size.vocab_size,
            case_count=size.plants,
            passage_tokens=size.passage_tokens,
            seed=seed,
        )
        corpus, gold = generate(spec)
        planted = _synthgen_planted(corpus, gold)
    else:
        corpus, gold, planted = zipf_corpus(size, seed)
    check_gold(corpus, gold, planted)

    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_path = out_dir / "corpus.jsonl"
    gold_path = out_dir / "gold.jsonl"
    write_jsonl(corpus_path, (document_record(d) for d in corpus))
    write_gold(gold_path, gold)
    checkpoint = None
    if workload == "zipf-align":
        checkpoint = out_dir / "checkpoint.tsv"
        dois = sorted(d.doi for d in corpus)
        write_candidates(checkpoint, (CandidatePair(a, b) for a, b in itertools.combinations(dois, 2)))
    return Inputs(corpus_path, checkpoint, gold, len(corpus))


def zipf_vocab(size: int, rng: random.Random) -> list[str]:
    """Distinct lowercase words, so normalization leaves the text unchanged."""
    seen: set[str] = set()
    vocab: list[str] = []
    while len(vocab) < size:
        word = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 9)))
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    return vocab


def zipf_corpus(
    size: Size, seed: int
) -> tuple[list[RawDocument], list[GoldAnnotation], dict[str, tuple[list[str], list[str]]]]:
    """Zipfian background text (weight of rank r is 1/r) with planted reuse.

    The first half of the plants are verbatim copies, the rest pass through
    random obfuscation. Each document takes part in at most one plant, so
    the gold set is exact. Returns (corpus, gold, planted) where ``planted``
    maps each gold ``pair_id`` to the (side a, side b) token lists its spans
    must slice out of the normalized texts.
    """
    if 2 * size.plants > size.docs:
        raise ValueError("each document takes part in at most one plant")
    vocab = zipf_vocab(size.vocab_size, random.Random(ZIPF_VOCAB_SEED))
    rng = random.Random(seed)
    cum_weights = list(itertools.accumulate(1.0 / rank for rank in range(1, len(vocab) + 1)))
    width = max(5, len(str(size.docs)))
    dois = [f"zipf-{i:0{width}d}" for i in range(size.docs)]
    docs = [
        rng.choices(vocab, cum_weights=cum_weights, k=rng.randint(*size.doc_tokens))
        for _ in range(size.docs)
    ]

    intensity = ObfuscationIntensity.uniform(ZIPF_OBFUSCATION)
    participants = rng.sample(range(size.docs), 2 * size.plants)
    gold: list[GoldAnnotation] = []
    planted: dict[str, tuple[list[str], list[str]]] = {}
    for index in range(size.plants):
        src, tgt = participants[2 * index], participants[2 * index + 1]
        length = rng.randint(*size.passage_tokens)
        start = rng.randint(0, len(docs[src]) - length)
        passage = docs[src][start : start + length]
        obfuscated = index >= size.plants // 2
        copy = obfuscate_random(passage, intensity, rng, vocab)[0] if obfuscated else list(passage)
        if not copy:
            continue
        insert_at = rng.randint(0, len(docs[tgt]))
        docs[tgt][insert_at:insert_at] = copy

        src_span = _char_span(docs[src], start, length)
        tgt_span = _char_span(docs[tgt], insert_at, len(copy))
        pair_id = f"pair-{index:05d}"
        if dois[src] < dois[tgt]:
            doi_a, doi_b, span = dois[src], dois[tgt], GoldSpan(*src_span, *tgt_span)
            planted[pair_id] = (passage, copy)
        else:
            doi_a, doi_b, span = dois[tgt], dois[src], GoldSpan(*tgt_span, *src_span)
            planted[pair_id] = (copy, passage)
        gold.append(
            GoldAnnotation(
                pair_id=pair_id,
                doi_a=doi_a,
                doi_b=doi_b,
                spans=(span,),
                strategy="random" if obfuscated else "none",
            )
        )

    corpus = [
        RawDocument(doi=doi, text=" ".join(tokens), year=2000 + i % 20)
        for i, (doi, tokens) in enumerate(zip(dois, docs))
    ]
    gold.sort(key=lambda g: (g.doi_a, g.doi_b))
    return corpus, gold, planted


def _char_span(tokens: list[str], start: int, count: int) -> tuple[int, int]:
    """Character span of tokens[start:start+count] in the space-joined text."""
    begin = sum(len(t) for t in tokens[:start]) + start
    length = sum(len(t) for t in tokens[start : start + count]) + count - 1
    return begin, begin + length


def _synthgen_planted(
    corpus: list[RawDocument], gold: list[GoldAnnotation]
) -> dict[str, tuple[list[str], list[str]]]:
    """Verbatim synthgen plants: both sides hold the same tokens, read off side a."""
    text = {d.doi: d.text for d in corpus}
    planted = {}
    for ann in gold:
        (span,) = ann.spans
        tokens = text[ann.doi_a][span.begin_a : span.end_a].split(" ")
        planted[ann.pair_id] = (tokens, tokens)
    return planted


def check_gold(
    corpus: list[RawDocument],
    gold: list[GoldAnnotation],
    planted: dict[str, tuple[list[str], list[str]]],
) -> None:
    """Every gold span must slice exactly its planted tokens out of the normalized text.

    The generated texts are already normalized, which is checked too: the
    benchmark's output checks then read normalized text off the raw corpus.
    """
    normalized = {}
    for doc in corpus:
        normalized[doc.doi] = normalize(doc).normalized_text
        if normalized[doc.doi] != doc.text:
            raise AssertionError(f"generated text of {doc.doi} is not in normalized form")
    if len(gold) != len(planted):
        raise AssertionError("gold and planted token lists disagree in size")
    for ann in gold:
        tokens_a, tokens_b = planted[ann.pair_id]
        for span in ann.spans:
            got_a = normalized[ann.doi_a][span.begin_a : span.end_a]
            got_b = normalized[ann.doi_b][span.begin_b : span.end_b]
            if got_a != " ".join(tokens_a) or got_b != " ".join(tokens_b):
                raise AssertionError(f"gold span of {ann.pair_id} does not slice its planted tokens")


def planted_pairs(gold: list[GoldAnnotation]) -> set[tuple[str, str]]:
    return {(g.doi_a, g.doi_b) for g in gold}

