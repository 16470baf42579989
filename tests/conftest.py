import random
from collections import Counter

import pytest

from textreuse.alignment import align_pair
from textreuse.ingest import RawDocument, normalize
from textreuse.retrieval import (
    build_index,
    retrieve_candidates,
    retrieve_candidates_exact,
    sketch_corpus,
)


def make_doc(text, doi="doc-a", **metadata):
    return normalize(RawDocument(doi=doi, text=text, **metadata))


def doc_from_tokens(tokens, doi="doc-a", **metadata):
    return make_doc(" ".join(tokens), doi=doi, **metadata)


def random_words(rng, count, vocab):
    return [rng.choice(vocab) for _ in range(count)]


def alpha_words(prefix, count):
    """Distinct purely-alphabetic tokens (digits would be normalized away)."""
    out = []
    for i in range(count):
        n, suffix = i, ""
        for _ in range(3):
            suffix = chr(97 + n % 26) + suffix
            n //= 26
        out.append(prefix + suffix)
    return out


def brute_force_posting_pairs(index):
    """Oracle for minhash evidence: every pair of entries with different dois
    in every posting, counted per canonical doi pair."""
    evidence = Counter()
    for entries in index.postings.values():
        for i, (doi_i, _) in enumerate(entries):
            for doi_j, _ in entries[i + 1 :]:
                if doi_i != doi_j:
                    evidence[min(doi_i, doi_j), max(doi_i, doi_j)] += 1
    return dict(evidence)


def detect_cases(corpus, retrieval_mode="exact", passage_size=50, min_shared_terms=9,
                 num_hashes=10, seed=1, params=None):
    """In-memory detection flow: normalize -> retrieve -> align."""
    docs = [normalize(raw) for raw in corpus]
    if retrieval_mode == "exact":
        pairs = retrieve_candidates_exact(docs, passage_size, min_shared_terms)
    else:
        index = build_index(sketch_corpus(docs, passage_size, num_hashes, seed))
        pairs = retrieve_candidates(index)
    by_doi = {d.doi: d for d in docs}
    cases = []
    for pair in sorted(pairs, key=lambda p: p.key):
        cases.extend(align_pair(by_doi[pair.doi_a], by_doi[pair.doi_b], params))
    return docs, cases


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def vocab():
    # deterministic synthetic vocabulary, purely alphabetic
    rng = random.Random(1234)
    words = set()
    while len(words) < 500:
        words.add("".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(5)))
    return sorted(words)
