import itertools
import math
import os
import random
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import example, settings
from hypothesis import strategies as st

from textreuse.alignment import _TOKEN_BASE, align_pair
from textreuse.ingest import _CHAR_BASE, _MIX_A, _MIX_B, RawDocument, normalize
from textreuse.retrieval import MinHasher, retrieve_candidates_exact


# CI selects this profile with HYPOTHESIS_PROFILE=ci; a failing example is
# printed as a blob that @reproduce_failure replays.
settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

_MASK = (1 << 64) - 1

# ASCII-only text, which the character table classifies without any
# per-code-point Python work; plain st.text() draws are mostly non-ASCII.
ASCII_TEXT = st.text(st.characters(max_codepoint=127), max_size=300)
# ASCII next to one non-ASCII letter or separator, and a text long enough
# that the per-document power tables run past 2**16.
_MIXED_TEXTS = ["naïve—ΟΔΟΣ", "a\u00a0b", "ﬁne İstanbul x²", "naïve ΟΔΟΣ. " * 6000]
# Characters at the edges of the normalization rules: a capital whose lowercase is two
# characters, final sigma, a titlecase digraph, a ligature, a wordish
# non-letter, a combining mark, a case-ignorable modifier letter, accents,
# digits and punctuation.
EDGE_ALPHABET = "aZ İΣσς ǅﬁ²\u0345ʰé.'1\t"


def mixed_examples(test):
    """Runs a property test on every text of ``_MIXED_TEXTS`` too."""
    for text in reversed(_MIXED_TEXTS):
        test = example(text)(test)
    return test


def splitmix(x):
    """splitmix64's finalizer of a Python int below 2**64."""
    x ^= x >> 30
    x = (x * _MIX_A) & _MASK
    x ^= x >> 27
    x = (x * _MIX_B) & _MASK
    return x ^ (x >> 31)


def ngram_hash(tokens):
    """Scalar reference for ``alignment.window_hashes``: the hash of one
    window, from its tokens alone, in Python integers."""
    value = 0
    for token in tokens:
        chars = sum(ord(c) * pow(_CHAR_BASE, j + 1, 1 << 64) for j, c in enumerate(token))
        value = (value * _TOKEN_BASE + splitmix(chars & _MASK)) & _MASK
    return value


def constant_window_hashes(doc, ngram_size=8, ngram_overlap=7):
    """Stand-in for ``window_hashes`` under which every window collides."""
    return np.zeros(len(range(0, len(doc.tokens) - ngram_size + 1, ngram_size - ngram_overlap)), np.uint64)


def token_spans(doc):
    """Reference ``[begin, end)`` of each word of ``doc.tokens`` in
    ``normalized_text``, found by searching the text for the words in order."""
    spans, end = [], 0
    for token in doc.tokens:
        begin = doc.normalized_text.index(token, end)
        end = begin + len(token)
        spans.append((begin, end))
    return spans


def reference_normalize(text):
    """Independent single-pass character walk applying the stated rules."""
    tokens = []
    current = []
    for ch in text:
        if ch.isalpha():
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    out = []
    for run in tokens:
        token = "".join(c for c in run.lower() if c.isalpha())
        if token:
            out.append(token)
    return out


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


def passage_term_sets(doc, passage_size):
    """Distinct-term set of each consecutive ``passage_size``-token passage."""
    return [frozenset(doc.tokens[i : i + passage_size]) for i in range(0, len(doc.tokens), passage_size)]


def exact_pair_visits(docs, passage_size):
    """Pair visits of exact mode's join: for each term, the pairs of
    passages holding it."""
    holders = Counter(term for doc in docs for terms in passage_term_sets(doc, passage_size) for term in terms)
    return sum(math.comb(n, 2) for n in holders.values())


def qualifying_passage_pairs(docs, passage_size, min_shared_terms):
    """The passage pairs of a corpus, within one document included, that
    share at least ``min_shared_terms`` distinct terms."""
    term_sets = [terms for doc in docs for terms in passage_term_sets(doc, passage_size)]
    return sum(len(x & y) >= min_shared_terms for x, y in itertools.combinations(term_sets, 2))


def brute_force_posting_pairs(postings):
    """Oracle for minhash evidence: every pair of entries with different dois
    in every posting (a list of dois, one per passage), counted per
    canonical doi pair."""
    evidence = Counter()
    for entries in postings.values():
        for i, doi_i in enumerate(entries):
            for doi_j in entries[i + 1 :]:
                if doi_i != doi_j:
                    evidence[min(doi_i, doi_j), max(doi_i, doi_j)] += 1
    return dict(evidence)


def ngram_holders(docs, n):
    """The dois holding each word n-gram of ``docs``."""
    holders = defaultdict(set)
    for doc in docs:
        for i in range(len(doc.tokens) - n + 1):
            holders[doc.tokens[i : i + n]].add(doc.doi)
    return holders


def sketch_postings(sketches):
    """Dict-of-lists posting index over (doi, sketch values) pairs: each
    distinct value of a sketch lists the sketch's doi once."""
    postings = defaultdict(list)
    for doi, values in sketches:
        for value in set(values):
            postings[value].append(doi)
    return postings


def capped_postings(postings, df_cap):
    """The postings held by at most ``df_cap`` distinct dois."""
    return {value: entries for value, entries in postings.items() if len(set(entries)) <= df_cap}


def minhash_reference(docs, passage_size=50, num_hashes=10, seed=0, df_cap=1000):
    """Scalar reference for minhash mode, one passage at a time: the sketch
    of each passage with at least two distinct terms is ``MinHasher.values``
    of its term set, and each distinct sketch value lists the passage's doi
    once. Returns (evidence by canonical doi pair, hash_postings,
    dropped_hashes, pair_visits), where pair_visits counts the pairs of
    distinct dois in each kept posting."""
    hasher = MinHasher(num_hashes, seed)
    postings = sketch_postings(
        (doc.doi, hasher.values(terms).tolist())
        for doc in docs
        for terms in passage_term_sets(doc, passage_size)
        if len(terms) >= 2
    )
    kept = capped_postings(postings, df_cap)
    visits = sum(math.comb(len(set(entries)), 2) for entries in kept.values())
    return brute_force_posting_pairs(kept), len(kept), len(postings) - len(kept), visits


def detect_cases(corpus, passage_size=50, min_shared_terms=9, params=None):
    """In-memory detection flow: normalize -> retrieve (exact) -> align."""
    docs = [normalize(raw) for raw in corpus]
    pairs = retrieve_candidates_exact(docs, passage_size, min_shared_terms)
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
