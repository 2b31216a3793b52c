"""Workload definitions, seeded inputs and the independent answer oracle.

Inputs come only from the workload name and ``--seed``; nothing here reads
``fzsearch.bench``, so edits to the program's own harness cannot shift them.
The oracle finds neighbours with its own deletion-signature table and
confirms each with ``edit_distance``; it never calls the program's search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ALPHABET = "abcdefghijklmnopqrstuvwxyz"
MEAN_KEYWORD_LEN = 7.44  # words are gaussian around this unless a workload sets lengths
# Query mix: share of indexed keywords, then of one-edit neighbours; the
# rest are unrelated random words.
INDEXED_SHARE = 0.3
NEIGHBOUR_SHARE = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    keywords: int
    kind: str  # "listing", "trie" or "auth"
    method: str  # "wildcard" or "gram"
    blinded: bool
    proofs: bool
    # Full set-ups per untraced run (set-up metrics are their medians): as
    # many as a run's time budget allows at this workload's build cost.
    setup_reps: int
    # Uniform word lengths (lo, hi) instead of the gaussian default: short
    # words share deletion signatures often, so gram false positives are material.
    word_lengths: tuple[int, int] | None = None
    # Queries in the pool; the user phase answers each at least once.  A larger
    # pool steadies the false-positive ratio across seeds.
    pool: int = 512
    d: int = 1
    k: int = 1
    epoch: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("listing_wildcard", 5000, "listing", "wildcard", blinded=False, proofs=False,
                 setup_reps=5),
        Workload("auth_verified_blinded", 400, "auth", "wildcard", blinded=True, proofs=True,
                 setup_reps=5, epoch=1),
        Workload("trie_gram", 1000, "trie", "gram", blinded=False, proofs=False, setup_reps=5,
                 word_lengths=(3, 6), pool=8192),
    )
}

# Smoke runs keep every code path but shrink the corpus and the query pool.
SMOKE_KEYWORDS = 40
SMOKE_POOL = 24


def _rng(workload: str, seed: int, purpose: str) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}/{purpose}")


def _random_word(rng: random.Random, lengths: tuple[int, int] | None) -> str:
    if lengths:
        length = rng.randint(*lengths)
    else:
        length = max(3, round(rng.gauss(MEAN_KEYWORD_LEN, 2.0)))
    return "".join(rng.choice(ALPHABET) for _ in range(length))


def make_corpus(w: Workload, seed: int, count: int) -> dict[str, list[bytes]]:
    """``count`` distinct random keywords, one file id each."""
    rng = _rng(w.name, seed, "corpus")
    corpus: dict[str, list[bytes]] = {}
    while len(corpus) < count:
        word = _random_word(rng, w.word_lengths)
        if word not in corpus:
            corpus[word] = [b"doc%05d" % len(corpus)]
    return corpus


def _one_edit(word: str, rng: random.Random) -> str:
    ops = ["sub", "ins"] + (["del"] if len(word) > 3 else [])
    op = rng.choice(ops)
    if op == "ins":
        i = rng.randrange(len(word) + 1)
        return word[:i] + rng.choice(ALPHABET) + word[i:]
    i = rng.randrange(len(word))
    if op == "sub":
        return word[:i] + rng.choice(ALPHABET.replace(word[i], "")) + word[i + 1 :]
    return word[:i] + word[i + 1 :]


def make_queries(w: Workload, seed: int, corpus: dict[str, list[bytes]], count: int) -> list[str]:
    """The query pool: indexed words, one-edit neighbours and unrelated words."""
    rng = _rng(w.name, seed, "queries")
    words = sorted(corpus)
    out = []
    for _ in range(count):
        roll = rng.random()
        base = rng.choice(words)
        if roll < INDEXED_SHARE:
            out.append(base)
        elif roll < INDEXED_SHARE + NEIGHBOUR_SHARE:
            out.append(_one_edit(base, rng))
        else:
            out.append(_random_word(rng, w.word_lengths))
    return out


def _deletions(word: str, k: int) -> set[str]:
    level = {word}
    out = {word}
    for _ in range(k):
        level = {w[:i] + w[i + 1 :] for w in level for i in range(len(w))}
        out |= level
    return out


class Oracle:
    """Expected (fid, keyword) answers, from the corpus and ``edit_distance``.

    Two words within ``k`` edits share a string reachable from each by at most
    ``k`` deletions, so the deletion table yields every candidate; each
    candidate is then confirmed with the exact distance.
    """

    def __init__(self, corpus: dict[str, list[bytes]], k: int, edit_distance):
        self.corpus = corpus
        self.k = k
        self.edit_distance = edit_distance
        self._by_deletion: dict[str, set[str]] = {}
        for word in corpus:
            for sig in _deletions(word, k):
                self._by_deletion.setdefault(sig, set()).add(word)

    def neighbours(self, query: str) -> set[str]:
        cands = set()
        for sig in _deletions(query, self.k):
            cands |= self._by_deletion.get(sig, set())
        return {w for w in cands if self.edit_distance(query, w) <= self.k}

    def expected(self, query: str) -> set[tuple[bytes, str]]:
        """An indexed query matches only itself; otherwise every neighbour."""
        words = [query] if query in self.corpus else self.neighbours(query)
        return {(fid, w) for w in words for fid in self.corpus[w]}

    def check(self, query: str, method: str, got: set[tuple[bytes, str]]) -> tuple[bool, int, int]:
        """(correct, returned keywords, keywords more than k edits away).

        Wildcard answers must equal the expectation; gram answers must
        contain it, and extras beyond k edits are false positives.
        """
        want = self.expected(query)
        returned = {w for _, w in got}
        far = sum(1 for w in returned if self.edit_distance(query, w) > self.k)
        if method == "wildcard":
            return got == want, len(returned), far
        return want <= got, len(returned), far
