import itertools
import json
import random
import time

import pytest

from fzsearch import DegenerateWord, fuzzy_set, keygen

ALPHABET = "abcdefghijklmnopqrstuvwxyz"


@pytest.fixture(scope="session")
def km():
    return keygen(128, seed=b"test-keys")


def random_word(rng: random.Random, lo: int = 3, hi: int = 8) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(lo, hi)))


def random_corpus(rng: random.Random, size: int = 100, lo: int = 3, hi: int = 8):
    corpus = {}
    while len(corpus) < size:
        word = random_word(rng, lo, hi)
        if word not in corpus:
            corpus[word] = [b"f%04d" % len(corpus)]
    return corpus


def synth_corpus(count: int, avg_len: float = 7.44, seed: int = 0) -> dict[str, list[bytes]]:
    """``count`` distinct random words, mean length close to ``avg_len``."""
    rng = random.Random(seed)
    corpus: dict[str, list[bytes]] = {}
    while len(corpus) < count:
        length = max(3, round(rng.gauss(avg_len, 2.0)))
        word = "".join(rng.choice(ALPHABET) for _ in range(length))
        if word not in corpus:
            corpus[word] = [b"doc%05d" % len(corpus)]
    return corpus


def time_fuzzyset_build(corpus: dict[str, list[bytes]], d: int, method: str) -> tuple[float, int]:
    """(elapsed ms, total variants) for constructing every keyword's set."""
    total = 0
    start = time.perf_counter()
    for word in corpus:
        try:
            total += len(fuzzy_set(word, d, method))
        except DegenerateWord:
            pass  # gram sets skip words shorter than d+1
    return (time.perf_counter() - start) * 1000.0, total


def reference_edit_distance(a: str, b: str) -> int:
    """Independent full-matrix implementation used to cross-check the fast one."""
    rows = len(a) + 1
    cols = len(b) + 1
    m = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        m[i][0] = i
    for j in range(cols):
        m[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            m[i][j] = min(m[i - 1][j] + 1, m[i][j - 1] + 1, m[i - 1][j - 1] + cost)
    return m[-1][-1]


def brute_force_neighborhood(word: str, d: int, letters: str) -> set[str]:
    """Exhaustive oracle: every string (length >= 1) over ``letters`` at distance <= d."""
    out = set()
    for length in range(max(1, len(word) - d), len(word) + d + 1):
        for tup in itertools.product(letters, repeat=length):
            cand = "".join(tup)
            if reference_edit_distance(word, cand) <= d:
                out.add(cand)
    return out


def mutate(word: str, rng: random.Random) -> str:
    """One random primitive edit."""
    ops = ["sub", "ins"] + (["del"] if len(word) > 1 else [])
    op = rng.choice(ops)
    if op == "ins":
        i = rng.randrange(len(word) + 1)
        return word[:i] + rng.choice(ALPHABET) + word[i:]
    i = rng.randrange(len(word))
    if op == "sub":
        return word[:i] + rng.choice(ALPHABET) + word[i + 1 :]
    return word[:i] + word[i + 1 :]


def hit(flag: int, digest: bytes, tag: bytes) -> bytes:
    """A hit proof from the wire layout: ``ff || flag || record digest || leaf tag``."""
    return bytes([0xFF, flag]) + digest + tag


def miss(left: bytes, right: bytes, tag: bytes) -> bytes:
    """A miss proof from the wire layout: ``ff || 02 || len(left) || left || len(right) || right || gap tag``."""
    return bytes([0xFF, 2, len(left)]) + left + bytes([len(right)]) + right + tag


def fields(proof: bytes) -> dict:
    """An honest proof's fields, keyed as ``hit`` or ``miss`` takes them, so one of the two rebuilds ``proof``."""
    if proof[1] != 2:
        return {"flag": proof[1], "digest": proof[2:34], "tag": proof[34:]}
    mid = 3 + proof[2]
    end = mid + 1 + proof[mid]
    return {"left": proof[3:mid], "right": proof[mid + 1 : end], "tag": proof[end:]}


def garbage_line(rng: random.Random):
    """A random wire line for the protocol fuzz: raw bytes, printable text or off-contract JSON."""
    printable = "".join(chr(c) for c in range(32, 127))
    roll = rng.random()
    if roll < 0.35:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(0, 60)))
    if roll < 0.7:
        return "".join(rng.choice(printable) for _ in range(rng.randrange(0, 80)))
    if roll < 0.85:
        return json.dumps({"type": rng.choice(["SearchReq", "Hello", "X", 7]), "k": rng.choice([0, 1, "k", None, 10**12]), "trapdoors": rng.choice([None, [], ["00"], ["0" * 40], 3])})
    return json.dumps(rng.choice([[], 42, "str", {"a": {"b": {"c": 1}}}]))
