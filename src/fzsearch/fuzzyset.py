"""Fuzzy keyword sets.

A fuzzy set collects the variants that stand for every word within a chosen
edit distance of a source keyword.  It is a plain sorted ``tuple[str, ...]``
of distinct variants.  Three constructions are provided:

* ``wildcard_fuzzy_set`` — each ``*`` marks one edit operation at a position,
  so one variant covers the whole 26-way choice at that spot.  For distance 1
  the set has exactly ``2*len(word) + 2`` members.
* ``gram_fuzzy_set`` — deletion-only signatures; complete for distance 1 but
  admits false positives (two words at distance 2 can share a signature).
* ``enumeration_fuzzy_set`` — the exhaustive neighborhood of concrete words.
  Storage-hostile, but it is the exact set and serves as the oracle the other
  constructions are judged against.

Keywords are normalized lowercase a-z strings; ``*`` (0x2A) is the reserved
wildcard character and sorts before every letter, which fixes the variant
order used everywhere (serialization, request ordering).
"""

from __future__ import annotations

from .errors import BadParameter, BudgetExceeded, DegenerateWord, EmptyKeyword

ALPHABET = "abcdefghijklmnopqrstuvwxyz"
WILDCARD = "*"


def normalize_keyword(raw: str) -> str:
    """Lowercase ``raw`` and strip every character outside a-z.

    >>> normalize_keyword("Castle")
    'castle'
    >>> normalize_keyword("cloud-computing")
    'cloudcomputing'
    """
    word = "".join(c for c in raw.lower() if "a" <= c <= "z")
    if not word:
        raise EmptyKeyword(f"no letters remain in {raw!r}")
    return word


def edit_distance(a: str, b: str) -> int:
    """Minimal number of substitutions, deletions and insertions from ``a`` to ``b``."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a  # keep the inner row short
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            cur.append(min(cur[j - 1] + 1, prev[j] + 1, prev[j - 1] + cost))
        prev = cur
    return prev[-1]


def _expand_once(text: str) -> set[str]:
    # One edit level: the string itself, '*' written over each position
    # (covers substitution and deletion at that spot), and '*' inserted into
    # each gap (length grows by one, so these never collide with the former).
    out = {text}
    for i in range(len(text)):
        out.add(text[:i] + WILDCARD + text[i + 1 :])
    for i in range(len(text) + 1):
        out.add(text[:i] + WILDCARD + text[i:])
    return out


def wildcard_fuzzy_set(word: str, d: int) -> tuple[str, ...]:
    """Wildcard variants of ``word`` up to ``d`` edits.

    Level zero is ``{word}``; each further level applies the one-edit
    expansion to every member of the previous level and deduplicates.  A
    ``*`` may land on or next to an existing ``*``; duplicates collapse.
    """
    if d < 0:
        raise BadParameter("edit bound must be >= 0")
    level = {word}
    for _ in range(d):
        nxt: set[str] = set()
        for member in level:
            nxt |= _expand_once(member)
        level = nxt
    return tuple(sorted(level))


def gram_fuzzy_set(word: str, d: int) -> tuple[str, ...]:
    """Deletion variants of ``word`` up to ``d`` removed characters."""
    if d < 0:
        raise BadParameter("edit bound must be >= 0")
    if d >= len(word):
        raise DegenerateWord(f"cannot delete {d} characters from {word!r}")
    level = {word}
    for _ in range(d):
        nxt = set(level)
        for member in level:
            for i in range(len(member)):
                nxt.add(member[:i] + member[i + 1 :])
        level = nxt
    return tuple(sorted(level))


def enumeration_fuzzy_set(
    word: str,
    d: int,
    alphabet_size: int = 26,
    budget: int = 10_000_000,
) -> tuple[str, ...]:
    """Every concrete word within edit distance ``d`` of ``word``.

    Generated by applying all single edits (substitution, deletion,
    insertion) ``d`` times and keeping the union of all levels, which is
    exactly ``{u : edit_distance(word, u) <= d}`` restricted to words of
    length >= 1 over the first ``alphabet_size`` letters.
    """
    if d < 0 or d > 2:
        raise BadParameter("exhaustive enumeration is guarded to d in {0, 1, 2}")
    if not 1 <= alphabet_size <= 26:
        raise BadParameter("alphabet_size must be in 1..26")
    letters = ALPHABET[:alphabet_size]
    members = {word}
    level = {word}
    for _ in range(d):
        nxt: set[str] = set()
        for member in level:
            for i in range(len(member)):
                head, tail = member[:i], member[i + 1 :]
                nxt.add(head + tail)  # deletion (may be "", dropped below)
                for c in letters:
                    nxt.add(head + c + tail)
            for i in range(len(member) + 1):
                for c in letters:
                    nxt.add(member[:i] + c + member[i:])
        nxt.discard("")
        members |= nxt
        if len(members) > budget:
            raise BudgetExceeded(f"neighborhood of {word!r} exceeds {budget} members")
        level = nxt
    return tuple(sorted(members))


def fuzzy_set(word: str, d: int, method: str = "wildcard") -> tuple[str, ...]:
    """Dispatch to the named constructor (``wildcard`` or ``gram``)."""
    if method == "wildcard":
        return wildcard_fuzzy_set(word, d)
    if method == "gram":
        return gram_fuzzy_set(word, d)
    raise BadParameter(f"unknown fuzzy set method {method!r}")
