"""Fuzzy keyword sets.

A fuzzy set collects the variants that stand for every word within a chosen
edit distance of a source keyword.  It is a plain sorted ``tuple[str, ...]``
of distinct variants.  Two constructions are served:

* ``wildcard_fuzzy_set`` — each ``*`` marks one edit operation at a position,
  so one variant covers the whole 26-way choice at that spot.  For distance 1
  the set has exactly ``2*len(word) + 2`` members.
* ``gram_fuzzy_set`` — deletion-only signatures, down to the empty word:
  complete at every distance for words of every length (an edit costs each
  side at most one deletion), with false positives within ``2d`` edits.

Keywords are normalized lowercase a-z strings (``normalize_keyword``; the
index build and ``make_request`` refuse any other); ``*`` (0x2A) is the
reserved wildcard character and sorts before every letter, which fixes the
variant order used everywhere (serialization, request ordering).

A set grows about as ``len(word) ** d``, so neither construction gives more
than ``MAX_VARIANTS`` (defined in ``crypto``): both raise ``BadParameter``
naming the word as soon as a level passes it, before the set is done.  The
server takes no request of more trapdoors than that.  Only owners and
clients import this module; no server does.
"""

from __future__ import annotations

from .crypto import MAX_VARIANTS
from .errors import BadParameter, EmptyKeyword

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


def within_edits(a: str, b: str, k: int) -> bool:
    """``edit_distance(a, b) <= k``, stopping as soon as the answer is known.

    The common prefix and suffix are cut off first.  Then only the cells within
    ``k`` of the main diagonal are computed (a cell off that band is more than
    ``k`` anyway, so it counts as ``k + 1``), and the check stops at the first
    row whose every cell exceeds ``k``: no later row can come back under it.
    """
    if len(a) < len(b):
        a, b = b, a
    if k < 0 or len(a) - len(b) > k:
        return False
    lo, n, m = 0, len(a), len(b)
    while lo < m and a[lo] == b[lo]:
        lo += 1
    while m > lo and a[n - 1] == b[m - 1]:
        n, m = n - 1, m - 1
    a, b = a[lo:n], b[lo:m]
    if not b:
        return len(a) <= k
    over, width = k + 1, len(b)
    prev = [min(j, over) for j in range(width + 1)]
    for i, ca in enumerate(a, start=1):
        cur = [over] * (width + 1)
        cur[0] = min(i, over)
        for j in range(max(1, i - k), min(width, i + k) + 1):
            cur[j] = min(prev[j - 1] + (ca != b[j - 1]), prev[j] + 1, cur[j - 1] + 1)
        if min(cur) > k:
            return False
        prev = cur
    return prev[width] <= k


def _too_many(word: str, d: int) -> BadParameter:
    return BadParameter(f"the fuzzy set of {word!r} at d={d} has more than {MAX_VARIANTS} variants")


def _levels(word: str, d: int, step) -> tuple[str, ...]:
    """``word`` and its variants after ``d`` levels of ``step(s, add)``, which adds each one-edit variant of ``s``."""
    if d < 0:
        raise BadParameter("edit bound must be >= 0")
    level = {word}
    for _ in range(d):
        nxt = set(level)
        add = nxt.add
        for member in level:
            step(member, add)
            if len(nxt) > MAX_VARIANTS:
                raise _too_many(word, d)
        level = nxt
    return tuple(sorted(level))


def _expand_once(text: str, add) -> None:
    # '*' written over each position (covers substitution and deletion at
    # that spot), and '*' inserted into each gap (length grows by one, so
    # these never collide with the former).
    for i in range(len(text)):
        add(text[:i] + WILDCARD + text[i + 1 :])
    for i in range(len(text) + 1):
        add(text[:i] + WILDCARD + text[i:])


def _delete_once(text: str, add) -> None:
    for i in range(len(text)):
        add(text[:i] + text[i + 1 :])


def wildcard_fuzzy_set(word: str, d: int) -> tuple[str, ...]:
    """Wildcard variants of ``word`` up to ``d`` edits.

    Level zero is ``{word}``; each further level applies the one-edit
    expansion to every member of the previous level and deduplicates.  A
    ``*`` may land on or next to an existing ``*``; duplicates collapse.
    At d = 1 a word without ``*`` has no duplicates to collapse: its set is
    the word, a ``*`` over each letter and a ``*`` in each gap, built
    directly and sorted.
    """
    if d != 1 or WILDCARD in word:
        return _levels(word, d, _expand_once)
    variants = [word]
    variants += [word[:i] + WILDCARD + word[i + 1 :] for i in range(len(word))]
    variants += [word[:i] + WILDCARD + word[i:] for i in range(len(word) + 1)]
    if len(variants) > MAX_VARIANTS:
        raise _too_many(word, d)
    variants.sort()
    return tuple(variants)


def gram_fuzzy_set(word: str, d: int) -> tuple[str, ...]:
    """Deletion variants of ``word`` up to ``d`` removed characters; ``""`` once ``d >= len(word)``."""
    return _levels(word, d, _delete_once)


def fuzzy_set(word: str, d: int, method: str = "wildcard") -> tuple[str, ...]:
    """Dispatch to the named constructor (``wildcard`` or ``gram``)."""
    if method == "wildcard":
        return wildcard_fuzzy_set(word, d)
    if method == "gram":
        return gram_fuzzy_set(word, d)
    raise BadParameter(f"unknown fuzzy set method {method!r}")
