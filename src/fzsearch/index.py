"""Server-side index: trapdoors mapped to entries in one FZIX body, and the search over it.

Every kind holds the same state: ``body``, the FZIX entry body (``persist``
documents the layout), ``table``, each fuzzy variant's trapdoor mapped to
the offset of its entry in ``body``, and ``exact``, the trapdoors of
keywords' own zero-edit variants.  A built index writes its body in one
sorted pass (``pack_entries``).  A loaded one keeps the file's bytes, checked
by ``read_entries``: its body and its tags are views of them.  A search or a
``NodeView`` slices records (``_records_at``) only out of the entries it
reaches.  The writer, the validating reader and that hit-time reader sit
together below.  No index changes once built.

A record is the AES-SIV output ``crypto.encrypt_record`` returns; nothing
here looks inside one.  The listing index is the flat table; the trie files
each trapdoor root-to-leaf as ``DEPTH`` symbols of ``SYMBOL_BITS`` each, its
nodes derived from ``Index.ordered``.  An index proves its answers exactly
when it holds ``tags``, a tag per entry and per gap between entries;
``verifiable.build_auth_trie`` builds such a trie.  ``SearchRequest`` and
``ResultSet`` are namedtuples, and the index kinds plain classes: no module
on a server's path imports ``dataclasses``.  A blinded server searches
``unblind_request`` of what ``blind_request`` sent.

Requests put the exact word's trapdoor first; a search that matches it
returns only that entry's records (the exact hit short-circuits the fuzzy
lookups, mirroring the search definition's exact-match rule).

The owner's build, ``make_request`` and ``decrypt_matches`` import
``fuzzyset`` on their first call (``_fuzzyset``), so a server, which only
searches, never loads it.  The build and ``make_request`` take normalized keywords only
(``fuzzyset.normalize_keyword``): any other word is ``BadParameter``.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from collections import namedtuple
from functools import cache, cached_property
from itertools import chain
from typing import TYPE_CHECKING, ClassVar

from .crypto import (
    DEPTH,
    RECORD_MIN_BYTES,
    SYMBOL_BITS,
    TRAPDOOR_BITS,
    TRAPDOOR_BYTES,
    decrypt_record,
    encrypt_records,
    prp,
    trapdoors,
)
from .errors import AuthFailure, BadParameter, EditBoundExceeded, Truncated

if TYPE_CHECKING:
    from .keys import KeyMaterial


def symbolize(t: bytes, n: int) -> tuple[int, ...]:
    """Split a trapdoor into big-endian symbols of ``n`` bits each."""
    bits = len(t) * 8
    if n <= 0 or bits % n != 0:
        raise BadParameter(f"{n} bits does not evenly divide a {bits}-bit trapdoor")
    val = int.from_bytes(t, "big")
    count = bits // n
    mask = (1 << n) - 1
    return tuple((val >> (n * (count - 1 - i))) & mask for i in range(count))


class Index:
    """Trapdoors mapped to their entries in one body, immutable once built; with ``tags``, any kind can prove."""

    kind: ClassVar[str]  # names the access structure
    symbol_bits: ClassVar[int] = SYMBOL_BITS  # read by perfbench (``layers._hits``)

    def __init__(
        self,
        table: dict[bytes, int],
        body: memoryview,
        d: int,
        method: str = "wildcard",
        exact: set[bytes] | None = None,
        tags: bytes | memoryview = b"",
    ):
        # trapdoor -> the offset of its entry in ``body``, in ascending trapdoor order:
        # ``pack_entries`` fills it so and ``read_entries`` refuses any other
        self.table = table
        self.body = body  # the FZIX entry body: every entry, in ascending trapdoor order
        self.d = d
        self.method = method
        # Trapdoors of keywords' own zero-edit variants, so a hit on the request's
        # first trapdoor really means "the query is indexed".  Gram variants are
        # concrete words, so without the marker a query could collide with another
        # keyword's variant and wrongly short-circuit.
        self.exact = set() if exact is None else exact
        self.tags = tags  # TAG_BYTES per entry, then per gap, in ``ordered`` order

    @classmethod
    def build(cls, corpus: dict[str, list[bytes]], d: int, km: KeyMaterial, method: str = "wildcard"):
        entries, exact = build_entries(corpus, d, km, method)
        return cls(*pack_entries(entries, exact), d, method, exact)

    def records(self, t: bytes) -> tuple[bytes, ...]:
        """The records of ``t``'s entry, sliced out of ``body``; ``()`` when ``t`` has no entry."""
        pos = self.table.get(t)
        return () if pos is None else _records_at(self.body, pos + TRAPDOOR_BYTES + 1)

    @cached_property
    def ordered(self) -> list[bytes]:
        """``table``'s trapdoors, ascending: the order of ``body``'s entries, of the
        authenticated trie's tags and proofs, and of the trie view's leaves."""
        return list(self.table)


class ListingIndex(Index):
    kind = "listing"


class TrieIndex(Index):
    """Each trapdoor filed root-to-leaf as ``DEPTH`` symbols of ``SYMBOL_BITS``, records at the leaf.

    The trie is a view over ``ordered``: the node at ``depth`` on ``prefix`` (its path
    as an integer) holds the leaves ``span(depth, prefix)`` and exists when that is not empty.
    A trie that holds tags is the authenticated trie.
    """

    @property
    def kind(self) -> str:
        return "auth_trie" if self.tags else "trie"

    def span(self, depth: int, prefix: int) -> tuple[int, int]:
        """``(lo, hi)``: ``ordered[lo:hi]`` are the leaves below node ``(depth, prefix)``."""
        shift = TRAPDOOR_BITS - depth * SYMBOL_BITS
        low = (prefix << shift).to_bytes(TRAPDOOR_BYTES, "big")  # the node's lowest leaf
        high = (((prefix + 1) << shift) - 1).to_bytes(TRAPDOOR_BYTES, "big")  # its highest: all bits below the path set
        return bisect_left(self.ordered, low), bisect_right(self.ordered, high)

    @property
    def root(self) -> "NodeView":
        return NodeView(self, 0, 0)


class NodeView:
    """Read-only view of the trie node at ``depth`` on the path ``prefix``."""

    __slots__ = ("index", "depth", "prefix", "trapdoor")

    def __init__(self, index: TrieIndex, depth: int, prefix: int):
        self.index, self.depth, self.prefix = index, depth, prefix
        self.trapdoor = prefix.to_bytes(TRAPDOOR_BYTES, "big") if depth == DEPTH else None

    @property
    def children(self) -> dict[int, "NodeView"]:
        index, depth = self.index, self.depth + 1
        if depth > DEPTH:
            return {}
        lo, hi = index.span(self.depth, self.prefix)
        shift = TRAPDOOR_BITS - depth * SYMBOL_BITS  # bits below a child's path
        paths = dict.fromkeys(int.from_bytes(t, "big") >> shift for t in index.ordered[lo:hi])
        return {p & ((1 << SYMBOL_BITS) - 1): NodeView(index, depth, p) for p in paths}

    @property
    def records(self) -> tuple[bytes, ...]:
        return self.index.records(self.trapdoor)

    @property
    def exact(self) -> bool:
        return self.trapdoor in self.index.exact


@cache
def _fuzzyset():
    """The ``fuzzyset`` module, imported on the first call: owners and clients build fuzzy sets, a server never does.

    A cached call costs a tenth of an import statement, which the query path would pay on every request.
    """
    from . import fuzzyset

    return fuzzyset


def _check_keyword(word: str) -> None:
    """``BadParameter`` unless ``normalize_keyword`` would return ``word`` unchanged: lowercase a-z, not empty.

    A ``*`` would make the word one of another word's wildcard variants, and a
    letter outside ASCII could not be keyed.
    """
    if not (word.isascii() and word.isalpha() and word.islower()):
        raise BadParameter(f"keyword {word!r} is not normalized: lowercase a-z only, at least one letter")


# Ordered trapdoors for a (word, k) query; the exact word comes first.
SearchRequest = namedtuple("SearchRequest", ("trapdoors", "k"))
# The records a search returns, and whether they are the exact hit's alone.
ResultSet = namedtuple("ResultSet", ("records", "exact_hit"))


def blind_request(req: SearchRequest, xi: bytes) -> SearchRequest:
    """Permute every trapdoor forward under the blind key ``xi`` in one ``prp`` call; order and k preserved."""
    return SearchRequest(prp(xi, req.trapdoors, "forward"), req.k)


def unblind_request(req: SearchRequest, xi: bytes) -> SearchRequest:
    """What a blinded server searches: ``req`` with the permutation inverted."""
    return SearchRequest(prp(xi, req.trapdoors, "inverse"), req.k)


def build_entries(
    corpus: dict[str, list[bytes]], d: int, km: KeyMaterial, method: str = "wildcard"
) -> tuple[dict[bytes, tuple[bytes, ...]], set[bytes]]:
    """Trapdoor -> records map shared by every index kind.

    The whole corpus is keyed in one pass: one ``trapdoors`` call derives every
    keyword variant's trapdoor, and one ``encrypt_records`` call seals every
    (variant, fid) record, so the trapdoor key's HMAC pad states and the record
    cipher are looked up once per build.  The bytes are those of ``trapdoor``
    and ``encrypt_record`` per variant and record; a record's copy index is its
    variant's position in the keyword's sorted fuzzy set, so the records of an
    index are pairwise distinct.  Keywords are processed in sorted order and
    AES-SIV is deterministic, so two builds from the same corpus and keys
    produce identical bytes.  A variant shared by several keywords
    accumulates all their records under one trapdoor, in keyword order; they
    are joined once, at the end, so the work stays linear.

    Also returns the set of canonical trapdoors (each keyword's own zero-edit
    variant); only those entries terminate a search as an exact hit.  A
    keyword that is not normalized raises ``BadParameter``.
    """
    fuzzy_set = _fuzzyset().fuzzy_set
    groups = []  # (keyword, its variants, its distinct fids), in keyword order
    for keyword in sorted(corpus):
        _check_keyword(keyword)
        fids = list(dict.fromkeys(corpus[keyword]))
        if fids:  # nothing to find otherwise: an entry without records is never a hit
            groups.append((keyword, fuzzy_set(keyword, d, method), fids))
    keyed = iter(trapdoors(km, [v for _, variants, _ in groups for v in variants]))
    records = iter(encrypt_records(km, [(keyword, range(len(variants)), fids) for keyword, variants, fids in groups]))
    entries: dict[bytes, tuple[bytes, ...]] = {}
    shared: dict[bytes, list[tuple[bytes, ...]]] = {}  # a trapdoor met again: its keywords' records, in order
    exact: set[bytes] = set()
    for keyword, variants, fids in groups:
        # ``own``: the next len(fids) records, this variant's; zip stops at the last variant
        for variant, t, own in zip(variants, keyed, zip(*[records] * len(fids))):
            if variant == keyword:  # every construction keeps the keyword itself
                exact.add(t)
            first = entries.setdefault(t, own)
            if first is not own:
                shared.setdefault(t, [first]).append(own)
    for t, parts in shared.items():
        entries[t] = tuple(chain.from_iterable(parts))
    return entries, exact


build_listing_index = ListingIndex.build
build_trie_index = TrieIndex.build


# -- the entry layout: writer, validating reader, hit-time reader ------------

_ENTRY_HEAD = struct.Struct(f">{TRAPDOOR_BYTES}sBHI")  # trapdoor, entry flag, record count, first record's length
_COUNT_FIRST = struct.Struct(">HI").unpack_from  # an entry's record count, then its first record's length
_LENGTH = struct.Struct(">I")  # every later record's length


def pack_entries(entries: dict[bytes, tuple[bytes, ...]], exact: set[bytes]) -> tuple[dict[bytes, int], memoryview]:
    """The body of ``entries`` in one pass in trapdoor order, and each trapdoor's offset in it.

    Raises ``BadParameter`` for an entry of no records or of more than a u16
    count holds (65,535), and for a trapdoor that is not ``TRAPDOOR_BYTES`` long.
    """
    pack, head_size, length = _ENTRY_HEAD.pack, _ENTRY_HEAD.size, _LENGTH.pack
    parts, table, pos = [], {}, 0
    append = parts.append
    for t in sorted(entries):
        records = entries[t]
        if not 0 < len(records) <= 0xFFFF:  # the count is a u16, and an entry holds records
            raise BadParameter(f"{len(records)} records under one trapdoor; the limit is 1..65535")
        if len(t) != TRAPDOOR_BYTES:
            raise BadParameter(f"a {len(t)}-byte trapdoor in a {TRAPDOOR_BITS}-bit index")
        table[t] = pos
        first = records[0]
        append(pack(t, t in exact, len(records), len(first)))
        append(first)
        pos += head_size + len(first)
        for blob in records[1:]:
            append(length(len(blob)))
            append(blob)
            pos += 4 + len(blob)
    return table, memoryview(b"".join(parts))


def read_entries(body: memoryview, count: int) -> tuple[dict[bytes, int], set[bytes], int]:
    """The ``count`` entries at the start of ``body``: (trapdoor -> offset map, exact set, end offset).

    Every bound is checked before its field is read, and every record is at
    least ``RECORD_MIN_BYTES`` long, but none is sliced out.  The ascending
    order of the trapdoors is checked as each is read, but the first entry out
    of order is reported only after the last entry, behind any other error.
    The common entry, one record of at least ``RECORD_MIN_BYTES`` under flag 0
    or 1, skips the other checks: the next head's ``unpack_from``, or the check
    after the loop, finds its record running past the end, and reports it as
    the full checks would.
    """
    size, unpack, head_size, length = len(body), _ENTRY_HEAD.unpack_from, _ENTRY_HEAD.size, _LENGTH.unpack_from
    table, exact, pos = {}, set(), 0
    prev, disorder = b"", None  # the last trapdoor read; the first entry not above its predecessor
    for i in range(count):
        try:
            t, flag, n, first = unpack(body, pos)
        except struct.error:
            if pos > size:  # only a common entry's record leaves ``pos`` past the end
                raise Truncated(f"entry {i - 1}: a record ends early") from None
            raise Truncated(f"entry {i} ends early") from None
        table[t] = pos
        if t <= prev and disorder is None:
            disorder = i
        prev = t
        if flag:
            exact.add(t)
        pos += head_size + first
        if n == 1 and flag <= 1 and first >= RECORD_MIN_BYTES:
            continue
        if flag > 1:
            raise BadParameter(f"entry {i}: unknown entry flags {flag:#x}")
        if not n:
            raise BadParameter(f"entry {i} has no records")
        if pos > size:
            raise Truncated(f"entry {i}: a record ends early")
        if first < RECORD_MIN_BYTES:
            raise AuthFailure("record blob too short")
        for _ in range(n - 1):
            start = pos + 4
            if start > size:
                raise Truncated(f"entry {i}: a record ends early")
            (n_bytes,) = length(body, pos)
            pos = start + n_bytes
            if pos > size:
                raise Truncated(f"entry {i}: a record ends early")
            if n_bytes < RECORD_MIN_BYTES:
                raise AuthFailure("record blob too short")
    if pos > size:
        raise Truncated(f"entry {count - 1}: a record ends early")
    if disorder is not None:
        raise BadParameter(f"entry {disorder}: trapdoors are not strictly ascending")
    return table, exact, pos


def _records_at(body: memoryview, pos: int) -> tuple[bytes, ...]:
    """The records of the entry whose record count is at ``pos``; the writer or the reader checked its bounds."""
    n, size = _COUNT_FIRST(body, pos)
    pos += 6
    end = pos + size
    if n == 1:
        return (body[pos:end].tobytes(),)
    records = [body[pos:end].tobytes()]
    for _ in range(n - 1):
        pos = end + 4
        end = pos + _LENGTH.unpack_from(body, end)[0]
        records.append(body[pos:end].tobytes())
    return tuple(records)


def make_request(word: str, k: int, km: KeyMaterial, method: str = "wildcard") -> SearchRequest:
    """Trapdoors for every variant of (word, k); exact word first, rest lexicographic.

    A ``word`` that is not normalized raises ``BadParameter``.
    """
    _check_keyword(word)
    variants = _fuzzyset().fuzzy_set(word, k, method)
    ordered = [word] + [v for v in variants if v != word]
    return SearchRequest(trapdoors=tuple(trapdoors(km, ordered)), k=k)


def decrypt_matches(km: KeyMaterial, word: str, k: int, result: ResultSet) -> list[tuple[bytes, str]]:
    """The (fid, keyword) of each record in ``result`` whose keyword is within ``k`` edits of ``word``,
    or is ``word`` on an exact hit.

    Every record is decrypted first, so one that fails authentication raises
    ``AuthFailure`` even when its keyword would be dropped.  A gram index also
    returns keywords more than ``k`` edits away, and on an exact hit those
    that deletions turn into ``word``; those are the ones dropped.
    """
    within_edits = _fuzzyset().within_edits
    found = [decrypt_record(km, rec) for rec in result.records]
    if result.exact_hit:
        return [(fid, keyword) for fid, keyword in found if keyword == word]
    return [(fid, keyword) for fid, keyword in found if within_edits(word, keyword, k)]


def walk_trie(root: NodeView, symbols: tuple[int, ...]) -> NodeView | None:
    """Follow ``symbols`` from ``root``; None if an edge is missing or a symbol is out of range."""
    index, depth, prefix = root.index, root.depth + len(symbols), root.prefix
    if depth > DEPTH or not all(0 <= sym < 1 << SYMBOL_BITS for sym in symbols):
        return None
    for sym in symbols:
        prefix = (prefix << SYMBOL_BITS) | sym
    lo, hi = index.span(depth, prefix)
    return NodeView(index, depth, prefix) if lo < hi or not depth else None


def search_listing(index: Index, req: SearchRequest) -> ResultSet:
    """Look up each trapdoor and slice its entry's records out of ``body``.

    ``EditBoundExceeded`` when ``req.k`` exceeds the index's ``d``.  A hit on
    the request's first trapdoor that is exact returns its records alone (the
    exact-match short-circuit), and no other entry is read; otherwise every
    hit's records, in request order.  Serves every kind: a trie holds records
    only at full depth, so walking a trapdoor's symbols reaches records
    exactly when the map holds it.  A built index holds each record under
    one trapdoor only, so the result repeats a record only where the request
    repeats its trapdoor, as the proofs do.
    """
    trapdoors, k = req  # one unpacking: a namedtuple's field reads cost more on this path
    if k > index.d:
        raise EditBoundExceeded(f"request k={k} exceeds index d={index.d}")
    table, exact, body, gathered = index.table, index.exact, index.body, []
    for i, t in enumerate(trapdoors):
        pos = table.get(t)
        if pos is None:
            continue
        records = _records_at(body, pos + TRAPDOOR_BYTES + 1)
        if not i and t in exact:
            return ResultSet(list(records), True)
        gathered.extend(records)
    return ResultSet(gathered, False)


search_trie = search_listing
