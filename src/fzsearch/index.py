"""Server-side index: one trapdoor -> records map and the search over it.

Every kind holds the same state (each fuzzy variant's trapdoor mapped to its
encrypted records, plus the trapdoors of keywords' own zero-edit variants)
and answers a request with the same records, by map lookup.  The listing
index is the flat table; the trie files each trapdoor root-to-leaf as n-bit
symbols, its nodes derived from the sorted trapdoors; the authenticated trie
(``verifiable``) adds a tag per entry and per gap between entries.

Requests put the exact word's trapdoor first; a search that matches it
returns only that entry's records (the exact hit short-circuits the fuzzy
lookups, mirroring the search definition's exact-match rule).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Iterator

from .crypto import KeyMaterial, EncryptedRecord, encrypt_record, record_nonce, trapdoor
from .errors import BadParameter, EditBoundExceeded
from .fuzzyset import fuzzy_set


def symbolize(t: bytes, n: int) -> tuple[int, ...]:
    """Split a trapdoor into big-endian symbols of ``n`` bits each."""
    bits = len(t) * 8
    if n <= 0 or bits % n != 0:
        raise BadParameter(f"{n} bits does not evenly divide a {bits}-bit trapdoor")
    val = int.from_bytes(t, "big")
    count = bits // n
    mask = (1 << n) - 1
    return tuple((val >> (n * (count - 1 - i))) & mask for i in range(count))


def symbols_to_bytes(symbols: tuple[int, ...], n: int) -> bytes:
    """Recompose a symbol sequence into the trapdoor it came from."""
    bits = n * len(symbols)
    if bits % 8 != 0:
        raise BadParameter("symbol sequence does not recompose into whole bytes")
    val = 0
    for s in symbols:
        val = (val << n) | s
    return val.to_bytes(bits // 8, "big")


@dataclass
class Index:
    """One trapdoor -> records map, immutable once built; ``kind`` names its access structure."""

    kind: ClassVar[str]
    table: dict[bytes, list[EncryptedRecord]]
    trapdoor_bits: int
    symbol_bits: int
    d: int
    method: str = "wildcard"
    # Trapdoors of keywords' own zero-edit variants, so a hit on the request's
    # first trapdoor really means "the query is indexed".  Gram variants are
    # concrete words, so without the marker a query could collide with another
    # keyword's variant and wrongly short-circuit.
    exact: set[bytes] = field(default_factory=set)

    @classmethod
    def build(cls, corpus: dict[str, list[bytes]], d: int, km: KeyMaterial, method: str = "wildcard"):
        entries, exact = build_entries(corpus, d, km, method)
        return cls(entries, km.trapdoor_bits, km.symbol_bits, d, method, exact)


class ListingIndex(Index):
    kind = "listing"


class TrieIndex(Index):
    """Each trapdoor filed root-to-leaf as ``depth`` n-bit symbols, records at the leaf.

    The nodes are derived from the sorted trapdoors: a node is named by its
    depth and its path read as an integer (``prefix``).
    """

    kind = "trie"

    @property
    def depth(self) -> int:
        return self.trapdoor_bits // self.symbol_bits

    @cached_property
    def ordered(self) -> list[int]:
        """The trapdoors as big-endian integers, ascending: the leaves in trie order."""
        return sorted(int.from_bytes(t, "big") for t in self.table)

    def matched_len(self, depth: int, prefix: int) -> int:
        """How many symbols of the ``depth``-symbol path ``prefix`` the trie holds.

        That is its longest common prefix with its predecessor or successor.
        """
        bits, ordered = self.trapdoor_bits, self.ordered
        v = prefix << (bits - depth * self.symbol_bits)
        pos = bisect_left(ordered, v)
        diff = (1 << bits) - 1
        if pos:
            diff = v ^ ordered[pos - 1]
        if pos < len(ordered):
            diff = min(diff, v ^ ordered[pos])
        return min(depth, (bits - diff.bit_length()) // self.symbol_bits)

    def _splits(self) -> Iterator[tuple[int, int]]:
        """(leaf, shared) in leaf order: ``shared`` is the leaf's common prefix,
        in symbols, with the leaf before (0 for the first)."""
        n, bits = self.symbol_bits, self.trapdoor_bits
        prev = None
        for v in self.ordered:
            yield v, 0 if prev is None else (bits - (v ^ prev).bit_length()) // n
            prev = v

    def node_keys(self) -> Iterator[tuple[int, int]]:
        """(depth, prefix) of every node in pre-order; each trapdoor adds those
        below its common prefix with the one before."""
        n, bits = self.symbol_bits, self.trapdoor_bits
        yield 0, 0
        for v, shared in self._splits():
            for depth in range(shared + 1, self.depth + 1):
                yield depth, v >> (bits - depth * n)

    @property
    def root(self) -> "NodeView":
        return NodeView(self, 0, 0)

    def nodes(self) -> Iterator["NodeView"]:
        return (NodeView(self, depth, prefix) for depth, prefix in self.node_keys())

    def leaves(self) -> Iterator[tuple[tuple[int, ...], "NodeView"]]:
        """(path, leaf) pairs in sorted-symbol order."""
        for t in sorted(self.table):
            yield symbolize(t, self.symbol_bits), NodeView(self, self.depth, int.from_bytes(t, "big"))


class NodeView:
    """Read-only view of the trie node at ``depth`` on the path ``prefix``.

    ``tag``, a leaf's tag, exists on authenticated tries only.
    """

    __slots__ = ("index", "depth", "prefix", "trapdoor")

    def __init__(self, index: TrieIndex, depth: int, prefix: int):
        self.index, self.depth, self.prefix = index, depth, prefix
        at_leaf = depth == index.depth
        self.trapdoor = prefix.to_bytes(index.trapdoor_bits // 8, "big") if at_leaf else None

    @property
    def children(self) -> dict[int, "NodeView"]:
        index, n, depth = self.index, self.index.symbol_bits, self.depth + 1
        if depth > index.depth:
            return {}
        shift = index.trapdoor_bits - depth * n  # bits below a child's path
        lo = bisect_left(index.ordered, self.prefix << (shift + n))
        hi = bisect_left(index.ordered, (self.prefix + 1) << (shift + n))
        paths = dict.fromkeys(v >> shift for v in index.ordered[lo:hi])
        return {p & ((1 << n) - 1): NodeView(index, depth, p) for p in paths}

    @property
    def records(self) -> list[EncryptedRecord]:
        return self.index.table.get(self.trapdoor, [])

    @property
    def exact(self) -> bool:
        return self.trapdoor in self.index.exact

    @property
    def tag(self) -> bytes | None:
        return None if self.trapdoor is None else self.index.tag_at(self.trapdoor)


@dataclass(frozen=True)
class SearchRequest:
    """Ordered trapdoors for a (word, k) query; the exact word comes first."""

    trapdoors: tuple[bytes, ...]
    k: int


@dataclass
class ResultSet:
    records: list[EncryptedRecord]
    exact_hit: bool


def build_entries(
    corpus: dict[str, list[bytes]], d: int, km: KeyMaterial, method: str = "wildcard"
) -> tuple[dict[bytes, list[EncryptedRecord]], set[bytes]]:
    """Trapdoor -> records map shared by every index kind.

    Keywords are processed in sorted order and every (entry, keyword, fid)
    triple is encrypted with a nonce derived from those inputs, so two builds
    from the same corpus and keys produce identical bytes.  A variant shared
    by several keywords accumulates all their records under one trapdoor.

    Also returns the set of canonical trapdoors (each keyword's own zero-edit
    variant); only those entries terminate a search as an exact hit.
    """
    entries: dict[bytes, list[EncryptedRecord]] = {}
    exact: set[bytes] = set()
    for keyword in sorted(corpus):
        fids = list(dict.fromkeys(corpus[keyword]))
        if not fids:
            continue  # nothing to find: an entry without records is never a hit
        exact.add(trapdoor(km, keyword))
        for variant in fuzzy_set(keyword, d, method):
            t = trapdoor(km, variant)
            bucket = entries.setdefault(t, [])
            for fid in fids:
                nonce = record_nonce(km, variant, keyword, fid)
                bucket.append(encrypt_record(km, fid, keyword, nonce=nonce))
    return entries, exact


build_listing_index = ListingIndex.build
build_trie_index = TrieIndex.build


def make_request(word: str, k: int, km: KeyMaterial, method: str = "wildcard") -> SearchRequest:
    """Trapdoors for every variant of (word, k); exact word first, rest lexicographic."""
    if k < 0:
        raise BadParameter("edit bound must be >= 0")
    variants = fuzzy_set(word, k, method)
    ordered = [word] + [v for v in variants if v != word]
    return SearchRequest(trapdoors=tuple(trapdoor(km, v) for v in ordered), k=k)


def _dedup(records: list[EncryptedRecord]) -> list[EncryptedRecord]:
    seen: set[bytes] = set()
    out = []
    for rec in records:
        key = rec.blob
        if key not in seen:
            seen.add(key)
            out.append(rec)
    return out


def walk_trie(root: NodeView, symbols: tuple[int, ...]) -> NodeView | None:
    """Follow ``symbols`` from ``root``; None as soon as an edge is missing."""
    index = root.index
    depth = root.depth + len(symbols)
    prefix = root.prefix
    for sym in symbols:
        prefix = (prefix << index.symbol_bits) | sym
    if depth > index.depth or index.matched_len(depth, prefix) < depth:
        return None
    return NodeView(index, depth, prefix)


def search_listing(index: Index, req: SearchRequest) -> ResultSet:
    """Look up each trapdoor; exact-first short-circuit, dedup the rest.

    Serves every kind: a trie holds records only at full depth, so walking a
    trapdoor's symbols reaches records exactly when the map holds it.
    """
    if req.k > index.d:
        raise EditBoundExceeded(f"request k={req.k} exceeds index d={index.d}")
    gathered: list[EncryptedRecord] = []
    for i, t in enumerate(req.trapdoors):
        records = index.table.get(t)
        if not records:
            continue
        if i == 0 and t in index.exact:
            return ResultSet(records=_dedup(records), exact_hit=True)
        gathered.extend(records)
    return ResultSet(records=_dedup(gathered), exact_hit=False)


search_trie = search_listing
