"""Server-side index: one trapdoor -> records map and the search over it.

Every kind holds the same state (each fuzzy variant's trapdoor mapped to a
tuple of its encrypted records, plus the trapdoors of keywords' own
zero-edit variants) and answers a request with the same records, by map
lookup.  A record is the bytes ``nonce || ciphertext`` that
``crypto.encrypt_record`` returns; nothing here looks inside one.  The listing
index is the flat table; the trie files each trapdoor root-to-leaf as n-bit
symbols, its nodes derived from ``Index.ordered``; the authenticated trie
(``verifiable``) adds a tag per entry and per gap between entries.

Requests put the exact word's trapdoor first; a search that matches it
returns only that entry's records (the exact hit short-circuits the fuzzy
lookups, mirroring the search definition's exact-match rule).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Iterator

from .crypto import KeyMaterial, encrypt_record, record_nonce, trapdoor
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
    table: dict[bytes, tuple[bytes, ...]]  # trapdoor -> its records, each nonce || ciphertext
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

    @cached_property
    def ordered(self) -> list[bytes]:
        """``table``'s trapdoors, ascending: the order of FZIX's entries, of the
        authenticated trie's tags and proofs, and of the trie view's leaves."""
        return sorted(self.table)


class ListingIndex(Index):
    kind = "listing"


class TrieIndex(Index):
    """Each trapdoor filed root-to-leaf as ``depth`` n-bit symbols, records at the leaf.

    The trie is a view over ``ordered``: the node at ``depth`` on ``prefix`` (its path
    as an integer) holds the leaves ``span(depth, prefix)`` and exists when that is not empty.
    """

    kind = "trie"

    @property
    def depth(self) -> int:
        return self.trapdoor_bits // self.symbol_bits

    def span(self, depth: int, prefix: int) -> tuple[int, int]:
        """``(lo, hi)``: ``ordered[lo:hi]`` are the leaves below node ``(depth, prefix)``."""
        shift, width = self.trapdoor_bits - depth * self.symbol_bits, self.trapdoor_bits // 8
        low = (prefix << shift).to_bytes(width, "big")  # the node's lowest leaf
        high = (((prefix + 1) << shift) - 1).to_bytes(width, "big")  # its highest: all bits below the path set
        return bisect_left(self.ordered, low), bisect_right(self.ordered, high)

    @property
    def root(self) -> "NodeView":
        return NodeView(self, 0, 0)

    def leaves(self) -> Iterator[tuple[tuple[int, ...], "NodeView"]]:
        """(path, leaf) pairs in trie order."""
        for t in self.ordered:
            leaf = NodeView(self, self.depth, int.from_bytes(t, "big"))
            yield symbolize(leaf.trapdoor, self.symbol_bits), leaf


class NodeView:
    """Read-only view of the trie node at ``depth`` on the path ``prefix``."""

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
        lo, hi = index.span(self.depth, self.prefix)
        shift = index.trapdoor_bits - depth * n  # bits below a child's path
        paths = dict.fromkeys(int.from_bytes(t, "big") >> shift for t in index.ordered[lo:hi])
        return {p & ((1 << n) - 1): NodeView(index, depth, p) for p in paths}

    @property
    def records(self) -> tuple[bytes, ...]:
        return self.index.table.get(self.trapdoor, ())

    @property
    def exact(self) -> bool:
        return self.trapdoor in self.index.exact


@dataclass(frozen=True)
class SearchRequest:
    """Ordered trapdoors for a (word, k) query; the exact word comes first."""

    trapdoors: tuple[bytes, ...]
    k: int


@dataclass
class ResultSet:
    records: list[bytes]
    exact_hit: bool


def build_entries(
    corpus: dict[str, list[bytes]], d: int, km: KeyMaterial, method: str = "wildcard"
) -> tuple[dict[bytes, tuple[bytes, ...]], set[bytes]]:
    """Trapdoor -> records map shared by every index kind.

    Keywords are processed in sorted order and every (entry, keyword, fid)
    triple is encrypted with a nonce derived from those inputs, so two builds
    from the same corpus and keys produce identical bytes.  A variant shared
    by several keywords accumulates all their records under one trapdoor.

    Also returns the set of canonical trapdoors (each keyword's own zero-edit
    variant); only those entries terminate a search as an exact hit.
    """
    entries: dict[bytes, list[bytes]] = {}
    exact: set[bytes] = set()
    for keyword in sorted(corpus):
        fids = list(dict.fromkeys(corpus[keyword]))
        if not fids:
            continue  # nothing to find: an entry without records is never a hit
        for variant in fuzzy_set(keyword, d, method):
            t = trapdoor(km, variant)
            if variant == keyword:  # every construction keeps the keyword itself
                exact.add(t)
            bucket = entries.setdefault(t, [])
            for fid in fids:
                nonce = record_nonce(km, variant, keyword, fid)
                bucket.append(encrypt_record(km, fid, keyword, nonce=nonce))
    return {t: tuple(records) for t, records in entries.items()}, exact


build_listing_index = ListingIndex.build
build_trie_index = TrieIndex.build


def make_request(word: str, k: int, km: KeyMaterial, method: str = "wildcard") -> SearchRequest:
    """Trapdoors for every variant of (word, k); exact word first, rest lexicographic."""
    if k < 0:
        raise BadParameter("edit bound must be >= 0")
    variants = fuzzy_set(word, k, method)
    ordered = [word] + [v for v in variants if v != word]
    return SearchRequest(trapdoors=tuple(trapdoor(km, v) for v in ordered), k=k)


def walk_trie(root: NodeView, symbols: tuple[int, ...]) -> NodeView | None:
    """Follow ``symbols`` from ``root``; None if an edge is missing or a symbol is out of range."""
    index, n = root.index, root.index.symbol_bits
    depth, prefix = root.depth + len(symbols), root.prefix
    if depth > index.depth or not all(0 <= sym < 1 << n for sym in symbols):
        return None
    for sym in symbols:
        prefix = (prefix << n) | sym
    lo, hi = index.span(depth, prefix)
    return NodeView(index, depth, prefix) if lo < hi or not depth else None


def search_listing(index: Index, req: SearchRequest) -> ResultSet:
    """Look up each trapdoor; exact-first short-circuit, dedup the rest.

    Serves every kind: a trie holds records only at full depth, so walking a
    trapdoor's symbols reaches records exactly when the map holds it.
    """
    if req.k > index.d:
        raise EditBoundExceeded(f"request k={req.k} exceeds index d={index.d}")
    gathered: list[bytes] = []
    for i, t in enumerate(req.trapdoors):
        records = index.table.get(t)
        if not records:
            continue
        if i == 0 and t in index.exact:
            return ResultSet(records=list(dict.fromkeys(records)), exact_hit=True)
        gathered.extend(records)
    return ResultSet(records=list(dict.fromkeys(gathered)), exact_hit=False)


search_trie = search_listing
