"""Server-side index: one trapdoor -> records map and the search over it.

Every kind holds the same state (each fuzzy variant's trapdoor mapped to a
tuple of its encrypted records, plus the trapdoors of keywords' own
zero-edit variants) and answers a request with the same records, by map
lookup.  A record is the bytes ``nonce || ciphertext`` that
``crypto.encrypt_record`` returns; nothing here looks inside one.  The listing
index is the flat table; the trie files each trapdoor root-to-leaf as n-bit
symbols, its nodes derived from ``Index.ordered``; a trie that also holds
``tags`` (``verifiable.build_auth_trie``) is the authenticated trie, with a
tag per entry and per gap between entries.

Requests put the exact word's trapdoor first; a search that matches it
returns only that entry's records (the exact hit short-circuits the fuzzy
lookups, mirroring the search definition's exact-match rule).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import ClassVar

from .crypto import KeyMaterial, decrypt_record, encrypt_records, trapdoors
from .errors import BadParameter, EditBoundExceeded
from .fuzzyset import fuzzy_set, within_edits


def symbolize(t: bytes, n: int) -> tuple[int, ...]:
    """Split a trapdoor into big-endian symbols of ``n`` bits each."""
    bits = len(t) * 8
    if n <= 0 or bits % n != 0:
        raise BadParameter(f"{n} bits does not evenly divide a {bits}-bit trapdoor")
    val = int.from_bytes(t, "big")
    count = bits // n
    mask = (1 << n) - 1
    return tuple((val >> (n * (count - 1 - i))) & mask for i in range(count))


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


@dataclass
class TrieIndex(Index):
    """Each trapdoor filed root-to-leaf as ``depth`` n-bit symbols, records at the leaf.

    The trie is a view over ``ordered``: the node at ``depth`` on ``prefix`` (its path
    as an integer) holds the leaves ``span(depth, prefix)`` and exists when that is not empty.
    """

    tags: bytes = b""  # an authenticated trie's: TAG_BYTES per entry, then per gap, in ``ordered`` order

    @property
    def kind(self) -> str:
        return "auth_trie" if self.tags else "trie"

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

    The whole corpus is keyed in one pass: one ``trapdoors`` call derives every
    keyword variant's trapdoor, and one ``encrypt_records`` call every (variant,
    fid) record, so each key's HMAC pad states are looked up once per build and
    no Python call is made per record.  The bytes are those of ``trapdoor`` and
    ``encrypt_record`` per variant and record.  Keywords are processed in sorted
    order and every nonce is derived from its (variant, keyword, fid), so two
    builds from the same corpus and keys produce identical bytes.  A variant
    shared by several keywords accumulates all their records under one
    trapdoor, in keyword order; they are joined once, at the end, so the work
    stays linear.

    Also returns the set of canonical trapdoors (each keyword's own zero-edit
    variant); only those entries terminate a search as an exact hit.
    """
    groups = []  # (keyword, its variants, its distinct fids), in keyword order
    for keyword in sorted(corpus):
        fids = list(dict.fromkeys(corpus[keyword]))
        if fids:  # nothing to find otherwise: an entry without records is never a hit
            groups.append((keyword, fuzzy_set(keyword, d, method), fids))
    keyed = iter(trapdoors(km, [v for _, variants, _ in groups for v in variants]))
    records = iter(encrypt_records(km, groups))
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


def make_request(word: str, k: int, km: KeyMaterial, method: str = "wildcard") -> SearchRequest:
    """Trapdoors for every variant of (word, k); exact word first, rest lexicographic."""
    variants = fuzzy_set(word, k, method)
    ordered = [word] + [v for v in variants if v != word]
    return SearchRequest(trapdoors=tuple(trapdoors(km, ordered)), k=k)


def decrypt_matches(km: KeyMaterial, word: str, k: int, result: ResultSet) -> list[tuple[bytes, str]]:
    """The (fid, keyword) of each record in ``result`` whose keyword is within ``k`` edits of ``word``.

    Every record is decrypted first, so one that fails authentication raises
    ``AuthFailure`` even when its keyword would be dropped.  A gram index also
    returns keywords more than ``k`` edits away; those are the ones dropped.
    """
    found = [decrypt_record(km, rec) for rec in result.records]
    return [(fid, keyword) for fid, keyword in found if within_edits(word, keyword, k)]


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
