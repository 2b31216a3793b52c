"""Verifiable search: an authenticated trie, per-trapdoor proofs, and Verify.

The authenticated trie is the trie over the same entry map plus two byte
strings.  Every node has a chain digest
``r1 = PRF(sk0, depth || symbol || parent_r1)``, and ``PRF(sk0, "root")`` at
the root.  So anyone holding ``sk0`` can recompute the r1 of the node a
trapdoor's own symbols lead to, and a proof cannot borrow the r1 of a
different node.  Every entry has ``leaf_tag = PRF(sk0, r1 || digest(records))``,
binding the exact record list.

``r1`` holds the digests, ``R1_BYTES`` each, in the pre-order of
``node_keys()``: the order the builder makes them and FZIX writes them.  A
node's place in that order is its address, so no per-node key is stored.
``r1_at(depth, prefix)`` finds the first leaf under the node by bisecting the
sorted trapdoors; that leaf's path adds the node to the pre-order, and a
per-leaf offset list gives where.  ``tags`` holds the leaf tags, ``R1_BYTES``
each, in sorted-trapdoor order, read by ``tag_at``.

A proof per trapdoor reports the matched prefix length as a bit sequence
(all ones on a full match, ones then a single zero on a mismatch), the
deepest matched node's r1, and for full matches the leaf tag and record
digest.  The verifier checks the proof count, recomputes each sampled chain,
and re-derives every full-match digest from the records actually returned.
No tag binds the exact flag, so on an exact hit the verifier decrypts the
returned records until one is of the keyword whose trapdoor came first.

Known residual gap (inherited from the protocol): a server that claims a
SHORTER match than reality presents the r1 of a real ancestor node, which
verifies; without knowledge of the trie shape the client cannot tell a true
mismatch from an under-reported one.  Dropping, forging, or tampering with
results is detected; silent under-reporting at a true prefix is not.
"""

from __future__ import annotations

import enum
import hmac as _hmac
import random
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from hashlib import sha256

from .crypto import KeyMaterial, decrypt_record, prf_bytes, record_digest, trapdoor
from .errors import AuthFailure, Truncated
from .index import ResultSet, SearchRequest, TrieIndex, search_listing

R1_BYTES = 32


def root_r1(record_key: bytes) -> bytes:
    return prf_bytes(record_key, b"C:root", R1_BYTES)


def chain_r1(record_key: bytes, depth: int, symbol: int, parent_r1: bytes) -> bytes:
    return prf_bytes(record_key, b"C:" + bytes([depth, symbol]) + parent_r1, R1_BYTES)


def leaf_tag(record_key: bytes, r1: bytes, digest: bytes) -> bytes:
    return prf_bytes(record_key, b"L:" + r1 + digest, R1_BYTES)


@dataclass
class AuthTrieIndex(TrieIndex):
    kind = "auth_trie"
    r1: bytearray = field(default_factory=bytearray)  # R1_BYTES per node, in node_keys() order
    tags: bytearray = field(default_factory=bytearray)  # R1_BYTES per entry, in ``ordered`` order

    @classmethod
    def build(cls, corpus: dict[str, list[bytes]], d: int, km: KeyMaterial, method: str = "wildcard"):
        """Trie build plus an r1 for every node, parents first, and a tag per entry."""
        index = super().build(corpus, d, km, method)
        key, n, leaf_depth = km.record_key, index.symbol_bits, index.depth
        path = [root_r1(key)] * (leaf_depth + 1)  # r1 of the last node met at each depth
        index.r1 += path[0]
        for depth, prefix in index.node_keys():
            if depth:
                path[depth] = chain_r1(key, depth, prefix & ((1 << n) - 1), path[depth - 1])
                index.r1 += path[depth]
            if depth == leaf_depth:
                records = index.table[prefix.to_bytes(index.trapdoor_bits // 8, "big")]
                index.tags += leaf_tag(key, path[depth], record_digest(records))
        return index

    @cached_property
    def _path_base(self) -> array:
        """Per leaf, the pre-order number of the nodes its path adds, less their depth.

        Leaf i adds the nodes below its common prefix with leaf i-1, in one
        pre-order run; the one at depth ``d`` is node ``_path_base[i] + d``.
        """
        base, count = array("q"), 1
        for _, shared in self._splits():
            base.append(count - shared - 1)
            count += self.depth - shared
        return base

    def r1_at(self, depth: int, prefix: int) -> bytes:
        """The r1 of the node at ``depth`` on the path ``prefix``; KeyError if there is none.

        The first leaf under the node is the one that adds it to the pre-order.
        """
        at = 0  # the root's
        if depth or prefix:
            shift = self.trapdoor_bits - depth * self.symbol_bits
            if depth <= 0 or shift < 0:
                raise KeyError((depth, prefix))
            ordered = self.ordered
            pos = bisect_left(ordered, prefix << shift)
            if pos == len(ordered) or ordered[pos] >> shift != prefix:
                raise KeyError((depth, prefix))
            at = (self._path_base[pos] + depth) * R1_BYTES
        return bytes(self.r1[at : at + R1_BYTES])

    def tag_at(self, t: bytes) -> bytes:
        """The leaf tag of entry ``t``; KeyError if the index has no such entry."""
        v, ordered = int.from_bytes(t, "big"), self.ordered
        pos = bisect_left(ordered, v)
        if pos == len(ordered) or ordered[pos] != v:
            raise KeyError(t)
        return bytes(self.tags[pos * R1_BYTES : (pos + 1) * R1_BYTES])


@dataclass(frozen=True)
class Proof:
    matched_len: int
    match_bits: tuple[int, ...]
    last_r1: bytes
    leaf_tag: bytes | None = None
    record_digest: bytes | None = None


class VerdictReason(enum.Enum):
    OK = "Ok"
    COUNT_MISMATCH = "CountMismatch"
    CHAIN_MISMATCH = "ChainMismatch"
    LEAF_TAG_MISMATCH = "LeafTagMismatch"
    BIT_PATTERN_INVALID = "BitPatternInvalid"
    EXACT_FLAG_MISMATCH = "ExactFlagMismatch"


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    reason: VerdictReason
    failing_index: int | None = None


build_auth_trie = AuthTrieIndex.build


def search_with_proof(index: AuthTrieIndex, req: SearchRequest) -> tuple[ResultSet, list[Proof]]:
    """Search plus one proof per trapdoor.

    The record list short-circuits on an exact hit exactly like the plain
    search, but proofs are still produced for every trapdoor — the
    verifier's first check is that none went missing.

    One bisect places each trapdoor among the sorted leaves.  A full match
    is leaf ``pos``: its r1 and tag slot follow.  Otherwise the neighbours
    give the matched length, and the deepest matched node's r1 sits at
    ``_path_base`` of the first leaf under it: the successor, else the
    predecessor, unless a leaf before that one is under the node too; only
    then does a second bisect, over the leaves before, find it.
    """
    result = search_listing(index, req)
    depth, n, bits = index.depth, index.symbol_bits, index.trapdoor_bits
    ordered, base, r1, tags = index.ordered, index._path_base, index.r1, index.tags
    size, proofs = len(ordered), []
    for t in req.trapdoors:
        v = int.from_bytes(t, "big")
        pos = bisect_left(ordered, v)
        if pos < size and ordered[pos] == v:
            at, slot = (base[pos] + depth) * R1_BYTES, pos * R1_BYTES
            digest = record_digest(index.table[t])
            tag = bytes(tags[slot : slot + R1_BYTES])
            proofs.append(Proof(depth, (1,) * depth, bytes(r1[at : at + R1_BYTES]), tag, digest))
            continue
        diff = (1 << bits) - 1
        if pos:
            diff = v ^ ordered[pos - 1]
        if pos < size:
            diff = min(diff, v ^ ordered[pos])
        matched = (bits - diff.bit_length()) // n  # < depth, as v is no leaf
        at = 0  # the root's
        if matched:
            shift = bits - matched * n
            prefix, first = v >> shift, pos
            if pos and ordered[pos - 1] >> shift == prefix:
                first = pos - 1
                if first and ordered[first - 1] >> shift == prefix:
                    first = bisect_left(ordered, prefix << shift, 0, first - 1)
            at = (base[first] + matched) * R1_BYTES
        proofs.append(Proof(matched, (1,) * matched + (0,), bytes(r1[at : at + R1_BYTES])))
    return result, proofs


def _shape_ok(proof: Proof, depth: int) -> bool:
    if not 0 <= proof.matched_len <= depth:
        return False
    if proof.matched_len == depth:
        return (
            proof.match_bits == (1,) * depth
            and proof.leaf_tag is not None
            and proof.record_digest is not None
        )
    return (
        proof.match_bits == (1,) * proof.matched_len + (0,)
        and proof.leaf_tag is None
        and proof.record_digest is None
    )


def verify(
    req: SearchRequest,
    results: ResultSet,
    proofs: list[Proof],
    km: KeyMaterial,
    sample_rate: float = 1.0,
    rng: random.Random | None = None,
) -> Verdict:
    """Check a search transcript; every failure is a Verdict, never an exception.

    Checks, in order: proof count; per-proof bit-pattern shape; for sampled
    proofs the r1 chain recomputed from the trapdoor's own symbols; and for
    full matches the leaf tag binding the claimed digest, and the digest
    re-derived from the returned records (consumed in proof order).  With an
    exact hit only the first proof's records are present, and one of them
    must decrypt to the keyword whose own trapdoor is the request's first.
    """
    if len(proofs) != len(req.trapdoors):
        return Verdict(False, VerdictReason.COUNT_MISMATCH)
    depth, n = km.depth, km.symbol_bits
    mask = (1 << n) - 1
    rng = rng or random.Random()
    base = root_r1(km.record_key)
    records = results.records
    if results.exact_hit and (not proofs or proofs[0].matched_len != depth):
        return Verdict(False, VerdictReason.BIT_PATTERN_INVALID, 0)
    pos = 0
    for i, proof in enumerate(proofs):
        if not _shape_ok(proof, depth):
            return Verdict(False, VerdictReason.BIT_PATTERN_INVALID, i)
        sampled = sample_rate >= 1.0 or rng.random() < sample_rate
        if sampled:
            # the chain over the trapdoor's own first matched_len symbols
            t = req.trapdoors[i]
            v, bits = int.from_bytes(t, "big"), len(t) * 8
            r = base
            for j in range(1, min(proof.matched_len, bits // n) + 1):
                r = chain_r1(km.record_key, j, (v >> (bits - j * n)) & mask, r)
            if not _hmac.compare_digest(r, proof.last_r1):
                return Verdict(False, VerdictReason.CHAIN_MISMATCH, i)
        if proof.matched_len == depth:
            if not results.exact_hit or i == 0:
                digest = sha256()
                found = False
                while pos < len(records):
                    digest.update(records[pos].blob)
                    pos += 1
                    if digest.digest() == proof.record_digest:
                        found = True
                        break
                if not found:
                    return Verdict(False, VerdictReason.LEAF_TAG_MISMATCH, i)
            if sampled:
                expect = leaf_tag(km.record_key, proof.last_r1, proof.record_digest)
                if not _hmac.compare_digest(expect, proof.leaf_tag):
                    return Verdict(False, VerdictReason.LEAF_TAG_MISMATCH, i)
    if pos != len(records):
        return Verdict(False, VerdictReason.LEAF_TAG_MISMATCH)
    if results.exact_hit and not _holds_query_keyword(req.trapdoors[0], records, km):
        return Verdict(False, VerdictReason.EXACT_FLAG_MISMATCH, 0)
    return Verdict(True, VerdictReason.OK)


def _holds_query_keyword(t: bytes, records, km: KeyMaterial) -> bool:
    """Whether a record is of the keyword whose own trapdoor is ``t``.

    No tag binds the exact flag, and in gram mode a query can be another
    keyword's variant; the owner's AEAD vouches for the keyword inside.
    """
    for rec in records:
        try:
            _, keyword = decrypt_record(km, rec)
        except AuthFailure:
            continue
        if trapdoor(km, keyword) == t:
            return True
    return False


_BIT_DIGITS = bytes.maketrans(bytes(range(256)), b"0" + b"1" * 255)  # bit value -> ASCII digit
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _pack_bits(bits: tuple[int, ...]) -> bytes:
    """The bits most significant first, zero-padded to whole bytes."""
    size = (len(bits) + 7) // 8
    value = int(bytes(bits).translate(_BIT_DIGITS) or b"0", 2)
    return (value << (8 * size - len(bits))).to_bytes(size, "big")


def _unpack_bits(buf: bytes, count: int) -> tuple[int, ...]:
    """The first ``count`` bits of ``buf``, most significant first."""
    digits = bin(int.from_bytes(buf, "big") | 1 << 8 * len(buf))  # "0b1" then every bit
    return tuple(digits[3 : 3 + count].encode().translate(_DIGIT_BITS))


def encode_proof(proof: Proof) -> bytes:
    """Wire form: matched_len, packed bits, then length-prefixed r1 (+ tag, digest)."""
    out = bytes([proof.matched_len]) + _pack_bits(proof.match_bits)
    out += bytes([len(proof.last_r1)]) + proof.last_r1
    if proof.leaf_tag is not None:
        out += bytes([len(proof.leaf_tag)]) + proof.leaf_tag
        out += bytes([len(proof.record_digest)]) + proof.record_digest
    return out


def decode_proof(buf: bytes, depth: int) -> Proof:
    """Inverse of ``encode_proof``; needs the tree depth to size the bitfield."""
    if not buf:
        raise Truncated("proof encoding ends early")
    matched_len = buf[0]
    full = matched_len == depth
    nbits = matched_len if full else matched_len + 1
    pos = bits_end = 1 + (nbits + 7) // 8
    fields = []
    for _ in range(3 if full else 1):  # r1, then a full match's tag and digest
        if pos >= len(buf):
            raise Truncated("proof encoding ends early")
        end = pos + 1 + buf[pos]
        fields.append(buf[pos + 1 : end])
        pos = end
    if pos > len(buf):
        raise Truncated("proof encoding ends early")
    if pos < len(buf):
        raise Truncated("trailing bytes after proof")
    r1, tag, digest = fields if full else (fields[0], None, None)
    bits = _unpack_bits(buf[1:bits_end], nbits)
    return Proof(matched_len=matched_len, match_bits=bits, last_r1=r1, leaf_tag=tag, record_digest=digest)
