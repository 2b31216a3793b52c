"""Verifiable search: an authenticated trie, per-trapdoor proofs, and Verify.

The authenticated trie is the trie over the same entry map plus one byte
string of tags, keyed by ``sk0`` (the record key).  Over the sorted entries
``t_0 < ... < t_{n-1}`` the owner keys

* a leaf tag per entry, ``PRF(sk0, "L:" || t_i || exact_flag_i ||
  digest(records_i))``, binding its exact flag and its record list;
* a gap tag per pair of adjacent entries, ``PRF(sk0, "G:" || len(left) ||
  len(right) || left || right)`` for ``(t_i, t_{i+1})``.  The head gap has
  an empty left end and the tail gap an empty right end; an empty index has
  one gap with both ends empty.

``tags`` holds the ``n`` leaf tags, then the ``n + 1`` gap tags, ``TAG_BYTES``
each, in sorted-trapdoor order: the order FZIX writes them.

A proof per trapdoor is a hit (the entry's exact flag, record digest and leaf
tag) or a miss (the adjacent pair around the trapdoor and their gap tag), as
NSEC records prove that a DNS name does not exist (RFC 4034 §4).  The
verifier checks the proof count, each proof's shape (a miss's ends must
enclose the trapdoor), one tag per trapdoor, and re-derives each hit's digest
from the records actually returned.  A present trapdoor has no gap around it,
so a server can neither drop a match nor under-report one; the leaf tag binds
the exact flag, so an exact hit is proof 0 with flag 1, and only then.

A miss shows the client the two entries next to the trapdoor.  An authorized
client could find these by searching anyway.
"""

from __future__ import annotations

import enum
import hmac as _hmac
from bisect import bisect_left
from dataclasses import dataclass
from hashlib import sha256

from .crypto import KeyMaterial, prf_bytes, record_digest
from .errors import Truncated
from .index import ResultSet, SearchRequest, TrieIndex, search_listing

TAG_BYTES = 32
# The first byte of every proof encoding.  A v1 proof started with its
# matched length, at most the trie depth, which ``check_geometry`` keeps
# below 255; so a v1 proof fails to decode instead of being misread.
PROOF_TYPE = 0xFF
_MISS = 2  # form byte of a miss; a hit's form byte is its exact flag, 0 or 1


def leaf_tag(record_key: bytes, t: bytes, flag: int, digest: bytes) -> bytes:
    return prf_bytes(record_key, b"L:" + t + bytes([flag]) + digest, TAG_BYTES)


def gap_tag(record_key: bytes, left: bytes, right: bytes) -> bytes:
    return prf_bytes(record_key, b"G:" + bytes([len(left), len(right)]) + left + right, TAG_BYTES)


@dataclass
class AuthTrieIndex(TrieIndex):
    """The trie plus ``tags``: a leaf tag per entry, then a gap tag per gap."""

    kind = "auth_trie"
    tags: bytes = b""  # TAG_BYTES per entry, then per gap, in ``ordered`` order

    @classmethod
    def build(cls, corpus: dict[str, list[bytes]], d: int, km: KeyMaterial, method: str = "wildcard"):
        """Trie build plus a leaf tag per entry and a gap tag per gap."""
        index = super().build(corpus, d, km, method)
        key, table, exact, keys = km.record_key, index.table, index.exact, index.ordered
        ends = [b"", *keys, b""]
        index.tags = b"".join(
            [leaf_tag(key, t, t in exact, record_digest(table[t])) for t in keys]
            + [gap_tag(key, left, right) for left, right in zip(ends, ends[1:])]
        )
        return index


@dataclass(frozen=True)
class Proof:
    """One trapdoor's proof.

    A hit has ``flag``, the entry's exact flag (0 or 1), its ``record_digest``
    and its leaf ``tag``.  A miss has ``flag`` None, the entries ``left`` and
    ``right`` around the trapdoor (b"" past either end of the list) and
    their gap ``tag``.
    """

    tag: bytes
    flag: int | None = None
    record_digest: bytes = b""
    left: bytes = b""
    right: bytes = b""

    @property
    def hit(self) -> bool:
        return self.flag is not None


class VerdictReason(enum.Enum):
    OK = "Ok"
    COUNT_MISMATCH = "CountMismatch"
    SHAPE_INVALID = "ShapeInvalid"
    LEAF_TAG_MISMATCH = "LeafTagMismatch"
    GAP_TAG_MISMATCH = "GapTagMismatch"
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
    verifier's first check is that none went missing.  One bisect places
    each trapdoor among the sorted entries: at an entry it is a hit,
    otherwise it lies in the gap before position ``pos``.
    """
    result = search_listing(index, req)
    ordered, tags, table, exact = index.ordered, index.tags, index.table, index.exact
    size, proofs = len(ordered), []
    for t in req.trapdoors:
        pos = bisect_left(ordered, t)
        if pos < size and ordered[pos] == t:
            at = pos * TAG_BYTES
            proofs.append(Proof(tags[at : at + TAG_BYTES], int(t in exact), record_digest(table[t])))
        else:
            at = (size + pos) * TAG_BYTES
            left = ordered[pos - 1] if pos else b""
            right = ordered[pos] if pos < size else b""
            proofs.append(Proof(tags[at : at + TAG_BYTES], left=left, right=right))
    return result, proofs


def _shape_ok(proof: Proof, t: bytes) -> bool:
    if len(proof.tag) != TAG_BYTES:
        return False
    if proof.hit:
        return proof.flag in (0, 1) and len(proof.record_digest) == TAG_BYTES and not proof.left + proof.right
    left, right = proof.left, proof.right
    return (
        not proof.record_digest
        and (not left or (len(left) == len(t) and left < t))
        and (not right or (len(right) == len(t) and t < right))
    )


def verify(req: SearchRequest, results: ResultSet, proofs: list[Proof], km: KeyMaterial) -> Verdict:
    """Check a search transcript; every failure is a Verdict, never an exception.

    Checks, in order: the proof count; that the exact flag is set exactly
    when proof 0 is a hit with flag 1; then per proof its shape, its one
    tag, and for a hit whose records are returned the digest re-derived
    from those records (consumed in proof order).  With an exact hit only
    proof 0's records are present; every other hit's tag is still checked.
    """
    if len(proofs) != len(req.trapdoors):
        return Verdict(False, VerdictReason.COUNT_MISMATCH)
    if results.exact_hit != (bool(proofs) and proofs[0].flag == 1):
        return Verdict(False, VerdictReason.EXACT_FLAG_MISMATCH, 0)
    key, records, pos = km.record_key, results.records, 0
    for i, (t, proof) in enumerate(zip(req.trapdoors, proofs)):
        if not _shape_ok(proof, t):
            return Verdict(False, VerdictReason.SHAPE_INVALID, i)
        if not proof.hit:
            if not _hmac.compare_digest(gap_tag(key, proof.left, proof.right), proof.tag):
                return Verdict(False, VerdictReason.GAP_TAG_MISMATCH, i)
            continue
        if not _hmac.compare_digest(leaf_tag(key, t, proof.flag, proof.record_digest), proof.tag):
            return Verdict(False, VerdictReason.LEAF_TAG_MISMATCH, i)
        if results.exact_hit and i:
            continue
        digest = sha256()
        while True:
            if pos == len(records):
                return Verdict(False, VerdictReason.LEAF_TAG_MISMATCH, i)
            digest.update(records[pos])
            pos += 1
            if digest.digest() == proof.record_digest:
                break
    if pos != len(records):
        return Verdict(False, VerdictReason.LEAF_TAG_MISMATCH)
    return Verdict(True, VerdictReason.OK)


def encode_proof(proof: Proof) -> bytes:
    """Wire form: ``PROOF_TYPE``, a form byte, then the form's fields.

    A hit is form 0 or 1 (its exact flag), the record digest and the leaf
    tag; a miss is form 2, the two ends, each 1-byte length-prefixed, and
    the gap tag.
    """
    if proof.hit:
        return bytes([PROOF_TYPE, proof.flag]) + proof.record_digest + proof.tag
    left, right = proof.left, proof.right
    return bytes([PROOF_TYPE, _MISS, len(left)]) + left + bytes([len(right)]) + right + proof.tag


def decode_proof(buf: bytes, depth: int | None = None) -> Proof:
    """Inverse of ``encode_proof``; raises ``Truncated`` on any other bytes.

    ``depth`` is unused: the encoding sizes its own fields.
    """
    if len(buf) < 2:
        raise Truncated("proof encoding ends early")
    if buf[0] != PROOF_TYPE:
        raise Truncated(f"unknown proof type {buf[0]:#04x}")
    form, pos, ends = buf[1], 2, []
    if form > _MISS:
        raise Truncated(f"unknown proof form {form}")
    if form == _MISS:
        for _ in range(2):  # left, then right
            if pos >= len(buf):
                raise Truncated("proof encoding ends early")
            end = pos + 1 + buf[pos]
            ends.append(buf[pos + 1 : end])
            pos = end
    else:
        pos += TAG_BYTES  # the record digest
    if pos + TAG_BYTES > len(buf):
        raise Truncated("proof encoding ends early")
    if pos + TAG_BYTES < len(buf):
        raise Truncated("trailing bytes after proof")
    if ends:
        return Proof(buf[pos:], left=ends[0], right=ends[1])
    return Proof(buf[pos:], form, buf[2:pos])
