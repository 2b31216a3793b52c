"""Verifiable search: an authenticated trie, its proofs, and Verify.

Any index may hold one byte string of tags, and it proves its answers
exactly when it does.  ``build_auth_trie`` builds the authenticated trie, a
``TrieIndex`` born with tags keyed by ``sk_tag``, the tag key
(``crypto.tag_key``), derived from the record key under its own label.
Every tag is ``PRF(sk_tag, m)`` cut to ``TAG_BYTES`` (16): HMAC-SHA-256
cut to 128 bits, as HMAC-SHA-256-128 is (RFC 4868), so a tag forged
without the tag key passes with probability ``2^-128`` per try.  Over the sorted entries
``t_0 < ... < t_{n-1}`` the owner keys

* a leaf tag per entry, ``m = "L:" || t_i || exact_flag_i || count_i ||
  digest_i``, binding its exact flag, its record count (2 bytes) and its
  records: the digest is SHA-256 of the entry's FZIX bytes after its
  trapdoor and flag, the count and then each record after its length, so
  it binds their boundaries too;
* a gap tag per pair of adjacent entries, ``m = "G:" || len(left) ||
  len(right) || left || right`` for ``(t_i, t_{i+1})``.  The head gap has
  an empty left end and the tail gap an empty right end; an empty index has
  one gap with both ends empty.

``tags`` holds the ``n`` leaf tags, then the ``n + 1`` gap tags, ``TAG_BYTES``
each (``tags_bytes(n)`` in all), in sorted-trapdoor order: as FZIX writes them.

A proof is a hit (the entry's exact flag, record count and leaf tag) or a
miss (the adjacent pair around the trapdoor and their gap tag), as NSEC
records prove that a DNS name does not exist (RFC 4034 §4).  An exact answer
has proof 0 alone, any other one per trapdoor.  A proof is its wire bytes,
from ``search_with_proof`` through ``verify``:

* a hit is ``PROOF_TYPE || flag || record count (2) || leaf tag (16)``, its
  form byte the exact flag, 0 or 1: 20 bytes;
* a miss is ``PROOF_TYPE || 2 || len(left) || left || len(right) || right ||
  gap tag (16)``, an end empty past either end of the list: 60 bytes between
  two entries.

``_parse_proof`` reads that layout.  The verifier checks the proof count,
each proof's shape (its layout, and a miss's ends must enclose the
trapdoor) and its tag, keying a hit's over the digest it re-derives from its
count of the records returned (``record_digest``), so a merge or re-split
of a hit's records fails.  A present trapdoor has no gap around it,
so a server can neither drop a match nor under-report one; the leaf tag
binds the exact flag, so an exact hit is proof 0 with flag 1, and only then.

A miss shows the client the two entries next to the trapdoor.  An authorized
client could find these by searching anyway.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections import namedtuple
from functools import cache
from typing import TYPE_CHECKING

from .crypto import TRAPDOOR_BYTES, prf_many, sha256, tag_key
from .errors import BadParameter, Truncated
from .index import Index, ResultSet, SearchRequest, TrieIndex, build_trie_index, search_listing

if TYPE_CHECKING:
    from collections.abc import Sequence

    from .keys import KeyMaterial

TAG_BYTES = 16  # a leaf or gap tag: HMAC-SHA-256 cut to 128 bits
# The first byte of every proof encoding.  A v1 proof started with its
# matched length, at most the trie depth of 40 symbols; so a v1 proof
# fails to decode instead of being misread.
PROOF_TYPE = 0xFF
_MISS = 2  # form byte of a miss; a hit's form byte is its exact flag, 0 or 1
_TYPE, _MISS_HEAD = bytes([PROOF_TYPE]), bytes([PROOF_TYPE, _MISS])
# offsets in an FZIX entry: its flag, after the trapdoor, and the end of its head (trapdoor, flag, record count)
_FLAG, _HEAD = TRAPDOOR_BYTES, TRAPDOOR_BYTES + 3
_HIT_BYTES = 4 + TAG_BYTES  # a hit is the type, its flag, the record count (2), then the leaf tag
_BYTE = tuple(bytes([i]) for i in range(256))  # a lookup is cheaper than bytes([i]) on the hot paths


def tags_bytes(entries: int) -> int:
    """The length of the tags of an index of ``entries`` entries: a leaf tag per entry, a gap tag per gap."""
    return (2 * entries + 1) * TAG_BYTES


def _leaf_msg(t: bytes, flag: int, count: bytes, digest: bytes) -> bytes:
    """The leaf tag's message; ``count`` is the record count's two bytes."""
    return b"".join((b"L:", t, _BYTE[flag], count, digest))


def _gap_msg(left: bytes, right: bytes) -> bytes:
    return b"".join((b"G:", _BYTE[len(left)], _BYTE[len(right)], left, right))


def _digest(body: memoryview, start: int, end: int) -> bytes:
    """The record digest of the entry at ``body[start:end]``: SHA-256 of its bytes after its trapdoor and flag."""
    return sha256(body[start + _FLAG + 1 : end]).digest()


def record_digest(records: Sequence[bytes]) -> bytes:
    """The record digest of ``records``: SHA-256 of them framed as an FZIX entry frames them, the
    count (2 bytes) and then each record's length (4 bytes) before its bytes, so that no merge
    or re-split of the records has their digest."""
    h = sha256(len(records).to_bytes(2, "big"))
    for record in records:
        h.update(len(record).to_bytes(4, "big"))
        h.update(record)
    return h.digest()


class VerdictReason(enum.Enum):
    OK = "Ok"
    COUNT_MISMATCH = "CountMismatch"
    SHAPE_INVALID = "ShapeInvalid"
    LEAF_TAG_MISMATCH = "LeafTagMismatch"
    GAP_TAG_MISMATCH = "GapTagMismatch"
    EXACT_FLAG_MISMATCH = "ExactFlagMismatch"


# ``failing_index`` is the proof at fault, or None when the failure is not one proof's.
Verdict = namedtuple("Verdict", ("accepted", "reason", "failing_index"), defaults=(None,))


def build_auth_trie(
    corpus: dict[str, list[bytes]], d: int, km: KeyMaterial, method: str = "wildcard"
) -> TrieIndex:
    """The trie build with its ``tags``: a leaf tag per entry, then a gap tag per gap.

    Every tag comes from one ``prf_many`` call under the tag key over the leaf
    messages, then the gap messages.  A leaf message takes the entry's head
    and digest from ``body`` as they lie.  The tags go into a new index; the
    trie they key is left as built.
    """
    index = build_trie_index(corpus, d, km, method)
    body, starts = index.body, list(index.table.values())
    stops = [*starts[1:], len(body)]  # an entry ends where the next one starts
    msgs = [b"".join((b"L:", body[s : s + _HEAD], _digest(body, s, e))) for s, e in zip(starts, stops)]
    gaps = [b"", *index.ordered, b""]
    msgs += [_gap_msg(left, right) for left, right in zip(gaps, gaps[1:])]
    tags = b"".join(prf_many(tag_key(km.record_key), msgs, TAG_BYTES))
    return TrieIndex(index.table, body, index.d, index.method, index.exact, tags)


def search_with_proof(index: Index, req: SearchRequest) -> tuple[ResultSet, list[bytes]]:
    """Search plus its proofs, each its encoding: proof 0 alone for an exact answer, else one per trapdoor.

    Only an index that holds tags can prove; any other raises ``BadParameter``.
    The records are ``search_listing``'s.  One bisect places each proved
    trapdoor among the sorted entries: at an entry it is a hit, whose flag
    and count are the entry's bytes after its trapdoor; otherwise it lies in
    the gap before position ``pos``.  No record is read or hashed.
    """
    if not index.tags:
        raise BadParameter(f"a {index.kind} index holds no tags to prove with")
    result = search_listing(index, req)
    ordered, table, body, tags = index.ordered, index.table, index.body, index.tags
    size, proofs = len(ordered), []
    for t in req.trapdoors[:1] if result.exact_hit else req.trapdoors:
        pos = bisect_left(ordered, t)
        if pos < size and ordered[pos] == t:
            s, at = table[t], pos * TAG_BYTES
            # the exact flag, the proof's form byte, then the record count
            proofs.append(b"".join((_TYPE, body[s + _FLAG : s + _HEAD], tags[at : at + TAG_BYTES])))
        else:
            at = (size + pos) * TAG_BYTES
            left = ordered[pos - 1] if pos else b""
            right = ordered[pos] if pos < size else b""
            tag = tags[at : at + TAG_BYTES]
            proofs.append(b"".join((_MISS_HEAD, _BYTE[len(left)], left, _BYTE[len(right)], right, tag)))
    return result, proofs


def _parse_proof(proof: bytes) -> tuple[int, bytes, bytes, bytes]:
    """Split a proof into its form, two fields and tag; raises ``Truncated`` on any other value.

    A hit gives ``(flag, record count's two bytes, b"", leaf tag)``, a miss
    ``(2, left, right, gap tag)``.
    """
    if not isinstance(proof, bytes):
        raise Truncated(f"a proof is bytes, not {type(proof).__name__}")
    if len(proof) < 2:
        raise Truncated("proof encoding ends early")
    if proof[0] != PROOF_TYPE:
        raise Truncated(f"unknown proof type {proof[0]:#04x}")
    form = proof[1]
    if form < _MISS:
        if len(proof) != _HIT_BYTES:
            raise Truncated("proof encoding ends early" if len(proof) < _HIT_BYTES else "trailing bytes after proof")
        return form, proof[2:4], b"", proof[4:]
    if form != _MISS:
        raise Truncated(f"unknown proof form {form}")
    try:
        mid = 3 + proof[2]
        end = mid + 1 + proof[mid]
    except IndexError:
        raise Truncated("proof encoding ends early") from None
    tag = proof[end:]
    if len(tag) != TAG_BYTES:
        raise Truncated("proof encoding ends early" if len(tag) < TAG_BYTES else "trailing bytes after proof")
    return form, proof[3:mid], proof[mid + 1 : end], tag


@cache
def _compare_digest():
    """``hmac.compare_digest``, imported on the first call: a client's import, a server never verifies.

    A cached call costs a tenth of an import statement, which ``verify`` would pay on every call.
    """
    from hmac import compare_digest

    return compare_digest


def verify(req: SearchRequest, results: ResultSet, proofs: list[bytes], km: KeyMaterial) -> Verdict:
    """Check a search transcript; every failure is a Verdict, never an exception.

    Checks, in order: the proof count, 1 for an exact answer and one per
    trapdoor otherwise; then per proof its shape (any item that is no proof
    encoding is ``SHAPE_INVALID``), for proof 0 that the exact flag is set
    exactly when it is a hit with flag 1, and its one tag.  A hit's leaf
    message takes the digest re-derived from as many of the records returned
    as its count says, consumed in proof order; a count past the records left
    fails that hit's tag.

    The verdict is the first failure in that order.  The shapes are read
    first, up to the first proof that fails one; every tag before it is then
    keyed in one ``prf_many`` call under the tag key and checked in proof
    order, so a tag or record failure at proof ``i`` still comes before a
    shape failure at a later proof.  One ``compare_digest`` over all the tags
    at once passes every tag of an honest transcript; only when it fails is
    each tag compared on its own, to find the first at fault.
    """
    compare_digest = _compare_digest()
    records, exact_hit = results.records, results.exact_hit
    trapdoors = req.trapdoors[:1] if exact_hit else req.trapdoors
    if len(proofs) != len(trapdoors):
        return Verdict(False, VerdictReason.COUNT_MISMATCH)
    if exact_hit and not proofs:
        return Verdict(False, VerdictReason.EXACT_FLAG_MISMATCH, 0)
    msgs, tags, pos, failed = [], [], 0, None  # per proof read: its tag message and tag
    for i, (t, proof) in enumerate(zip(trapdoors, proofs)):
        try:
            form, first, second, tag = _parse_proof(proof)
        except Truncated:
            failed = Verdict(False, VerdictReason.SHAPE_INVALID, i)
            break
        if not i and exact_hit != (form == 1):
            failed = Verdict(False, VerdictReason.EXACT_FLAG_MISMATCH, 0)
            break
        if form == _MISS:
            left_bad = first and (len(first) != TRAPDOOR_BYTES or first >= t)
            if left_bad or (second and (len(second) != TRAPDOOR_BYTES or t >= second)):
                failed = Verdict(False, VerdictReason.SHAPE_INVALID, i)
                break
            msgs.append(_gap_msg(first, second))
        else:
            end = pos + int.from_bytes(first, "big")
            if end > len(records):
                failed = Verdict(False, VerdictReason.LEAF_TAG_MISMATCH, i)
                break
            msgs.append(_leaf_msg(t, form, first, record_digest(records[pos:end])))
            pos = end
        tags.append(tag)
    wants = prf_many(tag_key(km.record_key), msgs, TAG_BYTES)
    if not compare_digest(b"".join(wants), b"".join(tags)):
        bad = next(i for i, (want, tag) in enumerate(zip(wants, tags)) if not compare_digest(want, tag))
        miss = proofs[bad][1] == _MISS
        return Verdict(False, VerdictReason.GAP_TAG_MISMATCH if miss else VerdictReason.LEAF_TAG_MISMATCH, bad)
    if failed is not None:
        return failed
    if pos != len(records):
        return Verdict(False, VerdictReason.LEAF_TAG_MISMATCH)
    return Verdict(True, VerdictReason.OK)


def encode_proof(proof: bytes) -> bytes:
    """The identity: a proof already is its wire form."""
    return proof


def decode_proof(buf: bytes, depth: int | None = None) -> bytes:
    """``buf`` if it is one proof encoding; raises ``Truncated`` on any other bytes.

    ``depth`` is unused: the encoding sizes its own fields.
    """
    _parse_proof(buf)
    return buf
