"""Trapdoors, record encryption and the blinding permutation.

The server only ever sees trapdoors: keyed pseudorandom digests of keyword
variants, ``TRAPDOOR_BITS`` (160) long, which the trie splits into
``SYMBOL_BITS`` (4-bit) symbols.  That geometry is fixed: keys, indexes and
the wire carry no other, and the key and index headers record it.  File
identifiers travel inside authenticated ciphertexts under a separate key: a
record is one AES-SIV output (RFC 5297), the 16-byte synthetic IV and then
the ciphertext of ``copy || len(fid) || fid || keyword``, from
``encrypt_record`` through the index, its file and the wire to
``decrypt_record``.  ``copy`` (2 bytes) is the position of the entry's
variant in its keyword's sorted fuzzy set, so the copies of one (keyword,
fid) under its variants' entries are distinct records; SIV is deterministic,
so two builds give the same bytes, and it needs no nonce.  A Feistel
permutation keyed by the rotating blind key turns trapdoors into per-epoch
request tokens for the multi-user setting.  The keys themselves,
``KeyMaterial`` and ``keygen``, are ``keys``'s.

Every PRF for trapdoors, proof tags and key derivation is one RFC 2104
HMAC-SHA256 block, so at most 32 bytes, computed from the inner and outer
hash states left after absorbing the padded key.  ``prf_many`` is that
kernel: a list of messages under one key, with one lookup of those states.
``trapdoors`` (the owner's build and ``make_request``) and the authenticated
trie's tags call it with many; ``prf_bytes`` and ``trapdoor`` are the
one-item forms.  The records' AES-SIV key, ``2 * len(record_key)`` bytes,
is two PRF outputs under the record key (``_SIV_KEY_LABELS``), and the
proof tags' key (``tag_key``) one more under ``_TAG_KEY_LABEL``, so the
record key itself keys HMAC alone, and keys no tag.  ``encrypt_records``
seals a build's records with one bound ``encrypt`` and ``encrypt_record``
is its one-item form.  The pad states are cached per key, so they hold
secret keys in process memory for as long as the process lives, unless the
bounded cache evicts them.  The tag key, the AES-SIV cipher of the records
and the AES-GCM cipher of ``multiuser``'s key wrap are cached per key the
same way, and the AES-ECB encryptor of the blinding permutation per key and
thread.  Each cipher loads on first use, and only then is ``cryptography``
imported: this module names it inside functions alone, so a process that
never builds a cipher (a server that is not blinded, or one that only
derives trapdoors or tags) never loads the library.

One SHA-256 runs under every PRF, the proofs' record digests (``verifiable``)
and ``multiuser``'s wrap key: ``sha256``, CPython's built-in
module (``_sha256`` up to 3.11, ``_sha2`` from 3.12), and ``hashlib.sha256``
only on an interpreter built without both.  The bytes are the same either way;
what differs is what a process maps.  ``hashlib`` loads OpenSSL's libcrypto
through ``_hashlib``, about 3.6 MB resident, so no module of this package
imports ``hashlib``, ``hmac`` or ``secrets`` at module level: keys and nonces
come from ``os.urandom`` (what ``secrets.token_bytes`` calls), and only
``verify``, which clients run, imports ``hmac.compare_digest``.  No server,
plain, authenticated or blinded, loads any of them.  The built-in hash is also
the cheaper one for a message of one SHA-256 block, as every trapdoor and gap
tag is: copying its state is a memory copy, not an OpenSSL context copy.  Each
further block costs it more than OpenSSL, so a leaf tag (two blocks) and a
digest of several records take longer.

The blinding permutation ``prp`` is a 4-round Luby-Rackoff Feistel network
over the two halves of a trapdoor, the shape of NIST SP 800-38G FF1 with
fewer rounds.  Its round function is AES under the blind key, truncated to
the half's length: ``F_i(x) = AES(x || i || len(x) || 0...)[:len(x)]``.
AES is a pseudorandom permutation, so truncated it is a PRF (the PRP/PRF
switching term is about ``q^2 / 2^128``), and four rounds over ``n``-bit
halves give a strong pseudorandom permutation up to about ``q^2 / 2^n`` for
``q`` queries: ``q^2 / 2^80`` at 160-bit trapdoors.  ``prp`` permutes
trapdoors only: every block is ``TRAPDOOR_BYTES`` (20) long, so a 10-byte
half and its two tag bytes fit one AES block.
"""

from __future__ import annotations

import functools
import struct
import threading
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from .errors import AuthFailure, BadParameter

if TYPE_CHECKING:
    from .keys import KeyMaterial

try:  # CPython's own SHA-256: ``_sha256`` up to 3.11, ``_sha2`` from 3.12
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:  # an interpreter built without them; hashlib then has its own
        from hashlib import sha256

NONCE_BYTES = 12  # an AES-GCM nonce: ``gcm_open``'s, for ``multiuser``'s key wrap
SIV_BYTES = 16  # a record's synthetic IV, its first bytes
# the IV, then the copy index (2), the fid's length (1), at least one fid byte and one keyword letter
RECORD_MIN_BYTES = SIV_BYTES + 5
MAX_FID_BYTES = 64
SECURITY_BITS = (128, 256)  # each key is security_bits // 8 bytes

TRAPDOOR_BITS = 160  # every trapdoor's length; the FZKY and FZIX headers and HelloAck carry it
SYMBOL_BITS = 4  # one trie edge; the FZKY and FZIX headers and HelloAck carry it
TRAPDOOR_BYTES = TRAPDOOR_BITS // 8
DEPTH = TRAPDOOR_BITS // SYMBOL_BITS  # symbols per trapdoor: the height of the search tree
MAX_VARIANTS = 4096  # the most variants of one fuzzy set, and so the most trapdoors of one request

_FEISTEL_ROUNDS = 4
# prp lays each block into its own slot of two AES blocks: block, then zeros
_SLOT = 32
# prp keeps its constants for every request length up to this; a longer request makes its own
_PRP_CACHED_LENGTHS = 64
# Distinct keys in use at once: trapdoor, record and blind key, user keys, seeds.
_KEY_CACHE_SIZE = 256
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))
_COUNTER = bytes(4)  # the block counter of HMAC counter mode's first block, ending every PRF input
# The PRF inputs under the record key that give the records' AES-SIV key: its S2V half, then its CTR half,
# and the proof tags' key.  No other input under that key begins "R:" (the user keys' begin "U:"), and
# none of these is a prefix of another.
_SIV_KEY_LABELS = (b"R:siv-s2v", b"R:siv-ctr")
_TAG_KEY_LABEL = b"R:tag"


def check_key_sizes(keys: Sequence[bytes], security_bits: int) -> None:
    """``BadParameter`` unless the security level is 128 or 256 and every key is ``security_bits // 8`` bytes.

    The one size rule: ``KeyMaterial`` holds to it, and ``persist`` reads an
    FZKY file by it, whether it then makes a ``KeyMaterial`` or not.
    """
    if security_bits not in SECURITY_BITS or any(len(key) != security_bits // 8 for key in keys):
        raise BadParameter(f"key sizes {[len(k) for k in keys]} do not fit security {security_bits}")


@functools.lru_cache(maxsize=_KEY_CACHE_SIZE)
def _hmac_pads(key: bytes):
    """HMAC-SHA256's inner and outer hash states after absorbing the padded key."""
    inner, outer = sha256(), sha256()
    if len(key) > inner.block_size:
        key = sha256(key).digest()
    key = key.ljust(inner.block_size, b"\0")
    inner.update(key.translate(_IPAD))
    outer.update(key.translate(_OPAD))
    return inner, outer


def prf_bytes(key: bytes, msg: bytes, n: int) -> bytes:
    """Keyed pseudorandom bytes: the first ``n`` (1..32) bytes of one HMAC-SHA256 block.

    Byte for byte ``hmac.new(key, msg + bytes(4), "sha256").digest()[:n]``,
    the first block of HMAC in counter mode: the one-item ``prf_many``.
    """
    return prf_many(key, (msg,), n)[0]


def prf_many(key: bytes, msgs: Iterable[bytes], n: int) -> list[bytes]:
    """``[prf_bytes(key, m, n) for m in msgs]``, from one lookup of the per-key pad states."""
    if not 0 < n <= 32:
        raise BadParameter(f"a PRF gives 1..32 bytes, not {n}")
    inner, outer = _hmac_pads(key)
    inner_copy, outer_copy = inner.copy, outer.copy
    out = []
    for msg in msgs:
        h = inner_copy()
        h.update(msg + _COUNTER)
        o = outer_copy()
        o.update(h.digest())
        out.append(o.digest()[:n])
    return out


def trapdoor(km: KeyMaterial, variant: str) -> bytes:
    """Keyed digest of a keyword variant, exactly ``TRAPDOOR_BYTES`` long."""
    return trapdoors(km, (variant,))[0]


def trapdoors(km: KeyMaterial, variants: Iterable[str]) -> list[bytes]:
    """``trapdoor`` of each variant, in order, from one ``prf_many`` call."""
    return prf_many(km.trapdoor_key, [b"T:" + v.encode("ascii") for v in variants], TRAPDOOR_BYTES)


@functools.lru_cache(maxsize=_KEY_CACHE_SIZE)
def aes_gcm(key: bytes):
    """The AES-GCM cipher under ``key``, cached per key; the first call loads ``cryptography``."""
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    return AESGCM(key)


def _aead_failures() -> tuple[type[Exception], ...]:
    """What a failed AEAD open raises.  An ``except`` clause evaluates this
    only once something was raised, so a successful open imports nothing."""
    from cryptography.exceptions import InvalidTag

    return InvalidTag, ValueError


def gcm_open(key: bytes, blob: bytes, aad: bytes | None, what: str) -> bytes:
    """Open ``nonce || ciphertext`` under ``key``; a tamper, a wrong key or a key
    AES-GCM refuses raises ``AuthFailure`` "<what> failed authentication"."""
    try:
        return aes_gcm(key).decrypt(blob[:NONCE_BYTES], blob[NONCE_BYTES:], aad)
    except _aead_failures() as exc:
        raise AuthFailure(f"{what} failed authentication") from exc


def aes_siv(key: bytes):
    """The AES-SIV cipher (RFC 5297) under a 32-, 48- or 64-byte ``key``; loads ``cryptography``."""
    from cryptography.hazmat.primitives.ciphers.aead import AESSIV

    return AESSIV(key)


@functools.lru_cache(maxsize=_KEY_CACHE_SIZE)
def record_cipher(record_key: bytes):
    """The records' AES-SIV cipher, cached per record key: its key is
    ``2 * len(record_key)`` bytes, one PRF output per ``_SIV_KEY_LABELS`` label."""
    return aes_siv(b"".join(prf_many(record_key, _SIV_KEY_LABELS, len(record_key))))


@functools.lru_cache(maxsize=_KEY_CACHE_SIZE)
def tag_key(record_key: bytes) -> bytes:
    """The proof tags' HMAC key, cached per record key: the PRF output under
    ``_TAG_KEY_LABEL``, ``len(record_key)`` bytes, so that no tag shares a key
    with a personal key (``U:``) or the records' AES-SIV key."""
    return prf_bytes(record_key, _TAG_KEY_LABEL, len(record_key))


def encrypt_record(km: KeyMaterial, fid: bytes, keyword: str, copy: int) -> bytes:
    """The record of ``fid`` and its keyword that the entry of the keyword's
    variant at position ``copy`` of its sorted fuzzy set holds.

    AES-SIV is deterministic, so the same inputs give the same bytes, and
    ``copy`` keeps a (keyword, fid)'s records under its variants distinct.
    """
    return encrypt_records(km, [(keyword, (copy,), (fid,))])[0]


def encrypt_records(km: KeyMaterial, groups: Iterable[tuple[str, Sequence[int], Sequence[bytes]]]) -> list[bytes]:
    """``encrypt_record`` of every record of each ``(keyword, copies, fids)`` group:
    group by group, copy by copy, one record per fid.

    A keyword and its fids are encoded once per group, and one bound AES-SIV
    ``encrypt`` seals every record; no PRF runs per record.  A fid that is not
    1..``MAX_FID_BYTES`` bytes or a copy outside ``0..MAX_VARIANTS - 1`` raises
    ``BadParameter``.
    """
    plains: list[bytes] = []
    for keyword, copies, fids in groups:
        for fid in fids:
            if not fid or len(fid) > MAX_FID_BYTES:
                raise BadParameter(f"fid must be 1..{MAX_FID_BYTES} bytes")
        if copies and (min(copies) < 0 or max(copies) >= MAX_VARIANTS):
            raise BadParameter(f"a copy in {copies} is not a variant's position (0..{MAX_VARIANTS - 1})")
        word = keyword.encode("ascii")
        tails = [bytes([len(fid)]) + fid + word for fid in fids]
        plains += [copy.to_bytes(2, "big") + tail for copy in copies for tail in tails]
    seal = record_cipher(km.record_key).encrypt
    return [seal(plain, None) for plain in plains]


def decrypt_record(km: KeyMaterial, blob: bytes) -> tuple[bytes, str]:
    """Recover (fid, keyword) from an AES-SIV record; the copy index is dropped.

    A record shorter than ``RECORD_MIN_BYTES``, any tamper or a wrong key
    raises AuthFailure, and so does an authentic payload that is not a copy
    index, a fid length, the fid and an ASCII keyword of at least one letter.
    """
    if len(blob) < RECORD_MIN_BYTES:
        raise AuthFailure("record blob too short")
    try:
        payload = record_cipher(km.record_key).decrypt(blob, None)
    except _aead_failures() as exc:
        raise AuthFailure("record failed authentication") from exc
    n = payload[2]  # an authentic payload is at least RECORD_MIN_BYTES - SIV_BYTES long
    if n == 0 or len(payload) <= 3 + n:
        raise AuthFailure("malformed record payload")
    try:
        return payload[3 : 3 + n], payload[3 + n :].decode("ascii")
    except UnicodeDecodeError:
        raise AuthFailure("record keyword is not ASCII") from None


@functools.lru_cache(maxsize=_KEY_CACHE_SIZE)
def _blind_update(key: bytes, thread_id: int):
    """The ``update`` of one AES-ECB encryptor per key and thread: ECB keeps no state
    between calls of whole blocks, and a thread id is reused only once its thread has ended."""
    from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

    try:
        return Cipher(algorithms.AES(key), modes.ECB()).encryptor().update
    except ValueError as exc:
        raise BadParameter(f"blind key must be 16, 24 or 32 bytes, got {len(key)}") from exc


def blind_cipher(key: bytes):
    """``prp``'s AES-ECB ``update`` under ``key`` for the calling thread, built on
    the thread's first call; ``BadParameter`` unless ``key`` is 16, 24 or 32 bytes."""
    return _blind_update(key, threading.get_ident())


@functools.lru_cache(maxsize=None)
def _prp_layout(n: int):
    """``prp``'s constants for ``n`` trapdoors: the byte size of the slots, the mask over
    each slot's half, the round tags, and the unpacking of the permuted halves.

    ``unit`` has a 1 in the last byte of each slot's half, so one product with
    it writes the same bytes into every slot: the mask over the half, and each
    round's tag bytes (round number, then half length) after it.
    """
    w, h = TRAPDOOR_BYTES, TRAPDOOR_BYTES // 2
    unit = int.from_bytes((bytes(h - 1) + b"\1").ljust(_SLOT, b"\0") * n, "big")
    tags = tuple((unit >> 16) * (i << 8 | h) for i in range(_FEISTEL_ROUNDS))
    return _SLOT * n, unit * ((1 << 8 * h) - 1), tags, struct.Struct(f"{w}s{_SLOT - w}x" * n).unpack


def prp(key: bytes, blocks: Sequence[bytes], direction: str = "forward") -> tuple[bytes, ...]:
    """Keyed bijection on every trapdoor of a request at once: a 4-round Feistel network.

    ``prp(k, prp(k, ts, "forward"), "inverse") == tuple(ts)``.  Every block
    is a trapdoor, ``TRAPDOOR_BYTES`` (20) long, and any other length raises
    ``BadParameter``; ``key`` is an AES key (16, 24 or 32 bytes).  Round
    ``i`` XORs one 10-byte half of each block with the first 10 bytes of
    ``AES(key, other half || i || 10 || zeros)``: a half and its two tag
    bytes fit one AES block.

    Each half sits at the front of its own 32-byte slot of one big integer,
    so a round is one AES-ECB call over every slot of the request (the
    second AES block of a slot is zeros and its output is masked off), one
    mask and one XOR.  The constants of each request length up to
    ``_PRP_CACHED_LENGTHS`` are made once; a hostile client's longer
    requests cannot fill the cache.
    """
    if direction not in ("forward", "inverse"):
        raise BadParameter(f"unknown direction {direction!r}")
    update = blind_cipher(key)
    n = len(blocks)
    if not n:
        return ()
    w, h = TRAPDOOR_BYTES, TRAPDOOR_BYTES // 2
    if set(map(len, blocks)) != {w}:
        raise BadParameter(f"prp permutes {w}-byte trapdoors only")
    layout = _prp_layout if n <= _PRP_CACHED_LENGTHS else _prp_layout.__wrapped__
    size, mask, tags, unpack = layout(n)
    pad = bytes(_SLOT - w)
    whole = int.from_bytes(pad.join(blocks) + pad, "big")
    left = whole & mask
    right = (whole ^ left) << 8 * h
    # With an even round count, XORing the halves in place in turn equals the
    # textbook swap form; the inverse runs the same rounds in reverse order.
    rounds = range(_FEISTEL_ROUNDS) if direction == "forward" else reversed(range(_FEISTEL_ROUNDS))
    for i in rounds:
        if i % 2 == 0:
            left ^= mask & int.from_bytes(update((right | tags[i]).to_bytes(size, "big")), "big")
        else:
            right ^= mask & int.from_bytes(update((left | tags[i]).to_bytes(size, "big")), "big")
    return unpack((left | right >> 8 * h).to_bytes(size, "big"))
