"""Keys, trapdoors, record encryption and the blinding permutation.

The server only ever sees trapdoors: keyed pseudorandom digests of keyword
variants, 160 bits by default so they split evenly into 4-bit symbols.  File
identifiers travel inside authenticated ciphertexts under a separate key: a
record is the bytes ``nonce || ciphertext``, a 12-byte nonce and the AES-GCM
ciphertext with its 16-byte tag, from ``encrypt_record`` through the index,
its file and the wire to ``decrypt_record``.  A Feistel permutation keyed by
the rotating blind key turns trapdoors into per-epoch request tokens for the
multi-user setting.

Every PRF for trapdoors, nonces and key derivation is ``prf_bytes``: RFC 2104
HMAC, computed from the inner and outer hash states left after absorbing the
padded key.  Those states are cached per key, so they hold key material in
process memory for as long as the process lives, unless the bounded cache
evicts them.  The AES-GCM record cipher and the AES-ECB cipher of the
blinding permutation are cached per key the same way.

The blinding permutation ``prp`` is a 4-round Luby-Rackoff Feistel network
over the two halves of a trapdoor, the shape of NIST SP 800-38G FF1 with
fewer rounds.  Its round function is AES under the blind key, truncated to
the half's length: ``F_i(x) = AES(x || i || len(x) || 0...)[:len(x)]``.
AES is a pseudorandom permutation, so truncated it is a PRF (the PRP/PRF
switching term is about ``q^2 / 2^128``), and four rounds over ``n``-bit
halves give a strong pseudorandom permutation up to about ``q^2 / 2^n`` for
``q`` queries: ``q^2 / 2^80`` at the default 160-bit trapdoors.  A half
and its two tag bytes must fit one AES block, so a trapdoor is at most
``MAX_PRP_BYTES`` (28 bytes, 224 bits).
"""

from __future__ import annotations

import functools
import hashlib
import secrets
import struct
from collections.abc import Sequence
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import AuthFailure, BadLength, BadParameter

NONCE_BYTES = 12
RECORD_MIN_BYTES = NONCE_BYTES + 16  # a record's nonce, then at least the 16-byte GCM tag
MAX_FID_BYTES = 64
SECURITY_BITS = (128, 256)  # each key is security_bits // 8 bytes

MAX_PRP_BYTES = 28  # a half, its round byte and its length byte fill one AES block

_FEISTEL_ROUNDS = 4
# prp lays each block into its own slot of two AES blocks: block, then zeros
_SLOT = 32
# Distinct keys in use at once: trapdoor, record and blind key, user keys, seeds.
_KEY_CACHE_SIZE = 256
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


@functools.lru_cache(maxsize=_KEY_CACHE_SIZE)
def _hmac_pads(key: bytes):
    """HMAC-SHA256's inner and outer hash states after absorbing the padded key."""
    inner, outer = hashlib.sha256(), hashlib.sha256()
    if len(key) > inner.block_size:
        key = hashlib.sha256(key).digest()
    key = key.ljust(inner.block_size, b"\0")
    inner.update(key.translate(_IPAD))
    outer.update(key.translate(_OPAD))
    return inner, outer


def prf_bytes(key: bytes, msg: bytes, n: int) -> bytes:
    """Keyed pseudorandom bytes: HMAC-SHA256 expanded in counter mode to ``n`` bytes.

    Byte for byte ``hmac.new(key, msg + counter, "sha256")`` for counters
    0, 1, ... concatenated; the pad states come from a per-key cache.
    """
    inner, outer = _hmac_pads(key)
    out = b""
    counter = 0
    while True:
        h = inner.copy()
        h.update(msg + counter.to_bytes(4, "big"))
        o = outer.copy()
        o.update(h.digest())
        out += o.digest()
        if len(out) >= n:
            return out[:n]
        counter += 1


@dataclass(frozen=True)
class KeyMaterial:
    """Secret keys plus the trapdoor geometry they were generated for.

    ``trapdoor_key`` feeds the trapdoor PRF, ``record_key`` encrypts records
    and keys the proof tags, ``blind_key`` is the current request-blinding
    key (rotated on revocation).
    """

    trapdoor_key: bytes
    record_key: bytes
    blind_key: bytes
    security_bits: int
    trapdoor_bits: int = 160
    symbol_bits: int = 4

    @property
    def trapdoor_bytes(self) -> int:
        return self.trapdoor_bits // 8

    @property
    def depth(self) -> int:
        """Symbols per trapdoor; the height of the search tree."""
        return self.trapdoor_bits // self.symbol_bits


def check_geometry(trapdoor_bits: int, symbol_bits: int) -> None:
    """Validate the trapdoor/symbol split shared by keys and indexes."""
    if trapdoor_bits <= 0 or trapdoor_bits % 16 != 0:
        raise BadParameter("trapdoor_bits must be a positive multiple of 16")
    if trapdoor_bits > 8 * MAX_PRP_BYTES:
        raise BadParameter(f"trapdoor_bits must be at most {8 * MAX_PRP_BYTES}, the widest block prp takes")
    if not 1 <= symbol_bits <= 8:
        raise BadParameter("symbol_bits must be in 1..8")
    if trapdoor_bits % symbol_bits != 0:
        raise BadParameter("symbol_bits must divide trapdoor_bits")
    if trapdoor_bits // symbol_bits > 255:
        raise BadParameter("trapdoor_bits/symbol_bits must fit one byte")


def _derive(seed: bytes, label: bytes, n: int) -> bytes:
    for counter in range(256):
        key = prf_bytes(seed, label + bytes([counter]), n)
        if any(key):
            return key
    raise BadParameter("seed derives only zero keys")  # unreachable in practice


def _fresh(n: int) -> bytes:
    while True:
        key = secrets.token_bytes(n)
        if any(key):
            return key


def keygen(
    security_bits: int = 128,
    seed: bytes | None = None,
    trapdoor_bits: int = 160,
    symbol_bits: int = 4,
) -> KeyMaterial:
    """Generate key material; a seed makes the output reproducible."""
    if security_bits not in SECURITY_BITS:
        raise BadParameter(f"unsupported security parameter {security_bits}")
    check_geometry(trapdoor_bits, symbol_bits)
    nb = security_bits // 8
    if seed is not None:
        sk = _derive(seed, b"trapdoor-key", nb)
        sk0 = _derive(seed, b"record-key", nb)
        xi = _derive(seed, b"blind-key", nb)
    else:
        sk, sk0, xi = _fresh(nb), _fresh(nb), _fresh(nb)
    return KeyMaterial(
        trapdoor_key=sk,
        record_key=sk0,
        blind_key=xi,
        security_bits=security_bits,
        trapdoor_bits=trapdoor_bits,
        symbol_bits=symbol_bits,
    )


def trapdoor(km: KeyMaterial, variant: str) -> bytes:
    """Keyed digest of a keyword variant, exactly ``trapdoor_bits`` long."""
    return prf_bytes(km.trapdoor_key, b"T:" + variant.encode("ascii"), km.trapdoor_bytes)


def record_nonce(km: KeyMaterial, variant: str, keyword: str, fid: bytes) -> bytes:
    """Deterministic nonce for index builds; unique per (variant, keyword, fid)."""
    msg = b"N:" + variant.encode("ascii") + b"\x00" + keyword.encode("ascii") + b"\x00" + fid
    return prf_bytes(km.record_key, msg, NONCE_BYTES)


@functools.lru_cache(maxsize=_KEY_CACHE_SIZE)
def _record_cipher(record_key: bytes) -> AESGCM:
    return AESGCM(record_key)


def encrypt_record(km: KeyMaterial, fid: bytes, keyword: str, nonce: bytes | None = None) -> bytes:
    """Encrypt ``fid`` together with its keyword into a record, ``nonce || ciphertext``.

    The nonce is fresh unless one is given.
    """
    if not fid or len(fid) > MAX_FID_BYTES:
        raise BadParameter(f"fid must be 1..{MAX_FID_BYTES} bytes")
    if nonce is None:
        nonce = secrets.token_bytes(NONCE_BYTES)
    payload = bytes([len(fid)]) + fid + keyword.encode("ascii")
    return nonce + _record_cipher(km.record_key).encrypt(nonce, payload, None)


def decrypt_record(km: KeyMaterial, blob: bytes) -> tuple[bytes, str]:
    """Recover (fid, keyword) from ``nonce || ciphertext``.

    A record shorter than a nonce and a tag, any tamper or a wrong key
    raises AuthFailure.
    """
    if len(blob) < RECORD_MIN_BYTES:
        raise AuthFailure("record blob too short")
    try:
        payload = _record_cipher(km.record_key).decrypt(blob[:NONCE_BYTES], blob[NONCE_BYTES:], None)
    except (InvalidTag, ValueError) as exc:
        raise AuthFailure("record failed authentication") from exc
    if not payload:
        raise AuthFailure("empty record payload")
    n = payload[0]
    if n == 0 or len(payload) < 1 + n:
        raise AuthFailure("malformed record payload")
    return payload[1 : 1 + n], payload[1 + n :].decode("ascii")


@functools.lru_cache(maxsize=_KEY_CACHE_SIZE)
def _blind_cipher(key: bytes) -> Cipher:
    try:
        return Cipher(algorithms.AES(key), modes.ECB())
    except ValueError as exc:
        raise BadParameter(f"blind key must be 16, 24 or 32 bytes, got {len(key)}") from exc


def prp(key: bytes, blocks: Sequence[bytes], direction: str = "forward") -> tuple[bytes, ...]:
    """Keyed bijection on every block of a request at once: a 4-round Feistel network.

    ``prp(k, prp(k, bs, "forward"), "inverse") == tuple(bs)``.  All blocks
    share one even width of at most ``MAX_PRP_BYTES``, so a 160-bit trapdoor
    needs no padding; ``key`` is an AES key (16, 24 or 32 bytes).  Round
    ``i`` XORs one half of each block with the first ``h`` bytes of
    ``AES(key, other half || i || h || zeros)``, ``h`` the half length.

    Each half sits at the front of its own 32-byte slot of one big integer,
    so a round is one AES-ECB call over every slot of the request (the
    second AES block of a slot is zeros and its output is masked off), one
    mask and one XOR.
    """
    if direction not in ("forward", "inverse"):
        raise BadParameter(f"unknown direction {direction!r}")
    cipher = _blind_cipher(key)
    n = len(blocks)
    if not n:
        return ()
    w = len(blocks[0])
    h = w // 2
    if w % 2 or not 2 <= w <= MAX_PRP_BYTES or set(map(len, blocks)) != {w}:
        raise BadLength(f"blocks must share one even width in 2..{MAX_PRP_BYTES} bytes")
    size, pad = _SLOT * n, bytes(_SLOT - w)
    # ``unit`` has a 1 in the last byte of each slot's half, so one product
    # with it writes the same bytes into every slot: the mask over the half,
    # and each round's tag bytes (round number, then half length) after it.
    unit = int.from_bytes((bytes(h - 1) + b"\1").ljust(_SLOT, b"\0") * n, "big")
    mask = unit * ((1 << 8 * h) - 1)
    tags = [(unit >> 16) * (i << 8 | h) for i in range(_FEISTEL_ROUNDS)]
    whole = int.from_bytes(pad.join(blocks) + pad, "big")
    left = whole & mask
    right = (whole ^ left) << 8 * h
    update = cipher.encryptor().update
    # With an even round count, XORing the halves in place in turn equals the
    # textbook swap form; the inverse runs the same rounds in reverse order.
    rounds = range(_FEISTEL_ROUNDS) if direction == "forward" else reversed(range(_FEISTEL_ROUNDS))
    for i in rounds:
        if i % 2 == 0:
            left ^= mask & int.from_bytes(update((right | tags[i]).to_bytes(size, "big")), "big")
        else:
            right ^= mask & int.from_bytes(update((left | tags[i]).to_bytes(size, "big")), "big")
    out = (left | right >> 8 * h).to_bytes(size, "big")
    return struct.unpack(f"{w}s{_SLOT - w}x" * n, out)


def record_digest(records) -> bytes:
    """Plain digest of the records' bytes in order; bound to a key via the leaf tag."""
    return hashlib.sha256(b"".join(records)).digest()
