"""Keys, trapdoors, record encryption and the blinding permutation.

The server only ever sees trapdoors: keyed pseudorandom digests of keyword
variants, 160 bits by default so they split evenly into 4-bit symbols.  File
identifiers travel inside authenticated ciphertexts under a separate key, and
a Feistel permutation keyed by the rotating blind key turns trapdoors into
per-epoch request tokens for the multi-user setting.

Every PRF here (trapdoors, nonces, key derivation, the Feistel rounds) is
``prf_bytes``: RFC 2104 HMAC, computed from the inner and outer hash states
left after absorbing the padded key.  Those states are cached per key, so
they hold key material in process memory for as long as the process lives,
unless the bounded cache evicts them.  The AES-GCM record cipher is cached
per key the same way.
"""

from __future__ import annotations

import functools
import hashlib
import secrets
from dataclasses import dataclass

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import AuthFailure, BadLength, BadParameter

NONCE_BYTES = 12
MAX_FID_BYTES = 64

_FEISTEL_ROUNDS = 4
_ROUND_TAGS = tuple(b"F:" + bytes([i]) for i in range(_FEISTEL_ROUNDS))
# Distinct keys in use at once: trapdoor, record and blind key, user keys, seeds.
_KEY_CACHE_SIZE = 256
_IPAD = bytes(b ^ 0x36 for b in range(256))
_OPAD = bytes(b ^ 0x5C for b in range(256))


@functools.lru_cache(maxsize=_KEY_CACHE_SIZE)
def _hmac_pads(key: bytes, digestmod: str):
    """HMAC's inner and outer hash states after absorbing the padded key."""
    inner, outer = hashlib.new(digestmod), hashlib.new(digestmod)
    if len(key) > inner.block_size:
        key = hashlib.new(digestmod, key).digest()
    key = key.ljust(inner.block_size, b"\0")
    inner.update(key.translate(_IPAD))
    outer.update(key.translate(_OPAD))
    return inner, outer


def _hmac_expand(inner, outer, msg: bytes, n: int) -> bytes:
    """Counter-mode HMAC blocks from cached pad states, cut to ``n`` bytes."""
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


def prf_bytes(key: bytes, msg: bytes, n: int, digestmod: str = "sha256") -> bytes:
    """Keyed pseudorandom bytes: HMAC expanded in counter mode to ``n`` bytes.

    Byte for byte ``hmac.new(key, msg + counter, digestmod)`` for counters
    0, 1, ... concatenated; the pad states come from a per-key cache.
    """
    inner, outer = _hmac_pads(key, digestmod)
    return _hmac_expand(inner, outer, msg, n)


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
    if security_bits not in (128, 256):
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


@dataclass(frozen=True)
class EncryptedRecord:
    """Authenticated ciphertext of one (file id, keyword) pair."""

    nonce: bytes
    ciphertext: bytes

    @property
    def blob(self) -> bytes:
        """Wire/storage form: nonce followed by ciphertext."""
        return self.nonce + self.ciphertext

    @classmethod
    def from_blob(cls, blob: bytes) -> "EncryptedRecord":
        if len(blob) < NONCE_BYTES + 16:
            raise AuthFailure("record blob too short")
        return cls(nonce=blob[:NONCE_BYTES], ciphertext=blob[NONCE_BYTES:])


def record_nonce(km: KeyMaterial, variant: str, keyword: str, fid: bytes) -> bytes:
    """Deterministic nonce for index builds; unique per (variant, keyword, fid)."""
    msg = b"N:" + variant.encode("ascii") + b"\x00" + keyword.encode("ascii") + b"\x00" + fid
    return prf_bytes(km.record_key, msg, NONCE_BYTES)


@functools.lru_cache(maxsize=_KEY_CACHE_SIZE)
def _record_cipher(record_key: bytes) -> AESGCM:
    return AESGCM(record_key)


def encrypt_record(
    km: KeyMaterial, fid: bytes, keyword: str, nonce: bytes | None = None
) -> EncryptedRecord:
    """Encrypt ``fid`` together with its keyword; fresh nonce unless one is given."""
    if not fid or len(fid) > MAX_FID_BYTES:
        raise BadParameter(f"fid must be 1..{MAX_FID_BYTES} bytes")
    if nonce is None:
        nonce = secrets.token_bytes(NONCE_BYTES)
    payload = bytes([len(fid)]) + fid + keyword.encode("ascii")
    ct = _record_cipher(km.record_key).encrypt(nonce, payload, None)
    return EncryptedRecord(nonce=nonce, ciphertext=ct)


def decrypt_record(km: KeyMaterial, rec: EncryptedRecord) -> tuple[bytes, str]:
    """Recover (fid, keyword); any tamper or wrong key raises AuthFailure."""
    try:
        payload = _record_cipher(km.record_key).decrypt(rec.nonce, rec.ciphertext, None)
    except (InvalidTag, ValueError) as exc:
        raise AuthFailure("record failed authentication") from exc
    if not payload:
        raise AuthFailure("empty record payload")
    n = payload[0]
    if n == 0 or len(payload) < 1 + n:
        raise AuthFailure("malformed record payload")
    return payload[1 : 1 + n], payload[1 + n :].decode("ascii")


def prp(key: bytes, block: bytes, direction: str = "forward") -> bytes:
    """Keyed bijection on even-byte blocks: a 4-round Feistel network.

    ``prp(k, prp(k, b, "forward"), "inverse") == b`` for every block.  Works
    for any even byte length, so a 160-bit trapdoor needs no block-cipher
    padding.  Round ``i`` XORs one half with ``prf_bytes(key, b"F:" + bytes([i])
    + other half, half length)``, the halves taken as big-endian integers.
    """
    if direction not in ("forward", "inverse"):
        raise BadParameter(f"unknown direction {direction!r}")
    if not block or len(block) % 2 != 0:
        raise BadLength(f"block must be a positive even number of bytes, got {len(block)}")
    h = len(block) // 2
    inner, outer = _hmac_pads(key, "sha256")
    left, right = int.from_bytes(block[:h], "big"), int.from_bytes(block[h:], "big")
    if direction == "forward":
        for tag in _ROUND_TAGS:
            f = _hmac_expand(inner, outer, tag + right.to_bytes(h, "big"), h)
            left, right = right, left ^ int.from_bytes(f, "big")
    else:
        for tag in reversed(_ROUND_TAGS):
            f = _hmac_expand(inner, outer, tag + left.to_bytes(h, "big"), h)
            left, right = right ^ int.from_bytes(f, "big"), left
    return left.to_bytes(h, "big") + right.to_bytes(h, "big")


def record_digest(records) -> bytes:
    """Plain digest of record blobs in order; bound to a key via the leaf tag."""
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.blob)
    return h.digest()
