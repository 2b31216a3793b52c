"""Key material: the owner's three secret keys and how they are made.

``KeyMaterial`` is what an owner and a user hold and what a key file
(``persist``'s FZKY) stores; ``keygen`` makes it, from ``os.urandom`` or,
reproducibly, from a seed through ``crypto.prf_bytes``.  Only owner and user
code imports this module: ``persist.loads_keys`` and ``commands.run_keygen``
import it inside the function.  No server loads it, blinded included: a
blinded server needs the blind key alone, and ``persist.load_blind_key``
reads it from the key file through the same checks without making a
``KeyMaterial``.  It is the one module of the package that imports
``dataclasses`` at module level (perfbench rotates a blind key with
``dataclasses.replace``).  The key sizes follow ``crypto.check_key_sizes``,
the rule the key-file reader applies too.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import ClassVar

from .crypto import DEPTH, SECURITY_BITS, check_key_sizes, prf_bytes
from .errors import BadParameter


@dataclass(frozen=True)
class KeyMaterial:
    """Secret keys.  The trapdoor geometry is not a field: every key serves
    ``crypto``'s one geometry, 160-bit trapdoors of 4-bit symbols.

    ``trapdoor_key`` feeds the trapdoor PRF.  ``record_key`` keys HMAC only:
    the personal keys (``commands.derive_user_key``) and the derivations of
    the records' AES-SIV key (``crypto.record_cipher``) and of the proof
    tags' key (``crypto.tag_key``), each under its own label.
    ``blind_key`` is the current request-blinding key (rotated on
    revocation) and an AES key for ``prp``.  The security
    level is 128 or 256 and every key is ``security_bits // 8`` bytes, as
    ``persist.loads_keys`` reads them back; any other raises ``BadParameter``,
    so no key material is made that a key file could not hold.
    """

    trapdoor_key: bytes
    record_key: bytes
    blind_key: bytes
    security_bits: int
    depth: ClassVar[int] = DEPTH  # read by perfbench (``harness.user_phase``)

    def __post_init__(self):
        check_key_sizes((self.trapdoor_key, self.record_key, self.blind_key), self.security_bits)


def keygen(security_bits: int = 128, seed: bytes | None = None) -> KeyMaterial:
    """Generate key material; a seed makes the output reproducible."""
    if security_bits not in SECURITY_BITS:
        raise BadParameter(f"unsupported security parameter {security_bits}")
    nb = security_bits // 8
    if seed is None:
        sk, sk0, xi = os.urandom(nb), os.urandom(nb), os.urandom(nb)
    else:  # the labels' trailing zero byte keeps the keys a seed has always given
        sk = prf_bytes(seed, b"trapdoor-key\0", nb)
        sk0 = prf_bytes(seed, b"record-key\0", nb)
        xi = prf_bytes(seed, b"blind-key\0", nb)
    return KeyMaterial(trapdoor_key=sk, record_key=sk0, blind_key=xi, security_bits=security_bits)
