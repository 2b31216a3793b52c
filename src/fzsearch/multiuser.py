"""Multi-user authorization: wrapped blind keys, request blinding, revocation.

The data owner hands each enrolled user the current blind key wrapped under
that user's personal key.  Users blind every request trapdoor through the
keyed permutation; the server unblinds with the same key before searching.
Revoking a user rotates the blind key and re-wraps it for everyone left, so
replayed old-epoch requests unblind to garbage trapdoors that hit nothing.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass, field
from hashlib import sha256

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .crypto import prp
from .errors import AuthFailure, BadParameter, DuplicateUser, UnknownUser
from .index import SearchRequest

_WRAP_NONCE = 12


def _wrap_key(user_key: bytes) -> bytes:
    # Arbitrary-length personal keys; AES-GCM wants 32 bytes.
    return sha256(b"wrap:" + user_key).digest()


def wrap_blind_key(user_key: bytes, user_id: str, xi: bytes) -> bytes:
    nonce = secrets.token_bytes(_WRAP_NONCE)
    ct = AESGCM(_wrap_key(user_key)).encrypt(nonce, xi, user_id.encode("utf-8"))
    return nonce + ct

def unwrap_blind_key(user_key: bytes, user_id: str, blob: bytes) -> bytes:
    if len(blob) < _WRAP_NONCE + 16:
        raise AuthFailure("wrapped blob too short")
    try:
        return AESGCM(_wrap_key(user_key)).decrypt(
            blob[:_WRAP_NONCE], blob[_WRAP_NONCE:], user_id.encode("utf-8")
        )
    except (InvalidTag, ValueError) as exc:
        raise AuthFailure("wrapped blind key failed authentication") from exc


@dataclass
class UserDirectory:
    """Owner-side enrollment state; the published view is (epoch, wrapped blobs).

    Personal keys stay in memory on the owner's side only — they are needed
    to re-wrap the fresh blind key on revocation and never reach the file
    format.  Mutations follow a single-writer contract.
    """

    current_xi: bytes
    epoch: int = 0
    wrapped: dict[str, bytes] = field(default_factory=dict)
    user_keys: dict[str, bytes] = field(default_factory=dict, repr=False)

    def enroll(self, user_id: str, user_key: bytes) -> "UserDirectory":
        if user_id in self.wrapped:
            raise DuplicateUser(f"user {user_id!r} already enrolled")
        self.wrapped[user_id] = wrap_blind_key(user_key, user_id, self.current_xi)
        self.user_keys[user_id] = user_key
        return self

    def revoke(self, user_id: str) -> "UserDirectory":
        """Drop the user, rotate the blind key, re-wrap for everyone left.

        Needs every remaining user's personal key in ``user_keys``, which a
        loaded directory lacks; else raises ``BadParameter`` and changes nothing."""
        if user_id not in self.wrapped:
            raise UnknownUser(f"user {user_id!r} not enrolled")
        missing = [uid for uid in self.wrapped if uid != user_id and uid not in self.user_keys]
        if missing:
            raise BadParameter(f"no personal key to re-wrap the blind key for {missing[0]!r}")
        del self.wrapped[user_id]
        self.user_keys.pop(user_id, None)
        self.epoch += 1
        self.current_xi = secrets.token_bytes(len(self.current_xi))
        for uid, key in self.user_keys.items():
            self.wrapped[uid] = wrap_blind_key(key, uid, self.current_xi)
        return self

    def unwrap(self, user_id: str, user_key: bytes) -> bytes:
        """What an enrolled user does with the published directory."""
        if user_id not in self.wrapped:
            raise UnknownUser(f"user {user_id!r} not enrolled")
        return unwrap_blind_key(user_key, user_id, self.wrapped[user_id])


def blind_request(req: SearchRequest, xi: bytes) -> SearchRequest:
    """Permute every trapdoor forward under ``xi`` in one ``prp`` call; order and k preserved."""
    return SearchRequest(trapdoors=prp(xi, req.trapdoors, "forward"), k=req.k)


def unblind_request(req: SearchRequest, xi: bytes) -> SearchRequest:
    """Server side: invert the permutation before searching."""
    return SearchRequest(trapdoors=prp(xi, req.trapdoors, "inverse"), k=req.k)
