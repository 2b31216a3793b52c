"""Multi-user authorization: wrapped blind keys and revocation.

The data owner hands each enrolled user the current blind key wrapped under
that user's personal key.  Users blind every request trapdoor through the
keyed permutation (``index.blind_request``); the server unblinds with the same key.
Revoking a user rotates the blind key and re-wraps it for everyone left, so
requests blinded under the old key unblind to garbage trapdoors that hit
nothing.  That locks out a revoked user only if they cannot get a remaining
user's personal key.  The CLI derives every personal key from the record key
in the shared key file, so a revoked user who keeps that file can derive one,
unwrap the new blind key and search on.

The key wrap is ``crypto``'s AES-GCM; the cipher, and the cipher library
under it, loads on first use, so importing this module loads neither.
"""

from __future__ import annotations

import os

from .crypto import NONCE_BYTES, aes_gcm, blind_cipher, gcm_open, sha256
from .errors import AuthFailure, BadParameter, DuplicateUser, UnknownUser

MAX_USER_ID_BYTES = 0xFFFF  # an FZUD user id's 2-byte length field
WRAPPED_MIN_BYTES = NONCE_BYTES + 16  # a wrapped blind key's random nonce, then at least the GCM tag


def user_id_bytes(user_id: str) -> bytes:
    """A user id's UTF-8 bytes; ``BadParameter`` unless it is UTF-8 of at most ``MAX_USER_ID_BYTES``."""
    try:
        uid = user_id.encode("utf-8")
    except UnicodeEncodeError:
        raise BadParameter("user id is not UTF-8") from None
    if len(uid) > MAX_USER_ID_BYTES:
        raise BadParameter(f"user id is {len(uid)} bytes in UTF-8; the limit is {MAX_USER_ID_BYTES}")
    return uid


def _wrap_key(user_key: bytes) -> bytes:
    # Arbitrary-length personal keys; AES-GCM wants 32 bytes.
    return sha256(b"wrap:" + user_key).digest()


def wrap_blind_key(user_key: bytes, user_id: str, xi: bytes) -> bytes:
    """``nonce || AES-GCM(xi)`` under the user's wrap key, bound to the user id;
    ``BadParameter`` for an id ``user_id_bytes`` refuses."""
    uid = user_id_bytes(user_id)
    nonce = os.urandom(NONCE_BYTES)
    return nonce + aes_gcm(_wrap_key(user_key)).encrypt(nonce, xi, uid)


def unwrap_blind_key(user_key: bytes, user_id: str, blob: bytes) -> bytes:
    """The blind key ``wrap_blind_key`` wrapped; ``BadParameter`` for an id
    ``user_id_bytes`` refuses, ``AuthFailure`` for a short or tampered blob, a
    wrong key or another user's id."""
    uid = user_id_bytes(user_id)
    if len(blob) < WRAPPED_MIN_BYTES:
        raise AuthFailure("wrapped blob too short")
    return gcm_open(_wrap_key(user_key), blob, uid, "wrapped blind key")


class UserDirectory:
    """Owner-side enrollment state; the published view is (epoch, wrapped blobs).

    Personal keys stay in memory on the owner's side only — they are needed
    to re-wrap the fresh blind key on revocation and never reach the file
    format or the repr.  Mutations follow a single-writer contract.
    """

    def __init__(
        self,
        current_xi: bytes,
        epoch: int = 0,
        wrapped: dict[str, bytes] | None = None,
        user_keys: dict[str, bytes] | None = None,
    ):
        self.current_xi = current_xi
        self.epoch = epoch
        self.wrapped = {} if wrapped is None else wrapped
        self.user_keys = {} if user_keys is None else user_keys

    def __repr__(self) -> str:
        return f"UserDirectory(current_xi={self.current_xi!r}, epoch={self.epoch!r}, wrapped={self.wrapped!r})"

    def enroll(self, user_id: str, user_key: bytes) -> "UserDirectory":
        """Wrap the current blind key for a new user; ``BadParameter`` for an id FZUD
        cannot store or a directory without its blind key."""
        user_id_bytes(user_id)
        blind_cipher(self.current_xi)  # BadParameter unless the blind key is an AES key, as ``prp`` takes it
        if user_id in self.wrapped:
            raise DuplicateUser(f"user {user_id!r} already enrolled")
        self.wrapped[user_id] = wrap_blind_key(user_key, user_id, self.current_xi)
        self.user_keys[user_id] = user_key
        return self

    def revoke(self, user_id: str) -> "UserDirectory":
        """Drop the user, rotate the blind key, re-wrap for everyone left.

        Needs the blind key and every remaining user's personal key in
        ``user_keys``, which a loaded directory lacks; else raises
        ``BadParameter`` and changes nothing."""
        blind_cipher(self.current_xi)
        if user_id not in self.wrapped:
            raise UnknownUser(f"user {user_id!r} not enrolled")
        missing = [uid for uid in self.wrapped if uid != user_id and uid not in self.user_keys]
        if missing:
            raise BadParameter(f"no personal key to re-wrap the blind key for {missing[0]!r}")
        del self.wrapped[user_id]
        self.user_keys.pop(user_id, None)
        self.epoch += 1
        self.current_xi = os.urandom(len(self.current_xi))
        for uid, key in self.user_keys.items():
            self.wrapped[uid] = wrap_blind_key(key, uid, self.current_xi)
        return self

    def unwrap(self, user_id: str, user_key: bytes) -> bytes:
        """What an enrolled user does with the published directory."""
        if user_id not in self.wrapped:
            raise UnknownUser(f"user {user_id!r} not enrolled")
        return unwrap_blind_key(user_key, user_id, self.wrapped[user_id])
