"""File formats: key files, index files, user directories.

All integers are big-endian.  Each header is one ``struct.Struct``, and
``_header`` checks all three the same way.  Layouts:

``FZKY`` key file (version 1)
    Header ``KEY_HEAD`` (``>4sBHHB``, 10 bytes): magic "FZKY", version byte,
    security bits (2, 128 or 256), trapdoor bits (2), symbol bits (1); the
    two geometry fields are always 160 and 4, and a file with any other pair
    is refused with ``BadParameter``.
    Then trapdoor key, record key, blind key as 2-byte length-prefixed
    fields of security/8 bytes.  Owner-readable only (0600).
    ``_key_fields`` reads the file, in this order: the header, the geometry,
    the three fields (nothing may follow them), then the security level and
    the key sizes by ``crypto.check_key_sizes``, the rule ``KeyMaterial``
    holds to.  ``loads_keys`` makes a ``KeyMaterial`` of what it reads, and
    ``loads_blind_key`` takes the blind key alone, so both refuse the same
    files with the same error; a blinded server reads its key through the
    latter and never imports ``keys`` (nor ``dataclasses`` under it).

``FZIX`` index file (version 5)
    Header ``INDEX_HEAD`` (``>4sBBBHBQ``, 18 bytes): magic "FZIX", version
    byte, flags byte (bit0: 1=trie 0=listing, bit1: verifiable, bit2:
    1=gram 0=wildcard), symbol bits (1), trapdoor bits (2), d (1), entry
    count (8).  The geometry fields are always 4 and 160, as in FZKY, and
    any other pair is refused with ``BadParameter``.
    Body, the same for every kind: the entries in ascending trapdoor order,
    each trapdoor (20 bytes) || entry flag (1, bit0 = exact
    keyword entry, other bits zero) || record count (2, at least 1) ||
    the records, each 4-byte length-prefixed.  A record is one AES-SIV
    output, the 16-byte synthetic IV and then the ciphertext of its copy
    index, fid and keyword (``crypto.encrypt_record``): ``19 + len(fid) +
    len(keyword)`` bytes, so at least ``RECORD_MIN_BYTES`` (21).  The body is the index's own ``body``:
    ``index.pack_entries`` writes it at build time, ``index.read_entries``
    checks it at load time, and the index keeps the file's buffer, its
    ``table`` holding each entry's offset, not its records.
    An authenticated trie appends its tags: ``TAG_BYTES`` (16) per entry of
    leaf tags in entry order, then ``TAG_BYTES`` per gap (entries + 1) of
    gap tags, from the head gap to the tail gap (``verifiable.tags_bytes``).
    Nothing follows, and no other kind writes tags.
    The trie itself is not written: it is a view over the sorted trapdoors.
    ``dumps_index`` writes the header, the body and the tags; the reader
    accepts only what it writes, so a file that loads dumps back to the same
    bytes; builds are byte-deterministic.
    Versions 1 (a pre-order node stream for tries), 2 (an authenticated
    trie's per-node chain digests), 3 (AES-GCM records, each with its
    12-byte nonce, and unframed record digests under the leaf tags) and 4
    (32-byte tags under the record key itself) raise
    ``VersionUnsupported``; rebuild such an index.
    Only the authenticated kind loads ``verifiable``, for its tag length:
    ``loads_index`` imports it after the header and before the body, so
    its compile comes before the entry table is built, below the peak.

``FZUD`` directory file (version 1)
    Header ``DIR_HEAD`` (``>4sBQI``, 17 bytes): magic "FZUD", version byte,
    epoch (8), entry count (4).  Then per entry user id (2-byte
    length-prefixed UTF-8) || wrapped blob (2-byte length-prefixed), in
    strictly ascending user id order; the reader refuses any other order.
    Personal keys are never written.  The directory functions import
    ``multiuser`` when they run; no server runs them.

Every ``save_*`` writes a temporary file in the target's directory, fsyncs
it, renames it over the target and fsyncs the directory, so a crash leaves
either the old file or the new one.  Recovery order for revocation: the key
file (new blind key) is written before the directory.  A crash between the
two leaves the old directory, still listing the revoked user and wrapping
the old key, beside the new key file; running ``revoke`` again rotates once
more and writes both.  Writing the directory first would lose the new blind
key, and the revoked user would be gone, so a second ``revoke`` could not run.
"""

from __future__ import annotations

import os
import struct
from typing import TYPE_CHECKING

from .crypto import SYMBOL_BITS, TRAPDOOR_BITS, check_key_sizes
from .errors import BadMagic, BadParameter, Truncated, VersionUnsupported
from .index import ListingIndex, TrieIndex, read_entries

if TYPE_CHECKING:
    from .keys import KeyMaterial
    from .multiuser import UserDirectory

KEY_MAGIC = b"FZKY"
INDEX_MAGIC = b"FZIX"
DIR_MAGIC = b"FZUD"
INDEX_VERSION = 5  # FZIX
VERSION = 1  # FZKY and FZUD
KEY_HEAD = struct.Struct(">4sBHHB")
INDEX_HEAD = struct.Struct(">4sBBBHBQ")
DIR_HEAD = struct.Struct(">4sBQI")

FLAG_TRIE = 0x01
FLAG_VERIFIABLE = 0x02
FLAG_GRAM = 0x04
KIND_FLAGS = {"listing": 0, "trie": FLAG_TRIE, "auth_trie": FLAG_TRIE | FLAG_VERIFIABLE}


def _header(data: bytes, head: struct.Struct, magic: bytes, version: int) -> tuple:
    """The fields of ``head`` after the magic and version, checked in file order:
    ``Truncated`` inside the magic, ``BadMagic``, ``VersionUnsupported``, then
    ``Truncated`` inside the rest of the header."""
    if len(data) >= 4 and data[:4] != magic:
        raise BadMagic(f"expected {magic!r}, found {data[:4]!r}")
    if len(data) >= 5 and data[4] != version:
        raise VersionUnsupported(f"{magic.decode()} version {data[4]} not supported (expected {version})")
    if len(data) < head.size:
        raise Truncated(f"the {head.size}-byte {magic.decode()} header ends after {len(data)} bytes")
    return head.unpack_from(data)[2:]


def _field(value: bytes) -> bytes:
    """A 2-byte length-prefixed field."""
    return len(value).to_bytes(2, "big") + value


def _fields(data: bytes, pos: int, count: int) -> list[bytes]:
    """The ``count`` 2-byte length-prefixed fields that fill ``data`` from offset ``pos``."""
    out = []
    for i in range(count):
        start = pos + 2
        pos = start + int.from_bytes(data[pos:start], "big")
        if pos > len(data):
            raise Truncated(f"field {i} ends early")
        out.append(data[start:pos])
    if pos < len(data):
        raise Truncated(f"{len(data) - pos} trailing bytes after the last field")
    return out


# -- keys ------------------------------------------------------------------

def dumps_keys(km: KeyMaterial) -> bytes:
    head = KEY_HEAD.pack(KEY_MAGIC, VERSION, km.security_bits, TRAPDOOR_BITS, SYMBOL_BITS)
    return head + b"".join(map(_field, (km.trapdoor_key, km.record_key, km.blind_key)))


def _key_fields(data: bytes) -> tuple[list[bytes], int]:
    """The three keys of an FZKY file, in the file's order, and its security level; every check made."""
    security_bits, trapdoor_bits, symbol_bits = _header(data, KEY_HEAD, KEY_MAGIC, VERSION)
    if (trapdoor_bits, symbol_bits) != (TRAPDOOR_BITS, SYMBOL_BITS):
        raise BadParameter(f"{trapdoor_bits}-bit trapdoors of {symbol_bits}-bit symbols; only 160/4 is read")
    keys = _fields(data, KEY_HEAD.size, 3)
    check_key_sizes(keys, security_bits)
    return keys, security_bits


def loads_keys(data: bytes) -> KeyMaterial:
    from .keys import KeyMaterial  # owner and user code's import: no server loads it

    keys, security_bits = _key_fields(data)
    return KeyMaterial(*keys, security_bits)


def loads_blind_key(data: bytes) -> bytes:
    """The blind key of an FZKY file, which ``loads_keys`` would read, without making a ``KeyMaterial``."""
    return _key_fields(data)[0][2]


def _replace_file(path: str, data: bytes, mode: int = 0o666) -> None:
    """Put ``data`` at ``path`` through a fsynced temporary file and a rename.

    The temporary file is created with ``mode`` (less the umask) and a name
    no other writer uses; it is removed if anything fails before the rename.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)  # makes the rename itself durable
    finally:
        os.close(dir_fd)


def save_keys(km: KeyMaterial, path: str) -> None:
    """Write the key file with owner-only permissions."""
    _replace_file(path, dumps_keys(km), 0o600)


def load_keys(path: str) -> KeyMaterial:
    with open(path, "rb") as fh:
        return loads_keys(fh.read())


def load_blind_key(path: str) -> bytes:
    with open(path, "rb") as fh:
        return loads_blind_key(fh.read())


# -- indexes ---------------------------------------------------------------

def _tags_bytes(flags: int):
    """The length of an index's tags as a function of its entry count: ``verifiable.tags_bytes``
    on the authenticated kind, which alone loads ``verifiable``, and 0 on every other."""
    if flags & FLAG_VERIFIABLE:
        from .verifiable import tags_bytes

        return tags_bytes
    return lambda entries: 0


def dumps_index(index) -> bytes:
    """The header, then the index's ``body`` and ``tags``, which must be empty on every kind but the auth trie."""
    if getattr(index, "kind", None) not in KIND_FLAGS:
        raise BadParameter(f"cannot serialize {type(index).__name__}")
    if not 0 <= index.d <= 0xFF:
        raise BadParameter(f"edit bound {index.d} does not fit FZIX's one byte (0..255)")
    flags = KIND_FLAGS[index.kind] | (FLAG_GRAM if index.method == "gram" else 0)
    tags_len = _tags_bytes(flags)(len(index.table))
    if len(index.tags) != tags_len:
        raise BadParameter(f"{len(index.tags)} bytes of tags for {len(index.table)} entries, not {tags_len}")
    fields = (flags, SYMBOL_BITS, TRAPDOOR_BITS, index.d, len(index.table))
    return b"".join((INDEX_HEAD.pack(INDEX_MAGIC, INDEX_VERSION, *fields), index.body, index.tags))


def loads_index(data: bytes):
    """The index of an FZIX file: its ``body`` and ``tags`` are views of ``data``, which it keeps."""
    data = bytes(data)  # the index keeps it, so it must not change
    flags, symbol_bits, trapdoor_bits, d, count = _header(data, INDEX_HEAD, INDEX_MAGIC, INDEX_VERSION)
    if flags & ~(FLAG_TRIE | FLAG_VERIFIABLE | FLAG_GRAM):
        raise BadParameter(f"unknown index flags {flags:#x}")
    if flags & FLAG_VERIFIABLE and not flags & FLAG_TRIE:
        raise BadParameter("verifiable flag requires a trie index")
    if (trapdoor_bits, symbol_bits) != (TRAPDOOR_BITS, SYMBOL_BITS):
        raise BadParameter(f"{trapdoor_bits}-bit trapdoors of {symbol_bits}-bit symbols; only 160/4 is read")
    tags_bytes = _tags_bytes(flags)  # before the body: ``verifiable`` compiles below the entry table's peak
    rest = memoryview(data)[INDEX_HEAD.size :]
    table, exact, end = read_entries(rest, count)
    method = "gram" if flags & FLAG_GRAM else "wildcard"
    tags_len = tags_bytes(len(table))
    if len(rest) - end != tags_len:
        kind = next(kind for kind, bits in KIND_FLAGS.items() if bits == flags & ~FLAG_GRAM)
        raise Truncated(f"{len(rest) - end} bytes follow the {kind} entries, not {tags_len}")
    return (TrieIndex if flags & FLAG_TRIE else ListingIndex)(table, rest[:end], d, method, exact, rest[end:])


def save_index(index, path: str) -> None:
    _replace_file(path, dumps_index(index))


def load_index(path: str):
    with open(path, "rb") as fh:
        return loads_index(fh.read())


# -- user directories ------------------------------------------------------

def dumps_directory(directory: UserDirectory) -> bytes:
    from .multiuser import user_id_bytes  # owner code: no server loads ``multiuser`` through this module

    users = sorted(directory.wrapped)
    head = DIR_HEAD.pack(DIR_MAGIC, VERSION, directory.epoch, len(users))
    return head + b"".join(_field(user_id_bytes(uid)) + _field(directory.wrapped[uid]) for uid in users)


def loads_directory(data: bytes, current_xi: bytes = b"") -> UserDirectory:
    """Published view: wrapped blobs only; personal keys are not on disk.

    Without ``current_xi`` the directory can be read and unwrapped from, but it
    cannot ``enroll`` or ``revoke``."""
    from .multiuser import UserDirectory

    epoch, count = _header(data, DIR_HEAD, DIR_MAGIC, VERSION)
    fields = iter(_fields(data, DIR_HEAD.size, 2 * count))
    wrapped = {}
    for uid, blob in zip(fields, fields):
        try:
            user_id = uid.decode("utf-8")
        except UnicodeDecodeError:
            raise BadParameter("a user id is not UTF-8") from None
        if wrapped and user_id <= next(reversed(wrapped)):  # the order dumps_directory writes
            raise BadParameter("user ids are not distinct and ascending")
        wrapped[user_id] = blob
    return UserDirectory(current_xi=current_xi, epoch=epoch, wrapped=wrapped)


def save_directory(directory: UserDirectory, path: str) -> None:
    _replace_file(path, dumps_directory(directory))


def load_directory(path: str, current_xi: bytes = b"") -> UserDirectory:
    with open(path, "rb") as fh:
        return loads_directory(fh.read(), current_xi)
