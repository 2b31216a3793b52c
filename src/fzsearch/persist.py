"""File formats: key files, index files, user directories.

All integers are big-endian.  Layouts:

``FZKY`` key file (version 1)
    magic "FZKY", version byte, security bits (2, 128 or 256), trapdoor bits
    (2), symbol bits (1), then trapdoor key, record key, blind key as 2-byte
    length-prefixed strings of security/8 bytes.  Owner-readable only (0600).

``FZIX`` index file (version 3)
    Header (18 bytes): magic "FZIX", version byte, flags byte (bit0:
    1=trie 0=listing, bit1: verifiable, bit2: 1=gram 0=wildcard), symbol
    bits (1), trapdoor bits (2), d (1), entry count (8).
    Body, the same for every kind: the entries in ascending trapdoor order,
    each trapdoor (trapdoor bits / 8) || entry flag (1, bit0 = exact
    keyword entry, other bits zero) || record count (2, at least 1) ||
    the records, each 4-byte length-prefixed.  A record is the bytes
    ``nonce || ciphertext`` (``crypto.encrypt_record``), at least
    ``RECORD_MIN_BYTES`` (28) long; the reader keeps them as they are.
    An authenticated trie appends its tags: ``TAG_BYTES`` per entry of leaf
    tags in entry order, then ``TAG_BYTES`` per gap (entries + 1) of gap
    tags, from the head gap to the tail gap.  Nothing follows.
    The trie itself is not written: it is a view over the sorted trapdoors.
    The reader accepts only what ``dumps_index`` writes, so a file that
    loads dumps back to the same bytes; builds are byte-deterministic.
    Versions 1 (a pre-order node stream for tries) and 2 (an authenticated
    trie's per-node chain digests) raise ``VersionUnsupported``; rebuild
    such an index.

``FZUD`` directory file (version 1)
    magic "FZUD", version byte, epoch (8), entry count (4), then
    user id (2-byte length-prefixed UTF-8) || wrapped blob (2-byte
    length-prefixed).  Personal keys are never written.

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

import io
import operator
import os
import struct

from .crypto import RECORD_MIN_BYTES, SECURITY_BITS, KeyMaterial, check_geometry
from .errors import AuthFailure, BadMagic, BadParameter, Truncated, VersionUnsupported
from .index import ListingIndex, TrieIndex
from .multiuser import UserDirectory
from .verifiable import AuthTrieIndex, TAG_BYTES

KEY_MAGIC = b"FZKY"
INDEX_MAGIC = b"FZIX"
DIR_MAGIC = b"FZUD"
MAX_USER_ID_BYTES = 0xFFFF  # an FZUD user id's 2-byte length field
INDEX_VERSION = 3  # FZIX
VERSION = 1  # FZKY and FZUD

FLAG_TRIE = 0x01
FLAG_VERIFIABLE = 0x02
FLAG_GRAM = 0x04
KIND_FLAGS = {"listing": 0, "trie": FLAG_TRIE, "auth_trie": FLAG_TRIE | FLAG_VERIFIABLE}
KIND_CLASSES = {KIND_FLAGS[cls.kind]: cls for cls in (ListingIndex, TrieIndex, AuthTrieIndex)}


class _Reader:
    def __init__(self, data: bytes):
        self._view = memoryview(data)
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self._view):
            raise Truncated(f"need {n} bytes at offset {self.pos}")
        chunk = bytes(self._view[self.pos : self.pos + n])
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def done(self) -> bool:
        return self.pos == len(self._view)


def _check_header(r: _Reader, magic: bytes, version: int) -> None:
    got = r.take(len(magic))
    if got != magic:
        raise BadMagic(f"expected {magic!r}, found {got!r}")
    found = r.u8()
    if found != version:
        raise VersionUnsupported(f"{magic.decode()} version {found} not supported (expected {version})")


# -- keys ------------------------------------------------------------------

def dumps_keys(km: KeyMaterial) -> bytes:
    out = io.BytesIO()
    out.write(KEY_MAGIC)
    out.write(bytes([VERSION]))
    out.write(km.security_bits.to_bytes(2, "big"))
    out.write(km.trapdoor_bits.to_bytes(2, "big"))
    out.write(bytes([km.symbol_bits]))
    for key in (km.trapdoor_key, km.record_key, km.blind_key):
        out.write(len(key).to_bytes(2, "big"))
        out.write(key)
    return out.getvalue()


def loads_keys(data: bytes) -> KeyMaterial:
    r = _Reader(data)
    _check_header(r, KEY_MAGIC, VERSION)
    security_bits = r.u16()
    trapdoor_bits = r.u16()
    symbol_bits = r.u8()
    check_geometry(trapdoor_bits, symbol_bits)
    keys = [r.take(r.u16()) for _ in range(3)]
    if not r.done():
        raise Truncated("trailing bytes after key material")
    if security_bits not in SECURITY_BITS or any(len(key) != security_bits // 8 for key in keys):
        raise BadParameter(f"key sizes {[len(k) for k in keys]} do not fit security {security_bits}")
    return KeyMaterial(
        trapdoor_key=keys[0],
        record_key=keys[1],
        blind_key=keys[2],
        security_bits=security_bits,
        trapdoor_bits=trapdoor_bits,
        symbol_bits=symbol_bits,
    )


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


# -- indexes ---------------------------------------------------------------

def dumps_index(index) -> bytes:
    if getattr(index, "kind", None) not in KIND_FLAGS:
        raise BadParameter(f"cannot serialize {type(index).__name__}")
    check_geometry(index.trapdoor_bits, index.symbol_bits)
    flags = KIND_FLAGS[index.kind] | (FLAG_GRAM if index.method == "gram" else 0)
    parts = [
        INDEX_MAGIC,
        bytes([INDEX_VERSION, flags, index.symbol_bits]),
        index.trapdoor_bits.to_bytes(2, "big"),
        bytes([index.d]),
        len(index.table).to_bytes(8, "big"),
    ]
    width, append, exact = index.trapdoor_bits // 8, parts.append, index.exact
    head = _entry_head(width).pack
    for t in index.ordered:
        records = index.table[t]
        if not 0 < len(records) <= 0xFFFF:  # the count is a u16, and an entry holds records
            raise BadParameter(f"{len(records)} records under one trapdoor; the limit is 1..65535")
        if len(t) != width:
            raise BadParameter(f"a {len(t)}-byte trapdoor in a {index.trapdoor_bits}-bit index")
        first = records[0]
        append(head(t, t in exact, len(records), len(first)))
        append(first)
        for blob in records[1:]:
            append(len(blob).to_bytes(4, "big"))
            append(blob)
    if index.kind == "auth_trie":
        parts.append(index.tags)
    return b"".join(parts)


def _entry_head(width: int) -> struct.Struct:
    """An entry's head: trapdoor, entry flag, record count, the first record's length."""
    return struct.Struct(f">{width}sBHI")


def _read_entries(data: bytes, pos: int, count: int, width: int):
    """The ``count`` entries from offset ``pos``: (map, exact set, end offset).

    Every bound is checked before its slice is taken.  The ascending order of
    the trapdoors is checked once, over all of them, after the last entry.
    """
    size, head = len(data), _entry_head(width)
    unpack, head_size = head.unpack_from, head.size
    keys, values, exact = [], [], set()
    for i in range(count):
        start = pos + head_size
        if start > size:
            raise Truncated(f"entry {i} ends early")
        t, flag, n, length = unpack(data, pos)
        if flag > 1:
            raise BadParameter(f"entry {i}: unknown entry flags {flag:#x}")
        if not n:
            raise BadParameter(f"entry {i} has no records")
        pos = start + length
        if pos > size:
            raise Truncated(f"entry {i}: a record ends early")
        if length < RECORD_MIN_BYTES:
            raise AuthFailure("record blob too short")
        if n == 1:
            records = (data[start:pos],)
        else:
            records = [data[start:pos]]
            for _ in range(n - 1):
                start = pos + 4
                if start > size:
                    raise Truncated(f"entry {i}: a record ends early")
                length = int.from_bytes(data[pos:start], "big")
                pos = start + length
                if pos > size:
                    raise Truncated(f"entry {i}: a record ends early")
                if length < RECORD_MIN_BYTES:
                    raise AuthFailure("record blob too short")
                records.append(data[start:pos])
            records = tuple(records)
        keys.append(t)
        values.append(records)
        if flag:
            exact.add(t)
    if not all(map(operator.lt, keys, keys[1:])):
        i = next(i for i in range(1, len(keys)) if keys[i - 1] >= keys[i])
        raise BadParameter(f"entry {i}: trapdoors are not strictly ascending")
    return dict(zip(keys, values)), exact, pos


def loads_index(data: bytes):
    data = bytes(data)  # slices must be bytes, to key the map
    r = _Reader(data)
    _check_header(r, INDEX_MAGIC, INDEX_VERSION)
    flags = r.u8()
    if flags & ~(FLAG_TRIE | FLAG_VERIFIABLE | FLAG_GRAM):
        raise BadParameter(f"unknown index flags {flags:#x}")
    if flags & FLAG_VERIFIABLE and not flags & FLAG_TRIE:
        raise BadParameter("verifiable flag requires a trie index")
    symbol_bits = r.u8()
    trapdoor_bits = r.u16()
    d = r.u8()
    check_geometry(trapdoor_bits, symbol_bits)
    count = r.u64()
    table, exact, pos = _read_entries(data, r.pos, count, trapdoor_bits // 8)
    method = "gram" if flags & FLAG_GRAM else "wildcard"
    index = KIND_CLASSES[flags & ~FLAG_GRAM](table, trapdoor_bits, symbol_bits, d, method, exact)
    tags_len = (2 * len(table) + 1) * TAG_BYTES if index.kind == "auth_trie" else 0
    if len(data) - pos != tags_len:
        raise Truncated(f"{len(data) - pos} bytes follow the {index.kind} entries, not {tags_len}")
    if tags_len:
        index.tags = data[pos:]
    return index


def save_index(index, path: str) -> None:
    _replace_file(path, dumps_index(index))


def load_index(path: str):
    with open(path, "rb") as fh:
        return loads_index(fh.read())


# -- user directories ------------------------------------------------------

def dumps_directory(directory: UserDirectory) -> bytes:
    out = io.BytesIO()
    out.write(DIR_MAGIC)
    out.write(bytes([VERSION]))
    out.write(directory.epoch.to_bytes(8, "big"))
    out.write(len(directory.wrapped).to_bytes(4, "big"))
    for user_id in sorted(directory.wrapped):
        uid = user_id.encode("utf-8")
        if len(uid) > MAX_USER_ID_BYTES:
            raise BadParameter(f"a {len(uid)}-byte user id; the limit is {MAX_USER_ID_BYTES}")
        blob = directory.wrapped[user_id]
        out.write(len(uid).to_bytes(2, "big"))
        out.write(uid)
        out.write(len(blob).to_bytes(2, "big"))
        out.write(blob)
    return out.getvalue()


def loads_directory(data: bytes, current_xi: bytes = b"") -> UserDirectory:
    """Published view: wrapped blobs only; personal keys are not on disk."""
    r = _Reader(data)
    _check_header(r, DIR_MAGIC, VERSION)
    epoch = r.u64()
    wrapped = {}
    for _ in range(r.u32()):
        try:
            user_id = r.take(r.u16()).decode("utf-8")
        except UnicodeDecodeError:
            raise BadParameter("a user id is not UTF-8") from None
        wrapped[user_id] = r.take(r.u16())
    if not r.done():
        raise Truncated("trailing bytes after directory")
    return UserDirectory(current_xi=current_xi, epoch=epoch, wrapped=wrapped)


def save_directory(directory: UserDirectory, path: str) -> None:
    _replace_file(path, dumps_directory(directory))


def load_directory(path: str, current_xi: bytes = b"") -> UserDirectory:
    with open(path, "rb") as fh:
        return loads_directory(fh.read(), current_xi)
