"""File formats: key files, index files, user directories.

All integers are big-endian.  Layouts:

``FZKY`` key file
    magic "FZKY", version byte, security bits (2), trapdoor bits (2),
    symbol bits (1), then trapdoor key, record key, blind key as 2-byte
    length-prefixed strings.  Written owner-readable only (0600).

``FZIX`` index file
    magic "FZIX", version byte, flags byte (bit0: 1=trie 0=listing,
    bit1: verifiable, bit2: 1=gram 0=wildcard), symbol bits (1),
    trapdoor bits (2), d (1), entry count (8).  Listing body: entries
    sorted by trapdoor bytes, each trapdoor || entry flag (1, bit0 =
    exact keyword entry) || record count (2) || 4-byte length-prefixed
    record blobs.  Trie body: nodes in depth-first pre-order, children
    sorted by symbol; per node a flag byte (bit0 = exact), a record
    count (2) with the record blobs, then a child count (2) followed
    by symbol byte + child subtree.  Verifiable tries add the 32-byte
    r1 before each node's record count and the 32-byte leaf tag after
    a leaf's records.  Builds are byte-deterministic.
    Tries are written from and read into the same entry map, so records
    sit only on childless full-depth nodes, and every other node but an
    empty root has children.

``FZUD`` directory file
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
import os
import re

from .crypto import EncryptedRecord, KeyMaterial, check_geometry
from .errors import BadMagic, BadParameter, Truncated, VersionUnsupported
from .index import ListingIndex, TrieIndex
from .multiuser import UserDirectory
from .verifiable import AuthTrieIndex, R1_BYTES

KEY_MAGIC = b"FZKY"
INDEX_MAGIC = b"FZIX"
DIR_MAGIC = b"FZUD"
VERSION = 1

FLAG_TRIE = 0x01
FLAG_VERIFIABLE = 0x02
FLAG_GRAM = 0x04
KIND_FLAGS = {"listing": 0, "trie": FLAG_TRIE, "auth_trie": FLAG_TRIE | FLAG_VERIFIABLE}
KIND_CLASSES = {KIND_FLAGS[cls.kind]: cls for cls in (ListingIndex, TrieIndex, AuthTrieIndex)}


class _Reader:
    def __init__(self, data: bytes):
        self._view = memoryview(data)
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._view):
            raise Truncated(f"need {n} bytes at offset {self._pos}")
        chunk = bytes(self._view[self._pos : self._pos + n])
        self._pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def match(self, pattern: re.Pattern) -> bytes:
        """Consume and return what ``pattern`` matches here (possibly nothing)."""
        m = pattern.match(self._view, self._pos)
        self._pos = m.end()
        return m.group()

    def done(self) -> bool:
        return self._pos == len(self._view)


def _check_header(r: _Reader, magic: bytes) -> None:
    got = r.take(len(magic))
    if got != magic:
        raise BadMagic(f"expected {magic!r}, found {got!r}")
    version = r.u8()
    if version != VERSION:
        raise VersionUnsupported(f"version {version} not supported")


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
    _check_header(r, KEY_MAGIC)
    security_bits = r.u16()
    trapdoor_bits = r.u16()
    symbol_bits = r.u8()
    check_geometry(trapdoor_bits, symbol_bits)
    keys = [r.take(r.u16()) for _ in range(3)]
    if not r.done():
        raise Truncated("trailing bytes after key material")
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

def _records_bytes(records: list[EncryptedRecord]) -> bytes:
    if len(records) > 0xFFFF:  # the count is a u16
        raise BadParameter(f"{len(records)} records under one trapdoor; the limit is 65535")
    parts = [len(records).to_bytes(2, "big")]
    for rec in records:
        blob = rec.blob
        parts.append(len(blob).to_bytes(4, "big"))
        parts.append(blob)
    return b"".join(parts)


def _read_records(r: _Reader) -> list[EncryptedRecord]:
    return [EncryptedRecord.from_blob(r.take(r.u32())) for _ in range(r.u16())]


def _write_trie(out: io.BytesIO, index) -> None:
    """The pre-order node stream from the sorted trapdoors; child counts are
    rewritten as the children are met."""
    verifiable = index.kind == "auth_trie"
    n, bits, leaf_depth = index.symbol_bits, index.trapdoor_bits, index.depth
    mask = (1 << n) - 1
    chunks: list[bytes] = []
    count_at = [0] * leaf_depth  # chunk position of the open node's child count, per depth
    counts = [0] * leaf_depth
    # r1 and tags are laid out in the order the nodes and leaves are written
    r1 = tag = b""
    r1_pos = tag_pos = 0
    for depth, prefix in index.node_keys():
        if depth:
            counts[depth - 1] += 1
            chunks[count_at[depth - 1]] = counts[depth - 1].to_bytes(2, "big")
            chunks.append(bytes([prefix & mask]))
        if verifiable:
            r1 = index.r1[r1_pos : r1_pos + R1_BYTES]
            r1_pos += R1_BYTES
        if depth < leaf_depth:
            chunks.append(b"\x00" + r1 + b"\x00\x00")
            count_at[depth] = len(chunks)
            counts[depth] = 0
            chunks.append(b"\x00\x00")
        else:
            t = prefix.to_bytes(bits // 8, "big")
            if verifiable:
                tag = index.tags[tag_pos : tag_pos + R1_BYTES]
                tag_pos += R1_BYTES
            chunks.append(bytes([t in index.exact]) + r1 + _records_bytes(index.table[t]) + tag)
            chunks.append(b"\x00\x00")
    out.write(b"".join(chunks))


def _read_trie(r: _Reader, index) -> None:
    """Stream the pre-order node stream into ``index``'s map, appending each
    r1 and tag to the index's byte strings in the order they are met."""
    verifiable = index.kind == "auth_trie"
    n, leaf_depth = index.symbol_bits, index.depth
    r1_len = R1_BYTES if verifiable else 0
    # Most nodes have one child and no records.  A run of them, each followed
    # by its child's symbol, is matched in one step.
    stride = 6 + r1_len
    unary = re.compile(
        b"(?:\\x00" + b"." * r1_len + b"\\x00\\x00\\x00\\x01[\\x00-"
        + re.escape(bytes([(1 << n) - 1])) + b"])*",
        re.DOTALL,
    )

    def subtree(depth: int, prefix: int) -> None:
        run = r.match(unary)
        for i in range(0, len(run), stride):
            if verifiable:
                index.r1 += run[i + 1 : i + 1 + R1_BYTES]
            depth, prefix = depth + 1, (prefix << n) | run[i + stride - 1]
        exact = r.u8() & 0x01
        if verifiable:
            index.r1 += r.take(R1_BYTES)
        records = _read_records(r)
        tag = r.take(R1_BYTES) if verifiable and records else None
        children = r.u16()
        leaf = depth == leaf_depth
        # Leaves hold records and no children; other nodes, bar an empty root, the reverse.
        if depth > leaf_depth or leaf != bool(records) or (leaf == bool(children) and depth):
            raise BadParameter(f"trie node at depth {depth} breaks the {leaf_depth}-deep shape")
        if leaf:
            t = prefix.to_bytes(index.trapdoor_bits // 8, "big")
            index.table[t] = records
            if exact:
                index.exact.add(t)
            if tag:
                index.tags += tag
        last = -1
        for _ in range(children):
            sym = r.u8()
            if sym >> n or sym <= last:
                raise BadParameter(f"trie child symbol {sym} out of range or order")
            last = sym
            subtree(depth + 1, (prefix << n) | sym)

    subtree(0, 0)


def dumps_index(index) -> bytes:
    if getattr(index, "kind", None) not in KIND_FLAGS:
        raise BadParameter(f"cannot serialize {type(index).__name__}")
    flags = KIND_FLAGS[index.kind]
    if index.method == "gram":
        flags |= FLAG_GRAM
    if index.symbol_bits > 8:
        raise BadParameter("symbol_bits > 8 cannot serialize symbols as bytes")
    out = io.BytesIO()
    out.write(INDEX_MAGIC)
    out.write(bytes([VERSION, flags, index.symbol_bits]))
    out.write(index.trapdoor_bits.to_bytes(2, "big"))
    out.write(bytes([index.d]))
    out.write(len(index.table).to_bytes(8, "big"))
    if flags & FLAG_TRIE:
        _write_trie(out, index)
    else:
        for t in sorted(index.table):
            out.write(t)
            out.write(bytes([1 if t in index.exact else 0]))
            out.write(_records_bytes(index.table[t]))
    return out.getvalue()


def loads_index(data: bytes):
    r = _Reader(data)
    _check_header(r, INDEX_MAGIC)
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
    method = "gram" if flags & FLAG_GRAM else "wildcard"
    index = KIND_CLASSES[flags & ~FLAG_GRAM]({}, trapdoor_bits, symbol_bits, d, method)
    if flags & FLAG_TRIE:
        _read_trie(r, index)
    else:
        for _ in range(count):
            t = r.take(trapdoor_bits // 8)
            if r.u8() & 0x01:
                index.exact.add(t)
            index.table[t] = _read_records(r)
    if not r.done():
        raise Truncated(f"trailing bytes after the {index.kind} body")
    if len(index.table) != count:
        raise Truncated("entry count does not match header")
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
        blob = directory.wrapped[user_id]
        out.write(len(uid).to_bytes(2, "big"))
        out.write(uid)
        out.write(len(blob).to_bytes(2, "big"))
        out.write(blob)
    return out.getvalue()


def loads_directory(data: bytes, current_xi: bytes = b"") -> UserDirectory:
    """Published view: wrapped blobs only; personal keys are not on disk."""
    r = _Reader(data)
    _check_header(r, DIR_MAGIC)
    epoch = r.u64()
    wrapped = {}
    for _ in range(r.u32()):
        user_id = r.take(r.u16()).decode("utf-8")
        wrapped[user_id] = r.take(r.u16())
    if not r.done():
        raise Truncated("trailing bytes after directory")
    return UserDirectory(current_xi=current_xi, epoch=epoch, wrapped=wrapped)


def save_directory(directory: UserDirectory, path: str) -> None:
    _replace_file(path, dumps_directory(directory))


def load_directory(path: str, current_xi: bytes = b"") -> UserDirectory:
    with open(path, "rb") as fh:
        return loads_directory(fh.read(), current_xi)
