import hashlib
import hmac
import itertools
import json
import random
import string
import struct
import time
from collections import namedtuple

import pytest

from cryptography.hazmat.primitives.ciphers.aead import AESSIV

from fzsearch import (
    AuthFailure,
    BadMagic,
    BadParameter,
    FzError,
    KeyMaterial,
    Truncated,
    UserDirectory,
    VersionUnsupported,
    build_auth_trie,
    build_listing_index,
    build_trie_index,
    fuzzy_set,
    keygen,
)
from fzsearch.client import SearchClient
from fzsearch.crypto import SECURITY_BITS, prf_bytes
from fzsearch.index import pack_entries
from fzsearch.persist import save_keys

ALPHABET = "abcdefghijklmnopqrstuvwxyz"

# the build function of each index kind
BUILDS = {"listing": build_listing_index, "trie": build_trie_index, "auth": build_auth_trie}


class BudgetExceeded(FzError):
    """Raised when an exhaustive neighborhood would exceed its member cap."""


@pytest.fixture(scope="session")
def km():
    return keygen(128, seed=b"test-keys")


def save_seeded_keys(path, seed: bytes) -> str:
    """Write ``keygen(128, seed=seed)`` as a key file at ``path``; return the path as text."""
    save_keys(keygen(128, seed=seed), str(path))
    return str(path)


def random_word(rng: random.Random, lo: int = 3, hi: int = 8) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(lo, hi)))


def random_corpus(rng: random.Random, size: int = 100, lo: int = 3, hi: int = 8):
    corpus = {}
    while len(corpus) < size:
        word = random_word(rng, lo, hi)
        if word not in corpus:
            corpus[word] = [b"f%04d" % len(corpus)]
    return corpus


def synth_corpus(count: int, avg_len: float = 7.44, seed: int = 0) -> dict[str, list[bytes]]:
    """``count`` distinct random words, mean length close to ``avg_len``."""
    rng = random.Random(seed)
    corpus: dict[str, list[bytes]] = {}
    while len(corpus) < count:
        length = max(3, round(rng.gauss(avg_len, 2.0)))
        word = "".join(rng.choice(ALPHABET) for _ in range(length))
        if word not in corpus:
            corpus[word] = [b"doc%05d" % len(corpus)]
    return corpus


def time_fuzzyset_build(corpus: dict[str, list[bytes]], d: int, method: str) -> tuple[float, int]:
    """(elapsed ms, total variants) for constructing every keyword's set."""
    total = 0
    start = time.perf_counter()
    for word in corpus:
        total += len(fuzzy_set(word, d, method))
    return (time.perf_counter() - start) * 1000.0, total


def reference_edit_distance(a: str, b: str) -> int:
    """Independent full-matrix implementation used to cross-check the fast one."""
    rows = len(a) + 1
    cols = len(b) + 1
    m = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        m[i][0] = i
    for j in range(cols):
        m[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            m[i][j] = min(m[i - 1][j] + 1, m[i][j - 1] + 1, m[i - 1][j - 1] + cost)
    return m[-1][-1]


def brute_force_neighborhood(word: str, d: int, letters: str) -> set[str]:
    """Exhaustive oracle: every string (length >= 1) over ``letters`` at distance <= d.

    Each candidate fills the full distance table against ``word`` a row per
    letter of its own, and is dropped as soon as a whole row exceeds ``d``: no
    later row can come back under it."""
    out = set()
    first = list(range(len(word) + 1))
    for length in range(max(1, len(word) - d), len(word) + d + 1):
        for tup in itertools.product(letters, repeat=length):
            row = first
            for c in tup:
                prev, row = row, [row[0] + 1]
                for j, w in enumerate(word):
                    row.append(min(prev[j + 1] + 1, row[j] + 1, prev[j] + (c != w)))
                if min(row) > d:
                    break
            else:
                if row[-1] <= d:
                    out.add("".join(tup))
    return out


def enumeration_fuzzy_set(
    word: str,
    d: int,
    alphabet_size: int = 26,
    budget: int = 10_000_000,
) -> tuple[str, ...]:
    """Every concrete word within edit distance ``d`` of ``word``: the exact
    set that the wildcard and gram constructions are judged against.

    Generated by applying all single edits (substitution, deletion,
    insertion) ``d`` times and keeping the union of all levels, which is
    exactly ``{u : edit_distance(word, u) <= d}`` restricted to words of
    length >= 1 over the first ``alphabet_size`` letters.
    """
    if d < 0 or d > 2:
        raise BadParameter("exhaustive enumeration is guarded to d in {0, 1, 2}")
    if not 1 <= alphabet_size <= 26:
        raise BadParameter("alphabet_size must be in 1..26")
    letters = ALPHABET[:alphabet_size]
    members = {word}
    level = {word}
    for _ in range(d):
        nxt: set[str] = set()
        for member in level:
            for i in range(len(member)):
                head, tail = member[:i], member[i + 1 :]
                nxt.add(head + tail)  # deletion (may be "", dropped below)
                for c in letters:
                    nxt.add(head + c + tail)
            for i in range(len(member) + 1):
                for c in letters:
                    nxt.add(member[:i] + c + member[i:])
        nxt.discard("")
        members |= nxt
        if len(members) > budget:
            raise BudgetExceeded(f"neighborhood of {word!r} exceeds {budget} members")
        level = nxt
    return tuple(sorted(members))


def mutate(word: str, rng: random.Random) -> str:
    """One random primitive edit."""
    ops = ["sub", "ins"] + (["del"] if len(word) > 1 else [])
    op = rng.choice(ops)
    if op == "ins":
        i = rng.randrange(len(word) + 1)
        return word[:i] + rng.choice(ALPHABET) + word[i:]
    i = rng.randrange(len(word))
    if op == "sub":
        return word[:i] + rng.choice(ALPHABET) + word[i + 1 :]
    return word[:i] + word[i + 1 :]


def reference_tag_key(record_key: bytes) -> bytes:
    """The proof tags' key from its definition: the HMAC-SHA256 of ``R:tag`` and a zero
    block counter under the record key, cut to the record key's length."""
    return hmac.new(record_key, b"R:tag" + bytes(4), "sha256").digest()[: len(record_key)]


def leaf_tag(tag_key: bytes, t: bytes, flag: int, count: int, digest: bytes) -> bytes:
    """A leaf tag from its definition: the first 16 bytes of HMAC-SHA256 under the tag key
    of ``L: || t || flag || count (2) || digest`` and a zero block counter."""
    msg = b"L:" + t + bytes([flag]) + count.to_bytes(2, "big") + digest
    return hmac.new(tag_key, msg + bytes(4), "sha256").digest()[:16]


def gap_tag(tag_key: bytes, left: bytes, right: bytes) -> bytes:
    """A gap tag from its definition: the first 16 bytes of HMAC-SHA256 under the tag key
    of ``G: || len(left) || len(right) || left || right`` and a zero block counter."""
    msg = b"G:" + bytes([len(left), len(right)]) + left + right
    return hmac.new(tag_key, msg + bytes(4), "sha256").digest()[:16]


def hit(flag: int, count: int, tag: bytes) -> bytes:
    """A hit proof from the wire layout: ``ff || flag || record count (2) || leaf tag (16)``."""
    return bytes([0xFF, flag]) + count.to_bytes(2, "big") + tag


def framed_digest(records) -> bytes:
    """A hit's record digest from its definition: SHA-256 of the record count (2 bytes),
    then of each record's length (4 bytes) before its bytes."""
    h = hashlib.sha256(len(records).to_bytes(2, "big"))
    for record in records:
        h.update(len(record).to_bytes(4, "big") + record)
    return h.digest()


def miss(left: bytes, right: bytes, tag: bytes) -> bytes:
    """A miss proof from the wire layout: ``ff || 02 || len(left) || left || len(right) || right || gap tag (16)``."""
    return bytes([0xFF, 2, len(left)]) + left + bytes([len(right)]) + right + tag


def fields(proof: bytes) -> dict:
    """An honest proof's fields, keyed as ``hit`` or ``miss`` takes them, so one of the two rebuilds ``proof``."""
    if proof[1] != 2:
        return {"flag": proof[1], "count": int.from_bytes(proof[2:4], "big"), "tag": proof[4:]}
    mid = 3 + proof[2]
    end = mid + 1 + proof[mid]
    return {"left": proof[3:mid], "right": proof[mid + 1 : end], "tag": proof[end:]}


def reference_record_cipher(record_key: bytes) -> AESSIV:
    """The records' AES-SIV cipher from its definition: its key is the HMAC-SHA256
    of ``R:siv-s2v``, then of ``R:siv-ctr``, under the record key, each cut to
    the record key's length."""
    return AESSIV(b"".join(hmac.new(record_key, label + bytes(4), "sha256").digest()[: len(record_key)]
                           for label in (b"R:siv-s2v", b"R:siv-ctr")))


def reference_build_entries(corpus: dict[str, list[bytes]], d: int, km, method: str = "wildcard"):
    """The owner's build one PRF per trapdoor and one AES-SIV call per record, with
    the trapdoor and record layouts spelled out: the oracle the one-pass
    ``index.build_entries`` is held to.  A record seals ``copy || len(fid) || fid
    || keyword``, ``copy`` (2 bytes) its variant's position in the sorted fuzzy set."""
    entries: dict[bytes, list[bytes]] = {}
    exact: set[bytes] = set()
    cipher = reference_record_cipher(km.record_key)
    for keyword in sorted(corpus):
        fids = list(dict.fromkeys(corpus[keyword]))
        if not fids:
            continue
        word = keyword.encode("ascii")
        for copy, variant in enumerate(sorted(fuzzy_set(keyword, d, method))):
            t = prf_bytes(km.trapdoor_key, b"T:" + variant.encode("ascii"), 20)
            if variant == keyword:
                exact.add(t)
            bucket = entries.setdefault(t, [])
            for fid in fids:
                if not fid or len(fid) > 64:
                    raise BadParameter("fid must be 1..64 bytes")
                bucket.append(cipher.encrypt(copy.to_bytes(2, "big") + bytes([len(fid)]) + fid + word, None))
    return {t: tuple(records) for t, records in entries.items()}, exact


def reference_parse_trapdoors(width: int, raw) -> tuple[bytes, ...] | None:
    """The server's trapdoor parser item by item: the oracle the one-pass parser is held to."""
    if not isinstance(raw, list) or not raw:
        return None
    out = []
    for item in raw:
        try:
            t = bytes.fromhex(item)
        except (TypeError, ValueError):
            return None
        # the round trip rejects upper case and the whitespace fromhex skips
        if len(t) != width or t.hex() != item:
            return None
        out.append(t)
    if len(set(out)) != len(out):
        return None
    return tuple(out)


def search_msg(req, epoch=0, **extra) -> dict:
    """The SearchReq of ``req`` at ``epoch``, with ``extra`` fields such as ``proof=True``."""
    msg = {"type": "SearchReq", "epoch": epoch, "k": req.k, "trapdoors": [t.hex() for t in req.trapdoors]}
    msg.update(extra)
    return msg


class CaptureClient(SearchClient):
    """A ``SearchClient`` with no socket: ``roundtrip`` returns the message it is given, as sent."""

    def __init__(self):
        pass

    def roundtrip(self, msg: dict) -> dict:
        return msg


def garbage_line(rng: random.Random):
    """A random wire line for the protocol fuzz: raw bytes, printable text with its whitespace or off-contract JSON."""
    roll = rng.random()
    if roll < 0.35:
        return bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
    if roll < 0.7:
        return "".join(rng.choice(string.printable) for _ in range(rng.randrange(0, 120)))
    if roll < 0.85:
        msg = {"type": rng.choice(["SearchReq", "Hello", "X", 7]), "k": rng.choice([0, 1, "k", None, 10**12, -5, 2**40, "x"]),
               "trapdoors": rng.choice([None, [], ["00"], ["0" * 40], 3, ["xx" * 20], [1, 2]])}
        msg.update(rng.choice([{}, {"epoch": 0}, {"epoch": "e"}, {"epoch": None}]))
        return json.dumps(msg)
    if roll < 0.9:
        return json.dumps({rng.choice(["type", "k", "x"]): rng.choice([None, 1e308, "SearchReq", [], {}])})
    return json.dumps(rng.choice([[], 42, "str", {"a": {"b": {"c": 1}}}]))


class _Reader:
    """A cursor over an owner file, each field read and bounds-checked on its own."""

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


def reference_loads_keys(data: bytes) -> KeyMaterial:
    """FZKY v1 read field by field through a cursor: the oracle ``persist.loads_keys`` is held to."""
    r = _Reader(data)
    _check_header(r, b"FZKY", 1)
    security_bits = r.u16()
    trapdoor_bits = r.u16()
    symbol_bits = r.u8()
    if (trapdoor_bits, symbol_bits) != (160, 4):
        raise BadParameter("the one geometry is 160-bit trapdoors of 4-bit symbols")
    keys = [r.take(r.u16()) for _ in range(3)]
    if not r.done():
        raise Truncated("trailing bytes after key material")
    if security_bits not in SECURITY_BITS or any(len(key) != security_bits // 8 for key in keys):
        raise BadParameter(f"key sizes {[len(k) for k in keys]} do not fit security {security_bits}")
    return KeyMaterial(*keys, security_bits)


def refusal(read, data: bytes):
    """``read(data)``, or the class and message of its refusal."""
    try:
        return read(data)
    except FzError as exc:
        return type(exc), str(exc)


def index_from_entries(cls, entries: dict[bytes, tuple[bytes, ...]], d: int, method="wildcard", exact=frozenset()):
    """The ``cls`` index of a trapdoor -> records map, its body written by ``pack_entries``."""
    return cls(*pack_entries(entries, exact), d, method, set(exact))


# An FZIX file as ``reference_read_fzix`` reads it: the header's flags and d, each
# trapdoor's entry offset and its records' ``(start, end)`` spans, counted from the
# first byte after the header, the exact set, the end of the entries and the tags.
Fzix = namedtuple("Fzix", ("flags", "d", "table", "spans", "exact", "end", "tags"))
_ENTRY_HEAD = struct.Struct(">20sBHI")  # trapdoor, entry flag, record count, first record's length
_LENGTH = struct.Struct(">I")  # every later record's length
_KINDS = {0x00: "listing", 0x01: "trie", 0x03: "auth_trie"}  # by the trie and verifiable flags


def reference_read_fzix(data: bytes) -> Fzix:
    """FZIX v5 read one field at a time: the header, then each entry's head and
    each of its records, then the tags.  A record is reported as its span of the
    body, never copied.  A damaged file raises what ``persist.loads_index``
    raises, class and message: the first failed check in file order, except that
    the first entry out of trapdoor order is reported only after the last entry.
    The oracle of the loader, its short path included."""
    data = bytes(data)
    r = _Reader(data)
    try:
        _check_header(r, b"FZIX", 5)
        flags, symbol_bits, trapdoor_bits, d, count = r.u8(), r.u8(), r.u16(), r.u8(), r.u64()
    except Truncated:
        raise Truncated(f"the 18-byte FZIX header ends after {len(data)} bytes") from None
    if flags & ~0x07:
        raise BadParameter(f"unknown index flags {flags:#x}")
    if flags & 0x02 and not flags & 0x01:
        raise BadParameter("verifiable flag requires a trie index")
    if (trapdoor_bits, symbol_bits) != (160, 4):
        raise BadParameter(f"{trapdoor_bits}-bit trapdoors of {symbol_bits}-bit symbols; only 160/4 is read")
    body = data[r.pos :]
    size, head, length_at = len(body), _ENTRY_HEAD.unpack_from, _LENGTH.unpack_from
    table, spans, exact, pos = {}, {}, set(), 0
    prev, disorder = b"", None  # the last trapdoor read; the first entry not above its predecessor
    for i in range(count):
        if pos + _ENTRY_HEAD.size > size:
            raise Truncated(f"entry {i} ends early")
        t, flag, n, length = head(body, pos)
        if flag > 1:
            raise BadParameter(f"entry {i}: unknown entry flags {flag:#x}")
        if not n:
            raise BadParameter(f"entry {i} has no records")
        if t <= prev and disorder is None:
            disorder = i
        table[t], prev = pos, t
        if flag:
            exact.add(t)
        pos += _ENTRY_HEAD.size
        records = spans[t] = []
        while True:  # a record of ``length`` bytes at ``pos``, then the next one's length
            if pos + length > size:
                raise Truncated(f"entry {i}: a record ends early")
            if length < 21:  # the synthetic IV, a copy index, a fid length, a fid byte and a letter
                raise AuthFailure("record blob too short")
            records.append((pos, pos + length))
            pos += length
            if len(records) == n:
                break
            if pos + 4 > size:
                raise Truncated(f"entry {i}: a record ends early")
            (length,) = length_at(body, pos)
            pos += 4
    if disorder is not None:
        raise BadParameter(f"entry {disorder}: trapdoors are not strictly ascending")
    tags = body[pos:]
    tags_len = (2 * len(table) + 1) * 16 if flags & 0x02 else 0  # 16-byte leaf and gap tags
    if len(tags) != tags_len:
        raise Truncated(f"{len(tags)} bytes follow the {_KINDS[flags & 0x03]} entries, not {tags_len}")
    return Fzix(flags, d, table, spans, exact, pos, tags)


def reference_loads_directory(data: bytes) -> UserDirectory:
    """FZUD v1 read field by field through a cursor: the oracle ``persist.loads_directory`` is held to."""
    r = _Reader(data)
    _check_header(r, b"FZUD", 1)
    epoch = r.u64()
    wrapped = {}
    for _ in range(r.u32()):
        try:
            user_id = r.take(r.u16()).decode("utf-8")
        except UnicodeDecodeError:
            raise BadParameter("a user id is not UTF-8") from None
        if wrapped and user_id <= next(reversed(wrapped)):
            raise BadParameter("user ids are not distinct and ascending")
        wrapped[user_id] = r.take(r.u16())
    if not r.done():
        raise Truncated("trailing bytes after directory")
    return UserDirectory(current_xi=b"", epoch=epoch, wrapped=wrapped)
