import hashlib
import random
from pathlib import Path

import pytest

from conftest import mutate, random_corpus, random_word
from fzsearch import (
    AuthFailure,
    BadParameter,
    EditBoundExceeded,
    FzError,
    TrieIndex,
    Truncated,
    UserDirectory,
    VersionUnsupported,
    build_auth_trie,
    build_listing_index,
    build_trie_index,
    decrypt_record,
    edit_distance,
    enumeration_fuzzy_set,
    keygen,
    make_request,
    search_listing,
    search_trie,
    search_with_proof,
    symbolize,
    symbols_to_bytes,
    trapdoor,
    wildcard_fuzzy_set,
)
from fzsearch.crypto import check_geometry
from fzsearch.index import walk_trie
from fzsearch.persist import dumps_directory, dumps_index, dumps_keys, loads_index
from fzsearch.verifiable import TAG_BYTES, encode_proof


class TestSymbolize:
    def test_direct_bit_split(self):
        assert symbolize(bytes([0b10110100]), 4) == (11, 4)
        assert symbolize(bytes([0xFF, 0x01]), 8) == (255, 1)

    def test_default_geometry(self, km):
        syms = symbolize(trapdoor(km, "castle"), 4)
        assert len(syms) == 40
        assert all(0 <= s < 16 for s in syms)

    def test_whole_trapdoor_as_one_symbol(self, km):
        t = trapdoor(km, "castle")
        assert symbolize(t, 160) == (int.from_bytes(t, "big"),)

    def test_nondividing_width_rejected(self):
        with pytest.raises(BadParameter):
            symbolize(bytes(20), 7)

    def test_recompose_is_identity(self, km):
        rng = random.Random(79)
        for _ in range(200):
            t = trapdoor(km, random_word(rng))
            for n in (1, 2, 4, 5, 8):
                assert symbols_to_bytes(symbolize(t, n), n) == t


class TestBuild:
    def test_single_keyword_entry_count(self, km):
        index = build_listing_index({"cat": [b"F1"]}, 1, km)
        assert len(index.table) == 8  # |wildcard set of "cat"|

    def test_empty_corpus(self, km):
        assert build_listing_index({}, 1, km).table == {}
        assert build_trie_index({}, 1, km).root.children == {}

    def test_shared_variant_merges_records(self, km):
        index = build_listing_index({"cat": [b"F1"], "cot": [b"F2"]}, 1, km)
        bucket = index.table[trapdoor(km, "c*t")]
        decrypted = {decrypt_record(km, rec) for rec in bucket}
        assert decrypted == {(b"F1", "cat"), (b"F2", "cot")}

    def test_single_keyword_single_path(self, km):
        index = build_trie_index({"cat": [b"F1"]}, 0, km)
        node = index.root
        depth = 0
        while node.children:
            assert len(node.children) == 1
            assert not node.records
            node = next(iter(node.children.values()))
            depth += 1
        assert depth == 40 and node.records

    def test_leaf_count_matches_listing_entries(self, km):
        rng = random.Random(83)
        corpus = random_corpus(rng, size=60)
        listing = build_listing_index(corpus, 1, km)
        trie = build_trie_index(corpus, 1, km)
        assert sum(1 for _ in trie.leaves()) == len(listing.table)

    def test_every_leaf_at_full_depth(self, km):
        rng = random.Random(89)
        corpus = random_corpus(rng, size=40)
        trie = build_trie_index(corpus, 1, km)
        for path, leaf in trie.leaves():
            assert len(path) == trie.depth
            assert leaf.records and not leaf.children

    def test_builds_are_deterministic(self, km):
        rng = random.Random(97)
        corpus = random_corpus(rng, size=30)
        a = build_listing_index(corpus, 1, km)
        b = build_listing_index(corpus, 1, km)
        assert sorted(a.table.items()) == sorted(b.table.items())


def _prefix_map(index) -> dict[tuple[int, ...], set[int]]:
    """Reference trie: every symbol-prefix of a trapdoor in ``table``, mapped
    to the symbols that extend it (none at full depth)."""
    out: dict[tuple[int, ...], set[int]] = {(): set()}
    for t in index.table:
        path = symbolize(t, index.symbol_bits)
        for i in range(index.depth):
            out.setdefault(path[:i], set()).add(path[i])
        out.setdefault(path, set())
    return out


def _path_value(path: tuple[int, ...], n: int) -> int:
    value = 0
    for sym in path:
        value = (value << n) | sym
    return value


class TestTrieView:
    """``walk_trie``, ``children`` and ``leaves`` agree with the prefix set of
    ``table``'s trapdoors, on corpora of 0, 1, 7 and 60 keywords and on
    hand-picked trapdoors at the edges of the 160-bit space."""

    @pytest.fixture(scope="class", params=[0, 1, 7, 60, "edges"])
    def trie(self, request, km):
        if request.param == "edges":
            ends = (bytes(20), bytes(19) + b"\x01", b"\x7f" + b"\xff" * 19,
                    b"\x80" + bytes(19), b"\xff" * 19 + b"\xfe", b"\xff" * 20)
            table = {t: (t + bytes(8),) for t in ends}
            return TrieIndex(table, trapdoor_bits=160, symbol_bits=4, d=1, exact={ends[0]})
        corpus = random_corpus(random.Random(401 + request.param), size=request.param)
        return build_trie_index(corpus, 1, km)

    def test_walk_reaches_every_prefix(self, trie):
        n, root = trie.symbol_bits, trie.root
        for path in _prefix_map(trie):
            node = walk_trie(root, path)
            assert (node.depth, node.prefix) == (len(path), _path_value(path, n))
            mid = walk_trie(root, path[: len(path) // 2])
            again = walk_trie(mid, path[len(path) // 2 :])
            assert (again.depth, again.prefix) == (node.depth, node.prefix)

    def test_walk_misses_everything_else(self, trie):
        rng = random.Random(409)
        ref, root, top = _prefix_map(trie), trie.root, 1 << trie.symbol_bits
        paths = sorted(ref)
        assert walk_trie(root, ()) is not None  # the root exists, even in an empty index
        for path in rng.sample(paths, min(len(paths), 1500)):
            if path:  # perturbed last symbols
                for sym in range(top):
                    probe = path[:-1] + (sym,)
                    assert (walk_trie(root, probe) is None) == (probe not in ref)
            if len(path) == trie.depth:  # deeper than a leaf
                assert walk_trie(root, path + (0,)) is None
                assert walk_trie(walk_trie(root, path), (rng.randrange(top),)) is None
        for sym in range(top):
            assert (walk_trie(root, (sym,)) is None) == ((sym,) not in ref)

    def test_children_walk_from_the_root(self, trie):
        ref, n = _prefix_map(trie), trie.symbol_bits
        seen, stack = set(), [((), trie.root)]
        while stack:
            path, node = stack.pop()
            seen.add(path)
            children = node.children
            assert set(children) == ref[path]
            for sym, child in children.items():
                assert (child.depth, child.prefix) == (len(path) + 1, _path_value(path + (sym,), n))
                stack.append((path + (sym,), child))
            if len(path) == trie.depth:
                assert node.records == trie.table[node.trapdoor]
            else:
                assert node.trapdoor is None and node.records == ()
        assert seen == set(ref)

    def test_leaves_are_the_table_in_trie_order(self, trie):
        got = [(path, leaf.depth, leaf.trapdoor, leaf.records) for path, leaf in trie.leaves()]
        assert got == [
            (symbolize(t, trie.symbol_bits), trie.depth, t, trie.table[t]) for t in sorted(trie.table)
        ]

    def test_out_of_range_symbols_miss(self, km):
        trie = build_trie_index({"castle": [b"F1"]}, 0, km)
        path, top, root = next(trie.leaves())[0], 1 << trie.symbol_bits, trie.root
        assert walk_trie(root, path) is not None
        probes = [(-1,), (top,), path[:-1] + (path[-1] + top,), path[:-1] + (-1,)]
        # a zero, then a symbol holding two: the same integer as the real path
        probes += [
            path[: i - 1] + (0, path[i - 1] * top + path[i]) + path[i + 1 :]
            for i in range(1, trie.depth)
            if path[i - 1]
        ]
        assert len(probes) > 4
        first = walk_trie(root, path[:1])
        for probe in probes:
            assert walk_trie(root, probe) is None, probe
            if len(probe) > 1 and probe[0] == path[0]:  # the same probe from below the root
                assert walk_trie(first, probe[1:]) is None, probe


class TestRequest:
    def test_exact_bound_zero(self, km):
        req = make_request("cat", 0, km)
        assert req.trapdoors == (trapdoor(km, "cat"),)

    def test_cat_request_shape(self, km):
        req = make_request("cat", 1, km)
        assert len(req.trapdoors) == 8
        assert req.trapdoors[0] == trapdoor(km, "cat")
        rest = [trapdoor(km, v) for v in wildcard_fuzzy_set("cat", 1) if v != "cat"]
        assert list(req.trapdoors[1:]) == rest

    def test_castle_request_size(self, km):
        assert len(make_request("castle", 1, km).trapdoors) == 14

    def test_gram_method(self, km):
        req = make_request("cat", 1, km, method="gram")
        assert len(req.trapdoors) == 4
        assert req.trapdoors[0] == trapdoor(km, "cat")


class TestSearch:
    def test_exact_hit_short_circuits(self, km):
        corpus = {"cat": [b"F1"], "cap": [b"F9"]}
        trie = build_trie_index(corpus, 1, km)
        result = search_trie(trie, make_request("cat", 1, km))
        assert result.exact_hit
        assert {decrypt_record(km, r) for r in result.records} == {(b"F1", "cat")}

    def test_no_variant_in_index(self, km):
        trie = build_trie_index({"cat": [b"F1"]}, 1, km)
        result = search_trie(trie, make_request("zzz", 1, km))
        assert result.records == [] and not result.exact_hit

    def test_fuzzy_match_through_shared_variant(self, km):
        trie = build_trie_index({"cat": [b"F1"]}, 1, km)
        result = search_trie(trie, make_request("cot", 1, km))
        assert not result.exact_hit
        keywords = {decrypt_record(km, r)[1] for r in result.records}
        fids = {decrypt_record(km, r)[0] for r in result.records}
        assert keywords == {"cat"} and fids == {b"F1"}

    def test_edit_bound_enforced(self, km):
        trie = build_trie_index({"cat": [b"F1"]}, 1, km)
        listing = build_listing_index({"cat": [b"F1"]}, 1, km)
        req = make_request("cat", 2, km)
        with pytest.raises(EditBoundExceeded):
            search_trie(trie, req)
        with pytest.raises(EditBoundExceeded):
            search_listing(listing, req)

    def test_empty_listing(self, km):
        result = search_listing(build_listing_index({}, 1, km), make_request("cat", 1, km))
        assert result.records == []

    def test_trie_equals_listing_on_random_queries(self, km):
        rng = random.Random(101)
        corpus = random_corpus(rng, size=100)
        trie = build_trie_index(corpus, 1, km)
        listing = build_listing_index(corpus, 1, km)
        words = sorted(corpus)
        for _ in range(200):
            base = rng.choice(words)
            query = base if rng.random() < 0.3 else mutate(base, rng)
            if not query:
                continue
            k = rng.choice((0, 1))
            req = make_request(query, k, km)
            a = search_trie(trie, req)
            b = search_listing(listing, req)
            assert a.exact_hit == b.exact_hit
            assert a.records == b.records

    def test_results_match_enumeration_oracle(self, km):
        # fuzzy results = exact distance-1 ball, with the exact-match rule on top
        rng = random.Random(103)
        corpus = random_corpus(rng, size=80, lo=3, hi=7)
        trie = build_trie_index(corpus, 1, km)
        words = sorted(corpus)
        for _ in range(150):
            base = rng.choice(words)
            query = base if rng.random() < 0.25 else mutate(base, rng)
            if not query:
                continue
            result = search_trie(trie, make_request(query, 1, km))
            got = {decrypt_record(km, r)[1] for r in result.records}
            if query in corpus:
                expected = {query}
                assert result.exact_hit
            else:
                ball = set(enumeration_fuzzy_set(query, 1))
                expected = ball & set(words)
            assert got == expected, query
            for keyword in got:
                assert edit_distance(query, keyword) <= 1

    def test_gram_variant_collision_does_not_fake_an_exact_hit(self, km):
        # "ca" is a deletion variant of "cat" but not an indexed keyword: the
        # query must fall through to the fuzzy walk and find the whole ball
        corpus = {"cat": [b"F1"], "ba": [b"F2"]}
        for build, search in (
            (build_trie_index, search_trie),
            (build_listing_index, search_listing),
        ):
            index = build(corpus, 1, km, method="gram")
            result = search(index, make_request("ca", 1, km, method="gram"))
            assert not result.exact_hit
            keywords = {decrypt_record(km, r)[1] for r in result.records}
            assert keywords == {"cat", "ba"}  # both are within one edit of "ca"
            exact = search(index, make_request("cat", 1, km, method="gram"))
            assert exact.exact_hit
            assert {decrypt_record(km, r)[1] for r in exact.records} == {"cat"}

    def test_dedup_by_ciphertext(self, km):
        corpus = {"cat": [b"F1", b"F1", b"F2"]}
        trie = build_trie_index(corpus, 1, km)
        result = search_trie(trie, make_request("cut", 1, km))
        assert len(result.records) == len(set(result.records))
        assert {decrypt_record(km, r)[0] for r in result.records} == {b"F1", b"F2"}


GOLDEN_BUILDERS = {"listing": build_listing_index, "trie": build_trie_index, "auth": build_auth_trie}

# sha256 of dumps_index on the golden corpus; pins the FZIX v3 bytes of every kind.
GOLDEN_FZIX = {
    ("auth", "wildcard"): "7610efc408476b7c6c577b155a918e02dc4993d7fa3d31bc32ecb9c6666e2c5b",
    ("auth", "gram"): "5b0b86780d4308fef0b9671d65bc54d49cf79ba01894f0e89754233e2a2a0e56",
    ("listing", "wildcard"): "86c4fb5ce80258fb2d144626df80fc4aaa2852ca24aff15aad2dc5d9b01b9ac1",
    ("listing", "gram"): "3710ffacff77839ceef5ad6bf45db9cfbf63f484c242dd0079778fb8cd56353b",
    ("trie", "wildcard"): "56460545495e5ecfa8ea9cef2acc88d5d54bfb83abe7a677a95df706005ccd53",
    ("trie", "gram"): "1ff4c4691437d46876e14942dee6e3a9cc229b28bf3a35cead64c6b037d15f64",
}

# sha256 over the encoded proofs, exact flags and record blobs of the golden
# requests against the authenticated trie.
GOLDEN_PROOFS = {
    "wildcard": "71f71dbe66f617d538d4019decb65a1e2147421415e87b9c881f01fae10faeab",
    "gram": "a99d0935cc2bfbec4f1f68c5f8f308f1eb217f5b0f33117788f29b8abec83e84",
}


@pytest.fixture(scope="module")
def golden():
    km = keygen(128, seed=b"golden-fzix")
    rng = random.Random(2012)
    corpus = random_corpus(rng, size=50, lo=3, hi=7)
    for i, word in enumerate(sorted(corpus)):
        if i % 3 == 0:
            corpus[word].append(b"shared")
    return km, corpus


def _golden_requests(km, corpus, method):
    rng = random.Random(2013)
    words = sorted(corpus)
    reqs = []
    while len(reqs) < 40:
        base = rng.choice(words)
        query = base if rng.random() < 0.3 else mutate(base, rng)
        if method == "gram" and len(query) < 2:
            continue
        reqs.append(make_request(query, rng.choice((0, 1)), km, method))
    return reqs


@pytest.mark.parametrize("kind", sorted(GOLDEN_BUILDERS))
@pytest.mark.parametrize("method", ["wildcard", "gram"])
def test_fzix_bytes_match_golden(golden, kind, method):
    km, corpus = golden
    blob = dumps_index(GOLDEN_BUILDERS[kind](corpus, 1, km, method))
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_FZIX[kind, method]


@pytest.mark.parametrize("method", ["wildcard", "gram"])
def test_proofs_and_records_match_golden(golden, method):
    km, corpus = golden
    index = build_auth_trie(corpus, 1, km, method)
    digest = hashlib.sha256()
    for req in _golden_requests(km, corpus, method):
        result, proofs = search_with_proof(index, req)
        for proof in proofs:
            digest.update(encode_proof(proof))
        digest.update(bytes([result.exact_hit]))
        for rec in result.records:
            digest.update(rec)
    assert digest.hexdigest() == GOLDEN_PROOFS[method]


DATA = Path(__file__).parent / "data"
HEADER_BYTES = 18


def _split_fzix(blob: bytes, width: int = 20) -> tuple[bytes, list[bytes], bytes]:
    """A v3 file as (header, entries, what follows the entries), each entry whole."""
    pos, entries = HEADER_BYTES, []
    for _ in range(int.from_bytes(blob[10:HEADER_BYTES], "big")):
        start, count = pos, int.from_bytes(blob[pos + width + 1 : pos + width + 3], "big")
        pos += width + 3
        for _ in range(count):
            pos += 4 + int.from_bytes(blob[pos : pos + 4], "big")
        entries.append(blob[start:pos])
    return blob[:HEADER_BYTES], entries, blob[pos:]


def _join_fzix(header: bytes, entries: list[bytes], sections: bytes, count: int | None = None) -> bytes:
    count = len(entries) if count is None else count
    return header[:10] + count.to_bytes(8, "big") + b"".join(entries) + sections


@pytest.fixture(scope="module")
def small_files(km):
    """v3 files of every kind and method over one small corpus."""
    corpus = {"cat": [b"F1"], "dog": [b"F2", b"F3"], "cart": [b"F4"]}
    return {
        (kind, method): dumps_index(GOLDEN_BUILDERS[kind](corpus, 1, km, method))
        for kind in GOLDEN_BUILDERS
        for method in ("wildcard", "gram")
    }


@pytest.mark.parametrize("kind", sorted(GOLDEN_BUILDERS))
def test_entry_order_flags_and_counts_are_checked(small_files, kind):
    header, entries, sections = _split_fzix(small_files[kind, "wildcard"])
    assert _join_fzix(header, entries, sections) == small_files[kind, "wildcard"]
    swapped = entries[:3] + [entries[4], entries[3]] + entries[5:]
    duplicated = entries[:4] + [entries[3]] + entries[5:]  # same count, one trapdoor twice
    for body in (swapped, duplicated):
        with pytest.raises(BadParameter, match="strictly ascending"):
            loads_index(_join_fzix(header, body, sections))
    empty = entries[:2] + [entries[2][:21] + b"\x00\x00"] + entries[3:]
    with pytest.raises(BadParameter, match="no records"):
        loads_index(_join_fzix(header, empty, sections))
    for flag in (0x02, 0x81):
        flagged = entries[:2] + [entries[2][:20] + bytes([flag]) + entries[2][21:]] + entries[3:]
        with pytest.raises(BadParameter, match="unknown entry flags"):
            loads_index(_join_fzix(header, flagged, sections))
    # an auth file reads its sections as one entry more or its last entry as sections
    for count in (len(entries) - 1, len(entries) + 1):
        with pytest.raises(FzError if kind == "auth" else Truncated):
            loads_index(_join_fzix(header, entries, sections, count))


def test_auth_sections_must_be_exact(small_files, km):
    blob = small_files["auth", "wildcard"]
    index = loads_index(blob)
    header, entries, sections = _split_fzix(blob)
    leaves_len = len(entries) * TAG_BYTES
    assert len(sections) == leaves_len + (len(entries) + 1) * TAG_BYTES
    assert sections == index.tags
    leaves, gaps = sections[:leaves_len], sections[leaves_len:]
    for bad in (leaves[:-1] + gaps, leaves + b"\x00" + gaps, leaves + gaps[:-1], leaves + gaps + b"\x00",
                leaves + gaps[:-TAG_BYTES], leaves, gaps, b""):
        with pytest.raises(Truncated, match="follow the auth_trie entries"):
            loads_index(_join_fzix(header, entries, bad))


@pytest.mark.parametrize("kind", ["trie", "auth"])
def test_v1_index_files_are_refused(kind):
    """Files written by the FZIX v1 writer (a pre-order node stream)."""
    blob = (DATA / f"v1_{kind}.fzix").read_bytes()
    assert blob[:5] == b"FZIX\x01"
    with pytest.raises(VersionUnsupported, match="FZIX version 1"):
        loads_index(blob)


def test_v2_auth_file_is_refused():
    """A file written by the FZIX v2 writer: per-node chain digests, then leaf tags."""
    blob = (DATA / "v2_auth.fzix").read_bytes()
    assert blob[:6] == b"FZIX\x02\x03"
    with pytest.raises(VersionUnsupported, match="FZIX version 2 not supported"):
        loads_index(blob)


def test_only_the_index_version_moved(km):
    assert dumps_index(build_listing_index({"cat": [b"F1"]}, 0, km))[4] == 3
    assert dumps_keys(km)[4] == 1
    assert dumps_directory(UserDirectory(current_xi=km.blind_key))[4] == 1


def _mutants(blob: bytes, rng: random.Random):
    """Byte flips, cuts at every section boundary, reordered, doubled and
    recounted entries, and records cut short, of one v3 file."""
    header, entries, sections = _split_fzix(blob)
    for _ in range(150):
        flipped = bytearray(blob)
        flipped[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
        yield bytes(flipped)
    bounds = {HEADER_BYTES, len(blob) - len(sections), len(blob)}
    pos = HEADER_BYTES
    for entry in entries:
        pos += len(entry)
        bounds.add(pos)
    if sections:
        bounds.add(len(blob) - (len(entries) + 1) * TAG_BYTES)  # leaf tags | gap tags
    for cut in sorted(bounds):
        for delta in (-1, 0, 1):
            yield blob[: cut + delta]
    for i in range(len(entries) - 1):
        yield _join_fzix(header, entries[:i] + [entries[i + 1], entries[i]] + entries[i + 2 :], sections)
    i = rng.randrange(len(entries))
    for count in (None, len(entries)):
        yield _join_fzix(header, entries[: i + 1] + entries[i:], sections, count)
    for count in (0, len(entries) - 1, len(entries) + 1, rng.randrange(1 << 64)):
        yield _join_fzix(header, entries, sections, count)
    # one record cut below (and to) the 28 bytes of a nonce and a tag, its length
    # prefix fixed up: the last record of a middle entry and of the first entry
    # holding several
    several = [i for i, entry in enumerate(entries) if int.from_bytes(entry[21:23], "big") > 1]
    for i in sorted({len(entries) // 2, *several[:1]}):
        records = _entry_records(entries[i])
        for size in (0, 12, 27, 28):
            shrunk = records[:-1] + [records[-1][:size]]
            entry = entries[i][:23] + b"".join(len(r).to_bytes(4, "big") + r for r in shrunk)
            yield _join_fzix(header, entries[:i] + [entry] + entries[i + 1 :], sections)


def _entry_records(entry: bytes, width: int = 20) -> list[bytes]:
    pos, records = width + 3, []
    while pos < len(entry):
        end = pos + 4 + int.from_bytes(entry[pos : pos + 4], "big")
        records.append(entry[pos + 4 : end])
        pos = end
    return records


def test_damaged_files_fail_or_load_canonically(small_files):
    """A file either raises FzError or loads to an index that dumps back to it."""
    rng = random.Random(2024)
    outcomes = {"rejected": 0, "canonical": 0}
    for key in sorted(small_files):
        for mutant in _mutants(small_files[key], rng):
            try:
                index = loads_index(mutant)
            except FzError:
                outcomes["rejected"] += 1
                continue
            assert dumps_index(index) == mutant, key
            outcomes["canonical"] += 1
    assert outcomes["rejected"] and outcomes["canonical"]


def _reference_load(data: bytes):
    """FZIX v3 read one entry and one record at a time, as the reader did
    before it unpacked each entry's head with one struct call: (map of record
    tuples, exact set, tags).  Every damage raises FzError, checked in file order."""
    if len(data) < HEADER_BYTES:
        raise Truncated("header ends early")
    if data[:4] != b"FZIX" or data[4] != 3:
        raise VersionUnsupported("not an FZIX v3 file")
    flags, symbol_bits, d = data[5], data[6], data[9]
    trapdoor_bits, count = int.from_bytes(data[7:9], "big"), int.from_bytes(data[10:18], "big")
    if flags & ~0x07 or flags & 0x02 and not flags & 0x01:
        raise BadParameter("flags")
    check_geometry(trapdoor_bits, symbol_bits)
    width, size, pos = trapdoor_bits // 8, len(data), HEADER_BYTES
    table, exact, prev = {}, set(), b""
    for _ in range(count):
        head = pos + width + 3
        if head > size:
            raise Truncated("entry ends early")
        t = data[pos : pos + width]
        if t <= prev:
            raise BadParameter("trapdoors are not strictly ascending")
        flag = data[head - 3]
        if flag > 1:
            raise BadParameter("unknown entry flags")
        n = int.from_bytes(data[head - 2 : head], "big")
        if not n:
            raise BadParameter("no records")
        pos, records = head, []
        for _ in range(n):
            start = pos + 4
            pos = start + int.from_bytes(data[pos:start], "big")
            if pos > size:
                raise Truncated("a record ends early")
            if pos - start < 28:
                raise AuthFailure("record blob too short")
            records.append(data[start:pos])
        table[t] = tuple(records)
        if flag:
            exact.add(t)
        prev = t
    tags_len = (2 * len(table) + 1) * TAG_BYTES if flags & 0x02 else 0
    if size - pos != tags_len:
        raise Truncated("the sections have the wrong length")
    return table, exact, data[pos:]


@pytest.fixture(scope="module")
def larger_files(km):
    """A 200-keyword gram listing and auth file; every tenth keyword names two files.

    Short words share deletion variants, so many entries hold several records.
    """
    corpus = random_corpus(random.Random(151), size=200, lo=3, hi=4)
    for i, word in enumerate(sorted(corpus)):
        if i % 10 == 0:
            corpus[word].append(b"g%04d" % i)
    return {(kind, "gram", 200): dumps_index(GOLDEN_BUILDERS[kind](corpus, 1, km, "gram")) for kind in ("listing", "auth")}


def test_reader_matches_the_reference_loop(small_files, larger_files):
    """On every damaged file both readers raise FzError, or both read the same
    entries, exact set and tags.  Which check fires first may differ: the
    reader checks the trapdoor order after the last entry."""
    rng = random.Random(2026)
    outcomes = {"rejected": 0, "short": 0, "loaded": 0}
    files = [*sorted(small_files.items()), *sorted(larger_files.items())]
    for key, blob in files:
        for mutant in _mutants(blob, rng):
            try:
                expected = _reference_load(mutant)
            except AuthFailure:
                expected = None
                outcomes["short"] += 1
            except FzError:
                expected = None
            try:
                index = loads_index(mutant)
            except FzError:
                assert expected is None, key
                outcomes["rejected"] += 1
                continue
            assert expected == (index.table, index.exact, getattr(index, "tags", b"")), key
            outcomes["loaded"] += 1
    assert outcomes["short"] >= 3 * len(files) and outcomes["loaded"]
