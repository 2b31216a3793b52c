import hashlib
import random

import pytest

from conftest import mutate, random_corpus, random_word
from fzsearch import (
    BadParameter,
    EditBoundExceeded,
    Truncated,
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
from fzsearch.persist import dumps_index, loads_index
from fzsearch.verifiable import encode_proof


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
        assert [(t, [r.blob for r in recs]) for t, recs in sorted(a.table.items())] == [
            (t, [r.blob for r in recs]) for t, recs in sorted(b.table.items())
        ]


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
            assert [r.blob for r in a.records] == [r.blob for r in b.records]

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
                ball = set(enumeration_fuzzy_set(query, 1).variants)
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
        blobs = [r.blob for r in result.records]
        assert len(blobs) == len(set(blobs))
        assert {decrypt_record(km, r)[0] for r in result.records} == {b"F1", b"F2"}


GOLDEN_BUILDERS = {"listing": build_listing_index, "trie": build_trie_index, "auth": build_auth_trie}

# sha256 of dumps_index on the golden corpus; pins the FZIX v1 bytes of every kind.
GOLDEN_FZIX = {
    ("auth", "wildcard"): "bbc72deaa7199f3da5940134f76567d3d2f1fd73f8b07fc2f83322f3e35205dc",
    ("auth", "gram"): "228f1355a4f1e587791c006c980303917660a9a0cac9a7319858e98ec3565111",
    ("listing", "wildcard"): "ad8eb140570d0104936fe42ec93534939c770a72ef370db5dd063e593f0f548f",
    ("listing", "gram"): "60a60e14b80ed726f31ed13407a5664702e27b712250acdc88954263549f0ff9",
    ("trie", "wildcard"): "9ace40aa6b4988415a20647138426bf27bd87661852f46bf81164eece3480365",
    ("trie", "gram"): "66d5b3bbe5c54a2abf9e4d9f462b8fe08ae8a4cf85c75fb312d295932f45c1e7",
}

# sha256 over the encoded proofs, exact flags and record blobs of the golden
# requests against the authenticated trie.
GOLDEN_PROOFS = {
    "wildcard": "83ee02e0e3c14fcb5231cf8b183222248cfbc4f78d06fcd6cb023e6c24c447c5",
    "gram": "e5c4e2cd1f9f99e139bde0415aa675c684dc827e815dfc688a5cae1373f85433",
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
            digest.update(rec.blob)
    assert digest.hexdigest() == GOLDEN_PROOFS[method]


def _trie_file(count: int, body: bytes) -> bytes:
    """FZIX v1 header of a plain wildcard trie (4-bit symbols, 160-bit trapdoors, d=1)."""
    return b"FZIX" + bytes([1, 0x01, 4]) + (160).to_bytes(2, "big") + bytes([1]) + (
        count.to_bytes(8, "big")
    ) + body


def _inner(sym: int) -> bytes:
    """Symbol byte, then a node with no records and one child."""
    return bytes([sym]) + b"\x00" + b"\x00\x00" + b"\x00\x01"


def test_trie_records_off_full_depth_rejected(km):
    blob = build_listing_index({"cat": [b"F1"]}, 0, km).table[trapdoor(km, "cat")][0].blob
    records = b"\x00\x01" + len(blob).to_bytes(4, "big") + blob
    root = b"\x00" + b"\x00\x00" + b"\x00\x01"
    depth3 = bytes([3]) + b"\x01" + records + b"\x00\x00"
    with pytest.raises(BadParameter, match="depth 3"):
        loads_index(_trie_file(1, root + _inner(1) + _inner(2) + depth3))


def test_trie_entry_count_must_match_header(km):
    blob = dumps_index(build_trie_index({"cat": [b"F1"], "dog": [b"F2"]}, 1, km))
    assert len(loads_index(blob).table) == 16
    for count in (15, 17):
        with pytest.raises(Truncated, match="entry count"):
            loads_index(blob[:11] + count.to_bytes(8, "big") + blob[19:])
