import hashlib
import random
import tracemalloc
from pathlib import Path

import pytest

from conftest import (
    BUILDS,
    enumeration_fuzzy_set,
    index_from_entries,
    mutate,
    random_corpus,
    random_word,
    reference_build_entries,
    reference_loads_directory,
    reference_loads_keys,
    reference_read_fzix,
    refusal,
    synth_corpus,
)
from fzsearch import (
    AuthFailure,
    BadMagic,
    BadParameter,
    EditBoundExceeded,
    FzError,
    ListingIndex,
    TrieIndex,
    Truncated,
    UserDirectory,
    VersionUnsupported,
    build_auth_trie,
    build_listing_index,
    build_trie_index,
    decrypt_matches,
    decrypt_record,
    edit_distance,
    fuzzy_set,
    keygen,
    make_request,
    search_listing,
    search_trie,
    search_with_proof,
    symbolize,
    trapdoor,
    wildcard_fuzzy_set,
)
from fzsearch.crypto import DEPTH, _hmac_pads
from fzsearch.index import build_entries, walk_trie
from fzsearch.persist import (
    dumps_directory,
    dumps_index,
    dumps_keys,
    loads_directory,
    loads_index,
    loads_keys,
)
from fzsearch.verifiable import TAG_BYTES, encode_proof, tags_bytes, verify


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
                value = 0
                for sym in symbolize(t, n):
                    value = value << n | sym
                assert value.to_bytes(len(t), "big") == t


class TestBuild:
    def test_single_keyword_entry_count(self, km):
        index = build_listing_index({"cat": [b"F1"]}, 1, km)
        assert len(index.table) == 8  # |wildcard set of "cat"|

    def test_empty_corpus(self, km):
        assert build_listing_index({}, 1, km).table == {}
        assert build_trie_index({}, 1, km).root.children == {}

    def test_shared_variant_merges_records(self, km):
        index = build_listing_index({"cat": [b"F1"], "cot": [b"F2"]}, 1, km)
        bucket = index.records(trapdoor(km, "c*t"))
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
        leaves = [walk_trie(trie.root, symbolize(t, trie.symbol_bits)) for t in trie.ordered]
        assert len(leaves) == len(listing.table) and None not in leaves

    def test_record_length_reveals_the_keyword_length(self, km):
        """A documented leak: every record is 19 + len(fid) + len(keyword)
        bytes (the 16-byte synthetic IV, the 2-byte copy index and the fid's length byte)."""
        castle = build_listing_index({"castle": [b"doc-1"]}, 1, km)
        assert {len(record) for t in castle.table for record in castle.records(t)} == {30}
        rng = random.Random(89)
        corpus = {random_word(rng, 1, 12): [rng.randbytes(rng.randint(1, 64)) for _ in range(2)] for _ in range(60)}
        index = build_listing_index(corpus, 1, km)
        for t in index.table:
            for record in index.records(t):
                fid, keyword = decrypt_record(km, record)
                assert fid in corpus[keyword]
                assert len(record) == 19 + len(fid) + len(keyword)

    @pytest.mark.parametrize("method", ["wildcard", "gram"])
    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_one_pass_build_equals_the_per_record_oracle(self, km, method, d):
        rng = random.Random(f"one-pass/{method}/{d}")
        for _ in range(3):
            corpus = _shared_corpus(rng)
            built = build_entries(corpus, d, km, method)
            assert built == reference_build_entries(corpus, d, km, method)
            if d:  # some keywords share a variant's entry
                assert len(built[0]) < sum(len(fuzzy_set(word, d, method)) for word, fids in corpus.items() if fids)

    @pytest.mark.parametrize("fids", [[b""], [b"F1", bytes(65)], [b"F1", b"F1", b""]])
    def test_a_bad_fid_is_a_parameter_error(self, km, fids):
        for build in (build_listing_index, build_trie_index, build_auth_trie):
            with pytest.raises(BadParameter, match="fid must be 1..64 bytes"):
                build({"cat": [b"F0"], "dog": fids}, 1, km)

    @pytest.mark.parametrize("word", ["café", "Castle", "", "a b", "a*b"])
    def test_a_keyword_that_is_not_normalized_is_a_parameter_error(self, km, word):
        """Every build and request refuses a word ``normalize_keyword`` would change.  Unchecked,
        ``café`` raised ``UnicodeEncodeError``, and ``a*b`` was found by a search for ``ab``:
        it is one of ``ab``'s wildcard variants."""
        for build in (build_listing_index, build_trie_index, build_auth_trie):
            with pytest.raises(BadParameter, match="is not normalized"):
                build({"cat": [b"F0"], word: [b"F1"]}, 1, km)
        for method in ("wildcard", "gram"):
            with pytest.raises(BadParameter, match="is not normalized"):
                make_request(word, 1, km, method)

    def test_one_pad_lookup_per_key_per_build(self, km):
        """A build looks up the HMAC pad states once per key, and the tags once
        more: a build that keys each trapdoor, nonce or tag on its own does one per PRF."""
        rng = random.Random(113)
        corpus = {word: [b"F1", b"F2", b"F3"] for word in random_corpus(rng, size=30)}
        for build, extra in ((build_listing_index, 0), (build_trie_index, 0), (build_auth_trie, 1)):
            before = _hmac_pads.cache_info()
            index = build(corpus, 1, km)
            after = _hmac_pads.cache_info()
            lookups = after.hits + after.misses - before.hits - before.misses
            assert lookups <= 2 + extra < len(corpus), build


def _shared_corpus(rng: random.Random) -> dict[str, list[bytes]]:
    """Keywords of 3-7 letters over four letters, so that many share variants,
    each with 0-3 fids drawn from a pool of six, so that fids repeat; one keyword
    has no fids, one holds the same fid twice and shares variants with the next."""
    pool = [rng.randbytes(rng.randint(1, 64)) for _ in range(6)]
    corpus = {
        "".join(rng.choice("abcd") for _ in range(rng.randint(3, 7))): [rng.choice(pool) for _ in range(rng.randint(0, 3))]
        for _ in range(20)
    }
    corpus["dcba"], corpus["abcab"], corpus["abcbb"] = [], [pool[0], pool[1], pool[0]], [pool[2]]
    return corpus


def _prefix_map(index) -> dict[tuple[int, ...], set[int]]:
    """Reference trie: every symbol-prefix of a trapdoor in ``table``, mapped
    to the symbols that extend it (none at full depth)."""
    out: dict[tuple[int, ...], set[int]] = {(): set()}
    for t in index.table:
        path = symbolize(t, index.symbol_bits)
        for i in range(DEPTH):
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
            entries = {t: (t + bytes(8),) for t in ends}
            return index_from_entries(TrieIndex, entries, d=1, exact={ends[0]})
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
            if len(path) == DEPTH:  # deeper than a leaf
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
            if len(path) == DEPTH:
                assert node.records == trie.records(node.trapdoor)
            else:
                assert node.trapdoor is None and node.records == ()
        assert seen == set(ref)

    def test_leaves_are_the_table_in_trie_order(self, trie):
        got = []
        for t in trie.ordered:
            path = symbolize(t, trie.symbol_bits)
            leaf = walk_trie(trie.root, path)
            got.append((path, leaf.depth, leaf.trapdoor, leaf.records, leaf.children))
        assert got == [
            (symbolize(t, trie.symbol_bits), DEPTH, t, trie.records(t), {}) for t in sorted(trie.table)
        ]

    def test_out_of_range_symbols_miss(self, km):
        trie = build_trie_index({"castle": [b"F1"]}, 0, km)
        path, top, root = symbolize(trie.ordered[0], trie.symbol_bits), 1 << trie.symbol_bits, trie.root
        assert walk_trie(root, path) is not None
        probes = [(-1,), (top,), path[:-1] + (path[-1] + top,), path[:-1] + (-1,)]
        # a zero, then a symbol holding two: the same integer as the real path
        probes += [
            path[: i - 1] + (0, path[i - 1] * top + path[i]) + path[i + 1 :]
            for i in range(1, DEPTH)
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

    @pytest.mark.parametrize("method", ["wildcard", "gram"])
    def test_negative_edit_bound_rejected(self, km, method):
        with pytest.raises(BadParameter, match="edit bound must be >= 0"):
            make_request("castle", -1, km, method)

    def test_request_length_reveals_the_query_length(self, km):
        """A documented leak: a wildcard request at k = 1 holds exactly 2l + 2
        trapdoors for a query of l letters, and a gram request at most l + 1."""
        sizes = [len(make_request(w, 1, km, m).trapdoors) for w in ("castle", "aaa") for m in ("wildcard", "gram")]
        assert sizes == [14, 7, 8, 2]
        rng = random.Random(83)
        for word in [random_word(rng, 2, 12) for _ in range(100)]:
            assert len(make_request(word, 1, km).trapdoors) == 2 * len(word) + 2
            assert len(make_request(word, 1, km, "gram").trapdoors) <= len(word) + 1


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


class TestDecryptMatches:
    def test_gram_false_positives_are_dropped(self, km):
        # "act" shares the deletion variants "at" and "ct" with "cat" but is two edits away
        corpus = {"act": [b"F1"], "bat": [b"F2"], "cart": [b"F3"], "dog": [b"F4"]}
        for build in (build_listing_index, build_trie_index, build_auth_trie):
            result = search_listing(build(corpus, 1, km, "gram"), make_request("cat", 1, km, "gram"))
            assert {decrypt_record(km, r)[1] for r in result.records} == {"act", "bat", "cart"}
            assert sorted(decrypt_matches(km, "cat", 1, result)) == [(b"F2", "bat"), (b"F3", "cart")]

    def test_a_forged_record_fails_even_when_it_would_be_dropped(self, km):
        corpus = {"act": [b"F1"], "bat": [b"F2"]}
        result = search_listing(build_listing_index(corpus, 1, km, "gram"), make_request("cat", 1, km, "gram"))
        far = next(i for i, r in enumerate(result.records) if decrypt_record(km, r)[1] == "act")
        result.records[far] = result.records[far][:-1] + bytes([result.records[far][-1] ^ 1])
        with pytest.raises(AuthFailure):
            decrypt_matches(km, "cat", 1, result)

    def test_a_gram_exact_hit_keeps_only_the_keyword_itself(self, km):
        """The gram entry of "cat" also holds "cart" and "cast", one deletion away."""
        corpus = {"cat": [b"F1"], "cart": [b"F2"], "cast": [b"F3"], "at": [b"F4"]}
        req = make_request("cat", 1, km, "gram")
        for build in (build_listing_index, build_trie_index, build_auth_trie):
            index = build(corpus, 1, km, "gram")
            results = [search_listing(index, req)]
            if index.tags:
                result, proofs = search_with_proof(index, req)
                assert verify(req, result, proofs, km).accepted
                results.append(result)
            for result in results:
                assert result.exact_hit
                assert {decrypt_record(km, r)[1] for r in result.records} == {"cat", "cart", "cast"}
                assert decrypt_matches(km, "cat", 1, result) == [(b"F1", "cat")]

    def test_matches_are_exactly_the_keywords_within_k(self, km):
        rng = random.Random(341)
        corpus = random_corpus(rng, size=60, lo=3, hi=6)
        words = sorted(corpus)
        for method in ("gram", "wildcard"):
            index = build_trie_index(corpus, 1, km, method)
            for query in [mutate(rng.choice(words), rng) for _ in range(40)]:
                result = search_listing(index, make_request(query, 1, km, method))
                got = decrypt_matches(km, query, 1, result)
                if result.exact_hit:  # an exact hit returns the keyword's own records only
                    assert {kw for _, kw in got} == {query}
                else:
                    assert {kw for _, kw in got} == {w for w in words if edit_distance(query, w) <= 1}, query


# sha256 of dumps_index on the golden corpus; pins the FZIX v5 bytes of every kind.
GOLDEN_FZIX = {
    ("auth", "wildcard"): "f02b24ff213278a0222aa2765a5c2c8f1b2e713617d749a3ec6c14891dcf6465",
    ("auth", "gram"): "ad4d6287b8a900ffa30ee6600d1e2973d01b387d4a33909b2ab972bdf3b5b3d2",
    ("listing", "wildcard"): "d0b7c881f4b3ef6748fb877c85f6e99205b0837f220de1a22087b0e91f56b2ae",
    ("listing", "gram"): "c7d20aae597bf0282f866d998132a44709650f22bcef4b04386467e700998e2c",
    ("trie", "wildcard"): "ccb8a5a6f09b8bccc8bd2382c04cfd0bde657c82769b99419519628b4dbc6585",
    ("trie", "gram"): "bf96bee0e074268da3fd3281d809a1a5443ee8ab8043e97d04f46ec71873db74",
}

# sha256 over the encoded proofs (protocol 5), exact flags and record blobs of
# the golden requests against the authenticated trie.
GOLDEN_PROOFS = {
    "wildcard": "79d84444e817bc2c018038610591edc840588c4e943ffb643bc7f776a52862b8",
    "gram": "b43a47b1845eef0a0a7b66d6dc7f0f7acfeaee8df1cbb652efba1e28a431385e",
}

# sha256 of dumps_keys(keygen(security_bits, seed=b"golden-fzky")); pins the FZKY v1 bytes.
GOLDEN_FZKY = {
    128: "9c68d0192c7bb87d4f83c84de0477deead44209851eea6ca7f09fa71267927b3",
    256: "e2b26fc7654791f03ca53d44a79c5b92456d75eb2b108d63c233f7b2c4e9fbfb",
}

# sha256 of dumps_directory on fixed wrapped blobs (wrap_blind_key draws a
# random nonce); pins the FZUD v1 bytes.
GOLDEN_FZUD_DIRECTORIES = {
    "two-users": lambda: UserDirectory(
        current_xi=b"", epoch=7, wrapped={"zoë": bytes(range(100, 144)), "alice": bytes(range(40))}
    ),
    "empty": lambda: UserDirectory(current_xi=b""),
}
GOLDEN_FZUD = {
    "two-users": "4652e4d12c5388f1a59c2fdcd38a6a7802a230832a2a8ebfa1fdfb326ae41079",
    "empty": "0034b1ac5da73bc9d74479344de6e2ce20cbf77a35e82a6120b34e009d1b4d78",
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
        reqs.append(make_request(query, rng.choice((0, 1)), km, method))
    return reqs


@pytest.mark.parametrize("kind", sorted(BUILDS))
@pytest.mark.parametrize("method", ["wildcard", "gram"])
def test_fzix_bytes_match_golden(golden, kind, method):
    km, corpus = golden
    blob = dumps_index(BUILDS[kind](corpus, 1, km, method))
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_FZIX[kind, method]


@pytest.mark.parametrize("method", ["wildcard", "gram"])
def test_proofs_and_records_match_golden(golden, method):
    km, corpus = golden
    index = build_auth_trie(corpus, 1, km, method)
    digest = hashlib.sha256()
    for req in _golden_requests(km, corpus, method):
        result, proofs = search_with_proof(index, req)
        assert len(proofs) == (1 if result.exact_hit else len(req.trapdoors))
        for proof in proofs:
            digest.update(encode_proof(proof))
        digest.update(bytes([result.exact_hit]))
        for rec in result.records:
            digest.update(rec)
    assert digest.hexdigest() == GOLDEN_PROOFS[method]


@pytest.mark.parametrize("security_bits", sorted(GOLDEN_FZKY))
def test_fzky_bytes_match_golden(security_bits):
    blob = dumps_keys(keygen(security_bits, seed=b"golden-fzky"))
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_FZKY[security_bits]


@pytest.mark.parametrize("name", sorted(GOLDEN_FZUD))
def test_fzud_bytes_match_golden(name):
    blob = dumps_directory(GOLDEN_FZUD_DIRECTORIES[name]())
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_FZUD[name]


DATA = Path(__file__).parent / "data"
HEADER_BYTES = 18


def _fzix_parts(blob: bytes) -> tuple[bytes, list[bytes], bytes]:
    """An undamaged v4 file as (header, entries, what follows the entries), each
    entry whole, at the bounds ``reference_read_fzix`` reads."""
    ref = reference_read_fzix(blob)
    body, bounds = blob[HEADER_BYTES:], [*ref.table.values(), ref.end]
    return blob[:HEADER_BYTES], [body[a:b] for a, b in zip(bounds, bounds[1:])], ref.tags


def _join_fzix(header: bytes, entries: list[bytes], sections: bytes, count: int | None = None) -> bytes:
    count = len(entries) if count is None else count
    return header[:10] + count.to_bytes(8, "big") + b"".join(entries) + sections


@pytest.fixture(scope="module")
def small_files(km):
    """v4 files of every kind and method over one small corpus."""
    corpus = {"cat": [b"F1"], "dog": [b"F2", b"F3"], "cart": [b"F4"]}
    return {
        (kind, method): dumps_index(BUILDS[kind](corpus, 1, km, method))
        for kind in BUILDS
        for method in ("wildcard", "gram")
    }


@pytest.mark.parametrize("kind", sorted(BUILDS))
def test_entry_order_flags_and_counts_are_checked(small_files, kind):
    header, entries, sections = _fzix_parts(small_files[kind, "wildcard"])
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


def _same_read(blob: bytes):
    """``(loads_index(blob), reference_read_fzix(blob))``, each a refusal's class and
    message if it refuses; asserted to be the same refusal, or the same entry offsets,
    exact set, end of the entries and tags."""
    got, ref = refusal(loads_index, blob), refusal(reference_read_fzix, blob)
    if isinstance(got, tuple) or isinstance(ref[0], type):
        assert got == ref
    else:
        assert (got.table, got.exact, len(got.body), got.tags) == (ref.table, ref.exact, ref.end, ref.tags)
    return got, ref


def _damaged_bodies(rest: bytes, count: int, heads: list[int]):
    """``(body, count)`` pairs: every truncation, also of the body with its first
    two entries swapped, then each entry head's flag set to 0, 1 and 2, its
    record count to 0, 1 and 2, and its first record's length moved by -1 and +1
    and set to 20, one byte short of a record; last the whole body under one
    entry fewer and one more."""
    swapped = rest[heads[1] : heads[2]] + rest[: heads[1]] + rest[heads[2] :]
    for body in (rest, swapped):
        for cut in range(len(body) + 1):
            yield body[:cut], count
    for pos in heads:
        first = int.from_bytes(rest[pos + 23 : pos + 27], "big")
        for at, values in ((20, (b"\0", b"\1", b"\2")),
                           (21, [n.to_bytes(2, "big") for n in (0, 1, 2)]),
                           (23, [n.to_bytes(4, "big") for n in (first - 1, first + 1, 20)])):
            for value in values:
                yield rest[: pos + at] + value + rest[pos + at + len(value) :], count
    yield rest, count - 1
    yield rest, count + 1


@pytest.mark.parametrize("file", [("listing", "gram"), ("auth", "wildcard")], ids="-".join)
def test_the_loaders_short_path_matches_the_reader_without_it(small_files, file):
    """On every damage of the body of a file whose entries hold one record and
    two, the loader gives the same result or the same first error, message
    included, as the reference reader, which makes every check on every entry.
    Every cut of the undamaged body is refused with ``Truncated``."""
    blob = small_files[file]
    ref, rest = reference_read_fzix(blob), blob[HEADER_BYTES:]
    assert {1, 2} <= set(map(len, ref.spans.values()))
    seen = set()
    for body, n in _damaged_bodies(rest, len(ref.table), list(ref.table.values())):
        got, _ = _same_read(blob[:10] + n.to_bytes(8, "big") + body)
        seen.add(got[1] if isinstance(got, tuple) else "read")
        if len(body) < len(rest) and rest.startswith(body):
            assert got[0] is Truncated, got
    assert {"read", "record blob too short"} < seen
    assert any(m.endswith("ends early") and ":" not in m for m in seen)  # a head cut
    assert any(m.endswith("a record ends early") for m in seen)
    assert any("unknown entry flags" in m for m in seen) and any("no records" in m for m in seen)
    assert any("strictly ascending" in m for m in seen)


def test_a_damaged_header_is_refused_as_the_reference_refuses(small_files):
    """Every cut of the header, every flags byte, and a wrong magic, version,
    geometry and d: the loader reads what the reference reads, or refuses with
    the same class and message; each cut is refused with ``Truncated``, and
    each flags byte gets the outcome of a table kept apart from both readers."""
    blob = small_files["auth", "wildcard"]
    damaged = [blob[:cut] for cut in range(HEADER_BYTES + 1)]
    damaged += [blob[:5] + bytes([flags]) + blob[6:] for flags in range(256)]
    for at, value in ((0, b"FZIY"), (4, b"\x02"), (6, b"\x08"), (7, (128).to_bytes(2, "big")), (9, b"\x07")):
        damaged.append(blob[:at] + value + blob[at + len(value) :])
    seen = set()
    for data in damaged:
        got, _ = _same_read(data)
        seen.add(got[0] if isinstance(got, tuple) else "read")
        assert len(data) > HEADER_BYTES or got[0] is Truncated, got
    assert seen == {"read", Truncated, BadMagic, VersionUnsupported, BadParameter}
    for flags in range(256):
        got = refusal(loads_index, blob[:5] + bytes([flags]) + blob[6:])
        if flags > 0x07:
            assert got == (BadParameter, f"unknown index flags {flags:#x}")
        elif flags in (0x02, 0x06):
            assert got == (BadParameter, "verifiable flag requires a trie index")
        elif flags in (0x03, 0x07):  # an auth trie, by either method
            assert got.kind == "auth_trie", flags
        else:  # the tags follow the entries of a kind that has none
            assert got[0] is Truncated and "bytes follow the" in got[1], flags


@pytest.mark.parametrize("kind", ["listing", "trie"])
def test_bytes_after_untagged_entries_name_the_kind(small_files, kind):
    blob = small_files[kind, "wildcard"]
    assert reference_read_fzix(blob).tags == b""
    for extra in (b"\x00", bytes(TAG_BYTES), bytes(3 * TAG_BYTES)):
        with pytest.raises(Truncated, match=f"{len(extra)} bytes follow the {kind} entries, not 0"):
            loads_index(blob + extra)


def test_auth_sections_must_be_exact(small_files, km):
    blob = small_files["auth", "wildcard"]
    index = loads_index(blob)
    header, entries, sections = _fzix_parts(blob)
    leaves_len = len(entries) * TAG_BYTES
    assert len(sections) == leaves_len + (len(entries) + 1) * TAG_BYTES
    assert sections == index.tags
    leaves, gaps = sections[:leaves_len], sections[leaves_len:]
    for bad in (leaves[:-1] + gaps, leaves + b"\x00" + gaps, leaves + gaps[:-1], leaves + gaps + b"\x00",
                leaves + gaps[:-TAG_BYTES], leaves, gaps, b""):
        with pytest.raises(Truncated, match="follow the auth_trie entries"):
            loads_index(_join_fzix(header, entries, bad))


def test_tags_of_the_wrong_length_are_not_written(small_files):
    """Any index may hold tags in memory; FZIX writes an auth trie's, of the one right length, and no others."""
    for kind in ("listing", "trie", "auth"):
        index = loads_index(small_files[kind, "wildcard"])
        tags = bytes(index.tags) or bytes(tags_bytes(len(index.table)))  # a loaded index's tags are a view of the file
        bads = [tags[:-1], tags + b"\x00", tags[:-TAG_BYTES], tags + bytes(TAG_BYTES), tags[:TAG_BYTES]]
        if kind == "listing":
            bads.append(tags)  # a listing holds no tags of any length
        for bad in bads:
            with pytest.raises(BadParameter, match=f"{len(bad)} bytes of tags for {len(index.table)} entries"):
                dumps_index(type(index)(index.table, index.body, index.d, index.method, index.exact, bad))


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


def test_v3_auth_file_is_refused():
    """A file written by the FZIX v3 writer: AES-GCM records, each with its nonce, and unframed record digests."""
    blob = (DATA / "v3_auth.fzix").read_bytes()
    assert blob[:6] == b"FZIX\x03\x03"
    with pytest.raises(VersionUnsupported, match=r"FZIX version 3 not supported \(expected 5\)"):
        loads_index(blob)


def test_v4_auth_file_is_refused():
    """A file written by the FZIX v4 writer: 32-byte leaf and gap tags keyed by the record key itself."""
    blob = (DATA / "v4_auth.fzix").read_bytes()
    assert blob[:6] == b"FZIX\x04\x03"
    with pytest.raises(VersionUnsupported, match=r"FZIX version 4 not supported \(expected 5\)"):
        loads_index(blob)


def test_only_the_index_version_moved(km):
    assert dumps_index(build_listing_index({"cat": [b"F1"]}, 0, km))[4] == 5
    assert dumps_keys(km)[4] == 1
    assert dumps_directory(UserDirectory(current_xi=km.blind_key))[4] == 1


def _mutants(blob: bytes, rng: random.Random):
    """Byte flips, cuts at every section boundary, reordered, doubled and
    recounted entries, and records cut short, of one v4 file."""
    header, entries, sections = _fzix_parts(blob)
    ref = reference_read_fzix(blob)
    for _ in range(150):
        flipped = bytearray(blob)
        flipped[rng.randrange(len(blob))] ^= 1 << rng.randrange(8)
        yield bytes(flipped)
    bounds = {HEADER_BYTES + pos for pos in (*ref.table.values(), ref.end)} | {len(blob)}
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
    # one record cut below (and to) the 21 bytes of the shortest record, its length
    # prefix fixed up: the last record of a middle entry and of the first entry
    # holding several
    body, spans = blob[HEADER_BYTES:], list(ref.spans.values())
    several = [i for i, records in enumerate(spans) if len(records) > 1]
    for i in sorted({len(entries) // 2, *several[:1]}):
        records = [body[a:b] for a, b in spans[i]]
        for size in (0, 16, 20, 21):
            shrunk = records[:-1] + [records[-1][:size]]
            entry = entries[i][:23] + b"".join(len(r).to_bytes(4, "big") + r for r in shrunk)
            yield _join_fzix(header, entries[:i] + [entry] + entries[i + 1 :], sections)


@pytest.fixture(scope="module")
def larger_files(km):
    """A 200-keyword gram listing and auth file; every tenth keyword names two files.

    Short words share deletion variants, so many entries hold several records.
    """
    corpus = random_corpus(random.Random(151), size=200, lo=3, hi=4)
    for i, word in enumerate(sorted(corpus)):
        if i % 10 == 0:
            corpus[word].append(b"g%04d" % i)
    return {(kind, "gram", 200): dumps_index(BUILDS[kind](corpus, 1, km, "gram")) for kind in ("listing", "auth")}


def test_the_first_entry_out_of_order_is_reported_after_every_other_error(small_files):
    header, entries, sections = _fzix_parts(small_files["listing", "wildcard"])
    twice = entries[:3] + [entries[4], entries[3]] + entries[5:8] + [entries[9], entries[8]] + entries[10:]
    with pytest.raises(BadParameter, match=r"^entry 4: trapdoors are not strictly ascending$"):
        loads_index(_join_fzix(header, twice, sections))
    with pytest.raises(Truncated, match="a record ends early"):  # in the last entry, after both
        loads_index(_join_fzix(header, twice, sections)[:-1])
    flagged = twice[:-1] + [twice[-1][:20] + b"\x02" + twice[-1][21:]]
    with pytest.raises(BadParameter, match="unknown entry flags"):
        loads_index(_join_fzix(header, flagged, sections))


def test_reader_matches_the_reference_loop(small_files, larger_files):
    """On every damaged file both readers refuse with the same class and message,
    or read the same entry offsets, exact set and tags, and the loaded index
    holds under each trapdoor the records at the reference's spans and dumps
    back to the file."""
    rng = random.Random(2026)
    outcomes = {"rejected": 0, "short": 0, "loaded": 0}
    files = [*sorted(small_files.items()), *sorted(larger_files.items())]
    for key, blob in files:
        for mutant in _mutants(blob, rng):
            index, ref = _same_read(mutant)
            if isinstance(index, tuple):
                outcomes["rejected"] += 1
                outcomes["short"] += index[0] is AuthFailure
                continue
            body = mutant[HEADER_BYTES:]
            for t, spans in ref.spans.items():
                assert index.records(t) == tuple(body[a:b] for a, b in spans), key
            assert dumps_index(index) == mutant, key
            outcomes["loaded"] += 1
    assert outcomes["short"] >= 3 * len(files) and outcomes["loaded"]


@pytest.mark.parametrize("method", ["wildcard", "gram"])
@pytest.mark.parametrize("kind", sorted(BUILDS))
def test_a_loaded_index_answers_as_the_built_one(km, kind, method):
    """On seeded corpora whose keywords hold several fids and share variants,
    ``loads_index(dumps_index(built))`` is of the built index's type, d and
    method and dumps back to the same bytes; it and the built index hold the
    entry offsets, exact set and tags that ``reference_read_fzix`` reads and,
    under every trapdoor, the records at its spans, and answer a seeded query
    pool at every k up to d with equal results, and with tags equal proofs."""
    rng = random.Random(f"loaded-as-built/{kind}/{method}")
    for d in (1, 2):
        corpus = _shared_corpus(rng)
        built = BUILDS[kind](corpus, d, km, method)
        blob = dumps_index(built)
        loaded = loads_index(blob)
        assert type(loaded) is type(built) and (loaded.d, loaded.method) == (d, method)
        assert dumps_index(loaded) == blob
        ref, body = reference_read_fzix(blob), blob[HEADER_BYTES:]
        table = {t: tuple(body[a:b] for a, b in spans) for t, spans in ref.spans.items()}
        assert max(map(len, table.values())) > 1  # entries of several records
        for index in (built, loaded):
            assert {t: index.records(t) for t in index.table} == table
            assert (index.table, index.exact, index.tags) == (ref.table, ref.exact, ref.tags)
            if kind != "listing":
                for t in index.ordered:
                    assert walk_trie(index.root, symbolize(t, index.symbol_bits)).records == table[t]
        words = sorted(corpus)
        pool = words + [mutate(rng.choice(words), rng) for _ in range(20)] + [random_word(rng, 1, 8) for _ in range(10)]
        for word in pool:
            for k in range(d + 1):
                req = make_request(word, k, km, method)
                if kind == "auth":
                    assert search_with_proof(built, req) == search_with_proof(loaded, req)
                else:
                    assert search_listing(built, req) == search_listing(loaded, req)


@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("method", ["wildcard", "gram"])
@pytest.mark.parametrize("kind", sorted(BUILDS))
def test_records_are_pairwise_distinct_and_builds_byte_identical(km, kind, method, d):
    """On seeded corpora whose keywords share variants and fids, every record of a
    file is distinct from every other, the copies of one (keyword, fid) under its
    variants' entries included, and a second build writes the same bytes."""
    rng = random.Random(f"distinct/{kind}/{method}/{d}")
    for _ in range(2):
        corpus = _shared_corpus(rng)
        blob = dumps_index(BUILDS[kind](corpus, d, km, method))
        assert dumps_index(BUILDS[kind](corpus, d, km, method)) == blob
        index = loads_index(blob)
        records = [record for t in index.ordered for record in index.records(t)]
        assert len(set(records)) == len(records)
        pairs = sum(len(set(fids)) for fids in corpus.values())
        assert len(records) > pairs if d else len(records) == pairs


@pytest.mark.parametrize("kind", sorted(BUILDS))
def test_ordered_is_the_table_already_ascending(km, kind):
    """``ordered`` copies ``table`` without sorting it: a built table is filled in
    trapdoor order, and a loaded one is refused in any other."""
    rng = random.Random(f"ordered/{kind}")
    for method in ("wildcard", "gram"):
        built = BUILDS[kind](_shared_corpus(rng), 1, km, method)
        for index in (built, loads_index(dumps_index(built))):
            assert len(index.table) > 1 and index.ordered == sorted(index.table)


def test_a_loaded_listing_keeps_no_object_per_record(km):
    """A loaded index keeps the file's body and, per entry, its trapdoor and its
    offset: fewer than 2.5 live blocks per entry, where trapdoor, record and
    tuple objects made 3."""
    blob = dumps_index(build_listing_index(synth_corpus(300, seed=29), 1, km))
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        index = loads_index(blob)
        after = tracemalloc.take_snapshot()
    finally:
        if not tracing:
            tracemalloc.stop()
    blocks = sum(stat.count_diff for stat in after.compare_to(before, "filename"))
    assert len(index.table) > 4000 and blocks < 2.5 * len(index.table), blocks / len(index.table)


def _reference_index(blob: bytes):
    """The index ``reference_read_fzix`` reads: its flags, d, entry offsets over the
    file's body up to the end of the entries, exact set and tags."""
    ref = reference_read_fzix(blob)
    body = memoryview(blob)[HEADER_BYTES : HEADER_BYTES + ref.end]
    method = "gram" if ref.flags & 0x04 else "wildcard"
    return (TrieIndex if ref.flags & 0x01 else ListingIndex)(ref.table, body, ref.d, method, ref.exact, ref.tags)


# (reader, oracle, writer) per owner-file magic
OWNER_CODECS = {
    b"FZKY": (loads_keys, reference_loads_keys, dumps_keys),
    b"FZIX": (loads_index, _reference_index, dumps_index),
    b"FZUD": (loads_directory, reference_loads_directory, dumps_directory),
}


def _damaged(blob: bytes, rng: random.Random) -> bytes:
    """One to three truncations, bit flips and appends; half of each lands in the first 24 bytes."""
    out = bytearray(blob)
    for _ in range(rng.randint(1, 3)):
        op, head = rng.randrange(3), rng.random() < 0.5
        reach = min(len(out), 24) if head else len(out)
        if op == 0:
            del out[rng.randrange(reach + 1) :]
        elif op == 1 and out:
            out[rng.randrange(reach)] ^= 1 << rng.randrange(8)
        else:
            out += rng.choice((bytes(rng.randrange(256) for _ in range(rng.randint(1, 40))), bytes(out[-3:])))
    return bytes(out)


def _outcome(load, dump, blob: bytes):
    """The bytes a loaded value dumps back to, or the class of the refusal: a
    header's own class, any other ``FzError`` as ``FzError``.  Any other
    exception gets out."""
    try:
        value = load(blob)
    except (BadMagic, VersionUnsupported) as exc:
        return type(exc)
    except FzError:
        return FzError
    return dump(value)


def test_owner_file_readers_match_the_field_by_field_oracle(small_files, km):
    """On the undamaged key, directory, listing and auth files and 2,800 seeded
    damaged ones, each reader accepts exactly what its field-by-field oracle
    accepts, to a value that dumps back to the same bytes; both refuse with
    ``FzError``, with the same class when the magic or the version is wrong.
    Every cut of a key or directory file is refused with ``Truncated``."""
    enrolled = UserDirectory(current_xi=km.blind_key).enroll("alice", b"ka").enroll("bob", b"kb")
    files = [
        dumps_keys(km),
        dumps_keys(keygen(256, seed=b"golden-fzky")),
        dumps_directory(enrolled),
        dumps_directory(GOLDEN_FZUD_DIRECTORIES["two-users"]()),
        dumps_directory(UserDirectory(current_xi=b"")),
        small_files["listing", "wildcard"],
        small_files["auth", "gram"],
    ]
    rng = random.Random(2400)
    seen = {"loaded": 0, BadMagic: 0, VersionUnsupported: 0, FzError: 0}
    for blob in files:
        load, oracle, dump = OWNER_CODECS[blob[:4]]
        for mutant in [blob] + [_damaged(blob, rng) for _ in range(400)]:
            got = _outcome(load, dump, mutant)
            assert got == _outcome(oracle, dump, mutant), (blob[:4], mutant.hex())
            assert got == mutant if isinstance(got, bytes) else got in seen
            seen["loaded" if isinstance(got, bytes) else got] += 1
        if load is not loads_index:
            assert {refusal(load, blob[:cut])[0] for cut in range(len(blob))} == {Truncated}, blob[:4]
    assert min(seen.values()) >= 50, seen
