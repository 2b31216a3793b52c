import builtins
import random
from collections import Counter
from unittest.mock import ANY

import pytest

import fzsearch.verifiable as verifiable
from conftest import fields, framed_digest, gap_tag, hit, leaf_tag, miss, mutate, random_corpus, reference_tag_key
from fzsearch import (
    BadParameter,
    EditBoundExceeded,
    ResultSet,
    SearchRequest,
    TrieIndex,
    Verdict,
    VerdictReason,
    blind_request,
    build_auth_trie,
    build_listing_index,
    build_trie_index,
    decrypt_record,
    make_request,
    search_listing,
    search_with_proof,
    unblind_request,
    verify,
)
from fzsearch.crypto import DEPTH, TRAPDOOR_BYTES
from fzsearch.errors import Truncated
from fzsearch.persist import dumps_index, loads_index
from fzsearch.verifiable import TAG_BYTES, _parse_proof, decode_proof, encode_proof


@pytest.fixture(scope="module")
def small_world(km):
    rng = random.Random(107)
    corpus = random_corpus(rng, size=40, lo=3, hi=6)
    return corpus, build_auth_trie(corpus, 1, km)


def _fuzzy_transcript(km, index, corpus, rng):
    """An honest non-exact transcript with at least two hits."""
    words = sorted(corpus)
    for _ in range(10_000):
        query = mutate(rng.choice(words), rng)
        if not query or query in corpus:
            continue
        req = make_request(query, 1, km)
        result, proofs = search_with_proof(index, req)
        full = sum(1 for p in proofs if _is_hit(p))
        if not result.exact_hit and full >= 2 and len(result.records) >= 2:
            return req, result, proofs
    pytest.fail("no non-exact transcript with two hit proofs in 10,000 queries")


def _is_hit(proof: bytes) -> bool:
    return "flag" in fields(proof)


def _with(proof: bytes, **changes) -> bytes:
    """``proof`` with some of its fields replaced, encoded by the reference codec."""
    f = {**fields(proof), **changes}
    return hit(**f) if "flag" in f else miss(**f)


def _reference_tags(key: bytes, index) -> bytes:
    """Leaf tags, then gap tags, under the tag key ``key``, computed straight from the definitions."""
    keys = sorted(index.table)
    leaves = [leaf_tag(key, t, t in index.exact, len(index.records(t)), framed_digest(index.records(t))) for t in keys]
    ends = [b""] + keys + [b""]
    gaps = [gap_tag(key, a, b) for a, b in zip(ends, ends[1:])]
    return b"".join(leaves + gaps)


def _reference_proof(tags: bytes, index, t: bytes) -> bytes:
    """A proof by a linear scan over the sorted entries and reference ``tags``."""
    keys = sorted(index.table)
    if t in index.table:
        i = keys.index(t)
        tag = tags[i * TAG_BYTES : (i + 1) * TAG_BYTES]
        return hit(int(t in index.exact), len(index.records(t)), tag)
    gap = sum(1 for k in keys if k < t)
    at = (len(keys) + gap) * TAG_BYTES
    left = keys[gap - 1] if gap else b""
    right = keys[gap] if gap < len(keys) else b""
    return miss(left, right, tags[at : at + TAG_BYTES])


class TestChain:
    """The gap tags chain each sorted entry to the next; the leaf tags bind each entry."""

    def test_the_authenticated_trie_is_a_trie_with_tags(self, km, small_world):
        corpus, built = small_world
        plain = build_trie_index(corpus, 1, km)
        for index in (built, loads_index(dumps_index(built))):
            assert type(index) is TrieIndex and index.kind == "auth_trie"
            fields = (index.table, index.body, index.d, index.method, index.exact, index.tags)
            assert fields == (plain.table, plain.body, 1, "wildcard", plain.exact, built.tags)
        assert plain.tags == b"" and plain.kind == "trie"
        assert type(loads_index(dumps_index(plain))) is TrieIndex

    def test_the_trie_the_tags_key_is_left_as_built(self, km, small_world, monkeypatch):
        corpus, _ = small_world
        tries = []

        def build_and_keep(*args):
            tries.append(build_trie_index(*args))
            return tries[-1]

        monkeypatch.setattr(verifiable, "build_trie_index", build_and_keep)
        auth = build_auth_trie(corpus, 1, km)
        assert auth.tags and auth is not tries[0] and tries[0].tags == b"" and tries[0].kind == "trie"

    @pytest.mark.parametrize("method", ["wildcard", "gram"])
    def test_tags_are_the_per_entry_leaf_and_gap_tags(self, km, method):
        rng = random.Random(f"tags/{method}")
        for d in (0, 1, 2):
            corpus = {word: [b"F1", b"F2"][: rng.randint(0, 2)] for word in random_corpus(rng, size=25, lo=3, hi=6)}
            built = build_auth_trie(corpus, d, km, method)
            for index in (built, loads_index(dumps_index(built))):
                assert index.tags == _reference_tags(reference_tag_key(km.record_key), index)
                assert len(index.tags) == TAG_BYTES * (2 * len(index.table) + 1)

    def test_empty_index_answers_verifiable_proofs(self, km):
        built = build_auth_trie({}, 1, km)
        assert built.tags == gap_tag(reference_tag_key(km.record_key), b"", b"")
        for index in (built, loads_index(dumps_index(built))):
            req = make_request("castle", 1, km)
            result, proofs = search_with_proof(index, req)
            assert result.records == [] and not result.exact_hit
            assert all(p == miss(b"", b"", built.tags) for p in proofs)
            assert verify(req, result, proofs, km).accepted

    def test_head_and_tail_gaps_accept(self, km, small_world):
        _, index = small_world
        width = TRAPDOOR_BYTES
        first, last = index.ordered[0], index.ordered[-1]
        lo, hi = int.from_bytes(first, "big"), int.from_bytes(last, "big")
        below = [(lo - 1).to_bytes(width, "big"), bytes(width)]
        above = [(hi + 1).to_bytes(width, "big"), b"\xff" * width]
        req = SearchRequest(tuple(below + above), 0)
        result, proofs = search_with_proof(index, req)
        ends = [(fields(p)["left"], fields(p)["right"]) for p in proofs]
        assert ends == [(b"", first)] * 2 + [(last, b"")] * 2
        assert verify(req, result, proofs, km).accepted
        # a sentinel gap does not stretch into the list
        inner = SearchRequest(((lo + 1).to_bytes(width, "big"), (hi - 1).to_bytes(width, "big")), 0)
        inner_result, _ = search_with_proof(index, inner)
        verdict = verify(inner, inner_result, [proofs[0], proofs[2]], km)
        assert not verdict.accepted and verdict.failing_index == 0

    def test_tags_globally_unique_on_500_keywords(self, km):
        rng = random.Random(109)
        corpus = random_corpus(rng, size=500)
        index = build_auth_trie(corpus, 1, km)
        tags = [index.tags[i : i + TAG_BYTES] for i in range(0, len(index.tags), TAG_BYTES)]
        assert len(set(tags)) == len(tags) == 2 * len(index.table) + 1


class TestSearchWithProof:
    @pytest.mark.parametrize("method", ["wildcard", "gram"])
    def test_the_proof_search_answers_as_the_plain_search(self, km, method):
        """Seeded requests, plain and blinded: ``search_with_proof``'s result is ``search_listing``'s."""
        rng = random.Random(f"one-read/{method}")
        words = {"".join(rng.choice("abcd") for _ in range(rng.randint(1, 5))) for _ in range(60)}
        corpus = {w: [b"F%d" % rng.randrange(6) for _ in range(rng.randint(1, 3))] for w in sorted(words)}
        index, xi = build_auth_trie(corpus, 2, km, method), bytes(range(16))
        exact_hits = fuzzy_hits = 0
        for _ in range(200):
            word = rng.choice(sorted(corpus)) if rng.random() < 0.5 else mutate(rng.choice(sorted(corpus)), rng) or "a"
            req = make_request(word, rng.randint(0, 2), km, method)
            trapdoors = list(req.trapdoors)
            if rng.random() < 0.3:  # the exact word's trapdoor elsewhere than first
                rng.shuffle(trapdoors)
            if rng.random() < 0.3:  # a repeated trapdoor
                trapdoors.append(rng.choice(trapdoors))
            plain = SearchRequest(tuple(trapdoors), req.k)
            blinded = blind_request(plain, xi)
            for sent in (plain, blinded, unblind_request(blinded, xi)):
                result, _ = search_with_proof(index, sent)
                assert result == search_listing(index, sent), (word, sent)
            exact_hits += result.exact_hit
            fuzzy_hits += not result.exact_hit and len(result.records) > 1
        assert exact_hits > 20 and fuzzy_hits > 20, (exact_hits, fuzzy_hits)

    def test_proofs_match_a_linear_scan(self, km, small_world):
        """One proof per trapdoor, each the reference codec's bytes, which the wire codec leaves as they are;
        built and loaded alike.  A loaded index's tags follow its body in one buffer, so the last entry's
        proof checks where that entry ends."""
        corpus, index = small_world
        rng = random.Random(114)
        keys = sorted(index.table)
        trapdoors = keys[:3] + keys[-3:] + [rng.randbytes(20) for _ in range(200)]
        trapdoors += [(int.from_bytes(t, "big") + d).to_bytes(20, "big") for t in keys[::5] for d in (-1, 1)]
        for word in sorted(corpus)[:10]:
            trapdoors += make_request(mutate(word, rng), 1, km).trapdoors
        trapdoors += make_request(sorted(corpus)[0], 0, km).trapdoors + make_request("zzzzzzzz", 0, km).trapdoors
        rng = random.Random(163)
        for _ in range(50):
            trapdoors += make_request(mutate(rng.choice(sorted(corpus)), rng) or "aa", 1, km).trapdoors
        trapdoors = tuple(dict.fromkeys(trapdoors))
        tags = _reference_tags(reference_tag_key(km.record_key), index)
        want = [_reference_proof(tags, index, t) for t in trapdoors]
        for served in (index, loads_index(dumps_index(index))):
            _, proofs = search_with_proof(served, SearchRequest(trapdoors, 0))
            assert proofs == want
        assert sum(map(_is_hit, proofs)) > 10
        for proof in proofs:
            assert encode_proof(proof) == decode_proof(proof) == decode_proof(proof, DEPTH) == proof

    def test_an_index_without_tags_has_no_proofs(self, km):
        corpus, req = {"castle": [b"F1"]}, make_request("castle", 1, km)
        for build in (build_listing_index, build_trie_index):
            with pytest.raises(BadParameter, match="no tags"):
                search_with_proof(build(corpus, 1, km), req)

    def test_edit_bound(self, km, small_world):
        _, index = small_world
        with pytest.raises(EditBoundExceeded):
            search_with_proof(index, make_request("cat", 2, km))


def _verify_per_proof(req: SearchRequest, results: ResultSet, proofs, km) -> Verdict:
    """The reference ``verify``: each proof's tag keyed by itself and checked as the proof is read,
    a hit's over the digest of its count of the records returned."""
    key, records, exact_hit, pos = reference_tag_key(km.record_key), results.records, results.exact_hit, 0
    trapdoors = req.trapdoors[:1] if exact_hit else req.trapdoors  # an exact answer is proved by proof 0 alone
    if len(proofs) != len(trapdoors):
        return Verdict(False, VerdictReason.COUNT_MISMATCH)
    if exact_hit and not proofs:
        return Verdict(False, VerdictReason.EXACT_FLAG_MISMATCH, 0)
    for i, (t, proof) in enumerate(zip(trapdoors, proofs)):
        try:
            form, first, second, tag = _parse_proof(proof)
        except Truncated:
            return Verdict(False, VerdictReason.SHAPE_INVALID, i)
        if not i and exact_hit != (form == 1):
            return Verdict(False, VerdictReason.EXACT_FLAG_MISMATCH, 0)
        if form == 2:
            second = proof[3 + proof[2] + 1 : -TAG_BYTES]
            width = len(t)
            if (first and (len(first) != width or first >= t)) or (second and (len(second) != width or t >= second)):
                return Verdict(False, VerdictReason.SHAPE_INVALID, i)
            if gap_tag(key, first, second) != tag:
                return Verdict(False, VerdictReason.GAP_TAG_MISMATCH, i)
            continue
        count = int.from_bytes(proof[2:4], "big")
        if pos + count > len(records) or leaf_tag(key, t, form, count, framed_digest(records[pos : pos + count])) != tag:
            return Verdict(False, VerdictReason.LEAF_TAG_MISMATCH, i)
        pos += count
    if pos != len(records):
        return Verdict(False, VerdictReason.LEAF_TAG_MISMATCH)
    return Verdict(True, VerdictReason.OK)


def encrypt_like(rec: bytes) -> bytes:
    """A record of the same length and synthetic IV whose ciphertext is reversed."""
    return rec[:16] + rec[16:][::-1]


ACCEPTED = Verdict(True, VerdictReason.OK)
REJECTED = Verdict(False, ANY, ANY)  # for any reason, at any proof or at none
SHAPE, LEAF, GAP, EXACT = (VerdictReason.SHAPE_INVALID, VerdictReason.LEAF_TAG_MISMATCH,
                           VerdictReason.GAP_TAG_MISMATCH, VerdictReason.EXACT_FLAG_MISMATCH)


def _damaged(rng: random.Random, req: SearchRequest, index, result: ResultSet, proofs: list[bytes], every_entry: bool):
    """The tamper catalogue: an honest transcript, then seeded damaged copies of it.

    Each item is ``(entry, result, proofs, verdict)``, ``verdict`` the one ``verify``
    must give, ``ANY`` in a field the entry does not pin.  A copy equal to the honest
    one is left out.  The per-miss and per-position entries run only when ``every_entry``.
    """
    n, records, exact = len(proofs), result.records, result.exact_hit
    full = [_reference_proof(index.tags, index, t) for t in req.trapdoors]  # a proof per trapdoor
    count_mismatch = Verdict(False, VerdictReason.COUNT_MISMATCH)
    copies = [("honest", result, proofs, ACCEPTED)]

    def add(entry, want=REJECTED, results=result, ps=proofs):
        if (results, ps) != (result, proofs):
            copies.append((entry, results, ps, want))

    def put(j, proof, ps=proofs):
        return ps[:j] + [proof] + ps[j + 1 :]

    def flip(proof):
        at = rng.randrange(len(proof))
        return proof[:at] + bytes([proof[at] ^ 1 << rng.randrange(8)]) + proof[at + 1 :]

    for j in range(n):
        add("proof cut", ps=put(j, proofs[j][: rng.randrange(len(proofs[j]))]))
    for _ in range(6):
        j = rng.randrange(n)
        add("byte flipped", ps=put(j, flip(proofs[j])))
    if n > 1:
        i, j = sorted(rng.sample(range(n), 2))
        add("two proofs swapped", ps=put(j, proofs[i], put(i, proofs[j])))
        # a tag or record failure at i comes before a shape failure at the later j
        add("tag failure before a shape failure", ps=put(j, proofs[j][:1], put(i, flip(proofs[i]))))
        add("record failure before a shape failure", results=result._replace(records=records[1:]),
            ps=put(j, proofs[j][:1]))
    add("proof dropped", count_mismatch, ps=proofs[:-1])
    # the flag alone, then with the proofs the toggled answer would carry
    toggled = result._replace(exact_hit=not exact)
    add("exact flag toggled", count_mismatch if len(full) > 1 else Verdict(False, EXACT, 0), results=toggled)
    add("exact flag toggled", Verdict(False, EXACT, 0), results=toggled, ps=full if exact else proofs[:1])
    if records:
        at = rng.randrange(len(records))
        add("record dropped", results=result._replace(records=records[:at] + records[at + 1 :]))
        add("record dropped", results=result._replace(records=records[:-1]))
        appended = records + [encrypt_like(records[0])]
        add("record appended", Verdict(False, LEAF), results=result._replace(records=appended))
    if len(records) > 1:
        at = rng.randrange(len(records) - 1)
        merged = records[:at] + [records[at] + records[at + 1]] + records[at + 2 :]
        add("records merged", results=result._replace(records=merged))
        add("records reordered", results=result._replace(records=records[::-1]))
        add("records reordered", results=result._replace(records=[records[-1], *records[1:-1], records[0]]))
    for i, proof in enumerate(proofs):
        f = fields(proof)
        tag = bytes([f["tag"][0] ^ 1]) + f["tag"][1:]
        add("tag bit flipped", Verdict(False, LEAF if "flag" in f else GAP, i), ps=put(i, _with(proof, tag=tag)))
        if "flag" in f:  # at proof 0 the exact flag no longer matches
            flipped = _with(proof, flag=1 - f["flag"])
            add("hit flag flipped", Verdict(False, LEAF if i else EXACT, i), ps=put(i, flipped))
            for count in (f["count"] - 1, f["count"] + 1):  # the leaf tag binds the count
                add("hit count moved", Verdict(False, LEAF, i), ps=put(i, _with(proof, count=count)))
            # and a record added where the hit's records end, so its count matches what is returned
            end = sum(fields(p).get("count", 0) for p in proofs[: i + 1])
            extra = records[:end] + [encrypt_like(records[0]) if records else bytes(40)] + records[end:]
            add("hit count raised by one", Verdict(False, LEAF, i), results=result._replace(records=extra),
                ps=put(i, _with(proof, count=f["count"] + 1)))
    if exact:  # an exact hit hidden, everything else returned; or proof 0 a zero hit
        everything = [r for t in req.trapdoors for r in index.records(t)]
        add("exact hit hidden", Verdict(False, EXACT, 0), results=ResultSet(everything, False), ps=full)
        add("exact hit without flag 1", Verdict(False, EXACT, 0), ps=put(0, hit(0, 1, bytes(16))))
        add("exact answer with a second proof", count_mismatch, ps=proofs + full[1:2])
    elif n > 1:
        add("non-exact answer with proof 0 alone", count_mismatch, ps=proofs[:1])
    if not every_entry:
        return copies
    keys = index.ordered
    hits = [i for i, p in enumerate(proofs) if _is_hit(p)]
    misses = [i for i in range(n) if i not in hits]
    first = index.records(keys[0])
    forged = [hit(0, 1, bytes(16)), hit(0, len(first), index.tags[:TAG_BYTES])]
    for i in misses:
        p, m = proofs[i], fields(proofs[i])
        for lie in forged:
            add("hit forged for a miss", Verdict(False, LEAF, i), ps=put(i, lie))
        j = keys.index(m["right"]) if m["right"] else len(keys)
        lies = list(dict.fromkeys(proofs[k] for k in misses if fields(proofs[k])["left"] != m["left"]))  # another gap's
        lies += [
            _with(p, left=keys[j - 2]) if j >= 2 else None,  # a wider pair, the same tag
            _with(p, right=keys[j + 1]) if j + 1 < len(keys) else None,
            _with(p, left=b""),  # an empty end mid-list
            _with(p, right=b""),
            _with(p, left=m["right"], right=m["left"]),
            _with(p, tag=m["tag"][:16]),
            _with(p, tag=b""),
        ]
        for lie in lies:
            if lie is not None:
                add("miss pair borrowed, widened, emptied, swapped or cut", Verdict(False, ANY, i), ps=put(i, lie))
    if hits:
        hi = hits[0]
        h = fields(proofs[hi])
        for lie in (
            _with(proofs[hi], flag=2),  # a hit's fields under the miss form
            _with(proofs[hi], flag=3),
            _with(proofs[hi], flag=255),  # the byte of a flag of -1
            _with(proofs[hi], tag=h["tag"][:-1]),
            _with(proofs[hi], tag=h["tag"] + b"\x00"),
            _with(proofs[hi], tag=bytes(32) + h["tag"]),  # a protocol 4 hit: its record digest before its tag
            proofs[hi] + bytes([TRAPDOOR_BYTES]) + keys[0],  # a hit carrying an end
        ):
            add("malformed hit", Verdict(False, SHAPE, hi), ps=put(hi, lie))
    inner = [i for i in misses if fields(proofs[i])["left"] and fields(proofs[i])["right"]]
    if inner:
        mi = inner[0]
        t, m = req.trapdoors[mi], fields(proofs[mi])
        for lie in (
            _with(proofs[mi], tag=bytes(32) + m["tag"]),  # a miss carrying a record digest
            _with(proofs[mi], tag=m["tag"][:-1]),
            _with(proofs[mi], left=t),  # an end equal to the trapdoor
            _with(proofs[mi], right=t),
            _with(proofs[mi], left=m["right"], right=m["left"]),  # reordered
            _with(proofs[mi], left=m["left"][:-1]),  # a cut end
            _with(proofs[mi], right=m["right"] + b"\x00"),
            _with(proofs[mi], left=b"\x00" + m["left"]),
        ):
            add("malformed miss", Verdict(False, SHAPE, mi), ps=put(mi, lie))
    for i in sorted({0, 1, n - 1} & set(range(n))):  # not an exception: proof 0 of an exact hit too
        for item in (None, "x", b"", 7, proofs[i].hex(), proofs[i][:-1], proofs[i] + b"\x00"):
            add("exact hit's item not a proof" if exact else "item not a proof", Verdict(False, SHAPE, i),
                ps=put(i, item))
    return copies


class TestVerify:
    def test_verify_gives_the_per_proof_verdict(self, km, small_world):
        """The tamper catalogue over 60 seeded transcripts, exact and fuzzy, and five fuzzy
        ones of several records: each copy gets ``_verify_per_proof``'s verdict and the one
        its entry pins, so each but the honest one is rejected."""
        corpus, index = small_world
        rng = random.Random(29)
        words, seen, fired = sorted(corpus), set(), Counter()

        def check(req, every_entry):
            for entry, result, proofs, want in _damaged(rng, req, index, *search_with_proof(index, req), every_entry):
                verdict = verify(req, result, proofs, km)
                assert verdict == _verify_per_proof(req, result, proofs, km) == want, (entry, req, proofs)
                seen.add(verdict.reason)
                fired[entry] += 1

        for _ in range(60):
            query = rng.choice(words) if rng.random() < 0.3 else mutate(rng.choice(words), rng)
            if query:
                check(make_request(query, rng.choice((0, 1)), km), rng.random() < 0.25)
        for _ in range(5):  # the entries that need several records, whatever the draws above gave
            check(_fuzzy_transcript(km, index, corpus, rng)[0], True)
        assert seen == set(VerdictReason)
        assert len(fired) == 26 and fired["hit flag flipped"] > 50, fired  # every entry, and many flags
        # an exact hit claimed on an empty request, which has no proof 0
        empty = SearchRequest(trapdoors=(), k=0)
        assert verify(empty, ResultSet(records=[], exact_hit=False), [], km) == ACCEPTED
        assert verify(empty, ResultSet(records=[], exact_hit=True), [], km) == Verdict(False, EXACT, 0)

    def test_records_merged_into_one_blob_are_rejected(self, km):
        """The record digest frames the count and each record's length, so one hit's
        records merged into one blob fail ``verify`` itself, before any decryption."""
        index = build_auth_trie({"castle": [b"F1", b"F2", b"F3"]}, 1, km)
        req = make_request("castle", 1, km)
        result, proofs = search_with_proof(index, req)
        assert result.exact_hit and len(result.records) == 3
        forged = result._replace(records=[b"".join(result.records)])
        assert verify(req, forged, proofs, km) == Verdict(False, VerdictReason.LEAF_TAG_MISMATCH, 0)

    def test_every_merge_and_resplit_of_a_hits_records_is_rejected(self, km):
        """Seeded hits of 2-5 records, exact and fuzzy: merging any run of adjacent
        records of a hit, splitting any record in two, and moving any boundary
        between two records by any number of bytes are each rejected at that hit."""
        rng = random.Random(5297)
        corpus = {word: [b"F%d" % i for i in range(rng.randint(2, 5))] for word in random_corpus(rng, size=30, lo=4, hi=6)}
        index = build_auth_trie(corpus, 1, km)
        checked, sizes = 0, Counter()
        for word in sorted(corpus)[:12]:
            for query in (word, mutate(word, rng)):
                req = make_request(query, 1, km)
                result, proofs = search_with_proof(index, req)
                assert verify(req, result, proofs, km).accepted
                records, pos = result.records, 0
                for i, proof in enumerate(proofs):
                    if not _is_hit(proof):
                        continue
                    n = fields(proof)["count"]
                    own, before, after = records[pos : pos + n], records[:pos], records[pos + n :]
                    pos += n
                    if not 2 <= n <= 5:
                        continue
                    sizes[n] += 1
                    forgeries = []
                    for a in range(n):
                        for b in range(a + 2, n + 1):  # records a..b-1 merged
                            forgeries.append(own[:a] + [b"".join(own[a:b])] + own[b:])
                        for cut in range(1, len(own[a])):  # record a split in two
                            forgeries.append(own[:a] + [own[a][:cut], own[a][cut:]] + own[a + 1 :])
                    for a in range(n - 1):  # the boundary between records a and a+1 moved
                        pair = own[a] + own[a + 1]
                        for cut in range(1, len(pair)):
                            if cut != len(own[a]):
                                forgeries.append(own[:a] + [pair[:cut], pair[cut:]] + own[a + 2 :])
                    for forged in forgeries:
                        sent = result._replace(records=before + forged + after)
                        assert verify(req, sent, proofs, km) == Verdict(False, VerdictReason.LEAF_TAG_MISMATCH, i)
                    checked += len(forgeries)
        assert set(sizes) == {2, 3, 4, 5} and checked > 2000, (sizes, checked)

    def test_a_second_verify_runs_no_import_statement(self, km, small_world, monkeypatch):
        """``verify`` binds ``hmac.compare_digest`` on its first call; later calls import nothing."""
        corpus, index = small_world
        req = make_request(sorted(corpus)[0], 1, km)
        transcript = (req, *search_with_proof(index, req), km)
        assert verify(*transcript).accepted
        imported, real_import = [], builtins.__import__

        def spy(name, *args, **kwargs):
            imported.append(name)
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", spy)
        verdict = verify(*transcript)
        monkeypatch.undo()
        assert verdict.accepted and imported == []


    def test_rollback_to_an_older_build_is_the_documented_gap(self, km):
        """The tags bind no build, so a server answering from an older build
        under the same keys passes ``verify``: here it hides a file added since."""
        req = make_request("castle", 1, km)
        current, _ = search_with_proof(build_auth_trie({"castle": [b"F1", b"F2"]}, 1, km), req)
        stale, proofs = search_with_proof(build_auth_trie({"castle": [b"F1"]}, 1, km), req)
        assert len(current.records) == 2 and len(stale.records) == 1
        assert verify(req, stale, proofs, km) == Verdict(True, VerdictReason.OK)


    def test_no_present_trapdoor_is_absent_through_any_gap(self, km):
        """Exhaustive over a small index: every entry against every gap tag, and against
        the pair that skips it with a made-up or a neighbouring gap's tag."""
        index = build_auth_trie({"cat": [b"F1"], "dog": [b"F2"], "cart": [b"F3"], "bat": [b"F4"]}, 1, km)
        keys = sorted(index.table)
        n = len(keys)
        ends = [b""] + keys + [b""]
        gaps = [miss(ends[g], ends[g + 1], index.tags[(n + g) * TAG_BYTES : (n + g + 1) * TAG_BYTES])
                for g in range(n + 1)]
        empty = ResultSet(records=[], exact_hit=False)
        assert n > 20
        for j, t in enumerate(keys):
            req = SearchRequest((t,), 0)
            # the pair the gap would have if t were not stored, with a made-up or a neighbouring gap's tag
            skips = [miss(ends[j], ends[j + 2], fields(gap)["tag"]) for gap in (gaps[j], gaps[j + 1])]
            skips.append(miss(ends[j], ends[j + 2], bytes(16)))
            for lie in gaps + skips:
                verdict = verify(req, empty, [lie], km)
                assert not verdict.accepted and verdict.failing_index == 0, lie
        # while each gap proves the trapdoors that really lie inside it
        for gap in gaps:
            left, right = fields(gap)["left"], fields(gap)["right"]
            lo = int.from_bytes(left, "big") if left else -1
            hi = int.from_bytes(right, "big") if right else 1 << 160
            if hi - lo > 1:
                inside = SearchRequest(((lo + 1).to_bytes(20, "big"),), 0)
                assert verify(inside, empty, [gap], km).accepted

    def test_forged_exact_flag_on_another_keywords_variant_rejected(self, km):
        # "cat" is no keyword here, but its trapdoor is the entry of cart's
        # deletion variant; claiming an exact hit there would drop bat and cut
        index = build_auth_trie({"cart": [b"F1"], "bat": [b"F2"], "cut": [b"F3"]}, 1, km, "gram")
        req = make_request("cat", 1, km, "gram")
        result, proofs = search_with_proof(index, req)
        assert not result.exact_hit and verify(req, result, proofs, km).accepted
        assert fields(proofs[0])["flag"] == 0
        assert {decrypt_record(km, r)[1] for r in result.records} == {"cart", "bat", "cut"}
        forged = ResultSet(records=list(index.records(req.trapdoors[0])), exact_hit=True)
        assert verify(req, forged, proofs[:1], km) == Verdict(False, VerdictReason.EXACT_FLAG_MISMATCH, 0)
        assert verify(req, forged, proofs, km) == Verdict(False, VerdictReason.COUNT_MISMATCH)


    def test_exact_hit_on_an_entry_shared_with_a_variant_accepted(self, km):
        # the entry of "cat" also holds cart's records (its deletion variant),
        # sorted first; the exact hit is honest and must verify
        index = build_auth_trie({"cat": [b"F1"], "cart": [b"F2"]}, 1, km, "gram")
        req = make_request("cat", 1, km, "gram")
        result, proofs = search_with_proof(index, req)
        assert result.exact_hit
        assert [decrypt_record(km, r)[1] for r in result.records] == ["cart", "cat"]
        assert verify(req, result, proofs, km).accepted
        # one proof, though later trapdoors are hits whose records the exact answer leaves out
        assert [t for t in req.trapdoors[1:] if t in index.table]
        assert len(proofs) == 1 and fields(proofs[0])["flag"] == 1 and fields(proofs[0])["count"] == 2
        full = [_reference_proof(index.tags, index, t) for t in req.trapdoors]
        assert verify(req, result, full, km) == Verdict(False, VerdictReason.COUNT_MISMATCH)


    def test_a_request_that_repeats_a_hit_trapdoor_verifies(self, km):
        """The result holds a repeated hit's records once per time, as the proofs
        hold its digest, so an honest answer verifies."""
        index = build_auth_trie({"castle": [b"F1"], "cattle": [b"F2"]}, 1, km)
        req = make_request("catle", 1, km)
        hits = [t for t in req.trapdoors if t in index.table]
        assert hits and not any(t in index.exact for t in hits)
        repeated = SearchRequest(req.trapdoors + (hits[0],), req.k)
        result, proofs = search_with_proof(index, repeated)
        assert result.records == [r for t in repeated.trapdoors for r in index.records(t)]
        assert verify(repeated, result, proofs, km) == Verdict(True, VerdictReason.OK)



def _v1_encoding(matched_len: int, depth: int) -> bytes:
    """A proof as the v1 encoder wrote it: matched_len, packed match bits,
    then the length-prefixed r1 (and a full match's tag and digest)."""
    full = matched_len == depth
    bits = matched_len if full else matched_len + 1
    value = ((1 << matched_len) - 1) << (bits - matched_len)
    size = (bits + 7) // 8
    out = bytes([matched_len]) + (value << (8 * size - bits)).to_bytes(size, "big")
    for _ in range(3 if full else 1):
        out += bytes([32]) + bytes(range(32))
    return out


class TestProofWire:
    def test_truncated_encoding(self, km, small_world):
        corpus, index = small_world
        _, hits = search_with_proof(index, make_request(sorted(corpus)[0], 0, km))
        _, misses = search_with_proof(index, make_request("zzzzzzzz", 0, km))
        width = TRAPDOOR_BYTES
        head, tail = search_with_proof(index, SearchRequest((bytes(width), b"\xff" * width), 0))[1]
        for proof in hits + misses + [head, tail]:
            buf = encode_proof(proof)
            for n in range(len(buf)):
                with pytest.raises(Truncated):
                    decode_proof(buf[:n])
            with pytest.raises(Truncated):
                decode_proof(buf + b"\x00")

    def test_a_protocol_4_hit_fails_to_decode(self, km, small_world):
        """A protocol 4 hit carried its record digest between its count and its tag: 52 bytes."""
        corpus, index = small_world
        req = make_request(sorted(corpus)[0], 0, km)
        result, (proof,) = search_with_proof(index, req)
        assert result.exact_hit and len(proof) == 20
        old = proof[:4] + framed_digest(result.records) + proof[4:]
        assert len(old) == 52
        with pytest.raises(Truncated, match="trailing bytes after proof"):
            decode_proof(old)

    def test_v1_proofs_and_unknown_forms_fail_to_decode(self):
        for depth in (1, 40, 160, 254):
            for matched_len in {0, 1, depth // 2, depth - 1, depth}:
                with pytest.raises(Truncated, match="unknown proof type"):
                    decode_proof(_v1_encoding(matched_len, depth), depth)
        for form in range(3, 256):
            with pytest.raises(Truncated, match="unknown proof form"):
                decode_proof(bytes([0xFF, form]) + bytes(64))

    def test_hostile_bytes_and_proofs_end_in_truncated_or_rejection(self, km, small_world):
        """2,000 seeded byte strings through decode_proof, then 2,000 seeded
        items, most of them proof-like bytes, straight into verify: each is
        Truncated or a rejecting Verdict, and only the honest proof passes."""
        corpus, index = small_world
        rng = random.Random(165)
        req, result, proofs = _fuzzy_transcript(km, index, corpus, rng)
        keys = sorted(index.table)
        outcomes = {"truncated": 0, "rejected": 0}

        def field():
            return rng.choice([
                b"", rng.randbytes(rng.choice([1, 19, 20, 21, 31, 32, 33, 255])),
                rng.choice(keys), rng.choice(req.trapdoors), fields(rng.choice(proofs))["tag"],
            ])

        def check(proof):
            i = rng.randrange(len(proofs))
            tampered = list(proofs)
            tampered[i] = proof
            verdict = verify(req, result, tampered, km)
            assert verdict.accepted == (proof == proofs[i]), proof
            outcomes["rejected"] += not verdict.accepted

        for _ in range(2000):
            roll = rng.random()
            if roll < 0.3:
                buf = rng.randbytes(rng.randrange(100))
            else:  # past the type byte, with a chosen form and field lengths
                form = rng.choice([0, 1, 2, 2, 3, 0x80])
                buf = bytes([0xFF, form])
                if form == 2:
                    for _ in range(2):
                        end = field()
                        size = len(end) if rng.random() < 0.8 else rng.randrange(256)
                        buf += bytes([size]) + end
                    buf += field()
                else:
                    buf += field() + field()
                if rng.random() < 0.2:
                    buf = buf[: rng.randrange(len(buf) + 1)]
            try:
                proof = decode_proof(buf)
            except Truncated:
                outcomes["truncated"] += 1
                continue
            check(proof)
        for _ in range(2000):
            roll = rng.random()
            if roll < 0.1:
                check(rng.choice([None, "", "x", rng.choice(proofs).hex(), 0, 7, -1, True]))
            elif roll < 0.55:
                extra = field() if rng.random() < 0.1 else b""  # a hit with an end after it
                digest = field() if rng.random() < 0.1 else b""  # a hit with a record digest, as protocol 4 sent
                check(hit(rng.choice([0, 1, 1, 2, 3, 255]), rng.randrange(4), digest + field()) + extra)
            else:
                digest = field() if rng.random() < 0.1 else b""  # a miss with a record digest
                check(miss(field(), field(), digest + field()))
        assert outcomes["truncated"] > 500 and outcomes["rejected"] > 2000
