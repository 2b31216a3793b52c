import dataclasses
import hashlib
import hmac
import random

import pytest

from conftest import mutate, random_corpus
from fzsearch import (
    EditBoundExceeded,
    Proof,
    ResultSet,
    SearchRequest,
    Verdict,
    VerdictReason,
    build_auth_trie,
    decrypt_record,
    make_request,
    search_trie,
    search_with_proof,
    verify,
)
from fzsearch.crypto import record_digest
from fzsearch.errors import AuthFailure, Truncated
from fzsearch.persist import dumps_index, loads_index
from fzsearch.verifiable import TAG_BYTES, decode_proof, encode_proof, gap_tag


@pytest.fixture(scope="module")
def small_world(km):
    rng = random.Random(107)
    corpus = random_corpus(rng, size=40, lo=3, hi=6)
    return corpus, build_auth_trie(corpus, 1, km)


def _fuzzy_transcript(km, index, corpus, rng, min_full=2):
    """An honest non-exact transcript with at least ``min_full`` hits."""
    words = sorted(corpus)
    while True:
        query = mutate(rng.choice(words), rng)
        if not query or query in corpus:
            continue
        req = make_request(query, 1, km)
        result, proofs = search_with_proof(index, req)
        full = sum(1 for p in proofs if p.hit)
        if not result.exact_hit and full >= min_full and len(result.records) >= 2:
            return req, result, proofs


def _hmac_tag(key: bytes, msg: bytes) -> bytes:
    """The first HMAC-SHA256 block of counter-mode ``prf_bytes``, from the stdlib."""
    return hmac.new(key, msg + bytes(4), "sha256").digest()


def _reference_tags(key: bytes, index) -> bytes:
    """Leaf tags, then gap tags, computed straight from the definitions."""
    keys = sorted(index.table)
    leaves = [
        _hmac_tag(key, b"L:" + t + bytes([t in index.exact]) + hashlib.sha256(
            b"".join(index.table[t])).digest())
        for t in keys
    ]
    ends = [b""] + keys + [b""]
    gaps = [
        _hmac_tag(key, b"G:" + bytes([len(a), len(b)]) + a + b)
        for a, b in zip(ends, ends[1:])
    ]
    return b"".join(leaves + gaps)


def _reference_proof(tags: bytes, index, t: bytes) -> Proof:
    """A proof by a linear scan over the sorted entries and reference ``tags``."""
    keys = sorted(index.table)
    if t in index.table:
        i = keys.index(t)
        tag = tags[i * TAG_BYTES : (i + 1) * TAG_BYTES]
        return Proof(tag, int(t in index.exact), record_digest(index.table[t]))
    gap = sum(1 for k in keys if k < t)
    at = (len(keys) + gap) * TAG_BYTES
    left = keys[gap - 1] if gap else b""
    right = keys[gap] if gap < len(keys) else b""
    return Proof(tags[at : at + TAG_BYTES], left=left, right=right)


def _hidden(result: ResultSet, proofs, victim: int) -> ResultSet:
    """``result`` without the records of hit ``victim``."""
    kept, pos = [], 0
    for i, p in enumerate(proofs):
        if not p.hit:
            continue
        digest, group = hashlib.sha256(), []
        while pos < len(result.records):
            rec = result.records[pos]
            digest.update(rec)
            group.append(rec)
            pos += 1
            if digest.digest() == p.record_digest:
                break
        if i != victim:
            kept.extend(group)
    return dataclasses.replace(result, records=kept)


class TestChain:
    """The gap tags chain each sorted entry to the next; the leaf tags bind each entry."""

    def test_tags_recomputable_from_entries(self, km, small_world):
        _, built = small_world
        for index in (built, loads_index(dumps_index(built))):
            assert index.tags == _reference_tags(km.record_key, index)
            assert len(index.tags) == TAG_BYTES * (2 * len(index.table) + 1)

    def test_empty_index_answers_verifiable_proofs(self, km):
        built = build_auth_trie({}, 1, km)
        assert built.tags == gap_tag(km.record_key, b"", b"")
        for index in (built, loads_index(dumps_index(built))):
            req = make_request("castle", 1, km)
            result, proofs = search_with_proof(index, req)
            assert result.records == [] and not result.exact_hit
            assert all(p == Proof(built.tags) for p in proofs)
            assert verify(req, result, proofs, km).accepted

    def test_head_and_tail_gaps_accept(self, km, small_world):
        _, index = small_world
        width = index.trapdoor_bits // 8
        first, last = index.ordered[0], index.ordered[-1]
        lo, hi = int.from_bytes(first, "big"), int.from_bytes(last, "big")
        below = [(lo - 1).to_bytes(width, "big"), bytes(width)]
        above = [(hi + 1).to_bytes(width, "big"), b"\xff" * width]
        req = SearchRequest(tuple(below + above), 0)
        result, proofs = search_with_proof(index, req)
        assert [(p.left, p.right) for p in proofs[:2]] == [(b"", first)] * 2
        assert [(p.left, p.right) for p in proofs[2:]] == [(last, b"")] * 2
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

    def test_deterministic_serialization(self, km, small_world):
        corpus, index = small_world
        again = build_auth_trie(corpus, 1, km)
        assert dumps_index(index) == dumps_index(again)


class TestSearchWithProof:
    def test_one_proof_per_trapdoor(self, km, small_world):
        corpus, index = small_world
        for word in list(corpus)[:5]:
            req = make_request(word, 1, km)
            result, proofs = search_with_proof(index, req)
            assert len(proofs) == len(req.trapdoors)
            assert result.exact_hit

    def test_result_matches_plain_trie_search(self, km, small_world):
        corpus, index = small_world
        rng = random.Random(113)
        words = sorted(corpus)
        for _ in range(50):
            query = mutate(rng.choice(words), rng) or "a"
            req = make_request(query, 1, km)
            with_proof, _ = search_with_proof(index, req)
            plain = search_trie(index, req)
            assert with_proof.exact_hit == plain.exact_hit
            assert with_proof.records == plain.records

    def test_proofs_match_a_linear_scan(self, km, small_world):
        corpus, index = small_world
        rng = random.Random(114)
        keys = sorted(index.table)
        trapdoors = keys[:3] + keys[-3:] + [rng.randbytes(20) for _ in range(200)]
        trapdoors += [(int.from_bytes(t, "big") + d).to_bytes(20, "big") for t in keys[::5] for d in (-1, 1)]
        for word in sorted(corpus)[:10]:
            trapdoors += make_request(mutate(word, rng), 1, km).trapdoors
        trapdoors = tuple(dict.fromkeys(trapdoors))
        _, proofs = search_with_proof(index, SearchRequest(trapdoors, 0))
        tags = _reference_tags(km.record_key, index)
        assert proofs == [_reference_proof(tags, index, t) for t in trapdoors]
        assert sum(p.hit for p in proofs) > 10

    def test_unmatched_proof_shape(self, km, small_world):
        _, index = small_world
        req = make_request("zzzzzzzz", 0, km)
        result, proofs = search_with_proof(index, req)
        assert result.records == []
        (proof,) = proofs
        assert not proof.hit and proof.record_digest == b""
        assert index.ordered.index(proof.right) == index.ordered.index(proof.left) + 1
        assert proof.left < req.trapdoors[0] < proof.right

    def test_full_match_proof_shape(self, km, small_world):
        corpus, index = small_world
        word = sorted(corpus)[0]
        req = make_request(word, 0, km)
        _, proofs = search_with_proof(index, req)
        (proof,) = proofs
        assert proof.flag == 1 and proof.left == proof.right == b""
        assert proof.record_digest == record_digest(index.table[req.trapdoors[0]])

    def test_edit_bound(self, km, small_world):
        _, index = small_world
        with pytest.raises(EditBoundExceeded):
            search_with_proof(index, make_request("cat", 2, km))


class TestVerify:
    def test_honest_transcripts_accept(self, km, small_world):
        corpus, index = small_world
        rng = random.Random(127)
        words = sorted(corpus)
        for _ in range(100):
            query = rng.choice(words) if rng.random() < 0.4 else mutate(rng.choice(words), rng)
            if not query:
                continue
            req = make_request(query, 1, km)
            result, proofs = search_with_proof(index, req)
            verdict = verify(req, result, proofs, km)
            assert verdict.accepted and verdict.reason is VerdictReason.OK, query

    def test_dropped_or_duplicated_proof(self, km, small_world):
        corpus, index = small_world
        rng = random.Random(131)
        req, result, proofs = _fuzzy_transcript(km, index, corpus, rng)
        assert verify(req, result, proofs[:-1], km).reason is VerdictReason.COUNT_MISMATCH
        assert verify(req, result, proofs + [proofs[-1]], km).reason is VerdictReason.COUNT_MISMATCH

    def test_every_proof_is_checked(self, km, small_world):
        # no sampling: a bad tag on any one proof is found at that proof
        corpus, index = small_world
        rng = random.Random(157)
        req, result, proofs = _fuzzy_transcript(km, index, corpus, rng)
        for i, proof in enumerate(proofs):
            tampered = list(proofs)
            tampered[i] = dataclasses.replace(proof, tag=bytes([proof.tag[0] ^ 1]) + proof.tag[1:])
            verdict = verify(req, result, tampered, km)
            assert not verdict.accepted and verdict.failing_index == i
            assert verdict.reason is (VerdictReason.LEAF_TAG_MISMATCH if proof.hit else VerdictReason.GAP_TAG_MISMATCH)

    def test_every_record_byte_flip_rejected(self, km, small_world):
        corpus, index = small_world
        rng = random.Random(137)
        req, result, proofs = _fuzzy_transcript(km, index, corpus, rng)
        target = rng.randrange(len(result.records))
        blob = result.records[target]
        for i in range(len(blob)):
            flipped = bytearray(blob)
            flipped[i] ^= 0x01
            mutated = list(result.records)
            mutated[target] = bytes(flipped)
            tampered = dataclasses.replace(result, records=mutated)
            verdict = verify(req, tampered, proofs, km)
            assert not verdict.accepted
            assert verdict.reason is VerdictReason.LEAF_TAG_MISMATCH, i

    def test_foreign_tags_rejected(self, km, small_world):
        corpus, index = small_world
        rng = random.Random(139)
        req, result, proofs = _fuzzy_transcript(km, index, corpus, rng)
        n = len(index.table)
        tags = [index.tags[i : i + TAG_BYTES] for i in range(0, len(index.tags), TAG_BYTES)]
        leaves, gaps = tags[:n], tags[n:]
        for i, proof in enumerate(proofs):
            pool = leaves if proof.hit else gaps
            for foreign in rng.sample([t for t in pool if t != proof.tag], 5):
                tampered = list(proofs)
                tampered[i] = dataclasses.replace(proof, tag=foreign)
                verdict = verify(req, result, tampered, km)
                expect = VerdictReason.LEAF_TAG_MISMATCH if proof.hit else VerdictReason.GAP_TAG_MISMATCH
                assert verdict.reason is expect and verdict.failing_index == i

    def test_forged_full_match_rejected(self, km, small_world):
        # claiming a hit for a trapdoor the index lacks needs a tag the server never saw
        _, index = small_world
        req = make_request("qqqqqqqq", 0, km)
        result, proofs = search_with_proof(index, req)
        assert not proofs[0].hit
        forged = Proof(bytes(32), 0, bytes(32))
        assert verify(req, result, [forged], km).reason is VerdictReason.LEAF_TAG_MISMATCH
        borrowed = Proof(index.tags[:TAG_BYTES], 0, record_digest(index.table[sorted(index.table)[0]]))
        assert verify(req, result, [borrowed], km).reason is VerdictReason.LEAF_TAG_MISMATCH

    def test_record_reorder_truncate_extend_rejected(self, km, small_world):
        corpus, index = small_world
        rng = random.Random(149)
        req, result, proofs = _fuzzy_transcript(km, index, corpus, rng)
        records = result.records
        swapped = dataclasses.replace(result, records=[records[-1]] + records[1:-1] + [records[0]])
        assert not verify(req, swapped, proofs, km).accepted
        truncated = dataclasses.replace(result, records=records[:-1])
        assert not verify(req, truncated, proofs, km).accepted
        extra = encrypt_like(records[0])
        extended = dataclasses.replace(result, records=records + [extra])
        assert verify(req, extended, proofs, km).reason is VerdictReason.LEAF_TAG_MISMATCH

    def test_record_boundaries_are_the_documented_gap(self, km):
        """The record digest hashes the blobs without length framing, so one
        hit's records merged into one blob pass ``verify``; decrypting the
        merged blob is what rejects it."""
        index = build_auth_trie({"castle": [b"F1", b"F2", b"F3"]}, 1, km)
        req = make_request("castle", 1, km)
        result, proofs = search_with_proof(index, req)
        assert result.exact_hit and len(result.records) == 3
        merged = b"".join(result.records)
        forged = dataclasses.replace(result, records=[merged])
        assert verify(req, forged, proofs, km) == Verdict(True, VerdictReason.OK)
        with pytest.raises(AuthFailure):
            decrypt_record(km, merged)

    def test_malformed_shapes(self, km, small_world):
        corpus, index = small_world
        rng = random.Random(150)
        req, result, proofs = _fuzzy_transcript(km, index, corpus, rng)
        hit = next(i for i, p in enumerate(proofs) if p.hit)
        miss = next(i for i, p in enumerate(proofs) if not p.hit and p.left and p.right)
        t, h, m = req.trapdoors[miss], proofs[hit], proofs[miss]
        bad = [
            (hit, dataclasses.replace(h, flag=2)),
            (hit, dataclasses.replace(h, flag=-1)),
            (hit, dataclasses.replace(h, record_digest=h.record_digest[:-1])),
            (hit, dataclasses.replace(h, tag=h.tag + b"\x00")),
            (hit, dataclasses.replace(h, left=m.left)),
            (miss, dataclasses.replace(m, record_digest=bytes(32))),
            (miss, dataclasses.replace(m, tag=m.tag[:-1])),
            (miss, dataclasses.replace(m, left=t)),  # an end equal to the trapdoor
            (miss, dataclasses.replace(m, right=t)),
            (miss, dataclasses.replace(m, left=m.right, right=m.left)),  # reordered
            (miss, dataclasses.replace(m, left=m.left[:-1])),  # truncated end
            (miss, dataclasses.replace(m, right=m.right + b"\x00")),
            (miss, dataclasses.replace(m, left=b"\x00" + m.left)),
        ]
        for i, proof in bad:
            tampered = list(proofs)
            tampered[i] = proof
            verdict = verify(req, result, tampered, km)
            assert verdict.reason is VerdictReason.SHAPE_INVALID and verdict.failing_index == i, proof

    def test_underreported_match_is_rejected(self, km, small_world):
        # a server that hides a hit must show a gap around a present trapdoor;
        # none exists, so no gap tag of the index, nor a made-up one, passes
        corpus, index = small_world
        rng = random.Random(151)
        req, result, proofs = _fuzzy_transcript(km, index, corpus, rng)
        idx = next(i for i, p in enumerate(proofs) if p.hit)
        t = req.trapdoors[idx]
        hidden = _hidden(result, proofs, idx)
        keys = sorted(index.table)
        j = keys.index(t)
        n = len(keys)
        ends = [b""] + keys + [b""]
        lies = [Proof(index.tags[(n + g) * TAG_BYTES : (n + g + 1) * TAG_BYTES], left=ends[g], right=ends[g + 1])
                for g in range(n + 1)]
        # the pair the gap would have if t were not stored, with a made-up or a neighbour's tag
        lies += [Proof(tag, left=ends[j], right=ends[j + 2]) for tag in (bytes(32), lies[j].tag, lies[j + 1].tag)]
        for lie in lies:
            tampered = list(proofs)
            tampered[idx] = lie
            verdict = verify(req, hidden, tampered, km)
            assert not verdict.accepted and verdict.failing_index == idx, lie

    def test_no_present_trapdoor_is_absent_through_any_gap(self, km):
        """Exhaustive over a small index: every entry against every gap tag."""
        index = build_auth_trie({"cat": [b"F1"], "dog": [b"F2"], "cart": [b"F3"], "bat": [b"F4"]}, 1, km)
        keys = sorted(index.table)
        n = len(keys)
        ends = [b""] + keys + [b""]
        gaps = [Proof(index.tags[(n + g) * TAG_BYTES : (n + g + 1) * TAG_BYTES], left=ends[g], right=ends[g + 1])
                for g in range(n + 1)]
        empty = ResultSet(records=[], exact_hit=False)
        assert n > 20
        for t in keys:
            req = SearchRequest((t,), 0)
            for gap in gaps:
                assert not verify(req, empty, [gap], km).accepted
        # while each gap proves the trapdoors that really lie inside it
        for gap in gaps:
            lo = int.from_bytes(gap.left, "big") if gap.left else -1
            hi = int.from_bytes(gap.right, "big") if gap.right else 1 << 160
            if hi - lo > 1:
                inside = SearchRequest(((lo + 1).to_bytes(20, "big"),), 0)
                assert verify(inside, empty, [gap], km).accepted

    def test_borrowed_swapped_and_truncated_pairs_rejected(self, km, small_world):
        corpus, index = small_world
        rng = random.Random(152)
        req, result, proofs = _fuzzy_transcript(km, index, corpus, rng)
        keys = sorted(index.table)
        misses = [i for i, p in enumerate(proofs) if not p.hit]
        pairs = [p for p in proofs if not p.hit]
        for i in misses:
            m = proofs[i]
            j = keys.index(m.right) if m.right else len(keys)
            lies = [q for q in pairs if (q.left, q.right) != (m.left, m.right)]  # borrowed whole
            lies += [
                dataclasses.replace(m, left=keys[j - 2]) if j >= 2 else None,  # wider pair, same tag
                dataclasses.replace(m, right=keys[j + 1]) if j + 1 < len(keys) else None,
                dataclasses.replace(m, left=b""),  # an empty end mid-list
                dataclasses.replace(m, right=b""),
                dataclasses.replace(m, left=m.right, right=m.left),
                dataclasses.replace(m, tag=m.tag[:16]),
                dataclasses.replace(m, tag=b""),
            ]
            for lie in lies:
                if lie is None or (lie.left, lie.right, lie.tag) == (m.left, m.right, m.tag):
                    continue
                tampered = list(proofs)
                tampered[i] = lie
                verdict = verify(req, result, tampered, km)
                assert not verdict.accepted and verdict.failing_index == i, lie

    def test_flipped_exact_flag_on_a_hit_rejected(self, km, small_world):
        corpus, index = small_world
        rng = random.Random(153)
        words = sorted(corpus)
        flips = 0
        for _ in range(30):
            word = rng.choice(words)
            req = make_request(word if rng.random() < 0.5 else mutate(word, rng), 1, km)
            result, proofs = search_with_proof(index, req)
            for i, proof in enumerate(proofs):
                if not proof.hit:
                    continue
                tampered = list(proofs)
                tampered[i] = dataclasses.replace(proof, flag=1 - proof.flag)
                assert not verify(req, result, tampered, km).accepted
                flips += 1
        assert flips > 50

    def test_exact_flag_must_match_proof_zero(self, km, small_world):
        corpus, index = small_world
        word = sorted(corpus)[3]
        req = make_request(word, 1, km)
        result, proofs = search_with_proof(index, req)
        assert result.exact_hit and proofs[0].flag == 1
        # flag 1 without an exact hit: the server hides the exact hit and returns the rest
        everything = ResultSet(records=[r for t in req.trapdoors for r in index.table.get(t, [])], exact_hit=False)
        verdict = verify(req, everything, proofs, km)
        assert verdict.reason is VerdictReason.EXACT_FLAG_MISMATCH and verdict.failing_index == 0
        # an exact hit without flag 1, whatever tag comes with it
        for proof in (dataclasses.replace(proofs[0], flag=0), Proof(bytes(32), 0, bytes(32))):
            verdict = verify(req, result, [proof] + proofs[1:], km)
            assert verdict.reason is VerdictReason.EXACT_FLAG_MISMATCH and verdict.failing_index == 0
        # an exact hit claimed on a miss
        fuzzy_req, fuzzy, fuzzy_proofs = _fuzzy_transcript(km, index, corpus, random.Random(154))
        claimed = dataclasses.replace(fuzzy, exact_hit=True)
        assert verify(fuzzy_req, claimed, fuzzy_proofs, km).reason is VerdictReason.EXACT_FLAG_MISMATCH

    def test_forged_exact_flag_on_another_keywords_variant_rejected(self, km):
        # "cat" is no keyword here, but its trapdoor is the entry of cart's
        # deletion variant; claiming an exact hit there would drop bat and cut
        index = build_auth_trie({"cart": [b"F1"], "bat": [b"F2"], "cut": [b"F3"]}, 1, km, "gram")
        req = make_request("cat", 1, km, "gram")
        result, proofs = search_with_proof(index, req)
        assert not result.exact_hit and verify(req, result, proofs, km).accepted
        assert proofs[0].flag == 0
        assert {decrypt_record(km, r)[1] for r in result.records} == {"cart", "bat", "cut"}
        forged = ResultSet(records=list(index.table[req.trapdoors[0]]), exact_hit=True)
        verdict = verify(req, forged, proofs, km)
        assert not verdict.accepted
        assert verdict.reason is VerdictReason.EXACT_FLAG_MISMATCH and verdict.failing_index == 0

    def test_exact_hit_on_an_entry_shared_with_a_variant_accepted(self, km):
        # the entry of "cat" also holds cart's records (its deletion variant),
        # sorted first; the exact hit is honest and must verify
        index = build_auth_trie({"cat": [b"F1"], "cart": [b"F2"]}, 1, km, "gram")
        req = make_request("cat", 1, km, "gram")
        result, proofs = search_with_proof(index, req)
        assert result.exact_hit
        assert [decrypt_record(km, r)[1] for r in result.records] == ["cart", "cat"]
        assert verify(req, result, proofs, km).accepted
        # the hits whose records an exact hit leaves out keep their tags checked
        later = [i for i, p in enumerate(proofs) if i and p.hit]
        assert later
        for i in later:
            tampered = list(proofs)
            tampered[i] = dataclasses.replace(proofs[i], record_digest=bytes(32))
            verdict = verify(req, result, tampered, km)
            assert verdict.reason is VerdictReason.LEAF_TAG_MISMATCH and verdict.failing_index == i


def encrypt_like(rec: bytes) -> bytes:
    """A record of the same length and nonce whose ciphertext is reversed."""
    return rec[:12] + rec[12:][::-1]


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
    def test_round_trip(self, km, small_world):
        corpus, index = small_world
        rng = random.Random(163)
        words = sorted(corpus)
        for _ in range(50):
            query = mutate(rng.choice(words), rng) or "aa"
            req = make_request(query, 1, km)
            _, proofs = search_with_proof(index, req)
            for proof in proofs:
                buf = encode_proof(proof)
                assert len(buf) == (66 if proof.hit else 4 + len(proof.left) + len(proof.right) + TAG_BYTES)
                assert decode_proof(buf) == decode_proof(buf, index.depth) == proof

    def test_truncated_encoding(self, km, small_world):
        corpus, index = small_world
        _, hits = search_with_proof(index, make_request(sorted(corpus)[0], 0, km))
        _, misses = search_with_proof(index, make_request("zzzzzzzz", 0, km))
        width = index.trapdoor_bits // 8
        head, tail = search_with_proof(index, SearchRequest((bytes(width), b"\xff" * width), 0))[1]
        for proof in hits + misses + [head, tail]:
            buf = encode_proof(proof)
            for n in range(len(buf)):
                with pytest.raises(Truncated):
                    decode_proof(buf[:n])
            with pytest.raises(Truncated):
                decode_proof(buf + b"\x00")

    def test_v1_proofs_and_unknown_forms_fail_to_decode(self):
        for depth in (1, 40, 160, 254):
            for matched_len in {0, 1, depth // 2, depth - 1, depth}:
                with pytest.raises(Truncated, match="unknown proof type"):
                    decode_proof(_v1_encoding(matched_len, depth), depth)
        for form in range(3, 256):
            with pytest.raises(Truncated, match="unknown proof form"):
                decode_proof(bytes([0xFF, form]) + bytes(64))

    def test_hostile_bytes_and_proofs_end_in_truncated_or_rejection(self, km, small_world):
        """2,000 seeded byte strings through decode_proof, and random Proof
        values through verify: each is Truncated or a rejecting Verdict."""
        corpus, index = small_world
        rng = random.Random(165)
        req, result, proofs = _fuzzy_transcript(km, index, corpus, rng)
        keys = sorted(index.table)
        outcomes = {"truncated": 0, "rejected": 0}

        def field():
            return rng.choice([
                b"", rng.randbytes(rng.choice([1, 19, 20, 21, 31, 32, 33, 255])),
                rng.choice(keys), rng.choice(req.trapdoors), rng.choice(proofs).tag,
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
            hit = rng.random() < 0.5
            check(Proof(
                tag=field(),
                flag=rng.choice([0, 1, 1, 2, -1, 255, True]) if hit else None,
                record_digest=field() if hit or rng.random() < 0.1 else b"",
                left=field() if not hit or rng.random() < 0.1 else b"",
                right=field() if not hit or rng.random() < 0.1 else b"",
            ))
        assert outcomes["truncated"] > 500 and outcomes["rejected"] > 2000
