import dataclasses
import random

import pytest

from conftest import mutate, random_corpus
from fzsearch import (
    EditBoundExceeded,
    EncryptedRecord,
    Proof,
    ResultSet,
    VerdictReason,
    build_auth_trie,
    decrypt_record,
    make_request,
    search_trie,
    search_with_proof,
    symbolize,
    verify,
)
from fzsearch.errors import Truncated
from fzsearch.persist import dumps_index, loads_index
from fzsearch.verifiable import (
    R1_BYTES,
    _pack_bits,
    _unpack_bits,
    chain_r1,
    decode_proof,
    encode_proof,
    root_r1,
)


@pytest.fixture(scope="module")
def small_world(km):
    rng = random.Random(107)
    corpus = random_corpus(rng, size=40, lo=3, hi=6)
    return corpus, build_auth_trie(corpus, 1, km)


def _fuzzy_transcript(km, index, corpus, rng, min_full=2):
    """An honest non-exact transcript with at least ``min_full`` full matches."""
    words = sorted(corpus)
    while True:
        query = mutate(rng.choice(words), rng)
        if not query or query in corpus:
            continue
        req = make_request(query, 1, km)
        result, proofs = search_with_proof(index, req)
        full = sum(1 for p in proofs if p.matched_len == index.depth)
        if not result.exact_hit and full >= min_full and len(result.records) >= 2:
            return req, result, proofs


class TestChain:
    def test_r1_recomputable_from_path(self, km, small_world):
        _, built = small_world
        mask = (1 << km.symbol_bits) - 1
        for index in (built, loads_index(dumps_index(built))):
            # every node against the chain recomputed from its own path
            expect = {(0, 0): root_r1(km.record_key)}
            count = 0
            for node in index.nodes():
                if node.depth:
                    parent = expect[node.depth - 1, node.prefix >> km.symbol_bits]
                    expect[node.depth, node.prefix] = chain_r1(
                        km.record_key, node.depth, node.prefix & mask, parent
                    )
                assert node.r1 == expect[node.depth, node.prefix]
                count += 1
            assert count == len(expect) > index.depth
            assert len(index.r1) == R1_BYTES * count
            assert len(index.tags) == R1_BYTES * len(index.table)

    def test_r1_at_rejects_nodes_outside_the_trie(self, small_world):
        _, index = small_world
        n, bits = index.symbol_bits, index.trapdoor_bits
        present = set(index.node_keys())
        missing = [(0, 1), (-1, 0), (index.depth + 1, 0), (1, 1 << n)]
        for depth, prefix in sorted(present)[1::97]:
            # a neighbour's digest must not stand in for an absent node
            missing += [(depth, p) for p in (prefix - 1, prefix + 1) if (depth, p) not in present]
        first = index.ordered[0]
        missing += [(index.depth, first + 1), (index.depth, first - 1), (index.depth, -1)]
        missing = [key for key in missing if key not in present]
        assert len(missing) > 10
        for depth, prefix in missing:
            with pytest.raises(KeyError):
                index.r1_at(depth, prefix)
        with pytest.raises(KeyError):
            index.tag_at((first + 1).to_bytes(bits // 8, "big"))

    def test_empty_index_answers_verifiable_proofs(self, km):
        built = build_auth_trie({}, 1, km)
        assert len(built.r1) == R1_BYTES and not built.tags
        for index in (built, loads_index(dumps_index(built))):
            req = make_request("castle", 1, km)
            result, proofs = search_with_proof(index, req)
            assert result.records == [] and not result.exact_hit
            assert all(p.matched_len == 0 and p.last_r1 == root_r1(km.record_key) for p in proofs)
            assert verify(req, result, proofs, km).accepted

    def test_r1_globally_unique_on_500_keywords(self, km):
        rng = random.Random(109)
        corpus = random_corpus(rng, size=500)
        index = build_auth_trie(corpus, 1, km)
        seen = set()
        count = 0
        for node in index.nodes():
            seen.add(node.r1)
            count += 1
        assert len(seen) == count

    def test_deterministic_serialization(self, km, small_world):
        corpus, index = small_world
        again = build_auth_trie(corpus, 1, km)
        assert dumps_index(index) == dumps_index(again)

    def test_leaves_tagged_internal_nodes_not(self, small_world):
        _, index = small_world
        for node in index.nodes():
            if node.records:
                assert node.tag is not None and not node.children
            else:
                assert node.tag is None


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
            assert [r.blob for r in with_proof.records] == [r.blob for r in plain.records]

    def test_unmatched_proof_shape(self, km, small_world):
        _, index = small_world
        req = make_request("zzzzzzzz", 0, km)
        result, proofs = search_with_proof(index, req)
        assert result.records == []
        (proof,) = proofs
        assert proof.match_bits[-1] == 0
        assert proof.matched_len == len(proof.match_bits) - 1 < index.depth
        assert proof.leaf_tag is None and proof.record_digest is None

    def test_full_match_proof_shape(self, km, small_world):
        corpus, index = small_world
        word = sorted(corpus)[0]
        _, proofs = search_with_proof(index, make_request(word, 0, km))
        (proof,) = proofs
        assert proof.match_bits == (1,) * index.depth
        assert proof.leaf_tag is not None and proof.record_digest is not None

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

    def test_every_record_byte_flip_rejected(self, km, small_world):
        corpus, index = small_world
        rng = random.Random(137)
        req, result, proofs = _fuzzy_transcript(km, index, corpus, rng)
        target = rng.randrange(len(result.records))
        blob = result.records[target].blob
        for i in range(len(blob)):
            flipped = bytearray(blob)
            flipped[i] ^= 0x01
            mutated = list(result.records)
            mutated[target] = EncryptedRecord(bytes(flipped[:12]), bytes(flipped[12:]))
            tampered = dataclasses.replace(result, records=mutated)
            verdict = verify(req, tampered, proofs, km)
            assert not verdict.accepted
            assert verdict.reason is VerdictReason.LEAF_TAG_MISMATCH, i

    def test_foreign_r1_rejected(self, km, small_world):
        corpus, index = small_world
        rng = random.Random(139)
        req, result, proofs = _fuzzy_transcript(km, index, corpus, rng)
        idx = next(i for i, p in enumerate(proofs) if p.matched_len == index.depth)
        foreign = [n.r1 for n in index.nodes() if n.r1 != proofs[idx].last_r1]
        tampered = list(proofs)
        tampered[idx] = dataclasses.replace(proofs[idx], last_r1=rng.choice(foreign))
        verdict = verify(req, result, tampered, km)
        assert verdict.reason is VerdictReason.CHAIN_MISMATCH
        assert verdict.failing_index == idx

    def test_forged_full_match_rejected(self, km, small_world):
        # claiming a match for a trapdoor whose path does not exist requires a
        # chain value the server has never seen
        corpus, index = small_world
        req = make_request("qqqqqqqq", 0, km)
        result, proofs = search_with_proof(index, req)
        forged = Proof(
            matched_len=index.depth,
            match_bits=(1,) * index.depth,
            last_r1=b"\x00" * 32,
            leaf_tag=b"\x00" * 32,
            record_digest=b"\x00" * 32,
        )
        verdict = verify(req, result, [forged], km)
        assert verdict.reason is VerdictReason.CHAIN_MISMATCH

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

    def test_malformed_bit_patterns(self, km, small_world):
        corpus, index = small_world
        word = sorted(corpus)[0]
        req = make_request(word, 0, km)
        result, proofs = search_with_proof(index, req)
        bad = dataclasses.replace(proofs[0], match_bits=(1,) * (index.depth - 1) + (0,))
        assert verify(req, result, [bad], km).reason is VerdictReason.BIT_PATTERN_INVALID
        bad = dataclasses.replace(proofs[0], matched_len=index.depth + 1)
        assert verify(req, result, [bad], km).reason is VerdictReason.BIT_PATTERN_INVALID

    def test_underreported_match_is_the_documented_gap(self, km, small_world):
        # a server may claim a shorter match using a real ancestor's r1; the
        # verifier cannot refute it without knowing the trie shape
        corpus, index = small_world
        rng = random.Random(151)
        req, result, proofs = _fuzzy_transcript(km, index, corpus, rng)
        idx = next(i for i, p in enumerate(proofs) if p.matched_len == index.depth)
        symbols = symbolize(req.trapdoors[idx], km.symbol_bits)
        shorter = index.depth // 2
        r = root_r1(km.record_key)
        for depth, sym in enumerate(symbols[:shorter], start=1):
            r = chain_r1(km.record_key, depth, sym, r)
        lying = dataclasses.replace(
            proofs[idx],
            matched_len=shorter,
            match_bits=(1,) * shorter + (0,),
            last_r1=r,
            leaf_tag=None,
            record_digest=None,
        )
        tampered = list(proofs)
        tampered[idx] = lying
        # drop the hidden leaf's records to stay consistent
        victim = proofs[idx].record_digest
        kept = []
        pos = 0
        import hashlib

        for p in proofs:
            if p.matched_len != index.depth:
                continue
            digest = hashlib.sha256()
            group = []
            while pos < len(result.records):
                rec = result.records[pos]
                digest.update(rec.blob)
                group.append(rec)
                pos += 1
                if digest.digest() == p.record_digest:
                    break
            if p.record_digest != victim:
                kept.extend(group)
        hidden = dataclasses.replace(result, records=kept)
        assert verify(req, hidden, tampered, km).accepted

    def test_forged_exact_flag_on_another_keywords_variant_rejected(self, km):
        # "cat" is no keyword here, but its trapdoor is the entry of cart's
        # deletion variant; claiming an exact hit there would drop bat and cut
        index = build_auth_trie({"cart": [b"F1"], "bat": [b"F2"], "cut": [b"F3"]}, 1, km, "gram")
        req = make_request("cat", 1, km, "gram")
        result, proofs = search_with_proof(index, req)
        assert not result.exact_hit and verify(req, result, proofs, km).accepted
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
        # the full matches whose records an exact hit leaves out keep their tags checked
        later = [i for i, p in enumerate(proofs) if i and p.matched_len == index.depth]
        assert later
        for i in later:
            tampered = list(proofs)
            tampered[i] = dataclasses.replace(proofs[i], record_digest=bytes(32))
            verdict = verify(req, result, tampered, km)
            assert verdict.reason is VerdictReason.LEAF_TAG_MISMATCH and verdict.failing_index == i

    def test_sampling_still_checks_count_and_binding(self, km, small_world):
        corpus, index = small_world
        rng = random.Random(157)
        req, result, proofs = _fuzzy_transcript(km, index, corpus, rng)
        verdict = verify(req, result, proofs, km, sample_rate=0.25, rng=random.Random(1))
        assert verdict.accepted
        assert not verify(req, result, proofs[:-1], km, sample_rate=0.25).accepted
        truncated = dataclasses.replace(result, records=result.records[:-1])
        assert not verify(req, truncated, proofs, km, sample_rate=0.25).accepted


def encrypt_like(rec: EncryptedRecord) -> EncryptedRecord:
    return EncryptedRecord(nonce=rec.nonce, ciphertext=rec.ciphertext[::-1])


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
                assert decode_proof(encode_proof(proof), index.depth) == proof

    def test_truncated_encoding(self, km, small_world):
        corpus, index = small_world
        _, full = search_with_proof(index, make_request(sorted(corpus)[0], 0, km))
        _, mismatch = search_with_proof(index, make_request("zzzzzzzz", 0, km))
        for proof in full + mismatch:
            buf = encode_proof(proof)
            for n in range(len(buf)):
                with pytest.raises(Truncated):
                    decode_proof(buf[:n], index.depth)
            with pytest.raises(Truncated):
                decode_proof(buf + b"\x00", index.depth)

    def test_bit_codec_matches_per_bit_reference(self):
        def pack(bits):
            out = bytearray((len(bits) + 7) // 8)
            for i, b in enumerate(bits):
                if b:
                    out[i // 8] |= 0x80 >> (i % 8)
            return bytes(out)

        def unpack(buf, count):
            return tuple((buf[i // 8] >> (7 - i % 8)) & 1 for i in range(count))

        rng = random.Random(167)
        for _ in range(2000):
            count = rng.randint(0, 45)
            roll = rng.random()
            if roll < 0.3:  # the canonical shapes
                ones = rng.randint(0, count)
                bits = (1,) * ones + (0,) * (count - ones)
            else:  # any pattern at all
                bits = tuple(rng.randint(0, 1) for _ in range(count))
            assert _pack_bits(bits) == pack(bits), bits
            # padding bits past ``count`` may be set in a received buffer
            buf = bytes(rng.randrange(256) for _ in range((count + 7) // 8))
            assert _unpack_bits(buf, count) == unpack(buf, count), (buf, count)
            assert _unpack_bits(_pack_bits(bits), count) == bits

    def test_decoded_non_canonical_bits_rejected(self, km, small_world):
        corpus, index = small_world
        for word, k in ((sorted(corpus)[0], 0), ("zzzzzzzz", 0)):
            req = make_request(word, k, km)
            result, proofs = search_with_proof(index, req)
            buf = bytearray(encode_proof(proofs[0]))
            buf[1] ^= 0x80  # flip the first match bit
            decoded = decode_proof(bytes(buf), index.depth)
            assert decoded.match_bits != proofs[0].match_bits
            verdict = verify(req, result, [decoded], km)
            assert verdict.reason is VerdictReason.BIT_PATTERN_INVALID
