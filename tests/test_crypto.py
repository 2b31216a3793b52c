import dataclasses
import hashlib
import hmac
import random
import threading

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

import fzsearch.crypto as crypto
import fzsearch.verifiable as verifiable
from conftest import gap_tag, leaf_tag, random_corpus, reference_record_cipher, reference_tag_key
from fzsearch import (
    AuthFailure,
    BadParameter,
    KeyMaterial,
    build_auth_trie,
    decrypt_record,
    encrypt_record,
    keygen,
    make_request,
    prp,
    search_with_proof,
    trapdoor,
    verify,
    wildcard_fuzzy_set,
)
from fzsearch.commands import derive_user_key
from fzsearch.crypto import (
    _PRP_CACHED_LENGTHS,
    MAX_VARIANTS,
    RECORD_MIN_BYTES,
    SYMBOL_BITS,
    TRAPDOOR_BITS,
    _prp_layout,
    aes_siv,
    prf_bytes,
    prf_many,
    sha256,
)


class TestKeygen:
    def test_seeded_is_deterministic(self):
        assert keygen(128, seed=b"S") == keygen(128, seed=b"S")
        assert keygen(128, seed=b"S") != keygen(128, seed=b"T")

    def test_unseeded_keys_distinct(self):
        seen = {keygen(128).trapdoor_key for _ in range(1000)}
        assert len(seen) == 1000

    def test_defaults(self):
        km = keygen(128)
        assert len(km.trapdoor_key) == len(km.record_key) == len(km.blind_key) == 16
        assert TRAPDOOR_BITS == 160 and SYMBOL_BITS == 4 and km.depth == 40

    def test_bad_security_parameter(self):
        with pytest.raises(BadParameter):
            keygen(64)
        with pytest.raises(BadParameter):
            keygen(192)

    def test_key_material_no_key_file_can_hold_is_refused(self, km):
        """``loads_keys`` refuses a security level other than 128 or 256 and a key of
        another length than ``security_bits // 8``, so ``KeyMaterial`` holds none."""
        for make in (
            lambda: dataclasses.replace(km, security_bits=256),
            lambda: dataclasses.replace(km, blind_key=bytes(32)),
            lambda: dataclasses.replace(km, security_bits=200),
            lambda: KeyMaterial(b"", b"", b"", 128),
        ):
            with pytest.raises(BadParameter, match="do not fit security"):
                make()

    def test_keys_nonzero(self):
        km = keygen(256, seed=b"z")
        for key in (km.trapdoor_key, km.record_key, km.blind_key):
            assert any(key) and len(key) == 32


class TestTrapdoor:
    def test_deterministic_and_sized(self, km):
        t1 = trapdoor(km, "c*t")
        assert t1 == trapdoor(km, "c*t")
        assert len(t1) * 8 == 160

    def test_no_collisions_over_corpus_variants(self, km):
        rng = random.Random(71)
        corpus = random_corpus(rng, size=4500, lo=4, hi=18)
        variants = set()
        for word in corpus:
            variants.update(wildcard_fuzzy_set(word, 1))
        assert len(variants) > 100_000
        digests = {trapdoor(km, v) for v in variants}
        assert len(digests) == len(variants)

    def test_avalanche_on_key_bits(self, km):
        # flipping one key bit should flip a healthy fraction of output bits
        rng = random.Random(73)
        total_bits = 0
        diff_bits = 0
        for _ in range(1000):
            flipped = bytearray(km.trapdoor_key)
            pos = rng.randrange(len(flipped) * 8)
            flipped[pos // 8] ^= 1 << (pos % 8)
            km2 = type(km)(
                trapdoor_key=bytes(flipped),
                record_key=km.record_key,
                blind_key=km.blind_key,
                security_bits=km.security_bits,
            )
            a, b = trapdoor(km, "castle"), trapdoor(km2, "castle")
            diff_bits += sum(bin(x ^ y).count("1") for x, y in zip(a, b))
            total_bits += len(a) * 8
        assert diff_bits / total_bits >= 0.30


class TestRecords:
    def test_round_trip_all_fid_lengths(self, km):
        for n in range(1, 65):
            fid = bytes((i * 37 + 1) % 256 for i in range(n))
            rec = encrypt_record(km, fid, "castle", 0)
            assert decrypt_record(km, rec) == (fid, "castle")

    def test_nonce_is_derived(self, km):
        """The synthetic IV is derived from the plaintext: the same inputs give the
        same bytes, and another copy index (another variant's entry) another IV."""
        a = encrypt_record(km, b"F", "cat", 1)
        assert encrypt_record(km, b"F", "cat", 1) == a
        b = encrypt_record(km, b"F", "cat", 2)
        assert a[:16] != b[:16] and len(a) == len(b) == RECORD_MIN_BYTES + 2
        assert decrypt_record(km, a) == decrypt_record(km, b) == (b"F", "cat")

    def test_fid_bounds(self, km):
        with pytest.raises(BadParameter):
            encrypt_record(km, b"", "cat", 0)
        with pytest.raises(BadParameter):
            encrypt_record(km, b"x" * 65, "cat", 0)

    @pytest.mark.parametrize("copy", [-1, MAX_VARIANTS, 1 << 16])
    def test_a_copy_index_past_the_largest_fuzzy_set_is_a_parameter_error(self, km, copy):
        with pytest.raises(BadParameter, match="not a variant's position"):
            encrypt_record(km, b"F", "cat", copy)

    def test_every_byte_flip_fails_auth(self, km):
        rec = encrypt_record(km, b"file-1", "castle", 0)
        for i in range(len(rec)):  # the synthetic IV's bytes and the ciphertext's
            mutated = bytearray(rec)
            mutated[i] ^= 0x5A
            with pytest.raises(AuthFailure):
                decrypt_record(km, bytes(mutated))

    def test_truncations_fail_auth(self, km):
        rec = encrypt_record(km, b"file-1", "castle", 0)
        for n in range(len(rec)):  # short of the synthetic IV too, which no ciphertext can follow
            with pytest.raises(AuthFailure):
                decrypt_record(km, rec[:n])

    @pytest.mark.parametrize(
        "payload, message",
        [
            (b"\x00cat", "malformed"),
            (b"\x03cat", "malformed"),
            (b"\x05cat", "malformed"),
            (b"\x01F\xff", "not ASCII"),
        ],
    )
    def test_an_authentic_record_with_a_bad_payload_fails(self, km, payload, message):
        """Sealed under the records' key after a copy index, so only the payload
        checks can refuse it: a zero fid length, a fid that leaves no keyword,
        a fid length that runs past the end, or a keyword that is not ASCII."""
        blob = reference_record_cipher(km.record_key).encrypt(bytes(2) + payload, None)
        assert len(blob) >= RECORD_MIN_BYTES
        with pytest.raises(AuthFailure, match=message):
            decrypt_record(km, blob)

    def test_wrong_key_fails(self, km):
        other = keygen(128, seed=b"other")
        rec = encrypt_record(km, b"F", "cat", 0)
        with pytest.raises(AuthFailure):
            decrypt_record(other, rec)


class TestPrp:
    def test_bad_lengths(self, km):
        """Only ``TRAPDOOR_BYTES`` blocks are permuted, the 2-, 10- and 28-byte widths it once took included."""
        for blocks in (
            [b""],
            [b"odd"],
            [bytes(2)],
            [bytes(10)],
            [bytes(28)],
            [bytes(30)],
            [bytes(20), bytes(10)],
            [bytes(10), bytes(20), bytes(10)],
        ):
            with pytest.raises(BadParameter, match="20-byte trapdoors only"):
                prp(km.blind_key, blocks, "forward")
        with pytest.raises(BadParameter):
            prp(km.blind_key, [b"ok"], "sideways")

    @pytest.mark.parametrize("key", [b"", b"12345", bytes(20), bytes(33)])
    def test_key_not_fit_for_aes_is_a_parameter_error(self, key):
        with pytest.raises(BadParameter):
            prp(key, [bytes(20)], "forward")

    def test_a_long_request_is_permuted_alike_and_adds_nothing_to_the_cache(self, km):
        """``prp`` keeps its per-length constants for up to ``_PRP_CACHED_LENGTHS`` trapdoors only,
        so a client's long requests cannot grow a blinded server's memory; their blocks' images
        are those of short requests."""
        rng = random.Random(7)
        cases = []
        for n in (_PRP_CACHED_LENGTHS + 1, 500):
            blocks = [rng.randbytes(20) for _ in range(n)]
            for direction in ("forward", "inverse"):
                chunks = [blocks[i : i + _PRP_CACHED_LENGTHS] for i in range(0, n, _PRP_CACHED_LENGTHS)]
                want = tuple(image for chunk in chunks for image in prp(km.blind_key, chunk, direction))
                cases.append((blocks, direction, want))
        cached = _prp_layout.cache_info().currsize
        for blocks, direction, want in cases:
            assert prp(km.blind_key, blocks, direction) == want, (len(blocks), direction)
        assert _prp_layout.cache_info().currsize == cached

    def test_threads_at_once_give_the_serial_results(self):
        """Four threads run ``prp`` at once, each starting on its own key and
        blocks and then taking the others' in turn; every result equals the serial one."""
        rng = random.Random(2024)
        jobs = [(rng.randbytes(16), [rng.randbytes(20) for _ in range(17)]) for _ in range(4)]
        want = [(prp(key, blocks, "forward"), prp(key, blocks, "inverse")) for key, blocks in jobs]
        start = threading.Barrier(len(jobs))
        got = [[] for _ in jobs]

        def run(first):
            start.wait()
            for i in range(300):
                key, blocks = jobs[(first + i) % len(jobs)]
                got[first].append((prp(key, blocks, "forward"), prp(key, blocks, "inverse")))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        for first, results in enumerate(got):
            assert results == [want[(first + i) % len(jobs)] for i in range(300)]


@pytest.mark.parametrize("n", [0, 33, -1, 64])
def test_prf_bytes_refuses_more_than_one_block(n):
    with pytest.raises(BadParameter):
        prf_bytes(b"k", b"m", n)


@pytest.mark.parametrize("n", [0, 33, -1, 64])
def test_prf_many_refuses_more_than_one_block(n):
    with pytest.raises(BadParameter):
        prf_many(b"k", [b"m"], n)
    with pytest.raises(BadParameter):
        prf_many(b"k", [], n)


def _hmac_reference(key: bytes, msg: bytes, n: int) -> bytes:
    """The first block of HMAC-SHA256 in counter mode (counter 0), cut to ``n`` bytes."""
    return hmac.new(key, msg + bytes(4), "sha256").digest()[:n]


@pytest.mark.parametrize("key_len", [0, 1, 16, 63, 64, 65, 200])
def test_prf_many_is_the_reference_per_message(key_len):
    rng = random.Random(f"prf_many/{key_len}")
    key = rng.randbytes(key_len)
    for n in range(1, 33):
        assert prf_many(key, [], n) == []
        msg = rng.randbytes(rng.randrange(80))
        assert prf_many(key, [msg], n) == [_hmac_reference(key, msg, n)]
        msgs = [rng.randbytes(rng.randrange(130)) for _ in range(rng.randrange(2, 12))] + [b""]
        assert prf_many(key, iter(msgs), n) == [_hmac_reference(key, m, n) for m in msgs]


def test_each_use_of_the_record_key_has_its_own_label_and_the_tags_their_own_key(monkeypatch):
    """Every PRF input under the record key is one of its labels: the two halves of
    the records' AES-SIV key, the tag key, and ``U:`` and a user id for a personal
    key; none is a prefix of another.  Every leaf (``L:``) and gap (``G:``) message,
    the owner's build and the client's ``verify`` alike, is keyed by the tag key
    alone, and the tag key keys nothing else."""
    km, calls, real = keygen(128, seed=b"key-separation"), [], crypto.prf_many

    def recording(key, msgs, n):
        msgs = list(msgs)
        calls.extend((key, msg) for msg in msgs)
        return real(key, msgs, n)

    monkeypatch.setattr(crypto, "prf_many", recording)
    monkeypatch.setattr(verifiable, "prf_many", recording)
    crypto.record_cipher.cache_clear()  # so the derivations run under the recorder
    crypto.tag_key.cache_clear()
    index = build_auth_trie({"castle": [b"F1", b"F2"], "cattle": [b"F3"]}, 1, km)
    verdicts = []
    for query in ("castle", "catle", "zebra"):
        req = make_request(query, 1, km)
        result, proofs = search_with_proof(index, req)
        verdicts.append(verify(req, result, proofs, km).accepted)
        for record in result.records:
            decrypt_record(km, record)
    for uid in ("alice", "bob"):
        derive_user_key(km.record_key, uid)
    labels = [b"R:siv-s2v", b"R:siv-ctr", b"R:tag", b"U:"]  # "U:" heads every personal key's input
    assert not [(a, b) for a in labels for b in labels if a != b and b.startswith(a)]
    assert {msg for key, msg in calls if key == km.record_key} == {*labels[:3], b"U:alice", b"U:bob"}
    tag_key = reference_tag_key(km.record_key)
    assert crypto.tag_key(km.record_key) == tag_key != km.record_key
    assert {key for key, msg in calls if msg[:2] in (b"L:", b"G:")} == {tag_key}
    assert {msg[:2] for key, msg in calls if key == tag_key} == {b"L:", b"G:"}
    assert verdicts == [True] * 3


def _prp_reference(key: bytes, block: bytes, direction: str) -> bytes:
    """The textbook Feistel network on one block: a fresh AES-ECB encryptor per
    round call, its output cut to the half, and byte-wise XOR."""
    h = len(block) // 2
    left, right = block[:h], block[h:]

    def f(rnd, half):
        encryptor = Cipher(algorithms.AES(key), modes.ECB()).encryptor()
        return encryptor.update(half + bytes([rnd, h]) + bytes(14 - h))[:h]

    if direction == "forward":
        for i in range(4):
            left, right = right, bytes(a ^ b for a, b in zip(left, f(i, right)))
    else:
        for i in reversed(range(4)):
            left, right = bytes(a ^ b for a, b in zip(right, f(i, left))), left
    return left + right


def _kat_key(n: int) -> bytes:
    return bytes((7 * i + 3) % 256 for i in range(n))


# Known answers recorded from the hmac.new implementation: prf_bytes(key, b"kat-msg", 32)
# for each key length; every shorter output is a prefix.
PRF_KAT = {
    0: "a7805e00deb213e4f2f96a0adbf65e316a7b939f40c188c81c04d408b0dea602",
    1: "caf71c57a8a94477cb88c951b818f314a596393a80e0e8c7145fe90ea2463662",
    16: "8617fe8f45cf672e864c3b99248e9e00dfa5c06dab5b80eb728b4a50fcd7e3f6",
    32: "58fe7a045ecedd32c078b4bc14e99090557e6b09f637501db9f43792845ff354",
    64: "74360e62c5fe5278e99593305fed044b4c621c42d130b418d19399ba6053cb8f",
    65: "bddbf7150c1fdef806a5349677069f46aabdf4668623e5853687ebc8bfa6dbe3",
    200: "377aa22ccbb24a02f3519b145731eff2d091064c9ea0a009e1f1205ad4c5853c",
}

# block size -> (prp(_kat_key(16), [bytes(range(size))], "forward")[0], ... "inverse")
PRP_KAT = {
    20: ("a476b0967d0b41c1eae73d79df99f20b55b6bf04", "f5cb21282b480a57b950d767cc48c807ab03d080"),
}


# encrypt_record(keygen(128, seed=b"kat"), b"file-1", "castle", copy of "c*stle"): the synthetic IV, then the ciphertext
RECORD_KAT = "ee09dcef79912643f46598209720840ffe1d42c3e62c91579e1ad152a4e42a"


class TestKnownAnswers:
    def test_aes_siv_rfc5297_a1(self):
        """RFC 5297 appendix A.1, deterministic authenticated encryption, through the
        package's ``aes_siv``; the records call the same ``encrypt``, with no associated data."""
        cipher = aes_siv(bytes.fromhex("fffefdfcfbfaf9f8f7f6f5f4f3f2f1f0f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"))
        ad = bytes.fromhex("101112131415161718191a1b1c1d1e1f2021222324252627")
        plain = bytes.fromhex("112233445566778899aabbccddee")
        sealed = cipher.encrypt(plain, [ad])
        assert sealed.hex() == "85632d07c6e8f37f950acd320a2ecc9340c02b9690c4dc04daef7f6afe5c"
        assert cipher.decrypt(sealed, [ad]) == plain

    @pytest.mark.parametrize("key_len", sorted(PRF_KAT))
    def test_prf_bytes(self, key_len):
        expect = bytes.fromhex(PRF_KAT[key_len])
        for n in (1, 10, 20, 32):
            assert prf_bytes(_kat_key(key_len), b"kat-msg", n) == expect[:n], n

    def test_prf_bytes_matches_stdlib_hmac(self):
        rng = random.Random(2104)
        for _ in range(500):
            key = rng.randbytes(rng.randrange(201))
            msg = rng.randbytes(rng.randrange(80))
            n = rng.randrange(1, 33)
            assert prf_bytes(key, msg, n) == _hmac_reference(key, msg, n), (key.hex(), msg.hex(), n)

    def test_sha256_is_hashlib_sha256(self):
        """``crypto.sha256``, CPython's built-in SHA-256, gives ``hashlib``'s bytes whole,
        in split updates and through ``copy()``."""
        rng = random.Random(256)
        assert (sha256().block_size, sha256().digest_size) == (64, 32)
        for size in range(301):
            data = rng.randbytes(size)
            want = hashlib.sha256(data).digest()
            assert sha256(data).digest() == want, size
            cuts = sorted(rng.randrange(size + 1) for _ in range(rng.randrange(4)))
            h = sha256()
            for lo, hi in zip([0, *cuts], [*cuts, size]):
                h.update(data[lo:hi])
            assert h.digest() == want, (size, cuts)
            cut = rng.randrange(size + 1)
            head = sha256(data[:cut])
            fork = head.copy()
            fork.update(data[cut:])
            assert fork.digest() == want, (size, cut)
            assert head.digest() == hashlib.sha256(data[:cut]).digest(), (size, cut)

    def test_prp_matches_reference(self, km):
        """Each block's reference image, as a tuple, and the round trip either way from a
        list or a tuple; the round trip over 100,000 sequential blocks shows ``prp`` injective on them."""
        rng = random.Random(1993)
        for i in range(300):
            key = rng.randbytes((16, 24, 32)[i % 3])
            blocks = [rng.randbytes(20) for _ in range(rng.randrange(65))]
            for direction in ("forward", "inverse"):
                expect = tuple(_prp_reference(key, b, direction) for b in blocks)
                assert prp(key, blocks, direction) == expect, (key.hex(), len(blocks), direction)
            for one, other in (("forward", "inverse"), ("inverse", "forward")):
                for given in (blocks, tuple(blocks)):
                    assert prp(key, prp(key, given, one), other) == tuple(blocks), (key.hex(), one)
        for start in range(0, 100_000, 50):
            blocks = [i.to_bytes(20, "big") for i in range(start, start + 50)]
            assert prp(km.blind_key, prp(km.blind_key, blocks, "forward"), "inverse") == tuple(blocks), start

    @pytest.mark.parametrize("size", sorted(PRP_KAT))
    def test_prp(self, size):
        key, block = _kat_key(16), bytes(range(size))
        forward, inverse = (bytes.fromhex(h) for h in PRP_KAT[size])
        assert prp(key, [block], "forward") == (forward,)
        assert prp(key, [block], "inverse") == (inverse,)
        assert prp(key, [forward], "inverse") == (block,)
        assert prp(key, [inverse], "forward") == (block,)
        # a block's image does not depend on the rest of the request
        assert prp(key, [bytes(size), block, forward], "forward")[1] == forward

    def test_keyed_functions(self):
        km = keygen(128, seed=b"kat")
        assert km.trapdoor_key.hex() == "a7bb3e46941ac17193442332b93ea7fd"
        assert km.record_key.hex() == "a4ba4adeecf19ac1fc16bb2aa3151700"
        assert km.blind_key.hex() == "eca3fe8dba09b297907d42a01f2b7c63"
        assert trapdoor(km, "castle").hex() == "e33d3d01445dd2ea8978bd4fc4fd97279b5a828d"
        assert trapdoor(km, "c*stle").hex() == "9628775b4a2e5f93aa53ffe821923a1fea87fa0b"
        copy = wildcard_fuzzy_set("castle", 1).index("c*stle")
        assert encrypt_record(km, b"file-1", "castle", copy).hex() == RECORD_KAT
        key, t, u = reference_tag_key(km.record_key), trapdoor(km, "castle"), trapdoor(km, "c*stle")
        assert key.hex() == "99c0c060533443f6bf37587241c8965c"
        assert leaf_tag(key, t, 1, 1, bytes(32)).hex() == "fc54217df0f64e34ba77a666a899acf6"
        assert leaf_tag(key, t, 0, 3, bytes(32)).hex() == "a28ba8f5fb98eabc622a9c66d6700158"
        assert gap_tag(key, u, t).hex() == "a3d9b154ca0a667b66be2a06507de632"
        assert gap_tag(key, b"", t).hex() == "2dd49a057e2d6f50b5548eacb4c5ee5e"
        assert gap_tag(key, t, b"").hex() == "94717f8e2a34ba04363767e9e28b9025"
        assert gap_tag(key, b"", b"").hex() == "fda8873699df56b0735d77bdf702b3cd"
        user_key = derive_user_key(km.record_key, "alice")
        assert user_key.hex() == "2fcdeb1944ba673595968ec6ed46cf5ece3e1ddb3deee0fdc0d3b07d433281a5"
