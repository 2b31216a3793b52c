import hmac
import random
import secrets

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from conftest import random_corpus
from fzsearch import (
    AuthFailure,
    BadLength,
    BadParameter,
    decrypt_record,
    encrypt_record,
    keygen,
    prp,
    trapdoor,
    wildcard_fuzzy_set,
)
from fzsearch.cli import derive_user_key
from fzsearch.crypto import prf_bytes, record_nonce
from fzsearch.verifiable import gap_tag, leaf_tag


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
        assert km.trapdoor_bits == 160 and km.symbol_bits == 4 and km.depth == 40

    def test_bad_security_parameter(self):
        with pytest.raises(BadParameter):
            keygen(64)
        with pytest.raises(BadParameter):
            keygen(192)

    def test_geometry_guards(self):
        with pytest.raises(BadParameter):
            keygen(128, trapdoor_bits=160, symbol_bits=7)  # does not divide
        with pytest.raises(BadParameter):
            keygen(128, trapdoor_bits=160, symbol_bits=9)  # symbol wider than a byte
        with pytest.raises(BadParameter):
            keygen(128, trapdoor_bits=150)  # not a multiple of 16
        with pytest.raises(BadParameter):
            keygen(128, trapdoor_bits=240)  # a half and its two tag bytes overflow an AES block
        assert keygen(128, trapdoor_bits=224).trapdoor_bytes == 28
        km = keygen(128, trapdoor_bits=160, symbol_bits=8)
        assert km.depth == 20

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
            rec = encrypt_record(km, fid, "castle")
            assert decrypt_record(km, rec) == (fid, "castle")

    def test_fresh_nonce(self, km):
        a = encrypt_record(km, b"F", "cat")
        b = encrypt_record(km, b"F", "cat")
        assert a != b
        assert decrypt_record(km, a) == decrypt_record(km, b)

    def test_fid_bounds(self, km):
        with pytest.raises(BadParameter):
            encrypt_record(km, b"", "cat")
        with pytest.raises(BadParameter):
            encrypt_record(km, b"x" * 65, "cat")

    def test_every_byte_flip_fails_auth(self, km):
        rec = encrypt_record(km, b"file-1", "castle")
        for i in range(len(rec)):  # the nonce's bytes and the ciphertext's
            mutated = bytearray(rec)
            mutated[i] ^= 0x5A
            with pytest.raises(AuthFailure):
                decrypt_record(km, bytes(mutated))

    def test_truncations_fail_auth(self, km):
        rec = encrypt_record(km, b"file-1", "castle")
        for n in range(len(rec)):  # short of the nonce too, which no ciphertext can follow
            with pytest.raises(AuthFailure):
                decrypt_record(km, rec[:n])

    def test_wrong_key_fails(self, km):
        other = keygen(128, seed=b"other")
        rec = encrypt_record(km, b"F", "cat")
        with pytest.raises(AuthFailure):
            decrypt_record(other, rec)


class TestPrp:
    def test_forward_then_inverse_is_identity(self, km):
        rng = random.Random(1991)
        for _ in range(500):
            width = 2 * rng.randrange(1, 15)
            blocks = tuple(secrets.token_bytes(width) for _ in range(rng.randrange(1, 41)))
            assert prp(km.blind_key, prp(km.blind_key, blocks, "forward"), "inverse") == blocks
            assert prp(km.blind_key, prp(km.blind_key, list(blocks), "inverse"), "forward") == blocks

    def test_length_preserved(self, km):
        for size in (2, 10, 20, 28):
            blocks = [secrets.token_bytes(size) for _ in range(7)]
            out = prp(km.blind_key, blocks, "forward")
            assert isinstance(out, tuple) and [len(b) for b in out] == [size] * 7
        assert prp(km.blind_key, (), "forward") == ()

    def test_injective_on_large_sample(self, km):
        seen = set()
        for start in range(0, 100_000, 50):
            seen.update(prp(km.blind_key, [i.to_bytes(20, "big") for i in range(start, start + 50)], "forward"))
        assert len(seen) == 100_000

    def test_bad_lengths(self, km):
        for blocks in ([b""], [b"odd"], [bytes(30)], [bytes(20), bytes(10)], [bytes(10), bytes(20), bytes(10)]):
            with pytest.raises(BadLength):
                prp(km.blind_key, blocks, "forward")
        with pytest.raises(BadParameter):
            prp(km.blind_key, [b"ok"], "sideways")

    @pytest.mark.parametrize("key", [b"", b"12345", bytes(20), bytes(33)])
    def test_key_not_fit_for_aes_is_a_parameter_error(self, key):
        with pytest.raises(BadParameter):
            prp(key, [bytes(20)], "forward")


def test_prf_bytes_expansion():
    out1 = prf_bytes(b"k", b"m", 20)
    out2 = prf_bytes(b"k", b"m", 64)
    assert out1 == out2[:20]
    assert len(out2) == 64
    assert prf_bytes(b"k", b"m2", 20) != out1


def _hmac_reference(key: bytes, msg: bytes, n: int) -> bytes:
    out = b""
    counter = 0
    while len(out) < n:
        out += hmac.new(key, msg + counter.to_bytes(4, "big"), "sha256").digest()
        counter += 1
    return out[:n]


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


# Known answers recorded from the hmac.new implementation: prf_bytes(key, b"kat-msg", 100)
# for each key length; every shorter output is a prefix (counter mode).
PRF_KAT = {
    0: "a7805e00deb213e4f2f96a0adbf65e316a7b939f40c188c81c04d408b0dea6025fa97ff232963e8d2ed5e602f44dcdb4"
       "69f0e2e8124ab1e9c0a194762214b83ce0e8b5643623c7a373680d61fe4a1dee77257107499ade53fbbbf8ee92d748e7f811a6b2",
    1: "caf71c57a8a94477cb88c951b818f314a596393a80e0e8c7145fe90ea24636625388a2d57f33d65ee549e31502884ba0"
       "ac659b6aad39d2b9d16ec41096880579a41373661afd2e165b3a4a21eb30b5ad015df85af35c3213d9a73fd7c9e4ee576bdd86ab",
    16: "8617fe8f45cf672e864c3b99248e9e00dfa5c06dab5b80eb728b4a50fcd7e3f654ba884cd95d7a72deb2cb3575c24fe2"
        "1f171b8f4b249b4d5af8053aa046c3507b5ea6a0bdc79e2a9b6fd246d2d8d0888b91af96cac89a184d079a91e6c7fc264df3c5ce",
    32: "58fe7a045ecedd32c078b4bc14e99090557e6b09f637501db9f43792845ff3545bd6ba52ae3b899ec87ce4e92578a345"
        "77d7c161787ae92c900e5273d040d30de138fd5659ff7a069ab97fe5b735734966e0e3144aaa7e073cf34f51edfc64b8f23f954b",
    64: "74360e62c5fe5278e99593305fed044b4c621c42d130b418d19399ba6053cb8fc1cd56334052f0ee16e55bf3fd48ffe7"
        "2d6048e5a8314fc5d711a8df88151401c1ab5f6158be070380b798080812d2b26311ca1af92b5d374c7457050a59cb60ee0a8bbc",
    65: "bddbf7150c1fdef806a5349677069f46aabdf4668623e5853687ebc8bfa6dbe31d9cfacf5ebe5ec681426f295c6e0d4e"
        "605b4fe7e62d03c41abd4e8d9b87777bb14cde0a5b465569fee0a8da7c193f189c100e478cd98f488fad396f5ee211a035fbd19a",
    200: "377aa22ccbb24a02f3519b145731eff2d091064c9ea0a009e1f1205ad4c5853cbc5c4e0cef5cb8b3c798e0439fdb37b7"
         "60f6c4cf1d96582daa8841db10b69cb9b688d0d8f55e847b6a42d0cc8fad76c53ce70cad39c16ec49f7ecae1974a2fac4b386537",
}

# block size -> (prp(_kat_key(16), [bytes(range(size))], "forward")[0], ... "inverse")
PRP_KAT = {
    2: ("f3cf", "262f"),
    10: ("ae0366c22b46bbaee5b5", "c5d87ab28e4940ee80f9"),
    20: ("a476b0967d0b41c1eae73d79df99f20b55b6bf04", "f5cb21282b480a57b950d767cc48c807ab03d080"),
    28: (
        "8091b6a241086baab3bf835415c81a65074f2b60128a31473fd9b8c7",
        "23971ebeeaba5353b8d542a2dee2f01e93ad346b2fd5f3f2de674709",
    ),
}


class TestKnownAnswers:
    @pytest.mark.parametrize("key_len", sorted(PRF_KAT))
    def test_prf_bytes(self, key_len):
        expect = bytes.fromhex(PRF_KAT[key_len])
        for n in (1, 10, 20, 32, 33, 100):
            assert prf_bytes(_kat_key(key_len), b"kat-msg", n) == expect[:n], n

    def test_prf_bytes_matches_stdlib_hmac(self):
        rng = random.Random(2104)
        for _ in range(500):
            key = rng.randbytes(rng.randrange(201))
            msg = rng.randbytes(rng.randrange(80))
            n = rng.randrange(1, 100)
            assert prf_bytes(key, msg, n) == _hmac_reference(key, msg, n), (key.hex(), msg.hex(), n)

    def test_prp_matches_reference(self):
        rng = random.Random(1993)
        for i in range(300):
            key = rng.randbytes((16, 24, 32)[i % 3])
            width = 2 * rng.randrange(1, 15)
            blocks = [rng.randbytes(width) for _ in range(rng.randrange(65))]
            for direction in ("forward", "inverse"):
                expect = tuple(_prp_reference(key, b, direction) for b in blocks)
                assert prp(key, blocks, direction) == expect, (key.hex(), width, len(blocks), direction)

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
        assert record_nonce(km, "c*stle", "castle", b"file-1").hex() == "83d8a1beb61ea85bd8787eca"
        key, t, u = km.record_key, trapdoor(km, "castle"), trapdoor(km, "c*stle")
        assert leaf_tag(key, t, 1, bytes(32)).hex() == "34165b7238314bd8ec88705930b6fee9551553af54c538113a2a46f5a891a5e8"
        assert leaf_tag(key, t, 0, bytes(32)).hex() == "62bb0bd29f2c74aca8976db7d2f98731f5db77260349f3daf94b4456ca5eb403"
        assert gap_tag(key, u, t).hex() == "cb29089711dd860d0baa4b0e7113a2fff9f8a7140407fe5c05e4957ea85848e6"
        assert gap_tag(key, b"", t).hex() == "bc5f3f239c117c70d568d457af99024145d3722be0a4d684b91319d5ddfe0e9f"
        assert gap_tag(key, t, b"").hex() == "91111dbd9fadb8ce193892ddf5280606f84c05c2162bd3a61e641a7e265b11ff"
        assert gap_tag(key, b"", b"").hex() == "1e86d5848e6007114d97d67e8e71966680f4fddbb26e3c47bef36012ecf984f7"
        user_key = derive_user_key(km.record_key, "alice")
        assert user_key.hex() == "2fcdeb1944ba673595968ec6ed46cf5ece3e1ddb3deee0fdc0d3b07d433281a5"
