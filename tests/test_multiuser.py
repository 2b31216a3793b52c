import random

import pytest

from conftest import mutate, random_corpus
from fzsearch import (
    AuthFailure,
    BadParameter,
    DuplicateUser,
    UnknownUser,
    UserDirectory,
    blind_request,
    build_trie_index,
    make_request,
    search_trie,
    unblind_request,
)
from fzsearch.multiuser import unwrap_blind_key, wrap_blind_key
from fzsearch.persist import dumps_directory, loads_directory


@pytest.fixture()
def directory(km):
    return UserDirectory(current_xi=km.blind_key)


class TestDirectory:
    def test_enroll_unwrap_round_trip(self, directory):
        directory.enroll("alice", b"alice-key")
        assert directory.unwrap("alice", b"alice-key") == directory.current_xi

    def test_duplicate_enrollment(self, directory):
        directory.enroll("alice", b"k")
        with pytest.raises(DuplicateUser):
            directory.enroll("alice", b"other")

    def test_hundred_users_share_the_blind_key(self, directory):
        keys = {f"user{i}": b"key-%d" % i for i in range(100)}
        for uid, key in keys.items():
            directory.enroll(uid, key)
        for uid, key in keys.items():
            assert directory.unwrap(uid, key) == directory.current_xi

    def test_revoke_rotates_and_rewraps(self, directory):
        directory.enroll("alice", b"ka").enroll("bob", b"kb")
        old_xi = directory.current_xi
        directory.revoke("bob")
        assert directory.epoch == 1
        assert directory.current_xi != old_xi
        assert "bob" not in directory.wrapped
        assert directory.unwrap("alice", b"ka") == directory.current_xi
        with pytest.raises(UnknownUser):
            directory.unwrap("bob", b"kb")

    def test_revoke_unknown(self, directory):
        with pytest.raises(UnknownUser):
            directory.revoke("ghost")

    def test_revoke_needs_every_remaining_personal_key(self, directory):
        keys = {"alice": b"ka", "bob": b"kb", "eve": b"ke"}
        for uid, key in keys.items():
            directory.enroll(uid, key)
        loaded = loads_directory(dumps_directory(directory), current_xi=directory.current_xi)
        before = (loaded.epoch, loaded.current_xi, dict(loaded.wrapped))
        for filled in ({}, {"alice": b"ka"}):  # none, then one of the two left
            loaded.user_keys.update(filled)
            with pytest.raises(BadParameter):
                loaded.revoke("eve")
            assert (loaded.epoch, loaded.current_xi, loaded.wrapped) == before
        loaded.user_keys["bob"] = b"kb"
        loaded.revoke("eve")
        assert loaded.epoch == 1 and set(loaded.wrapped) == {"alice", "bob"}
        assert loaded.current_xi != directory.current_xi
        for uid in ("alice", "bob"):
            assert loaded.unwrap(uid, keys[uid]) == loaded.current_xi

    def test_a_user_id_fits_the_directory_length_field(self, directory):
        longest = "a" * 0xFFFF
        directory.enroll(longest, b"k")
        assert set(loads_directory(dumps_directory(directory)).wrapped) == {longest}
        directory.enroll("\u00e9" * 0x8000, b"k")  # 32,768 characters, 65,536 bytes in UTF-8
        with pytest.raises(BadParameter):
            dumps_directory(directory)

    def test_wrap_is_authenticated(self, km):
        blob = wrap_blind_key(b"key", "alice", km.blind_key)
        assert unwrap_blind_key(b"key", "alice", blob) == km.blind_key
        with pytest.raises(AuthFailure):
            unwrap_blind_key(b"wrong", "alice", blob)
        with pytest.raises(AuthFailure):
            unwrap_blind_key(b"key", "mallory", blob)  # bound to the user id
        tampered = blob[:-1] + bytes([blob[-1] ^ 1])
        with pytest.raises(AuthFailure):
            unwrap_blind_key(b"key", "alice", tampered)


class TestBlinding:
    def test_unblind_inverts_blind(self, km):
        req = make_request("castle", 1, km)
        blinded = blind_request(req, km.blind_key)
        assert unblind_request(blinded, km.blind_key).trapdoors == req.trapdoors

    def test_shape_preserved(self, km):
        req = make_request("castle", 1, km)
        blinded = blind_request(req, km.blind_key)
        assert blinded.k == req.k
        assert len(blinded.trapdoors) == len(req.trapdoors)
        assert all(len(t) == 20 for t in blinded.trapdoors)

    def test_blinding_is_transparent_to_search(self, km):
        rng = random.Random(167)
        corpus = random_corpus(rng, size=60)
        index = build_trie_index(corpus, 1, km)
        words = sorted(corpus)
        for _ in range(50):
            query = mutate(rng.choice(words), rng)
            if not query:
                continue
            req = make_request(query, 1, km)
            direct = search_trie(index, req)
            via_blind = search_trie(index, unblind_request(blind_request(req, km.blind_key), km.blind_key))
            assert direct.records == via_blind.records

    def test_no_shared_prefix_structure(self, km):
        # blinded trapdoors should look unrelated to the originals
        rng = random.Random(173)
        matches = 0
        total = 0
        for _ in range(1000):
            word = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(5))
            req = make_request(word, 0, km)
            blinded = blind_request(req, km.blind_key)
            for orig, blind in zip(req.trapdoors, blinded.trapdoors):
                total += 1
                if orig[:2] == blind[:2]:
                    matches += 1
        # expected ~ total/65536; allow a wide margin
        assert matches <= 3, f"{matches}/{total} two-byte prefixes survived blinding"

    def test_stale_key_requests_hit_nothing(self, km):
        rng = random.Random(179)
        corpus = random_corpus(rng, size=50, lo=3, hi=5)
        index = build_trie_index(corpus, 1, km)
        directory = UserDirectory(current_xi=km.blind_key)
        directory.enroll("alice", b"ka").enroll("eve", b"ke")
        old_xi = directory.unwrap("eve", b"ke")
        directory.revoke("eve")
        new_xi = directory.current_xi
        words = sorted(corpus)
        for _ in range(1000):
            req = make_request(rng.choice(words), rng.choice((0, 1)), km)
            replayed = unblind_request(blind_request(req, old_xi), new_xi)
            assert search_trie(index, replayed).records == []
