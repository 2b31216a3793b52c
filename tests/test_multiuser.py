import json
import random

import pytest

from conftest import search_msg
from fzsearch import (
    AuthFailure,
    BadParameter,
    DuplicateUser,
    UnknownUser,
    UserDirectory,
    blind_request,
    build_trie_index,
    decrypt_matches,
    make_request,
    unblind_request,
)
from fzsearch.commands import derive_user_key
from fzsearch.multiuser import unwrap_blind_key, wrap_blind_key
from fzsearch.persist import dumps_directory, loads_directory
from fzsearch.service import ServerState, encode_message, handle_line, result_from_response


@pytest.fixture()
def directory(km):
    return UserDirectory(current_xi=km.blind_key)


class TestDirectory:
    def test_enroll_unwrap_round_trip(self, directory):
        directory.enroll("alice", b"alice-key")
        assert directory.unwrap("alice", b"alice-key") == directory.current_xi

    def test_the_repr_shows_no_personal_key(self, directory):
        directory.enroll("alice", b"alice-personal-key")
        text = repr(directory)
        assert text == f"UserDirectory(current_xi={directory.current_xi!r}, epoch=0, wrapped={directory.wrapped!r})"
        assert "personal" not in text and "user_keys" not in text

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

    @pytest.mark.parametrize("xi", [b"", bytes(20)], ids=["loaded-without-key", "not-an-aes-key"])
    def test_a_directory_without_a_blind_key_neither_enrolls_nor_revokes(self, directory, xi):
        """``load_directory(path)`` is the users' view: its blind key is empty, so
        enroll would wrap nothing for the new user and revoke would "rotate" to nothing."""
        directory.enroll("alice", b"ka")
        loaded = loads_directory(dumps_directory(directory), current_xi=xi)
        before = (loaded.epoch, loaded.current_xi, dict(loaded.wrapped), dict(loaded.user_keys))
        with pytest.raises(BadParameter, match="blind key"):
            loaded.enroll("bob", b"kb")
        with pytest.raises(BadParameter, match="blind key"):
            loaded.revoke("alice")
        assert (loaded.epoch, loaded.current_xi, loaded.wrapped, loaded.user_keys) == before

    def test_a_user_id_fits_the_directory_length_field(self, directory):
        longest = "a" * 0xFFFF
        directory.enroll(longest, b"k")
        assert set(loads_directory(dumps_directory(directory)).wrapped) == {longest}
        too_long = "\u00e9" * 0x8000  # 32,768 characters, 65,536 bytes in UTF-8
        with pytest.raises(BadParameter):
            directory.enroll(too_long, b"k")
        directory.wrapped[too_long] = directory.wrapped[longest]  # past enroll's check
        with pytest.raises(BadParameter):
            dumps_directory(directory)

    @pytest.mark.parametrize("user_id", ["\udcff", "u" * 70_000], ids=["not-utf8", "too-long"])
    def test_enroll_refuses_an_id_the_directory_cannot_store(self, directory, user_id):
        directory.enroll("alice", b"ka")
        with pytest.raises(BadParameter):
            directory.enroll(user_id, b"k")
        assert set(directory.wrapped) == set(directory.user_keys) == {"alice"}
        assert set(loads_directory(dumps_directory(directory)).wrapped) == {"alice"}

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
        for n in (0, 27):  # shorter than a nonce and a tag
            with pytest.raises(AuthFailure, match="too short"):
                unwrap_blind_key(b"key", "alice", blob[:n])

    @pytest.mark.parametrize("user_id", ["\ud800", "u" * 70_000], ids=["not-utf8", "too-long"])
    def test_wrap_and_unwrap_refuse_an_id_the_directory_cannot_store(self, km, user_id):
        # the id's check comes before the cipher, so it is BadParameter, not an authentication failure
        with pytest.raises(BadParameter):
            wrap_blind_key(b"k", user_id, km.blind_key)
        with pytest.raises(BadParameter):
            unwrap_blind_key(b"k", user_id, bytes(40))


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


def test_a_revoked_user_with_the_old_key_file_still_searches_is_the_documented_gap(km):
    """Every user holds the owner's key file, and ``commands.derive_user_key`` makes
    any user's personal key from its record key.  So after ``revoke eve``, eve
    unwraps alice's blob from the new directory, gets the blind key of the new
    epoch, and a blinded search with it returns records.  Revocation that holds
    against the revoked user flips this test."""
    index = build_trie_index({"castle": [b"F1"], "dog": [b"F2"]}, 1, km)
    directory = UserDirectory(current_xi=km.blind_key)
    for uid in ("alice", "eve"):
        directory.enroll(uid, derive_user_key(km.record_key, uid))
    directory.revoke("eve")
    published = loads_directory(dumps_directory(directory))
    xi = published.unwrap("alice", derive_user_key(km.record_key, "alice"))  # eve, with the old key file
    assert published.epoch == 1 and xi == directory.current_xi != km.blind_key
    state = ServerState(index=index, xi=directory.current_xi, epoch=published.epoch)
    wire = blind_request(make_request("castle", 0, km), xi)
    line = encode_message(search_msg(wire, epoch=1))
    result = result_from_response(json.loads(handle_line(state, line)))
    assert sorted(decrypt_matches(km, "castle", 0, result)) == [(b"F1", "castle")]
