import argparse
import base64
import errno
import json
import os
import random
import select
import shutil
import socket
import stat
import string
import sys
import threading
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

import fzsearch.client
import fzsearch.fuzzyset
import fzsearch.service as service
from conftest import (
    BUILDS,
    CaptureClient,
    garbage_line,
    mutate,
    random_corpus,
    reference_edit_distance,
    reference_parse_trapdoors,
    refusal,
    save_seeded_keys,
    search_msg,
)
from fzsearch import (
    BadMagic,
    BadParameter,
    FzError,
    ResultSet,
    SearchRequest,
    Truncated,
    VersionUnsupported,
    build_auth_trie,
    build_listing_index,
    build_trie_index,
    decrypt_matches,
    decrypt_record,
    keygen,
    make_request,
    search_trie,
)
from fzsearch.cli import COMMANDS, _server, build_parser
from fzsearch.cli import main as cli_main
from fzsearch.commands import read_corpus_dir
from fzsearch.crypto import TRAPDOOR_BYTES
from fzsearch.errors import BadResponse
from fzsearch.index import blind_request, pack_entries
from fzsearch.multiuser import unwrap_blind_key, wrap_blind_key
from fzsearch.persist import (
    INDEX_HEAD,
    INDEX_VERSION,
    KEY_HEAD,
    dumps_directory,
    dumps_index,
    dumps_keys,
    load_index,
    load_keys,
    loads_blind_key,
    loads_directory,
    loads_index,
    loads_keys,
    save_index,
    save_keys,
)
from fzsearch.service import (
    MALFORMED,
    PROTOCOL,
    SearchClient,
    SearchServer,
    ServerState,
    encode_message,
    handle_line,
    proofs_from_response,
    result_from_response,
)
from fzsearch.verifiable import VerdictReason, decode_proof, search_with_proof, verify


@pytest.fixture(scope="module")
def world(km):
    rng = random.Random(191)
    corpus = random_corpus(rng, size=30, lo=3, hi=6)
    return corpus, build_trie_index(corpus, 1, km)


def ask(state, msg: dict) -> dict:
    """The server's reply to ``msg``, parsed."""
    return json.loads(handle_line(state, encode_message(msg)))


@pytest.fixture()
def too_many_digits():
    """A decimal integer one digit past the interpreter's limit (4,300 digits when none is set)."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        sys.set_int_max_str_digits(4300)
    yield "7" * (sys.get_int_max_str_digits() + 1)
    sys.set_int_max_str_digits(limit)


class TestHandler:
    def test_wire_layer_adds_and_removes_nothing(self, km, world):
        corpus, index = world
        state = ServerState(index=index)
        for word in sorted(corpus)[:10]:
            req = make_request(word, 1, km)
            resp = ask(state, search_msg(req))
            assert resp["type"] == "SearchResp"
            direct = search_trie(index, req)
            via_wire = result_from_response(resp)
            assert via_wire.exact_hit == direct.exact_hit
            assert via_wire.records == direct.records

    @pytest.mark.parametrize(
        "line",
        [
            "garbage{{{",
            "",
            "[1,2,3]",
            '"just a string"',
            "123",
            '{"no_type": 1}',
            '{"type": "Bogus"}',
            '{"type": 42}',
            b"\xff\xfe invalid utf-8 \x80",
        ],
    )
    def test_malformed_lines(self, world, line):
        _, index = world
        out = json.loads(handle_line(ServerState(index=index), line))
        assert out["type"] == "ErrorResp" and out["code"] == "MALFORMED"

    def test_an_integer_past_the_digit_limit_is_malformed(self, world, too_many_digits):
        """Python refuses such an integer with a ValueError that is no JSONDecodeError."""
        _, index = world
        state = ServerState(index=index)
        for line in ('{"type":"SearchReq","k":%s}', "[%s]", '{"type":"Hello","x":%s}'):
            out = json.loads(handle_line(state, line % too_many_digits))
            assert (out["code"], out["message"]) == (MALFORMED, "line is not a JSON object")

    def test_malformed_fields(self, km, world):
        _, index = world
        req = make_request("cat", 1, km)
        good = search_msg(req)
        width = len(good["trapdoors"][0])
        bad_variants = [
            dict(good, k="1"),
            dict(good, k=-1),
            dict(good, k=True),
            dict(good, k=300),
            dict(good, trapdoors="nope"),
            dict(good, trapdoors=[]),
            dict(good, trapdoors=["zz"]),
            dict(good, trapdoors=[good["trapdoors"][0].upper()] + good["trapdoors"][1:]),
            dict(good, trapdoors=good["trapdoors"] + [good["trapdoors"][0]]),  # duplicate
            dict(good, epoch="0"),
            dict(good, proof="yes"),
            # bytes.fromhex skips whitespace, which must not pass as hex
            dict(good, trapdoors=[" " * width]),
            dict(good, trapdoors=["\t" * width]),
            dict(good, trapdoors=["\n" * width]),
        ]
        for state in (ServerState(index=index), ServerState(index=index, xi=km.blind_key)):
            for msg in bad_variants:
                out = ask(state, msg)
                assert out["type"] == "ErrorResp" and out["code"] == "MALFORMED", msg
                assert not out["message"].startswith("unhandled request error"), msg

    def test_an_empty_request_is_malformed(self, km, world):
        """A request holds at least one trapdoor: an empty list gets the reply of any bad list."""
        _, index = world
        msg = dict(search_msg(make_request("cat", 1, km), epoch=3), trapdoors=[])
        for state in (ServerState(index=index, epoch=3), ServerState(index=index, xi=km.blind_key, epoch=3)):
            assert ask(state, msg) == {
                "type": "ErrorResp", "epoch": 3, "code": MALFORMED, "message": "trapdoors must be distinct lowercase hex",
            }

    def test_a_blinded_state_refuses_a_blind_key_that_is_not_an_aes_key(self, world):
        _, index = world
        for n in (0, 1, 15, 20, 31, 33, 64):
            with pytest.raises(BadParameter, match="blind key must be 16, 24 or 32 bytes"):
                ServerState(index=index, xi=bytes(n))
        for n in (16, 24, 32):
            assert ask(ServerState(index=index, xi=bytes(n)), {"type": "Hello"})["blinded"] is True

    def test_too_many_trapdoors(self, km, world):
        _, index = world
        state = ServerState(index=index)
        width = TRAPDOOR_BYTES
        trapdoors = [i.to_bytes(width, "big") for i in range(service.MAX_TRAPDOORS + 1)]
        at_cap = ask(state, search_msg(SearchRequest(trapdoors[:-1], 1)))
        assert at_cap["type"] == "SearchResp"
        over = ask(state, search_msg(SearchRequest(trapdoors, 1)))
        assert over["code"] == "TOO_MANY_TRAPDOORS"

    def test_proofs_only_from_auth_index(self, km, world):
        corpus, index = world
        req = make_request(sorted(corpus)[0], 1, km)
        plain = ask(ServerState(index=index), search_msg(req, proof=True))
        assert plain["type"] == "SearchResp" and "proofs" not in plain
        auth = build_auth_trie(corpus, 1, km)
        # an exact answer carries proof 0 alone, any other answer a proof per trapdoor
        for sent, exact in ((req, True), (make_request("qqqqqqq", 1, km), False)):
            resp = ask(ServerState(index=auth), search_msg(sent, proof=True))
            assert resp["exact"] is exact and len(resp["proofs"]) == (1 if exact else len(sent.trapdoors)) > 0
            proofs = [decode_proof(bytes.fromhex(p)) for p in resp["proofs"]]
            verdict = verify(sent, result_from_response(resp), proofs, km)
            assert verdict.accepted

    def test_proofs_cross_the_wire_as_the_bytes_search_with_proof_returned(self, km, world):
        corpus, _ = world
        state = ServerState(index=build_auth_trie(corpus, 1, km), xi=km.blind_key)
        rng = random.Random(192)
        words = sorted(corpus)
        for query in words[:3] + [mutate(rng.choice(words), rng) or "a" for _ in range(10)]:
            req = make_request(query, 1, km)
            line = encode_message(search_msg(blind_request(req, km.blind_key), proof=True))
            _, proofs = search_with_proof(state.index, req)
            assert proofs_from_response(json.loads(handle_line(state, line))) == proofs
            assert all(type(p) is bytes for p in proofs)

    def test_server_fault_is_internal(self, km, world, monkeypatch):
        def broken(index, req):
            raise RuntimeError("boom")

        _, index = world
        monkeypatch.setattr(service, "search_listing", broken)
        out = ask(ServerState(index=index), search_msg(make_request("cat", 1, km)))
        assert out["type"] == "ErrorResp" and out["code"] == "INTERNAL"
        assert out["message"] == "unhandled request error: RuntimeError"

def _answers_as_the_plaintext_rule(km, kind: str, method: str) -> dict[str, int]:
    """Through ``handle_line`` on ``kind`` indexes at d = 0, 1 and 2, every k <= d, plain and blinded, on
    seeded queries: the decrypted answer is the plaintext rule's, the query's own records when it is a
    keyword (the exact-match rule), else those of every keyword within k edits.  An auth reply also
    verifies, and an exact one holds proof 0 alone and any other a proof per trapdoor.  The replies by class."""
    rng = random.Random(f"proved-replies/{method}")
    words = sorted({"".join(rng.choice("abcd") for _ in range(rng.randint(2, 5))) for _ in range(40)})
    corpus = {w: sorted({b"F%d" % rng.randrange(8) for _ in range(rng.randint(1, 3))}) for w in words}
    replies, proved = {"exact": 0, "fuzzy": 0, "empty": 0}, kind == "auth"
    for d in (0, 1, 2):
        index = BUILDS[kind](corpus, d, km, method)
        states = (ServerState(index=index), ServerState(index=index, xi=km.blind_key, epoch=1))
        for k in range(d + 1):
            for _ in range(16):
                roll = rng.random()
                word = rng.choice(words)
                if roll > 0.3:
                    word = mutate(word, rng) or "a"
                if roll > 0.7:
                    word = mutate(word, rng) or "b"
                req = make_request(word, k, km, method)
                want = {(fid, word) for fid in corpus[word]} if word in corpus else {
                    (fid, w) for w in words if reference_edit_distance(word, w) <= k for fid in corpus[w]}
                for state in states:
                    sent = req if state.xi is None else blind_request(req, state.xi)
                    resp = ask(state, search_msg(sent, epoch=state.epoch, proof=proved))
                    result = result_from_response(resp)
                    if proved:
                        proofs = proofs_from_response(resp)
                        assert verify(req, result, proofs, km) == (True, VerdictReason.OK, None), (word, k, d)
                        assert len(proofs) == (1 if result.exact_hit else len(req.trapdoors))
                    else:
                        assert "proofs" not in resp
                    assert result.exact_hit is (word in corpus)
                    # a keyword's records lie under each of its variants, so a fuzzy answer may repeat one
                    assert set(decrypt_matches(km, word, k, result)) == want, (word, k, d)
                    replies["exact" if result.exact_hit else "fuzzy" if want else "empty"] += 1
    return replies


@pytest.mark.parametrize("method", ["wildcard", "gram"])
def test_every_proved_reply_verifies_and_answers_as_the_plaintext_rule(km, method):
    replies = _answers_as_the_plaintext_rule(km, "auth", method)
    assert min(replies.values()) >= 40, replies


@pytest.mark.parametrize("kind", ["listing", "trie"])
@pytest.mark.parametrize("method", ["wildcard", "gram"])
def test_every_listing_and_trie_reply_answers_as_the_plaintext_rule(km, kind, method):
    """The same seeded property on the kinds that prove nothing: the same queries get the same answers."""
    replies = _answers_as_the_plaintext_rule(km, kind, method)
    assert min(replies.values()) >= 40, replies


# every character bytes.fromhex skips, and digits it must not read as hex
_WHITESPACE = " \t\n\r\x0b\x0c"
_NOT_HEX = ["\u0660", "\uff10", "\u00b2", "\u00e9", "g", "-", "\x00"]


def _trapdoor_list(rng: random.Random, width: int):
    """A request's trapdoors as JSON can carry them: mostly valid, often one item off."""
    size = rng.choice([1, 2, 3, 5, 17, 40])
    items = [rng.randbytes(width).hex() for _ in range(size)]
    roll = rng.randrange(12)
    i = rng.randrange(size)
    if roll == 0:  # upper case: one digit or the whole item
        j = rng.randrange(2 * width)
        items[i] = rng.choice([items[i].upper(), items[i][:j] + items[i][j].upper() + items[i][j + 1 :]])
    elif roll == 1:  # whitespace at any position, in place of a digit or added
        j = rng.randrange(2 * width + 1)
        space = rng.choice(_WHITESPACE)
        items[i] = rng.choice([items[i][:j] + space + items[i][j + 1 :], items[i][:j] + space + items[i][j:]])
    elif roll == 2:  # one or two digits too many or too few
        cut = rng.choice([1, 2])
        items[i] = rng.choice([items[i][:-cut], items[i] + "0" * cut])
    elif roll == 3 and size > 1:  # errors that cancel in the joined length: one item too long, the next too short
        i = rng.randrange(size - 1)
        cut = rng.choice([1, 2])
        items[i], items[i + 1] = items[i] + items[i + 1][:cut], items[i + 1][cut:]
    elif roll == 4:  # not a string
        items[i] = rng.choice([None, 0, 7, 2**70, 1.5, True, [], ["a"] * (2 * width), {}, {str(n): n for n in range(2 * width)}])
    elif roll == 5:  # a digit that is not ASCII hex
        j = rng.randrange(2 * width)
        items[i] = items[i][:j] + rng.choice(_NOT_HEX) + items[i][j + 1 :]
    elif roll == 6:
        items[i] = ""
    elif roll == 7:  # a duplicate anywhere
        items.insert(rng.randrange(size + 1), rng.choice(items))
    elif roll == 8:
        items = rng.choice([[], None, "00" * width, {"00" * width: 1}, 7])
    return items


def _reference_search_resp(epoch: int, result: ResultSet, proofs) -> str:
    """The SearchResp line as a dict through ``encode_message``."""
    resp = {
        "type": "SearchResp",
        "epoch": epoch,
        "exact": result.exact_hit,
        "records": [base64.b64encode(r).decode("ascii") for r in result.records],
    }
    if proofs is not None:
        resp["proofs"] = [p.hex() for p in proofs]
    return encode_message(resp)


class TestWireCodec:
    def test_parser_agrees_with_the_per_item_oracle(self, world):
        _, index = world
        state = ServerState(index=index)
        width = TRAPDOOR_BYTES
        rng = random.Random(194)
        before, item, after = (rng.randbytes(width).hex() for _ in range(3))
        # each whitespace kind at each position of the middle item, in place of a digit and added
        swept = [
            [before, item[:j] + space + item[j + cut :], after]
            for space in _WHITESPACE
            for j in range(2 * width + 1)
            for cut in (0, 1)
        ]
        accepted = 0
        for raw in swept + [_trapdoor_list(rng, width) for _ in range(2000)]:
            want = reference_parse_trapdoors(width, raw)
            assert service._parse_trapdoors(raw) == want, raw
            accepted += want is not None
        assert 500 < accepted < 1500

    def test_search_reply_is_the_canonical_encoding(self, world):
        _, index = world
        rng = random.Random(195)
        for i in range(2000):
            epoch = [0, 2**40, rng.randrange(1 << 20)][i % 3]
            count = rng.choice([0, 0, 1, 2, 7, 40])
            records = [rng.randbytes(rng.randrange(28, 120)) for _ in range(count)]
            result = ResultSet(records=records, exact_hit=bool(records) and rng.random() < 0.3)
            proofs = rng.choice([None, [], [rng.randbytes(rng.randrange(3, 80)) for _ in range(rng.randint(1, 20))]])
            state = ServerState(index=index, epoch=epoch)
            assert service._search_resp(state, result, proofs) == _reference_search_resp(epoch, result, proofs)

    def test_search_request_line_is_the_canonical_encoding(self):
        """The SearchReq line ``SearchClient.search`` writes from fragments is the JSON encoder's, at every k,
        at small and large epochs, with and without a proof, from no trapdoor to ``MAX_TRAPDOORS`` of any width."""
        rng, client, top = random.Random(196), CaptureClient(), service.MAX_TRAPDOORS
        for i in range(2100):
            epoch = [0, 2**40, rng.randrange(1 << rng.choice([8, 32, 70]))][i % 3]
            count = top if i % 700 == 0 else 0 if i % 700 == 1 else rng.choice([1, 2, 5, 17, 40, rng.randrange(top)])
            widths = [TRAPDOOR_BYTES] if rng.random() < 0.7 else [0, 1, 16, TRAPDOOR_BYTES, 32]
            trapdoors = tuple(rng.randbytes(rng.choice(widths)) for _ in range(count))
            msg = client.search(SearchRequest(trapdoors, i % 256), epoch=epoch, want_proof=rng.random() < 0.5)
            assert msg.line == encode_message(msg) == json.dumps(dict(msg), sort_keys=True, separators=(",", ":")) + "\n"

    def test_a_bool_or_float_epoch_or_k_is_the_encoders_to_write(self):
        client, req = CaptureClient(), SearchRequest((b"\x01" * TRAPDOOR_BYTES,), 1)
        t = "01" * TRAPDOOR_BYTES
        cases = {
            (True, 1): f'{{"epoch":true,"k":1,"trapdoors":["{t}"],"type":"SearchReq"}}\n',
            (0, False): f'{{"epoch":0,"k":false,"trapdoors":["{t}"],"type":"SearchReq"}}\n',
            (1.5, 1): f'{{"epoch":1.5,"k":1,"trapdoors":["{t}"],"type":"SearchReq"}}\n',
            (0, 2.0): f'{{"epoch":0,"k":2.0,"trapdoors":["{t}"],"type":"SearchReq"}}\n',
        }
        for (epoch, k), want in cases.items():
            msg = client.search(req._replace(k=k), epoch=epoch)
            assert not hasattr(msg, "line") and encode_message(msg) == want


def _key_file(security_bits: int, keys, trapdoor_bits: int = 160, symbol_bits: int = 4) -> bytes:
    """An FZKY file written byte by byte, so its keys need not fit ``KeyMaterial``."""
    head = KEY_HEAD.pack(b"FZKY", 1, security_bits, trapdoor_bits, symbol_bits)
    return head + b"".join(len(key).to_bytes(2, "big") + key for key in keys)


def _damaged_key_files(km) -> dict[str, bytes]:
    """Key files that ``loads_keys`` refuses, one per check, from ``km``'s 128-bit keys."""
    keys = (km.trapdoor_key, km.record_key, km.blind_key)
    good = dumps_keys(km)
    return {
        "bad magic": b"FZKX" + good[4:],
        "bad version": good[:4] + b"\x02" + good[5:],
        "cut header": good[:7],
        "bad geometry": _key_file(128, keys, 224, 8),
        "truncated field": good[:-1],
        "trailing bytes": good + b"\0",
        "security 192": _key_file(192, (b"\x07" * 24,) * 3),
        "15-byte key": _key_file(128, (km.trapdoor_key[:15], km.record_key, km.blind_key)),
    }


class TestPersistence:
    def test_the_blind_key_reader_reads_what_loads_keys_reads(self):
        for security_bits in (128, 256):
            km = keygen(security_bits, seed=b"blind")
            assert loads_blind_key(dumps_keys(km)) == km.blind_key

    def test_the_blind_key_reader_refuses_as_loads_keys_does(self, km):
        """Same class, same message, for every check of the format."""
        refusals = {}
        for name, data in _damaged_key_files(km).items():
            refusals[name] = refusal(loads_keys, data)
            assert refusal(loads_blind_key, data) == refusals[name], name
        assert [cls for cls, _ in refusals.values()] == [
            BadMagic, VersionUnsupported, Truncated, BadParameter, Truncated, Truncated, BadParameter, BadParameter,
        ]

    def test_keys_round_trip_and_permissions(self, km, tmp_path):
        path = tmp_path / "k.fzky"
        save_keys(km, str(path))
        assert load_keys(str(path)) == km
        mode = stat.S_IMODE(os.stat(path).st_mode)
        assert mode == 0o600
        # rewriting a key file that was left readable replaces it with an owner-only one
        os.chmod(path, 0o644)
        save_keys(km, str(path))
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
        assert os.listdir(tmp_path) == ["k.fzky"]

    def test_failed_save_keeps_the_old_file(self, km, tmp_path, monkeypatch):
        import fzsearch.persist as persist

        path = tmp_path / "i.fzix"
        old = build_listing_index({"cat": [b"F1"]}, 1, km)
        save_index(old, str(path))
        before = path.read_bytes()

        def crash(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(persist.os, "replace", crash)
        with pytest.raises(OSError, match="disk gone"):
            save_index(build_listing_index({"dog": [b"F2"]}, 1, km), str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["i.fzix"]  # no temporary file left behind

    @pytest.mark.parametrize("kind", sorted(BUILDS))
    def test_rebuilds_are_byte_identical(self, km, kind):
        rng = random.Random(227)
        corpus = random_corpus(rng, size=20)
        build = BUILDS[kind]
        assert dumps_index(build(corpus, 1, km)) == dumps_index(build(corpus, 1, km))

    def test_record_count_overflow_is_a_parameter_error(self):
        with pytest.raises(BadParameter, match="65535"):
            pack_entries({bytes(20): (bytes(28),) * 65536}, set())

    @pytest.mark.parametrize("d", [-1, 256])
    def test_an_edit_bound_fzix_cannot_hold_is_a_parameter_error(self, km, d):
        with pytest.raises(BadParameter, match=f"edit bound {d}"):
            dumps_index(build_listing_index({}, d, km))

    def test_trapdoor_of_another_width_is_a_parameter_error(self):
        for width in (19, 21):
            with pytest.raises(BadParameter, match=f"a {width}-byte trapdoor"):
                pack_entries({bytes(width): (bytes(28),)}, set())

    @pytest.mark.parametrize("trapdoor_bits, symbol_bits", [(160, 8), (224, 8)])
    def test_a_file_of_another_geometry_is_refused(self, km, trapdoor_bits, symbol_bits):
        """Well-formed files whose body fits their header, of a geometry other
        than 160-bit trapdoors of 4-bit symbols."""
        keys = bytearray(dumps_keys(km))
        keys[7:10] = trapdoor_bits.to_bytes(2, "big") + bytes([symbol_bits])
        head = INDEX_HEAD.pack(b"FZIX", INDEX_VERSION, 0, symbol_bits, trapdoor_bits, 1, 1)
        entry = bytes(trapdoor_bits // 8) + b"\0" + (1).to_bytes(2, "big") + (28).to_bytes(4, "big") + bytes(28)
        for loads, data in ((loads_keys, bytes(keys)), (loads_index, head + entry)):
            with pytest.raises(BadParameter, match=f"^{trapdoor_bits}-bit trapdoors of {symbol_bits}-bit symbols; only 160/4"):
                loads(data)

    def test_directory_with_a_repeated_or_unordered_user_id_is_a_parameter_error(self):
        """``dumps_directory`` writes user ids strictly ascending; the reader takes no other order."""
        head = b"FZUD\x01" + (0).to_bytes(8, "big") + (2).to_bytes(4, "big")

        def entry(uid: bytes) -> bytes:
            return len(uid).to_bytes(2, "big") + uid + b"\x00\x01w"

        for ids in ((b"alice", b"alice"), (b"bob", b"alice")):
            with pytest.raises(BadParameter, match="ascending"):
                loads_directory(head + entry(ids[0]) + entry(ids[1]))
        for ids in ((b"alice", b"bob"), (b"", b"alice")):
            blob = head + entry(ids[0]) + entry(ids[1])
            assert dumps_directory(loads_directory(blob)) == blob

    def test_directory_with_a_non_utf8_user_id_is_a_parameter_error(self):
        blob = b"FZUD\x01" + (0).to_bytes(8, "big") + (1).to_bytes(4, "big")
        blob += b"\x00\x02\xff\xfe" + b"\x00\x01w"
        with pytest.raises(BadParameter, match="UTF-8"):
            loads_directory(blob)


@contextmanager
def serving(state: ServerState, host: str = "127.0.0.1"):
    """``state`` served on an OS-picked port by a ``SearchServer`` on its loop thread.

    Yields the server, the thread and the ``(host, port)`` address; on exit
    the server is shut down and closed, and its thread must have ended."""
    server = SearchServer(state, host=host, port=0)
    thread = server.start()
    try:
        yield server, thread, server.server_address[:2]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture(scope="module")
def live_server(world):
    _, index = world
    with serving(ServerState(index=index)) as (_, _, address):
        yield address, index


class TestSocketServer:
    def test_round_trips(self, km, live_server):
        address, index = live_server
        with SearchClient(*address) as client:
            ack = client.hello()
            assert ack["type"] == "HelloAck"
            req = make_request("cat", 1, km)
            resp = client.search(req)
            assert resp["type"] in ("SearchResp",)

    def test_server_survives_socket_garbage(self, km, live_server):
        address, _ = live_server
        rng = random.Random(211)
        for _ in range(50):
            raw = socket.create_connection(address, timeout=5)
            try:
                raw.sendall(bytes(rng.randrange(1, 256) for _ in range(rng.randrange(1, 200))) + b"\n")
                raw.recv(65536)
            finally:
                raw.close()
        # still answering afterwards
        with SearchClient(*address) as client:
            assert client.hello()["type"] == "HelloAck"

    def test_shutdown_returns_without_waiting_for_the_poll(self, world, monkeypatch):
        _, index = world
        monkeypatch.setattr(service, "POLL_SECONDS", 30.0)
        server = SearchServer(ServerState(index=index), port=0)
        thread = server.start()
        try:
            with SearchClient("127.0.0.1", server.server_address[1]) as client:
                assert client.hello()["type"] == "HelloAck"  # the loop is running
            start = time.monotonic()
            server.shutdown()
            thread.join(timeout=5)
            assert not thread.is_alive() and time.monotonic() - start < 5
        finally:
            server.server_close()

    def test_oversized_line_dropped(self, km, world):
        _, index = world
        with serving(ServerState(index=index)) as (_, _, address):
            raw = socket.create_connection(address, timeout=5)
            try:
                raw.sendall(b"A" * (2 * service.MAX_LINE_BYTES) + b"\n")
            except ConnectionError:  # the server may close before it has read the whole line
                pass
            data = raw.makefile("rb").readline()
            assert b"MALFORMED" in data
            raw.close()
            with SearchClient(*address) as client:
                assert client.hello()["type"] == "HelloAck"


def _read_to_eof(sock) -> bytes:
    return b"".join(iter(lambda: sock.recv(65536), b""))


def _fail_once(monkeypatch, method: str, error: OSError, thread: threading.Thread, log: list) -> None:
    """``socket.socket.<method>`` raises ``error`` at its next call from ``thread``;
    ``log`` gets "failed" then, and ``method`` at each later call from ``thread``."""
    real = getattr(socket.socket, method)

    def once(sock, *args):
        if threading.current_thread() is thread:
            if "failed" not in log:
                log.append("failed")
                raise error
            log.append(method)
        return real(sock, *args)

    monkeypatch.setattr(socket.socket, method, once)


class TestReadinessLoop:
    """The one-thread server keeps the per-connection behaviour of a blocking handler."""

    def test_slow_reader_stalls_no_one(self, km, monkeypatch):
        monkeypatch.setattr(fzsearch.client, "CLIENT_TIMEOUT_SECONDS", 5)
        # "cat" and "dog" have 200 files each, so 2,000 replies hold megabytes
        corpus = {"cat": [b"f%04d" % i for i in range(200)], "dog": [b"g%04d" % i for i in range(200)]}
        state = ServerState(index=build_listing_index(corpus, 1, km))
        words = ["cat", "dog", "cta"]
        lines = [encode_message(search_msg(make_request(words[i % 3], 1, km))).encode() for i in range(2000)]
        expected = [handle_line(state, line).encode() for line in lines]
        # closing ``slow`` resets the connection, unread replies and all
        with serving(state) as (_, _, address), socket.socket() as slow, slow.makefile("rb") as replies:
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            slow.settimeout(30)
            slow.connect(address)
            sender = threading.Thread(target=slow.sendall, args=(b"".join(lines),), daemon=True)
            sender.start()
            assert replies.readline() == expected[0]  # the server is answering, and nobody reads on
            with SearchClient(*address) as other:
                assert other.hello()["type"] == "HelloAck"
            assert [replies.readline() for _ in expected[1:]] == expected[1:]
            sender.join(timeout=30)
            assert not sender.is_alive()

    def test_byte_at_a_time(self, km, live_server):
        address, index = live_server
        line = encode_message(search_msg(make_request("cat", 1, km))).encode()
        answers = []
        for chunk in (1, len(line)):
            with socket.create_connection(address, timeout=10) as raw:
                raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for i in range(0, len(line), chunk):
                    raw.sendall(line[i : i + chunk])
                answers.append(raw.makefile("rb").readline())
        assert answers[0] == answers[1] == handle_line(ServerState(index=index), line).encode()

    def test_lines_in_one_send(self, km, live_server):
        address, index = live_server
        lines = [b'{"type":"Hello"}\n', b"garbage\n"]
        lines += [encode_message(search_msg(make_request(w, 1, km))).encode() for w in ("cat", "dog", "owl")]
        state = ServerState(index=index)
        with socket.create_connection(address, timeout=10) as raw:
            raw.sendall(b"".join(lines))
            raw.shutdown(socket.SHUT_WR)
            got = _read_to_eof(raw)
        assert got == "".join(handle_line(state, line) for line in lines).encode()

    def test_partial_last_line(self, km, live_server):
        address, index = live_server
        line = encode_message(search_msg(make_request("cat", 1, km))).encode().rstrip(b"\n")
        with socket.create_connection(address, timeout=10) as raw:
            raw.sendall(line)
            raw.shutdown(socket.SHUT_WR)
            got = _read_to_eof(raw)
        assert got == handle_line(ServerState(index=index), line).encode()

    def test_idle_and_stalled_connections_are_closed(self, km, monkeypatch):
        monkeypatch.setattr(fzsearch.client, "CLIENT_TIMEOUT_SECONDS", 5)
        monkeypatch.setattr(service, "IDLE_SECONDS", 0.2)
        state = ServerState(index=build_listing_index({"cat": [b"f%04d" % i for i in range(200)]}, 1, km))
        line = encode_message(search_msg(make_request("cat", 1, km))).encode()
        with serving(state) as (_, _, address), socket.socket() as stalled:
            stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stalled.connect(address)
            stalled.setblocking(False)
            try:  # replies to these fill every buffer on the way, and nobody reads them
                stalled.send(line * 4000)
            except BlockingIOError:
                pass
            with socket.create_connection(address, timeout=0.05) as idle, SearchClient(*address) as busy:
                deadline = time.monotonic() + 5
                idle_closed = stalled_closed = False
                while not (idle_closed and stalled_closed) and time.monotonic() < deadline:
                    assert busy.hello()["type"] == "HelloAck"
                    try:
                        idle_closed = idle_closed or idle.recv(1) == b""
                    except socket.timeout:
                        pass
                    # closed with requests unread, the server resets the connection
                    stalled_closed = stalled_closed or stalled.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR) != 0
                assert idle_closed and stalled_closed
                assert busy.hello()["type"] == "HelloAck"

    def test_connection_cap(self, world, monkeypatch):
        monkeypatch.setattr(fzsearch.client, "CLIENT_TIMEOUT_SECONDS", 5)
        _, index = world
        monkeypatch.setattr(service, "MAX_CONNECTIONS", 4)
        clients = []
        with serving(ServerState(index=index)) as (_, _, address), ExitStack() as open_clients:
            for _ in range(4):
                clients.append(open_clients.enter_context(SearchClient(*address)))
                assert clients[-1].hello()["type"] == "HelloAck"
            with socket.create_connection(address, timeout=0.3) as fifth:
                fifth.sendall(b'{"type":"Hello"}\n')
                with pytest.raises(socket.timeout):
                    fifth.recv(1)
                clients.pop().close()
                fifth.settimeout(5)
                assert json.loads(fifth.makefile("rb").readline())["type"] == "HelloAck"

    def test_server_fault_drops_only_that_connection(self, world, monkeypatch):
        monkeypatch.setattr(fzsearch.client, "CLIENT_TIMEOUT_SECONDS", 5)
        def broken(state, line):
            raise RuntimeError("boom")

        _, index = world
        with serving(ServerState(index=index)) as (_, _, address), SearchClient(*address) as bystander:
            with socket.create_connection(address, timeout=5) as raw:
                assert bystander.hello()["type"] == "HelloAck"
                monkeypatch.setattr(service, "handle_line", broken)
                raw.sendall(b'{"type":"Hello"}\n')
                assert raw.recv(1) == b""
                monkeypatch.undo()
                assert bystander.hello()["type"] == "HelloAck"

    def test_an_integer_past_the_digit_limit_leaves_the_connection_open(self, live_server, too_many_digits):
        address, index = live_server
        hello, bad = b'{"type":"Hello"}\n', b"[%s]\n" % too_many_digits.encode()
        with socket.create_connection(address, timeout=10) as raw, raw.makefile("rb") as replies:
            raw.sendall(hello + bad + hello)
            ack = handle_line(ServerState(index=index), hello).encode()
            error = {"type": "ErrorResp", "epoch": 0, "code": MALFORMED, "message": "line is not a JSON object"}
            assert [replies.readline() for _ in range(3)] == [ack, encode_message(error).encode(), ack]
            raw.sendall(hello)
            assert replies.readline() == ack

    @pytest.mark.parametrize("error", [BlockingIOError(), OSError(errno.EMFILE, "Too many open files")])
    def test_a_failed_accept_serves_the_client_later(self, world, monkeypatch, error):
        """A client that gave up before ``accept`` costs nothing.  Out of file
        descriptors, the listener pauses and the waiting client is served after
        the next idle sweep."""
        monkeypatch.setattr(fzsearch.client, "CLIENT_TIMEOUT_SECONDS", 5)
        paused = not isinstance(error, BlockingIOError)
        monkeypatch.setattr(service, "POLL_SECONDS", 0.2 if paused else 30.0)
        _, index = world
        log = []
        with serving(ServerState(index=index)) as (server, thread, address):
            sweep = server._sweep  # looked up at each call, so patching the running server takes effect
            monkeypatch.setattr(server, "_sweep", lambda now: (log.append("sweep"), sweep(now)))
            _fail_once(monkeypatch, "accept", error, thread, log)
            with SearchClient(*address) as client:
                assert client.hello()["type"] == "HelloAck"
            until = log[log.index("failed") : log.index("accept") + 1]
            assert until == (["failed", "sweep", "accept"] if paused else ["failed", "accept"]), log

    @pytest.mark.parametrize("method", ["recv", "send"])
    @pytest.mark.parametrize("error", [BlockingIOError, ConnectionResetError])
    def test_a_failed_recv_or_send_touches_only_its_connection(self, world, monkeypatch, method, error):
        """A spurious wake-up loses no line; a reset connection is closed and the others are still answered."""
        monkeypatch.setattr(fzsearch.client, "CLIENT_TIMEOUT_SECONDS", 5)
        _, index = world
        hello = b'{"type":"Hello"}\n'
        with serving(ServerState(index=index)) as (server, thread, address), SearchClient(*address) as bystander:
            with socket.create_connection(address, timeout=5) as raw, raw.makefile("rb") as replies:
                assert bystander.hello()["type"] == "HelloAck"
                log = []
                _fail_once(monkeypatch, method, error(), thread, log)
                raw.sendall(hello)
                try:
                    got = replies.readline()
                except ConnectionResetError:  # closed with our line unread
                    got = b""
                if error is BlockingIOError:  # tried again when the socket is next ready
                    assert log == ["failed", method] and got == handle_line(server.state, hello).encode()
                else:
                    assert log == ["failed"] and got == b""
                assert bystander.hello()["type"] == "HelloAck"

    def test_a_complete_over_long_line_between_good_ones(self, world, monkeypatch):
        """One ``recv`` brings a good line, a complete line over the limit and
        another good line: the first is answered, then one MALFORMED, then the close."""
        monkeypatch.setattr(service, "MAX_LINE_BYTES", 100)
        _, index = world
        state = ServerState(index=index)
        hello = b'{"type":"Hello"}\n'
        with serving(state) as (_, _, address), socket.create_connection(address, timeout=5) as raw:
            raw.sendall(hello + b"x" * 200 + b"\n" + hello)
            got = _read_to_eof(raw).splitlines(keepends=True)
        assert len(got) == 2 and got[0] == handle_line(state, hello).encode()
        assert json.loads(got[1]) == {"type": "ErrorResp", "epoch": 0, "code": MALFORMED, "message": "line too long"}

    def test_socket_fuzz(self, world):
        """Criterion 13's garbage lines through a live server, three connections, random chunks."""
        _, index = world
        state = ServerState(index=index)
        rng = random.Random(229)
        streams = []
        for _ in range(3):
            lines = [garbage_line(rng) for _ in range(400)]
            streams.append(b"".join((x.encode() if isinstance(x, str) else x) + b"\n" for x in lines))
        received = [bytearray() for _ in streams]
        with serving(state) as (_, _, address), ExitStack() as open_socks:
            socks = [open_socks.enter_context(socket.create_connection(address, timeout=10)) for _ in streams]
            sent = [0] * len(streams)
            while any(sent[i] < len(s) for i, s in enumerate(streams)):
                i = rng.choice([i for i, s in enumerate(streams) if sent[i] < len(s)])
                size = rng.randint(1, 300)
                socks[i].sendall(streams[i][sent[i] : sent[i] + size])
                sent[i] += size
                for ready in select.select(socks, [], [], 0)[0]:
                    received[socks.index(ready)] += ready.recv(65536)
            for sock, buf in zip(socks, received):
                sock.shutdown(socket.SHUT_WR)
                buf += _read_to_eof(sock)
        for stream, buf in zip(streams, received):
            wire_lines = [piece + b"\n" for piece in stream.split(b"\n")[:-1]]
            replies = [piece + "\n" for piece in buf.decode().split("\n")[:-1]]
            assert buf.endswith(b"\n")
            assert replies == [handle_line(state, line) for line in wire_lines]
            assert not any('"code":"INTERNAL"' in reply for reply in replies)


@contextmanager
def scripted_peer(script):
    """A bare listening socket whose thread runs ``script(conn)`` on the one
    connection it accepts, playing the server; yields its address."""
    listener = socket.create_server(("127.0.0.1", 0))

    def run():
        conn, _ = listener.accept()
        with conn:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            try:
                script(conn)
            except OSError:  # the client closed first
                pass

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()
    finally:
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()


@contextmanager
def _raw_peer(script):
    """A ``SearchClient`` connected to a ``scripted_peer``."""
    with scripted_peer(script) as address, SearchClient(*address) as client:
        yield client


def _read_request(conn) -> bytes:
    """One request line from the client, read a byte at a time so that nothing after it is taken."""
    line = b""
    while not line.endswith(b"\n"):
        byte = conn.recv(1)
        if not byte:
            raise ConnectionError("the client closed mid-request")
        line += byte
    return line


def _until_closed(conn) -> None:
    while conn.recv(65536):
        pass


def _replies(*replies, requests: list | None = None, close: bool = False):
    """A peer script: each of ``replies``, a message or raw bytes, answers one
    request line, which goes to ``requests``; after the last the peer holds the
    connection open until the client closes it, or with ``close`` closes at once."""

    def script(conn):
        for reply in replies:
            line = _read_request(conn)
            if requests is not None:
                requests.append(line)
            conn.sendall(reply if isinstance(reply, bytes) else encode_message(reply).encode())
        if not close:
            _until_closed(conn)

    return script


# what the CLI reads of a HelloAck before it sends its SearchReq
_ACK = {"type": "HelloAck", "protocol": PROTOCOL, "method": "wildcard", "epoch": 0, "blinded": False}


def _cli(argv: list, *replies, requests: list | None = None, close: bool = False) -> int:
    """``cli_main(argv)`` with ``--server`` at a ``scripted_peer`` that answers with ``replies``."""
    with scripted_peer(_replies(*replies, requests=requests, close=close)) as (host, port):
        return cli_main([*argv, "--server", f"{host}:{port}"])


def _ack_line(size: int) -> bytes:
    """A HelloAck line of exactly ``size`` bytes, its newline included."""
    head = b'{"protocol":%d,"type":"HelloAck","pad":"' % PROTOCOL
    return head + b"a" * (size - len(head) - 3) + b'"}\n'


class TestClientReader:
    """The client cuts replies out of its own receive buffer as ``readline(MAX_REPLY_BYTES + 1)`` did."""

    def test_a_reply_sent_one_byte_per_send(self):
        line = _ack_line(300)

        def script(conn):
            _read_request(conn)
            for byte in line:
                conn.send(bytes([byte]))
            _until_closed(conn)

        with _raw_peer(script) as client:
            assert client.hello() == json.loads(line)

    def test_two_replies_in_one_segment_are_returned_in_order(self):
        first, second = _ack_line(200), _ack_line(90)

        def script(conn):
            _read_request(conn)
            conn.sendall(first + second)  # nothing more is sent: the second reply is all buffered
            _until_closed(conn)

        with _raw_peer(script) as client:
            assert client.hello() == json.loads(first)
            assert client.hello() == json.loads(second)

    @pytest.mark.parametrize("size, accepted", [(1023, True), (1024, True), (1025, False), (1 << 20, False)])
    def test_a_line_at_the_reply_limit(self, monkeypatch, size, accepted):
        monkeypatch.setattr(fzsearch.client, "MAX_REPLY_BYTES", 1024)
        line = _ack_line(size)
        with _raw_peer(_replies(line)) as client:
            if accepted:
                assert client.hello() == json.loads(line)
            else:
                with pytest.raises(BadResponse, match="^server reply exceeds 1024 bytes$"):
                    client.hello()
                # it stopped reading at the limit: what it holds past the refused 1025 bytes is one recv at most
                assert len(client._buf) < service._RECV_BYTES

    @pytest.mark.parametrize(
        "sent, outcome",
        [
            (b'{"protocol":2,"type":"HelloAck"}', {"protocol": 2, "type": "HelloAck"}),  # no newline: still the reply
            (b"", ConnectionError),
        ],
    )
    def test_end_of_input(self, sent, outcome):
        with _raw_peer(_replies(sent, close=True)) as client:
            if isinstance(outcome, dict):
                assert client.roundtrip({"type": "Hello"}) == outcome
            else:
                with pytest.raises(ConnectionError, match="server closed the connection"):
                    client.roundtrip({"type": "Hello"})

    @pytest.mark.parametrize(
        "line",
        [
            b'{"type":"Hello\xffAck"}\n',  # not UTF-8
            b'\xef\xbb\xbf{"protocol":2,"type":"HelloAck"}\n',  # UTF-8 with a byte order mark
            '{"protocol":2,"type":"HelloAck"}\n'.encode("utf-16"),
            '{"protocol":2,"type":"HelloAck"}\n'.encode("utf-16-le"),
        ],
    )
    def test_a_reply_that_is_not_bare_utf8_is_a_bad_response(self, line):
        """The protocol says UTF-8; ``json.loads(bytes)`` would have sniffed a BOM or UTF-16."""
        with _raw_peer(_replies(line)) as client:
            with pytest.raises(BadResponse, match="^server reply is not (UTF-8|JSON)$"):
                client.hello()

    def test_a_silent_peer_times_out(self, monkeypatch):
        monkeypatch.setattr(fzsearch.client, "CLIENT_TIMEOUT_SECONDS", 0.2)

        def script(conn):
            _read_request(conn)
            _until_closed(conn)

        with _raw_peer(script) as client:
            start = time.monotonic()
            with pytest.raises(TimeoutError):
                client.hello()
            assert time.monotonic() - start < 5


# What an ErrorResp message may hold: quotes, backslashes, control and non-ASCII characters, printable ASCII.
_MESSAGE_PIECES = ['"', "\\", "\x00", "\x1f", "\x7f", "\n\t\r\b\f", "\u00e9", "\u2028", "\ud7ff", "\U0001f600"]
_MESSAGE_PIECES += list(string.ascii_letters + string.digits + string.punctuation + " ")


def _wire_messages(rng: random.Random) -> list[dict]:
    """Every message type the program writes, with the hardest strings and integers JSON carries."""

    def text():
        return "".join(rng.choice(_MESSAGE_PIECES) for _ in range(rng.randrange(12)))

    def integer():
        return rng.choice([0, 1, 255, 2**63, 2**64 - 1, 10**40, rng.randrange(1 << 20)])

    messages = [{"type": "Hello"}]
    for _ in range(60):
        trapdoors = [rng.randbytes(TRAPDOOR_BYTES).hex() for _ in range(rng.randrange(20))]
        request = {"type": "SearchReq", "epoch": integer(), "k": rng.randrange(256), "trapdoors": trapdoors}
        messages += [request, dict(request, proof=True)]
        messages.append({
            "type": "HelloAck", "protocol": PROTOCOL, "epoch": integer(), "kind": rng.choice(["listing", "trie"]),
            "method": rng.choice(["wildcard", "gram"]), "d": rng.randrange(256), "trapdoor_bits": 160,
            "symbol_bits": 4, "verifiable": rng.random() < 0.5, "blinded": rng.random() < 0.5,
            "max_trapdoors": integer(),
        })
        messages.append({"type": "ErrorResp", "epoch": integer(), "code": MALFORMED, "message": text()})
    return messages


def test_encode_message_is_json_dumps():
    messages = _wire_messages(random.Random(341))
    assert [encode_message(msg) for msg in messages] == [
        json.dumps(msg, sort_keys=True, separators=(",", ":")) + "\n" for msg in messages
    ]


def test_search_writes_the_line_of_the_captured_request(km, monkeypatch):
    """The bytes ``SearchClient.search`` sends are ``encode_message`` of what perfbench's
    capture records, and of what ``conftest.search_msg`` builds for the tests."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import harness

    capture = harness._RequestCapture()
    cases = [(make_request(word, 1, km, method), epoch, proof)
             for word, method, epoch, proof in (("cat", "wildcard", 0, False), ("castle", "gram", 7, True))]
    cases.append((blind_request(cases[0][0], bytes(16)), 2**64 - 1, True))
    sent = []
    with _raw_peer(_replies(*[b'{"type":"SearchResp","records":[]}\n'] * len(cases), requests=sent)) as client:
        for req, epoch, proof in cases:
            assert client.search(req, epoch=epoch, want_proof=proof) == {"type": "SearchResp", "records": []}
    assert sent == [encode_message(capture.search(*case)).encode() for case in cases]
    built = [search_msg(req, epoch, proof=True) if proof else search_msg(req, epoch) for req, epoch, proof in cases]
    assert sent == [encode_message(msg).encode() for msg in built]


# the corpus of the CLI tests that name none of their own: file name -> text
_CORPUS = {"one.txt": "the cat sat on a mat\n", "two.txt": "a dog and a cot\n"}


def _corpus(root: Path, files: dict = _CORPUS) -> str:
    """``files`` (a name may be bytes) written to the directory ``root``/corpus; its path."""
    corpus = root / "corpus"
    corpus.mkdir(exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(os.fsencode(corpus), os.fsencode(name)), "w") as fh:
            fh.write(text)
    return str(corpus)


def _owner(root: Path, seed: bytes, *build: str, files: dict = _CORPUS, out: str = "i.fzix", code: int = 0):
    """``keygen(128, seed=seed)`` written to ``root``/k.fzky and ``files`` to
    ``root``/corpus, then ``fzsearch build`` with the ``build`` arguments into
    ``root``/``out``, asserted to exit with ``code``; the key file's and the
    index file's paths."""
    keyfile, indexfile = save_seeded_keys(root / "k.fzky", seed), str(root / out)
    assert cli_main(["build", "--keys", keyfile, "--corpus", _corpus(root, files), "--out", indexfile, *build]) == code
    return keyfile, indexfile


@contextmanager
def _searching(index, keyfile: str, host: str = "127.0.0.1", **state):
    """``ServerState(index=index, **state)`` served on ``host``; yields the
    ``--server`` and ``--keys`` arguments of a search against it."""
    with serving(ServerState(index=index, **state), host) as (_, _, (host, port)):
        yield ["--server", f"[{host}]:{port}" if ":" in host else f"{host}:{port}", "--keys", keyfile]


class TestCli:
    def test_full_owner_and_user_flow(self, tmp_path, capsys):
        keyfile, indexfile = str(tmp_path / "k.fzky"), str(tmp_path / "i.fzix")
        assert cli_main(["keygen", "--out", keyfile]) == 0
        build = ["build", "--keys", keyfile, "--corpus", _corpus(tmp_path), "--out", indexfile]
        assert cli_main([*build, "--kind", "auth", "--d", "1"]) == 0
        with _searching(load_index(indexfile), keyfile) as server_arg:
            capsys.readouterr()
            assert cli_main(["search", "cot", "1", *server_arg]) == 0
            out = capsys.readouterr().out
            assert "two.txt" in out
            assert cli_main(["verify", "cat", "0", *server_arg]) == 0
            out = capsys.readouterr().out
            assert "verified: Ok" in out and "one.txt" in out
            # distance-2 word misses
            assert cli_main(["search", "cta", "1", *server_arg]) == 0
            out = capsys.readouterr().out
            assert "one.txt" not in out and "two.txt" not in out

    def test_a_gram_exact_hit_prints_only_the_keywords_files(self, tmp_path, capsys):
        """The gram entry of "cat" also holds "cart", one deletion away; the client drops it."""
        files = {**_CORPUS, "three.txt": "a cart\n"}
        keyfile, indexfile = _owner(tmp_path, bytes.fromhex("04"), "--kind", "auth", "--method", "gram", "--d", "1", files=files)
        with _searching(load_index(indexfile), keyfile) as server_arg:
            for command in ("search", "verify"):
                capsys.readouterr()
                assert cli_main([command, "cat", "1", *server_arg]) == 0
                assert [line for line in capsys.readouterr().out.splitlines() if line.endswith(".txt")] == ["one.txt"]

    def test_build_entry_count_matches_formula(self, tmp_path, capsys):
        # entry count = sum of per-keyword wildcard set sizes minus shared variants
        from fzsearch.fuzzyset import wildcard_fuzzy_set

        _, indexfile = _owner(tmp_path, bytes.fromhex("01"), "--kind", "listing", "--d", "1")
        out = capsys.readouterr().out
        corpus = read_corpus_dir(str(tmp_path / "corpus"))
        variants = set()
        for word in corpus:
            variants.update(wildcard_fuzzy_set(word, 1))
        assert f"{len(variants)} entries" in out
        index = load_index(indexfile)
        assert len(index.table) == len(variants)

    def test_non_utf8_file_name_is_a_file_id(self, tmp_path, capsys):
        keyfile, indexfile = _owner(tmp_path, bytes.fromhex("02"), files={b"\xffbad.txt": "zebra\n"})
        with _searching(load_index(indexfile), keyfile) as server_arg:
            capsys.readouterr()
            assert cli_main(["search", "zebro", "1", *server_arg]) == 0
            assert capsys.readouterr().out == "\\xffbad.txt\n"

    def test_gram_results_beyond_k_are_not_printed(self, tmp_path, capsys):
        """A gram index answers "abdc" and "bacd" with "abcd" (2 edits away); the CLI drops it."""
        files = {"far.txt": "abcd\n", "near.txt": "abdx\n"}
        keyfile, indexfile = _owner(tmp_path, bytes.fromhex("03"), "--kind", "auth", "--method", "gram", files=files)
        km, index = load_keys(keyfile), load_index(indexfile)
        for query, keywords in (("abdc", {"abcd", "abdx"}), ("bacd", {"abcd"})):
            result = search_trie(index, make_request(query, 1, km, "gram"))
            assert {decrypt_record(km, rec)[1] for rec in result.records} == keywords
        with _searching(index, keyfile) as server_arg:
            capsys.readouterr()
            assert cli_main(["search", "abdc", "1", *server_arg]) == 0
            assert capsys.readouterr() == ("near.txt\n", "")
            assert cli_main(["verify", "ABDC", "1", *server_arg]) == 0
            assert capsys.readouterr() == ("verified: Ok\nnear.txt\n", "")
            for command in ("search", "verify"):
                assert cli_main([command, "bacd", "1", *server_arg]) == 0
                out, err = capsys.readouterr()
                assert "far.txt" not in out and err == "(no matches)\n"

    def test_gram_indexes_build_over_words_of_at_most_d_letters(self, tmp_path, capsys):
        """Deletions reach the empty word, so a, in, of, to and it are keywords at d = 1 and 2;
        ``b`` matches ``a`` through it, and every two-letter word is 2 edits away."""
        files = {"sky.txt": "a castle in the sky\n", "of.txt": "of to it\n"}
        for d in ("1", "2"):
            for kind in ("listing", "trie", "auth"):
                build = ["--kind", kind, "--method", "gram", "--d", d]
                keyfile, indexfile = _owner(tmp_path, bytes.fromhex("07"), *build, files=files, out=f"{kind}-{d}.fzix")
                with _searching(load_index(indexfile), keyfile) as server_arg:
                    capsys.readouterr()
                    assert cli_main(["search", "b", "1", *server_arg]) == 0
                    assert capsys.readouterr() == ("sky.txt\n", "")
                    if kind == "auth":
                        assert cli_main(["verify", "b", "1", *server_arg]) == 0
                        assert capsys.readouterr() == ("verified: Ok\nsky.txt\n", "")

    def test_read_corpus_dir_skips_tokens_without_letters(self, tmp_path):
        corpus = read_corpus_dir(_corpus(tmp_path, {**_CORPUS, "three.txt": "42 -- Owl! ... 7a\n"}))
        assert corpus["owl"] == [b"three.txt"] and corpus["a"] == [b"one.txt", b"three.txt", b"two.txt"]
        assert sorted(corpus) == ["a", "and", "cat", "cot", "dog", "mat", "on", "owl", "sat", "the"]

    @pytest.mark.parametrize("name, text, message", [
        ("x" * 65, "cat\n", "exceeds 64 bytes"),
        ("empty.txt", "42 -- !!\n", "no keywords found"),
    ])
    def test_build_refuses_a_long_file_name_and_a_corpus_without_keywords(self, tmp_path, capsys, name, text, message):
        _, indexfile = _owner(tmp_path, bytes.fromhex("08"), files={name: text}, code=1)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, err
        assert not os.path.exists(indexfile)

    def test_build_refuses_a_fuzzy_set_past_the_variant_cap(self, tmp_path, capsys):
        files = {**_CORPUS, "long.txt": "abcdefghijklmno\n"}  # 5,039 variants within 3 edits
        _, indexfile = _owner(tmp_path, bytes.fromhex("03"), "--d", "3", files=files, code=1)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'abcdefghijklmno'" in err and "Traceback" not in err, err
        assert not os.path.exists(indexfile)

    def test_user_without_a_directory_on_a_blinded_server(self, tmp_path, capsys):
        keyfile = save_seeded_keys(tmp_path / "k.fzky", bytes.fromhex("09"))
        km = load_keys(keyfile)
        with _searching(build_trie_index({"cat": [b"F"]}, 1, km), keyfile, xi=km.blind_key) as server_arg:
            capsys.readouterr()
            assert cli_main(["search", "cat", "1", *server_arg, "--user", "alice"]) == 1
            assert capsys.readouterr() == ("", "error: --user requires --directory\n")

    def test_a_k_above_the_servers_d_stops_before_any_fuzzy_set(self, tmp_path, capsys, monkeypatch):
        """k = 3 against a d = 1 server: the fuzzy set would grow about twofold per
        unit of k, so the CLI checks HelloAck's d first and never builds one."""
        keyfile = save_seeded_keys(tmp_path / "k.fzky", bytes.fromhex("0a"))
        index = build_auth_trie({"castle": [b"F"]}, 1, load_keys(keyfile))
        calls, real = [], fzsearch.fuzzyset.fuzzy_set
        monkeypatch.setattr(fzsearch.fuzzyset, "fuzzy_set", lambda *args: calls.append(args) or real(*args))
        with _searching(index, keyfile) as server_arg:
            for command in ("search", "verify"):
                capsys.readouterr()
                assert cli_main([command, "castle", "3", *server_arg]) == 1
                assert capsys.readouterr() == ("", "error: EDIT_BOUND: k=3 exceeds index bound d=1\n")
            assert calls == []

    def test_blinded_flow_with_enroll_and_revoke(self, tmp_path, capsys):
        keyfile, indexfile = _owner(tmp_path, bytes.fromhex("ab"))
        dirfile = str(tmp_path / "users.fzud")
        assert cli_main(["enroll", "--keys", keyfile, "--directory", dirfile, "--user", "alice"]) == 0
        assert cli_main(["enroll", "--keys", keyfile, "--directory", dirfile, "--user", "eve"]) == 0
        stale = str(tmp_path / "stale.fzud")
        shutil.copyfile(dirfile, stale)  # alice's copy from before the revoke
        assert cli_main(["revoke", "--keys", keyfile, "--directory", dirfile, "--user", "eve"]) == 0
        out = capsys.readouterr().out
        assert "epoch 1" in out

        km = load_keys(keyfile)
        with _searching(load_index(indexfile), keyfile, xi=km.blind_key, epoch=1) as server_arg:
            search = ["search", "cat", "1", *server_arg]
            for user in ([], ["--directory", dirfile, "--user", "alice"]):
                assert cli_main([*search, *user]) == 0
                assert capsys.readouterr().out == "one.txt\n"
            # a directory older than the server's key gets a clean error, exit 1
            assert cli_main([*search, "--directory", stale, "--user", "alice"]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err == "error: server error STALE_EPOCH: server epoch is 1\n"

    @pytest.mark.parametrize(
        "argv, flag",
        [
            pytest.param([command, "cat", "1", *flag], flag[0], id=f"{name}-{command}")
            for name, flag in (("blinded", ["--blinded"]), ("epoch", ["--epoch", "0"]), ("verify", ["--verify"]))
            for command in ("search", "verify")
        ]
        + [pytest.param(["keygen", "--out", "k", "--seed", "00"], "--seed", id="seed-keygen")],
    )
    def test_blinding_epoch_and_proofs_are_not_options(self, tmp_path, monkeypatch, capsys, argv, flag):
        """The server says whether it blinds and at which epoch, the directory
        says which epoch a user's key belongs to, ``verify`` checks proofs, and
        ``keygen`` draws keys only from the system's random source."""
        monkeypatch.chdir(tmp_path)
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: " + flag in err and "Traceback" not in err
        assert not os.path.exists("k")

    def test_blinding_and_epoch_follow_the_ack_and_the_directory(self, tmp_path, capsys):
        """The request is blinded exactly when HelloAck says so, and carries the
        ``--directory`` file's epoch with ``--user``, the ack's otherwise."""
        keyfile, dirfile = str(tmp_path / "k.fzky"), str(tmp_path / "users.fzud")
        save_seeded_keys(keyfile, bytes.fromhex("ee"))
        assert cli_main(["enroll", "--keys", keyfile, "--directory", dirfile, "--user", "alice"]) == 0
        km = load_keys(keyfile)
        plain = make_request("castle", 1, km)
        blinded = blind_request(plain, km.blind_key)
        user = ["--directory", dirfile, "--user", "alice"]
        for blind, extra, (want_req, want_epoch) in (
            (False, [], (plain, 3)),
            (False, user, (plain, 3)),
            (True, [], (blinded, 3)),
            (True, user, (blinded, 0)),  # alice's key is from epoch 0
        ):
            ack, sent = dict(_ACK, blinded=blind, epoch=3), []
            reply = {"type": "SearchResp", "records": []}
            assert _cli(["search", "castle", "1", "--keys", keyfile, *extra], ack, reply, requests=sent) == 0
            assert sent[1] == encode_message(search_msg(want_req, epoch=want_epoch)).encode()
        capsys.readouterr()

    def test_revoke_converges_after_a_crash_between_files(self, tmp_path, monkeypatch, capsys):
        import fzsearch.commands as commands
        from fzsearch.commands import derive_user_key
        from fzsearch.persist import load_directory

        keyfile = save_seeded_keys(tmp_path / "k.fzky", bytes.fromhex("ef"))
        dirfile = str(tmp_path / "users.fzud")
        for user in ("alice", "eve"):
            assert cli_main(["enroll", "--keys", keyfile, "--directory", dirfile, "--user", user]) == 0
        first_xi = load_keys(keyfile).blind_key

        def crash(directory, path):
            raise OSError("power cut")

        with monkeypatch.context() as patch:
            patch.setattr(commands, "save_directory", crash)
            assert cli_main(["revoke", "--keys", keyfile, "--directory", dirfile, "--user", "eve"]) == 1
        assert load_keys(keyfile).blind_key != first_xi  # the key file was written first
        assert load_directory(dirfile).epoch == 0 and "eve" in load_directory(dirfile).wrapped

        assert cli_main(["revoke", "--keys", keyfile, "--directory", dirfile, "--user", "eve"]) == 0
        km = load_keys(keyfile)
        directory = load_directory(dirfile)
        assert directory.epoch == 1 and set(directory.wrapped) == {"alice"}
        assert directory.unwrap("alice", derive_user_key(km.record_key, "alice")) == km.blind_key
        capsys.readouterr()

    @pytest.mark.parametrize("user", ["\udcff", "u" * 70_000], ids=["not-utf8", "too-long"])
    def test_user_ids_that_do_not_fit_are_usage_errors(self, tmp_path, capsys, user):
        dirfile = str(tmp_path / "users.fzud")
        for command in (["enroll"], ["revoke"], ["search", "cat", "1"], ["verify", "cat", "1"]):
            assert cli_main([*command, "--directory", dirfile, "--user", user]) == 2
            err = capsys.readouterr().err
            assert "argument --user: user id" in err and "Traceback" not in err
        assert not os.path.exists(dirfile)

    @pytest.mark.parametrize("kind", ["trie", "auth"])
    def test_serve_refuses_a_v1_index(self, capsys, kind):
        path = os.path.join(os.path.dirname(__file__), "data", f"v1_{kind}.fzix")
        assert cli_main(["serve", "--index", path, "--port", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "version 1" in err and "fzsearch build" in err
        assert "Traceback" not in err

    def test_serve_refuses_a_v2_auth_index(self, capsys):
        path = os.path.join(os.path.dirname(__file__), "data", "v2_auth.fzix")
        assert cli_main(["serve", "--index", path, "--port", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "FZIX version 2 not supported (expected 5)" in err
        assert "rebuild it with `fzsearch build`" in err and "Traceback" not in err

    def test_serve_refuses_a_v3_auth_index(self, capsys):
        """A file of AES-GCM records with their nonces: ``serve`` stops with the rebuild hint."""
        path = os.path.join(os.path.dirname(__file__), "data", "v3_auth.fzix")
        assert cli_main(["serve", "--index", path, "--port", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "FZIX version 3 not supported (expected 5)" in err
        assert "rebuild it with `fzsearch build`" in err and "Traceback" not in err

    def test_serve_refuses_a_v4_auth_index(self, capsys):
        """A file of 32-byte tags under the record key itself: ``serve`` stops with the rebuild hint."""
        path = os.path.join(os.path.dirname(__file__), "data", "v4_auth.fzix")
        assert cli_main(["serve", "--index", path, "--port", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "FZIX version 4 not supported (expected 5)" in err
        assert "rebuild it with `fzsearch build`" in err and "Traceback" not in err

    def test_serve_blinded_reads_the_key_file_before_the_index(self, tmp_path, capsys):
        """Both files missing: the error names the key file, so the index was not opened first."""
        keyfile, indexfile = str(tmp_path / "missing.fzky"), str(tmp_path / "missing.fzix")
        assert cli_main(["serve", "--index", indexfile, "--keys", keyfile, "--blinded", "--port", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and keyfile in err and indexfile not in err
        assert "Traceback" not in err

    def test_serve_blinded_refuses_a_bad_key_file_before_the_index(self, km, tmp_path, capsys):
        """The index path is missing, so an index read before the key check would name it."""
        keyfile, indexfile = str(tmp_path / "k.fzky"), str(tmp_path / "missing.fzix")
        for name, data in _damaged_key_files(km).items():
            with open(keyfile, "wb") as fh:
                fh.write(data)
            capsys.readouterr()
            assert cli_main(["serve", "--index", indexfile, "--keys", keyfile, "--blinded", "--port", "0"]) == 1, name
            assert capsys.readouterr().err == f"error: {refusal(loads_keys, data)[1]}\n", name

    def test_the_serving_line_names_the_kind_and_its_entries(self, tmp_path, capsys, monkeypatch):
        """Its ``serving <path> on <ipv4>:<port> `` prefix is what perfbench's harness reads."""
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        import harness

        monkeypatch.setattr(SearchServer, "serve_forever", lambda server: None)
        lines = []
        for kind, blinded, about in (
            ("listing", False, "single-user; listing"),
            ("trie", False, "single-user; trie"),
            ("auth", True, "blinded epoch=3; auth_trie"),
        ):
            keyfile, indexfile = _owner(tmp_path, b"serving", "--kind", kind, out=f"{kind}.fzix")
            entries = len(load_index(indexfile).table)
            capsys.readouterr()
            serve = ["serve", "--index", indexfile, "--port", "0"]
            assert cli_main([*serve, *(["--blinded", "--keys", keyfile, "--epoch", "3"] if blinded else [])]) == 0
            line = capsys.readouterr().out
            port = harness._SERVING.match(line).group(2)
            assert line == f"serving {indexfile} on 127.0.0.1:{port} ({about}, {entries} entries)\n"
            lines.append(line)
        assert lines[0].endswith("(single-user; listing, 63 entries)\n")  # entries, not the 9 keywords

    def test_key_file_with_wrong_key_lengths_is_a_clean_error(self, tmp_path, capsys):
        keyfile, indexfile = str(tmp_path / "k.fzky"), str(tmp_path / "i.fzix")
        build = ["build", "--keys", keyfile, "--corpus", _corpus(tmp_path), "--out", indexfile]
        save_keys(keygen(256, seed=b"\x02"), keyfile)
        assert cli_main(build) == 0
        km = keygen(128, seed=b"\x01")
        keys = (km.trapdoor_key, km.record_key, km.blind_key)
        for security_bits, bad in (
            (128, (km.trapdoor_key, b"12345", km.blind_key)),
            (128, (km.trapdoor_key * 2, km.record_key, km.blind_key)),
            (128, (km.trapdoor_key, km.record_key, b"")),
            (256, keys),
            (192, keys),
            (192, (b"\x07" * 24,) * 3),  # AESGCM takes these; keygen does not
        ):
            with open(keyfile, "wb") as fh:  # KeyMaterial refuses these keys
                fh.write(_key_file(security_bits, bad))
            capsys.readouterr()
            assert cli_main(build) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, err

    @pytest.mark.parametrize("d", ["-1", "256", "1.5", "x"])
    def test_an_edit_bound_fzix_cannot_hold_is_a_usage_error(self, tmp_path, capsys, d):
        """Refused before the key file is read: a wildcard build at d = 256 would
        expand fuzzy sets for minutes before the index could not be written."""
        indexfile = tmp_path / "i.fzix"
        build = ["build", "--keys", str(tmp_path / "missing.fzky"), "--corpus", _corpus(tmp_path)]
        assert cli_main([*build, "--out", str(indexfile), "--d", d]) == 2
        err = capsys.readouterr().err
        assert "argument --d: edit bound" in err and "Traceback" not in err, err
        assert not indexfile.exists()

    @pytest.mark.parametrize("k", ["-1", "256"])
    def test_a_query_bound_the_server_refuses_is_a_usage_error(self, capsys, k):
        """Refused before connecting: port 1 on the loopback would refuse the connection."""
        assert cli_main(["search", "cat", k, "--server", "127.0.0.1:1"]) == 2
        err = capsys.readouterr().err
        assert f"argument k: k '{k}' is not in 0..255" in err and "Traceback" not in err, err

    @pytest.mark.parametrize("argv", [
        ["--help"],
        *([command, "--help"] for command in COMMANDS),
        ["keygen", "--security-bits", "64"],
        ["build", "--corpus", "c", "--out", "o", "--d", "256"],
        ["serve", "--index", "i", "--port", "70000"],
        ["search", "cat", "256"],
        ["verify", "cat"],
        ["enroll", "--directory", "d", "--user", "a", "extra"],  # refused by the top parser, in its usage
        ["revoke", "--directory", "d"],
    ], ids=lambda argv: "-".join(argv))
    def test_main_prints_what_the_full_parser_prints(self, capsys, monkeypatch, argv):
        """``main`` builds only the invoked command's parser, and every command's for ``--help``."""
        try:
            build_parser().parse_args(argv)
        except SystemExit as exc:
            want = (exc.code, *capsys.readouterr())
        built, add_parser = [], argparse._SubParsersAction.add_parser

        def counted(sub, name, **kwargs):
            built.append(name)
            return add_parser(sub, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        assert (cli_main(argv), *capsys.readouterr()) == want
        assert built == (list(COMMANDS) if argv == ["--help"] else [argv[0]])

    def test_exit_codes(self, tmp_path, monkeypatch, capsys):
        assert cli_main(["bogus-command"]) == 2
        assert cli_main([]) == 2
        assert cli_main(["bench"]) == 2  # retired; perfbench is the one harness
        for argv in (
            ["search", "cat", "1", "--server", "127.0.0.1:abc"],
            ["search", "cat", "1", "--server", "127.0.0.1:65536"],
            ["search", "cat", "1", "--server", "::1:7090"],
            ["search", "cat", "1", "--server", "::1"],
            ["search", "cat", "1", "--server", "[::1"],
            ["search", "cat", "1", "--server", "[::1]7090"],
            ["search", "cat", "1", "--server", "[::1]:abc"],
            ["serve", "--index", str(tmp_path / "i.fzix"), "--port", "70000"],
            ["serve", "--index", str(tmp_path / "i.fzix"), "--port", "-1"],
            ["serve", "--index", str(tmp_path / "i.fzix"), "--epoch", "-1"],  # FZUD's epoch is a u64
            ["serve", "--index", str(tmp_path / "i.fzix"), "--epoch", str(2**64)],
        ):
            capsys.readouterr()
            assert cli_main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "error: " in err and "Traceback" not in err, err
            if argv[-1].startswith("::1"):
                assert "[::1]:7090" in err, err  # names the bracket form
        assert build_parser().parse_args(["serve", "--index", "i", "--epoch", str(2**64 - 1)]).epoch == 2**64 - 1
        assert _server("[::1]:7091") == ("::1", 7091)
        assert _server("[::1]") == _server("[::1]:") == ("::1", 7090)
        assert _server("example.org") == ("example.org", 7090) and _server(":7091") == ("127.0.0.1", 7091)
        rc = cli_main(["search", "cat", "0"])  # no key file anywhere
        assert rc == 1
        monkeypatch.setenv("FZ_KEYFILE", str(tmp_path / "missing.fzky"))
        assert cli_main(["search", "cat", "0"]) == 1
        capsys.readouterr()

    def test_ipv6_server_round_trip(self, tmp_path, capsys):
        try:
            socket.create_server(("::1", 0), family=socket.AF_INET6).close()
        except OSError:
            pytest.skip("this host has no IPv6 loopback")
        keyfile, indexfile = _owner(tmp_path, bytes.fromhex("06"))
        with _searching(load_index(indexfile), keyfile, host="::1") as server_arg:
            capsys.readouterr()
            assert cli_main(["search", "cot", "1", *server_arg]) == 0
            assert capsys.readouterr().out.split() == ["two.txt"]

    def test_keyfile_env_fallback(self, tmp_path, monkeypatch, capsys):
        keyfile = save_seeded_keys(tmp_path / "env.fzky", bytes.fromhex("cd"))
        monkeypatch.setenv("FZ_KEYFILE", keyfile)
        indexfile = str(tmp_path / "env.fzix")
        assert cli_main(["build", "--corpus", _corpus(tmp_path), "--out", indexfile]) == 0
        capsys.readouterr()


# a record blob that decodes and is long enough, but is no real ciphertext
_BLOB = "A" * 40


class TestHostileServer:
    @pytest.fixture()
    def keyfile(self, tmp_path):
        return save_seeded_keys(tmp_path / "k.fzky", bytes.fromhex("ee"))

    @pytest.mark.parametrize(
        "command, reply, message",
        [
            ("search", {"type": "SearchResp", "records": ["!!notbase64"]}, "bad record encoding"),
            ("search", {"type": "SearchResp", "records": [17]}, "bad record encoding"),
            ("search", {"type": "SearchResp", "records": "AAAA"}, "records must be a list"),
            ("search", {"type": "SearchResp", "records": ["AAAA"]}, "bad record encoding"),
            ("verify", {"type": "SearchResp", "records": [], "proofs": ["zz"]}, "bad proof encoding"),
            ("verify", {"type": "SearchResp", "records": [], "proofs": [None]}, "bad proof encoding"),
            ("verify", {"type": "SearchResp", "records": [], "proofs": ["ff02"]}, "proof encoding ends early"),
            ("verify", {"type": "SearchResp", "records": []}, "no proofs"),
            ("verify", {"type": "SearchResp", "records": [_BLOB], "proofs": []}, "CountMismatch"),
            # a v1 full match (matched_len 40, the match bits, then r1, tag and digest)
            ("verify", {"type": "SearchResp", "records": [], "proofs": ["28" + "ff" * 5 + ("20" + "00" * 32) * 3] * 14},
             "unknown proof type 0x28"),
            ("verify", {"type": "SearchResp", "records": [], "proofs": ["ff03" + "00" * 64]}, "unknown proof form 3"),
            ("verify", {"type": "SearchResp", "records": [], "proofs": ["ff0200" + "00" * 17] * 14},
             "verification failed: GapTagMismatch at proof 0"),
            ("search", {"type": "SearchResp", "records": [], "exact": "no"}, "exact must be a boolean"),
            # a reply of any other type is no search result
            *[(command, reply, "unexpected search response")
              for reply in ({}, {"type": "Bogus"}, {"type": "HelloAck", "records": []}) for command in ("search", "verify")],
            # a protocol 4 hit: flag, count, a 32-byte record digest, then the tag
            ("verify", {"type": "SearchResp", "records": [_BLOB], "exact": True, "proofs": ["ff010001" + "00" * 48]},
             "bad proof encoding: trailing bytes after proof"),
        ],
    )
    def test_bad_reply_is_a_clean_error(self, keyfile, capsys, command, reply, message):
        capsys.readouterr()
        assert _cli([command, "castle", "1", "--keys", keyfile], _ACK, reply) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_a_long_reply_type_is_not_echoed(self, keyfile, capsys):
        capsys.readouterr()
        assert _cli(["search", "castle", "1", "--keys", keyfile], _ACK, {"type": "a" * 100_000}) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unexpected search response type 'aaa") and len(err) < 100, len(err)

    @pytest.mark.parametrize("field", ["message", "code"])
    def test_a_long_error_reply_is_not_echoed(self, keyfile, capsys, field):
        reply = {"type": "ErrorResp", "epoch": 0, "code": MALFORMED, "message": "?", field: "a" * (1 << 20)}
        capsys.readouterr()
        assert _cli(["search", "castle", "1", "--keys", keyfile], _ACK, reply) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: server error ") and len(err) < 400, len(err)

    def test_random_proofs_are_a_clean_error(self, keyfile, capsys):
        """Seeded random proof bytes, most past the type byte: ``verify`` prints
        ``error: ...`` and exits 1, never a traceback."""
        rng = random.Random(822)
        for _ in range(100):
            proofs = []
            for _ in range(rng.choice([13, 14, 14, 15])):
                head = rng.choice([b"", b"\xff", b"\xff\x00", b"\xff\x01", b"\xff\x02", b"\xff\x02\x14"])
                proofs.append((head + rng.randbytes(rng.randrange(80))).hex())
            reply = {"type": "SearchResp", "records": rng.choice([[], [_BLOB]]), "exact": rng.random() < 0.2,
                     "proofs": proofs}
            capsys.readouterr()
            assert _cli(["verify", "castle", "1", "--keys", keyfile], _ACK, reply) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, err

    def test_merged_records_fail_before_verified_is_printed(self, keyfile, capsys):
        """One hit's records merged into one blob fail ``verify`` itself (the
        record digest frames the count and each length), so the CLI reports the
        verdict and prints no ``verified``."""
        km = load_keys(keyfile)
        index = build_auth_trie({"castle": [b"F1", b"F2", b"F3"]}, 1, km)
        reply = ask(ServerState(index=index), search_msg(make_request("castle", 1, km), proof=True))
        merged = b"".join(base64.b64decode(r) for r in reply["records"])
        for records, code in ((reply["records"], 0), ([base64.b64encode(merged).decode("ascii")], 1)):
            capsys.readouterr()
            assert _cli(["verify", "castle", "1", "--keys", keyfile], _ACK, dict(reply, records=records)) == code
            out, err = capsys.readouterr()
            if code:
                assert "verified" not in out and err.startswith("error: verification failed: LeafTagMismatch at proof 0")
            else:
                assert out.split() == ["verified:", "Ok", "F1", "F2", "F3"]

    def test_a_long_hello_reply_is_not_echoed(self, keyfile, capsys):
        for reply, message in (
            ({"type": "a" * (1 << 20)}, "error: unexpected hello response type 'aaa"),
            ({"type": "HelloAck", "protocol": "a" * 1_000_000}, "error: server speaks protocol 'aaa"),
        ):
            capsys.readouterr()
            assert _cli(["search", "castle", "1", "--keys", keyfile], reply) == 1
            err = capsys.readouterr().err
            assert err.startswith(message) and len(err) < 100, len(err)

    def test_hello_without_method(self, keyfile, capsys):
        capsys.readouterr()
        assert _cli(["search", "castle", "1", "--keys", keyfile], {"type": "HelloAck", "protocol": PROTOCOL}) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "line, message",
        [
            (b'{"type":"HelloAck","method":"wildcard","epoch":0,"blinded":true}\n', "protocol None"),
            (b'{"type":"HelloAck","method":"wildcard","epoch":0,"blinded":true,"protocol":1}\n', "protocol 1"),
            (b'{"type":"HelloAck","method":"wildcard","epoch":0,"blinded":true,"protocol":2}\n', "protocol 2"),
            (b'{"type":"HelloAck","method":"wildcard","epoch":0,"blinded":true,"protocol":3}\n', "protocol 3"),
            (b'{"type":"HelloAck","method":"wildcard","epoch":0,"blinded":true,"protocol":4}\n', "protocol 4"),
            (b'{"type":"ErrorResp","code":"MALFORMED","message":"?"}\n', "unexpected hello response"),
        ],
    )
    def test_hello_from_another_protocol(self, keyfile, capsys, line, message):
        """A server without protocol 5 gets no request: the client stops at the
        HelloAck.  A protocol 4 server sends a proof per trapdoor on an exact
        answer and a record digest in each hit proof, a protocol 3 server
        32-byte tags under the record key, a protocol 2 server AES-GCM records
        and unframed record digests, and a protocol 1 server inverts HMAC
        Feistel rounds."""
        self._answer_hello_with(line, keyfile, capsys, "error: ", message)

    @pytest.mark.parametrize("line", [b"not json\n", b"[1, 2]\n", b"\xff\xfe\n"])
    def test_non_object_reply(self, keyfile, capsys, line):
        self._answer_hello_with(line, keyfile, capsys, "error: server reply is not")

    def test_reply_with_an_integer_past_the_digit_limit(self, keyfile, capsys, too_many_digits):
        line = b'{"type":"HelloAck","protocol":%s}\n' % too_many_digits.encode()
        self._answer_hello_with(line, keyfile, capsys, "error: server reply is not JSON")

    def test_a_server_that_closes_without_a_reply(self, keyfile, capsys):
        self._answer_hello_with(b"", keyfile, capsys, "error: server closed the connection", close=True)

    def test_reply_longer_than_the_cap(self, keyfile, monkeypatch, capsys):
        monkeypatch.setattr("fzsearch.client.MAX_REPLY_BYTES", 1024)
        line = b'{"type":"HelloAck","pad":"' + b"a" * 4096 + b'"}\n'
        self._answer_hello_with(line, keyfile, capsys, "error: server reply exceeds 1024 bytes")

    def _answer_hello_with(self, line, keyfile, capsys, message, detail="", close=False):
        capsys.readouterr()
        assert _cli(["search", "castle", "1", "--keys", keyfile], line, close=close) == 1
        err = capsys.readouterr().err
        assert err.startswith(message) and detail in err and "Traceback" not in err, err


def _hostile_variants(resp: dict, rng: random.Random, records_pool: list, proofs_pool: list):
    """Mutated copies of an honest SearchResp: flags, records and proofs
    dropped, doubled, reordered, borrowed from other answers or damaged."""

    def edit_list(items: list, pool: list) -> list:
        items = list(items)
        op = rng.randrange(5)
        if op == 0 and items:
            del items[rng.randrange(len(items))]
        elif op == 1 and items:
            items.insert(rng.randrange(len(items) + 1), rng.choice(items))
        elif op == 2 and len(items) > 1:
            i = rng.randrange(len(items) - 1)
            items[i], items[i + 1] = items[i + 1], items[i]
        elif op == 3:
            items.insert(rng.randrange(len(items) + 1), rng.choice(pool))
        elif items and isinstance(items[-1], str) and items[-1]:
            text = items[-1]
            j = rng.randrange(len(text))
            items[-1] = rng.choice([
                text[:j] + rng.choice(string.hexdigits + "+/=") + text[j + 1 :],
                text[:-2], text + "0", text.upper(), None, 7,
            ])
        return items

    yield {**resp, "exact": not resp["exact"]}
    for _ in range(40):
        out = dict(resp)
        for _ in range(rng.randint(1, 3)):
            field = rng.choice(["exact", "records", "proofs", "replace"])
            if field == "exact":
                out["exact"] = rng.choice([True, False, 1, 0, "no", None])
            elif field == "replace":
                out[rng.choice(["records", "proofs"])] = rng.choice([None, "00", {}, [], [[]]])
            elif isinstance(out[field], list):
                out[field] = edit_list(out[field], records_pool if field == "records" else proofs_pool)
        yield out


def _hostile_json(rng: random.Random, depth: int = 0):
    """A random JSON-shaped value: scalars of every type, non-ASCII and surrogate
    text, near-miss hex and base64, and nested lists and objects."""
    roll = rng.randrange(12)
    if roll == 0 and depth < 3:
        return [_hostile_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    if roll == 1 and depth < 3:
        return {rng.choice(["records", "proofs", "exact", ""]): _hostile_json(rng, depth + 1) for _ in range(rng.randrange(3))}
    raw = rng.randbytes(rng.randrange(0, 90))
    return rng.choice([
        None, True, False, 0, -1, 2**80, 1.5, float("nan"), "", " ", "\ud800", "é" * 4, "٣٣", "ff" * 20 + "\n",
        raw.hex(), raw.hex().upper(), raw.hex()[1:], base64.b64encode(raw).decode(), base64.b64encode(raw).decode()[1:],
        base64.urlsafe_b64encode(raw).decode(), raw.decode("latin-1"),
    ])


def _hostile_proof(rng: random.Random, near: bytes) -> bytes:
    """A proof of each form with random fields, a miss's ends near ``near``; one in five damaged."""
    form = rng.choice([0, 1, 2, 2])
    if form < 2:
        proof = bytes([0xFF, form]) + rng.randbytes(66)
    else:
        ends = [rng.choice([b"", near, rng.randbytes(rng.choice([1, 19, 20, 21])), bytes(20), b"\xff" * 20]) for _ in range(2)]
        proof = bytes([0xFF, 2]) + b"".join(bytes([len(e)]) + e for e in ends) + rng.randbytes(32)
    if rng.random() < 0.2:
        proof = rng.choice([proof[: rng.randrange(len(proof))], proof + b"\0", b"\xfe" + proof[1:], proof[:1] + b"\3" + proof[2:]])
    return proof


def _edited(resp: dict, req: SearchRequest, rng: random.Random) -> dict:
    """A copy of an honest SearchResp with one to three fields replaced: by a
    ``_hostile_json`` value, by its proofs with ``_hostile_proof`` items spliced
    in, or by random records."""
    resp = dict(resp)
    for _ in range(rng.randint(1, 3)):
        field = rng.choice(["records", "proofs", "exact"])
        if field == "exact" or rng.random() < 0.5:
            resp[field] = _hostile_json(rng)
        elif field == "proofs":
            proofs = list(resp["proofs"]) if isinstance(resp["proofs"], list) else []
            for _ in range(rng.randint(1, 3)):
                at = rng.randrange(len(proofs) + 1)
                proofs[at : at + rng.randrange(2)] = [_hostile_proof(rng, rng.choice(req.trapdoors)).hex()]
            resp[field] = proofs
        elif field == "records":
            resp[field] = [base64.b64encode(rng.randbytes(rng.choice([0, 20, 21, 60]))).decode() for _ in range(rng.randrange(4))]
    return resp


def _honest_answers(km, corpus: dict, method: str, queries: list) -> list:
    """``(request, SearchResp with proofs)`` of each query, from an auth trie over ``corpus``."""
    state = ServerState(index=build_auth_trie(corpus, 1, km, method))
    reqs = [make_request(query, 1, km, method) for query in queries]
    return [(req, ask(state, search_msg(req, proof=True))) for req in reqs]


def test_hostile_auth_answers_end_in_a_clean_outcome(km):
    """Two seeded streams of hostile answers: gram answers mutated by
    ``_hostile_variants``, and 3,000 wildcard answers with fields replaced by
    ``_edited``.  The SearchResp readers raise ``BadResponse`` and nothing else,
    ``verify`` gives a verdict, and an accepted answer carries the honest
    records and proofs; each stream reaches all three outcomes."""
    rng = random.Random(821)
    corpus = random_corpus(rng, size=25, lo=3, hi=6)
    corpus.update({"cart": [b"F-cart"], "cat": [b"F-cat"], "bat": [b"F-bat"]})
    words = sorted(corpus)
    answers = _honest_answers(km, corpus, "gram", ["cat", "cut", "cart"] + [mutate(rng.choice(words), rng) for _ in range(20)])
    records_pool = [r for _, resp in answers for r in resp["records"]]
    proofs_pool = [p for _, resp in answers for p in resp["proofs"]]
    mutated = [(req, resp, _hostile_variants(resp, rng, records_pool, proofs_pool)) for req, resp in answers]
    edit_rng = random.Random(2028)
    castles = {"castle": [b"F1"], "cattle": [b"F2"], "catalog": [b"F3"]}
    edited = [(req, resp, []) for req, resp in _honest_answers(km, castles, "wildcard", ["catle", "castle", "zebra"])]
    for _ in range(3000):
        req, resp, variants = edit_rng.choice(edited)
        variants.append(_edited(resp, req, edit_rng))
    for stream in (mutated, edited):
        outcomes = {"error": 0, "rejected": 0, "accepted": 0}
        for req, honest, variants in stream:
            want_records = result_from_response(honest).records
            want_proofs = proofs_from_response(honest)
            assert verify(req, result_from_response(honest), want_proofs, km).accepted
            for resp in variants:
                try:
                    result = result_from_response(resp)
                    proofs = proofs_from_response(resp)
                except BadResponse:
                    outcomes["error"] += 1
                    continue
                verdict = verify(req, result, proofs, km)
                if verdict.accepted:
                    assert result.records == want_records and proofs == want_proofs, resp
                outcomes["accepted" if verdict.accepted else "rejected"] += 1
        assert all(outcomes.values()), outcomes


def test_a_cut_proof_is_a_bad_response(km):
    """Proof text that is valid hex but no whole proof encoding is ``BadResponse``,
    as a bad hex item is, not the codec's ``Truncated``."""
    index = build_auth_trie({"castle": [b"F1"]}, 1, km)
    resp = ask(ServerState(index=index), search_msg(make_request("castle", 1, km), proof=True))
    assert len(proofs_from_response(resp)) == len(resp["proofs"])
    for i in range(len(resp["proofs"])):
        proofs = list(resp["proofs"])
        for cut in (proofs[i][:-2], proofs[i][:4], ""):
            proofs[i] = cut
            with pytest.raises(BadResponse, match="^bad proof encoding: "):
                proofs_from_response(dict(resp, proofs=proofs))


def test_decrypt_record_and_unwrap_blind_key_give_a_value_or_an_fzerror(km):
    """Seeded hostile inputs to the decoders a client runs on what it holds
    beside a SearchResp: ``decrypt_record`` on authentic but malformed
    payloads, and ``unwrap_blind_key``.  Each ends in a value or an
    ``FzError``; nothing else escapes.  The SearchResp readers and ``verify``
    get theirs in ``test_hostile_auth_answers_end_in_a_clean_outcome``."""
    rng = random.Random(2028)
    seal = AESGCM(km.record_key).encrypt
    for _ in range(2000):
        fid = rng.randbytes(rng.choice([0, 1, 5, 64, 200]))
        keyword = rng.choice([b"", b"castle", "é".encode(), rng.randbytes(rng.randrange(8))])
        payload = rng.choice([b"", bytes([len(fid) % 256]) + fid + keyword, rng.randbytes(rng.randrange(70))])
        nonce = rng.randbytes(12)
        try:
            got_fid, got_keyword = decrypt_record(km, nonce + seal(nonce, payload, None))
        except FzError:
            continue
        assert isinstance(got_fid, bytes) and got_fid and isinstance(got_keyword, str) and got_keyword.isascii()

    user_ids = ["alice", "", "é", "\ud800", "a\udcffb", "x" * 70000, "\x00"]
    xi = bytes(range(16))
    for _ in range(500):
        user_key = rng.randbytes(rng.choice([0, 16, 32, 100]))
        user_id = rng.choice(user_ids)
        blob = wrap_blind_key(user_key, "alice", xi)
        blob = rng.choice([blob, blob[:-1], blob + b"\0", blob[:27], b"", rng.randbytes(rng.randrange(60))])
        try:
            assert unwrap_blind_key(user_key, user_id, blob) == xi
        except FzError:
            continue
