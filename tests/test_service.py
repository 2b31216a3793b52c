import base64
import dataclasses
import json
import os
import random
import select
import socket
import stat
import string
import threading
import time

import pytest

from conftest import garbage_line, mutate, random_corpus
from fzsearch import (
    BadMagic,
    BadParameter,
    ListingIndex,
    Truncated,
    UserDirectory,
    VersionUnsupported,
    build_auth_trie,
    build_listing_index,
    build_trie_index,
    decrypt_record,
    keygen,
    make_request,
    search_trie,
)
from fzsearch.cli import _server
from fzsearch.cli import main as cli_main
from fzsearch.errors import BadResponse
from fzsearch.multiuser import blind_request
from fzsearch.persist import (
    dumps_directory,
    dumps_index,
    dumps_keys,
    load_index,
    load_keys,
    loads_directory,
    loads_index,
    loads_keys,
    save_index,
    save_keys,
)
from fzsearch.service import (
    PROTOCOL,
    SearchClient,
    SearchServer,
    ServerConfig,
    ServerState,
    encode_message,
    handle_line,
    handle_message,
    proofs_from_response,
    result_from_response,
)
from fzsearch.verifiable import decode_proof, verify


@pytest.fixture(scope="module")
def world(km):
    rng = random.Random(191)
    corpus = random_corpus(rng, size=30, lo=3, hi=6)
    return corpus, build_trie_index(corpus, 1, km)


def search_msg(req, epoch=0, **extra):
    msg = {
        "type": "SearchReq",
        "epoch": epoch,
        "k": req.k,
        "trapdoors": [t.hex() for t in req.trapdoors],
    }
    msg.update(extra)
    return msg


class TestHandler:
    def test_hello_ack_fields(self, km, world):
        _, index = world
        ack = handle_message(ServerState(index=index), {"type": "Hello"})
        assert ack["type"] == "HelloAck"
        assert ack["kind"] == "trie" and ack["method"] == "wildcard"
        assert ack["d"] == 1 and ack["trapdoor_bits"] == 160 and ack["symbol_bits"] == 4
        assert ack["verifiable"] is False and ack["blinded"] is False
        assert ack["protocol"] == PROTOCOL == 2

    def test_wire_layer_adds_and_removes_nothing(self, km, world):
        corpus, index = world
        state = ServerState(index=index)
        for word in sorted(corpus)[:10]:
            req = make_request(word, 1, km)
            resp = handle_message(state, search_msg(req))
            assert resp["type"] == "SearchResp"
            direct = search_trie(index, req)
            via_wire = result_from_response(resp)
            assert via_wire.exact_hit == direct.exact_hit
            assert via_wire.records == direct.records

    def test_response_is_byte_stable(self, km, world):
        corpus, index = world
        state = ServerState(index=index)
        req = make_request(sorted(corpus)[0], 1, km)
        line = json.dumps(search_msg(req))
        assert handle_line(state, line) == handle_line(state, line)

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
                out = handle_message(state, msg)
                assert out["type"] == "ErrorResp" and out["code"] == "MALFORMED", msg
                assert not out["message"].startswith("unhandled request error"), msg

    def test_edit_bound_error(self, km, world):
        _, index = world
        out = handle_message(ServerState(index=index), search_msg(make_request("cat", 2, km)))
        assert out["code"] == "EDIT_BOUND"

    def test_too_many_trapdoors(self, km, world):
        _, index = world
        state = ServerState(index=index, config=ServerConfig(max_request_trapdoors=4))
        out = handle_message(state, search_msg(make_request("castle", 1, km)))
        assert out["code"] == "TOO_MANY_TRAPDOORS"

    def test_stale_epoch_only_in_blinded_mode(self, km, world):
        _, index = world
        req = make_request("cat", 1, km)
        plain = ServerState(index=index)
        assert handle_message(plain, search_msg(req, epoch=5))["type"] == "SearchResp"
        blinded = ServerState(index=index, xi=km.blind_key, epoch=3)
        out = handle_message(blinded, search_msg(blind_request(req, km.blind_key), epoch=2))
        assert out["code"] == "STALE_EPOCH"
        ok = handle_message(blinded, search_msg(blind_request(req, km.blind_key), epoch=3))
        assert ok["type"] == "SearchResp"

    def test_proofs_only_from_auth_index(self, km, world):
        corpus, index = world
        req = make_request(sorted(corpus)[0], 1, km)
        plain = handle_message(ServerState(index=index), search_msg(req, proof=True))
        assert plain["type"] == "SearchResp" and "proofs" not in plain
        auth = build_auth_trie(corpus, 1, km)
        resp = handle_message(ServerState(index=auth), search_msg(req, proof=True))
        assert len(resp["proofs"]) == len(req.trapdoors)
        proofs = [decode_proof(bytes.fromhex(p)) for p in resp["proofs"]]
        verdict = verify(req, result_from_response(resp), proofs, km)
        assert verdict.accepted

    def test_server_fault_is_internal(self, km, world, monkeypatch):
        import fzsearch.service as service

        def broken(index, req):
            raise RuntimeError("boom")

        _, index = world
        monkeypatch.setattr(service, "search_listing", broken)
        out = handle_message(ServerState(index=index), search_msg(make_request("cat", 1, km)))
        assert out["type"] == "ErrorResp" and out["code"] == "INTERNAL"
        assert out["message"] == "unhandled request error: RuntimeError"

    def test_handler_survives_fuzz(self, world):
        _, index = world
        state = ServerState(index=index)
        rng = random.Random(193)
        printable = string.printable
        for i in range(2000):
            roll = rng.random()
            if roll < 0.3:
                line = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 80)))
            elif roll < 0.6:
                line = "".join(rng.choice(printable) for _ in range(rng.randrange(0, 120)))
            elif roll < 0.8:
                line = json.dumps({rng.choice(["type", "k", "x"]): rng.choice([None, 1e308, "SearchReq", [], {}])})
            else:
                line = json.dumps(
                    {
                        "type": "SearchReq",
                        "k": rng.choice([0, 1, -5, 2**40, "x", None]),
                        "epoch": rng.choice([0, "e", None]),
                        "trapdoors": rng.choice([None, [], ["00" * 20], ["xx" * 20], [1, 2]]),
                    }
                )
            out = handle_line(state, line)
            parsed = json.loads(out)
            assert parsed["type"] in ("SearchResp", "ErrorResp", "HelloAck"), (i, line)


class TestPersistence:
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

    @pytest.mark.parametrize("kind", ["listing", "trie", "auth"])
    @pytest.mark.parametrize("method", ["wildcard", "gram"])
    def test_index_round_trip_byte_identical(self, km, kind, method):
        rng = random.Random(197)
        corpus = random_corpus(rng, size=15, lo=3, hi=6)
        build = {
            "listing": build_listing_index,
            "trie": build_trie_index,
            "auth": build_auth_trie,
        }[kind]
        index = build(corpus, 1, km, method)
        blob = dumps_index(index)
        loaded = loads_index(blob)
        assert type(loaded) is type(index)
        assert loaded.method == method and loaded.d == 1
        assert dumps_index(loaded) == blob

    @pytest.mark.parametrize("kind", ["listing", "trie", "auth"])
    def test_rebuilds_are_byte_identical(self, km, kind):
        rng = random.Random(227)
        corpus = random_corpus(rng, size=20)
        build = {
            "listing": build_listing_index,
            "trie": build_trie_index,
            "auth": build_auth_trie,
        }[kind]
        assert dumps_index(build(corpus, 1, km)) == dumps_index(build(corpus, 1, km))

    def test_loaded_index_answers_searches(self, km, world):
        corpus, index = world
        loaded = loads_index(dumps_index(index))
        for word in sorted(corpus)[:5]:
            req = make_request(word, 1, km)
            a, b = search_trie(index, req), search_trie(loaded, req)
            assert a.records == b.records

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            loads_index(b"XXXX" + bytes(40))
        with pytest.raises(BadMagic):
            loads_keys(b"FZIX" + bytes(40))

    def test_bad_version(self, km):
        blob = bytearray(dumps_keys(km))
        blob[4] = 99
        with pytest.raises(VersionUnsupported):
            loads_keys(bytes(blob))

    def test_unknown_flags(self, km):
        blob = bytearray(dumps_index(build_listing_index({"cat": [b"F"]}, 0, km)))
        blob[5] |= 0x80
        with pytest.raises(BadParameter):
            loads_index(bytes(blob))

    def test_record_count_overflow_is_a_parameter_error(self):
        index = ListingIndex(
            table={bytes(20): (bytes(28),) * 65536}, trapdoor_bits=160, symbol_bits=4, d=1
        )
        with pytest.raises(BadParameter, match="65535"):
            dumps_index(index)

    def test_trapdoor_of_another_width_is_a_parameter_error(self):
        for width in (19, 21):
            index = ListingIndex(table={bytes(width): (bytes(28),)}, trapdoor_bits=160, symbol_bits=4, d=1)
            with pytest.raises(BadParameter, match=f"a {width}-byte trapdoor"):
                dumps_index(index)

    def test_truncations_never_crash(self, km):
        corpus = {"cat": [b"F1"], "dog": [b"F2"]}
        rng = random.Random(199)
        for blob in (
            dumps_index(build_trie_index(corpus, 1, km)),
            dumps_index(build_listing_index(corpus, 1, km)),
            dumps_index(build_auth_trie(corpus, 0, km)),
            dumps_keys(km),
            dumps_directory(UserDirectory(current_xi=km.blind_key).enroll("alice", b"ka")),
        ):
            loads = {b"FZKY": loads_keys, b"FZUD": loads_directory}.get(blob[:4], loads_index)
            cuts = rng.sample(range(len(blob)), min(100, len(blob)))
            for cut in cuts:
                with pytest.raises(Truncated):
                    loads(blob[:cut])

    def test_directory_round_trip(self, km):
        directory = UserDirectory(current_xi=km.blind_key)
        directory.enroll("alice", b"ka").enroll("bob", b"kb")
        blob = dumps_directory(directory)
        loaded = loads_directory(blob, current_xi=km.blind_key)
        assert loaded.epoch == 0 and set(loaded.wrapped) == {"alice", "bob"}
        assert loaded.unwrap("alice", b"ka") == km.blind_key
        assert dumps_directory(loaded) == blob

    def test_directory_with_a_non_utf8_user_id_is_a_parameter_error(self):
        blob = b"FZUD\x01" + (0).to_bytes(8, "big") + (1).to_bytes(4, "big")
        blob += b"\x00\x02\xff\xfe" + b"\x00\x01w"
        with pytest.raises(BadParameter, match="UTF-8"):
            loads_directory(blob)


@pytest.fixture(scope="module")
def live_server(km, world):
    _, index = world
    server = SearchServer(ServerState(index=index), port=0)
    server.start()
    yield server.server_address[1], index
    server.shutdown()
    server.server_close()


class TestSocketServer:
    def test_round_trips(self, km, live_server):
        port, index = live_server
        with SearchClient("127.0.0.1", port) as client:
            ack = client.hello()
            assert ack["type"] == "HelloAck"
            req = make_request("cat", 1, km)
            resp = client.search(req)
            assert resp["type"] in ("SearchResp",)

    def test_server_survives_socket_garbage(self, km, live_server):
        port, _ = live_server
        rng = random.Random(211)
        for _ in range(50):
            raw = socket.create_connection(("127.0.0.1", port), timeout=5)
            try:
                raw.sendall(bytes(rng.randrange(1, 256) for _ in range(rng.randrange(1, 200))) + b"\n")
                raw.recv(65536)
            finally:
                raw.close()
        # still answering afterwards
        with SearchClient("127.0.0.1", port) as client:
            assert client.hello()["type"] == "HelloAck"

    def test_shutdown_returns_without_waiting_for_the_poll(self, world):
        _, index = world
        server = SearchServer(ServerState(index=index), port=0)
        thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 30}, daemon=True)
        thread.start()
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
        config = ServerConfig(max_line_bytes=512)
        server = SearchServer(ServerState(index=index, config=config), port=0)
        server.start()
        try:
            port = server.server_address[1]
            raw = socket.create_connection(("127.0.0.1", port), timeout=5)
            raw.sendall(b"A" * 2048 + b"\n")
            data = raw.makefile("rb").readline()
            assert b"MALFORMED" in data
            raw.close()
            with SearchClient("127.0.0.1", port) as client:
                assert client.hello()["type"] == "HelloAck"
        finally:
            server.shutdown()
            server.server_close()


def _serve(state):
    server = SearchServer(state, port=0)
    server.start()
    return server, ("127.0.0.1", server.server_address[1])


def _stop(server):
    server.shutdown()
    server.server_close()


def _read_to_eof(sock) -> bytes:
    return b"".join(iter(lambda: sock.recv(65536), b""))


class TestReadinessLoop:
    """The one-thread server keeps the per-connection behaviour of a blocking handler."""

    def test_slow_reader_stalls_no_one(self, km):
        # "cat" and "dog" have 200 files each, so 2,000 replies hold megabytes
        corpus = {"cat": [b"f%04d" % i for i in range(200)], "dog": [b"g%04d" % i for i in range(200)]}
        state = ServerState(index=build_listing_index(corpus, 1, km))
        words = ["cat", "dog", "cta"]
        lines = [encode_message(search_msg(make_request(words[i % 3], 1, km))).encode() for i in range(2000)]
        expected = [handle_line(state, line).encode() for line in lines]
        server, address = _serve(state)
        slow = socket.socket()
        slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        slow.settimeout(30)
        replies = slow.makefile("rb")
        try:
            slow.connect(address)
            sender = threading.Thread(target=slow.sendall, args=(b"".join(lines),), daemon=True)
            sender.start()
            assert replies.readline() == expected[0]  # the server is answering, and nobody reads on
            with SearchClient(*address, timeout=5) as other:
                assert other.hello()["type"] == "HelloAck"
            assert [replies.readline() for _ in expected[1:]] == expected[1:]
            sender.join(timeout=30)
            assert not sender.is_alive()
        finally:
            replies.close()
            slow.close()  # resets the connection, unread replies and all
            _stop(server)

    def test_byte_at_a_time(self, km, live_server):
        port, index = live_server
        line = encode_message(search_msg(make_request("cat", 1, km))).encode()
        answers = []
        for chunk in (1, len(line)):
            with socket.create_connection(("127.0.0.1", port), timeout=10) as raw:
                raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for i in range(0, len(line), chunk):
                    raw.sendall(line[i : i + chunk])
                answers.append(raw.makefile("rb").readline())
        assert answers[0] == answers[1] == handle_line(ServerState(index=index), line).encode()

    def test_lines_in_one_send(self, km, live_server):
        port, index = live_server
        lines = [b'{"type":"Hello"}\n', b"garbage\n"]
        lines += [encode_message(search_msg(make_request(w, 1, km))).encode() for w in ("cat", "dog", "owl")]
        state = ServerState(index=index)
        with socket.create_connection(("127.0.0.1", port), timeout=10) as raw:
            raw.sendall(b"".join(lines))
            raw.shutdown(socket.SHUT_WR)
            got = _read_to_eof(raw)
        assert got == "".join(handle_line(state, line) for line in lines).encode()

    def test_partial_last_line(self, km, live_server):
        port, index = live_server
        line = encode_message(search_msg(make_request("cat", 1, km))).encode().rstrip(b"\n")
        with socket.create_connection(("127.0.0.1", port), timeout=10) as raw:
            raw.sendall(line)
            raw.shutdown(socket.SHUT_WR)
            got = _read_to_eof(raw)
        assert got == handle_line(ServerState(index=index), line).encode()

    def test_idle_and_stalled_connections_are_closed(self, km):
        state = ServerState(
            index=build_listing_index({"cat": [b"f%04d" % i for i in range(200)]}, 1, km),
            config=ServerConfig(timeout=0.2),
        )
        line = encode_message(search_msg(make_request("cat", 1, km))).encode()
        server, address = _serve(state)
        stalled = socket.socket()
        stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        try:
            stalled.connect(address)
            stalled.setblocking(False)
            try:  # replies to these fill every buffer on the way, and nobody reads them
                stalled.send(line * 4000)
            except BlockingIOError:
                pass
            with socket.create_connection(address, timeout=0.05) as idle, SearchClient(*address, timeout=5) as busy:
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
        finally:
            stalled.close()
            _stop(server)

    def test_connection_cap(self, world):
        _, index = world
        server = SearchServer(ServerState(index=index), port=0)
        server.max_connections = 4
        server.start()
        address = ("127.0.0.1", server.server_address[1])
        clients = []
        try:
            for _ in range(4):
                clients.append(SearchClient(*address, timeout=5))
                assert clients[-1].hello()["type"] == "HelloAck"
            with socket.create_connection(address, timeout=0.3) as fifth:
                fifth.sendall(b'{"type":"Hello"}\n')
                with pytest.raises(socket.timeout):
                    fifth.recv(1)
                clients.pop().close()
                fifth.settimeout(5)
                assert json.loads(fifth.makefile("rb").readline())["type"] == "HelloAck"
        finally:
            for client in clients:
                client.close()
            _stop(server)

    def test_server_fault_drops_only_that_connection(self, world, monkeypatch):
        import fzsearch.service as service

        def broken(state, line):
            raise RuntimeError("boom")

        _, index = world
        server, address = _serve(ServerState(index=index))
        try:
            with SearchClient(*address, timeout=5) as bystander, socket.create_connection(address, timeout=5) as raw:
                assert bystander.hello()["type"] == "HelloAck"
                monkeypatch.setattr(service, "handle_line", broken)
                raw.sendall(b'{"type":"Hello"}\n')
                assert raw.recv(1) == b""
                monkeypatch.undo()
                assert bystander.hello()["type"] == "HelloAck"
        finally:
            _stop(server)

    def test_socket_fuzz(self, world):
        """Criterion 13's garbage lines through a live server, three connections, random chunks."""
        _, index = world
        state = ServerState(index=index)
        rng = random.Random(229)
        streams = []
        for _ in range(3):
            lines = [garbage_line(rng) for _ in range(400)]
            streams.append(b"".join((x.encode() if isinstance(x, str) else x) + b"\n" for x in lines))
        server, address = _serve(state)
        socks = [socket.create_connection(address, timeout=10) for _ in streams]
        received = [bytearray() for _ in streams]
        try:
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
        finally:
            for sock in socks:
                sock.close()
            _stop(server)
        for stream, buf in zip(streams, received):
            wire_lines = [piece + b"\n" for piece in stream.split(b"\n")[:-1]]
            replies = [piece + "\n" for piece in buf.decode().split("\n")[:-1]]
            assert buf.endswith(b"\n")
            assert replies == [handle_line(state, line) for line in wire_lines]
            assert not any('"code":"INTERNAL"' in reply for reply in replies)


class TestCli:
    @pytest.fixture()
    def workspace(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        (corpus_dir / "one.txt").write_text("the cat sat on a mat\n")
        (corpus_dir / "two.txt").write_text("a dog and a cot\n")
        return tmp_path

    def test_full_owner_and_user_flow(self, workspace, capsys):
        keyfile = str(workspace / "k.fzky")
        indexfile = str(workspace / "i.fzix")
        assert cli_main(["keygen", "--out", keyfile, "--seed", "00ff"]) == 0
        assert (
            cli_main(
                ["build", "--keys", keyfile, "--corpus", str(workspace / "corpus"),
                 "--out", indexfile, "--kind", "auth", "--d", "1"]
            )
            == 0
        )
        server = SearchServer(ServerState(index=load_index(indexfile)), port=0)
        server.start()
        port = server.server_address[1]
        try:
            capsys.readouterr()
            assert cli_main(["search", "cot", "1", "--server", f"127.0.0.1:{port}", "--keys", keyfile]) == 0
            out = capsys.readouterr().out
            assert "two.txt" in out
            assert cli_main(["verify", "cat", "0", "--server", f"127.0.0.1:{port}", "--keys", keyfile]) == 0
            out = capsys.readouterr().out
            assert "verified: Ok" in out and "one.txt" in out
            # distance-2 word misses
            assert cli_main(["search", "cta", "1", "--server", f"127.0.0.1:{port}", "--keys", keyfile]) == 0
            out = capsys.readouterr().out
            assert "one.txt" not in out and "two.txt" not in out
        finally:
            server.shutdown()
            server.server_close()

    def test_build_entry_count_matches_formula(self, workspace, capsys):
        # entry count = sum of per-keyword wildcard set sizes minus shared variants
        from fzsearch.fuzzyset import wildcard_fuzzy_set
        from fzsearch.cli import read_corpus_dir

        keyfile = str(workspace / "k.fzky")
        indexfile = str(workspace / "i.fzix")
        assert cli_main(["keygen", "--out", keyfile, "--seed", "01"]) == 0
        assert (
            cli_main(
                ["build", "--keys", keyfile, "--corpus", str(workspace / "corpus"),
                 "--out", indexfile, "--kind", "listing", "--d", "1"]
            )
            == 0
        )
        out = capsys.readouterr().out
        corpus = read_corpus_dir(str(workspace / "corpus"))
        variants = set()
        for word in corpus:
            variants.update(wildcard_fuzzy_set(word, 1))
        assert f"{len(variants)} entries" in out
        index = load_index(indexfile)
        assert len(index.table) == len(variants)

    def test_non_utf8_file_name_is_a_file_id(self, workspace, capsys):
        corpus_dir = workspace / "odd"
        corpus_dir.mkdir()
        with open(os.path.join(os.fsencode(corpus_dir), b"\xffbad.txt"), "w") as fh:
            fh.write("zebra\n")
        keyfile, indexfile = str(workspace / "k.fzky"), str(workspace / "i.fzix")
        assert cli_main(["keygen", "--out", keyfile, "--seed", "02"]) == 0
        assert cli_main(["build", "--keys", keyfile, "--corpus", str(corpus_dir), "--out", indexfile]) == 0
        server = SearchServer(ServerState(index=load_index(indexfile)), port=0)
        server.start()
        try:
            capsys.readouterr()
            server_arg = f"127.0.0.1:{server.server_address[1]}"
            assert cli_main(["search", "zebro", "1", "--server", server_arg, "--keys", keyfile]) == 0
            assert capsys.readouterr().out == "\\xffbad.txt\n"
        finally:
            server.shutdown()
            server.server_close()

    def test_gram_results_beyond_k_are_not_printed(self, workspace, capsys):
        """A gram index answers "abdc" and "bacd" with "abcd" (2 edits away); the CLI drops it."""
        corpus_dir = workspace / "gram"
        corpus_dir.mkdir()
        (corpus_dir / "far.txt").write_text("abcd\n")
        (corpus_dir / "near.txt").write_text("abdx\n")
        keyfile, indexfile = str(workspace / "k.fzky"), str(workspace / "i.fzix")
        assert cli_main(["keygen", "--out", keyfile, "--seed", "03"]) == 0
        assert cli_main(["build", "--keys", keyfile, "--corpus", str(corpus_dir), "--out", indexfile,
                         "--kind", "auth", "--method", "gram"]) == 0
        km, index = load_keys(keyfile), load_index(indexfile)
        for query, keywords in (("abdc", {"abcd", "abdx"}), ("bacd", {"abcd"})):
            result = search_trie(index, make_request(query, 1, km, "gram"))
            assert {decrypt_record(km, rec)[1] for rec in result.records} == keywords
        server = SearchServer(ServerState(index=index), port=0)
        server.start()
        try:
            capsys.readouterr()
            server_arg = ["--server", f"127.0.0.1:{server.server_address[1]}", "--keys", keyfile]
            assert cli_main(["search", "abdc", "1", *server_arg]) == 0
            assert capsys.readouterr() == ("near.txt\n", "")
            assert cli_main(["verify", "ABDC", "1", *server_arg]) == 0
            assert capsys.readouterr() == ("verified: Ok\nnear.txt\n", "")
            for command in ("search", "verify"):
                assert cli_main([command, "bacd", "1", *server_arg]) == 0
                out, err = capsys.readouterr()
                assert "far.txt" not in out and err == "(no matches)\n"
        finally:
            server.shutdown()
            server.server_close()

    def test_blinded_flow_with_enroll_and_revoke(self, workspace, capsys):
        keyfile = str(workspace / "k.fzky")
        indexfile = str(workspace / "i.fzix")
        dirfile = str(workspace / "users.fzud")
        assert cli_main(["keygen", "--out", keyfile, "--seed", "ab"]) == 0
        assert (
            cli_main(["build", "--keys", keyfile, "--corpus", str(workspace / "corpus"), "--out", indexfile]) == 0
        )
        assert cli_main(["enroll", "--keys", keyfile, "--directory", dirfile, "--user", "alice"]) == 0
        assert cli_main(["enroll", "--keys", keyfile, "--directory", dirfile, "--user", "eve"]) == 0
        assert cli_main(["revoke", "--keys", keyfile, "--directory", dirfile, "--user", "eve"]) == 0
        out = capsys.readouterr().out
        assert "epoch 1" in out

        km = load_keys(keyfile)
        state = ServerState(index=load_index(indexfile), xi=km.blind_key, epoch=1)
        server = SearchServer(state, port=0)
        server.start()
        port = server.server_address[1]
        try:
            rc = cli_main(
                ["search", "cat", "1", "--server", f"127.0.0.1:{port}", "--keys", keyfile,
                 "--blinded", "--directory", dirfile, "--user", "alice", "--epoch", "1"]
            )
            assert rc == 0
            assert "one.txt" in capsys.readouterr().out
            # a stale epoch gets a clean error, exit 1
            rc = cli_main(
                ["search", "cat", "1", "--server", f"127.0.0.1:{port}", "--keys", keyfile,
                 "--blinded", "--epoch", "0"]
            )
            assert rc == 1
            assert "STALE_EPOCH" in capsys.readouterr().err
        finally:
            server.shutdown()
            server.server_close()

    def test_revoke_converges_after_a_crash_between_files(self, workspace, monkeypatch, capsys):
        import fzsearch.cli as cli
        from fzsearch.cli import derive_user_key
        from fzsearch.persist import load_directory

        keyfile = str(workspace / "k.fzky")
        dirfile = str(workspace / "users.fzud")
        assert cli_main(["keygen", "--out", keyfile, "--seed", "ef"]) == 0
        for user in ("alice", "eve"):
            assert cli_main(["enroll", "--keys", keyfile, "--directory", dirfile, "--user", user]) == 0
        first_xi = load_keys(keyfile).blind_key

        def crash(directory, path):
            raise OSError("power cut")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "save_directory", crash)
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
    def test_user_ids_that_do_not_fit_are_usage_errors(self, workspace, capsys, user):
        dirfile = str(workspace / "users.fzud")
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
        assert err.startswith("error: ") and "FZIX version 2 not supported (expected 3)" in err
        assert "rebuild it with `fzsearch build`" in err and "Traceback" not in err

    def test_key_file_with_wrong_key_lengths_is_a_clean_error(self, workspace, capsys):
        keyfile, indexfile = str(workspace / "k.fzky"), str(workspace / "i.fzix")
        build = ["build", "--keys", keyfile, "--corpus", str(workspace / "corpus"), "--out", indexfile]
        save_keys(keygen(256, seed=b"\x02"), keyfile)
        assert cli_main(build) == 0
        km = keygen(128, seed=b"\x01")
        aes192 = {name: b"\x07" * 24 for name in ("trapdoor_key", "record_key", "blind_key")}
        for bad in (
            dataclasses.replace(km, record_key=b"12345"),
            dataclasses.replace(km, trapdoor_key=km.trapdoor_key * 2),
            dataclasses.replace(km, blind_key=b""),
            dataclasses.replace(km, security_bits=256),
            dataclasses.replace(km, security_bits=192),
            dataclasses.replace(km, security_bits=192, **aes192),  # AESGCM takes these; keygen does not
        ):
            save_keys(bad, keyfile)
            capsys.readouterr()
            assert cli_main(build) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, err

    def test_exit_codes(self, workspace, monkeypatch, capsys):
        assert cli_main(["bogus-command"]) == 2
        assert cli_main([]) == 2
        assert cli_main(["bench"]) == 2  # retired; perfbench is the one harness
        for argv in (
            ["keygen", "--out", str(workspace / "k"), "--seed", "zz"],
            ["search", "cat", "1", "--server", "127.0.0.1:abc"],
            ["search", "cat", "1", "--server", "127.0.0.1:65536"],
            ["search", "cat", "1", "--server", "::1:7090"],
            ["search", "cat", "1", "--server", "::1"],
            ["search", "cat", "1", "--server", "[::1"],
            ["search", "cat", "1", "--server", "[::1]7090"],
            ["search", "cat", "1", "--server", "[::1]:abc"],
            ["serve", "--index", str(workspace / "i.fzix"), "--port", "70000"],
            ["serve", "--index", str(workspace / "i.fzix"), "--port", "-1"],
        ):
            capsys.readouterr()
            assert cli_main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "error: " in err and "Traceback" not in err, err
            if argv[-1].startswith("::1"):
                assert "[::1]:7090" in err, err  # names the bracket form
        assert _server("[::1]:7091") == ("::1", 7091)
        assert _server("[::1]") == _server("[::1]:") == ("::1", 7090)
        assert _server("example.org") == ("example.org", 7090) and _server(":7091") == ("127.0.0.1", 7091)
        assert not os.path.exists(workspace / "k")
        rc = cli_main(["search", "cat", "0"])  # no key file anywhere
        assert rc == 1
        monkeypatch.setenv("FZ_KEYFILE", str(workspace / "missing.fzky"))
        assert cli_main(["search", "cat", "0"]) == 1
        capsys.readouterr()

    def test_ipv6_server_round_trip(self, workspace, capsys):
        try:
            socket.create_server(("::1", 0), family=socket.AF_INET6).close()
        except OSError:
            pytest.skip("this host has no IPv6 loopback")
        keyfile, indexfile = str(workspace / "k.fzky"), str(workspace / "i.fzix")
        assert cli_main(["keygen", "--out", keyfile, "--seed", "06"]) == 0
        assert cli_main(["build", "--keys", keyfile, "--corpus", str(workspace / "corpus"), "--out", indexfile]) == 0
        server = SearchServer(ServerState(index=load_index(indexfile)), host="::1", port=0)
        server.start()
        try:
            capsys.readouterr()
            server_arg = f"[::1]:{server.server_address[1]}"
            assert cli_main(["search", "cot", "1", "--server", server_arg, "--keys", keyfile]) == 0
            assert capsys.readouterr().out.split() == ["two.txt"]
        finally:
            server.shutdown()
            server.server_close()

    def test_keyfile_env_fallback(self, workspace, monkeypatch, capsys):
        keyfile = str(workspace / "env.fzky")
        assert cli_main(["keygen", "--out", keyfile, "--seed", "cd"]) == 0
        monkeypatch.setenv("FZ_KEYFILE", keyfile)
        indexfile = str(workspace / "env.fzix")
        assert cli_main(["build", "--corpus", str(workspace / "corpus"), "--out", indexfile]) == 0
        capsys.readouterr()


class _StubClient:
    """Stands in for SearchClient: a fixed HelloAck, then ``reply`` to the search."""

    ack = {"type": "HelloAck", "method": "wildcard", "epoch": 0, "blinded": False}
    reply: dict = {}

    def __init__(self, host, port, timeout=30.0):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass

    def hello(self):
        return self.ack

    def search(self, req, epoch=0, want_proof=False):
        return self.reply


# a record blob that decodes and is long enough, but is no real ciphertext
_BLOB = "A" * 40


class TestHostileServer:
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
            ("verify", {"type": "SearchResp", "records": [], "proofs": ["ff0200" + "00" * 33] * 14},
             "verification failed: GapTagMismatch at proof 0"),
        ],
    )
    def test_bad_reply_is_a_clean_error(self, tmp_path, monkeypatch, capsys, command, reply, message):
        keyfile = str(tmp_path / "k.fzky")
        assert cli_main(["keygen", "--out", keyfile, "--seed", "ee"]) == 0
        monkeypatch.setattr("fzsearch.cli.SearchClient", type("Stub", (_StubClient,), {"reply": reply}))
        capsys.readouterr()
        assert cli_main([command, "castle", "1", "--keys", keyfile]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_random_proofs_are_a_clean_error(self, tmp_path, monkeypatch, capsys):
        """Seeded random proof bytes, most past the type byte: ``verify`` prints
        ``error: ...`` and exits 1, never a traceback."""
        keyfile = str(tmp_path / "k.fzky")
        assert cli_main(["keygen", "--out", keyfile, "--seed", "ee"]) == 0
        rng = random.Random(822)
        for _ in range(100):
            proofs = []
            for _ in range(rng.choice([13, 14, 14, 15])):
                head = rng.choice([b"", b"\xff", b"\xff\x00", b"\xff\x01", b"\xff\x02", b"\xff\x02\x14"])
                proofs.append((head + rng.randbytes(rng.randrange(80))).hex())
            reply = {"type": "SearchResp", "records": rng.choice([[], [_BLOB]]), "exact": rng.random() < 0.2,
                     "proofs": proofs}
            monkeypatch.setattr("fzsearch.cli.SearchClient", type("Stub", (_StubClient,), {"reply": reply}))
            capsys.readouterr()
            assert cli_main(["verify", "castle", "1", "--keys", keyfile]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, err

    def test_merged_records_fail_before_verified_is_printed(self, tmp_path, monkeypatch, capsys):
        """``verify`` accepts one hit's records merged into one blob (the record
        digest has no length framing); the CLI decrypts every record before it
        prints ``verified: Ok``, so it reports the failure instead."""
        keyfile = str(tmp_path / "k.fzky")
        assert cli_main(["keygen", "--out", keyfile, "--seed", "ee"]) == 0
        km = load_keys(keyfile)
        index = build_auth_trie({"castle": [b"F1", b"F2", b"F3"]}, 1, km)
        reply = handle_message(ServerState(index=index), search_msg(make_request("castle", 1, km), proof=True))
        merged = b"".join(base64.b64decode(r) for r in reply["records"])
        for records, code in ((reply["records"], 0), ([base64.b64encode(merged).decode("ascii")], 1)):
            stub = type("Stub", (_StubClient,), {"reply": dict(reply, records=records)})
            monkeypatch.setattr("fzsearch.cli.SearchClient", stub)
            capsys.readouterr()
            assert cli_main(["verify", "castle", "1", "--keys", keyfile]) == code
            out, err = capsys.readouterr()
            if code:
                assert "verified" not in out and err.startswith("error: record failed authentication")
            else:
                assert out.split() == ["verified:", "Ok", "F1", "F2", "F3"]

    def test_hello_without_method(self, tmp_path, monkeypatch, capsys):
        keyfile = str(tmp_path / "k.fzky")
        assert cli_main(["keygen", "--out", keyfile, "--seed", "ee"]) == 0
        monkeypatch.setattr("fzsearch.cli.SearchClient", type("Stub", (_StubClient,), {"ack": {"type": "HelloAck"}}))
        capsys.readouterr()
        assert cli_main(["search", "castle", "1", "--keys", keyfile]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "line, message",
        [
            (b'{"type":"HelloAck","method":"wildcard","epoch":0,"blinded":true}\n', "protocol None"),
            (b'{"type":"HelloAck","method":"wildcard","epoch":0,"blinded":true,"protocol":1}\n', "protocol 1"),
            (b'{"type":"ErrorResp","code":"MALFORMED","message":"?"}\n', "unexpected hello response"),
        ],
    )
    def test_hello_from_another_protocol(self, tmp_path, capsys, line, message):
        """A server without protocol 2 (a protocol 1 server inverts HMAC Feistel
        rounds) gets no request: the client stops at the HelloAck."""
        self._answer_hello_with(line, tmp_path, capsys, "error: ", message)

    @pytest.mark.parametrize("line", [b"not json\n", b"[1, 2]\n", b"\xff\xfe\n"])
    def test_non_object_reply(self, tmp_path, capsys, line):
        self._answer_hello_with(line, tmp_path, capsys, "error: server reply is not")

    def test_reply_longer_than_the_cap(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("fzsearch.service.MAX_REPLY_BYTES", 1024)
        line = b'{"type":"HelloAck","pad":"' + b"a" * 4096 + b'"}\n'
        self._answer_hello_with(line, tmp_path, capsys, "error: server reply exceeds 1024 bytes")

    def _answer_hello_with(self, line, tmp_path, capsys, message, detail=""):
        keyfile = str(tmp_path / "k.fzky")
        assert cli_main(["keygen", "--out", keyfile, "--seed", "ee"]) == 0
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def answer():
            conn, _ = listener.accept()
            with conn:
                conn.makefile("rb").readline()
                conn.sendall(line)

        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        try:
            capsys.readouterr()
            assert cli_main(["search", "castle", "1", "--keys", keyfile, "--server", f"127.0.0.1:{port}"]) == 1
            err = capsys.readouterr().err
            assert err.startswith(message) and detail in err and "Traceback" not in err, err
        finally:
            thread.join(timeout=10)
            listener.close()
        assert not thread.is_alive()


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


def test_hostile_auth_answers_end_in_a_clean_outcome(km):
    """Mutated real answers end in BadResponse, Truncated or a rejecting Verdict;
    an accepted one carries the honest records and proofs."""
    rng = random.Random(821)
    corpus = random_corpus(rng, size=25, lo=3, hi=6)
    corpus.update({"cart": [b"F-cart"], "cat": [b"F-cat"], "bat": [b"F-bat"]})
    state = ServerState(index=build_auth_trie(corpus, 1, km, "gram"))
    words = sorted(corpus)
    answers = []
    for query in ["cat", "cut", "cart"] + [mutate(rng.choice(words), rng) for _ in range(20)]:
        if len(query) < 2:
            continue
        req = make_request(query, 1, km, "gram")
        answers.append((req, json.loads(handle_line(state, encode_message(search_msg(req, proof=True))))))
    records_pool = [r for _, resp in answers for r in resp["records"]]
    proofs_pool = [p for _, resp in answers for p in resp["proofs"]]
    outcomes = {"error": 0, "rejected": 0, "accepted": 0}
    for req, honest in answers:
        want_records = result_from_response(honest).records
        want_proofs = proofs_from_response(honest)
        assert verify(req, result_from_response(honest), want_proofs, km).accepted
        for resp in _hostile_variants(honest, rng, records_pool, proofs_pool):
            try:
                result = result_from_response(resp)
                proofs = proofs_from_response(resp)
            except (BadResponse, Truncated):
                outcomes["error"] += 1
                continue
            verdict = verify(req, result, proofs, km)
            if verdict.accepted:
                assert result.records == want_records and proofs == want_proofs, resp
            outcomes["accepted" if verdict.accepted else "rejected"] += 1
    assert all(outcomes.values()), outcomes
