"""Wire protocol and the search server.

One JSON object per line, UTF-8, newline-terminated, canonical encoding
(sorted keys, no spaces, lowercase hex) so transcripts diff cleanly.

Message types:

``Hello`` -> ``HelloAck``
    Ack carries the protocol version (``PROTOCOL``), epoch, index
    kind/method, d, trapdoor and symbol bits, whether proofs are available,
    whether requests are blinded, and the request size limit.
    ``SearchClient.hello`` refuses an ack of any other protocol version.
``SearchReq``
    ``{"type": "SearchReq", "epoch": E, "k": K, "trapdoors": [hex...],
    "proof": bool?}``.  Trapdoor hex is lowercase and exactly
    2*(trapdoor_bits/8) characters.  Duplicate trapdoors are rejected.
``SearchResp``
    ``{"type": "SearchResp", "epoch": E, "exact": bool,
    "records": [base64(nonce || ciphertext)...], "proofs": [hex...]?}``.
    Each record is the bytes ``crypto.encrypt_record`` returned, as the
    index holds them; the server never looks inside one.
``ErrorResp``
    codes MALFORMED, EDIT_BOUND, STALE_EPOCH, TOO_MANY_TRAPDOORS, and
    INTERNAL for a fault of the server's own (an exception no check caught).

A blinded server (``ServerState.xi`` set) takes every trapdoor of a request
as permuted under the blind key by ``crypto.prp``, a 4-round Feistel with
AES rounds, and inverts the whole request in one call before searching.
Protocol 2 is that AES Feistel; protocol 1 used HMAC rounds, so the two
sides would unblind each other's trapdoors to garbage.  The permutation caps
trapdoors at 224 bits.

The handler never raises on any input line; anything unparseable or
out of contract comes back as an ErrorResp.

Serving model: ``SearchServer`` runs one thread, a readiness loop over
non-blocking sockets, so no lock changes hands between connections.  Each
connection's complete lines are answered in order; a last line without a
newline is answered at end of input.  A reply the socket does not take at
once is kept, and that connection is not read again until the peer has taken
it, so a client that stops reading holds up only itself.  Limits:

* a line longer than ``ServerConfig.max_line_bytes`` gets one MALFORMED
  "line too long" and the connection is closed;
* a connection that neither sends nor takes bytes for
  ``ServerConfig.timeout`` seconds is closed (checked once per poll
  interval, so up to one interval late);
* at ``SearchServer.max_connections`` open connections, new ones wait in
  the listen backlog until one closes; after a failed ``accept`` (say, out
  of file descriptors) they wait until a close or the next idle check;
* ``SearchClient`` reads a reply line of at most ``MAX_REPLY_BYTES``; a
  longer one raises ``BadResponse``.
"""

from __future__ import annotations

import base64
import json
import selectors
import socket
import sys
import threading
import time
from dataclasses import dataclass, field

from .crypto import RECORD_MIN_BYTES
from .errors import BadResponse
from .index import Index, ResultSet, SearchRequest, search_listing
from .multiuser import unblind_request
from .verifiable import Proof, decode_proof, encode_proof, search_with_proof

PROTOCOL = 2  # HelloAck's "protocol"; bumped when the wire meaning of a request changes
DEFAULT_PORT = 7090
MAX_REPLY_BYTES = 64 << 20  # the longest reply line the client reads
_RECV_BYTES = 1 << 16  # the most the server reads from one connection per wake-up

MALFORMED = "MALFORMED"
EDIT_BOUND = "EDIT_BOUND"
STALE_EPOCH = "STALE_EPOCH"
TOO_MANY_TRAPDOORS = "TOO_MANY_TRAPDOORS"
INTERNAL = "INTERNAL"


@dataclass
class ServerConfig:
    max_request_trapdoors: int = 4096
    max_line_bytes: int = 1 << 20
    timeout: float = 30.0


@dataclass
class ServerState:
    """Immutable while serving."""

    index: Index
    xi: bytes | None = None  # unblinding key; None = single-user mode
    epoch: int = 0
    config: ServerConfig = field(default_factory=ServerConfig)


def encode_message(msg: dict) -> str:
    return json.dumps(msg, sort_keys=True, separators=(",", ":")) + "\n"


def _error(state: ServerState, code: str, message: str) -> dict:
    return {"type": "ErrorResp", "epoch": state.epoch, "code": code, "message": message}


def _parse_trapdoors(state: ServerState, raw) -> tuple[bytes, ...] | None:
    width = state.index.trapdoor_bits // 8
    if not isinstance(raw, list) or not raw:
        return None
    out = []
    for item in raw:
        try:
            t = bytes.fromhex(item)
        except (TypeError, ValueError):
            return None
        # the round trip rejects upper case and the whitespace fromhex skips
        if len(t) != width or t.hex() != item:
            return None
        out.append(t)
    if len(set(out)) != len(out):
        return None
    return tuple(out)


def handle_message(state: ServerState, msg: dict) -> dict:
    """Dispatch one parsed message; every bad input becomes an ErrorResp."""
    try:
        mtype = msg.get("type")
        if mtype == "Hello":
            return {
                "type": "HelloAck",
                "protocol": PROTOCOL,
                "epoch": state.epoch,
                "kind": state.index.kind,
                "method": state.index.method,
                "d": state.index.d,
                "trapdoor_bits": state.index.trapdoor_bits,
                "symbol_bits": state.index.symbol_bits,
                "verifiable": state.index.kind == "auth_trie",
                "blinded": state.xi is not None,
                "max_trapdoors": state.config.max_request_trapdoors,
            }
        if mtype != "SearchReq":
            return _error(state, MALFORMED, f"unknown message type {mtype!r}")
        k = msg.get("k")
        if type(k) is not int or k < 0 or k > 255:
            return _error(state, MALFORMED, "k must be an integer in 0..255")
        trapdoors = _parse_trapdoors(state, msg.get("trapdoors"))
        if trapdoors is None:
            return _error(state, MALFORMED, "trapdoors must be distinct lowercase hex")
        want_proof = msg.get("proof", False)
        if not isinstance(want_proof, bool):
            return _error(state, MALFORMED, "proof must be a boolean")
        if len(trapdoors) > state.config.max_request_trapdoors:
            return _error(state, TOO_MANY_TRAPDOORS, "request exceeds trapdoor limit")
        epoch = msg.get("epoch", 0)
        if type(epoch) is not int:
            return _error(state, MALFORMED, "epoch must be an integer")
        if state.xi is not None and epoch != state.epoch:
            return _error(state, STALE_EPOCH, f"server epoch is {state.epoch}")
        req = SearchRequest(trapdoors=trapdoors, k=k)
        if state.xi is not None:
            req = unblind_request(req, state.xi)
        if req.k > state.index.d:
            return _error(state, EDIT_BOUND, f"k={req.k} exceeds index bound d={state.index.d}")
        proofs = None
        if want_proof and state.index.kind == "auth_trie":
            result, proof_list = search_with_proof(state.index, req)
            proofs = [encode_proof(p).hex() for p in proof_list]
        else:
            result = search_listing(state.index, req)
        resp = {
            "type": "SearchResp",
            "epoch": state.epoch,
            "exact": result.exact_hit,
            "records": [base64.b64encode(r).decode("ascii") for r in result.records],
        }
        if proofs is not None:
            resp["proofs"] = proofs
        return resp
    except Exception as exc:  # contract: the server survives anything
        return _error(state, INTERNAL, f"unhandled request error: {type(exc).__name__}")


def handle_line(state: ServerState, line: bytes | str) -> str:
    """One wire line in, one wire line out."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError:
            return encode_message(_error(state, MALFORMED, "line is not UTF-8"))
    try:
        msg = json.loads(line)
    except (json.JSONDecodeError, RecursionError):
        return encode_message(_error(state, MALFORMED, "line is not a JSON object"))
    if not isinstance(msg, dict):
        return encode_message(_error(state, MALFORMED, "line is not a JSON object"))
    return encode_message(handle_message(state, msg))


def decode_records(resp: dict) -> list[bytes]:
    """Client side: the records field back into records, each ``nonce || ciphertext``."""
    items = resp.get("records", [])
    if not isinstance(items, list):
        raise BadResponse("records must be a list")
    out = []
    for item in items:
        try:
            blob = base64.b64decode(item, validate=True)
        except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
            raise BadResponse(f"bad record encoding: {exc}") from exc
        if len(blob) < RECORD_MIN_BYTES:
            raise BadResponse("bad record encoding: record blob too short")
        out.append(blob)
    return out


def result_from_response(resp: dict) -> ResultSet:
    return ResultSet(records=decode_records(resp), exact_hit=bool(resp.get("exact", False)))


def proofs_from_response(resp: dict) -> list[Proof]:
    """Client side: proofs field back into Proof values."""
    items = resp.get("proofs")
    if not isinstance(items, list):
        raise BadResponse("server returned no proofs; index is not verifiable")
    try:
        return [decode_proof(bytes.fromhex(item)) for item in items]
    except (TypeError, ValueError) as exc:
        raise BadResponse(f"bad proof encoding: {exc}") from exc


class _Conn:
    """One client connection: its socket, an unfinished line and an unsent reply tail."""

    __slots__ = ("sock", "partial", "tail", "last", "closing")

    def __init__(self, sock: socket.socket, now: float):
        self.sock = sock
        self.partial = bytearray()  # bytes received after the last newline
        self.tail = b""  # reply bytes the socket has not taken yet
        self.last = now  # when the peer last sent or took bytes
        self.closing = False  # close once the tail is sent


class SearchServer:
    """Line-protocol server: one thread runs a readiness loop over every connection.

    Run it with ``serve_forever`` or in a thread via ``start()``; ``shutdown()``
    stops the loop from another thread and ``server_close()`` closes every socket.
    """

    max_connections = 1024  # at the cap, the listening socket is not polled

    def __init__(self, state: ServerState, host: str = "127.0.0.1", port: int = DEFAULT_PORT):
        self.state = state
        family = socket.AF_INET6 if ":" in host else socket.AF_INET
        self.socket = socket.create_server((host, port), family=family)
        self.socket.setblocking(False)
        self.server_address = self.socket.getsockname()
        self._selector = selectors.DefaultSelector()
        # shutdown() writes a byte to _wake_w, so the loop wakes at once
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._selector.register(self._wake_r, selectors.EVENT_READ, self._wake_r)
        self._conns: set[_Conn] = set()
        self._listening = False
        self._now = time.monotonic()
        self._stop = False
        self._stopped = threading.Event()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Serve until ``shutdown()``; idle connections are closed at most ``poll_interval`` late."""
        self._stopped.clear()
        try:
            self._admit()
            sweep_at = time.monotonic() + poll_interval
            while not self._stop:
                events = self._selector.select(poll_interval)
                self._now = now = time.monotonic()
                for key, _ in events:
                    conn = key.data
                    try:
                        if conn is None:
                            self._accept()
                        elif conn is self._wake_r:
                            conn.recv(_RECV_BYTES)
                        elif conn.tail:
                            self._send(conn, conn.tail, polled=True)
                        else:
                            self._read(conn)
                    except Exception:  # a fault of the server's own: drop that connection only
                        sys.excepthook(*sys.exc_info())
                        if conn is not None:
                            self._close(conn)
                if now >= sweep_at:
                    self._sweep(now)
                    sweep_at = now + poll_interval
        finally:
            self._stop = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop ``serve_forever`` and wait until it has returned."""
        self._stop = True
        self._wake_w.send(b"\0")
        self._stopped.wait()

    def server_close(self) -> None:
        for conn in self._conns:
            conn.sock.close()
        self._conns.clear()
        self._selector.close()
        self._wake_r.close()
        self._wake_w.close()
        self.socket.close()

    def start(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def _listen(self, on: bool) -> None:
        if on != self._listening:
            if on:
                self._selector.register(self.socket, selectors.EVENT_READ, None)
            else:
                self._selector.unregister(self.socket)
            self._listening = on

    def _admit(self) -> None:
        """Poll the listening socket while there is room for another connection."""
        self._listen(len(self._conns) < self.max_connections)

    def _accept(self) -> None:
        try:
            sock, _ = self.socket.accept()
        except BlockingIOError:  # the client gave up before we got to it
            return
        except OSError:  # e.g. out of file descriptors: retry after a close or the next sweep
            self._listen(False)
            return
        sock.setblocking(False)
        conn = _Conn(sock, self._now)
        self._selector.register(sock, selectors.EVENT_READ, conn)
        self._conns.add(conn)
        self._admit()

    def _close(self, conn: _Conn) -> None:
        if conn in self._conns:
            self._conns.remove(conn)
            self._selector.unregister(conn.sock)
            conn.sock.close()
            self._admit()

    def _sweep(self, now: float) -> None:
        """Close connections idle past the timeout, with or without a reply tail pending."""
        deadline = now - self.state.config.timeout
        for conn in [c for c in self._conns if c.last < deadline]:
            self._close(conn)
        self._admit()

    def _read(self, conn: _Conn) -> None:
        """Answer every complete line one ``recv`` brings, in order, in one ``send``."""
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except BlockingIOError:  # a spurious wake-up
            return
        except OSError:
            self._close(conn)
            return
        conn.last = self._now
        state = self.state
        cap = state.config.max_line_bytes
        partial = conn.partial
        if not data:  # end of input: a last line without a newline is still answered
            conn.closing = True
        if partial:  # the first line began in an earlier recv
            partial += data
            if not conn.closing and b"\n" not in data and len(partial) <= cap:
                return
            data = bytes(partial)
            partial.clear()
        replies, start, size = [], 0, len(data)
        while start < size:
            end = data.find(b"\n", start) + 1
            if not end:
                if not conn.closing:
                    break
                end = size
            if end - start > cap:
                break
            replies.append(handle_line(state, data[start:end]))
            start = end
        if size - start > cap:  # oversized line: answer once, then drop the connection
            replies.append(encode_message(_error(state, MALFORMED, "line too long")))
            conn.closing = True
        elif start < size:
            partial += data[start:]
        if replies:
            self._send(conn, "".join(replies).encode("utf-8"))
        elif conn.closing:
            self._close(conn)

    def _send(self, conn: _Conn, data, polled: bool = False) -> None:
        """Send what the socket takes of ``data``; ``polled`` says we wait for writability."""
        try:
            sent = conn.sock.send(data)
        except BlockingIOError:
            sent = 0
        except OSError:
            self._close(conn)
            return
        if sent:
            conn.last = self._now
        if sent < len(data):  # a slow reader: keep the rest, read nothing more until it is sent
            conn.tail = memoryview(data)[sent:]
            if not polled:
                self._selector.modify(conn.sock, selectors.EVENT_WRITE, conn)
            return
        conn.tail = b""
        if conn.closing:
            self._close(conn)
        elif polled:
            self._selector.modify(conn.sock, selectors.EVENT_READ, conn)


class SearchClient:
    """Blocking line-protocol client."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "SearchClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def roundtrip(self, msg: dict) -> dict:
        self._file.write(encode_message(msg).encode("utf-8"))
        self._file.flush()
        line = self._file.readline(MAX_REPLY_BYTES + 1)
        if not line:
            raise ConnectionError("server closed the connection")
        if len(line) > MAX_REPLY_BYTES:
            raise BadResponse(f"server reply exceeds {MAX_REPLY_BYTES} bytes")
        try:
            reply = json.loads(line)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise BadResponse("server reply is not JSON") from exc
        if not isinstance(reply, dict):
            raise BadResponse("server reply is not a JSON object")
        return reply

    def hello(self) -> dict:
        """The server's HelloAck; ``BadResponse`` unless it speaks ``PROTOCOL``."""
        ack = self.roundtrip({"type": "Hello"})
        if ack.get("type") != "HelloAck":
            raise BadResponse(f"unexpected hello response: {ack}")
        if ack.get("protocol") != PROTOCOL:
            raise BadResponse(f"server speaks protocol {ack.get('protocol')!r}, this client {PROTOCOL}")
        return ack

    def search(self, req: SearchRequest, epoch: int = 0, want_proof: bool = False) -> dict:
        msg = {
            "type": "SearchReq",
            "epoch": epoch,
            "k": req.k,
            "trapdoors": [t.hex() for t in req.trapdoors],
        }
        if want_proof:
            msg["proof"] = True
        return self.roundtrip(msg)
