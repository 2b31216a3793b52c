"""Wire protocol and the search server.

One JSON object per line, UTF-8, newline-terminated, canonical encoding
(sorted keys, no spaces, lowercase hex) so transcripts diff cleanly.

Message types:

``Hello`` -> ``HelloAck``
    Ack carries the protocol version (``PROTOCOL``), epoch, index
    kind/method, d, trapdoor and symbol bits (always 160 and 4), whether
    proofs are available, whether requests are blinded, and the request size
    limit.
    ``SearchClient.hello`` refuses an ack of any other protocol version.
``SearchReq``
    ``{"type": "SearchReq", "epoch": E, "k": K, "trapdoors": [hex...],
    "proof": bool?}``.  A request holds 1..``MAX_TRAPDOORS`` trapdoors, each
    lowercase hex of exactly 40 characters (``TRAPDOOR_BYTES`` bytes).  An
    empty list and duplicate trapdoors are MALFORMED.
``SearchResp``
    ``{"type": "SearchResp", "epoch": E, "exact": bool,
    "records": [base64(record)...], "proofs": [hex...]?}``.
    Each record is the AES-SIV output ``crypto.encrypt_record`` returned, as
    the index holds it; the server never looks inside one.  The server writes
    this line from fixed fragments, not through ``encode_message`` as it does
    the others; ``test_search_reply_is_the_canonical_encoding`` holds the two equal.
``ErrorResp``
    codes MALFORMED, EDIT_BOUND, STALE_EPOCH, TOO_MANY_TRAPDOORS, and
    INTERNAL for a fault of the server's own (an exception no check caught).

A blinded server (``ServerState.xi`` set) takes every trapdoor of a request
as permuted under the blind key by ``crypto.prp``, a 4-round Feistel with
AES rounds, and inverts the whole request in one call
(``index.unblind_request``) before searching.
Protocol 5 proves an exact answer by proof 0 alone and sends no record
digest in a hit proof (``verifiable``), so a protocol 4 peer stops at
``hello``; README's wire section tells what each earlier bump changed.

The handler never raises on any input line; anything unparseable or
out of contract comes back as an ErrorResp.

Serving model: ``SearchServer`` runs one thread, a readiness loop over
non-blocking sockets, so no lock changes hands between connections.  Each
connection's complete lines are answered in order; a last line without a
newline is answered at end of input.  A reply the socket does not take at
once is kept, and that connection is not read again until the peer has taken
it, so a client that stops reading holds up only itself.  Limits:

* a request of more than ``MAX_TRAPDOORS`` trapdoors gets TOO_MANY_TRAPDOORS
  (``crypto.MAX_VARIANTS``, the most variants an honest request holds);
* a line longer than ``MAX_LINE_BYTES`` gets one MALFORMED "line too long"
  and the connection is closed;
* a connection that neither sends nor takes bytes for ``IDLE_SECONDS`` is
  closed (checked every ``POLL_SECONDS``, so up to that much late);
* at ``MAX_CONNECTIONS`` open connections, new ones wait in the listen
  backlog until one closes; after a failed ``accept`` (say, out of file
  descriptors) they wait until a close or the next idle check.

A server loads only what it serves from.  This module imports ``index``
(the search and unblinding) and ``crypto`` (its constants and the blind
cipher), never ``fuzzyset``, which only owners and clients run, nor
``multiuser``, the owner's.  ``ServerState`` imports ``verifiable`` for an
index that holds tags and binds its one function, so a plain listing or
trie server never loads it and no request runs an import statement.
``SearchClient`` and its limits are in ``fzsearch.client``; this module
answers its name.
"""

from __future__ import annotations

import base64
import json
import selectors
import socket
import struct
import sys
import threading
import time

from .crypto import MAX_VARIANTS, SYMBOL_BITS, TRAPDOOR_BITS, TRAPDOOR_BYTES, blind_cipher
from .index import Index, ResultSet, SearchRequest, search_listing, unblind_request

PROTOCOL = 5  # HelloAck's "protocol"; bumped when the wire meaning of a request or a reply changes
DEFAULT_PORT = 7090
_RECV_BYTES = 1 << 16  # the most one recv reads: per connection and wake-up in the server, per read in the client
# Server limits.  Each is read where it is used, so patching the module attribute takes effect.
MAX_TRAPDOORS = MAX_VARIANTS  # per request; HelloAck's "max_trapdoors"
MAX_LINE_BYTES = 1 << 20  # the longest request line
IDLE_SECONDS = 30.0  # a connection silent this long is closed
POLL_SECONDS = 0.5  # how often the idle check runs
MAX_CONNECTIONS = 1024  # at the cap, the listening socket is not polled

MALFORMED = "MALFORMED"
EDIT_BOUND = "EDIT_BOUND"
STALE_EPOCH = "STALE_EPOCH"
TOO_MANY_TRAPDOORS = "TOO_MANY_TRAPDOORS"
INTERNAL = "INTERNAL"


class ServerState:
    """Immutable while serving.

    ``prove`` is ``verifiable.search_with_proof`` on an index that holds
    tags; it is None otherwise, and ``verifiable`` is not imported.  A blinded
    state builds its blind cipher when it is made, so a key that is not an
    AES key (16, 24 or 32 bytes) raises ``BadParameter`` here, not on every
    request, and ``serve --blinded`` loads the cipher library before it
    reports serving.
    """

    def __init__(self, index: Index, xi: bytes | None = None, epoch: int = 0):
        self.prove = None
        if xi is not None:
            blind_cipher(xi)
        if index.tags:
            from .verifiable import search_with_proof

            self.prove = search_with_proof
        self.index = index
        self.xi = xi  # unblinding key; None = single-user mode
        self.epoch = epoch


# json.dumps(msg, sort_keys=True, separators=(",", ":")) builds an encoder on every call; this one is built once.
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode


def encode_message(msg: dict) -> str:
    """The wire line of ``msg``: the line it carries (a client's SearchReq), else the encoder's."""
    return getattr(msg, "line", None) or _dumps(msg) + "\n"


def __getattr__(name: str):
    """The client's names, from ``fzsearch.client``, which no server imports."""
    if name in ("SearchClient", "result_from_response", "proofs_from_response"):
        from . import client

        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _error(state: ServerState, code: str, message: str) -> str:
    return encode_message({"type": "ErrorResp", "epoch": state.epoch, "code": code, "message": message})


def _parse_trapdoors(raw) -> tuple[bytes, ...] | None:
    if not isinstance(raw, list):
        return None
    try:
        joined = "".join(raw)
        blob = bytes.fromhex(joined)
    except (TypeError, ValueError):  # an item that is not a string, or not hex
        return None
    # every item one width; the round trip rejects upper case and the whitespace fromhex skips
    if set(map(len, raw)) != {2 * TRAPDOOR_BYTES} or blob.hex() != joined:
        return None
    out = struct.unpack(f"{TRAPDOOR_BYTES}s" * len(raw), blob)
    return out if len(set(out)) == len(out) else None


def _json_list(items) -> str:
    """A JSON list of strings that need no escaping (base64, lowercase hex)."""
    return '["' + '","'.join(items) + '"]' if items else "[]"


def _search_resp(state: ServerState, result: ResultSet, proofs: list[bytes] | None) -> str:
    """The SearchResp line as ``encode_message`` writes its dict: keys sorted, no spaces, nothing to escape."""
    records, exact_hit = result
    head = f'{{"epoch":{state.epoch},"exact":{"true" if exact_hit else "false"},'
    if proofs is not None:
        head += f'"proofs":{_json_list([p.hex() for p in proofs])},'
    encoded = _json_list([base64.b64encode(r).decode("ascii") for r in records])
    return f'{head}"records":{encoded},"type":"SearchResp"}}\n'


def handle_line(state: ServerState, line: bytes | str) -> str:
    """One wire line in, one wire line out; every bad input becomes an ErrorResp."""
    try:
        msg = json.loads(line.decode("utf-8") if isinstance(line, bytes) else line)
    except UnicodeDecodeError:
        return _error(state, MALFORMED, "line is not UTF-8")
    except (ValueError, RecursionError):  # JSONDecodeError, or an integer past the interpreter's digit limit
        msg = None
    if not isinstance(msg, dict):
        return _error(state, MALFORMED, "line is not a JSON object")
    try:
        mtype = msg.get("type")
        if mtype == "Hello":
            return encode_message({
                "type": "HelloAck",
                "protocol": PROTOCOL,
                "epoch": state.epoch,
                "kind": state.index.kind,
                "method": state.index.method,
                "d": state.index.d,
                "trapdoor_bits": TRAPDOOR_BITS,
                "symbol_bits": SYMBOL_BITS,
                "verifiable": bool(state.index.tags),
                "blinded": state.xi is not None,
                "max_trapdoors": MAX_TRAPDOORS,
            })
        if mtype != "SearchReq":
            return _error(state, MALFORMED, f"unknown message type {mtype!r}")
        k = msg.get("k")
        if type(k) is not int or k < 0 or k > 255:
            return _error(state, MALFORMED, "k must be an integer in 0..255")
        trapdoors = _parse_trapdoors(msg.get("trapdoors"))
        if trapdoors is None:
            return _error(state, MALFORMED, "trapdoors must be distinct lowercase hex")
        want_proof = msg.get("proof", False)
        if not isinstance(want_proof, bool):
            return _error(state, MALFORMED, "proof must be a boolean")
        if len(trapdoors) > MAX_TRAPDOORS:
            return _error(state, TOO_MANY_TRAPDOORS, "request exceeds trapdoor limit")
        epoch = msg.get("epoch", 0)
        if type(epoch) is not int:
            return _error(state, MALFORMED, "epoch must be an integer")
        if state.xi is not None and epoch != state.epoch:
            return _error(state, STALE_EPOCH, f"server epoch is {state.epoch}")
        req = SearchRequest(trapdoors, k)
        if state.xi is not None:
            req = unblind_request(req, state.xi)  # keeps k
        if k > state.index.d:
            return _error(state, EDIT_BOUND, f"k={k} exceeds index bound d={state.index.d}")
        if want_proof and state.prove:
            return _search_resp(state, *state.prove(state.index, req))
        return _search_resp(state, search_listing(state.index, req), None)
    except Exception as exc:  # contract: the server survives anything
        return _error(state, INTERNAL, f"unhandled request error: {type(exc).__name__}")


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

    def serve_forever(self) -> None:
        """Serve until ``shutdown()``; idle connections are closed at most ``POLL_SECONDS`` late."""
        self._stopped.clear()
        try:
            self._admit()
            sweep_at = time.monotonic() + POLL_SECONDS
            while not self._stop:
                events = self._selector.select(POLL_SECONDS)
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
                    sweep_at = now + POLL_SECONDS
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
        self._listen(len(self._conns) < MAX_CONNECTIONS)

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
        deadline = now - IDLE_SECONDS
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
        partial = conn.partial
        if not data:  # end of input: a last line without a newline is still answered
            conn.closing = True
        if partial:  # the first line began in an earlier recv
            partial += data
            if not conn.closing and b"\n" not in data and len(partial) <= MAX_LINE_BYTES:
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
            if end - start > MAX_LINE_BYTES:
                break
            replies.append(handle_line(state, data[start:end]))
            start = end
        if size - start > MAX_LINE_BYTES:  # oversized line: answer once, then drop the connection
            replies.append(_error(state, MALFORMED, "line too long"))
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
