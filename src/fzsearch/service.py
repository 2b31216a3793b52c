"""Wire protocol and the search server.

One JSON object per line, UTF-8, newline-terminated, canonical encoding
(sorted keys, no spaces, lowercase hex) so transcripts diff cleanly.

Message types:

``Hello`` -> ``HelloAck``
    Ack carries epoch, index kind/method, d, trapdoor and symbol bits,
    whether proofs are available, and the request size limit.
``SearchReq``
    ``{"type": "SearchReq", "epoch": E, "k": K, "trapdoors": [hex...],
    "proof": bool?}``.  Trapdoor hex is lowercase and exactly
    2*(trapdoor_bits/8) characters.  Duplicate trapdoors are rejected.
``SearchResp``
    ``{"type": "SearchResp", "epoch": E, "exact": bool,
    "records": [base64(nonce || ciphertext)...], "proofs": [hex...]?}``.
``ErrorResp``
    codes MALFORMED, EDIT_BOUND, STALE_EPOCH, TOO_MANY_TRAPDOORS, and
    INTERNAL for a fault of the server's own (an exception no check caught).

The handler never raises on any input line; anything unparseable or
out of contract comes back as an ErrorResp.
"""

from __future__ import annotations

import base64
import json
import socket
import socketserver
import threading
from dataclasses import dataclass, field

from .crypto import EncryptedRecord
from .errors import AuthFailure, BadResponse
from .index import Index, ResultSet, SearchRequest, search_listing
from .multiuser import unblind_request
from .verifiable import Proof, decode_proof, encode_proof, search_with_proof

DEFAULT_PORT = 7090

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
            "records": [base64.b64encode(r.blob).decode("ascii") for r in result.records],
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


def decode_records(resp: dict) -> list[EncryptedRecord]:
    """Client side: records field back into EncryptedRecord values."""
    items = resp.get("records", [])
    if not isinstance(items, list):
        raise BadResponse("records must be a list")
    out = []
    for item in items:
        try:
            out.append(EncryptedRecord.from_blob(base64.b64decode(item, validate=True)))
        except (TypeError, ValueError, AuthFailure) as exc:  # binascii.Error is a ValueError
            raise BadResponse(f"bad record encoding: {exc}") from exc
    return out


def result_from_response(resp: dict) -> ResultSet:
    return ResultSet(records=decode_records(resp), exact_hit=bool(resp.get("exact", False)))


def proofs_from_response(resp: dict, depth: int) -> list[Proof]:
    """Client side: proofs field back into Proof values for a tree of ``depth``."""
    items = resp.get("proofs")
    if not isinstance(items, list):
        raise BadResponse("server returned no proofs; index is not verifiable")
    try:
        return [decode_proof(bytes.fromhex(item), depth) for item in items]
    except (TypeError, ValueError) as exc:
        raise BadResponse(f"bad proof encoding: {exc}") from exc


class _Handler(socketserver.StreamRequestHandler):
    def handle(self):
        state: ServerState = self.server.state  # type: ignore[attr-defined]
        self.connection.settimeout(state.config.timeout)
        cap = state.config.max_line_bytes
        while True:
            try:
                line = self.rfile.readline(cap + 1)
            except (socket.timeout, OSError):
                return
            if not line:
                return
            if len(line) > cap:
                # oversized line: answer once, then drop the connection
                reply = encode_message(_error(state, MALFORMED, "line too long"))
                self._reply(reply)
                return
            if not self._reply(handle_line(state, line)):
                return

    def _reply(self, text: str) -> bool:
        try:
            self.wfile.write(text.encode("utf-8"))
            self.wfile.flush()
            return True
        except OSError:
            return False


class SearchServer(socketserver.ThreadingTCPServer):
    """Line-protocol server; run with ``serve_forever`` or via ``start()``."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, state: ServerState, host: str = "127.0.0.1", port: int = DEFAULT_PORT):
        super().__init__((host, port), _Handler)
        self.state = state

    def start(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


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
        line = self._file.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        try:
            reply = json.loads(line)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise BadResponse("server reply is not JSON") from exc
        if not isinstance(reply, dict):
            raise BadResponse("server reply is not a JSON object")
        return reply

    def hello(self) -> dict:
        return self.roundtrip({"type": "Hello"})

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
