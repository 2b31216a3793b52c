"""The line-protocol client: one blocking connection, and the decoders of its replies.

No server imports this module; ``fzsearch.service`` still answers its three
names on first use.  The client's limits are this module's own and are read
where they are used, so patching the module attribute takes effect:

* ``SearchClient`` reads its socket itself into one buffer and cuts a reply
  line of at most ``MAX_REPLY_BYTES`` from it, as ``readline(MAX_REPLY_BYTES
  + 1)`` on a buffered reader would cut it, keeping the bytes after that line
  for the next reply; a longer line raises ``BadResponse``;
* ``SearchClient`` waits at most ``CLIENT_TIMEOUT_SECONDS`` to connect and
  for each read or write, then raises ``TimeoutError``.
"""

from __future__ import annotations

import base64
import json
import socket

from .crypto import RECORD_MIN_BYTES
from .errors import BadResponse, Truncated
from .index import ResultSet, SearchRequest
from .service import _RECV_BYTES, PROTOCOL, encode_message
from .verifiable import decode_proof

MAX_REPLY_BYTES = 64 << 20  # the longest reply line the client reads
CLIENT_TIMEOUT_SECONDS = 30.0  # the client's wait to connect, and for each read or write

_decode = json.JSONDecoder().decode  # what json.loads uses for text, without its per-call checks


def result_from_response(resp: dict) -> ResultSet:
    """A SearchResp's exact flag and records, each an AES-SIV record of at least ``RECORD_MIN_BYTES``."""
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
    exact = resp.get("exact", False)
    if type(exact) is not bool:
        raise BadResponse("exact must be a boolean")
    return ResultSet(records=out, exact_hit=exact)


def proofs_from_response(resp: dict) -> list[bytes]:
    """The proofs field back into proof bytes, each one checked encoding."""
    items = resp.get("proofs")
    if not isinstance(items, list):
        raise BadResponse("server returned no proofs; index is not verifiable")
    try:
        return [decode_proof(bytes.fromhex(item)) for item in items]
    except (TypeError, ValueError, Truncated) as exc:
        raise BadResponse(f"bad proof encoding: {exc}") from exc


class SearchClient:
    """Blocking line-protocol client."""

    def __init__(self, host: str, port: int):
        self._sock = socket.create_connection((host, port), timeout=CLIENT_TIMEOUT_SECONDS)
        self._buf = bytearray()  # bytes received and not yet returned as a reply

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "SearchClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _readline(self) -> bytearray:
        """The next reply: through its newline, else its first ``MAX_REPLY_BYTES + 1`` bytes,
        else what is left at end of input (empty when nothing is)."""
        buf, limit, seen = self._buf, MAX_REPLY_BYTES + 1, 0
        while True:
            end = buf.find(b"\n", seen, limit) + 1
            if end:
                break
            if len(buf) >= limit:  # no newline within the limit
                end = limit
                break
            seen = len(buf)
            data = self._sock.recv(_RECV_BYTES)
            if not data:
                end = seen
                break
            buf += data
        line = buf[:end]
        del buf[:end]
        return line

    def roundtrip(self, msg: dict) -> dict:
        self._sock.sendall(encode_message(msg).encode("utf-8"))
        line = self._readline()
        if not line:
            raise ConnectionError("server closed the connection")
        if len(line) > MAX_REPLY_BYTES:
            raise BadResponse(f"server reply exceeds {MAX_REPLY_BYTES} bytes")
        try:
            reply = _decode(line.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise BadResponse("server reply is not UTF-8") from exc
        except (ValueError, RecursionError) as exc:  # not JSON, or an integer past the digit limit
            raise BadResponse("server reply is not JSON") from exc
        if not isinstance(reply, dict):
            raise BadResponse("server reply is not a JSON object")
        return reply

    def hello(self) -> dict:
        """The server's HelloAck; ``BadResponse`` unless it speaks ``PROTOCOL``."""
        ack = self.roundtrip({"type": "Hello"})
        if ack.get("type") != "HelloAck":
            raise BadResponse(f"unexpected hello response type {ack.get('type')!r:.40}")
        if ack.get("protocol") != PROTOCOL:
            raise BadResponse(f"server speaks protocol {ack.get('protocol')!r:.40}, this client {PROTOCOL}")
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
