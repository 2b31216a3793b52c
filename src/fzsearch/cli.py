"""Command line front end.

Owner side: ``keygen``, ``build``, ``serve``, ``enroll``, ``revoke``.
User side: ``search`` (``verify`` is search with proof checking forced).
Both print the file ids whose decrypted keyword is within ``k`` edits of
the normalized query, so a gram index's farther results are dropped.

The key file path comes from ``--keys`` or the ``FZ_KEYFILE`` environment
variable.  Enrollment derives each user's personal key from the record key
and user id, prints it once, and hands delivery off-channel; revocation can
therefore re-wrap the rotated blind key from the files alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .crypto import SECURITY_BITS, keygen, decrypt_record, prf_bytes
from .errors import EmptyKeyword, FzError, VersionUnsupported
from .fuzzyset import edit_distance, normalize_keyword
from .index import build_listing_index, build_trie_index, make_request
from .multiuser import UserDirectory, blind_request
from .persist import (
    MAX_USER_ID_BYTES,
    load_directory,
    load_index,
    load_keys,
    save_directory,
    save_index,
    save_keys,
)
from .service import (
    DEFAULT_PORT,
    SearchClient,
    SearchServer,
    ServerState,
    proofs_from_response,
    result_from_response,
)
from .verifiable import build_auth_trie, verify

KEYFILE_ENV = "FZ_KEYFILE"


def _keyfile(args) -> str:
    path = args.keys or os.environ.get(KEYFILE_ENV)
    if not path:
        raise FzError(f"no key file: pass --keys or set {KEYFILE_ENV}")
    return path


def _port(text: str) -> int:
    """argparse type: a TCP port in 0..65535 (0 lets the OS pick one)."""
    if not (text.isascii() and text.isdigit() and int(text) <= 65535):
        raise argparse.ArgumentTypeError(f"port {text!r} is not in 0..65535")
    return int(text)


def _server(text: str) -> tuple[str, int]:
    """argparse type: ``host:port``, or ``[host]:port`` for an IPv6 address; either part optional."""
    if text.startswith("["):
        host, bracket, port = text[1:].partition("]")
        if not bracket or port[:1] not in ("", ":"):
            raise argparse.ArgumentTypeError(f"server {text!r} is not [host]:port")
        port = port[1:]
    elif text.count(":") > 1:
        raise argparse.ArgumentTypeError(
            f"server {text!r} has more than one ':'; write an IPv6 address in brackets, as [::1]:{DEFAULT_PORT}"
        )
    else:
        host, _, port = text.partition(":")
    return host or "127.0.0.1", _port(port) if port else DEFAULT_PORT


def _user_id(text: str) -> str:
    """argparse type: a user id of at most ``MAX_USER_ID_BYTES`` in UTF-8, the FZUD limit."""
    try:
        if len(text.encode("utf-8")) <= MAX_USER_ID_BYTES:
            return text
    except UnicodeEncodeError:
        pass
    raise argparse.ArgumentTypeError(f"user id is not UTF-8 of at most {MAX_USER_ID_BYTES} bytes")


def derive_user_key(record_key: bytes, user_id: str) -> bytes:
    return prf_bytes(record_key, b"U:" + user_id.encode("utf-8"), 32)


def _cmd_keygen(args) -> int:
    km = keygen(args.security_bits, seed=args.seed or None)
    save_keys(km, args.out)
    print(f"wrote {args.out} (security={km.security_bits}, trapdoor_bits={km.trapdoor_bits})")
    return 0


def read_corpus_dir(path: str) -> dict[str, list[bytes]]:
    """Whitespace tokenization + normalization; fid = file name."""
    corpus: dict[str, list[bytes]] = {}
    names = sorted(
        n for n in os.listdir(path) if os.path.isfile(os.path.join(path, n))
    )
    for name in names:
        fid = os.fsencode(name)
        if len(fid) > 64:
            raise FzError(f"file name {name!r} exceeds 64 bytes; rename it")
        with open(os.path.join(path, name), errors="replace") as fh:
            tokens = fh.read().split()
        seen = set()
        for token in tokens:
            try:
                word = normalize_keyword(token)
            except EmptyKeyword:
                continue
            if word in seen:
                continue
            seen.add(word)
            corpus.setdefault(word, []).append(fid)
    return corpus


def _cmd_build(args) -> int:
    km = load_keys(_keyfile(args))
    corpus = read_corpus_dir(args.corpus)
    if not corpus:
        raise FzError(f"no keywords found under {args.corpus}")
    build = {"listing": build_listing_index, "trie": build_trie_index, "auth": build_auth_trie}
    index = build[args.kind](corpus, args.d, km, args.method)
    save_index(index, args.out)
    print(
        f"wrote {args.out}: {args.kind} index, method={args.method}, d={args.d}, "
        f"{len(corpus)} keywords, {len(index.table)} entries"
    )
    return 0


def _cmd_serve(args) -> int:
    try:
        index = load_index(args.index)
    except VersionUnsupported as exc:
        raise FzError(f"{args.index}: {exc}; rebuild it with `fzsearch build`") from exc
    xi = None
    if args.blinded:
        xi = load_keys(_keyfile(args)).blind_key
    state = ServerState(index=index, xi=xi, epoch=args.epoch)
    server = SearchServer(state, host=args.host, port=args.port)
    mode = f"blinded epoch={args.epoch}" if xi else "single-user"
    host = f"[{args.host}]" if ":" in args.host else args.host
    print(f"serving {args.index} on {host}:{server.server_address[1]} ({mode})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _search_common(args, force_verify: bool) -> int:
    km = load_keys(_keyfile(args))
    with SearchClient(*args.server) as client:
        ack = client.hello()
        word = normalize_keyword(args.word)
        req = make_request(word, args.k, km, ack.get("method"))
        epoch = 0
        wire_req = req
        if args.blinded or ack.get("blinded"):
            xi = km.blind_key
            if args.user:
                if not args.directory:
                    raise FzError("--user requires --directory")
                directory = load_directory(args.directory)
                xi = directory.unwrap(args.user, derive_user_key(km.record_key, args.user))
            epoch = args.epoch if args.epoch is not None else ack.get("epoch", 0)
            wire_req = blind_request(req, xi)
        want_proof = force_verify or args.verify
        resp = client.search(wire_req, epoch=epoch, want_proof=want_proof)
    if resp.get("type") == "ErrorResp":
        raise FzError(f"server error {resp.get('code')}: {resp.get('message')}")
    result = result_from_response(resp)
    if want_proof:
        proofs = proofs_from_response(resp)
        verdict = verify(req, result, proofs, km)
        if not verdict.accepted:
            where = "" if verdict.failing_index is None else f" at proof {verdict.failing_index}"
            raise FzError(f"verification failed: {verdict.reason.value}{where}")
    # decrypt before "verified": verify binds record bytes, not how they split into records
    found = [decrypt_record(km, rec) for rec in result.records]
    # a gram index also returns keywords more than k edits away; print only real matches
    fids = sorted({fid for fid, keyword in found if edit_distance(word, keyword) <= args.k})
    if want_proof:
        print("verified: Ok")
    for fid in fids:
        print(fid.decode("utf-8", errors="backslashreplace"))
    if not fids:
        print("(no matches)", file=sys.stderr)
    return 0


def _cmd_search(args) -> int:
    return _search_common(args, force_verify=False)


def _cmd_verify(args) -> int:
    return _search_common(args, force_verify=True)


def _cmd_enroll(args) -> int:
    km = load_keys(_keyfile(args))
    if os.path.exists(args.directory):
        directory = load_directory(args.directory, current_xi=km.blind_key)
    else:
        directory = UserDirectory(current_xi=km.blind_key)
    user_key = derive_user_key(km.record_key, args.user)
    directory.enroll(args.user, user_key)
    save_directory(directory, args.directory)
    print(f"enrolled {args.user} (epoch {directory.epoch})")
    print(f"user-key: {user_key.hex()}")
    return 0


def _cmd_revoke(args) -> int:
    keyfile = _keyfile(args)
    km = load_keys(keyfile)
    directory = load_directory(args.directory, current_xi=km.blind_key)
    for uid in directory.wrapped:
        directory.user_keys[uid] = derive_user_key(km.record_key, uid)
    directory.revoke(args.user)
    # key file first: see the recovery order in persist
    save_keys(dataclasses.replace(km, blind_key=directory.current_xi), keyfile)
    save_directory(directory, args.directory)
    print(f"revoked {args.user}; directory now at epoch {directory.epoch}")
    print(f"updated blind key in {keyfile}; restart the server with the new epoch")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fzsearch", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a key file")
    p.add_argument("--out", required=True)
    p.add_argument("--security-bits", type=int, default=128, choices=SECURITY_BITS)
    p.add_argument("--seed", type=bytes.fromhex, help="hex seed for reproducible keys (tests only)")
    p.set_defaults(func=_cmd_keygen)

    p = sub.add_parser("build", help="build an index from a corpus directory")
    p.add_argument("--keys")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", default="wildcard", choices=("wildcard", "gram"))
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--kind", default="trie", choices=("listing", "trie", "auth"))
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("serve", help="host an index")
    p.add_argument("--index", required=True)
    p.add_argument("--keys")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=DEFAULT_PORT)
    p.add_argument("--blinded", action="store_true", help="unblind requests with the blind key")
    p.add_argument("--epoch", type=int, default=0)
    p.set_defaults(func=_cmd_serve)

    for name, func in (("search", _cmd_search), ("verify", _cmd_verify)):
        p = sub.add_parser(name, help=f"{name} a word against a server")
        p.add_argument("word")
        p.add_argument("k", type=int)
        p.add_argument("--server", type=_server, default=f"127.0.0.1:{DEFAULT_PORT}")
        p.add_argument("--keys")
        p.add_argument("--verify", action="store_true", help="check proofs")
        p.add_argument("--blinded", action="store_true")
        p.add_argument("--epoch", type=int)
        p.add_argument("--directory", help="user directory file for unwrapping the blind key")
        p.add_argument("--user", type=_user_id, help="enrolled user id")
        p.set_defaults(func=func)

    p = sub.add_parser("enroll", help="enroll a user into the directory")
    p.add_argument("--keys")
    p.add_argument("--directory", required=True)
    p.add_argument("--user", required=True, type=_user_id)
    p.set_defaults(func=_cmd_enroll)

    p = sub.add_parser("revoke", help="revoke a user and rotate the blind key")
    p.add_argument("--keys")
    p.add_argument("--directory", required=True)
    p.add_argument("--user", required=True, type=_user_id)
    p.set_defaults(func=_cmd_revoke)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except FzError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
