"""Command line front end.

Owner side: ``keygen``, ``build``, ``serve``, ``enroll``, ``revoke``.
User side: ``search``, and ``verify``, which also checks the proofs.
Both print the file ids whose decrypted keyword is within ``k`` edits of
the normalized query, so a gram index's farther results are dropped.  They
blind the request exactly when the server's HelloAck says it is blinded,
with the blind key of the key file, or with ``--user`` the key unwrapped
from the ``--directory`` file, whose epoch the request then carries.  A
``k`` above the HelloAck's ``d`` stops them with the server's EDIT_BOUND
wording before they build a fuzzy set.

The key file path comes from ``--keys`` or the ``FZ_KEYFILE`` environment
variable.  Enrollment derives each user's personal key from the record key
and user id, prints it once, and hands delivery off-channel; revocation can
therefore re-wrap the rotated blind key from the files alone.
"""

from __future__ import annotations

import argparse
import os
import sys

from .crypto import SECURITY_BITS
from .errors import BadParameter, FzError, VersionUnsupported
from .persist import load_blind_key, load_index
from .service import DEFAULT_PORT, SearchServer, ServerState

# A server loads only what it serves from.  This module imports what ``serve``
# runs (compiled here, before any parser is built, so their compile sets no
# higher memory peak), and ``main`` builds only the invoked command's parser.
# The other commands live in ``commands``, imported only to run one of them,
# and import inside their bodies the modules only they run.

KEYFILE_ENV = "FZ_KEYFILE"


def _keyfile(args) -> str:
    path = args.keys or os.environ.get(KEYFILE_ENV)
    if not path:
        raise FzError(f"no key file: pass --keys or set {KEYFILE_ENV}")
    return path


def _whole(what: str, top: int):
    """An argparse type: a whole number in 0..``top``, named ``what`` in the error."""

    def parse(text: str) -> int:
        if not (text.isascii() and text.isdigit() and int(text) <= top):
            raise argparse.ArgumentTypeError(f"{what} {text!r} is not in 0..{top}")
        return int(text)

    return parse


_port = _whole("port", 65535)  # a TCP port (0 lets the OS pick one)


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
    """argparse type: a user id FZUD can store (``multiuser.user_id_bytes``)."""
    from .multiuser import user_id_bytes

    try:
        user_id_bytes(text)
    except BadParameter as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _cmd_serve(args) -> int:
    xi = None
    if args.blinded:
        # the key file first: a bad one fails before a long index load, below its peak
        xi = load_blind_key(_keyfile(args))
    try:
        index = load_index(args.index)
    except VersionUnsupported as exc:
        raise FzError(f"{args.index}: {exc}; rebuild it with `fzsearch build`") from exc
    state = ServerState(index=index, xi=xi, epoch=args.epoch)
    server = SearchServer(state, host=args.host, port=args.port)
    mode = f"blinded epoch={args.epoch}" if xi else "single-user"
    host = f"[{args.host}]" if ":" in args.host else args.host
    about = f"{mode}; {index.kind}, {len(index.table)} entries"
    print(f"serving {args.index} on {host}:{server.server_address[1]} ({about})")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _keygen_args(p) -> None:
    p.add_argument("--out", required=True)
    p.add_argument("--security-bits", type=int, default=128, choices=SECURITY_BITS)


def _build_args(p) -> None:
    p.add_argument("--keys")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--method", default="wildcard", choices=("wildcard", "gram"))
    p.add_argument("--d", type=_whole("edit bound", 255), default=1, help="edit bound (0..255)")
    p.add_argument("--kind", default="trie", choices=("listing", "trie", "auth"))


def _serve_args(p) -> None:
    p.add_argument("--index", required=True)
    p.add_argument("--keys")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=DEFAULT_PORT)
    p.add_argument("--blinded", action="store_true", help="unblind requests with the blind key")
    p.add_argument("--epoch", type=_whole("epoch", 2**64 - 1), default=0, help="the directory's epoch (a u64)")


def _search_args(p) -> None:
    p.add_argument("word")
    p.add_argument("k", type=_whole("k", 255), help="edit bound of the query (0..255)")
    p.add_argument("--server", type=_server, default=f"127.0.0.1:{DEFAULT_PORT}")
    p.add_argument("--keys")
    p.add_argument("--directory", help="user directory file for unwrapping the blind key")
    p.add_argument("--user", type=_user_id, help="enrolled user id")


def _user_args(p) -> None:
    p.add_argument("--keys")
    p.add_argument("--directory", required=True)
    p.add_argument("--user", required=True, type=_user_id)


def _commands():
    """The ``commands`` module, imported when an owner or user command runs: a server never compiles them."""
    from . import commands

    return commands


# Each command: its help line, what adds its arguments, and what runs it.
COMMANDS = {
    "keygen": ("generate a key file", _keygen_args, lambda args: _commands().run_keygen(args)),
    "build": ("build an index from a corpus directory", _build_args,
              lambda args: _commands().run_build(args, _keyfile(args))),
    "serve": ("host an index", _serve_args, _cmd_serve),
    "search": ("search a word against a server", _search_args,
               lambda args: _commands().run_search(args, _keyfile(args))),
    "verify": ("verify a word against a server", _search_args,
               lambda args: _commands().run_search(args, _keyfile(args))),
    "enroll": ("enroll a user into the directory", _user_args,
               lambda args: _commands().run_enroll(args, _keyfile(args))),
    "revoke": ("revoke a user and rotate the blind key", _user_args,
               lambda args: _commands().run_revoke(args, _keyfile(args))),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every command's parser, or with ``command`` one that holds only that command's.

    For its command the one-command parser prints what the full one prints,
    help and usage errors alike: its usage line names every command.
    """
    parser = argparse.ArgumentParser(prog="fzsearch", description=__doc__)
    names = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=names)
    for name, (help_line, add_arguments, run) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_line)
            add_arguments(p)
            p.set_defaults(func=run)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the invoked command's parser alone; ``--help`` and an unknown command get every command's
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (FzError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
