"""The command line's owner and user commands: ``keygen``, ``build``, ``search``
and ``verify``, ``enroll`` and ``revoke``.

``cli`` parses their arguments, resolves the key file and imports this module
only to run one of them, so ``serve``, which ``cli`` runs itself, never
compiles them.  Each command imports inside its body the modules that only it
runs.
"""

from __future__ import annotations

import os
import sys

from .crypto import TRAPDOOR_BITS, prf_bytes
from .errors import BadResponse, EmptyKeyword, FzError
from .index import blind_request, build_listing_index, build_trie_index, decrypt_matches, make_request
from .persist import load_directory, load_keys, save_directory, save_index, save_keys


def derive_user_key(record_key: bytes, user_id: str) -> bytes:
    return prf_bytes(record_key, b"U:" + user_id.encode("utf-8"), 32)


def run_keygen(args) -> int:
    from .keys import keygen  # owner code: a server never loads ``keys``

    km = keygen(args.security_bits)
    save_keys(km, args.out)
    print(f"wrote {args.out} (security={km.security_bits}, trapdoor_bits={TRAPDOOR_BITS})")
    return 0


def read_corpus_dir(path: str) -> dict[str, list[bytes]]:
    """Whitespace tokenization + normalization; fid = file name."""
    from .fuzzyset import normalize_keyword

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


def run_build(args, keyfile: str) -> int:
    from .verifiable import build_auth_trie

    km = load_keys(keyfile)
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


def run_search(args, keyfile: str) -> int:
    """``search``, or ``verify``, which also checks the proofs."""
    from .client import SearchClient, proofs_from_response, result_from_response  # a server never loads the client
    from .fuzzyset import normalize_keyword
    from .service import EDIT_BOUND
    from .verifiable import verify

    km = load_keys(keyfile)
    want_proof = args.command == "verify"
    with SearchClient(*args.server) as client:
        ack = client.hello()
        d = ack.get("d")
        if type(d) is int and args.k > d:  # before the fuzzy set, which grows about twofold per unit of k
            raise FzError(f"{EDIT_BOUND}: k={args.k} exceeds index bound d={d}")
        word = normalize_keyword(args.word)
        req = make_request(word, args.k, km, ack.get("method"))
        epoch, wire_req = ack.get("epoch", 0), req
        if ack.get("blinded"):
            xi = km.blind_key
            if args.user:
                if not args.directory:
                    raise FzError("--user requires --directory")
                directory = load_directory(args.directory)
                xi = directory.unwrap(args.user, derive_user_key(km.record_key, args.user))
                epoch = directory.epoch  # a directory older than the server's key gets STALE_EPOCH
            wire_req = blind_request(req, xi)
        resp = client.search(wire_req, epoch=epoch, want_proof=want_proof)
    if resp.get("type") == "ErrorResp":
        raise FzError(f"server error {resp.get('code')!s:.40}: {resp.get('message')!s:.200}")
    if resp.get("type") != "SearchResp":
        raise BadResponse(f"unexpected search response type {resp.get('type')!r:.40}")
    result = result_from_response(resp)
    if want_proof:
        proofs = proofs_from_response(resp)
        verdict = verify(req, result, proofs, km)
        if not verdict.accepted:
            where = "" if verdict.failing_index is None else f" at proof {verdict.failing_index}"
            raise FzError(f"verification failed: {verdict.reason.value}{where}")
    # decrypt before "verified": verify binds record bytes, not how they split into records
    fids = sorted({fid for fid, _ in decrypt_matches(km, word, args.k, result)})
    if want_proof:
        print("verified: Ok")
    for fid in fids:
        print(fid.decode("utf-8", errors="backslashreplace"))
    if not fids:
        print("(no matches)", file=sys.stderr)
    return 0


def run_enroll(args, keyfile: str) -> int:
    from .multiuser import UserDirectory

    km = load_keys(keyfile)
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


def run_revoke(args, keyfile: str) -> int:
    import dataclasses  # owner code: the server path never loads it

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
