"""Structural costs counted on seeded inputs, with no wall clock.

The bytes of an authenticated index by section, and of its proofs and reply
lines over a seeded query pool, are counts: they do not move with the host.
So are the records a search or a proof slices out over that pool, and the
PRF messages and record seals of a build.
Each figure that FZIX v5 changed is written as FZIX v4's figure on the same
inputs (``V4``, as the v4 writer gave it) less what the 16-byte tags save:
16 bytes per tag in the file and in a proof, 32 hex characters in a reply.
"""

import random

import fzsearch.crypto as crypto
import fzsearch.index
import fzsearch.verifiable as verifiable
from conftest import mutate, random_corpus, reference_read_fzix, search_msg
from fzsearch import build_auth_trie, build_trie_index, make_request, search_listing, search_with_proof
from fzsearch.persist import dumps_index
from fzsearch.service import ServerState, encode_message, handle_line

# FZIX v4 (32-byte tags) on the same corpus and query pool
V4 = {"file_bytes": 74_714, "proof_bytes": 27_236, "reply_bytes": 61_958}
ENTRIES, ENTRY_BYTES, TRAPDOORS = 580, 37_544, 375
# Over the same pool: the entries its trapdoors hit, and the hits whose records a search returns,
# which on an exact hit is that entry alone.
HITS, READS = 158, 39
# One build of the corpus from cleared key caches: its 582 variants' trapdoors and the two AES-SIV key labels,
# and a seal per (variant, fid); the auth trie adds the tag key's label and 2 * 580 + 1 tags.
BUILDS = {
    "trie": {"prf_messages": 584, "seals": 726, "entries": ENTRIES},
    "auth": {"prf_messages": 1_746, "seals": 726, "entries": ENTRIES},
}


def _corpus(rng: random.Random) -> dict[str, list[bytes]]:
    """50 seeded words of 3-7 letters, every fourth also under a shared fid."""
    corpus = random_corpus(rng, size=50, lo=3, hi=7)
    for i, word in enumerate(sorted(corpus)):
        if i % 4 == 0:
            corpus[word].append(b"shared")
    return corpus


def _auth_world(km):
    """The seeded corpus's authenticated trie at d = 1, and a seeded pool of 60 requests at k = 0 or 1."""
    rng = random.Random(1801)
    corpus = _corpus(rng)
    words = sorted(corpus)
    reqs = []
    for _ in range(60):
        base = rng.choice(words)
        query = base if rng.random() < 0.3 else mutate(base, rng)
        reqs.append(make_request(query, rng.choice((0, 1)), km))
    return build_auth_trie(corpus, 1, km), reqs


def _ledger(km) -> dict:
    index, reqs = _auth_world(km)
    blob = dumps_index(index)
    fzix = reference_read_fzix(blob)
    state = ServerState(index=index)
    trapdoors = proof_bytes = reply_bytes = 0
    for req in reqs:
        trapdoors += len(req.trapdoors)
        proof_bytes += sum(map(len, search_with_proof(index, req)[1]))
        reply_bytes += len(handle_line(state, encode_message(search_msg(req, proof=True))))
    return {
        "entries": len(fzix.table), "entry_bytes": fzix.end, "tag_bytes": len(fzix.tags), "file_bytes": len(blob),
        "trapdoors": trapdoors, "proof_bytes": proof_bytes, "reply_bytes": reply_bytes,
    }


def test_sixteen_byte_tags_shrink_the_file_and_every_proof_by_sixteen_bytes_a_tag(km):
    got = _ledger(km)
    n, t = ENTRIES, TRAPDOORS
    assert got == {
        "entries": n,
        "entry_bytes": ENTRY_BYTES,  # the entries are v4's, byte for byte
        "tag_bytes": 16 * n + 16 * (n + 1),  # a leaf tag per entry, then a gap tag per gap
        "file_bytes": V4["file_bytes"] - 16 * (2 * n + 1),
        "trapdoors": t,
        "proof_bytes": V4["proof_bytes"] - 16 * t,  # one tag per trapdoor's proof
        "reply_bytes": V4["reply_bytes"] - 32 * t,  # each tag travels as hex
    }


def test_a_proof_slices_out_only_the_records_the_search_returns(km, monkeypatch):
    """A hit's proof hashes its entry's bytes where they lie, so ``search_with_proof`` reads records
    (``_records_at``) exactly as often as ``search_listing``: once per hit it returns.  On an exact
    hit that is one entry, however many other trapdoors of the request hit."""
    index, reqs = _auth_world(km)
    calls, real = [], fzsearch.index._records_at
    monkeypatch.setattr(fzsearch.index, "_records_at", lambda body, pos: calls.append(pos) or real(body, pos))

    def reads(search) -> int:
        calls.clear()
        for req in reqs:
            search(index, req)
        return len(calls)

    hits = sum(t in index.table for req in reqs for t in req.trapdoors)
    assert (reads(search_with_proof), reads(search_listing), hits) == (READS, READS, HITS)


def test_a_build_keys_each_variant_once_and_seals_each_record_once(km, monkeypatch):
    """PRF messages (``prf_many``) and AES-SIV seals (``encrypt_records``) of one build from cleared key
    caches: a trapdoor per variant and the two AES-SIV key labels, and a seal per record.  The auth trie
    adds the tag key's label and a tag per entry and per gap: ``1 + 2 * entries + 1`` messages more."""
    counts = {}

    def prf_many(key, msgs, n, real=crypto.prf_many):
        msgs = list(msgs)
        counts["prf_messages"] += len(msgs)
        return real(key, msgs, n)

    def encrypt_records(km, groups, real=crypto.encrypt_records):
        sealed = real(km, groups)
        counts["seals"] += len(sealed)
        return sealed

    for module in (crypto, verifiable):
        monkeypatch.setattr(module, "prf_many", prf_many)
    for module in (crypto, fzsearch.index):
        monkeypatch.setattr(module, "encrypt_records", encrypt_records)
    corpus, got = _corpus(random.Random(1801)), {}
    for kind, build in (("trie", build_trie_index), ("auth", build_auth_trie)):
        crypto.record_cipher.cache_clear()  # so the key derivations count
        crypto.tag_key.cache_clear()
        counts.update(prf_messages=0, seals=0)
        index = build(corpus, 1, km)
        got[kind] = {**counts, "entries": len(index.table)}
    assert got == BUILDS
    assert got["auth"]["prf_messages"] == got["trie"]["prf_messages"] + 1 + 2 * ENTRIES + 1
