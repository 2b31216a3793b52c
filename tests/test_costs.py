"""Structural costs counted on seeded inputs, with no wall clock.

The bytes of an authenticated index by section, and of its proofs and reply
lines over a seeded query pool, are counts: they do not move with the host.
So are the records a search or a proof slices out over that pool, the
hashes and tag messages a proof costs, and the PRF messages and record seals
of a build.
Each figure that FZIX v5 changed is written as FZIX v4's figure on the same
inputs (``V4``, as the v4 writer gave it) less what the 16-byte tags save:
16 bytes per tag in the file and in a proof, 32 hex characters in a reply.
Protocol 5 then saves a hit proof's 32-byte digest and, on an exact answer,
every proof after proof 0.
"""

import json
import random

import fzsearch.crypto as crypto
import fzsearch.index
import fzsearch.verifiable as verifiable
from conftest import mutate, random_corpus, reference_read_fzix, search_msg
from fzsearch import build_auth_trie, build_trie_index, make_request, search_listing, search_with_proof, verify
from fzsearch.client import proofs_from_response, result_from_response
from fzsearch.persist import dumps_index
from fzsearch.service import ServerState, encode_message, handle_line

# FZIX v4 (32-byte tags) on the same corpus and query pool
V4 = {"file_bytes": 74_714, "proof_bytes": 27_236, "reply_bytes": 61_958}
ENTRIES, ENTRY_BYTES, TRAPDOORS = 580, 37_544, 375
# Over the same pool: the entries its trapdoors hit, and the hits whose records a search returns,
# which on an exact hit is that entry alone.
HITS, READS = 158, 39
# The pool by answer: an exact answer carries proof 0 alone, any other a proof per trapdoor.  A hit
# proof is 20 bytes and a miss 60 between two entries; no proof hashes, and ``verify`` keys a tag
# message per proof.  Every trapdoor of an exact request here hits, as the variants of a keyword
# are entries, so protocol 4 sent 119 more hit proofs on these answers, 52 bytes each.
ANSWERS = {
    "exact": {"replies": 21, "trapdoors": 140, "hits": 140, "proofs": 21, "hit_proofs": 21, "proof_bytes": 420,
              "reply_bytes": 3_508, "search_sha256": 0, "verify_tag_messages": 21},
    "fuzzy": {"replies": 39, "trapdoors": 235, "hits": 18, "proofs": 235, "hit_proofs": 18, "proof_bytes": 13_380,
              "reply_bytes": 31_221, "search_sha256": 0, "verify_tag_messages": 235},
}
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
    hit_proofs = sum(a["hit_proofs"] for a in ANSWERS.values())
    dropped = t - sum(a["proofs"] for a in ANSWERS.values())  # on exact answers, all of them hits
    assert got == {
        "entries": n,
        "entry_bytes": ENTRY_BYTES,  # the entries are v4's, byte for byte
        "tag_bytes": 16 * n + 16 * (n + 1),  # a leaf tag per entry, then a gap tag per gap
        "file_bytes": V4["file_bytes"] - 16 * (2 * n + 1),
        "trapdoors": t,
        # one tag less per trapdoor's proof, a digest less per hit proof, and the proofs dropped
        "proof_bytes": V4["proof_bytes"] - 16 * t - 32 * hit_proofs - 52 * dropped,
        # each as hex, a dropped proof with its quotes and comma
        "reply_bytes": V4["reply_bytes"] - 32 * t - 64 * hit_proofs - (2 * 52 + 3) * dropped,
    }
    assert got["proof_bytes"] == sum(a["proof_bytes"] for a in ANSWERS.values())
    assert got["reply_bytes"] == sum(a["reply_bytes"] for a in ANSWERS.values())


def test_an_exact_answer_carries_one_proof_and_no_proof_hashes(km, monkeypatch):
    """Over the pool, split into exact and other answers: replies, trapdoors and the entries they hit,
    proofs and hit proofs, proof and reply bytes, SHA-256 calls in ``search_with_proof`` and tag
    messages ``verify`` keys (``prf_many``), each reply verified as the client decodes it."""
    index, reqs = _auth_world(km)
    state, counts = ServerState(index=index), {}

    def sha256(*args, real=verifiable.sha256):
        counts["search_sha256"] += 1
        return real(*args)

    def prf_many(key, msgs, n, real=verifiable.prf_many):
        msgs = list(msgs)
        counts["verify_tag_messages"] += len(msgs)
        return real(key, msgs, n)

    monkeypatch.setattr(verifiable, "sha256", sha256)
    monkeypatch.setattr(verifiable, "prf_many", prf_many)
    got = {answer: dict.fromkeys(ANSWERS["exact"], 0) for answer in ANSWERS}
    for req in reqs:
        counts.update(search_sha256=0, verify_tag_messages=0)
        result, proofs = search_with_proof(index, req)
        sha_calls = counts["search_sha256"]
        line = handle_line(state, encode_message(search_msg(req, proof=True)))
        resp = json.loads(line)
        assert verify(req, result_from_response(resp), proofs_from_response(resp), km).accepted
        row = got["exact" if result.exact_hit else "fuzzy"]
        for name, value in (
            ("replies", 1), ("trapdoors", len(req.trapdoors)), ("hits", sum(t in index.table for t in req.trapdoors)),
            ("proofs", len(proofs)), ("hit_proofs", sum(p[1] < 2 for p in proofs)),
            ("proof_bytes", sum(map(len, proofs))), ("reply_bytes", len(line)),
            ("search_sha256", sha_calls), ("verify_tag_messages", counts["verify_tag_messages"]),
        ):
            row[name] += value
    assert got == ANSWERS
    exact, fuzzy = got["exact"], got["fuzzy"]
    assert exact["proofs"] == exact["hit_proofs"] == exact["replies"] and fuzzy["proofs"] == fuzzy["trapdoors"]
    assert exact["hits"] - exact["hit_proofs"] == exact["trapdoors"] - exact["proofs"]  # what protocol 4 also proved
    assert exact["hits"] + fuzzy["hits"] == HITS and exact["hit_proofs"] + fuzzy["hit_proofs"] == READS


def test_a_proof_slices_out_only_the_records_the_search_returns(km, monkeypatch):
    """A hit's proof reads only its entry's flag and count, so ``search_with_proof`` reads records
    (``_records_at``) exactly as often as ``search_listing``: once per hit it returns, which is once
    per hit it proves.  On an exact hit that is one entry, however many other trapdoors of the
    request hit."""
    index, reqs = _auth_world(km)
    calls, real = [], fzsearch.index._records_at
    monkeypatch.setattr(fzsearch.index, "_records_at", lambda body, pos: calls.append(pos) or real(body, pos))

    def reads(search) -> int:
        calls.clear()
        for req in reqs:
            search(index, req)
        return len(calls)

    hits = sum(t in index.table for req in reqs for t in req.trapdoors)
    hit_proofs = sum(p[1] < 2 for req in reqs for p in search_with_proof(index, req)[1])
    assert (reads(search_with_proof), reads(search_listing), hits, hit_proofs) == (READS, READS, HITS, READS)


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
