"""Structural costs counted on seeded inputs, with no wall clock.

The bytes of an authenticated index by section, and of its proofs and reply
lines over a seeded query pool, are counts: they do not move with the host.
Each figure that FZIX v5 changed is written as FZIX v4's figure on the same
inputs (``V4``, as the v4 writer gave it) less what the 16-byte tags save:
16 bytes per tag in the file and in a proof, 32 hex characters in a reply.
"""

import random

from conftest import mutate, random_corpus, reference_read_fzix, search_msg
from fzsearch import build_auth_trie, make_request, search_with_proof
from fzsearch.persist import dumps_index
from fzsearch.service import ServerState, encode_message, handle_line

# FZIX v4 (32-byte tags) on the same corpus and query pool
V4 = {"file_bytes": 74_714, "proof_bytes": 27_236, "reply_bytes": 61_958}
ENTRIES, ENTRY_BYTES, TRAPDOORS = 580, 37_544, 375


def _ledger(km) -> dict:
    rng = random.Random(1801)
    corpus = random_corpus(rng, size=50, lo=3, hi=7)
    for i, word in enumerate(sorted(corpus)):
        if i % 4 == 0:
            corpus[word].append(b"shared")
    index = build_auth_trie(corpus, 1, km)
    blob = dumps_index(index)
    fzix = reference_read_fzix(blob)
    state = ServerState(index=index)
    words = sorted(corpus)
    trapdoors = proof_bytes = reply_bytes = 0
    for _ in range(60):
        base = rng.choice(words)
        query = base if rng.random() < 0.3 else mutate(base, rng)
        req = make_request(query, rng.choice((0, 1)), km)
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
