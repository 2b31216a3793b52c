"""Acceptance suite: one test per criterion, one PASS line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  Measured artifacts
(the gram false-positive CSV) land under ``bench_out/`` at the repo root.
"""

import csv
import gc
import hashlib
import json
import os
import random
import statistics
import time

import pytest

from conftest import (
    ALPHABET,
    enumeration_fuzzy_set,
    fields,
    garbage_line,
    hit,
    miss,
    mutate,
    random_corpus,
    random_word,
    search_msg,
    synth_corpus,
    time_fuzzyset_build,
)
from fzsearch import (
    VerdictReason,
    build_auth_trie,
    build_listing_index,
    build_trie_index,
    decrypt_record,
    keygen,
    make_request,
    search_listing,
    search_trie,
    search_with_proof,
    symbolize,
    verify,
    wildcard_fuzzy_set,
)
from fzsearch.crypto import SYMBOL_BITS, TRAPDOOR_BITS, TRAPDOOR_BYTES
from fzsearch.index import blind_request, unblind_request, walk_trie
from fzsearch.multiuser import UserDirectory
from fzsearch.persist import dumps_index
from fzsearch.service import MAX_TRAPDOORS, ServerState, encode_message, handle_line
from fzsearch.verifiable import TAG_BYTES

BENCH_OUT = os.path.join(os.path.dirname(__file__), os.pardir, "bench_out")


def _report(number: int, text: str) -> None:
    print(f"\nCRITERION {number:2d} PASS: {text}")


def _oracle(query: str, corpus_words: set[str]) -> set[str]:
    """Expected keyword set: exact-match rule first, distance-1 ball otherwise."""
    if query in corpus_words:
        return {query}
    return set(enumeration_fuzzy_set(query, 1)) & corpus_words


def _queries(words: list[str], rng: random.Random, count: int) -> list[str]:
    out = []
    while len(out) < count:
        base = rng.choice(words)
        roll = rng.random()
        if roll < 0.2:
            q = base
        elif roll < 0.6:
            q = mutate(base, rng)
        elif roll < 0.8:
            q = mutate(mutate(base, rng), rng)
        else:
            q = random_word(rng, 3, 8)
        if q:
            out.append(q)
    return out


def test_criterion_01_castle_set():
    wildcard_fuzzy_set("castle", 1)  # warm caches before timing
    start = time.perf_counter()
    s = wildcard_fuzzy_set("castle", 1)
    ok = len(s) == 14 and all(
        m in s for m in ("*castle", "*astle", "c*astle", "c*stle", "castl*e", "castl*", "castle*", "castle")
    )
    elapsed = time.perf_counter() - start
    assert ok
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"
    _report(1, f"castle wildcard set has 14 members ({elapsed * 1e6:.0f} us)")


def test_criterion_02_size_law():
    rng = random.Random(2)
    start = time.perf_counter()
    for _ in range(500):
        w = random_word(rng, 1, 30)
        assert len(wildcard_fuzzy_set(w, 1)) == 2 * len(w) + 2, w
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"|wildcard set, d=1| = 2l+2 for 500 random words ({elapsed:.2f} s)")


def test_criterion_03_wildcard_exactness():
    rng = random.Random(3)
    start = time.perf_counter()
    checked = 0
    for corpus_i in range(50):
        km = keygen(128, seed=b"c3-%d" % corpus_i)
        corpus = random_corpus(rng, size=100, lo=3, hi=8)
        words = sorted(corpus)
        corpus_words = set(words)
        index = build_trie_index(corpus, 1, km)
        for query in _queries(words, rng, 100):
            result = search_trie(index, make_request(query, 1, km))
            got = {decrypt_record(km, r)[1] for r in result.records}
            expected = _oracle(query, corpus_words)
            assert got == expected, (corpus_i, query, got ^ expected)
            fids_got = {decrypt_record(km, r)[0] for r in result.records}
            fids_expected = {f for w in expected for f in corpus[w]}
            assert fids_got == fids_expected
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(3, f"wildcard d=1: completeness + zero false positives over {checked} queries ({elapsed:.1f} s)")


def test_criterion_04_gram_completeness_and_fp_rate():
    rng = random.Random(4)
    start = time.perf_counter()
    fp = 0
    returned = 0
    checked = 0
    for corpus_i in range(10):
        km = keygen(128, seed=b"c4-%d" % corpus_i)
        corpus = random_corpus(rng, size=100, lo=3, hi=6)
        words = sorted(corpus)
        corpus_words = set(words)
        index = build_listing_index(corpus, 1, km, method="gram")
        for query in _queries(words, rng, 100):
            result = search_listing(index, make_request(query, 1, km, method="gram"))
            got = {decrypt_record(km, r)[1] for r in result.records}
            expected = _oracle(query, corpus_words)
            missing = expected - got
            assert not missing, (query, missing)  # completeness is 100%
            returned += len(got)
            fp += len(got - expected)
            checked += 1
    rate = fp / returned if returned else 0.0
    os.makedirs(BENCH_OUT, exist_ok=True)
    csv_path = os.path.join(BENCH_OUT, "acceptance_gram_fp.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["queries", "returned_keywords", "false_positives", "fp_rate"])
        writer.writerow([checked, returned, fp, f"{rate:.6f}"])
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, f"gram d=1 complete; fp rate {rate:.4f} ({fp}/{returned}) reported in {csv_path} ({elapsed:.1f} s)")


def test_criterion_05_trie_listing_equivalence():
    rng = random.Random(5)
    start = time.perf_counter()
    triples = 0
    for corpus_i in range(10):
        km = keygen(128, seed=b"c5-%d" % corpus_i)
        method = "gram" if corpus_i % 3 == 2 else "wildcard"
        corpus = random_corpus(rng, size=80, lo=3, hi=7)
        words = sorted(corpus)
        trie = build_trie_index(corpus, 1, km, method)
        listing = build_listing_index(corpus, 1, km, method)
        done = 0
        while done < 100:
            (query,) = _queries(words, rng, 1)
            k = rng.choice((0, 1))
            req = make_request(query, k, km, method)
            a = search_trie(trie, req)
            b = search_listing(listing, req)
            assert a.exact_hit == b.exact_hit
            assert a.records == b.records, (corpus_i, query)
            done += 1
            triples += 1
    elapsed = time.perf_counter() - start
    assert triples == 1000
    assert elapsed < 30.0
    _report(5, f"trie == listing on {triples} (corpus, query, k) triples ({elapsed:.1f} s)")


def test_criterion_06_trie_depth():
    rng = random.Random(6)
    km = keygen(128, seed=b"c6")
    assert TRAPDOOR_BITS == 160 and SYMBOL_BITS == 4
    leaves = 0
    for method in ("wildcard", "gram"):
        corpus = random_corpus(rng, size=60, lo=3, hi=8)
        trie = build_trie_index(corpus, 1, km, method)
        for t in trie.ordered:
            path = symbolize(t, trie.symbol_bits)
            leaf = walk_trie(trie.root, path)
            assert leaf is not None and leaf.depth == len(path) == 40
            assert leaf.records and not leaf.children
            leaves += 1
    _report(6, f"every one of {leaves} leaves sits at depth 40 (l=160, n=4)")


def test_criterion_07_storage_reduction_formula():
    start = time.perf_counter()
    rng = random.Random(7)
    words = ["abcdefghij", "aaaaabbbbb", "".join(rng.choice(ALPHABET) for _ in range(10))]
    for word in words:
        wildcard_entries = len(wildcard_fuzzy_set(word, 1))
        assert wildcard_entries == 22
        # independent single-edit enumeration of the exact neighborhood
        subs = {word[:i] + c + word[i + 1 :] for i in range(10) for c in ALPHABET}
        dels = {word[:i] + word[i + 1 :] for i in range(10)}
        ins = {word[:i] + c + word[i:] for i in range(11) for c in ALPHABET}
        expected_n = len(subs | dels | ins | {word})
        n = len(enumeration_fuzzy_set(word, 1))
        assert n == expected_n
        ratio = wildcard_entries / n
        assert ratio < 0.05, (word, ratio)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(7, f"22 wildcard entries vs {n} enumerated at l=10: ratio {ratio:.4f} < 0.05 ({elapsed:.2f} s)")


def test_criterion_08_linear_construction_time():
    start = time.perf_counter()
    small, large = (synth_corpus(count, 7.44, seed=8) for count in (2000, 4000))
    ratios = []
    # Each round times both sizes back to back, so a slow spell of the host
    # tends to hit both halves of one ratio; the median drops outlier rounds.
    for _ in range(7):
        gc.disable()
        try:
            small_ms = time_fuzzyset_build(small, 1, "wildcard")[0]
            large_ms = time_fuzzyset_build(large, 1, "wildcard")[0]
        finally:
            gc.enable()
        ratios.append(large_ms / small_ms)
    ratio = statistics.median(ratios)
    elapsed = time.perf_counter() - start
    assert 1.6 <= ratio <= 2.6, f"ratio {ratio:.2f} (rounds {', '.join(f'{r:.2f}' for r in ratios)})"
    assert elapsed < 120.0
    _report(8, f"2000 -> 4000 keywords: median construction time ratio {ratio:.2f} in [1.6, 2.6] ({elapsed:.1f} s)")


def test_criterion_09_trie_storage_exceeds_listing():
    km = keygen(128, seed=b"bench-9")
    points = [(count, method) for count in (200, 400) for method in ("wildcard", "gram")]
    for count, method in points:
        corpus = synth_corpus(count, 7.44, seed=9)
        listing = len(dumps_index(build_listing_index(corpus, 1, km, method)))
        trie = len(dumps_index(build_trie_index(corpus, 1, km, method)))
        # equal since FZIX v2; a trie that stores structure again would exceed it
        assert trie >= listing, (count, method, trie, listing)
    _report(9, f"serialized trie >= listing on all {len(points)} benchmarked corpora")


def test_criterion_10_verifiable_search_completeness():
    rng = random.Random(10)
    start = time.perf_counter()
    runs = 0
    for corpus_i in range(5):
        km = keygen(128, seed=b"c10-%d" % corpus_i)
        corpus = random_corpus(rng, size=60, lo=3, hi=7)
        words = sorted(corpus)
        index = build_auth_trie(corpus, 1, km)
        for query in _queries(words, rng, 200):
            req = make_request(query, 1, km)
            result, proofs = search_with_proof(index, req)
            verdict = verify(req, result, proofs, km)
            assert verdict.accepted and verdict.reason is VerdictReason.OK, query
            runs += 1
    elapsed = time.perf_counter() - start
    assert runs >= 1000
    assert elapsed < 60.0
    _report(10, f"{runs} honest search+verify runs all accepted ({elapsed:.1f} s)")


def test_criterion_11_verifiable_search_tamper_suite():
    rng = random.Random(11)
    km = keygen(128, seed=b"c11")
    corpus = random_corpus(rng, size=50, lo=3, hi=6)
    words = sorted(corpus)
    index = build_auth_trie(corpus, 1, km)
    start = time.perf_counter()

    # an honest fuzzy transcript with results to tamper with
    while True:
        query = mutate(rng.choice(words), rng)
        if not query or query in corpus:
            continue
        req = make_request(query, 1, km)
        result, proofs = search_with_proof(index, req)
        if not result.exact_hit and len(result.records) >= 2:
            break

    detected = 0
    trials = 0

    # each proof dropped, then the last one duplicated
    for miscounted in [proofs[:i] + proofs[i + 1 :] for i in range(len(proofs))] + [proofs + proofs[-1:]]:
        verdict = verify(req, result, miscounted, km)
        trials += 1
        detected += verdict.reason is VerdictReason.COUNT_MISMATCH

    # an exact answer carries proof 0 alone: without it, or with a second proof, it miscounts
    exact_req = make_request(words[0], 1, km)
    exact, (proof0,) = search_with_proof(index, exact_req)
    assert exact.exact_hit and len(exact_req.trapdoors) > 1
    for miscounted in ([], [proof0, proof0], [proof0, proofs[0]]):
        verdict = verify(exact_req, exact, miscounted, km)
        trials += 1
        detected += verdict.reason is VerdictReason.COUNT_MISMATCH

    target = rng.randrange(len(result.records))
    blob = result.records[target]
    for i in range(len(blob)):
        for mask in (0xFF, 0x01):
            flipped = bytearray(blob)
            flipped[i] ^= mask
            mutated = list(result.records)
            mutated[target] = bytes(flipped)
            verdict = verify(req, result._replace(records=mutated), proofs, km)
            trials += 1
            detected += not verdict.accepted and verdict.reason is VerdictReason.LEAF_TAG_MISMATCH

    # every proof with foreign tags: leaf tags on hits, gap tags on misses
    n = len(index.table)
    tags = [index.tags[i : i + TAG_BYTES] for i in range(0, len(index.tags), TAG_BYTES)]
    substitutions = 0
    for i, proof in enumerate(proofs):
        f = fields(proof)
        if "flag" in f:
            pool, reason, forge = tags[:n], VerdictReason.LEAF_TAG_MISMATCH, hit
        else:
            pool, reason, forge = tags[n:], VerdictReason.GAP_TAG_MISMATCH, miss
        for _ in range(5):
            foreign = rng.choice(pool)
            if foreign == f["tag"]:
                continue
            tampered = list(proofs)
            tampered[i] = forge(**{**f, "tag": foreign})
            verdict = verify(req, result, tampered, km)
            trials += 1
            substitutions += 1
            detected += verdict.reason is reason and verdict.failing_index == i

    elapsed = time.perf_counter() - start
    assert substitutions > 0
    assert detected == trials, f"{detected}/{trials} tampers detected"
    assert elapsed < 60.0
    _report(11, f"tamper suite: {detected}/{trials} manipulations detected ({elapsed:.1f} s)")


def test_criterion_12_revocation():
    rng = random.Random(12)
    km = keygen(128, seed=b"c12")
    corpus = random_corpus(rng, size=60, lo=3, hi=5)
    words = sorted(corpus)
    index = build_trie_index(corpus, 1, km)
    directory = UserDirectory(current_xi=km.blind_key)
    directory.enroll("alice", b"key-alice").enroll("eve", b"key-eve")
    stale_xi = directory.unwrap("eve", b"key-eve")
    directory.revoke("eve")
    live_xi = directory.unwrap("alice", b"key-alice")
    assert live_xi == directory.current_xi != stale_xi

    start = time.perf_counter()
    hits = 0
    for i in range(10_000):
        k = 1 if i % 5 == 0 else 0
        req = make_request(rng.choice(words), k, km)
        replayed = unblind_request(blind_request(req, stale_xi), live_xi)
        hits += len(search_trie(index, replayed).records)
    assert hits == 0

    for query in _queries(words, rng, 200):
        req = make_request(query, 1, km)
        direct = search_trie(index, req)
        via = search_trie(index, unblind_request(blind_request(req, live_xi), live_xi))
        assert via.records == direct.records
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(12, f"10^4 stale-key replays hit nothing; live users match direct search ({elapsed:.1f} s)")


def _scripted_session(seed: bytes) -> bytes:
    """Deterministic transcript: same seed must produce identical bytes."""
    km = keygen(128, seed=seed)
    rng = random.Random(13)
    corpus = random_corpus(rng, size=30, lo=3, hi=6)
    words = sorted(corpus)
    state = ServerState(index=build_auth_trie(corpus, 1, km))
    lines = [encode_message({"type": "Hello"})]
    for word in words[:5]:
        lines.append(encode_message(search_msg(make_request(word, 1, km), proof=True)))
    lines.append('{"type": "SearchReq", "k": 9}\n')
    lines.append("not json at all\n")
    transcript = b""
    for line in lines:
        transcript += handle_line(state, line).encode()
    return transcript


# sha256 of _scripted_session(b"golden"): unblinded proof replies and two ErrorResps.
GOLDEN_SCRIPTED_SESSION = "9b8f0b087ec502e35a3469ab8945610dea23f51b99de383be0e055b17cb6e566"

# sha256 of _blinded_session(b"golden-blind"); pins the HelloAck (protocol 5),
# the AES Feistel bytes of blind_request on the wire and the server's
# unblinded answers with their adjacent-pair proofs (proof type 0xFF).
GOLDEN_BLINDED_SESSION = "cee69765206f521fe87ac77ca805d5bc23eb185cd3793eee7d3c8497829b05de"


def _blinded_session(seed: bytes) -> bytes:
    """Request and response lines of a blinded, proof-carrying session."""
    km = keygen(128, seed=seed)
    corpus = random_corpus(random.Random(13), size=30, lo=3, hi=6)
    state = ServerState(index=build_auth_trie(corpus, 1, km), xi=km.blind_key, epoch=1)
    lines = [encode_message({"type": "Hello"})]
    for word in sorted(corpus)[:5]:
        req = blind_request(make_request(word, 1, km), km.blind_key)
        lines.append(encode_message(search_msg(req, epoch=1, proof=True)))
    transcript = b""
    for line in lines:
        transcript += line.encode() + handle_line(state, line).encode()
    return transcript


# sha256 of _proofless_session(b"golden-plain"); pins SearchResp lines without a
# "proofs" key, from a listing and a trie index, plain and blinded, with the
# ErrorResp of every code a well-formed JSON request can earn.
GOLDEN_PROOFLESS_SESSION = "63f07c037e659d7cfc300a9516f8f8801b2faee4349f1b6fd79dceba09793377"


def _proofless_session(seed: bytes) -> tuple[bytes, list[dict]]:
    """Request and reply lines of proof-less sessions, and the replies parsed.

    Over a listing and a trie index, each served plain (epoch 0) and blinded
    (epoch 3): a HelloAck, a miss, an exact hit, a fuzzy hit of several
    records, then MALFORMED (an upper-case trapdoor), EDIT_BOUND, a request
    one epoch ahead (STALE_EPOCH when blinded) and TOO_MANY_TRAPDOORS.
    """
    km = keygen(128, seed=seed)
    corpus = random_corpus(random.Random(17), size=30, lo=3, hi=6)
    corpus.update({"castle": [b"F1", b"F2", b"F3"], "cattle": [b"F4", b"F5"]})
    width = TRAPDOOR_BYTES
    too_many = [i.to_bytes(width, "big").hex() for i in range(MAX_TRAPDOORS + 1)]
    transcript, replies = b"", []
    for build in (build_listing_index, build_trie_index):
        index = build(corpus, 1, km)
        for state in (ServerState(index=index), ServerState(index=index, xi=km.blind_key, epoch=3)):

            def search(word: str, k: int = 1, epoch: int = state.epoch) -> dict:
                req = make_request(word, k, km)
                if state.xi is not None:
                    req = blind_request(req, state.xi)
                return search_msg(req, epoch=epoch)

            upper = search("castle")
            upper["trapdoors"][0] = upper["trapdoors"][0].upper()
            messages = [
                {"type": "Hello"},
                search("qqqqqqq"),
                search("castle"),
                search("catle"),
                upper,
                search("castle", k=2),
                search("castle", epoch=state.epoch + 1),
                {"type": "SearchReq", "epoch": state.epoch, "k": 1, "trapdoors": too_many},
            ]
            for msg in messages:
                line = encode_message(msg)
                reply = handle_line(state, line)
                transcript += line.encode() + reply.encode()
                replies.append(json.loads(reply))
    return transcript, replies


def _proof_line(rng: random.Random, km, words: list[str]) -> str:
    """A well-formed blinded proof request: real, mutated or random trapdoors, any k and epoch."""
    roll = rng.random()
    if roll < 0.6:
        word = rng.choice(words) if roll < 0.3 else mutate(rng.choice(words), rng) or "a"
        trapdoors = blind_request(make_request(word, 1, km), km.blind_key).trapdoors
    else:
        trapdoors = {rng.randbytes(TRAPDOOR_BYTES) for _ in range(rng.randint(1, 20))}
    trapdoors = [t.hex() for t in trapdoors]
    if rng.random() < 0.1:
        trapdoors = trapdoors + [trapdoors[0]]  # duplicate
    msg = {"type": "SearchReq", "epoch": rng.choice([1, 1, 1, 0, "1"]), "k": rng.choice([0, 1, 1, 2]),
           "trapdoors": trapdoors, "proof": rng.choice([True, True, True, False, 1])}
    return json.dumps(msg)


def test_criterion_13_protocol_robustness():
    rng = random.Random(13)
    km = keygen(128, seed=b"c13")
    corpus = random_corpus(rng, size=30, lo=3, hi=6)
    state = ServerState(index=build_trie_index(corpus, 1, km))
    # the blinded, verifiable path: unblinding, proofs and the tag lookups behind them
    auth_state = ServerState(index=build_auth_trie(corpus, 1, km), xi=km.blind_key, epoch=1)
    words = sorted(corpus)
    start = time.perf_counter()
    lines = [(state, garbage_line(rng)) for _ in range(100_000)]
    for _ in range(10_000):
        line = _proof_line(rng, km, words) if rng.random() < 0.5 else garbage_line(rng)
        lines.append((auth_state, line))
    proofs = 0
    for i, (target, line) in enumerate(lines):
        out = handle_line(target, line)
        parsed = json.loads(out)
        assert parsed["type"] in ("ErrorResp", "SearchResp", "HelloAck"), (i, line)
        assert parsed.get("code") != "INTERNAL", (i, line, parsed)
        assert "unhandled request error" not in parsed.get("message", ""), (i, line)
        if "proofs" in parsed:  # proof 0 alone for an exact answer, else one per trapdoor
            proofs += 1
            assert len(parsed["proofs"]) == (1 if parsed["exact"] else len(json.loads(line)["trapdoors"])), (i, line)
    assert proofs > 1000
    fuzz_elapsed = time.perf_counter() - start

    first = _scripted_session(b"golden")
    second = _scripted_session(b"golden")
    assert first == second
    assert first  # transcript is not empty
    assert hashlib.sha256(first).hexdigest() == GOLDEN_SCRIPTED_SESSION
    blinded = _blinded_session(b"golden-blind")
    assert hashlib.sha256(blinded).hexdigest() == GOLDEN_BLINDED_SESSION
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(13, f"1.1 x 10^5 fuzzed lines survived, {proofs} of them answered with proofs ({fuzz_elapsed:.1f} s); golden transcript byte-stable, blinded session digest pinned")


def test_proofless_session_is_pinned():
    """The replies without proofs, byte for byte: every SearchResp and ErrorResp
    shape the listing and trie servers send, plain and blinded."""
    transcript, replies = _proofless_session(b"golden-plain")
    shapes = [(r["type"], r.get("code"), len(r.get("records", ())), r.get("exact")) for r in replies]
    for i, blinded in enumerate((False, True, False, True)):  # listing plain and blinded, then trie
        assert shapes[8 * i : 8 * i + 8] == [
            ("HelloAck", None, 0, None),
            ("SearchResp", None, 0, False),
            ("SearchResp", None, 3, True),
            ("SearchResp", None, 7, False),
            ("ErrorResp", "MALFORMED", 0, None),
            ("ErrorResp", "EDIT_BOUND", 0, None),
            ("ErrorResp", "STALE_EPOCH", 0, None) if blinded else ("SearchResp", None, 3, True),
            ("ErrorResp", "TOO_MANY_TRAPDOORS", 0, None),
        ]
    assert replies[16] == {  # the plain trie server's HelloAck
        "type": "HelloAck", "protocol": 5, "epoch": 0, "kind": "trie", "method": "wildcard", "d": 1,
        "trapdoor_bits": 160, "symbol_bits": 4, "verifiable": False, "blinded": False, "max_trapdoors": 4096,
    }
    assert all("proofs" not in r for r in replies)
    assert hashlib.sha256(transcript).hexdigest() == GOLDEN_PROOFLESS_SESSION
