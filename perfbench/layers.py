"""Per-layer measurements for the traced run.

Client-side layers come from the spans the traced user phase records.
Server-side layers come from an in-process replay of the workload's own
request lines: ``service.handle_line`` on each line and, separately, the
functions ``handle_message`` dispatches to on the same request, so the
codec's share is what remains.  A layer the workload bypasses reads 0, and
so does its ``calls_per_query`` count.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

import fzsearch
from fzsearch import (
    ListingIndex,
    SearchRequest,
    fuzzy_set,
    search_listing,
    search_trie,
    search_with_proof,
    symbolize,
    trapdoor,
    unblind_request,
)
from fzsearch.index import walk_trie
from fzsearch.persist import dumps_index, loads_index
from fzsearch.service import ServerState, handle_line
from fzsearch.verifiable import encode_proof

from harness import build_index
from spans import median


def _timed(fn, *args):
    t0 = time.perf_counter_ns()
    out = fn(*args)
    return out, (time.perf_counter_ns() - t0) / 1000.0


@contextmanager
def _wrapped(module, name, wrapper):
    """Route every fzsearch module's reference to ``module.name`` through ``wrapper``."""
    original = getattr(module, name)
    replacement = wrapper(original)
    patched = [m for n, m in list(sys.modules.items())
               if n.startswith("fzsearch") and getattr(m, name, None) is original]
    for mod in patched:
        setattr(mod, name, replacement)
    try:
        yield
    finally:
        for mod in patched:
            setattr(mod, name, original)


def build_layers(w, corpus, km) -> dict:
    """One build with exact PRF and AEAD call counts and the entry-map share of its time.

    The counting wrappers add the same small cost per call to the whole build
    and to its ``build_entries`` part.
    """
    counts = {"prf_bytes": 0, "encrypt_record": 0}
    entries_ns = []

    def counter(name):
        def wrap(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        return wrap

    def timer(fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter_ns()
            out = fn(*args, **kwargs)
            entries_ns.append(time.perf_counter_ns() - t0)
            return out
        return timed

    with _wrapped(fzsearch.crypto, "prf_bytes", counter("prf_bytes")), \
            _wrapped(fzsearch.crypto, "encrypt_record", counter("encrypt_record")), \
            _wrapped(fzsearch.index, "build_entries", timer):
        _, build_us = _timed(build_index, w, corpus, km)
    entries_s = sum(entries_ns) / 1e9
    return {
        "crypto.build_prf_calls": counts["prf_bytes"],
        "crypto.build_encrypt_calls": counts["encrypt_record"],
        "index.build_s": build_us / 1e6,
        "index.build_entries_s": entries_s,
        "index.build_insert_s": build_us / 1e6 - entries_s,
    }


def persist_layers(index_path: str):
    """Dump and load timed in process; returns the loaded index for the replay."""
    with open(index_path, "rb") as fh:
        data = fh.read()
    index, load_us = _timed(loads_index, data)
    _, dump_us = _timed(dumps_index, index)
    return index, {
        "persist.dumps_index_s": dump_us / 1e6,
        "persist.loads_index_s": load_us / 1e6,
        "persist.index_bytes": len(data),
    }


def structure_layers(index) -> dict:
    if isinstance(index, ListingIndex):
        return {"index.entries": len(index.table), "index.trie_nodes": 0, "index.nodes_per_entry": 0.0}
    nodes = entries = 0
    stack = [index.root]
    while stack:
        node = stack.pop()
        nodes += 1
        entries += bool(node.records)
        stack.extend(node.children.values())
    return {"index.entries": entries, "index.trie_nodes": nodes,
            "index.nodes_per_entry": nodes / entries}


def fuzzy_layers(w, km, queries) -> dict:
    set_us, td_us, variants = [], [], 0
    for q in queries:
        fs, us = _timed(fuzzy_set, q, w.k, w.method)
        set_us.append(us)
        variants += len(fs)
        for v in fs:
            td_us.append(_timed(trapdoor, km, v)[1])
    return {
        "fuzzyset.fuzzy_set_us": median(set_us),
        "fuzzyset.variants_per_query": variants / len(queries),
        "crypto.trapdoor_us": median(td_us),
    }


def _encode_proofs(proofs):
    return [encode_proof(p) for p in proofs]


def _parse(line: bytes) -> SearchRequest:
    msg = json.loads(line)
    return SearchRequest(trapdoors=tuple(bytes.fromhex(t) for t in msg["trapdoors"]), k=msg["k"])


def _hits(index, req) -> tuple[int, int]:
    """(entries matched, trapdoors searched), stopping at an exact first hit."""
    matched = 0
    for i, t in enumerate(req.trapdoors):
        if isinstance(index, ListingIndex):
            found, exact = t in index.table, t in index.exact
        else:
            node = walk_trie(index.root, symbolize(t, index.symbol_bits))
            found = node is not None and bool(node.records)
            exact = found and node.exact
        matched += found
        if i == 0 and exact:
            return 1, 1
    return matched, len(req.trapdoors)


def server_replay(w, index, xi, epoch, lines, budget_s: float) -> dict:
    """Replay the request lines in process: whole handler, then its parts.

    Returns the layer medians and the median ``handle_line`` time per pool
    position.
    """
    state = ServerState(index=index, xi=xi, epoch=epoch)
    search = search_listing if isinstance(index, ListingIndex) else search_trie
    per_line: dict[int, list[float]] = {}
    unblind_us, search_us, prove_us, encode_us, codec_us = [], [], [], [], []
    proof_bytes = matched = searched = 0
    deadline = time.perf_counter() + budget_s
    passes = 0
    while passes == 0 or time.perf_counter() < deadline:
        for i, line in enumerate(lines):
            _, total = _timed(handle_line, state, line)
            per_line.setdefault(i, []).append(total)
            req = _parse(line)
            parts = 0.0
            if xi is not None:
                req, us = _timed(unblind_request, req, xi)
                unblind_us.append(us)
                parts += us
            if w.proofs:
                (_, proofs), us = _timed(search_with_proof, index, req)
                prove_us.append(us)
                encoded, enc = _timed(_encode_proofs, proofs)
                encode_us.append(enc)
                parts += us + enc
                if passes == 0:
                    proof_bytes += sum(map(len, encoded))
            else:
                _, us = _timed(search, index, req)
                search_us.append(us)
                parts += us
            codec_us.append(total - parts)
            if passes == 0:
                m, s = _hits(index, req)
                matched += m
                searched += s
        passes += 1
    out = {
        "service.handle_line_us": median([median(v) for v in per_line.values()]),
        "service.codec_us": median(codec_us),
        "service.request_bytes": sum(map(len, lines)) / len(lines),
        "index.trapdoor_hit_ratio": matched / searched,
        "index.search_calls_per_query": 0.0 if w.proofs else 1.0,
        "verifiable.calls_per_query": 1.0 if w.proofs else 0.0,
        "multiuser.calls_per_query": 1.0 if xi is not None else 0.0,
        # Bypassed layers have no samples, so their medians read 0.
        "index.search_us": median(search_us),
        "verifiable.search_with_proof_us": median(prove_us),
        "verifiable.encode_proof_us": median(encode_us),
        "verifiable.proof_bytes_per_query": proof_bytes / len(lines),
        "multiuser.unblind_request_us": median(unblind_us),
    }
    return out, {i: median(v) for i, v in per_line.items()}
