"""End-to-end benchmark of fzsearch: owner set-up, user queries, server capacity.

Usage (from the repository root)::

    python3 perfbench/run.py --workload listing_wildcard --seed 1 --seconds 8 --trace 0

One load-generator process builds and saves the index as the data owner,
spawns ``fzsearch serve --port 0`` as a child, plays one user against it
through the library's client path (user phase), then drives two
connections with pre-encoded request lines (capacity phase).  Every answer
is checked against an oracle computed from the generated corpus.

Set-up and the user phase run on one CPU; the capacity phase on all of them.
The bounded times and rates (``query_p50_ms``, ``server_qps``, ``setup_s``,
``build_s``, ``load_s``) are scaled to a reference host speed, measured by
slices of fixed work run during or right around each timed step (see
``harness.HostSpeed``); the figures as measured are printed beside them,
named ``*_wall*``.  ``build_s`` and ``load_s`` are CPU times: of the owner's
process for build and save, and of the server up to its "serving" line.

``--trace 0`` prints the end-to-end metrics that ``BENCHMARK.json`` lists;
``--trace 1`` records spans around each layer call, replays the request
lines in process and prints the per-layer metrics, including the tracing
overhead.  Report lines
(provenance, sample counts, every metric with its unit) come first; the
last line of standard output is the JSON result.  ``--smoke`` shrinks the
corpus and the set-up repetitions; ``perfbench/smoke.py`` uses it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

from spans import median, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

USER_SHARE = 0.55  # of --seconds; the capacity phase gets the rest
REPLAY_SHARE = 0.25  # of --seconds, for the traced run's in-process replay
# End-to-end figures printed on the report lines but not bounded in
# BENCHMARK.json: the two ratios read 0 on some workloads (result_precision,
# the complement of false_positive_ratio, is bounded instead; fail_ratio > 0
# already makes the result incorrect); p99 on a shared 2-vCPU host is set by
# host preemption and varies several-fold between runs of the same code; the
# unscaled times drift with the host's speed; the CPU shares show that
# server_qps measures the server.
REPORT_ONLY = {
    "query_p99_ms": "ms",
    "query_p50_wall_ms": "ms",
    "server_qps_wall": "1/s",
    "setup_wall_s": "s",
    "build_wall_s": "s",
    "load_wall_s": "s",
    "fail_ratio": "ratio",
    "false_positive_ratio": "ratio",
    "server_cpu_util": "s/s",
    "loadgen_cpu_util": "s/s",
}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="tiny corpus, one set-up")
    return p.parse_args(argv)


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"  # the benchmark may run from an exported tree
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fzsearch").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def provenance(args, w, corpus, pool, speed) -> dict:
    import cryptography
    from harness import REFERENCE_NOMINAL_MS

    return {
        "python": platform.python_version(),
        "cryptography": cryptography.__version__,
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "workload": w.name,
        "seed": args.seed,
        "keywords": len(corpus),
        "mean_keyword_len": round(sum(map(len, corpus)) / len(corpus), 3),
        "pool_queries": pool,
        "kind": w.kind,
        "method": w.method,
        "d": w.d,
        "k": w.k,
        "blinded": w.blinded,
        "proofs": w.proofs,
        "reference_slice_ms": {
            "nominal": REFERENCE_NOMINAL_MS,
            "median": median(speed.samples_ms),
            "min": min(speed.samples_ms),
            "max": max(speed.samples_ms),
            "samples": len(speed.samples_ms),
        },
    }


def _emit(provenance: dict, metrics: dict, result: dict) -> None:
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, (value, unit, note) in metrics.items():
        print(f"metric {name} {value!r} {unit}" + (f" ({note})" if note else ""))
    print(json.dumps(result, sort_keys=True))


def _result(spec: list[dict], values: dict, correct: bool, attempted: int, failed: int) -> dict:
    missing = [m["name"] for m in spec if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }


def run_untraced(args, w, inputs, workdir, spec, speed, cpus):
    """Each set-up is followed by a share of both phases against its server,
    so every metric samples the whole run rather than its last seconds."""
    from harness import capacity_phase, setup, user_phase

    corpus, queries, oracle = inputs
    reps = 1 if args.smoke else w.setup_reps
    sessions, caps, rss, user = [], [], [], None
    for rep in range(reps):
        sess = setup(w, corpus, queries, args.seed, workdir, rep, speed)
        sessions.append(sess)
        try:
            user = user_phase(w, sess, queries, oracle, args.seconds * USER_SHARE / reps,
                              speed, stats=user)
            caps.append(capacity_phase(sess, user.references,
                                       args.seconds * (1 - USER_SHARE) / reps, cpus, speed))
            rss.append(sess.server.peak_rss_mb())
        finally:
            sess.server.stop()
    window = sum(c.window_s for c in caps)
    server_cpu_util = sum(c.server_cpu_s for c in caps) / window
    loadgen_cpu_util = sum(c.loadgen_cpu_s for c in caps) / window
    lat = user.latencies_ms[0]
    p50, _ = percentile(user.scaled_ms[0], 50)
    p50_wall, _ = percentile(lat, 50)
    p99, beyond = percentile(lat, 99)
    attempted = user.attempted + sum(c.attempted for c in caps)
    failed = user.failed + sum(c.failed for c in caps)
    fp = user.far_keywords / user.returned_keywords if user.returned_keywords else 0.0
    values = {
        "query_p50_ms": p50,
        "query_p50_wall_ms": p50_wall,
        "query_p99_ms": p99,
        "server_qps": median(r / c.scale for c in caps for r in c.rates),
        "server_qps_wall": median(r for c in caps for r in c.rates),
        "setup_s": median(s.setup_s * s.setup_scale for s in sessions),
        "setup_wall_s": median(s.setup_s for s in sessions),
        "build_s": median(s.build_cpu_s * s.build_scale for s in sessions),
        "build_wall_s": median(s.build_s for s in sessions),
        "load_s": median(s.load_cpu_s * s.load_scale for s in sessions),
        "load_wall_s": median(s.load_s for s in sessions),
        "index_bytes_per_keyword": sess.index_bytes / len(corpus),
        "server_rss_mb": median(rss),
        "result_precision": 1.0 - fp,
        "fail_ratio": failed / attempted,
        "false_positive_ratio": fp,
        "server_cpu_util": server_cpu_util,
        "loadgen_cpu_util": loadgen_cpu_util,
    }
    notes = {
        "query_p50_ms": f"n={len(lat)}, at reference speed",
        "query_p99_ms": f"n={len(lat)}, {beyond} samples beyond",
        "server_qps": (f"median of {sum(len(c.rates) for c in caps)} sub-window rates "
                       f"at reference speed; "
                       f"{sum(c.completed for c in caps)} requests in {window:.3f} s "
                       f"on 2 connections"),
        "setup_s": f"median of {reps} set-ups, at reference speed",
        "server_rss_mb": f"median of {reps} servers",
        "build_s": f"median of {reps}, owner's CPU time at reference speed",
        "load_s": f"median of {reps}, server's CPU time to serving at reference speed",
        "build_wall_s": f"median of {reps}",
        "load_wall_s": f"median of {reps}",
        "setup_wall_s": f"median of {reps}",
        "fail_ratio": f"{failed}/{attempted}",
        "result_precision": f"{user.returned_keywords} returned keywords",
        "false_positive_ratio": f"{user.far_keywords}/{user.returned_keywords}",
        "server_cpu_util": "capacity phase",
        "loadgen_cpu_util": "capacity phase",
    }
    units = {m["name"]: m["unit"] for m in spec} | REPORT_ONLY
    metrics = {n: (values[n], units[n], notes.get(n, "")) for n in units}
    correct = failed == 0 and len(user.references) == len(queries) and window > 0
    return metrics, _result(spec, values, correct, attempted, failed)


def run_traced(args, w, inputs, workdir, spec, speed, cpus):
    import layers
    from harness import capacity_phase, setup, user_phase
    from spans import NullTracer, Tracer

    corpus, queries, oracle = inputs
    tracer = Tracer()
    sess = setup(w, corpus, queries, args.seed, workdir, 0, speed)
    try:
        user = user_phase(w, sess, queries, oracle, args.seconds * USER_SHARE, speed,
                          tracers=(NullTracer(), tracer))
        half = args.seconds * (1 - USER_SHARE) / 2
        plain = capacity_phase(sess, user.references, half, cpus, speed)
        traced = capacity_phase(sess, user.references, half, cpus, speed, tracer)
    finally:
        sess.server.stop()
    tracer.write(str(WORK / f"spans-{w.name}-seed{args.seed}.jsonl"))

    values = {}
    index, persist = layers.persist_layers(sess.index_path)
    values.update(persist)
    values.update(layers.structure_layers(index))
    replay, by_pool = layers.server_replay(w, index, sess.xi, sess.epoch, sess.lines,
                                           args.seconds * REPLAY_SHARE)
    values.update(replay)
    del index
    values.update(layers.build_layers(w, corpus, sess.km))
    values.update(layers.fuzzy_layers(w, sess.km, queries))

    queries_traced = len(tracer.durations_us("query"))
    roundtrip = tracer.by_request_us("service.search")
    values["index.make_request_us"] = median(tracer.durations_us("index.make_request"))
    values["crypto.decrypt_record_us"] = median(tracer.durations_us("crypto.decrypt_record"))
    values["crypto.records_per_query"] = (
        len(tracer.durations_us("crypto.decrypt_record")) / queries_traced
    )
    # Layers the workload's path bypasses read 0 (median of no spans); their
    # calls_per_query, also 0, marks the bypass.
    values["multiuser.blind_request_us"] = median(tracer.durations_us("multiuser.blind_request"))
    values["verifiable.decode_proof_us"] = median(tracer.durations_us("verifiable.decode_proof"))
    values["verifiable.verify_us"] = median(tracer.durations_us("verifiable.verify"))
    values["service.response_bytes"] = (
        sum(map(len, user.references.values())) / len(user.references)
    )
    values["service.client_roundtrip_us"] = median(roundtrip.values())
    values["service.wire_wait_us"] = median(
        us - by_pool[rid % len(queries)] for rid, us in roundtrip.items()
    )
    values["service.server_cpu_util"] = plain.server_cpu_s / plain.window_s
    values["bench.loadgen_cpu_util"] = plain.loadgen_cpu_s / plain.window_s
    values["bench.query_self_us"] = median(tracer.self_times_us("query"))
    values["bench.trace_overhead_query_p50_ms"] = (
        percentile(user.latencies_ms[1], 50)[0] - percentile(user.latencies_ms[0], 50)[0]
    )
    values["bench.trace_overhead_server_qps"] = median(traced.rates) - median(plain.rates)
    attempted = user.attempted + plain.attempted + traced.attempted
    failed = user.failed + plain.failed + traced.failed
    values["bench.fail_ratio"] = failed / attempted
    values["bench.false_positive_ratio"] = (
        user.far_keywords / user.returned_keywords if user.returned_keywords else 0.0
    )

    units = {m["name"]: m["unit"] for m in spec}
    notes = {
        "index.make_request_us": f"n={queries_traced} traced queries",
        "service.server_cpu_util": f"untraced capacity window {plain.window_s:.3f} s",
        "bench.trace_overhead_query_p50_ms": (
            f"traced n={len(user.latencies_ms[1])}, untraced n={len(user.latencies_ms[0])}"
        ),
        "bench.trace_overhead_server_qps": (
            f"traced {median(traced.rates):.1f}, untraced {median(plain.rates):.1f}"
        ),
    }
    metrics = {n: (values[n], units[n], notes.get(n, "")) for n in units if n in values}
    correct = failed == 0 and len(user.references) == len(queries)
    return metrics, _result(spec, values, correct, attempted, failed)


def main(argv=None) -> int:
    args = _parse_args(argv)
    # Turn SIGTERM into an exit so the cleanup blocks stop the server child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "fzsearch" / "__init__.py").is_file():
        print(f"error: no fzsearch sources under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))

    from fzsearch import edit_distance
    from harness import HostSpeed, pin_to_one_cpu
    from workloads import SMOKE_KEYWORDS, SMOKE_POOL, WORKLOADS, Oracle, make_corpus, make_queries

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    count = SMOKE_KEYWORDS if args.smoke else w.keywords
    pool = SMOKE_POOL if args.smoke else w.pool
    corpus = make_corpus(w, args.seed, count)
    queries = make_queries(w, args.seed, corpus, pool)
    inputs = (corpus, queries, Oracle(corpus, w.k, edit_distance))
    # The inputs and oracle live for the whole run; keep them out of the
    # collections that the owner's build and the user path trigger.
    gc.freeze()

    cpus = pin_to_one_cpu()  # server children inherit it
    speed = HostSpeed()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = run_traced if args.trace else run_untraced
        metrics, result = runner(args, w, inputs, str(workdir),
                                 spec["per_layer" if args.trace else "end_to_end"], speed, cpus)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"perfbench workload={w.name} seed={args.seed} trace={args.trace} seconds={args.seconds}")
    _emit(provenance(args, w, corpus, pool, speed), metrics, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
