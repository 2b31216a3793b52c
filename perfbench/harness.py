"""The owner set-up, the server child process and the two measured phases.

Set-up: keygen, build and save the index (the owner), then spawn
``fzsearch serve --port 0`` and wait for its "serving" line (the server),
then pre-encode the capacity phase's request lines.

User phase: one connection, closed loop; each query runs the whole user
path and its answer is checked against the oracle outside the timed span.

Capacity phase: two connections (one per core of a 2-core host), closed loop,
sending the pre-encoded lines so that the load generator does almost no
work per request and the rate measures the server process.

Set-up and the user phase run on one CPU (``pin_to_one_cpu``): the server
child inherits it, so a query never waits for an idle CPU to be woken and
each timed step runs where its reference slices run.  Only the capacity
phase spreads over every CPU.

A shared host's speed can halve and recover within seconds, as other
tenants load the same cores and caches.  ``HostSpeed`` times a fixed slice
of pure-Python work on the same CPU while each step runs: from a timer
signal during set-up, between queries in the user phase, and on every CPU
just before and after each capacity phase.  The times and rates that
``BENCHMARK.json`` bounds are scaled to the speed at which that slice takes
``REFERENCE_NOMINAL_MS``; the figures as measured are reported beside them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import re
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from fzsearch import (
    FzError,
    KeyMaterial,
    UserDirectory,
    blind_request,
    build_auth_trie,
    build_listing_index,
    build_trie_index,
    decrypt_record,
    keygen,
    load_directory,
    make_request,
    save_directory,
    save_index,
    save_keys,
    verify,
)
from fzsearch.service import SearchClient, encode_message, result_from_response
from fzsearch.verifiable import decode_proof

from spans import NullTracer, median
from workloads import Workload

ROOT = Path(__file__).resolve().parent.parent
BUILDERS = {"listing": build_listing_index, "trie": build_trie_index, "auth": build_auth_trie}
CAPACITY_CONNECTIONS = 2
CAPACITY_WARMUP_S = 0.1
SUBWINDOW_S = 0.1  # server_qps is the median rate over sub-windows this long
SERVE_TIMEOUT_S = 150.0
_SERVING = re.compile(r"^serving .* on ([0-9.]+):(\d+) ")
_TRACE_BLOCK = 64  # traced runs alternate tracer on/off in blocks of this many queries
_WARMUP_QUERIES = 32  # per connection, untimed: first touches of a fresh server


# CPU time of one reference slice on the host that scaled times are quoted for.
REFERENCE_NOMINAL_MS = 2.5
# The program's steps slow down less than the reference slice when the host
# slows: on a shared 2-vCPU host, the log of their times moved 0.5 to 1.0 times
# as far as the log of the slice's.  Scaling uses the slice's speed to this power.
SPEED_ELASTICITY = 0.8
_SPEED_EVERY = 128  # user-phase queries between two reference slices
_TICK_S = 0.05  # during set-up, one reference slice per this much wall time
_MIN_SLICES = 5  # a set-up step with fewer slices is scaled by the whole set-up's


def _reference_work() -> int:
    """A fixed slice of the kinds of work fzsearch does: strings, dicts, hashing, JSON."""
    table, acc = {}, 0
    for i in range(750):
        word = "w%06d" % i
        table[word[1:]] = hashlib.sha256(word.encode()).hexdigest()
        acc += len(json.dumps([word, i]))
    return acc + len(table)


class HostSpeed:
    """Times of a fixed slice of work, taken while or between the measured steps of a run."""

    def __init__(self):
        self.samples_ms: list[float] = []
        # (perf_counter at its end, wall s, CPU s) of each slice the timer ran
        self._ticks: list[tuple[float, float, float]] = []

    def sample(self, slices: int = 1) -> list[float]:
        """CPU time of each of ``slices`` reference slices, in ms; all are kept."""
        out = []
        for _ in range(slices):
            t0 = time.thread_time()
            _reference_work()
            out.append((time.thread_time() - t0) * 1000.0)
        self.samples_ms += out
        return out

    def _tick(self, signum, frame) -> None:
        w0, c0 = time.perf_counter(), time.thread_time()
        _reference_work()
        w1, c1 = time.perf_counter(), time.thread_time()
        self.samples_ms.append((c1 - c0) * 1000.0)
        self._ticks.append((w1, w1 - w0, c1 - c0))

    @contextmanager
    def ticking(self):
        """Runs a reference slice every ``_TICK_S`` from SIGALRM while the block runs.

        The slices run on the block's thread and CPU, so a server child
        pinned to that CPU waits while one runs; ``window`` says how long.
        """
        self._ticks = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, _TICK_S, _TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def window(self, start: float, end: float) -> tuple[float, float, list[float]]:
        """Wall s, CPU s and slice times (ms) of the timer's slices between two
        ``perf_counter`` readings of the ticking block."""
        ticks = [t for t in self._ticks if start <= t[0] <= end]
        return sum(t[1] for t in ticks), sum(t[2] for t in ticks), [t[2] * 1000.0 for t in ticks]


def speed_scale(samples_ms: list[float]) -> float:
    """Turns a time measured while the reference slice took ``samples_ms`` into
    the time on a host where it takes ``REFERENCE_NOMINAL_MS``."""
    return (REFERENCE_NOMINAL_MS / median(samples_ms)) ** SPEED_ELASTICITY


def pin_to_one_cpu() -> set[int]:
    """Pins the calling thread to its lowest allowed CPU; returns the previous set."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


def build_index(w: Workload, corpus, km):
    return BUILDERS[w.kind](corpus, w.d, km, w.method)


def process_cpu_s(pid: int) -> float:
    """CPU time of process ``pid`` (all its threads), in seconds at ns resolution.

    Unlike wall time, this leaves out the time the process waited for a CPU,
    for instance while a reference slice ran on it.
    """
    return time.clock_gettime((~pid << 3) | 2)  # the kernel's per-process CPU clock id


def _proc_stat_cpu_s(pid) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        data = fh.read()
    fields = data[data.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class ServerProcess:
    """``fzsearch serve`` as a child process, stopped and reaped by ``stop``."""

    def __init__(self, index_path: str, workdir: str, blinded_args: list[str]):
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        args = [sys.executable, "-u", "-m", "fzsearch.cli", "serve",
                "--index", index_path, "--port", "0", *blinded_args]
        self._log = open(os.path.join(workdir, "server.log"), "ab")
        self.proc = subprocess.Popen(
            args, cwd=str(ROOT), env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log,
        )
        self.port = self._await_serving()

    def _await_serving(self) -> int:
        deadline = time.monotonic() + SERVE_TIMEOUT_S
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                self.stop()
                raise RuntimeError("server did not report serving in time")
            ready, _, _ = select.select([self.proc.stdout], [], [], left)
            if not ready:
                continue
            line = self.proc.stdout.readline().decode("utf-8", "replace")
            if not line:
                code = self.proc.wait()
                self.stop()
                raise RuntimeError(f"server exited with code {code} before serving")
            match = _SERVING.match(line)
            if match:
                self.load_cpu_s = process_cpu_s(self.proc.pid)
                return int(match.group(2))

    def cpu_s(self) -> float:
        return _proc_stat_cpu_s(self.proc.pid)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class _RequestCapture(SearchClient):
    """Returns the message ``SearchClient.search`` would send, without a socket."""

    def __init__(self):
        pass

    def roundtrip(self, msg: dict) -> dict:
        return msg


@dataclass
class Session:
    """What one owner set-up leaves running for the measured phases."""

    km: KeyMaterial
    xi: bytes | None  # the user's unwrapped blind key; None when not blinded
    epoch: int
    server: ServerProcess
    requests: list[tuple[bytes, ...]]  # per pool query: the trapdoors sent on the wire
    lines: list[bytes]  # per pool query: the encoded SearchReq line
    index_path: str
    index_bytes: int
    build_s: float  # build_* plus save_index, wall time (reference slices taken out)
    build_cpu_s: float  # the same, CPU time of the owner's process
    load_s: float  # spawn to the "serving" line, wall time
    load_cpu_s: float  # the server's CPU time up to that line
    setup_s: float
    # speed_scale of the reference slices during the build, the load and the set-up
    build_scale: float
    load_scale: float
    setup_scale: float


def setup(w: Workload, corpus, queries, seed: int, workdir: str, rep: int,
          speed: HostSpeed) -> Session:
    """Owner build and save, server spawn, request pre-encoding; all timed.

    Reference slices run all through it; their own time is taken out of
    every time measured here.
    """
    index_path = os.path.join(workdir, f"index-{rep}.fzix")
    edges = speed.sample(2)
    server = None
    try:
        with speed.ticking():
            t0 = time.perf_counter()
            km = keygen(128, seed=b"perfbench-keys-%d" % seed)
            tb, cb = time.perf_counter(), time.process_time()
            index = build_index(w, corpus, km)
            save_index(index, index_path)
            te, ce = time.perf_counter(), time.process_time()
            del index
            xi, epoch, blinded_args = None, w.epoch, []
            if w.blinded:
                xi, epoch, keys_path = _enroll_and_revoke(km, seed, workdir)
                blinded_args = ["--blinded", "--keys", keys_path, "--epoch", str(epoch)]
            tl = time.perf_counter()
            server = ServerProcess(index_path, workdir, blinded_args)
            ts = time.perf_counter()
            capture = _RequestCapture()
            requests, lines = [], []
            for q in queries:
                req = make_request(q, w.k, km, w.method)
                wire = blind_request(req, xi) if xi is not None else req
                requests.append(wire.trapdoors)
                lines.append(encode_message(capture.search(wire, epoch, w.proofs)).encode("utf-8"))
            t1 = time.perf_counter()
    except BaseException:
        if server is not None:
            server.stop()
        raise
    whole, build, load = speed.window(t0, t1), speed.window(tb, te), speed.window(tl, ts)
    fallback = whole[2] + edges + speed.sample(2)

    def scale(window) -> float:
        return speed_scale(window[2] if len(window[2]) >= _MIN_SLICES else fallback)

    return Session(km, xi, epoch, server, requests, lines, index_path,
                   os.path.getsize(index_path),
                   build_s=te - tb - build[0], build_cpu_s=ce - cb - build[1],
                   load_s=ts - tl - load[0], load_cpu_s=server.load_cpu_s,
                   setup_s=t1 - t0 - whole[0], build_scale=scale(build),
                   load_scale=scale(load), setup_scale=scale(whole))


def _enroll_and_revoke(km, seed: int, workdir: str):
    """Enroll alice and eve, revoke eve; alice unwraps the epoch-1 blind key."""
    rng = random.Random(f"perfbench/users/{seed}")
    alice, eve = rng.randbytes(32), rng.randbytes(32)
    directory = UserDirectory(current_xi=km.blind_key)
    directory.enroll("alice", alice).enroll("eve", eve).revoke("eve")
    keys_path = os.path.join(workdir, "owner.fzky")
    dir_path = os.path.join(workdir, "users.fzud")
    save_keys(dataclasses.replace(km, blind_key=directory.current_xi), keys_path)
    save_directory(directory, dir_path)
    xi = load_directory(dir_path).unwrap("alice", alice)
    return xi, directory.epoch, keys_path


@dataclass
class UserStats:
    latencies_ms: list[list[float]]  # one list per tracer slot
    scaled_ms: list[list[float]]  # the same, each scaled by its call's speed_scale
    attempted: int = 0
    failed: int = 0
    returned_keywords: int = 0  # over the first pass of the pool
    far_keywords: int = 0
    references: dict[int, bytes] = field(default_factory=dict)
    cursor: int = 0  # pool position where the next call starts


def _decode_proofs(hexes, depth):
    return [decode_proof(bytes.fromhex(p), depth) for p in hexes]


def user_phase(w: Workload, sess: Session, queries, oracle, seconds: float,
               speed: HostSpeed, tracers=(NullTracer(),),
               stats: UserStats | None = None) -> UserStats:
    """One user, closed loop, cycling through the pool for ``seconds``.

    Adds to ``stats`` when given one, continuing through the pool where the
    last call stopped.  Runs until every pool query has a reference response
    (capped at three times the budget).  Reference slices run before, every
    ``_SPEED_EVERY`` queries and after, outside the timed spans; this call's
    latencies are scaled by the speed_scale of all of them.
    """
    km, xi, epoch, depth = sess.km, sess.xi, sess.epoch, sess.km.depth
    if stats is None:
        stats = UserStats(latencies_ms=[[] for _ in tracers], scaled_ms=[[] for _ in tracers])
    pool = len(queries)
    refs = speed.sample(2)
    raw: list[list[float]] = [[] for _ in tracers]
    client = SearchClient("127.0.0.1", sess.server.port)
    try:
        ack = client.hello()
        if ack.get("type") != "HelloAck" or ack.get("blinded") != w.blinded:
            raise RuntimeError(f"unexpected HelloAck {ack}")
        n = -_WARMUP_QUERIES
        start = time.perf_counter()
        deadline, hard = start + seconds, start + 3 * seconds
        while True:
            now = time.perf_counter()
            if now >= hard or (now >= deadline and len(stats.references) >= pool):
                break
            i = (stats.cursor + n) % pool
            slot = (max(n, 0) // _TRACE_BLOCK) % len(tracers)
            tr = tracers[slot]
            q = queries[i]
            ok = True
            t0 = time.perf_counter_ns()
            root = tr.begin("query", n)
            try:
                req = tr.call("index.make_request", n, make_request, q, w.k, km, w.method)
                wire = tr.call("multiuser.blind_request", n, blind_request, req, xi) if xi else req
                resp = tr.call("service.search", n, client.search, wire, epoch, w.proofs)
                if resp.get("type") != "SearchResp":
                    raise FzError(f"server answered {resp.get('code')}")
                result = tr.call("service.result_from_response", n, result_from_response, resp)
                if w.proofs:
                    proofs = tr.call("verifiable.decode_proof", n, _decode_proofs,
                                     resp["proofs"], depth)
                    verdict = tr.call("verifiable.verify", n, verify, req, result, proofs, km)
                    if not verdict.accepted:
                        raise FzError(f"verify rejected: {verdict.reason.value}")
                got = {tr.call("crypto.decrypt_record", n, decrypt_record, km, rec)
                       for rec in result.records}
            except (OSError, ValueError, KeyError, FzError):
                ok = False
                resp, got = None, set()
            t1 = time.perf_counter_ns()
            tr.end(root)
            if ok:
                correct, returned, far = oracle.check(q, w.method, got)
                ok = correct and wire.trapdoors == sess.requests[i]
                if ok and i not in stats.references:
                    stats.references[i] = encode_message(resp).encode("utf-8")
                    stats.returned_keywords += returned
                    stats.far_keywords += far
            if n >= 0:
                stats.attempted += 1
                stats.failed += not ok
                raw[slot].append((t1 - t0) / 1e6)
            if resp is None and not ok:
                break  # connection or protocol broken: stop rather than spin
            n += 1
            if n % _SPEED_EVERY == 0:
                refs += speed.sample()
        stats.cursor = (stats.cursor + n) % pool
    finally:
        client.close()
    scale = speed_scale(refs + speed.sample(2))
    for slot, times in enumerate(raw):
        stats.latencies_ms[slot] += times
        stats.scaled_ms[slot] += [ms * scale for ms in times]
    return stats


@dataclass
class CapacityStats:
    rates: list[float]  # completed requests per second in each sub-window
    completed: int
    window_s: float
    attempted: int
    failed: int
    server_cpu_s: float
    loadgen_cpu_s: float
    scale: float = 1.0  # speed_scale of reference slices on every CPU just before and after


def _exchange(sock, rfile, line: bytes) -> bytes:
    sock.sendall(line)
    return rfile.readline()


def capacity_phase(sess: Session, references: dict[int, bytes], seconds: float,
                   cpus: set[int], speed: HostSpeed, tracer=NullTracer()) -> CapacityStats:
    """Closed loop on two connections replaying pre-encoded request lines, on ``cpus``.

    Every response must be byte-identical to the user phase's response to
    the same query (responses do not depend on the blind key).
    """
    # Widen this thread (the workers inherit it) and the server's accepting
    # thread (its new handler threads inherit it) to every allowed CPU.
    pinned = os.sched_getaffinity(0)
    try:
        refs = _sample_each_cpu(speed, cpus)
        os.sched_setaffinity(0, cpus)
        os.sched_setaffinity(sess.server.proc.pid, cpus)
        stats = _capacity(sess, references, seconds, tracer)
        refs += _sample_each_cpu(speed, cpus)
    finally:
        os.sched_setaffinity(0, pinned)
    return dataclasses.replace(stats, scale=speed_scale(refs))


def _sample_each_cpu(speed: HostSpeed, cpus: set[int]) -> list[float]:
    """Two reference slices on each CPU in turn; moves the calling thread."""
    out = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        out += speed.sample(2)
    return out


def _capacity(sess: Session, references: dict[int, bytes], seconds: float,
              tracer) -> CapacityStats:
    order = sorted(references)
    counts = [0] * CAPACITY_CONNECTIONS
    bad = [0] * CAPACITY_CONNECTIONS
    stop = threading.Event()
    errors: list[BaseException] = []

    def worker(tid: int) -> None:
        try:
            with socket.create_connection(("127.0.0.1", sess.server.port), timeout=30) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                rfile = sock.makefile("rb")
                j = tid * len(order) // CAPACITY_CONNECTIONS
                rid = tid << 40
                while not stop.is_set():
                    i = order[j % len(order)]
                    resp = tracer.call("capacity.request", rid, _exchange, sock, rfile, sess.lines[i])
                    if resp != references[i]:
                        bad[tid] += 1
                    counts[tid] += 1
                    j += 1
                    rid += 1
                rfile.close()
        except OSError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(CAPACITY_CONNECTIONS)]
    for t in threads:
        t.start()
    try:
        time.sleep(CAPACITY_WARMUP_S)  # connections open, caches warm
        c0, s0, l0, t0 = sum(counts), sess.server.cpu_s(), _proc_stat_cpu_s("self"), time.perf_counter()
        marks = [(t0, c0)]
        while marks[-1][0] < t0 + seconds:
            time.sleep(min(SUBWINDOW_S, t0 + seconds - marks[-1][0]))
            marks.append((time.perf_counter(), sum(counts)))
        c1, s1, l1, t1 = sum(counts), sess.server.cpu_s(), _proc_stat_cpu_s("self"), time.perf_counter()
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=60)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("capacity worker did not stop")
    return CapacityStats(
        rates=[(cb - ca) / (tb - ta) for (ta, ca), (tb, cb) in zip(marks, marks[1:]) if tb > ta],
        completed=c1 - c0,
        window_s=t1 - t0,
        attempted=sum(counts),
        failed=sum(bad) + len(errors),
        server_cpu_s=s1 - s0,
        loadgen_cpu_s=l1 - l0,
    )
