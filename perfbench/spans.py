"""Span recorder for the traced run, and the statistics the report needs.

A span is (name, start ns, end ns, parent span id, request id).  Spans stay
in memory while the run measures and are written out once it ends.  A
span's self time is its duration minus the part its children cover.
"""

from __future__ import annotations

import json
import math
import time


class Tracer:
    """Records spans around the calls the benchmark makes into each layer."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self._stack: list[int] = []

    def begin(self, name: str, rid: int) -> int:
        """Open a root span for one request; later calls nest under it."""
        self.spans.append((name, time.perf_counter_ns(), 0, -1, rid))
        sid = len(self.spans) - 1
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        name, start, _, parent, rid = self.spans[sid]
        self.spans[sid] = (name, start, time.perf_counter_ns(), parent, rid)
        self._stack.pop()

    def call(self, name: str, rid: int, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        start = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        self.spans.append((name, start, time.perf_counter_ns(), parent, rid))
        return out

    def durations_us(self, name: str) -> list[float]:
        return [(e - s) / 1000.0 for n, s, e, _, _ in self.spans if n == name]

    def by_request_us(self, name: str) -> dict[int, float]:
        """Total time per request id spent in spans called ``name``."""
        out: dict[int, float] = {}
        for n, s, e, _, rid in self.spans:
            if n == name:
                out[rid] = out.get(rid, 0.0) + (e - s) / 1000.0
        return out

    def self_times_us(self, name: str) -> list[float]:
        """Duration minus the time covered by direct children (which never overlap)."""
        child = [0] * len(self.spans)
        for n, s, e, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += e - s
        return [
            (e - s - child[i]) / 1000.0
            for i, (n, s, e, _, _) in enumerate(self.spans)
            if n == name
        ]

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (n, s, e, parent, rid) in enumerate(self.spans):
                fh.write(
                    json.dumps({"id": i, "name": n, "start_ns": s, "end_ns": e,
                                "parent": parent, "rid": rid}) + "\n"
                )


class NullTracer:
    """Untraced path: calls straight through and records nothing."""

    def begin(self, name: str, rid: int) -> int:
        return -1

    def end(self, sid: int) -> None:
        pass

    @staticmethod
    def call(name, rid, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def median(values) -> float:
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2.0


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile and how many samples lie above it."""
    values = sorted(values)
    if not values:
        return 0.0, 0
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    return values[rank - 1], len(values) - rank
