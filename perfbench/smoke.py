"""Smoke test of the benchmark itself: tiny corpus, very short phases.

Run from the repository root::

    python3 perfbench/smoke.py

For every workload, untraced and traced, it checks that the run exits 0,
that the last line is the JSON result with exactly the metrics and units
``BENCHMARK.json`` lists, that every end-to-end figure the report names is
printed with its unit, and that nothing failed.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Every end-to-end figure of the report, with its unit.  fail_ratio and
# false_positive_ratio can read 0, so BENCHMARK.json does not bound them.
REPORTED = {
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "server_qps": "1/s",
    "fail_ratio": "ratio",
    "setup_s": "s",
    "build_s": "s",
    "load_s": "s",
    "index_bytes_per_keyword": "B",
    "server_rss_mb": "MB",
    "false_positive_ratio": "ratio",
}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)


def _report(stdout: str) -> dict[str, tuple[float, str]]:
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ", 4)[:4]
            out[name] = (float(value), unit)
    return out


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    where = f"{workload} trace={trace}"
    proc = _run(workload, trace)
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    problems = []
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(want.items()))}")
    report = _report(proc.stdout)
    expected = dict(want)
    if not trace:
        expected.update(REPORTED)
    for name, unit in expected.items():
        if report.get(name, (None, None))[1] != unit:
            problems.append(f"{where}: report line for {name} [{unit}] missing")
    fail_ratio = report.get("bench.fail_ratio" if trace else "fail_ratio", (None,))[0]
    if fail_ratio != 0:
        problems.append(f"{where}: fail_ratio is {fail_ratio}")
    if "provenance " not in proc.stdout:
        problems.append(f"{where}: no provenance line")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_workload(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    for p in problems:
        print(p)
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
