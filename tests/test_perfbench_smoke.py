"""The benchmark's own smoke test, run as part of the unit suite.

The benchmark reaches into the index (``root``, ``children``, ``records``)
and the proof codec, so a change there can break it while every unit test
passes.  ``perfbench/smoke.py`` runs each workload briefly, traced and
untraced, and checks the results.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run_is_ok():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"], cwd=ROOT, capture_output=True, text=True, timeout=900
    )
    lines = proc.stdout.strip().splitlines()
    assert lines and lines[-1] == "smoke: ok", proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.returncode == 0
