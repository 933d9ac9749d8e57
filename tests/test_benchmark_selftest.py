"""The benchmark's own self-test, run as part of the test suite.

Claims covered:
  - perfbench/selftest.py exits 0: each workload's output check passes a
    correct op and fails every planted fault, the tracer's spans nest and
    every wrapped function is restored, and the speed probe disarms.  A
    change that breaks a span target or a workload's output check fails
    here, not first in a benchmark run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
