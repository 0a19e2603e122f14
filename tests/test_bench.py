"""The benchmark harness must keep running against the package as it stands."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    # every workload end to end on tiny inputs, plus the output checks fed wrong answers
    result = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]
