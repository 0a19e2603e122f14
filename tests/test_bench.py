"""The benchmark harness must keep running against the package as it stands."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import opencil as oc
from conftest import decode_row

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    # every workload end to end on tiny inputs, plus the output checks fed wrong answers
    result = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-3000:] + result.stderr[-3000:]


def test_bench_counts_every_value_of_a_model_file(small_model, tmp_path):
    # serialize.values reads every token after an array record's name as an integer dim
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    path = tmp_path / "model.txt"
    oc.save_model(small_model, str(path))
    records = ("opencil-model", "meta", "array", "crc32", "end")
    rows = [line for line in path.read_text().splitlines() if line.split()[0] not in records]
    assert tracing.array_values(str(path)) == sum(len(decode_row(row)) for row in rows)
