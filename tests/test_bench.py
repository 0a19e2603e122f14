"""The benchmark harness must keep running against the package as it stands."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import opencil as oc
from conftest import model_records, record_values

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
    arrays = [r for r in model_records(path.read_bytes()) if r.startswith(b"array ")]
    # payload bytes that look like line breaks must not add or hide a record
    assert any(b"\n" in record_values(r).tobytes() for r in arrays)
    assert tracing.array_values(str(path)) == sum(record_values(r).size for r in arrays)
