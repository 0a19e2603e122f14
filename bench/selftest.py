"""Self-test of the benchmark harness on tiny inputs, in about half a minute.

    python3 bench/selftest.py          (or: python3 -m pytest bench/selftest.py)

It runs every workload end to end on shrunk inputs, untraced and traced,
and checks that the printed result parses and names exactly the metrics
in BENCHMARK.json. It then feeds the output checks deliberately wrong
answers (a perturbed score, a swapped class, a wrong task, a shifted
LCA, a one-ulp model change, a growing rejection curve, an overfull
buffer) and requires each to be caught.
"""

from __future__ import annotations

import contextlib
import copy
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import run
import worker

SEED = 1


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def benchmark_names(section: str) -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return sorted(m["name"] for m in spec[section])


def test_every_workload_runs_and_parses():
    for workload in worker.PROFILES:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            summary, _record = run.measure(workload, SEED, 0.0, trace, extra=["--tiny"])
            parsed = json.loads(json.dumps(summary))
            expect(set(parsed) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(parsed)}")
            expect(parsed["correct"] and parsed["failed"] == 0 and parsed["attempted"] > 0,
                   f"{workload} trace={trace}: {parsed['attempted']} attempted, "
                   f"{parsed['failed']} failed")
            expect(sorted(parsed["metrics"]) == benchmark_names(section),
                   f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
            for name, metric in parsed["metrics"].items():
                expect(math.isfinite(metric["value"]), f"{workload}: {name} is not finite")


def failures(profile, out, cli=False) -> list[str]:
    log = worker.CheckLog()
    worker.check_round(profile, out, log, cli)
    return log.errors


def test_checks_catch_wrong_answers():
    profile = worker.tiny(worker.PROFILES["replay-trunk"])
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".bench_work"))
    try:
        out = worker.LibraryRound(profile, SEED, work, worker.Clock(None)).run()
        expect(failures(profile, out) == [], f"clean outputs fail: {failures(profile, out)}")

        def caught(label, mutate, needle):
            bad = copy.copy(out)
            mutate(bad)
            errors = failures(profile, bad)
            expect(any(needle in e for e in errors), f"{label} not caught: {errors}")

        def score(o):
            task, cls, s = o.predictions[0]
            o.predictions = [(task, cls, s * (1 + 1e-6))] + o.predictions[1:]

        def klass(o):
            task, cls, s = o.predictions[0]
            other = (cls + 1) % profile.classes
            o.predictions = [(task, other, s)] + o.predictions[1:]

        def task(o):
            t, cls, s = o.predictions[0]
            o.predictions = [(1 - t, cls, s)] + o.predictions[1:]

        def lca(o):
            o.rows = [(d, sc, lca + 1e-9, auc) for d, sc, lca, auc in o.rows]

        def model(o):
            o.loaded = copy.deepcopy(o.loaded)
            w = o.loaded.heads[0].weights
            w[0, 0] = np.nextafter(w[0, 0], np.inf)

        def curve(o):
            o.curves = [c[:1] + [(0.05, c[0][1] + 1)] + c[1:] for c in o.curves]

        caught("perturbed score", score, "predict dice/enmd")
        caught("swapped class", klass, "predict dice/enmd")
        caught("wrong task", task, "predict dice/enmd")
        caught("shifted LCA", lca, "sweep row")
        caught("one-ulp model change", model, "model-roundtrip")
        caught("growing rejection curve", curve, "retained counts increase")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    overfull = [([0, 1], np.array([0] * 5 + [1] * 5))]
    expect(checks.buffers("buffer", overfull, 8) != [], "overfull buffer not caught")
    lopsided = [([0, 1], np.array([0] * 6 + [1] * 2))]
    expect(checks.buffers("buffer", lopsided, 8) != [], "unbalanced buffer not caught")


if __name__ == "__main__":
    for test in (test_every_workload_runs_and_parses, test_checks_catch_wrong_answers):
        test()
        print(f"ok {test.__name__}")
    sys.exit(0)
