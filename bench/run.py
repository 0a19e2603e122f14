"""Benchmark command: one workload per call, each in its own process.

    python3 bench/run.py --workload scaled-10task --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; opencil is imported from its
``src`` directory. With ``--trace 0`` one untraced worker process runs
and the end-to-end metrics are printed. With ``--trace 1`` an untraced
and a traced worker run one after the other, each for half the time (only
the traced one checks outputs), and the per-layer metrics are printed
together with ``trace.overhead_s``, the traced minus the untraced median
round time. The last line of standard output is one JSON object; the
full record, with the machine facts and every raw sample, goes to
``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER_TIMEOUT_S = 170


def units() -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_worker(workload: str, seed: int, seconds: float, traced: bool, extra=()) -> dict:
    command = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", repr(seconds), *extra]
    if traced:
        command.append("--traced")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker {' '.join(command[2:])} exited {done.returncode}:\n"
                           f"{done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def samples(result: dict, phase: str) -> list[float]:
    return [t for r in result["rounds"] for t in r["times"].get(phase, [])]


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered), max(1, math.ceil(p * len(ordered) / 100))) - 1]


def middle_mean(values: list[float]) -> float:
    """Mean of the middle half of the samples: a host stall that hits a few
    of them does not move it. Fewer than four samples are all kept."""
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])


def end_to_end(result: dict) -> dict:
    """Set-up is the median of its repeats, other phase times the middle mean
    of their samples, predict latency the percentiles of every call in the
    run (see README, "Statistics")."""
    latencies = samples(result, "predict")
    values = {
        "setup_s": statistics.median(samples(result, "setup")),
        "train_s": middle_mean(samples(result, "train")),
        "save_s": middle_mean(samples(result, "save")),
        "load_s": middle_mean(samples(result, "load")),
        "sweep_s": middle_mean(samples(result, "sweep")),
        "curve_s": middle_mean(samples(result, "curve")),
        "predict_p50_ms": 1e3 * statistics.median(latencies),
        "predict_p95_ms": 1e3 * nearest_rank(latencies, 95),
        "model_mb": result["model_bytes"] / 1e6,
        "peak_rss_mb": result["peak_rss_bytes"] / 1e6,
        "lca_pct": result["lca_pct"],
        "auc_pct": result["auc_pct"],
    }
    unit = units()
    return {name: {"value": v, "unit": unit[name]} for name, v in values.items()}


def per_layer(traced: dict, plain: dict) -> dict:
    rounds = [r["layers"] for r in traced["rounds"]]
    values = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    for name in ("pipeline.score_table_s", "detectors.react_extra_s", "detectors.dice_extra_s",
                 "detectors.scale_extra_s", "scorers.md_extra_s"):
        values[name] = traced["probes"].get(name, 0.0)
    values["trace.overhead_s"] = (statistics.median(r["total_s"] for r in traced["rounds"])
                                  - statistics.median(r["total_s"] for r in plain["rounds"]))
    unit = units()
    return {name: {"value": v, "unit": unit[name]} for name, v in sorted(values.items())}


def measure(workload: str, seed: int, seconds: float, trace: bool, extra=()) -> tuple[dict, dict]:
    """(printed summary, full record) of one benchmark run."""
    if trace:
        # the untraced worker is only the overhead baseline; the traced one checks
        plain = run_worker(workload, seed, seconds / 2, False, [*extra, "--no-checks"])
        traced = run_worker(workload, seed, seconds / 2, True, extra)
        workers, metrics = [plain, traced], per_layer(traced, plain)
    else:
        plain = run_worker(workload, seed, seconds, False, extra)
        workers, metrics = [plain], end_to_end(plain)
    failed = sum(w["failed"] for w in workers)
    summary = {
        "correct": failed == 0,
        "attempted": sum(w["attempted"] for w in workers),
        "failed": failed,
        "metrics": metrics,
    }
    # too unsteady on a shared host to gate (see README), so recorded only
    p99_ms = 1e3 * nearest_rank(samples(plain, "predict"), 99)
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": plain["machine"], "summary": summary,
              "ungated": {"predict_p99_ms": p99_ms}, "workers": workers}
    return summary, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "opencil" / "__init__.py").is_file():
        print(f"error: no opencil source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        summary, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for error in (e for w in record["workers"] for e in w["errors"]):
        print(f"check failed: {error}", file=sys.stderr)
    print("machine: " + json.dumps(record["machine"]))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
