"""One workload in one process: warm up, time whole rounds, check outputs.

run.py starts this script once per workload (twice with --trace 1: one
untraced process and one traced one) and reads the JSON object it prints
as its last line. A round runs the profile's schedule: every end-to-end
phase, repeated and spread over the round, with its predict calls sliced
between them; rounds repeat while the next one is likely to end within
--seconds, and always at least one runs. Checks run on the first round's
outputs, outside every timed section; later rounds are checked for
identical results.

    python3 bench/worker.py --workload replay-trunk --seed 1 --seconds 10 [--traced]
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import filecmp
import gc
import glob
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import opencil as oc  # noqa: E402
import opencil.cli  # noqa: E402

import checks  # noqa: E402
from reference import DETECTORS, SCORERS, Reference  # noqa: E402
from tracing import Tracer, array_values  # noqa: E402

PREDICT_PAIR = ("dice", "enmd")
CURVE_PAIR = ("base", "enmd")
TABLE_PAIR = ("dice", "enmd")
PROBE_PAIRS = (("base", "en"), ("react", "en"), ("dice", "en"), ("scale", "en"), ("base", "enmd"))
PROBE_REPEATS = 3
PROBE_SECONDS = 0.3


# Every phase is repeated and spread over the round, and the round's predict
# calls are sliced between them, so that each metric's samples come from the
# whole run rather than from one stretch of it.
CYCLE = " predict sweep predict save predict curve predict load"
LIBRARY_SCHEDULE = "setup train save load" + 4 * CYCLE + " predict setup setup"
CLI_SCHEDULE = "setup train load" + 4 * CYCLE + " predict setup setup"
# one round of the scaled profile takes most of a minute: train twice, save
# twice, load three times, one sweep and one curve (a fourth load would
# push a traced run, two rounds, too close to its three-minute limit)
SCALED_SCHEDULE = ("setup train save load predict sweep predict save predict load predict"
                   " curve predict train predict load setup setup")


@dataclass(frozen=True)
class Profile:
    """Inputs of one workload; sizes are fixed, values come from the seed."""

    driver: str  # "library" or "cli"
    classes: int
    dim: int
    per_class: int
    tasks: int
    epochs: int
    learning_rate: float
    hidden: int
    separation: float = 6.0
    test_fraction: float = 0.2
    trunk_dim: int | None = None
    replay: bool = False
    buffer: int = 200
    backupdate: bool = False
    predict_calls: int = 1000
    check_samples: int = 32
    schedule: str = LIBRARY_SCHEDULE  # the ops of one round, in order (see Round)
    full_warm_up: bool = True  # warm up at full size (every op once), not on tiny inputs
    # With two threads a matrix product waits for both vCPUs, so load on the
    # second one from elsewhere on the host slows the small workloads' short
    # products up to 3x (see README, "Statistics"). scaled-10task keeps two:
    # its products are long, its spread stayed within 0.15 with two, and one
    # thread adds 7 s to a round that already takes most of a minute.
    blas_threads: int = 1


PROFILES = {
    # the ROADMAP's scaled profile: inference, the model file and the HAT
    # gate stack dominate; training is a small share
    "scaled-10task": Profile("library", classes=100, dim=256, per_class=50, tasks=10,
                             epochs=10, learning_rate=0.01, hidden=512, check_samples=16,
                             schedule=SCALED_SCHEDULE, full_warm_up=False, blas_threads=2),
    # the README's commands: SGD training and CSV parsing dominate
    "readme-5task-cli": Profile("cli", classes=10, dim=32, per_class=200, tasks=5,
                                epochs=150, learning_rate=0.01, hidden=128, check_samples=64,
                                schedule=CLI_SCHEDULE),
    # replay baseline: buffer, back-update and a frozen random trunk projection
    "replay-trunk": Profile("library", classes=20, dim=64, per_class=250, tasks=5,
                            epochs=40, learning_rate=0.01, hidden=128, trunk_dim=48,
                            replay=True, buffer=200, backupdate=True),
}


def tiny(p: Profile) -> Profile:
    """The same workload shrunk to well under a second, for warm-up and self-test."""
    return replace(p, classes=4, dim=8, per_class=20, tasks=2, epochs=60, hidden=16,
                   separation=10.0, trunk_dim=6 if p.trunk_dim else None, buffer=8,
                   predict_calls=8, check_samples=4)


class Clock:
    """Times the phases of one round and tells the tracer which one runs."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.times: dict[str, list[float]] = {}
        self.ops = 0

    @contextlib.contextmanager
    def phase(self, name: str):
        gc.collect()
        if self.tracer is not None:
            self.tracer.phase = name
        start = time.perf_counter()
        yield
        self.times.setdefault(name, []).append(time.perf_counter() - start)
        self.ops += 1

    def predict(self, model, inputs, outputs: list) -> None:
        """Closed loop, one caller, one sample per call; each call timed."""
        gc.collect()
        if self.tracer is not None:
            self.tracer.phase = "predict"
        latencies = self.times.setdefault("predict", [])
        for x in inputs:
            start = time.perf_counter()
            p = oc.predict(model, *PREDICT_PAIR, x)
            latencies.append(time.perf_counter() - start)
            outputs.append((p.predicted_task, p.predicted_class, p.ind_score))
        self.ops += len(inputs)


@dataclass
class Outputs:
    """What one round produced, kept for the checks."""

    stream: object
    hp: object
    model: object  # the trained model (library driver) or None
    loaded: object
    model_path: str
    resaved_path: str
    rows: list  # (detector, scorer, lca, auc) with lca and auc as fractions or percents
    curves: list  # per step: [(rejection_rate, retained), ...]
    inputs: np.ndarray
    predictions: list
    trained: list  # every model the round's train ops gave (library driver)

    def fingerprint(self):
        return self.rows, self.curves, self.predictions


def row_means(rows, cli: bool) -> tuple[float, float]:
    """Mean LCA and AUC over the sweep rows, in percent (the CLI's already are)."""
    scale = 1.0 if cli else 100.0
    return (scale * float(np.mean([r[2] for r in rows])),
            scale * float(np.mean([r[3] for r in rows])))


def hyperparams(p: Profile, seed: int):
    return oc.Hyperparams(epochs=p.epochs, learning_rate=p.learning_rate,
                          hidden_width=p.hidden, seed=seed + 1)


def predict_inputs(p: Profile, test_features: np.ndarray, seed: int) -> np.ndarray:
    """predict_calls test samples: whole seeded permutations, so the first
    min(calls, n_test) inputs are distinct."""
    rng = np.random.default_rng([seed, 7])
    n = len(test_features)
    order = np.concatenate([rng.permutation(n) for _ in range(-(-p.predict_calls // n))])
    return test_features[order[:p.predict_calls]]


class Round:
    """Runs one round's schedule, op by op, and keeps what it produced.

    The first ``train`` gives the round's model (library driver) or writes
    the model file (CLI driver); the first ``save`` of the library driver
    writes the trained model to that file, and every later save writes the
    loaded model to the re-save file. The first ``load`` reads the model
    file; later loads read the re-save file once there is one. Each
    ``predict`` runs the next slice of the round's predict calls.
    """

    def __init__(self, p: Profile, seed: int, work: Path, clock: Clock):
        self.p, self.seed, self.clock = p, seed, clock
        self.hp = hyperparams(p, seed)
        self.model_path, self.resaved_path = str(work / "model.txt"), str(work / "resaved.txt")
        self.model = self.loaded = self.stream = self.inputs = self.slices = None
        self.trained, self.predictions = [], []
        self.saved = self.resaved = False
        self.rows = self.curves = None

    def run(self) -> Outputs:
        for op in self.p.schedule.split():
            if op == "predict":
                self.clock.predict(self.loaded, next(self.slices), self.predictions)
            else:
                getattr(self, op)()
        return Outputs(self.stream, self.hp, self.model, self.loaded, self.model_path,
                       self.resaved_path, self.rows, self.curves, self.inputs,
                       self.predictions, self.trained)

    def prepare_inputs(self, test_features: np.ndarray) -> None:
        if self.inputs is None:
            self.inputs = predict_inputs(self.p, test_features, self.seed)
            slices = self.p.schedule.split().count("predict")
            self.slices = iter(np.array_split(self.inputs, slices))

    def load(self) -> None:
        path = self.resaved_path if self.resaved else self.model_path
        with self.clock.phase("load"):
            loaded = oc.load_model(path)
        if self.loaded is None:
            self.loaded = loaded

    def save_loaded(self) -> None:
        with self.clock.phase("save"):
            oc.save_model(self.loaded, self.resaved_path)
        self.resaved = True


class LibraryRound(Round):
    def setup(self) -> None:
        p = self.p
        with self.clock.phase("setup"):
            spec = oc.SynthSpec(num_classes=p.classes, dim=p.dim, per_class=p.per_class,
                                mean_separation=p.separation, seed=self.seed)
            train, test = oc.holdout(oc.synth_gaussian(spec), p.test_fraction, self.seed)
            stream = oc.split_tasks(train, test, p.tasks)
        if self.stream is None:
            self.stream = stream
            self.prepare_inputs(test.features)

    def train(self) -> None:
        p = self.p
        with self.clock.phase("train"):
            model = oc.train_stream(oc.new_model(p.dim, self.hp, trunk_dim=p.trunk_dim),
                                    self.stream, self.hp, replay=p.replay,
                                    backupdate=p.backupdate, buffer_capacity=p.buffer)
        self.trained.append(model)
        if self.model is None:
            self.model = model

    def save(self) -> None:
        if self.saved:
            self.save_loaded()
            return
        with self.clock.phase("save"):
            oc.save_model(self.model, self.model_path)
        self.saved = True

    def sweep(self) -> None:
        with self.clock.phase("sweep"):
            report = oc.run_sweep(self.loaded, self.stream, DETECTORS, SCORERS)
        self.rows = [(r.detector, r.scorer, r.lca, r.auc) for r in report.rows]

    def curve(self) -> None:
        with self.clock.phase("curve"):
            curves = [oc.rejection_curve(*oc.mixed_scores(self.loaded, self.stream, k, *CURVE_PAIR))
                      for k in range(1, self.p.tasks + 1)]
        self.curves = [[(pt.rejection_rate, pt.retained_count) for pt in c] for c in curves]


def run_cli(argv: list[str]) -> None:
    """opencil.cli.main in this process, its printing kept off our stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = oc.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"opencil {argv[0]} exited {code}: {err.getvalue().strip()}")


def read_csv(path: Path):
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return oc.Dataset(table[:, 1:], table[:, 0].astype(np.int64))


class CliRound(Round):
    """The README's commands through opencil.cli.main; ``save`` and ``load``
    have no command and go through the library, as in the library driver."""

    def __init__(self, p: Profile, seed: int, work: Path, clock: Clock):
        super().__init__(p, seed, work, clock)
        self.work, self.data = work, work / "data"
        self.report_path, self.curve_path = work / "report.csv", work / "curves.csv"

    def setup(self) -> None:
        p = self.p
        with self.clock.phase("setup"):
            run_cli(["synth", "--classes", str(p.classes), "--dim", str(p.dim),
                     "--per-class", str(p.per_class), "--sep", f"{p.separation:g}",
                     "--seed", str(self.seed), "-o", str(self.data)])  # rewrites the same CSVs
        if self.stream is None:
            train, test = read_csv(self.data / "train.csv"), read_csv(self.data / "test.csv")
            self.stream = oc.split_tasks(train, test, p.tasks)
            self.prepare_inputs(test.features)

    def train(self) -> None:
        p = self.p
        with self.clock.phase("train"):
            run_cli(["train", "--data", str(self.data), "--tasks", str(p.tasks),
                     "--epochs", str(p.epochs), "--lr", f"{p.learning_rate:g}",
                     "--hidden", str(p.hidden), "--seed", str(self.seed + 1),
                     "-o", self.model_path, "--log", str(self.work / "train.log")])

    def save(self) -> None:
        self.save_loaded()

    def sweep(self) -> None:
        with self.clock.phase("sweep"):
            run_cli(["eval", "--model", self.model_path, "--data", str(self.data),
                     "-o", str(self.report_path)])
        self.rows = []
        for line in self.report_path.read_text().splitlines()[1:]:
            fields = line.split(",")
            self.rows.append((fields[0], fields[1], float(fields[2]), float(fields[5])))

    def curve(self) -> None:
        with self.clock.phase("curve"):
            # every step; the CLI's default pair is CURVE_PAIR
            run_cli(["curve", "--model", self.model_path, "--data", str(self.data),
                     "--grid-step", "5", "-o", str(self.curve_path)])
        curves = {}
        for line in self.curve_path.read_text().splitlines()[1:]:
            step, rate, _accuracy, retained = line.split(",")
            curves.setdefault(int(step), []).append((float(rate), int(retained)))
        self.curves = [curves[k] for k in sorted(curves)]


def stacked_tests(stream):
    parts = [test for _train, test in stream.tasks]
    return (np.concatenate([t.features for t in parts]),
            np.concatenate([t.labels for t in parts]),
            np.concatenate([np.full(len(t), k) for k, t in enumerate(parts)]))


def retrain(p: Profile, stream, hp):
    """Train again task by task through the public per-task functions,
    keeping the adapter after each task and every buffer."""
    model = oc.new_model(p.dim, hp, trunk_dim=p.trunk_dim)
    buffer = oc.Buffer.empty(p.buffer, p.dim) if p.replay else None
    snapshots, buffers = [], []
    for t, (train, _test) in enumerate(stream.tasks):
        local = oc.task_local(train, t, stream.classes_per_task)
        if p.replay:
            oc.train_task_replay(model, local, buffer, hp)
            buffer = oc.buffer_update(buffer, train, t, hp.seed)
            buffers.append((list(range((t + 1) * stream.classes_per_task)), buffer.labels.copy()))
            if p.backupdate and t >= 1:
                oc.back_update(model, buffer, hp)
        else:
            oc.train_task(model, local, hp)
        snapshots.append((model.adapters.weights.copy(), model.adapters.bias.copy()))
    return model, snapshots, buffers


def model_weights(model) -> dict:
    """The arrays the reference needs, read from a model's fields."""
    return {
        "projection": model.trunk.projection,
        "adapter_weights": model.adapters.weights,
        "adapter_bias": model.adapters.bias,
        "embeddings": model.adapters.task_embeddings,
        "slope": model.adapters.slope_max,
        "heads": [(h.weights, h.bias, h.ood_logit_present) for h in model.heads],
        "classes_per_task": model.classes_per_task,
    }


class CheckLog:
    """Counts checks as operations; one that raises counts as failed."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []
        self.failed = 0

    def run(self, name: str, fn) -> None:
        self.attempted += 1
        try:
            errors = fn()
        except Exception as exc:  # a fault in the program under test is a failed check
            errors = [f"{name}: raised {exc!r}"]
        if errors:
            self.failed += 1
            self.errors.extend(errors)


def check_round(p: Profile, out: Outputs, log: CheckLog, cli: bool) -> None:
    stream, loaded = out.stream, out.loaded
    retrained = {}

    def training():
        retrained["model"], retrained["snapshots"], retrained["buffers"] = retrain(p, stream, out.hp)
        # the CLI-trained model is only available through its file
        errors = checks.same_model("training", retrained["model"],
                                   loaded if out.model is None else out.model)
        for again in out.trained[1:]:  # a round that trains twice must train alike
            errors += checks.same_model("training again", out.model, again)
        return errors

    log.run("training", training)
    if cli:
        log.run("model-roundtrip",
                lambda: checks.same_model("model-roundtrip", loaded, oc.load_model(out.resaved_path)))
    else:
        log.run("model-roundtrip", lambda: checks.same_model("model-roundtrip", out.model, loaded))
    log.run("resave-bytes", lambda: [] if filecmp.cmp(out.model_path, out.resaved_path, shallow=False)
            else ["resave-bytes: re-saving the loaded model changed the file"])

    features, labels, tasks = stacked_tests(stream)
    train_sets = [(train.features, train.labels - t * stream.classes_per_task)
                  for t, (train, _test) in enumerate(stream.tasks)]
    ref = {}

    distinct = min(len(out.inputs), len(features))

    def build_reference():
        ref["model"] = Reference(model_weights(loaded), train_sets, retrained["snapshots"])
        ref["classes"] = ref["model"].classes_by_head(features)
        ref["input_classes"] = ref["model"].classes_by_head(out.inputs[:distinct])
        return []

    log.run("reference", build_reference)
    for detector in DETECTORS:
        for scorer in SCORERS:
            def compare(detector=detector, scorer=scorer):
                if (detector, scorer) == PREDICT_PAIR:
                    inputs, got = out.inputs[:distinct], out.predictions[:distinct]
                else:
                    inputs = out.inputs[:p.check_samples]
                    got = [(q.predicted_task, q.predicted_class, q.ind_score) for q in
                           (oc.predict(loaded, detector, scorer, x) for x in inputs)]
                t, c, s = zip(*got)
                return checks.predictions(f"predict {detector}/{scorer}",
                                          ref["model"].head_scores(inputs, detector, scorer),
                                          ref["input_classes"][:len(inputs)], t, c, s)

            log.run(f"predict {detector}/{scorer}", compare)

    def sweep_row():
        table = oc.score_table(loaded, stream, *TABLE_PAIR)
        errors = checks.score_table("score table", table.scores,
                                    ref["model"].head_scores(features, *TABLE_PAIR))
        lca, auc = checks.brute_force_row(table.scores, labels, tasks, ref["classes"])
        row = next(r for r in out.rows if (r[0], r[1]) == TABLE_PAIR)
        if cli:
            return errors + checks.row_matches("eval report", (100 * lca, 100 * auc),
                                               row[2:], checks.CSV_ATOL)
        return errors + checks.row_matches("sweep row", (lca, auc), row[2:], checks.METRIC_ATOL)

    log.run("sweep-brute-force", sweep_row)
    log.run("rejection-curves", lambda: [e for k, c in enumerate(out.curves, start=1)
                                          for e in checks.rejection_curve(f"curve step {k}", c,
                                                                          len(labels))])

    def oracle():
        accuracies = {d: oc.evaluate_closed(loaded, stream, p.tasks, d, "en",
                                            oracle_task=True).accuracy for d in DETECTORS}
        reference_accuracy = float(np.mean(ref["classes"][np.arange(len(labels)), tasks] == labels))
        return (checks.oracle("oracle", accuracies, reference_accuracy)
                + checks.above_chance("lca", row_means(out.rows, cli)[0], p.classes))

    log.run("oracle-accuracy", oracle)
    if p.replay:
        log.run("buffer", lambda: checks.buffers("buffer", retrained["buffers"], p.buffer))


def probes(loaded, stream) -> dict:
    """score_table time per detector/scorer pair: the median of interleaved
    repeats, at least PROBE_REPEATS and until each pair has run PROBE_SECONDS
    (at most 200)."""
    if not hasattr(oc, "score_table"):
        return {}
    times = {pair: [] for pair in PROBE_PAIRS}
    gc.collect()
    while min(len(v) for v in times.values()) < PROBE_REPEATS or (
            min(sum(v) for v in times.values()) < PROBE_SECONDS
            and len(times[PROBE_PAIRS[0]]) < 200):
        for pair in PROBE_PAIRS:
            start = time.perf_counter()
            oc.score_table(loaded, stream, *pair)
            times[pair].append(time.perf_counter() - start)
    t = {pair: statistics.median(v) for pair, v in times.items()}
    base = t[("base", "en")]
    return {
        "pipeline.score_table_s": base,
        "detectors.react_extra_s": t[("react", "en")] - base,
        "detectors.dice_extra_s": t[("dice", "en")] - base,
        "detectors.scale_extra_s": t[("scale", "en")] - base,
        "scorers.md_extra_s": t[("base", "enmd")] - base,
    }


def openblas(*symbols: str):
    """The first of these functions found in numpy's bundled OpenBLAS, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*blas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return fn
    return None


def set_blas_threads(n: int) -> None:
    fn = openblas("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_",
                  "openblas_set_num_threads")
    if fn is not None:
        fn(ctypes.c_int(n))


def blas_threads() -> int:
    """OpenBLAS thread count through its C API; -1 when not found."""
    fn = openblas("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                  "openblas_get_num_threads")
    if fn is None:
        return -1
    fn.restype = ctypes.c_int
    return int(fn())


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def run(p: Profile, seed: int, seconds: float, traced: bool, checked: bool = True) -> dict:
    set_blas_threads(p.blas_threads)
    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
    driver = CliRound if p.driver == "cli" else LibraryRound
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        warm = work / "warm-up"
        warm.mkdir()
        # every op of the schedule once, in the order of its first use
        once = " ".join(dict.fromkeys(p.schedule.split()))
        warm_up = replace(p, schedule=once) if p.full_warm_up else tiny(p)
        driver(warm_up, seed, warm, Clock(None)).run()

        log = CheckLog()
        rounds, elapsed, first = [], 0.0, None
        # whole rounds only: stop before a round that would likely end past --seconds
        while not rounds or elapsed * (len(rounds) + 1) / len(rounds) <= seconds:
            clock = Clock(tracer)
            if tracer is not None:
                tracer.reset()
                tracer.active = True
            started = time.perf_counter()
            out = driver(p, seed, work, clock).run()
            elapsed += time.perf_counter() - started
            record = {"times": clock.times, "ops": clock.ops,
                      "total_s": sum(sum(v) for v in clock.times.values())}
            if tracer is not None:
                tracer.active = False
                record["layers"] = tracer.layer_metrics()
                record["layers"]["serialize.values"] = sum(array_values(path)
                                                           for path in tracer.saved_paths)
            rounds.append(record)
            if first is None:
                first = out.fingerprint()
                model_bytes = os.path.getsize(out.model_path)
                if checked:
                    check_round(p, out, log, p.driver == "cli")
                probe = probes(out.loaded, out.stream) if traced else {}
            elif checked:
                log.run("repeat", lambda: [] if out.fingerprint() == first
                        else ["repeat: a later round gave different results"])
            del out
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    lca_pct, auc_pct = row_means(first[0], p.driver == "cli")
    return {
        "rounds": rounds,
        "attempted": sum(r["ops"] for r in rounds) + log.attempted,
        "failed": log.failed,
        "errors": log.errors,
        "model_bytes": model_bytes,
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
        "lca_pct": lca_pct,
        "auc_pct": auc_pct,
        "probes": probe,
        "missing": tracer.missing if tracer is not None else [],
        "machine": machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROFILES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="shrunk inputs (self-test)")
    parser.add_argument("--no-checks", dest="checked", action="store_false",
                        help="skip the output checks (the untraced baseline of a traced run)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    profile = PROFILES[args.workload]
    result = run(tiny(profile) if args.tiny else profile, args.seed, args.seconds, args.traced,
                 args.checked)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
