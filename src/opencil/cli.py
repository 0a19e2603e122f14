"""Command-line driver for reproducible data, training, evaluation, and
curve runs.

Four subcommands: ``synth`` writes train/test CSVs from a Gaussian-blob
recipe, ``train`` fits the incremental model over a task stream (buffer
-free by default, replay baseline with --replay), ``eval`` sweeps every
requested detector-scorer pair into a report CSV, and ``curve`` writes
accuracy-rejection curves per incremental step.

Settings resolve with precedence flags > config file > defaults. The
config file is flat ``key=value`` text whose keys form a closed set;
an unknown key aborts at startup. Exit codes: 0 success, 1 usage or
configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .data import Dataset, SynthSpec, holdout, load_csv, save_csv, split_tasks, synth_gaussian
from .detectors import DEFAULT_PERCENTILES, DETECTOR_KINDS, Detector
from .errors import ConfigError, OpenCILError
from .metrics import rejection_curve
from .model import (
    DEFAULT_BACKUPDATE_EPOCHS,
    DEFAULT_REACT_PERCENTILE,
    Hyperparams,
    new_model,
    train_stream,
)
from .pipeline import _mixed_steps, run_sweep
from .scorers import SCORER_KINDS, Scorer
from .serialize import load_model, save_model

CONFIG_KEYS = {
    "classes": int,
    "dim": int,
    "per_class": int,
    "separation": float,
    "test_fraction": float,
    "seed": int,
    "out": str,
    "data": str,
    "tasks": int,
    "epochs": int,
    "learning_rate": float,
    "batch_size": int,
    "hidden_width": int,
    "slope_max": float,
    "covariance_ridge": float,
    "trunk_dim": int,
    "react_percentile": float,
    "dice_percentile": float,
    "scale_percentile": float,
    "replay": bool,
    "buffer_capacity": int,
    "backupdate": bool,
    "backupdate_epochs": int,
    "model": str,
    "log": str,
    "detectors": str,
    "scorers": str,
    "temperature": float,
    "detector": str,
    "scorer": str,
    "steps": str,
    "grid_step": float,
}

_DEFAULTS = {
    "test_fraction": 0.2,
    "seed": 0,
    "tasks": 5,
    "epochs": 20,
    "learning_rate": 0.005,
    "batch_size": 64,
    "hidden_width": 64,
    "slope_max": 400.0,
    "covariance_ridge": 1e-4,
    "react_percentile": DEFAULT_REACT_PERCENTILE,
    "dice_percentile": DEFAULT_PERCENTILES["dice"],
    "scale_percentile": DEFAULT_PERCENTILES["scale"],
    "replay": False,
    "buffer_capacity": 200,
    "backupdate": False,
    "backupdate_epochs": DEFAULT_BACKUPDATE_EPOCHS,
    "detectors": ",".join(DETECTOR_KINDS),
    "scorers": ",".join(SCORER_KINDS),
    "temperature": 1.0,
    "detector": "base",
    "scorer": "enmd",
    "grid_step": 5.0,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); usage errors are exit 1
        raise ConfigError(message)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    values = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        cast = CONFIG_KEYS[key]
        try:
            values[key] = _parse_bool(value) if cast is bool else cast(value.strip())
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: bad value for {key!r}: {value.strip()!r}"
            ) from None
    return values


class _Settings:
    """Layered lookup: command-line flag, then config file, then default."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self.args = vars(args)
        self.config = config

    def __getitem__(self, key: str):
        flag = self.args.get(key)
        if flag is not None:
            return flag
        if key in self.config:
            return self.config[key]
        if key in _DEFAULTS:
            return _DEFAULTS[key]
        raise ConfigError(f"missing required setting {key!r}")

    def get(self, key: str, fallback=None):
        try:
            return self[key]
        except ConfigError:
            return fallback


def _build_parser() -> _Parser:
    parser = _Parser(prog="opencil",
                     description="Buffer-free open-world class-incremental learning")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write synthetic train/test CSVs")
    synth.add_argument("--classes", type=int)
    synth.add_argument("--dim", type=int)
    synth.add_argument("--per-class", dest="per_class", type=int)
    synth.add_argument("--sep", dest="separation", type=float)
    synth.add_argument("--seed", type=int)
    synth.add_argument("--test-fraction", dest="test_fraction", type=float)
    synth.add_argument("-o", "--out", help="output directory")
    synth.add_argument("--config")

    train = sub.add_parser("train", help="train the incremental model")
    train.add_argument("--data", help="directory holding train.csv and test.csv")
    train.add_argument("--tasks", type=int)
    train.add_argument("--epochs", type=int)
    train.add_argument("--lr", dest="learning_rate", type=float)
    train.add_argument("--batch", dest="batch_size", type=int)
    train.add_argument("--hidden", dest="hidden_width", type=int)
    train.add_argument("--slope-max", dest="slope_max", type=float)
    train.add_argument("--ridge", dest="covariance_ridge", type=float)
    train.add_argument("--trunk-dim", dest="trunk_dim", type=int)
    train.add_argument("--seed", type=int)
    train.add_argument("--react-percentile", dest="react_percentile", type=float)
    train.add_argument("--replay", action="store_const", const=True, default=None)
    train.add_argument("--buffer", dest="buffer_capacity", type=int)
    train.add_argument("--backupdate", action="store_const", const=True, default=None)
    train.add_argument("--backupdate-epochs", dest="backupdate_epochs", type=int)
    train.add_argument("-o", "--model", help="output model file")
    train.add_argument("--log", help="per-epoch training log file")
    train.add_argument("--config")

    evaluate = sub.add_parser("eval", help="sweep detectors and scorers into a report CSV")
    evaluate.add_argument("--model")
    evaluate.add_argument("--data")
    evaluate.add_argument("--detectors", help="comma-separated detector kinds")
    evaluate.add_argument("--scorers", help="comma-separated scorer kinds")
    evaluate.add_argument("--temperature", type=float)
    evaluate.add_argument("--dice-percentile", dest="dice_percentile", type=float)
    evaluate.add_argument("--scale-percentile", dest="scale_percentile", type=float)
    evaluate.add_argument("-o", "--out", help="report CSV path")
    evaluate.add_argument("--config")

    curve = sub.add_parser("curve", help="write accuracy-rejection curves")
    curve.add_argument("--model")
    curve.add_argument("--data")
    curve.add_argument("--steps", help="comma-separated 1-based step indices")
    curve.add_argument("--detector")
    curve.add_argument("--scorer")
    curve.add_argument("--temperature", type=float)
    curve.add_argument("--dice-percentile", dest="dice_percentile", type=float)
    curve.add_argument("--scale-percentile", dest="scale_percentile", type=float)
    curve.add_argument("--grid-step", dest="grid_step", type=float)
    curve.add_argument("-o", "--out", help="curve CSV path")
    curve.add_argument("--config")

    return parser


def _require(settings: _Settings, key: str):
    value = settings.get(key)
    if value is None:
        raise ConfigError(f"missing required setting {key!r} (flag or config)")
    return value


def _load_stream(settings: _Settings, num_tasks: int):
    data_dir = Path(_require(settings, "data"))
    train_path = data_dir / "train.csv"
    test_path = data_dir / "test.csv"
    for p in (train_path, test_path):
        if not p.exists():
            raise ConfigError(f"dataset file not found: {p}")
    return split_tasks(load_csv(str(train_path)), load_csv(str(test_path)), num_tasks)


def _hyperparams(settings: _Settings) -> Hyperparams:
    return Hyperparams(
        epochs=settings["epochs"],
        learning_rate=settings["learning_rate"],
        batch_size=settings["batch_size"],
        hidden_width=settings["hidden_width"],
        seed=settings["seed"],
        slope_max=settings["slope_max"],
        covariance_ridge=settings["covariance_ridge"],
    )


def _detector_objects(settings: _Settings, kinds: list[str]) -> list[Detector]:
    # react has no override: it clips at the threshold fitted at train time
    overrides = {"dice": settings["dice_percentile"], "scale": settings["scale_percentile"]}
    try:
        return [Detector(kind, overrides.get(kind)) for kind in kinds]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _scorer_objects(settings: _Settings, kinds: list[str]) -> list[Scorer]:
    temperature = settings["temperature"]
    try:
        return [Scorer(kind, temperature) for kind in kinds]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _split_list(text: str) -> list[str]:
    return [item.strip() for item in str(text).split(",") if item.strip()]


def _cmd_synth(settings: _Settings) -> int:
    spec = SynthSpec(
        num_classes=_require(settings, "classes"),
        dim=_require(settings, "dim"),
        per_class=_require(settings, "per_class"),
        mean_separation=_require(settings, "separation"),
        seed=settings["seed"],
    )
    out_dir = Path(_require(settings, "out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    full = synth_gaussian(spec)
    train, test = holdout(full, settings["test_fraction"], spec.seed)
    save_csv(train, str(out_dir / "train.csv"))
    save_csv(test, str(out_dir / "test.csv"))
    print(f"classes={full.num_classes} dim={full.dim} per_class={spec.per_class} "
          f"separation={spec.mean_separation:g} seed={spec.seed}")
    print(f"wrote {out_dir / 'train.csv'} ({len(train)} samples)")
    print(f"wrote {out_dir / 'test.csv'} ({len(test)} samples)")
    return 0


def _cmd_train(settings: _Settings) -> int:
    replay = bool(settings["replay"])
    backupdate = bool(settings["backupdate"])
    if backupdate and not replay:
        raise ConfigError("--backupdate requires --replay")
    model_path = _require(settings, "model")
    parent = Path(model_path).resolve().parent
    if not parent.is_dir():
        raise ConfigError(f"model output directory does not exist: {parent}")
    react_percentile = settings["react_percentile"]
    if not 0.0 <= react_percentile <= 100.0:
        raise ConfigError(f"react_percentile must lie in [0, 100], got {react_percentile}")
    num_tasks = settings["tasks"]
    stream = _load_stream(settings, num_tasks)
    hp = _hyperparams(settings)
    model = new_model(stream.tasks[0][0].dim, hp, trunk_dim=settings.get("trunk_dim"))

    log_path = settings.get("log")
    log_lines: list[str] = []

    def epoch_hook(task, epoch, loss, accuracy, seconds):
        line = (f"task={task} epoch={epoch} loss={loss:.6f} "
                f"acc={accuracy:.4f} secs={seconds:.3f}")
        log_lines.append(line)
        print(line)

    started = time.perf_counter()
    train_stream(model, stream, hp, replay=replay, backupdate=backupdate,
                 buffer_capacity=settings["buffer_capacity"],
                 backupdate_epochs=settings["backupdate_epochs"],
                 react_percentile=react_percentile,
                 epoch_hook=epoch_hook)
    elapsed = time.perf_counter() - started

    save_model(model, model_path)
    if log_path:
        Path(log_path).write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    print(f"trained {model.trained_tasks} tasks in {elapsed:.2f}s -> {model_path}")
    return 0


def _cmd_eval(settings: _Settings) -> int:
    model = load_model(_require(settings, "model"))
    if model.trained_tasks == 0 or model.classes_per_task is None:
        raise ConfigError("model file holds no trained tasks")
    stream = _load_stream(settings, model.trained_tasks)
    detectors = _detector_objects(settings, _split_list(settings["detectors"]))
    scorers = _scorer_objects(settings, _split_list(settings["scorers"]))

    report = run_sweep(model, stream, detectors, scorers)
    lines = ["detector,scorer,lca,aia,af,auc,aupr"]
    for row in report.rows:
        lines.append(
            f"{row.detector},{row.scorer},{100 * row.lca:.2f},{100 * row.aia:.2f},"
            f"{100 * row.af:.2f},{100 * row.auc:.2f},{100 * row.aupr:.2f}"
        )
    text = "\n".join(lines) + "\n"
    out = settings.get("out")
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {out} ({len(report.rows)} rows)")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_curve(settings: _Settings) -> int:
    model = load_model(_require(settings, "model"))
    if model.trained_tasks == 0 or model.classes_per_task is None:
        raise ConfigError("model file holds no trained tasks")
    stream = _load_stream(settings, model.trained_tasks)
    steps_text = settings.get("steps")
    try:
        steps = ([int(s) for s in _split_list(steps_text)] if steps_text
                 else list(range(1, model.trained_tasks + 1)))
    except ValueError:
        raise ConfigError(
            f"steps must be comma-separated integers, got {steps_text!r}"
        ) from None
    if not steps:
        raise ConfigError(f"steps must name at least one step, got {steps_text!r}")
    for step in steps:
        if not 1 <= step <= model.trained_tasks:
            raise ConfigError(
                f"step {step} outside 1..{model.trained_tasks}"
            )
    detector = _detector_objects(settings, [settings["detector"]])[0]
    scorer = _scorer_objects(settings, [settings["scorer"]])[0]
    grid_step = settings["grid_step"]

    lines = ["step,rejection_rate,accuracy,retained"]
    for step, (scores, correct) in zip(steps, _mixed_steps(model, stream, steps,
                                                            detector, scorer)):
        try:
            points = rejection_curve(scores, correct, grid_step)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        for point in points:
            lines.append(f"{step},{point.rejection_rate:.6g},"
                         f"{point.accuracy:.6g},{point.retained_count}")
    text = "\n".join(lines) + "\n"
    out = settings.get("out")
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "curve": _cmd_curve,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        settings = _Settings(args, _load_config(getattr(args, "config", None)))
        return _COMMANDS[args.command](settings)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OpenCILError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
