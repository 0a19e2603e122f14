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
import inspect
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

from .data import Dataset, SynthSpec, holdout, load_csv, save_csv, split_tasks, synth_gaussian
from .detectors import DEFAULT_PERCENTILES, DETECTOR_KINDS, Detector
from .errors import ConfigError, DataError, ModelError, OpenCILError, check_integer
from .metrics import grid_points, rejection_curve
from .model import Hyperparams, new_model, train_stream
from .pipeline import mixed_scores, run_sweep
from .scorers import SCORER_KINDS, Scorer
from .serialize import load_model, save_model


def _library_default(function, name: str):
    return inspect.signature(function).parameters[name].default


# Every setting once, named by its config key: its type, its default (None:
# none, so a command that reads it must be given it), the commands that take
# it, its flag and the flag's help. A library setting's default is the library's.
_SETTINGS = {
    "classes": (int, None, "synth", "--classes", "number of classes"),
    "dim": (int, None, "synth", "--dim", "feature dimension"),
    "per_class": (int, None, "synth", "--per-class", "samples per class"),
    "separation": (float, None, "synth", "--sep", "distance between class means"),
    "test_fraction": (float, 0.2, "synth", "--test-fraction", "share of each class in test.csv"),
    "data": (str, None, "train eval curve", "--data", "directory of train.csv and test.csv"),
    "tasks": (int, 5, "train", "--tasks", "number of tasks"),
    "epochs": (int, Hyperparams.epochs, "train", "--epochs", "SGD epochs per task"),
    "learning_rate": (float, Hyperparams.learning_rate, "train", "--lr", "SGD learning rate"),
    "batch_size": (int, Hyperparams.batch_size, "train", "--batch", "SGD batch size"),
    "hidden_width": (int, Hyperparams.hidden_width, "train", "--hidden", "adapter units"),
    "slope_max": (float, Hyperparams.slope_max, "train", "--slope-max", "largest gate slope"),
    "covariance_ridge": (float, Hyperparams.covariance_ridge, "train", "--ridge",
                         "covariance ridge coefficient"),
    "trunk_dim": (int, None, "train", "--trunk-dim", "random trunk projection width"),
    "seed": (int, Hyperparams.seed, "synth train", "--seed", "random seed"),
    "react_percentile": (float, Hyperparams.react_percentile, "train", "--react-percentile",
                         "ReAct clip percentile"),
    "replay": (bool, _library_default(train_stream, "replay"), "train", "--replay",
               "train the replay baseline"),
    "buffer_capacity": (int, _library_default(train_stream, "buffer_capacity"), "train",
                        "--buffer", "replay buffer capacity"),
    "backupdate": (bool, _library_default(train_stream, "backupdate"), "train",
                   "--backupdate", "fine-tune earlier heads on the buffer"),
    "backupdate_epochs": (int, Hyperparams.backupdate_epochs, "train", "--backupdate-epochs",
                          "back-update epochs"),
    "model": (str, None, "train eval curve", "--model", "model file (train writes it)"),
    "log": (str, None, "train", "--log", "per-epoch training log file"),
    "detectors": (str, ",".join(DETECTOR_KINDS), "eval", "--detectors",
                  "comma-separated detector kinds"),
    "scorers": (str, ",".join(SCORER_KINDS), "eval", "--scorers",
                "comma-separated scorer kinds"),
    "steps": (str, None, "curve", "--steps", "comma-separated 1-based steps (default: all)"),
    "detector": (str, "base", "curve", "--detector", "detector kind"),
    "scorer": (str, "enmd", "curve", "--scorer", "scorer kind"),
    "temperature": (float, Scorer.temperature, "eval curve", "--temperature",
                    "energy temperature"),
    "dice_percentile": (float, DEFAULT_PERCENTILES["dice"], "eval curve",
                        "--dice-percentile", "DICE sparsity percentile"),
    "scale_percentile": (float, DEFAULT_PERCENTILES["scale"], "eval curve",
                         "--scale-percentile", "SCALE percentile"),
    "grid_step": (float, _library_default(rejection_curve, "grid_step"), "curve",
                  "--grid-step", "rejection grid step in percent"),
    "out": (str, None, "synth eval curve", "--out",
            "output directory (synth) or CSV file (eval, curve; default stdout)"),
}
CONFIG_KEYS = {key: row[0] for key, row in _SETTINGS.items()}
_DEFAULTS = {key: row[1] for key, row in _SETTINGS.items() if row[1] is not None}
_COMMAND_HELP = {
    "synth": "write synthetic train/test CSVs",
    "train": "train the incremental model",
    "eval": "sweep detectors and scorers into a report CSV",
    "curve": "write accuracy-rejection curves",
}
# -o names each command's output
_SHORT_OUTPUT = {"synth": "out", "train": "model", "eval": "out", "curve": "out"}


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
    except (OSError, UnicodeDecodeError) as exc:
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

    def given(self, key: str) -> bool:
        """Whether a flag or the config file sets ``key``."""
        return self.args.get(key) is not None or key in self.config


def _build_parser() -> _Parser:
    parser = _Parser(prog="opencil",
                     description="Buffer-free open-world class-incremental learning")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, summary in _COMMAND_HELP.items():
        options = sub.add_parser(command, help=summary)
        for key, (kind, _, commands, flag, help_text) in _SETTINGS.items():
            if command not in commands.split():
                continue
            flags = ["-o", flag] if _SHORT_OUTPUT[command] == key else [flag]
            if kind is bool:
                options.add_argument(*flags, dest=key, action="store_const", const=True,
                                     help=help_text)
            else:
                options.add_argument(*flags, dest=key, type=kind, help=help_text)
        options.add_argument("--config", help="flat key=value settings file")
    return parser


def _require(settings: _Settings, key: str):
    value = settings.get(key)
    if value is None:
        raise ConfigError(f"missing required setting {key!r} (flag or config)")
    if isinstance(value, str) and not value.strip():
        raise ConfigError(f"setting {key!r} is empty; it must name a path")
    return value


def _inputs(settings: _Settings, model: bool) -> list[tuple[str, str]]:
    """The (name, path) pairs of the files a command must not overwrite: the
    config file, the data directory's train.csv and test.csv (a command reads
    one of them and overwrites neither) and, if ``model``, the model file."""
    data = _require(settings, "data")
    files = [("the config file", settings.get("config"))]
    files += [(f"the data file {split}.csv", str(Path(data) / f"{split}.csv"))
              for split in ("train", "test")]
    if model:
        files.append(("the model file", _require(settings, "model")))
    return files


def _same_file(a: str, b: str) -> bool:
    """Whether paths ``a`` and ``b`` resolve to one path or, for two files
    that exist, name one file (a hard link, say)."""
    if Path(a).resolve() == Path(b).resolve():
        return True
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them does not exist yet
        return False


def _output(settings: _Settings, key: str, required: bool = False, taken=()):
    """The output path that ``key`` names, checked before any work starts:
    its directory must exist, it must not be a directory itself, and it must
    not be the same file as any path of ``taken``, the (name, path) pairs of
    the command's inputs and of its outputs checked before this one."""
    if not required and settings.get(key) is None:
        return None
    path = _require(settings, key)
    if Path(path).is_dir():
        raise ConfigError(f"output path is a directory: {path}")
    resolved = Path(path).resolve()
    if not resolved.parent.is_dir():
        raise ConfigError(f"output directory does not exist: {resolved.parent}")
    for name, other in taken:
        if other and _same_file(path, other):
            raise ConfigError(f"output path {path} would overwrite {name}")
    return path


def _load_stream(settings: _Settings, num_tasks: int, split: str):
    """The task stream of the data directory's ``<split>.csv`` alone.

    Each command reads only the split it uses: ``train`` fits on train.csv,
    ``eval`` and ``curve`` score test.csv. The one file stands in for both
    sides of every task.
    """
    path = Path(_require(settings, "data")) / f"{split}.csv"
    if not path.exists():
        raise ConfigError(f"dataset file not found: {path}")
    dataset = load_csv(str(path))
    return split_tasks(dataset, dataset, num_tasks)


def _hyperparams(settings: _Settings) -> Hyperparams:
    try:
        return Hyperparams(**{f.name: settings[f.name] for f in fields(Hyperparams)})
    except ModelError as exc:
        raise ConfigError(str(exc)) from None


def _detector_objects(settings: _Settings, kinds: list[str]) -> list[Detector]:
    # react has no override: it clips at the threshold fitted at train time
    overrides = {"dice": settings["dice_percentile"], "scale": settings["scale_percentile"]}
    try:
        detectors = [Detector(kind, overrides.get(kind)) for kind in kinds]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # a percentile that no detector of the run reads is refused, not ignored
    for kind in overrides:
        if settings.given(f"{kind}_percentile") and kind not in kinds:
            raise ConfigError(f"--{kind}-percentile ({kind}_percentile) requires the "
                              f"{kind} detector")
    return detectors


def _scorer_objects(settings: _Settings, kinds: list[str]) -> list[Scorer]:
    temperature = settings["temperature"]
    try:
        scorers = [Scorer(kind, temperature) if kind in ("en", "enmd") else Scorer(kind)
                   for kind in kinds]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # a temperature that no energy scorer of the run reads is refused, not ignored
    if settings.given("temperature") and not {"en", "enmd"} & set(kinds):
        raise ConfigError("--temperature (temperature) requires the en or enmd scorer")
    return scorers


def _list(settings: _Settings, key: str, cast=str) -> list:
    """The comma-separated items that setting ``key`` names, each read by
    ``cast``: at least one, and each once."""
    text = settings[key]
    try:
        items = [cast(item.strip()) for item in str(text).split(",") if item.strip()]
    except ValueError:
        raise ConfigError(f"{key} must be comma-separated integers, got {text!r}") from None
    if not items or len(set(items)) < len(items):
        raise ConfigError(f"{key} must name at least one item, each once, got {text!r}")
    return items


def _load_trained(settings: _Settings):
    """The model file's model and the task stream of the data's test.csv."""
    model = load_model(_require(settings, "model"))
    if model.trained_tasks == 0:
        raise ConfigError("model file holds no trained tasks")
    return model, _load_stream(settings, model.trained_tasks, "test")


def _cmd_synth(settings: _Settings) -> int:
    try:
        spec = SynthSpec(
            num_classes=_require(settings, "classes"),
            dim=_require(settings, "dim"),
            per_class=_require(settings, "per_class"),
            mean_separation=_require(settings, "separation"),
            seed=settings["seed"],
        )
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    test_fraction = settings["test_fraction"]
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    out_dir = Path(_require(settings, "out"))
    if out_dir.exists() and not out_dir.is_dir():
        raise ConfigError(f"output directory is an existing file: {out_dir}")
    for parent in out_dir.parents:
        if parent.exists() and not parent.is_dir():
            raise ConfigError(f"output directory {out_dir} lies below an existing file: "
                              f"{parent}")
    full = synth_gaussian(spec)
    train, test = holdout(full, test_fraction, spec.seed)
    out_dir.mkdir(parents=True, exist_ok=True)  # only once there is something to write
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
    # a setting that only the replay path or back-update reads is refused without it
    if settings.given("buffer_capacity") and not replay:
        raise ConfigError("--buffer (buffer_capacity) requires --replay")
    if settings.given("backupdate_epochs") and not backupdate:
        raise ConfigError("--backupdate-epochs (backupdate_epochs) requires --backupdate")
    inputs = _inputs(settings, model=False)
    model_path = _output(settings, "model", required=True, taken=inputs)
    log_path = _output(settings, "log", taken=[*inputs, ("the model file", model_path)])
    # the library checks these only once the data is read
    for key in ("buffer_capacity", "tasks", "trunk_dim"):
        if settings.get(key) is not None:
            check_integer(key, settings[key], ConfigError, 1)
    hp = _hyperparams(settings)
    stream = _load_stream(settings, settings["tasks"], "train")
    model = new_model(stream.tasks[0][0].dim, hp, trunk_dim=settings.get("trunk_dim"))

    log_lines: list[str] = []

    def epoch_hook(task, epoch, loss, accuracy, seconds):
        line = (f"task={task} epoch={epoch} loss={loss:.6f} "
                f"acc={accuracy:.4f} secs={seconds:.3f}")
        log_lines.append(line)
        print(line)

    started = time.perf_counter()
    train_stream(model, stream, hp, replay=replay, backupdate=backupdate,
                 buffer_capacity=settings["buffer_capacity"], epoch_hook=epoch_hook)
    elapsed = time.perf_counter() - started

    save_model(model, model_path)
    if log_path:
        Path(log_path).write_text("\n".join(log_lines) + "\n", encoding="utf-8")
    print(f"trained {model.trained_tasks} tasks in {elapsed:.2f}s -> {model_path}")
    return 0


def _cmd_eval(settings: _Settings) -> int:
    out = _output(settings, "out", taken=_inputs(settings, model=True))
    detectors = _detector_objects(settings, _list(settings, "detectors"))
    scorers = _scorer_objects(settings, _list(settings, "scorers"))
    model, stream = _load_trained(settings)

    report = run_sweep(model, stream, detectors, scorers)
    lines = ["detector,scorer,lca,aia,af,auc,aupr"]
    for row in report.rows:
        lines.append(
            f"{row.detector},{row.scorer},{100 * row.lca:.2f},{100 * row.aia:.2f},"
            f"{100 * row.af:.2f},{100 * row.auc:.2f},{100 * row.aupr:.2f}"
        )
    text = "\n".join(lines) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {out} ({len(report.rows)} rows)")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_curve(settings: _Settings) -> int:
    out = _output(settings, "out", taken=_inputs(settings, model=True))
    # the steps' range depends on the model, so it is checked once that is loaded
    steps = None if settings.get("steps") is None else _list(settings, "steps", int)
    detector = _detector_objects(settings, [settings["detector"]])[0]
    scorer = _scorer_objects(settings, [settings["scorer"]])[0]
    grid_step = settings["grid_step"]
    try:
        grid_points(grid_step)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    model, stream = _load_trained(settings)
    steps = steps or list(range(1, model.trained_tasks + 1))
    for step in steps:
        check_integer("step", step, ConfigError, 1, model.trained_tasks)

    lines = ["step,rejection_rate,accuracy,retained"]
    for step in steps:
        scores, correct = mixed_scores(model, stream, step, detector, scorer)
        for point in rejection_curve(scores, correct, grid_step):
            lines.append(f"{step},{point.rejection_rate:.6g},"
                         f"{point.accuracy:.6g},{point.retained_count}")
    text = "\n".join(lines) + "\n"
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
    except (OpenCILError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
