"""Portable text serialization of trained models.

The file is line-oriented and self-describing: a versioned header, then
``meta <name> <value>`` records and ``array <name> <shape...>`` records
whose rows follow in row-major order, closed by an ``end`` sentinel.
Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so save -> load -> save reproduces the file byte for
byte. Version 2 dropped the covariance and ridge records of version 1,
which inference never read; version 1 files still load, and their extra
records are ignored. A non-finite value in any record, an array whose
shape does not fit the model's sizes, and an inverse covariance without a
Cholesky factor fail the load. Both directions stream the file line by
line, so neither holds its whole text in memory.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ModelError, ModelIOError
from .model import AdapterBank, ModelState, TaskHead, TrainStats, TrunkParams, _whitening

FORMAT_NAME = "opencil-model"
FORMAT_VERSION = 2

__all__ = ["save_model", "load_model"]


def _fmt(value: float) -> str:
    return f"{value:.17g}"


class _Writer:
    """Writes records to an open text file as they are produced."""

    def __init__(self, fh) -> None:
        self.fh = fh
        self.line(f"{FORMAT_NAME} {FORMAT_VERSION}")

    def line(self, text: str) -> None:
        self.fh.write(text + "\n")

    def meta(self, name: str, value) -> None:
        text = _fmt(value) if isinstance(value, float) else str(int(value))
        self.line(f"meta {name} {text}")

    def array(self, name: str, arr: np.ndarray) -> None:
        arr = np.asarray(arr, dtype=np.float64)
        shape = " ".join(str(s) for s in arr.shape)
        self.line(f"array {name} {shape}")
        rows = arr.reshape(1, -1) if arr.ndim == 1 else arr
        for row in rows:
            self.line(" ".join(map(_fmt, row.tolist())))


def save_model(model: ModelState, path: str) -> None:
    """Write every weight and statistic of the model to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        w = _Writer(fh)
        w.meta("dim_in", model.trunk.dim_in)
        w.meta("has_projection", 0 if model.trunk.projection is None else 1)
        if model.trunk.projection is not None:
            w.array("trunk_projection", model.trunk.projection)
        w.meta("hidden_width", model.hidden_width)
        w.meta("slope_max", float(model.adapters.slope_max))
        w.meta("trained_tasks", model.trained_tasks)
        w.meta("classes_per_task",
               -1 if model.classes_per_task is None else model.classes_per_task)
        w.array("adapter_weights", model.adapters.weights)
        w.array("adapter_bias", model.adapters.bias)
        for t in range(model.trained_tasks):
            head = model.heads[t]
            stats = model.stats[t]
            w.array(f"embedding_{t}", model.adapters.task_embeddings[t])
            w.array(f"head_weights_{t}", head.weights)
            w.array(f"head_bias_{t}", head.bias)
            w.meta(f"head_ood_{t}", 1 if head.ood_logit_present else 0)
            w.array(f"stats_means_{t}", stats.class_means)
            w.array(f"stats_covinv_{t}", stats.covariance_inv)
            w.array(f"stats_meanact_{t}", stats.mean_activations)
            w.meta(f"stats_react_{t}", float(stats.react_threshold))
        w.line("end")


class _Reader:
    """Reads the records of an open model file line by line."""

    def __init__(self, path: str, fh) -> None:
        self.lines = iter(fh)
        self.path = path
        self.metas: dict[str, str] = {}
        self.arrays: dict[str, np.ndarray] = {}

    def fail(self, why: str):
        raise ModelIOError(f"{self.path}: {why}")

    def next_line(self) -> str:
        try:
            return next(self.lines)
        except StopIteration:
            self.fail("truncated model file (missing 'end')")
        except UnicodeDecodeError:
            self.fail("not a model file (not UTF-8 text)")

    def parse(self) -> None:
        header = self.next_line().split()
        if len(header) != 2 or header[0] != FORMAT_NAME:
            self.fail("not a model file (bad header)")
        if header[1] not in ("1", str(FORMAT_VERSION)):
            self.fail(
                f"unsupported model file version {header[1]} "
                f"(this build reads versions 1 to {FORMAT_VERSION})"
            )
        while True:
            fields = self.next_line().split()
            if not fields:
                self.fail("blank line inside model file")
            if fields[0] == "end":
                return
            if fields[0] == "meta":
                if len(fields) != 3:
                    self.fail(f"malformed meta record: {' '.join(fields)!r}")
                self.metas[fields[1]] = fields[2]
            elif fields[0] == "array":
                self._read_array(fields)
            else:
                self.fail(f"unknown record type {fields[0]!r}")

    def _read_array(self, fields: list[str]) -> None:
        if len(fields) < 3:
            self.fail(f"malformed array record: {' '.join(fields)!r}")
        name = fields[1]
        try:
            shape = tuple(int(s) for s in fields[2:])
        except ValueError:
            self.fail(f"bad shape in array record {name!r}")
        if len(shape) > 2 or min(shape) < 0:
            self.fail(f"bad shape in array record {name!r}")
        rows = np.empty((1, shape[0]) if len(shape) == 1 else shape)
        for row in rows:
            parts = self.next_line().split()
            if len(parts) != len(row):
                self.fail(f"array {name!r} row has {len(parts)} values, expected {len(row)}")
            try:
                row[:] = np.array(parts, dtype=np.float64)
            except ValueError:
                self.fail(f"non-numeric value in array {name!r}")
        if not np.isfinite(rows).all():
            self.fail(f"non-finite value in array {name!r}")
        self.arrays[name] = rows.reshape(shape)

    def meta(self, name: str, cast=float):
        if name not in self.metas:
            self.fail(f"missing meta record {name!r}")
        try:
            value = cast(self.metas[name])
        except ValueError:
            self.fail(f"bad value in meta record {name!r}")
        if not math.isfinite(value):
            self.fail(f"non-finite value in meta record {name!r}")
        return value

    def array(self, name: str, shape: tuple) -> np.ndarray:
        """The named array, which must have ``shape`` (None matches any length)."""
        if name not in self.arrays:
            self.fail(f"missing array record {name!r}")
        arr = self.arrays[name]
        if len(arr.shape) != len(shape) or any(
                want is not None and got != want for got, want in zip(arr.shape, shape)):
            expected = " ".join("*" if s is None else str(s) for s in shape)
            self.fail(f"array {name!r} has shape {' '.join(map(str, arr.shape))}, "
                      f"expected {expected}")
        return arr


def load_model(path: str) -> ModelState:
    """Rebuild a model from a file written by :func:`save_model`.

    Every array must have the shape that ``dim_in``, ``hidden_width``,
    ``classes_per_task`` and the head's OOD flag imply, and every inverse
    covariance a positive-definite symmetric part; its whitening factor is
    kept for inference.
    """
    with open(path, "r", encoding="utf-8") as fh:
        r = _Reader(path, fh)
        r.parse()

    dim_in = r.meta("dim_in", int)
    hidden = r.meta("hidden_width", int)
    trained_tasks = r.meta("trained_tasks", int)
    classes_per_task = r.meta("classes_per_task", int)
    if dim_in < 1 or hidden < 1 or trained_tasks < 0:
        r.fail(f"bad sizes: dim_in {dim_in}, hidden_width {hidden}, "
               f"trained_tasks {trained_tasks}")
    if classes_per_task < 1 and (classes_per_task != -1 or trained_tasks > 0):
        r.fail(f"bad classes_per_task {classes_per_task} for {trained_tasks} trained task(s)")
    projection = (r.array("trunk_projection", (dim_in, None))
                  if r.meta("has_projection", int) else None)
    trunk = TrunkParams(dim_in, projection)
    adapters = AdapterBank(
        weights=r.array("adapter_weights", (trunk.dim_out, hidden)),
        bias=r.array("adapter_bias", (hidden,)),
        task_embeddings=[],
        slope_max=r.meta("slope_max"),
    )
    model = ModelState(trunk, adapters,
                       classes_per_task=None if classes_per_task < 0 else classes_per_task)
    for t in range(trained_tasks):
        adapters.task_embeddings.append(r.array(f"embedding_{t}", (hidden,)))
        ood = bool(r.meta(f"head_ood_{t}", int))
        logits = classes_per_task + (1 if ood else 0)
        model.heads.append(TaskHead(
            weights=r.array(f"head_weights_{t}", (hidden, logits)),
            bias=r.array(f"head_bias_{t}", (logits,)),
            ood_logit_present=ood,
        ))
        stats = TrainStats(
            class_means=r.array(f"stats_means_{t}", (classes_per_task, hidden)),
            covariance_inv=r.array(f"stats_covinv_{t}", (hidden, hidden)),
            mean_activations=r.array(f"stats_meanact_{t}", (hidden,)),
            react_threshold=r.meta(f"stats_react_{t}"),
        )
        try:
            _whitening(stats)
        except ModelError as exc:
            r.fail(f"array 'stats_covinv_{t}': {exc}")
        model.stats.append(stats)
    return model
