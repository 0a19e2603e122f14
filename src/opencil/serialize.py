"""Portable text serialization of trained models.

The file is line-oriented and self-describing: a versioned header, then
``meta <name> <value>`` records and ``array <name> <shape...>`` records
whose rows follow in row-major order, closed by an ``end`` sentinel.
Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly, so save -> load -> save reproduces the file byte for
byte. Version 2 dropped the covariance and ridge records of version 1,
which inference never read; version 1 files still load, and their extra
records are ignored. A non-finite value in any record fails the load.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ModelIOError
from .model import AdapterBank, ModelState, TaskHead, TrainStats, TrunkParams

FORMAT_NAME = "opencil-model"
FORMAT_VERSION = 2

__all__ = ["save_model", "load_model"]


def _fmt(value: float) -> str:
    return f"{value:.17g}"


class _Writer:
    def __init__(self) -> None:
        self.lines = [f"{FORMAT_NAME} {FORMAT_VERSION}"]

    def meta(self, name: str, value) -> None:
        text = _fmt(value) if isinstance(value, float) else str(int(value))
        self.lines.append(f"meta {name} {text}")

    def array(self, name: str, arr: np.ndarray) -> None:
        arr = np.asarray(arr, dtype=np.float64)
        shape = " ".join(str(s) for s in arr.shape)
        self.lines.append(f"array {name} {shape}")
        rows = arr.reshape(1, -1) if arr.ndim == 1 else arr
        for row in rows:
            self.lines.append(" ".join(_fmt(v) for v in row))

    def text(self) -> str:
        return "\n".join(self.lines + ["end"]) + "\n"


def save_model(model: ModelState, path: str) -> None:
    """Write every weight and statistic of the model to ``path``."""
    w = _Writer()
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
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(w.text())


class _Reader:
    def __init__(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            self.lines = fh.read().splitlines()
        self.pos = 0
        self.path = path
        self.metas: dict[str, str] = {}
        self.arrays: dict[str, np.ndarray] = {}

    def fail(self, why: str):
        raise ModelIOError(f"{self.path}: {why}")

    def next_line(self) -> str:
        if self.pos >= len(self.lines):
            self.fail("truncated model file (missing 'end')")
        line = self.lines[self.pos]
        self.pos += 1
        return line

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
        n_rows = 1 if len(shape) == 1 else shape[0]
        row_len = shape[0] if len(shape) == 1 else shape[1]
        rows = []
        for _ in range(n_rows):
            parts = self.next_line().split()
            if len(parts) != row_len:
                self.fail(f"array {name!r} row has {len(parts)} values, expected {row_len}")
            try:
                rows.append([float(v) for v in parts])
            except ValueError:
                self.fail(f"non-numeric value in array {name!r}")
        arr = np.asarray(rows, dtype=np.float64).reshape(shape)
        if not np.isfinite(arr).all():
            self.fail(f"non-finite value in array {name!r}")
        self.arrays[name] = arr

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

    def array(self, name: str) -> np.ndarray:
        if name not in self.arrays:
            self.fail(f"missing array record {name!r}")
        return self.arrays[name]


def load_model(path: str) -> ModelState:
    """Rebuild a model from a file written by :func:`save_model`."""
    r = _Reader(path)
    r.parse()

    dim_in = r.meta("dim_in", int)
    projection = r.array("trunk_projection") if r.meta("has_projection", int) else None
    trunk = TrunkParams(dim_in, projection)
    adapters = AdapterBank(
        weights=r.array("adapter_weights"),
        bias=r.array("adapter_bias"),
        task_embeddings=[],
        slope_max=r.meta("slope_max"),
    )
    classes_per_task = r.meta("classes_per_task", int)
    model = ModelState(trunk, adapters,
                       classes_per_task=None if classes_per_task < 0 else classes_per_task)
    for t in range(r.meta("trained_tasks", int)):
        adapters.task_embeddings.append(r.array(f"embedding_{t}"))
        model.heads.append(TaskHead(
            weights=r.array(f"head_weights_{t}"),
            bias=r.array(f"head_bias_{t}"),
            ood_logit_present=bool(r.meta(f"head_ood_{t}", int)),
        ))
        model.stats.append(TrainStats(
            class_means=r.array(f"stats_means_{t}"),
            covariance_inv=r.array(f"stats_covinv_{t}"),
            mean_activations=r.array(f"stats_meanact_{t}"),
            react_threshold=r.meta(f"stats_react_{t}"),
        ))
    return model
