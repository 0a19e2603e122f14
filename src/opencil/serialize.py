"""Model files: ASCII record lines with raw little-endian array payloads.

A file is a versioned header line, then ``meta <name> <value>`` and
``array <name> <shape...>`` records, closed by an ``end`` line. An array's
record line is followed by exactly prod(shape) * 8 bytes, the array's
IEEE-754 float64 values in row-major, little-endian order, then one line
break and a ``crc32 <name> <hex>`` record, the CRC-32 of those bytes.
The checksum catches accidental corruption, not deliberate edits. Meta
values are decimal text with 17 significant digits. Both round-trip doubles
exactly, so save -> load -> save reproduces the file byte for byte. The
file is not text, but every record starts a line, so ``head`` and
``grep -a`` still show the records.

A task's Mahalanobis statistics are its whitening factor F, the lower
Cholesky factor of the inverse tied covariance, stored as the packed lower
triangle in row-major order (``stats_factor_<t>``, h(h+1)/2 values). Load
unpacks each factor as it reads it, through one packed buffer that all
tasks share, and checks that F's diagonal is positive instead of
factorising anything.

Only version 5 loads: a file of any other version, such as the text files
of versions 1 to 4, is refused with its version named. To convert an old
file, load and re-save it with an earlier build that writes version 5 and
still reads the old one.

A declared shape the rest of the file cannot hold (refused before anything
is allocated), a payload that does not hold exactly the array's values, a
non-finite value in any record, a missing or mismatched checksum, an array
whose shape does not fit the model's sizes and a factor with a diagonal
entry that is not positive fail the load. Both directions stream the file
record by record, so neither holds the whole file in memory.
"""

from __future__ import annotations

import math
import os
import stat
import zlib

import numpy as np

from .errors import ModelError, ModelIOError
from .model import AdapterBank, ModelState, TaskHead, TrainStats, TrunkParams

FORMAT_NAME = "opencil-model"
FORMAT_VERSION = 5

__all__ = ["save_model", "load_model"]


class _Writer:
    """Writes records to a file opened in binary mode as they are produced."""

    def __init__(self, fh) -> None:
        self.fh = fh
        self.line(f"{FORMAT_NAME} {FORMAT_VERSION}")

    def line(self, text: str) -> None:
        self.fh.write(text.encode("ascii") + b"\n")

    def meta(self, name: str, value) -> None:
        text = f"{value:.17g}" if isinstance(value, float) else str(int(value))
        self.line(f"meta {name} {text}")

    def array(self, name: str, arr: np.ndarray) -> None:
        arr = np.ascontiguousarray(arr, dtype="<f8")
        self.line(f"array {name} {' '.join(str(s) for s in arr.shape)}")
        self.fh.write(arr)
        self.fh.write(b"\n")
        self.line(f"crc32 {name} {zlib.crc32(arr):08x}")


def save_model(model: ModelState, path: str) -> None:
    """Write every weight and statistic of the model to ``path``.

    Only the lower triangle of a whitening factor is stored, so a factor
    with any other entry fails before the file is opened.
    """
    hidden = model.hidden_width
    for t, stats in enumerate(model.stats[:model.trained_tasks]):
        factor = stats.whitening_factor
        if factor.shape != (hidden, hidden) or np.triu(factor, 1).any():
            raise ModelError(f"whitening factor of task {t} is not a lower-triangular "
                             f"{hidden} x {hidden} array")
    lower = np.tri(hidden, dtype=bool)
    with open(path, "wb") as fh:
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
            w.array(f"stats_factor_{t}", stats.whitening_factor[lower])
            w.array(f"stats_meanact_{t}", stats.mean_activations)
            w.meta(f"stats_react_{t}", float(stats.react_threshold))
        w.line("end")


class _Reader:
    """Reads the records of a model file opened in binary mode."""

    def __init__(self, path: str, fh) -> None:
        self.fh = fh
        self.path = path
        # bytes not read yet; a pipe's are unknown
        info = os.fstat(fh.fileno())
        self.unread = info.st_size if stat.S_ISREG(info.st_mode) else math.inf
        self.metas: dict[str, str] = {}
        self.arrays: dict[str, np.ndarray] = {}
        # whitening factors unpacked as they are read, through one packed
        # buffer reused across tasks, and the mask of their lower triangle
        self.factors: dict[str, np.ndarray] = {}
        self._packed: np.ndarray | None = None
        self._lower: np.ndarray | None = None

    def fail(self, why: str):
        raise ModelIOError(f"{self.path}: {why}")

    def next_record(self) -> list[str]:
        """The fields of the next line, which must be UTF-8 text."""
        line = self.fh.readline()
        if not line:
            self.fail("truncated model file (missing 'end')")
        self.unread -= len(line)
        try:
            return line.decode("utf-8").split()
        except UnicodeDecodeError:
            self.fail(f"not a model file (not UTF-8 text: {line[:80]!r})")

    def parse(self) -> None:
        header = self.next_record()
        if len(header) != 2 or header[0] != FORMAT_NAME:
            self.fail("not a model file (bad header)")
        if header[1] != str(FORMAT_VERSION):
            self.fail(f"unsupported model file version {header[1]} (this build reads "
                      f"version {FORMAT_VERSION} only; re-save an older file with an "
                      f"earlier build)")
        while True:
            fields = self.next_record()
            if not fields:
                self.fail("blank line inside model file")
            if fields[0] == "end":
                return
            if fields[0] == "meta":
                if len(fields) != 3:
                    self.fail(f"malformed meta record: {' '.join(fields)!r}")
                if fields[1] in self.metas:
                    self.fail(f"duplicate meta record {fields[1]!r}")
                self.metas[fields[1]] = fields[2]
            elif fields[0] == "array":
                self._read_array(fields)
            else:
                self.fail(f"unknown record type {fields[0]!r}")

    def _read_array(self, fields: list[str]) -> None:
        if len(fields) < 3:
            self.fail(f"malformed array record: {' '.join(fields)!r}")
        name = fields[1]
        if name in self.arrays or name in self.factors:
            self.fail(f"duplicate array record {name!r}")
        try:
            shape = tuple(int(s) for s in fields[2:])
        except ValueError:
            self.fail(f"bad shape in array record {name!r}")
        if len(shape) > 2 or min(shape) < 0:
            self.fail(f"bad shape in array record {name!r}")
        # the payload and its line break, so that a size the file cannot
        # hold is refused before anything is allocated
        if 8 * math.prod(shape) + 1 > self.unread:
            self.fail(f"array {name!r} of shape {' '.join(fields[2:])} does not fit in "
                      f"the rest of the file (bad shape, or truncated model file)")
        width = self._factor_width(name, shape)
        # one hidden_width gives every factor the shape of the reused buffer
        values = self._packed if width else None
        if values is None:
            try:
                values = np.empty(shape, dtype="<f8")
            except (ValueError, MemoryError):  # a pipe's shape numpy cannot allocate
                self.fail(f"bad shape in array record {name!r}")
        self._read_payload(name, values)
        if not np.isfinite(values).all():
            self.fail(f"non-finite value in array {name!r}")
        crc = self.next_record()
        if len(crc) != 3 or crc[:2] != ["crc32", name]:
            self.fail(f"array {name!r} has no checksum record")
        if crc[2] != f"{zlib.crc32(values):08x}":
            self.fail(f"array {name!r} does not match its checksum")
        if not width:
            self.arrays[name] = values
            return
        if self._lower is None:
            self._lower = np.tri(width, dtype=bool)
        self._packed = values
        self.factors[name] = _unpack_lower(values, self._lower)

    def _factor_width(self, name: str, shape: tuple) -> int:
        """h if ``name`` is a whitening factor of the packed length that the
        hidden_width already read implies, else 0: such a factor is unpacked
        as it is read, and any other goes through the shape checks of load."""
        try:
            hidden = int(self.metas.get("hidden_width", ""))
        except ValueError:
            return 0
        if (hidden >= 1 and name.startswith("stats_factor_")
                and shape == (hidden * (hidden + 1) // 2,)):
            return hidden
        return 0

    def _read_payload(self, name: str, values: np.ndarray) -> None:
        """Fill ``values`` from its payload and the line break after it."""
        got = self.fh.readinto(values)  # all of it unless the file ends, from a pipe too
        self.unread -= got + 1
        if got < values.nbytes:
            self.fail(f"truncated model file (array {name!r} holds {got} of "
                      f"{values.nbytes} bytes)")
        if self.fh.read(1) != b"\n":
            self.fail(f"array {name!r} is not {values.nbytes} bytes followed by a line break")

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
    ``classes_per_task`` and the head's OOD flag imply, and every whitening
    factor a positive diagonal. Only version 5 files load.
    """
    with open(path, "rb") as fh:
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
        model.stats.append(TrainStats(
            class_means=r.array(f"stats_means_{t}", (classes_per_task, hidden)),
            whitening_factor=_read_factor(r, t, hidden),
            mean_activations=r.array(f"stats_meanact_{t}", (hidden,)),
            react_threshold=r.meta(f"stats_react_{t}"),
        ))
    return model


def _unpack_lower(packed: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """The square array whose lower triangle, masked by ``lower``, holds
    ``packed``: a boolean mask visits its entries in row-major order, as the
    writer stored them."""
    factor = np.zeros(lower.shape)
    factor[lower] = packed
    return factor


def _read_factor(r: _Reader, task: int, hidden: int) -> np.ndarray:
    """One task's whitening factor, unpacked while the file was read or now."""
    name = f"stats_factor_{task}"
    factor = r.factors.get(name)
    if factor is None:
        factor = _unpack_lower(r.array(name, (hidden * (hidden + 1) // 2,)),
                               np.tri(hidden, dtype=bool))
    if not (np.diagonal(factor) > 0).all():
        r.fail(f"array {name!r} is not a whitening factor (a diagonal entry is not positive)")
    return factor
