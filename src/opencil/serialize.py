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

The records come in one fixed order, and load reads them in the order save
writes them: each read names the record that must come next, so a missing,
duplicate, unknown or moved record fails as "expected record X, got Y".

A task's Mahalanobis statistics are its whitening factor F, the lower
Cholesky factor of the inverse tied covariance, stored as the packed lower
triangle in row-major order (``stats_factor_<t>``, h(h+1)/2 values). The
hidden width h comes earlier in the file, so load reads every factor
through one packed buffer that all tasks share, unpacks it, and checks
that F's diagonal is positive instead of factorising anything.

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

from .errors import ModelIOError
from .model import AdapterBank, ModelState, TaskHead, TrainStats, TrunkParams, _check_model

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

    A model that is not whole (``model._check_model``) fails before the file
    is opened. Its whitening factors are lower-triangular, so only their lower
    triangle is stored.
    """
    _check_model(model)
    lower = np.tri(model.hidden_width, dtype=bool)
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
        for t, (embedding, head, stats) in enumerate(
                zip(model.adapters.task_embeddings, model.heads, model.stats)):
            w.array(f"embedding_{t}", embedding)
            w.array(f"head_weights_{t}", head.weights)
            w.array(f"head_bias_{t}", head.bias)
            w.meta(f"head_ood_{t}", 1 if head.ood_logit_present else 0)
            w.array(f"stats_means_{t}", stats.class_means)
            w.array(f"stats_factor_{t}", stats.whitening_factor[lower])
            w.array(f"stats_meanact_{t}", stats.mean_activations)
            w.meta(f"stats_react_{t}", float(stats.react_threshold))
        w.line("end")


class _Reader:
    """Reads the records of a model file opened in binary mode, in the order
    :func:`save_model` writes them."""

    def __init__(self, path: str, fh) -> None:
        self.fh = fh
        self.path = path
        # bytes not read yet; a pipe's are unknown
        info = os.fstat(fh.fileno())
        self.unread = info.st_size if stat.S_ISREG(info.st_mode) else math.inf
        # the packed buffer that every whitening factor is read through, and
        # the mask of the factors' lower triangle
        self._packed: np.ndarray | None = None
        self._lower: np.ndarray | None = None
        header = fh.readline()
        self.unread -= len(header)
        fields = header.split()
        if len(fields) != 2 or fields[0] != FORMAT_NAME.encode():
            self.fail("not a model file (bad header)")
        if fields[1] != str(FORMAT_VERSION).encode():
            self.fail(f"unsupported model file version {fields[1].decode(errors='replace')} "
                      f"(this build reads version {FORMAT_VERSION} only; re-save an older "
                      f"file with an earlier build)")

    def fail(self, why: str):
        raise ModelIOError(f"{self.path}: {why}")

    def record(self, *want: str) -> list[str]:
        """The fields after ``want`` of the next line, which must be UTF-8
        text whose fields start with ``want``."""
        expected = " ".join(want)
        line = self.fh.readline()
        if not line:
            self.fail(f"truncated model file (expected record {expected!r})")
        self.unread -= len(line)
        try:
            fields = line.decode("utf-8").split()
        except UnicodeDecodeError:
            self.fail(f"not a model file (not UTF-8 text: {line[:80]!r})")
        if fields[:len(want)] != list(want):
            self.fail(f"expected record {expected!r}, got {' '.join(fields)[:80]!r}")
        return fields[len(want):]

    def meta(self, name: str, cast=float):
        values = self.record("meta", name)
        try:
            (text,) = values
            value = cast(text)
        except ValueError:
            self.fail(f"bad value in meta record {name!r}")
        if not math.isfinite(value):
            self.fail(f"non-finite value in meta record {name!r}")
        return value

    def array(self, name: str, shape: tuple, values: np.ndarray | None = None) -> np.ndarray:
        """The values of array ``name``, which must have ``shape`` (None
        matches any length), read into ``values`` if given."""
        dims = self.record("array", name)
        try:
            got = tuple(int(s) for s in dims)
        except ValueError:
            self.fail(f"bad shape in array record {name!r}")
        if not 0 < len(got) <= 2 or min(got) < 0:
            self.fail(f"bad shape in array record {name!r}")
        self.check_shape(name, got, shape)
        # the payload and its line break, so that a size the file cannot
        # hold is refused before anything is allocated
        if 8 * math.prod(got) + 1 > self.unread:
            self.fail(f"array {name!r} of shape {' '.join(dims)} does not fit in the rest "
                      f"of the file (bad shape, or truncated model file)")
        if values is None:
            try:
                values = np.empty(got, dtype="<f8")
            except (ValueError, MemoryError):  # a pipe's shape numpy cannot allocate
                self.fail(f"bad shape in array record {name!r}")
        self._read_payload(name, values)
        if not np.isfinite(values).all():
            self.fail(f"non-finite value in array {name!r}")
        if self.record("crc32", name) != [f"{zlib.crc32(values):08x}"]:
            self.fail(f"array {name!r} does not match its checksum")
        return values

    def check_shape(self, name: str, got: tuple, shape: tuple) -> None:
        if len(got) != len(shape) or any(
                want is not None and g != want for g, want in zip(got, shape)):
            expected = " ".join("*" if s is None else str(s) for s in shape)
            self.fail(f"array {name!r} has shape {' '.join(map(str, got))}, "
                      f"expected {expected}")

    def factor(self, name: str, hidden: int) -> np.ndarray:
        """A whitening factor, read packed through the one reused buffer."""
        self._packed = self.array(name, (hidden * (hidden + 1) // 2,), self._packed)
        if self._lower is None:
            self._lower = np.tri(hidden, dtype=bool)
        # a boolean mask visits its entries in row-major order, as save_model stored them
        factor = np.zeros((hidden, hidden))
        factor[self._lower] = self._packed
        if not (np.diagonal(factor) > 0).all():
            self.fail(f"array {name!r} is not a whitening factor (a diagonal entry is not "
                      f"positive)")
        return factor

    def _read_payload(self, name: str, values: np.ndarray) -> None:
        """Fill ``values`` from its payload and the line break after it."""
        got = self.fh.readinto(values)  # all of it unless the file ends, from a pipe too
        self.unread -= got + 1
        if got < values.nbytes:
            self.fail(f"truncated model file (array {name!r} holds {got} of "
                      f"{values.nbytes} bytes)")
        if self.fh.read(1) != b"\n":
            self.fail(f"array {name!r} is not {values.nbytes} bytes followed by a line break")


def load_model(path: str) -> ModelState:
    """Rebuild a model from a file written by :func:`save_model`.

    The records are read in the order the writer writes them, so a missing,
    duplicate, unknown or moved record fails as the record that was expected
    there, and the file must end at its ``end`` record. Every array must
    have the shape that ``dim_in``, ``hidden_width``, ``classes_per_task``
    and the head's OOD flag imply, and every whitening factor a positive
    diagonal. Only version 5 files load.
    """
    with open(path, "rb") as fh:
        r = _Reader(path, fh)
        dim_in = r.meta("dim_in", int)
        projection = (r.array("trunk_projection", (dim_in, None))
                      if r.meta("has_projection", int) else None)
        hidden = r.meta("hidden_width", int)
        slope_max = r.meta("slope_max")
        trained_tasks = r.meta("trained_tasks", int)
        classes_per_task = r.meta("classes_per_task", int)
        if dim_in < 1 or hidden < 1 or trained_tasks < 0:
            r.fail(f"bad sizes: dim_in {dim_in}, hidden_width {hidden}, "
                   f"trained_tasks {trained_tasks}")
        if classes_per_task < 1 and (classes_per_task != -1 or trained_tasks > 0):
            r.fail(f"bad classes_per_task {classes_per_task} for {trained_tasks} "
                   f"trained task(s)")
        trunk = TrunkParams(dim_in, projection)
        adapters = AdapterBank(
            weights=r.array("adapter_weights", (trunk.dim_out, hidden)),
            bias=r.array("adapter_bias", (hidden,)),
            task_embeddings=[],
            slope_max=slope_max,
        )
        model = ModelState(trunk, adapters,
                           classes_per_task=None if classes_per_task < 0 else classes_per_task)
        for t in range(trained_tasks):
            adapters.task_embeddings.append(r.array(f"embedding_{t}", (hidden,)))
            # the OOD flag that sets the head's width follows the head
            weights = r.array(f"head_weights_{t}", (hidden, None))
            bias = r.array(f"head_bias_{t}", (None,))
            ood = bool(r.meta(f"head_ood_{t}", int))
            logits = classes_per_task + (1 if ood else 0)
            r.check_shape(f"head_weights_{t}", weights.shape, (hidden, logits))
            r.check_shape(f"head_bias_{t}", bias.shape, (logits,))
            model.heads.append(TaskHead(weights, bias, ood_logit_present=ood))
            model.stats.append(TrainStats(
                class_means=r.array(f"stats_means_{t}", (classes_per_task, hidden)),
                whitening_factor=r.factor(f"stats_factor_{t}", hidden),
                mean_activations=r.array(f"stats_meanact_{t}", (hidden,)),
                react_threshold=r.meta(f"stats_react_{t}"),
            ))
        r.record("end")
        if fh.read(1):
            r.fail("unexpected bytes after end")
    return model
