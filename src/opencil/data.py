"""Labeled feature-vector datasets and incremental task streams.

Datasets are flat tables of real-valued feature vectors with dense
integer class labels. The interchange format is CSV with a header row
``label,f0,...,f{d-1}``; features are written with 9 significant digits.
Class ids run densely from 0; a class with no samples is an error, never
silently tolerated.

A task stream partitions one dataset into consecutive groups of classes
with disjoint label spaces, preserving the original class order: task k
of a stream with c classes per task owns classes [k*c, (k+1)*c).

All types are immutable after construction and all operations are pure
given their seed, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, check_integer, check_positive, check_shape
from .rng import substream

__all__ = [
    "Dataset",
    "SynthSpec",
    "TaskStream",
    "load_csv",
    "save_csv",
    "synth_gaussian",
    "split_tasks",
    "holdout",
    "task_local",
]


@dataclass(frozen=True)
class Dataset:
    """A table of feature vectors with integer class labels.

    ``features`` has shape (n, dim) and ``labels`` shape (n,). The class
    count is inferred as ``1 + max(labels)``. Both are kept read-only, and an
    array that does not own its data is copied first.
    """

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        labs = np.asarray(self.labels)
        if labs.dtype.kind == "f":  # the int64 cast would wrap or truncate these
            whole = np.isfinite(labs) & (labs == np.round(labs)) & (np.abs(labs) < 2.0**63)
            if not whole.all():
                raise DataError(f"class labels must be whole numbers, got {labs[~whole][0]}")
        labs = np.ascontiguousarray(labs, dtype=np.int64)
        # a view is copied: a write through the array it views would change it
        feats = feats if feats.base is None else feats.copy()
        labs = labs if labs.base is None else labs.copy()
        if feats.ndim != 2:
            raise DataError(f"features must be 2-D, got shape {feats.shape}")
        if labs.ndim != 1 or len(labs) != len(feats):
            raise DataError(
                f"labels must be 1-D with one entry per row, got shape {labs.shape}"
            )
        if len(feats) == 0:
            raise DataError("dataset has no samples")
        if labs.min() < 0:
            raise DataError(f"negative class label {labs.min()}")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    def class_indices(self, label: int) -> np.ndarray:
        return np.flatnonzero(self.labels == label)

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices])


def _require_dense_classes(dataset: Dataset) -> Dataset:
    counts = np.bincount(dataset.labels, minlength=dataset.num_classes)
    empty = np.flatnonzero(counts == 0)
    if len(empty):
        raise DataError(
            f"class {int(empty[0])} has no samples "
            f"(labels must be dense integers from 0)"
        )
    return dataset


def load_csv(path: str) -> Dataset:
    """Read a dataset from CSV with header ``label,f0,...,f{d-1}``.

    Rows are numbered from 1 with the header as row 1; every parse
    failure reports the offending row. A label that leaves a class empty
    whatever the other rows hold, one at or above the number of data rows,
    is refused before any array is sized by it.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        # the row of the first bad byte; the sentinel stands in for that byte
        row = len((raw[:exc.start].decode("utf-8") + "?").splitlines())
        raise DataError(f"{path}: row {row} is not UTF-8 text") from None
    if not lines or not lines[0].strip():
        raise DataError(f"empty file: {path}")

    header = lines[0].split(",")
    dim = len(header) - 1
    expected = ["label"] + [f"f{i}" for i in range(dim)]
    if dim < 1 or header != expected:
        raise DataError(
            f"malformed header at row 1: expected 'label,f0,...,f{{d-1}}', "
            f"got {lines[0]!r}"
        )

    features = []
    labels = []
    rownums = []
    for rownum, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != dim + 1:
            raise DataError(
                f"inconsistent width at row {rownum}: expected {dim + 1} "
                f"fields, got {len(fields)}"
            )
        try:
            label = int(fields[0])
        except ValueError:
            raise DataError(f"non-numeric label at row {rownum}: {fields[0]!r}") from None
        if label < 0:
            raise DataError(f"negative label at row {rownum}: {label}")
        try:
            row = [float(v) for v in fields[1:]]
        except ValueError:
            raise DataError(f"non-numeric field at row {rownum}") from None
        labels.append(label)
        features.append(row)
        rownums.append(rownum)
    if not features:
        raise DataError(f"no data rows in {path}")
    top, n = max(labels), len(labels)
    if top >= n:  # n rows cannot fill classes 0..top
        seen = set(labels)
        empty = next(c for c in range(n) if c not in seen)
        raise DataError(f"class {empty} has no samples: label {top} at row "
                        f"{rownums[labels.index(top)]} is not below the {n} data rows "
                        f"(labels must be dense integers from 0)")
    features = np.asarray(features)
    non_finite = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if non_finite.size:
        raise DataError(f"non-finite field at row {rownums[non_finite[0]]}")
    return _require_dense_classes(Dataset(features, np.asarray(labels)))


def save_csv(dataset: Dataset, path: str) -> None:
    """Write a dataset as CSV, features with 9 significant digits."""
    # one template per row over Python floats, whose "%.9g" is numpy's f"{v:.9g}"
    row = "%d," + ",".join(["%.9g"] * dataset.dim) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label," + ",".join(f"f{i}" for i in range(dataset.dim)) + "\n")
        fh.writelines(row % (label, *values) for label, values
                      in zip(dataset.labels.tolist(), dataset.features.tolist()))


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic Gaussian-blob dataset.

    ``mean_separation`` is the exact pairwise distance between class
    means, in units of the (unit) within-class standard deviation. It is
    checked when made, down to the sizes of the arrays ``synth_gaussian`` draws.
    """

    num_classes: int
    dim: int
    per_class: int
    mean_separation: float
    seed: int

    def __post_init__(self) -> None:
        for name, minimum in (("num_classes", 2), ("dim", 1), ("per_class", 2), ("seed", 0)):
            check_integer(name, getattr(self, name), DataError, minimum)
        check_positive("mean_separation", self.mean_separation, DataError)
        if self.num_classes > self.dim:
            raise DataError(f"dim {self.dim} too small to place {self.num_classes} class "
                            f"means at separation {self.mean_separation:g}; minimum "
                            f"feasible dim is {self.num_classes}")
        check_shape("rotation", (self.dim, self.dim), DataError)
        check_shape("features", (self.num_classes, self.per_class, self.dim), DataError)


def synth_gaussian(spec: SynthSpec) -> Dataset:
    """Draw ``per_class`` unit-variance isotropic Gaussian samples per class.

    Class means sit on randomly rotated orthogonal axes scaled so every
    pair of means is exactly ``mean_separation`` apart, which needs at
    least ``num_classes`` dimensions. Identical specs produce identical
    datasets.
    """
    rng = substream(spec.seed, "synth")
    square = rng.standard_normal((spec.dim, spec.dim))
    q, r = np.linalg.qr(square)
    q = q * np.sign(np.diag(r))  # sign fix keeps the rotation deterministic
    scale = spec.mean_separation / math.sqrt(2.0)
    means = scale * q[:, : spec.num_classes].T

    features = np.concatenate(
        [
            means[c] + rng.standard_normal((spec.per_class, spec.dim))
            for c in range(spec.num_classes)
        ]
    )
    labels = np.repeat(np.arange(spec.num_classes), spec.per_class)
    return Dataset(features, labels)


def holdout(dataset: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Split a dataset into (train, test), stratified per class.

    Each class contributes floor(n_c * test_fraction) test samples,
    chosen deterministically from the seed; the outputs partition the
    input and preserve the original sample order.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must lie in (0, 1), got {test_fraction}")
    check_integer("seed", seed, DataError, 0)
    rng = substream(seed, "holdout")
    test_mask = np.zeros(len(dataset), dtype=bool)
    for c in range(dataset.num_classes):
        idx = dataset.class_indices(c)
        if len(idx) < 2:
            raise DataError(f"class {c} has {len(idx)} sample(s); need at least 2")
        take = int(math.floor(len(idx) * test_fraction))
        picked = rng.choice(idx, size=take, replace=False)
        test_mask[picked] = True
    train = Dataset(dataset.features[~test_mask], dataset.labels[~test_mask])
    test = Dataset(dataset.features[test_mask], dataset.labels[test_mask])
    return _require_dense_classes(train), _require_dense_classes(test)


@dataclass(frozen=True)
class TaskStream:
    """Ordered (train, test) dataset pairs with disjoint label spaces."""

    tasks: tuple[tuple[Dataset, Dataset], ...]
    classes_per_task: int

    @property
    def num_tasks(self) -> int:
        return len(self.tasks)

    @property
    def num_classes(self) -> int:
        return self.num_tasks * self.classes_per_task

    def task_range(self, task: int) -> tuple[int, int]:
        lo = task * self.classes_per_task
        return lo, lo + self.classes_per_task


def split_tasks(train: Dataset, test: Dataset, num_tasks: int) -> TaskStream:
    """Partition matching train/test datasets into ``num_tasks`` tasks.

    Task k receives exactly classes [k*c, (k+1)*c) with c the class
    count divided by ``num_tasks``, in the original class order.
    """
    check_integer("num_tasks", num_tasks, DataError, 1)
    if train.dim != test.dim:
        raise DataError(
            f"train and test dims differ: {train.dim} vs {test.dim}"
        )
    if train.num_classes != test.num_classes:
        raise DataError(
            f"train and test class counts differ: "
            f"{train.num_classes} vs {test.num_classes}"
        )
    total = train.num_classes
    if total % num_tasks != 0:
        raise DataError(
            f"{total} classes cannot be split into {num_tasks} equal tasks"
        )
    per_task = total // num_tasks

    pairs = []
    for k in range(num_tasks):
        lo, hi = k * per_task, (k + 1) * per_task
        sides = []
        for side, name in ((train, "train"), (test, "test")):
            mask = (side.labels >= lo) & (side.labels < hi)
            part = side.subset(np.flatnonzero(mask))
            present = np.unique(part.labels)
            if len(present) != per_task:
                missing = sorted(set(range(lo, hi)) - set(present.tolist()))
                raise DataError(
                    f"task {k} {name} split is missing class {missing[0]}"
                )
            sides.append(part)
        pairs.append((sides[0], sides[1]))
    return TaskStream(tuple(pairs), per_task)


def task_local(dataset: Dataset, task: int, classes_per_task: int) -> Dataset:
    """Remap a task's global labels onto [0, classes_per_task)."""
    check_integer("task", task, DataError, 0)
    check_integer("classes_per_task", classes_per_task, DataError, 1)
    lo = task * classes_per_task
    hi = lo + classes_per_task
    labels = dataset.labels
    if labels.min() < lo or labels.max() >= hi:
        raise DataError(
            f"labels outside task {task} range [{lo}, {hi}): "
            f"found [{labels.min()}, {labels.max()}]"
        )
    return Dataset(dataset.features, labels - lo)
