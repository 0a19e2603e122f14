"""Detector values and the helpers that post-hoc rectification shares.

Four detector kinds share one head-evaluation contract: Base applies the
head unchanged, ReAct clips activations at a threshold fitted on training
activations, DICE sparsifies the head weights by contribution, and SCALE
multiplies activations by a per-sample factor derived from their own
percentile mass. The rectifications themselves are computed batched, for
every head at once, in ``pipeline``; this module holds the ``Detector``
value, the DICE keep-mask and the nearest-rank percentile that every
percentile computation in the package uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import check_percentile

DETECTOR_KINDS = ("base", "react", "dice", "scale")
DEFAULT_PERCENTILES = {"dice": 85.0, "scale": 85.0}

__all__ = [
    "DETECTOR_KINDS",
    "DEFAULT_PERCENTILES",
    "Detector",
    "percentile",
    "build_dice_mask",
    "dice_keep_count",
]


@dataclass(frozen=True)
class Detector:
    """A detector kind plus its percentile parameter.

    Only dice and scale read a percentile; leaving it unset selects their
    default of 85. Base reads none, and react clips at the threshold fitted
    at train time, so both refuse one and keep ``percentile`` None.
    """

    kind: str
    percentile: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in DETECTOR_KINDS:
            raise ValueError(
                f"unknown detector {self.kind!r}; expected one of {DETECTOR_KINDS}"
            )
        p = self.percentile
        if self.kind not in DEFAULT_PERCENTILES:
            if p is not None:
                raise ValueError(f"detector {self.kind!r} reads no percentile, got {p}")
            return
        p = DEFAULT_PERCENTILES[self.kind] if p is None else p
        check_percentile("percentile", p, ValueError)
        object.__setattr__(self, "percentile", float(p))


def _nearest_rank_index(p: float, n: int) -> int:
    """1-based nearest-rank index into an ascending sort of n values."""
    if p <= 0.0:
        return 1
    # the epsilon absorbs float fuzz like 0.9 * 10 -> 9.000000000000002
    k = math.ceil(p * n / 100.0 - 1e-9)
    return min(max(k, 1), n)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the element at 1-based index ceil(p/100 * n).

    p = 0 returns the minimum, p = 100 the maximum.
    """
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size == 0:
        raise ValueError("percentile of empty sequence")
    check_percentile("percentile", p, ValueError)
    k = _nearest_rank_index(p, arr.size) - 1
    # partition places at k the element an ascending sort would put there
    return float(np.partition(arr, k)[k])


def dice_keep_count(p: float, width: int) -> int:
    """Entries kept per output row: ceil((100-p)/100 * width), at least 1."""
    return _nearest_rank_index(100.0 - p, width)


def build_dice_mask(weights: np.ndarray, mean_activations: np.ndarray, p: float) -> np.ndarray:
    """Binary keep-mask over a (n_outputs, n_inputs) weight matrix.

    The contribution of weight (i, j) is weights[i, j] times the j-th
    mean training activation; each output row keeps its top
    ceil((100-p)/100 * n_inputs) contributions, breaking ties toward the
    lower input index.
    """
    weights = np.asarray(weights, dtype=np.float64)
    mean_activations = np.asarray(mean_activations, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
    if mean_activations.shape != (weights.shape[1],):
        raise ValueError(
            f"mean_activations length {mean_activations.shape} does not match "
            f"weight input width {weights.shape[1]}"
        )
    contribution = weights * mean_activations
    keep = dice_keep_count(p, weights.shape[1])
    # stable sort on the negated contributions keeps lower indices first on ties
    order = np.argsort(-contribution, axis=1, kind="stable")
    mask = np.zeros_like(weights)
    rows = np.repeat(np.arange(weights.shape[0]), keep)
    cols = order[:, :keep].ravel()
    mask[rows, cols] = 1.0
    return mask
