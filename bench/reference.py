"""Plain-numpy reference for the program's inference outputs.

Nothing here imports opencil. The reference reads a trained model's
weights and re-derives every training statistic (class means, tied
covariance, mean activations, ReAct threshold) from the training data
itself, then recomputes per-head scores, task-ids and classes from the
formulas the README states. Where the program inverts the covariance,
the reference whitens with a Cholesky factor instead, so the two agree
only when both follow the same mathematics.

Statistics are derived from the adapter weights as they stood when each
task finished training: later tasks still move adapter units whose
earlier masks are not fully saturated, and the program freezes each
task's statistics at the end of its training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

REACT_PERCENTILE = 90
DICE_PERCENTILE = 85
SCALE_PERCENTILE = 85
COVARIANCE_RIDGE = 1e-4
TEMPERATURE = 1.0

DETECTORS = ("base", "react", "dice", "scale")
SCORERS = ("sm", "smmd", "en", "enmd")


def nearest_rank(p: float, n: int) -> int:
    """1-based index ceil(p/100 * n), clamped to [1, n], in exact arithmetic."""
    k = math.ceil(Fraction(p) * n / 100)
    return min(max(k, 1), n)


def gate(embedding: np.ndarray, slope: float) -> np.ndarray:
    """sigmoid(slope * e), written as exp(-softplus(-x)) to avoid overflow."""
    return np.exp(-np.logaddexp(0.0, -slope * np.asarray(embedding, dtype=np.float64)))


@dataclass
class HeadReference:
    """One task's head, gate and re-derived statistics."""

    weights: np.ndarray  # (hidden, C) without any OOD column
    bias: np.ndarray  # (C,)
    mask: np.ndarray  # (hidden,) saturated gate
    whiten: np.ndarray  # (hidden, hidden): L^-1 with L L^T = tied covariance + ridge
    white_means: np.ndarray  # (C, hidden): class means mapped through L^-1
    mean_activations: np.ndarray  # (hidden,)
    react_threshold: float
    dice_weights: np.ndarray  # (hidden, C) weights times the DICE keep-mask


class Reference:
    """Per-head scores, task-ids and classes of a trained model.

    ``weights`` is a dict with keys ``projection`` (or None),
    ``adapter_weights``, ``adapter_bias``, ``embeddings``, ``slope``,
    ``heads`` (list of (weights, bias, has_ood_logit)) and
    ``classes_per_task``. ``train_sets`` holds each task's (features,
    local labels); ``snapshots`` each task's (adapter weights, adapter
    bias) at the end of its training.
    """

    def __init__(self, weights: dict, train_sets, snapshots):
        self.projection = weights["projection"]
        self.adapter_weights = weights["adapter_weights"]
        self.adapter_bias = weights["adapter_bias"]
        self.classes_per_task = weights["classes_per_task"]
        slope = weights["slope"]
        self.heads = []
        for t, (head_w, head_b, has_ood) in enumerate(weights["heads"]):
            if has_ood:
                head_w, head_b = head_w[:, :-1], head_b[:-1]
            mask = gate(weights["embeddings"][t], slope)
            features, local_labels = train_sets[t]
            snap_w, snap_b = snapshots[t]
            z = self._gated(features, snap_w, snap_b, mask)
            self.heads.append(_derive_head(head_w, head_b, mask, z, local_labels))

    def _gated(self, x, adapter_w, adapter_b, mask):
        trunk = x if self.projection is None else x @ self.projection
        return np.maximum(trunk @ adapter_w + adapter_b, 0.0) * mask

    def activations(self, x: np.ndarray, task: int) -> np.ndarray:
        return self._gated(x, self.adapter_weights, self.adapter_bias, self.heads[task].mask)

    def head_scores(self, x: np.ndarray, detector: str, scorer: str) -> np.ndarray:
        """(n, T) in-distribution score of every sample under every head."""
        columns = []
        for t, head in enumerate(self.heads):
            z = self.activations(x, t)
            logits = _rectified_logits(head, z, detector)
            columns.append(_score(head, z, logits, scorer))
        return np.column_stack(columns)

    def classes_by_head(self, x: np.ndarray) -> np.ndarray:
        """(n, T) global class each head predicts from its unrectified logits."""
        columns = []
        for t, head in enumerate(self.heads):
            logits = self.activations(x, t) @ head.weights + head.bias
            columns.append(np.argmax(logits, axis=1) + t * self.classes_per_task)
        return np.column_stack(columns)


def _derive_head(head_w, head_b, mask, z, local_labels) -> HeadReference:
    n, hidden = z.shape
    n_classes = head_w.shape[1]
    means = np.stack([z[local_labels == c].mean(axis=0) for c in range(n_classes)])
    centered = z - means[local_labels]
    tied = centered.T @ centered / n
    trace = float(np.trace(tied))
    ridge = COVARIANCE_RIDGE * trace / hidden if trace > 0 else COVARIANCE_RIDGE
    chol = np.linalg.cholesky(tied + ridge * np.eye(hidden))
    whiten = np.linalg.solve(chol, np.eye(hidden))

    mean_act = z.mean(axis=0)
    pooled = np.sort(z.ravel())
    react = float(pooled[nearest_rank(REACT_PERCENTILE, pooled.size) - 1])

    # DICE: per class, keep the top ceil(15% of hidden) contributions w * mean
    # activation; a stable sort on the negated values keeps lower units on ties
    keep = nearest_rank(100 - DICE_PERCENTILE, hidden)
    contribution = head_w * mean_act[:, None]
    order = np.argsort(-contribution, axis=0, kind="stable")
    keep_mask = np.zeros_like(head_w)
    np.put_along_axis(keep_mask, order[:keep], 1.0, axis=0)

    return HeadReference(
        weights=head_w, bias=head_b, mask=mask, whiten=whiten,
        white_means=means @ whiten.T, mean_activations=mean_act,
        react_threshold=react, dice_weights=head_w * keep_mask,
    )


def _rectified_logits(head: HeadReference, z: np.ndarray, detector: str) -> np.ndarray:
    if detector == "base":
        return z @ head.weights + head.bias
    if detector == "react":
        return np.minimum(z, head.react_threshold) @ head.weights + head.bias
    if detector == "dice":
        return z @ head.dice_weights + head.bias
    if detector == "scale":
        k = nearest_rank(SCALE_PERCENTILE, z.shape[1])
        factors = np.ones(len(z))
        for i, row in enumerate(z):
            if row.sum() > 0:
                threshold = np.sort(row)[k - 1]
                factors[i] = math.exp(row.sum() / row[row >= threshold].sum())
        return (z * factors[:, None]) @ head.weights + head.bias
    raise ValueError(f"unknown detector {detector!r}")


def _score(head: HeadReference, z: np.ndarray, logits: np.ndarray, scorer: str) -> np.ndarray:
    if scorer in ("sm", "smmd"):
        base = 1.0 / np.exp(logits - logits.max(axis=1, keepdims=True)).sum(axis=1)
    else:
        base = TEMPERATURE * np.logaddexp.reduce(logits / TEMPERATURE, axis=1)
    if scorer in ("sm", "en"):
        return base
    white = z @ head.whiten.T
    distances = ((white[:, None, :] - head.white_means[None, :, :]) ** 2).sum(axis=2)
    d_min = distances.min(axis=1)
    return base / (1.0 + d_min) if scorer == "smmd" else base - np.log1p(d_min)


def pairwise_auc(ind: np.ndarray, ood: np.ndarray) -> float:
    """P(ind > ood) + 0.5 P(ind == ood) by comparing every pair."""
    wins = 0.0
    for chunk in np.array_split(ind, max(1, len(ind) // 256)):
        wins += (chunk[:, None] > ood[None, :]).sum() + 0.5 * (chunk[:, None] == ood[None, :]).sum()
    return float(wins / (len(ind) * len(ood)))
