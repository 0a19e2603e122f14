"""Closed-world accuracy metrics, score-separability metrics, and
accuracy-rejection curves.

Closed-world: last classification accuracy (the final step's accuracy
over all seen classes), average incremental accuracy (mean of per-step
accuracies), and average forgetting (mean per-task accuracy decline from
when the task was first learned to the final step; improvements make it
negative).

Open-world: the area under the ROC curve as the rank statistic
P(ind > ood) + 0.5 P(ind = ood), and the area under the precision-recall
curve by step-wise summation over descending score thresholds with the
in-distribution class positive. The recall-0 endpoint uses the precision
of the highest-scored point; there is no interpolation to precision 1.
Both areas and the rejection curve raise ``ValueError`` on empty or
non-finite scores rather than rank a NaN or an infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detectors import percentile

MAX_CURVE_POINTS = 10_000

__all__ = [
    "lca",
    "aia",
    "af",
    "auc",
    "aupr",
    "CurvePoint",
    "grid_points",
    "rejection_curve",
    "ReportRow",
    "EvalReport",
]


def lca(step_accuracies) -> float:
    """Accuracy over all seen classes after the last step."""
    step_accuracies = list(step_accuracies)
    if not step_accuracies:
        raise ValueError("lca needs at least one step accuracy")
    return float(step_accuracies[-1])


def aia(step_accuracies) -> float:
    """Arithmetic mean of the per-step accuracies."""
    step_accuracies = list(step_accuracies)
    if not step_accuracies:
        raise ValueError("aia needs at least one step accuracy")
    return float(np.mean(step_accuracies))


def af(per_task_accuracies) -> float:
    """Mean accuracy decline per task from first learned to the final step.

    ``per_task_accuracies[k][t]`` is task t's accuracy measured after
    step k+1 (0-based, defined for t <= k). Negative values mean the
    early tasks improved.
    """
    rows = [list(row) for row in per_task_accuracies]
    num_steps = len(rows)
    if num_steps < 2:
        raise ValueError("af needs at least two steps")
    for k, row in enumerate(rows):
        if len(row) != k + 1:
            raise ValueError(
                f"step {k + 1} must report {k + 1} per-task accuracies, got {len(row)}"
            )
    declines = [rows[t][t] - rows[-1][t] for t in range(num_steps - 1)]
    return float(np.mean(declines))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing the mean rank of their group."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    group_rank = ends - (counts - 1) / 2.0
    return group_rank[inverse]


def auc(ind_scores, ood_scores) -> float:
    """Rank-based ROC area: P(ind > ood) + 0.5 P(ind = ood)."""
    ind = np.asarray(ind_scores, dtype=np.float64).ravel()
    ood = np.asarray(ood_scores, dtype=np.float64).ravel()
    if ind.size == 0 or ood.size == 0:
        raise ValueError("auc needs non-empty score lists")
    if not (np.isfinite(ind).all() and np.isfinite(ood).all()):
        raise ValueError("auc needs finite scores")
    ranks = _average_ranks(np.concatenate([ind, ood]))
    u = ranks[: ind.size].sum() - ind.size * (ind.size + 1) / 2.0
    return float(u / (ind.size * ood.size))


def aupr(ind_scores, ood_scores) -> float:
    """Step-wise precision-recall area with in-distribution positive."""
    ind = np.asarray(ind_scores, dtype=np.float64).ravel()
    ood = np.asarray(ood_scores, dtype=np.float64).ravel()
    if ind.size == 0 or ood.size == 0:
        raise ValueError("aupr needs non-empty score lists")
    if not (np.isfinite(ind).all() and np.isfinite(ood).all()):
        raise ValueError("aupr needs finite scores")
    scores = np.concatenate([ind, ood])
    positive = np.concatenate([np.ones(ind.size), np.zeros(ood.size)])

    order = np.argsort(-scores, kind="mergesort")
    scores = scores[order]
    positive = positive[order]
    true_pos = np.cumsum(positive)
    predicted = np.arange(1, scores.size + 1, dtype=np.float64)

    # last position of each distinct score = that threshold's operating point
    last = np.flatnonzero(np.diff(scores) != 0)
    last = np.concatenate([last, [scores.size - 1]])
    precision = true_pos[last] / predicted[last]
    recall = true_pos[last] / ind.size
    return float(np.sum(np.diff(np.concatenate([[0.0], recall])) * precision))


@dataclass(frozen=True)
class CurvePoint:
    """One accuracy-rejection operating point."""

    rejection_rate: float
    accuracy: float
    retained_count: int


def grid_points(grid_step: float) -> int:
    """Number of points on the rejection grid of ``grid_step`` percent.

    The step must lie in (0, 100], divide 100 and give at most
    ``MAX_CURVE_POINTS`` points; otherwise ``ValueError``.
    """
    if not 0 < grid_step <= 100:
        raise ValueError(f"grid_step must lie in (0, 100], got {grid_step}")
    n_points = 100.0 / grid_step
    if n_points > MAX_CURVE_POINTS:
        raise ValueError(f"grid_step {grid_step} gives more than {MAX_CURVE_POINTS} points")
    if abs(n_points - round(n_points)) > 1e-9:
        raise ValueError(f"grid_step {grid_step} does not divide 100")
    return int(round(n_points))


def rejection_curve(system_scores, correctness_flags, grid_step: float = 5.0):
    """Accuracy over retained samples as score-quantile thresholds grow.

    For each rejection rate rho on the percent grid, the threshold is
    the empirical nearest-rank rho-quantile of the scores; samples at or
    above it are retained, so the retained sets are nested as rho grows
    and rho = 0 keeps everything. Unclassifiable (out-of-distribution)
    samples must carry a False correctness flag. Grid points whose
    retained set is empty are omitted. A grid of more than
    ``MAX_CURVE_POINTS`` points is refused before any point is computed.
    """
    scores = np.asarray(system_scores, dtype=np.float64).ravel()
    correct = np.asarray(correctness_flags, dtype=bool).ravel()
    if scores.size == 0 or scores.size != correct.size:
        raise ValueError("scores and correctness flags must be non-empty and aligned")
    if not np.isfinite(scores).all():
        raise ValueError("rejection_curve needs finite scores")

    points = []
    for i in range(grid_points(grid_step)):
        rho = i * grid_step
        threshold = percentile(scores, rho)
        retained = scores >= threshold
        count = int(retained.sum())
        if count == 0:
            continue
        points.append(CurvePoint(
            rejection_rate=rho / 100.0,
            accuracy=float(correct[retained].mean()),
            retained_count=count,
        ))
    return points


@dataclass
class ReportRow:
    """All metrics for one detector-scorer combination."""

    detector: str
    scorer: str
    lca: float
    aia: float
    af: float
    auc: float
    aupr: float
    step_accuracies: list[float] = field(default_factory=list)
    per_task_accuracies: list[list[float]] = field(default_factory=list)
    step_auc: list[float] = field(default_factory=list)
    step_aupr: list[float] = field(default_factory=list)


@dataclass
class EvalReport:
    """Sweep results, one row per (detector, scorer), detector-major."""

    rows: list[ReportRow] = field(default_factory=list)

    def row(self, detector: str, scorer: str) -> ReportRow:
        for row in self.rows:
            if row.detector == detector and row.scorer == scorer:
                return row
        raise KeyError(f"no report row for ({detector}, {scorer})")
