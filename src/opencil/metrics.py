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
Both areas come from ``separation``, which reads them off one stable sort of
the pooled scores; ``auc`` and ``aupr`` check their inputs and call it, and
the sweep calls it once per step. Both areas and the rejection curve raise
``ValueError`` on empty or non-finite scores rather than rank a NaN or an
infinity. The rejection curve sorts its scores once and reads every grid
point's nearest-rank threshold from that sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detectors import _nearest_rank_index

MAX_CURVE_POINTS = 10_000

__all__ = [
    "lca",
    "aia",
    "af",
    "auc",
    "aupr",
    "separation",
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


def _pooled(name: str, ind_scores, ood_scores):
    """Both populations as one score array and its in-distribution flags."""
    ind = np.asarray(ind_scores, dtype=np.float64).ravel()
    ood = np.asarray(ood_scores, dtype=np.float64).ravel()
    if ind.size == 0 or ood.size == 0:
        raise ValueError(f"{name} needs non-empty score lists")
    if not (np.isfinite(ind).all() and np.isfinite(ood).all()):
        raise ValueError(f"{name} needs finite scores")
    return np.concatenate([ind, ood]), np.arange(ind.size + ood.size) < ind.size


def separation(scores: np.ndarray, positive: np.ndarray) -> tuple[float, float]:
    """ROC and precision-recall areas of pooled finite ``scores``, from one sort.

    ``positive`` flags the in-distribution samples; both populations must be
    non-empty. Equal scores form one group: its members share the mean of
    their ranks, and the precision-recall curve has one operating point per
    group. Average ranks are half-integers and every partial sum of them is
    exact, so the rank sum, and with it the ROC area, does not depend on
    the order of summation.
    """
    n = scores.size
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    starts = np.concatenate([[0], np.flatnonzero(ordered[1:] != ordered[:-1]) + 1])
    ends = np.append(starts[1:], n)  # ascending groups [start, end)
    positives_below = np.concatenate([[0], np.cumsum(positive[order])])
    n_pos = int(positives_below[-1])
    if not 0 < n_pos < n:
        raise ValueError("separation needs both populations non-empty")
    group_positives = positives_below[ends] - positives_below[starts]

    # ROC: Mann-Whitney U of the positives over 1-based average ranks
    group_rank = ends - (ends - starts - 1) / 2.0
    u = np.sum(group_rank * group_positives) - n_pos * (n_pos + 1) / 2.0
    roc = float(u / (n_pos * (n - n_pos)))

    # PR: one operating point per distinct score, highest threshold first
    true_pos = (n_pos - positives_below[starts])[::-1].astype(np.float64)
    predicted = (n - starts)[::-1].astype(np.float64)
    precision = true_pos / predicted
    recall = true_pos / n_pos
    pr = float(np.sum(np.diff(np.concatenate([[0.0], recall])) * precision))
    return roc, pr


def auc(ind_scores, ood_scores) -> float:
    """Rank-based ROC area: P(ind > ood) + 0.5 P(ind = ood)."""
    return separation(*_pooled("auc", ind_scores, ood_scores))[0]


def aupr(ind_scores, ood_scores) -> float:
    """Step-wise precision-recall area with in-distribution positive."""
    return separation(*_pooled("aupr", ind_scores, ood_scores))[1]


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
    the empirical nearest-rank rho-quantile of the scores (``detectors.percentile``);
    samples at or above it are retained, so the retained sets are nested as
    rho grows and rho = 0 keeps everything. The threshold is one of the
    scores, so no retained set is empty. Unclassifiable (out-of-distribution)
    samples must carry a False correctness flag. A grid of more than
    ``MAX_CURVE_POINTS`` points is refused before any point is computed. The
    scores are sorted once per curve, and every point reads that sort.
    """
    scores = np.asarray(system_scores, dtype=np.float64).ravel()
    correct = np.asarray(correctness_flags, dtype=bool).ravel()
    if scores.size == 0 or scores.size != correct.size:
        raise ValueError("scores and correctness flags must be non-empty and aligned")
    if not np.isfinite(scores).all():
        raise ValueError("rejection_curve needs finite scores")

    rhos = [i * grid_step for i in range(grid_points(grid_step))]
    n = scores.size
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    correct_below = np.concatenate([[0], np.cumsum(correct[order])])
    thresholds = ordered[[_nearest_rank_index(rho, n) - 1 for rho in rhos]]
    # the first retained position: equal scores are all retained or all not
    firsts = np.searchsorted(ordered, thresholds, side="left")
    counts = n - firsts
    hits = correct_below[-1] - correct_below[firsts]
    return [CurvePoint(rejection_rate=rho / 100.0, accuracy=hit / count,
                       retained_count=count)
            for rho, hit, count in zip(rhos, hits.tolist(), counts.tolist())]


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
