"""Per-vector reference formulas: one input row, one head, written plainly.

The package computes every detector and scorer batched, for all heads at
once, in ``opencil.pipeline``. The tests check that batched form against
these one-row formulas, which follow the papers' definitions directly.
"""

import math

import numpy as np

from opencil.detectors import build_dice_mask, percentile
from opencil.model import activations


def forward_features(model, task, x):
    """Gated adapter activations z_t of one input vector."""
    return activations(model, task, np.asarray(x, dtype=np.float64)[None, :])[0]


def whitening_factor(covariance_inv):
    """Lower factor F with F F^T = (covariance_inv + covariance_inv^T) / 2."""
    return np.linalg.cholesky((covariance_inv + covariance_inv.T) / 2.0)


def covariance_inv(stats):
    """F F^T, the inverse covariance that the whitening factor stands for."""
    return stats.whitening_factor @ stats.whitening_factor.T


def rectify_react(z, threshold):
    """Clip every activation at ``threshold`` from above."""
    return np.minimum(z, threshold)


def rectify_scale(z, p):
    """Scale all activations by exp(r), r the total-to-top activation ratio.

    The top set holds the activations at or above the p-th percentile of
    z. Raises on an all-zero vector, whose ratio is undefined.
    """
    z = np.asarray(z, dtype=np.float64)
    if not np.any(z > 0):
        raise ValueError("all-zero activation vector; scale factor undefined")
    top_sum = z[z >= percentile(z, p)].sum()
    return z * math.exp(z.sum() / top_sum)


def detector_logits(head, z, detector, stats=None):
    """Head logits of activations ``z`` after the detector's rectification."""
    z = np.asarray(z, dtype=np.float64)
    weights = head.weights
    if detector.kind == "react":
        z = rectify_react(z, stats.react_threshold)
    elif detector.kind == "scale" and np.any(z > 0):  # all-zero rows stay unscaled
        z = rectify_scale(z, detector.percentile)
    elif detector.kind == "dice":
        weights = weights * build_dice_mask(weights.T, stats.mean_activations,
                                            detector.percentile).T
    return z @ weights + head.bias


def score_sm(logits):
    """Maximum softmax probability, in (0, 1]."""
    logits = np.asarray(logits, dtype=np.float64)
    exps = np.exp(logits - logits.max())
    return float(exps.max() / exps.sum())


def score_energy(logits, temperature=1.0):
    """Negated energy v log sum exp(f_i / v); higher means more in-distribution."""
    scaled = np.asarray(logits, dtype=np.float64) / temperature
    m = scaled.max()
    return float(temperature * (m + math.log(np.exp(scaled - m).sum())))


def mahalanobis_confidence(z, stats):
    """Largest negated squared Mahalanobis distance to any class mean (<= 0)."""
    diffs = stats.class_means - np.asarray(z, dtype=np.float64)
    return float(-np.einsum("ij,jk,ik->i", diffs, covariance_inv(stats), diffs).min())


def md_coefficient(z, stats):
    """Distance-to-closest-mean coefficient 1 / (1 + d_min), in (0, 1]."""
    return 1.0 / (1.0 - mahalanobis_confidence(z, stats))


def score_combined(kind, logits, z=None, stats=None, temperature=1.0):
    """One of sm, smmd, en, enmd; the md kinds need ``z`` and ``stats``."""
    if kind == "sm":
        return score_sm(logits)
    if kind == "smmd":
        return score_sm(logits) * md_coefficient(z, stats)
    if kind == "en":
        return score_energy(logits, temperature)
    return score_energy(logits, temperature) + math.log(md_coefficient(z, stats))
