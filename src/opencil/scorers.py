"""Scalar in-distribution scores computed from head outputs.

Two base scores, max-softmax (sm) and energy (en), map a logit vector to
a scalar; the md-combined variants (smmd, enmd) weight them by a
Mahalanobis coefficient computed from the raw activations against the
fitted class-conditional Gaussian with tied covariance. Energy combines
in the log domain because energy scores may be negative and a raw
multiplicative coefficient would invert their ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SCORER_KINDS = ("sm", "smmd", "en", "enmd")

__all__ = [
    "SCORER_KINDS",
    "Scorer",
    "score_sm",
    "score_energy",
    "mahalanobis_confidence",
    "md_coefficient",
    "score_combined",
]


@dataclass(frozen=True)
class Scorer:
    """A scorer kind plus its softmax/energy temperature."""

    kind: str
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in SCORER_KINDS:
            raise ValueError(
                f"unknown scorer {self.kind!r}; expected one of {SCORER_KINDS}"
            )
        if not 0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature}")


def score_sm(logits) -> float:
    """Maximum softmax probability, numerically stable, in (0, 1]."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size == 0:
        raise ValueError("score_sm of empty logits")
    if not np.all(np.isfinite(logits)):
        raise ValueError("non-finite logit")
    shifted = logits - logits.max()
    exps = np.exp(shifted)
    return float(exps.max() / exps.sum())


def score_energy(logits, temperature: float = 1.0) -> float:
    """Negated energy v*log sum exp(f_i/v); higher means more in-distribution."""
    if not temperature > 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size == 0:
        raise ValueError("score_energy of empty logits")
    scaled = logits / temperature
    m = scaled.max()
    return float(temperature * (m + math.log(np.exp(scaled - m).sum())))


def mahalanobis_confidence(z, stats) -> float:
    """Largest negated squared Mahalanobis distance to any class mean (<= 0)."""
    if stats is None:
        raise ValueError("mahalanobis confidence needs train statistics")
    z = np.asarray(z, dtype=np.float64)
    diffs = stats.class_means - z
    quad = np.einsum("ij,jk,ik->i", diffs, stats.covariance_inv, diffs)
    return float(-quad.min())


def md_coefficient(z, stats) -> float:
    """Distance-to-closest-mean coefficient 1 / (1 + d_min), in (0, 1]."""
    d_min = -mahalanobis_confidence(z, stats)
    return 1.0 / (1.0 + d_min)


def score_combined(kind: str, logits, z=None, stats=None, temperature: float = 1.0) -> float:
    """Dispatch to one of sm, smmd, en, enmd.

    The md variants need the raw activation vector ``z`` and fitted
    statistics; sm and en ignore both.
    """
    if kind == "sm":
        return score_sm(logits)
    if kind == "en":
        return score_energy(logits, temperature)
    if kind == "smmd":
        return score_sm(logits) * md_coefficient(z, stats)
    if kind == "enmd":
        return score_energy(logits, temperature) + math.log(md_coefficient(z, stats))
    raise ValueError(f"unknown scorer {kind!r}; expected one of {SCORER_KINDS}")
