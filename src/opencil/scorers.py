"""Scorer values: which in-distribution score to compute from head outputs.

Two base scores, max-softmax (sm) and energy (en), map a logit vector to
a scalar; the md-combined variants (smmd, enmd) weight them by a
Mahalanobis coefficient computed from the raw activations against the
fitted class-conditional Gaussian with tied covariance. Energy combines
in the log domain because energy scores may be negative and a raw
multiplicative coefficient would invert their ordering. The scores are
computed batched, for every head at once, in ``pipeline``; this module
holds the ``Scorer`` value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import check_positive

SCORER_KINDS = ("sm", "smmd", "en", "enmd")

__all__ = ["SCORER_KINDS", "Scorer"]


@dataclass(frozen=True)
class Scorer:
    """A scorer kind plus its energy temperature.

    Only en and enmd read a temperature; sm and smmd refuse one other than
    the default 1.0.
    """

    kind: str
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in SCORER_KINDS:
            raise ValueError(
                f"unknown scorer {self.kind!r}; expected one of {SCORER_KINDS}"
            )
        check_positive("temperature", self.temperature, ValueError)
        if self.kind in ("sm", "smmd") and self.temperature != 1.0:
            raise ValueError(f"scorer {self.kind!r} reads no temperature, got {self.temperature}")
