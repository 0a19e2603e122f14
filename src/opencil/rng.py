"""Deterministic random-stream derivation.

Every source of randomness in the package is a named substream of one
master seed, so individual components (data synthesis, weight init,
batch order, buffer sampling) can be varied or re-run independently
without disturbing the others.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import check_integer


def substream(seed: int, label: str) -> np.random.Generator:
    """Return the generator for the named substream of ``seed``.

    Identical (seed, label) pairs produce identical generators on every
    platform; distinct labels decorrelate the streams.
    """
    check_integer("seed", seed, ValueError, 0)
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([int(seed), *words]))
