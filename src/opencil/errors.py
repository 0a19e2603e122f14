"""Exception types shared across the package, and its only range checks.

Each check raises the error type its caller names, with one message form per
rule: ``check_integer`` for counts, seeds, task ids and steps,
``check_positive`` for positive, finite reals, ``check_finite`` for finite
reals and ``check_percentile`` for percentiles in [0, 100]; a finite real is
one that a float64 holds, so an integer beyond the largest float is refused.
``check_shape`` refuses a float64 array that numpy cannot allocate, before
anything is drawn into it.
"""

import math
import sys

import numpy as np

# concrete types: hat_mask checks its slope every SGD step, numbers.Real is slower
_REALS = (int, float, np.integer, np.floating)
_LARGEST = sys.float_info.max


class OpenCILError(Exception):
    """Base class for all errors raised by this package."""


class DataError(OpenCILError):
    """Malformed dataset contents or violated dataset contracts."""


class ModelError(OpenCILError):
    """Invalid model state or failed training preconditions."""


class ModelIOError(OpenCILError):
    """Unreadable, truncated, or version-incompatible model files."""


class ConfigError(OpenCILError):
    """Bad command-line usage or configuration file contents."""


def check_integer(name: str, value, error: type[Exception], minimum: int,
                  maximum: int | None = None) -> None:
    """Refuse with ``error`` a ``value`` that is not an int or numpy integer in
    ``minimum``..``maximum``, or at least ``minimum`` if ``maximum`` is None."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if maximum is None and value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and not minimum <= value <= maximum:
        raise error(f"{name} {value} outside {minimum}..{maximum}")


def _finite(value) -> bool:
    """Whether ``value`` is a real, not a bool, that a float64 holds."""
    # an int is compared exactly, a numpy float against inf without a cast that warns
    return (not isinstance(value, bool) and isinstance(value, _REALS)
            and -math.inf < value < math.inf
            and not (isinstance(value, int) and abs(value) > _LARGEST))


def check_positive(name: str, value, error: type[Exception]) -> None:
    """Refuse with ``error`` a ``value`` that is not a positive, finite real."""
    if not (_finite(value) and value > 0):
        raise error(f"{name} must be positive and finite, got {value}")


def check_finite(name: str, value, error: type[Exception]) -> None:
    """Refuse with ``error`` a ``value`` that is not a finite real."""
    if not _finite(value):
        raise error(f"{name} must be a finite real, got {value!r}")


def check_percentile(name: str, value, error: type[Exception]) -> None:
    """Refuse with ``error`` a ``value`` that is not a real in [0, 100]."""
    if isinstance(value, bool) or not (isinstance(value, _REALS) and 0 <= value <= 100):
        raise error(f"{name} must lie in [0, 100], got {value}")


def check_shape(name: str, shape: tuple[int, ...], error: type[Exception]) -> None:
    """Refuse with ``error`` a float64 array ``shape`` that numpy cannot
    allocate, one of more bytes than numpy's index type counts."""
    limit = np.iinfo(np.intp).max // 8
    if math.prod(int(d) for d in shape) > limit:  # numpy integers would wrap
        raise error(f"{name} of shape {shape} exceeds numpy's largest array "
                    f"({limit} float64 values)")
