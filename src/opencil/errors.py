"""Exception types shared across the package, and the one integer check."""

import numpy as np


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


def check_integer(name: str, value, error: type[OpenCILError]) -> None:
    """Refuse a count or seed that is not an int or a numpy integer with ``error``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
