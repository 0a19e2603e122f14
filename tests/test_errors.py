import math

import numpy as np
import pytest

from opencil.errors import (ConfigError, DataError, check_integer, check_percentile,
                            check_positive, check_shape)


@pytest.mark.parametrize("value, minimum, maximum", [
    (0, 0, None), (np.uint8(3), 1, None), (10**30, 1, None), (np.int64(2), 1, 2), (1, 1, 1),
])
def test_integer_in_range_passes(value, minimum, maximum):
    check_integer("count", value, DataError, minimum, maximum)


@pytest.mark.parametrize("value, minimum, maximum, message", [
    (2.0, 0, None, "count must be an integer, got 2.0"),
    (True, 0, None, "count must be an integer, got True"),
    (np.float64(1.0), 0, 3, f"count must be an integer, got {np.float64(1.0)!r}"),
    ("3", 0, None, "count must be an integer, got '3'"),
    (-1, 0, None, "count must be >= 0, got -1"),
    (np.int8(0), 1, None, "count must be >= 1, got 0"),
    (3, 1, 2, "count 3 outside 1..2"),
    (0, 1, 2, "count 0 outside 1..2"),
    (1, 1, 0, "count 1 outside 1..0"),
])
def test_integer_out_of_range_is_refused(value, minimum, maximum, message):
    with pytest.raises(ConfigError) as caught:
        check_integer("count", value, ConfigError, minimum, maximum)
    assert str(caught.value) == message


@pytest.mark.parametrize("value", [1e-300, 1, np.float32(2.5), 1e308])
def test_positive_real_passes(value):
    check_positive("rate", value, ValueError)


@pytest.mark.parametrize("value", [0.0, -1.0, -0.0, math.inf, -math.inf, math.nan, True,
                                   "1.0", None])
def test_positive_real_refused(value):
    with pytest.raises(ValueError, match=r"^rate must be positive and finite, got "):
        check_positive("rate", value, ValueError)


@pytest.mark.parametrize("value", [0, 0.0, 50.5, 100, np.float64(100.0)])
def test_percentile_passes(value):
    check_percentile("percentile", value, ValueError)


@pytest.mark.parametrize("value", [-1e-9, 100.000001, math.nan, math.inf, False, "50"])
def test_percentile_refused(value):
    with pytest.raises(ValueError, match=r"^percentile must lie in \[0, 100\], got "):
        check_percentile("percentile", value, ValueError)


def test_shape_numpy_cannot_allocate_is_refused():
    limit = np.iinfo(np.intp).max // 8
    check_shape("features", (limit,), DataError)
    check_shape("features", (np.int8(100), np.int8(100), np.int8(100)), DataError)
    for shape in [(limit + 1,), (10**20, 2), (10**12, 10**12), (2, 10**20, 2)]:
        with pytest.raises(DataError, match=r"^features of shape .* exceeds numpy's largest"):
            check_shape("features", shape, DataError)
