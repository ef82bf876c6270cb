"""Philox tests: the package's generator against NumPy's ``Philox`` streams."""

import numpy as np
import pytest

from breatherlab import philox
from breatherlab.ids import BOOT_SEED


def numpy_generator(key):
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def test_doubles_are_numpy_random():
    keys = [(0, 0), (808, 7), (2**64 - 1, 2**63 + 5)]
    got = philox.doubles(keys, 23)
    for row, key in zip(got, keys):
        assert np.array_equal(row, numpy_generator(key).random(23))


@pytest.mark.parametrize("M", [1, 3, 1999, 2000, 5461, 16383, 16384, 16385])
def test_bootstrap_rows_are_numpy_integers(M):
    # the rows of fit_lifshitz: M draws from [0, M) per resample, a round
    # boundary and an odd M's leftover 32-bit half crossed on the way; a round
    # of DRAW_BLOCKS blocks holds 2**14 halves less its rejects, so rows of
    # M = 16383...16385 cross a round boundary in nearly every row, and three
    # rows of M = 5461 fill about one round
    key = (BOOT_SEED, 808)
    gen, rows = numpy_generator(key), philox.integer_rows(key, M, M)
    for _ in range(40 if M > 3 else 5):
        assert np.array_equal(next(rows), gen.integers(0, M, size=M))


@pytest.mark.parametrize("bound", [2**31 + 11, 3 * 2**30, 2**32 - 1, 2**32])
def test_rejection_heavy_bounds(bound):
    # up to half of the draws are rejected; a few hundred values, never M of them
    key = (BOOT_SEED, 1)
    gen, rows = numpy_generator(key), philox.integer_rows(key, bound, 301)
    for _ in range(3):
        assert np.array_equal(next(rows), gen.integers(0, bound, size=301))
