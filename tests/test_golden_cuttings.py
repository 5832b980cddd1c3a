"""Pinned staircase cuttings: exact corners and cells of both orientations.

The expected values were recorded from the tuple-key sweep, before the
sweep moved to integer key ranks; they fix the order in which tied
``(y, tiebreak)`` keys are kept, the sign of zero in corner keys, and
the degenerate sizes ``n`` in ``{0, 1, 2k, 2k + 1}``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invcount import (EmParams, InstanceSpec, IoTally, build_blue_cutting,
                      build_red_cutting, generate, reduce_inversions)
from invcount.core import PointSet

INF = float("inf")
BUILD = {"red": build_red_cutting, "blue": build_blue_cutting}
PARAMS = EmParams(64, 4)


def fixed(x, y, t):
    return PointSet(np.array(x, dtype=np.int64), np.array(y, dtype=np.float64),
                    np.array(t, dtype=np.int64))


def spaced(y, t):
    """``fixed`` with uneven x gaps, so corner midpoints are not integers."""
    return fixed([3 * i - 7 + (i % 3 == 1) for i in range(len(y))], y, t)


CASES = {
    "tied_keys": (spaced([2, 1, 2, 2, 1, 0, 2, 1, 1, 2, 0, 2],
                         [0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0]), 2),
    "signed_zero": (spaced([0.0, -0.0, 1.0, -0.0, 0.0, -1.0, -0.0, 0.0, 2.0, 0.0, -0.0],
                           [5, 5, 1, 5, 4, 0, 4, 5, 2, 5, 5]), 2),
    "huge": (spaced([1e308, -1e308, 0.0, 1e308, -1e308, 5.0, 1e308, -0.0, -1e308, 1e308],
                    [0, 0, 1, 0, 0, 0, 1, 0, 0, 2]), 2),
    "empty": (fixed([], [], []), 1),
    "single": (fixed([4], [-0.0], [0]), 1),
    "two_k": (spaced([3, 1, 4, 1, 5, 9], [0, 1, 2, 3, 4, 5]), 3),
    "two_k_plus_one": (spaced([2, 7, 1, 8, 2, 8, 1], [0, 0, 0, 0, 0, 0, 0]), 3),
    "reduce_digits": (reduce_inversions(
        [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4])[0], 2),
    "reduce_permutation": (reduce_inversions(generate(
        InstanceSpec(24, "random_permutation", seed=7)))[1], 3),
}

EXPECTED = {
    "tied_keys": {
        "red": ([(4.0, -INF, 0.0), (22.0, 2.0, -0.5), (INF, 2.0, 0.5)],
                [[0, 1, 2, 3], [2, 3, 6, 9], [3, 9]]),
        "blue": ([(16.0, INF, -0.0), (7.0, 1.0, 1.5), (-INF, 0.0, 0.5)],
                [[8, 9, 10, 11], [5, 7, 8, 10], [5, 10]]),
    },
    "signed_zero": {
        "red": ([(4.0, -INF, 0.0), (18.5, -0.0, 4.5), (INF, 1.0, 0.5)],
                [[0, 1, 2, 3], [2, 3, 7, 8], [2, 8]]),
        "blue": ([(13.0, INF, -0.0), (7.0, 0.0, 5.5), (-INF, -0.0, 4.5)],
                [[7, 8, 9, 10], [5, 6, 7, 9], [4, 5, 6]]),
    },
    "huge": {
        "red": ([(4.0, -INF, 0.0), (20.5, 1e+308, -0.5), (INF, 1e+308, 0.5)],
                [[0, 1, 2, 3], [0, 3, 6, 9], [6, 9]]),
        "blue": ([(9.5, INF, -0.0), (-5.0, -0.0, 0.5), (-INF, -1e+308, 0.5)],
                [[6, 7, 8, 9], [1, 4, 7, 8], [1, 4]]),
    },
    "empty": {
        "red": ([(INF, -INF, 0.0)],
                [[]]),
        "blue": ([(-INF, INF, -0.0)],
                [[]]),
    },
    "single": {
        "red": ([(INF, -INF, 0.0)],
                [[0]]),
        "blue": ([(-INF, INF, -0.0)],
                [[0]]),
    },
    "two_k": {
        "red": ([(INF, -INF, 0.0)],
                [[0, 1, 2, 3, 4, 5]]),
        "blue": ([(-INF, INF, -0.0)],
                [[0, 1, 2, 3, 4, 5]]),
    },
    "two_k_plus_one": {
        "red": ([(9.5, -INF, 0.0), (INF, 7.0, -0.5)],
                [[0, 1, 2, 3, 4, 5], [1, 3, 5]]),
        "blue": ([(-5.0, INF, -0.0), (-INF, 2.0, 0.5)],
                [[1, 2, 3, 4, 5, 6], [0, 2, 4, 6]]),
    },
    "reduce_digits": {
        "red": ([(3.5, -INF, 0.0), (5.5, 3.0, -0.5), (8.5, 5.0, 3.5), (12.5, 6.0, 6.5), (INF, 9.0, 4.5)],
                [[0, 1, 2, 3], [0, 2, 4, 5], [4, 5, 7, 8], [5, 7, 11, 12], [5, 12, 14]]),
        "blue": ([(15.5, INF, -0.0), (8.5, 3.0, 17.5), (2.5, 3.0, 9.5), (-INF, 2.0, 6.5)],
                [[16, 17, 18, 19], [9, 15, 16, 17], [3, 6, 9, 16], [1, 3, 6]]),
    },
    "reduce_permutation": {
        "red": ([(5.5, -INF, 0.0), (13.5, 14.0, 3.5), (21.5, 18.0, 1.5), (INF, 21.0, 20.5)],
                [[0, 1, 2, 3, 4, 5], [0, 2, 4, 8, 9, 13], [2, 8, 13, 18, 19, 21], [13, 18, 21]]),
        "blue": ([(17.5, INF, -0.0), (11.5, 11.0, 23.5), (0.5, 5.0, 17.5), (-INF, 2.0, 20.5)],
                [[18, 19, 20, 21, 22, 23], [12, 15, 17, 20, 22, 23], [1, 3, 7, 12, 17, 20], [7, 12, 20]]),
    },
}


@pytest.mark.parametrize("orientation", sorted(BUILD))
@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_cutting(name, orientation):
    base, k = CASES[name]
    corners, cells = EXPECTED[name][orientation]
    cut = BUILD[orientation](base, k, IoTally(PARAMS))
    want = np.array(corners, dtype=np.float64).reshape(-1, 3)
    # Bytes, not values: the sign of a zero coordinate is pinned too.
    assert cut.outward.tobytes() == want.tobytes()
    assert [c.tolist() for c in cut.cells] == cells
    assert all(c.dtype == np.intp for c in cut.cells)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.integers(-4, 4), max_size=40),
       k=st.integers(1, 6), orientation=st.sampled_from(sorted(BUILD)))
def test_cells_are_the_covered_base_points(values, k, orientation):
    # On a reduction every key is distinct, so a cell holds exactly the
    # base points its outward corner covers.
    red, blue = reduce_inversions(values)
    base = red if orientation == "red" else blue
    cut = BUILD[orientation](base, k, IoTally(PARAMS))
    for ci, cell in enumerate(cut.cells):
        covered = cut.covers(ci, base.x, base.y, base.tiebreak)
        assert np.array_equal(cell, np.flatnonzero(covered))
