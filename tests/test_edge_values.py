"""Every counter against brute force on adversarial float values and sizes.

Values come from signed zeros, the largest and smallest magnitudes and
``±1.0``, alone and mixed with huge random reals.  Sizes sit at and around
``STOP_SIZE`` (64) and its doubling, and ``(M, B)`` pairs include the
memory ratios where the counting scan's streams exceed ``M / (2B)``.  x
and tiebreak coordinates also sit next to ``PointSet``'s ``±2**52`` bound.
"""

import numpy as np
import pytest

from invcount import (EmParams, IoTally, PointSet, brute_force_count,
                      count_adaptive, count_adaptive_ram, count_capped,
                      count_capped_ram, count_nonadaptive, estimate_inversions,
                      merge_count_dominance, mergesort_count,
                      reduce_inversions)
from invcount.approx import REGIME_EXACT

TINY = np.finfo(np.float64).tiny  # the smallest normal
EDGE = np.array([0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324, TINY, -TINY,
                 1.0, -1.0])
SIZES = [0, 1, 2, 3, 63, 64, 65, 127, 128, 129]
PARAMS = [EmParams(m * b, b) for b in (1, 2, 4, 32) for m in (6, 9, 13, 17, 18)]


def edge_values(n, seed, mixed):
    rng = np.random.default_rng(seed)
    values = rng.choice(EDGE, size=n)
    if mixed:
        huge = rng.uniform(-1.0, 1.0, n) * 1e308
        values = np.where(rng.random(n) < 0.5, huge, values)
    return values


def capped_holds(got, kstar, cap):
    return got == kstar or (got is None and kstar > cap)


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("n", SIZES)
def test_every_counter_matches_brute(n, mixed):
    values = edge_values(n, seed=n, mixed=mixed)
    red, blue = reduce_inversions(values)
    kstar = brute_force_count(red, blue)
    caps = {1, max(n, 1), max(kstar, 1)}

    assert mergesort_count(values) == kstar
    assert merge_count_dominance(red, blue) == kstar
    assert count_adaptive_ram(red, blue).count == kstar
    for cap in caps:
        assert capped_holds(count_capped_ram(red, blue, cap), kstar, cap)
    for params in PARAMS:
        assert count_nonadaptive(red, blue, params, IoTally(params)) == kstar
        assert count_adaptive(red, blue, params, IoTally(params)).count == kstar
        for cap in caps:
            got = count_capped(red, blue, cap, params, IoTally(params))
            assert capped_holds(got, kstar, cap), (params, cap)
    if n:
        est = estimate_inversions(values, seed=0)
        # The exact round at cap n may fail only when kstar exceeds n.
        assert est.regime == REGIME_EXACT or kstar > n
        if est.regime == REGIME_EXACT:
            assert est.value == kstar


@pytest.mark.parametrize("offset", [2**52 - 400, -(2**52) + 1])
def test_every_counter_matches_brute_next_to_the_coordinate_bound(offset):
    rng = np.random.default_rng(abs(offset) % 1000)
    x = np.arange(200) + offset
    lists = [np.arange(199, -1, -1.0)]
    lists += [rng.permutation(200).astype(np.float64) for _ in range(4)]
    params = EmParams(1024, 32)
    for values in lists:
        red, blue = PointSet(x, values, x), PointSet(x, values, x, "blue")
        kstar = mergesort_count(values)
        assert brute_force_count(red, blue) == kstar
        assert merge_count_dominance(red, blue) == kstar
        assert count_adaptive_ram(red, blue).count == kstar
        assert count_capped_ram(red, blue, kstar) == kstar
        assert count_nonadaptive(red, blue, params, IoTally(params)) == kstar
        assert count_adaptive(red, blue, params, IoTally(params)).count == kstar
        assert count_capped(red, blue, kstar, params, IoTally(params)) == kstar
