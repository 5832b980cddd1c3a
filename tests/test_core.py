"""Domain types, the reduction, and the two reference counters."""

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invcount import (EmParams, InstanceSpec, IoTally, Point, PointSet,
                      brute_force_count, core, count_adaptive,
                      count_adaptive_ram, count_nonadaptive, counting,
                      estimate_inversions, generate, mergesort_count,
                      reduce_inversions)


def oracle(values) -> int:
    return brute_force_count(*reduce_inversions(values))


class TestReduction:
    def test_sorted_list_has_no_inversions(self):
        assert oracle([1.0, 2.0, 3.0]) == 0

    def test_three_element_example(self):
        assert oracle([3.0, 1.0, 2.0]) == 2

    def test_reverse_four(self):
        assert oracle([4.0, 3.0, 2.0, 1.0]) == 6

    def test_both_colors_carry_every_element(self):
        red, blue = reduce_inversions([5.0, 1.0, 4.0])
        for s in (red, blue):
            assert len(s) == 3
            assert [s.point(i) for i in range(len(s))] == [
                Point(0, 5.0, 0), Point(1, 1.0, 1), Point(2, 4.0, 2)]

    def test_empty_list(self):
        red, blue = reduce_inversions([])
        assert len(red) == len(blue) == 0
        assert brute_force_count(red, blue) == 0


class TestDominates:
    def test_right_and_below(self):
        assert core.dominance_mask(*Point(3, 1.0, 3), *Point(1, 5.0, 1))

    def test_equal_x_never_dominates(self):
        assert not core.dominance_mask(*Point(1, 1.0, 1), *Point(1, 5.0, 0))

    def test_equal_values_resolved_by_tiebreak(self):
        # Later copy of an equal value must not create an inversion.
        assert not core.dominance_mask(*Point(3, 5.0, 3), *Point(1, 5.0, 1))
        # ... but the earlier index loses to the later one reversed in x.
        assert core.dominance_mask(*Point(3, 5.0, 1), *Point(1, 5.0, 3))

    def test_irreflexive(self):
        p = Point(2, 3.0, 2)
        assert not core.dominance_mask(*p, *p)

    @given(st.integers(0, 50), st.integers(0, 50))
    def test_antisymmetric_on_reduction_points(self, i, j):
        a = Point(i, float(i % 7), i)
        b = Point(j, float(j % 7), j)
        assert not (core.dominance_mask(*a, *b) and core.dominance_mask(*b, *a))


class TestBruteForce:
    def test_example(self):
        assert oracle([3.0, 1.0, 2.0]) == 2

    def test_empty_red_side(self):
        _, blue = reduce_inversions([1.0, 2.0])
        empty = PointSet(np.array([], dtype=np.int64), np.array([]),
                         np.array([], dtype=np.int64))
        assert brute_force_count(empty, blue) == 0

    def test_all_equal_values(self):
        assert oracle([1.0, 1.0, 1.0]) == 0

    @pytest.mark.parametrize("entries", [1, 7, 100])
    def test_slabs_match_one_mask(self, monkeypatch, entries):
        values = np.random.default_rng(5).integers(0, 20, 90)
        red, blue = reduce_inversions(values)
        few = PointSet(blue.x[:7], blue.y[:7], blue.tiebreak[:7], "blue")
        expect = [brute_force_count(red, blue), brute_force_count(red, few)]
        monkeypatch.setattr(core, "MASK_ENTRIES", entries)
        assert [brute_force_count(red, blue), brute_force_count(red, few)] == expect


class TestMergesortCount:
    def test_single_swap(self):
        assert mergesort_count([2.0, 1.0]) == 1

    def test_reverse_five(self):
        assert mergesort_count([5.0, 4.0, 3.0, 2.0, 1.0]) == 10

    def test_thousand_random_matches_brute(self):
        rng = np.random.default_rng(11)
        values = rng.random(1000)
        assert mergesort_count(values) == oracle(values)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 9), max_size=120))
    def test_matches_brute_with_heavy_duplicates(self, ints):
        values = np.array(ints, dtype=np.float64)
        assert mergesort_count(values) == oracle(values)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), max_size=100))
    def test_matches_brute_on_reals(self, vals):
        values = np.array(vals, dtype=np.float64)
        assert mergesort_count(values) == oracle(values)


class TestRadixArgsort:
    """The distribution counter's partition by child, which lives in
    ``counting``: a stable argsort of small integer keys, one radix pass
    per 16-bit digit, whatever order the keys arrive in."""

    @pytest.mark.parametrize("bound", [0, 1, 2, 256, 257, 2**16, 2**16 + 1,
                                       2**20, 2**32])
    @pytest.mark.parametrize("ties", [False, True], ids=["spread", "ties"])
    def test_matches_stable_argsort(self, bound, ties):
        rng = np.random.default_rng(bound)
        n = 5000 if bound else 0
        if ties:
            # Few distinct keys, each differing from the others in every
            # digit, so every pass meets long runs of equal digits.
            keys = np.unique([0, bound // 3, bound // 2, bound - 1])
            key = rng.choice(keys[keys >= 0], size=n) if n else np.zeros(0)
        else:
            key = rng.integers(0, max(bound, 1), size=n)
        key = key.astype(np.int64)
        assert np.array_equal(counting._radix_argsort(key, bound),
                              np.argsort(key, kind="stable"))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=200),
           st.sampled_from([np.int32, np.int64]))
    def test_ties_in_either_digit(self, digits, dtype):
        key = np.array([hi * 2**16 + lo for hi, lo in digits], dtype=dtype)
        assert np.array_equal(counting._radix_argsort(key, 2**18),
                              np.argsort(key, kind="stable"))

    @pytest.mark.parametrize("swaps", [0, 1, 40, 600, 2500])
    def test_presorted_keys(self, swaps):
        # Sorted keys with ties, then from no adjacent swap to one per two
        # keys.
        rng = np.random.default_rng(swaps)
        key = np.sort(rng.integers(0, 2**17, 5000))
        key[rng.integers(0, 2500, 500) * 2] = 7
        for i in rng.integers(0, len(key) - 1, swaps):
            key[i], key[i + 1] = key[i + 1], key[i]
        assert np.array_equal(counting._radix_argsort(key, 2**17),
                              np.argsort(key, kind="stable"))

    def test_presorted_child_sorts_take_radix_passes(self, monkeypatch):
        # Few inversions leave the child keys of every level presorted:
        # at most one descent per eight keys.
        values = generate(InstanceSpec(4096, "target_inversions", seed=2, target=64))
        radix, keys = counting._radix_argsort, []

        def spy(key, bound):
            keys.append(key)
            return radix(key, bound)

        monkeypatch.setattr(counting, "_radix_argsort", spy)
        params = EmParams(64, 1)
        red, blue = reduce_inversions(values)
        assert (count_nonadaptive(red, blue, params, IoTally(params))
                == mergesort_count(values))
        assert keys and all(np.count_nonzero(k[1:] < k[:-1]) * 8 < len(k)
                            for k in keys)

    @pytest.mark.parametrize("bound", [0, 1, 300, 2**20])
    def test_empty_input(self, bound):
        perm = counting._radix_argsort(np.zeros(0, dtype=np.int64), bound)
        assert perm.dtype == np.intp and len(perm) == 0

    @pytest.mark.parametrize("bound", [1, 200, 2**17])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64])
    def test_returns_index_dtype(self, bound, dtype):
        key = (np.arange(1000) * 7919 % bound).astype(dtype)
        assert counting._radix_argsort(key, bound).dtype == np.intp


class TestValidation:
    def test_value_list_rejects_nan(self):
        with pytest.raises(ValueError):
            reduce_inversions(np.array([1.0, np.nan]))

    def test_value_list_rejects_infinity(self):
        with pytest.raises(ValueError):
            reduce_inversions(np.array([np.inf]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_mergesort_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            mergesort_count([bad, 1.0, 0.0])

    @pytest.mark.parametrize("values", [
        [2**53 + 1, 2**53],
        np.array([2**53 + 1, 2**53], dtype=np.int64),
        np.array([2**64 - 1, 0], dtype=np.uint64),
        [-(2**60) - 1, 0],
        # A list is not converted to float64 before the check.
        [2**53 + 1, 2**53, 0.5],
        ["9007199254740993", "9007199254740992"],
        [Decimal("9007199254740993"), Decimal("9007199254740992")],
        [Fraction(1, 3) + Fraction(1, 10**20), Fraction(1, 3)],
        np.array([1 + 5j, 1 + 0j]),
    ])
    @pytest.mark.parametrize("counter", [
        mergesort_count, reduce_inversions,
        lambda v: estimate_inversions(v, seed=0)])
    def test_inexact_integers_rejected(self, values, counter):
        with pytest.raises(ValueError, match="exact"):
            counter(values)

    def test_exact_integers_accepted(self):
        values = np.array([2**53 + 2, 2**53, -(2**62), 2**62], dtype=np.int64)
        assert mergesort_count(values) == oracle(values) == 3
        assert reduce_inversions([2**53, 5])[0].y.tolist() == [2.0**53, 5.0]

    def test_value_list_rejects_2d(self):
        with pytest.raises(ValueError):
            reduce_inversions(np.zeros((2, 2)))

    def test_point_set_requires_ascending_x(self):
        with pytest.raises(ValueError):
            PointSet(np.array([2, 1]), np.array([0.0, 0.0]), np.array([0, 1]))

    @pytest.mark.parametrize("x, y, t", [
        ([0, 1, 2], [1.0, np.nan, 0.5], [0, 1, 2]),
        ([1.2], [5.0], [0]),
        ([0, 1], [5.0, 1.0], [0.9, 1.2]),
        ([0], [2**53 + 1], [0]),
    ], ids=["nan-y", "fractional-x", "fractional-tiebreak", "inexact-y"])
    def test_point_set_rejects_lossy_coordinates(self, x, y, t):
        with pytest.raises(ValueError):
            PointSet(np.array(x), np.array(y), np.array(t))

    @pytest.mark.parametrize("x, t", [
        ([2**52], [0]),
        ([-(2**52)], [0]),
        ([0], [2**52]),
        ([0], [-(2**52)]),
        ([2**62], [0]),
        ([0], [np.iinfo(np.int64).min]),
        ([2**70], [0]),
    ], ids=["x-2^52", "x-minus-2^52", "t-2^52", "t-minus-2^52", "x-2^62",
            "t-int64-min", "x-beyond-int64"])
    def test_point_set_rejects_coordinates_beyond_2_52(self, x, t):
        with pytest.raises(ValueError, match="2\\*\\*52"):
            PointSet(x, [0.0], t)

    def test_point_set_accepts_coordinates_inside_2_52(self):
        edge = [-(2**52) + 1, 2**52 - 1]
        pts = PointSet(edge, [0.0, 1.0], edge[::-1])
        assert pts.x.tolist() == edge and pts.tiebreak.tolist() == edge[::-1]

    def test_point_set_requires_equal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            PointSet([0, 1], [0.0], [0, 1])

    def test_value_list_longer_than_max_length_rejected(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_LENGTH", 3)
        assert mergesort_count([2.0, 1.0, 0.0]) == 3
        with pytest.raises(ValueError, match="longer"):
            mergesort_count([3.0, 2.0, 1.0, 0.0])

    def test_point_set_rejects_unknown_color(self):
        with pytest.raises(ValueError):
            PointSet(np.array([1]), np.array([0.0]), np.array([0]),
                     color="green")


class TestChecksOnEntry:
    """Only points built from outside input run the constructor's checks."""

    PARAMS = EmParams(256, 8)

    @pytest.fixture
    def checked(self, monkeypatch):
        calls = []
        check = PointSet.__post_init__

        def counted(self):
            calls.append(len(self))
            check(self)

        monkeypatch.setattr(PointSet, "__post_init__", counted)
        return calls

    @pytest.mark.parametrize("count", [
        lambda r, b, p: count_nonadaptive(r, b, p, IoTally(p)),
        lambda r, b, p: count_adaptive(r, b, p, IoTally(p)).count,
        lambda r, b, p: count_adaptive_ram(r, b).count,
    ], ids=["nonadaptive", "adaptive", "adaptive-ram"])
    def test_counters_check_nothing_they_cut(self, checked, count):
        values = generate(InstanceSpec(2000, "random_permutation", seed=4))
        red, blue = reduce_inversions(values)
        assert checked == [2000, 2000]
        assert count(red, blue, self.PARAMS) == mergesort_count(values)
        assert checked == [2000, 2000]

    @pytest.mark.parametrize("k, regime", [(1000, "exact_small"),
                                           (40000, "cell_sampling")])
    def test_estimator_checks_its_reduction_only(self, checked, k, regime):
        values = generate(InstanceSpec(2000, "target_inversions", seed=3,
                                       target=k))
        assert estimate_inversions(values, seed=0).regime == regime
        assert checked == [2000, 2000]
