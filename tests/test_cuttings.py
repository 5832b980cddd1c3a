"""Shallow staircase cuttings: coverage bounds, classification, charges."""

import numpy as np
import pytest

from invcount import (EmParams, InstanceSpec, IoTally, Point, build_blue_cutting,
                      build_red_cutting, cuttings, generate, reduce_inversions)
from invcount.core import PointSet, ykey_less
from invcount.cuttings import CORNER_WIDTH

PARAMS = EmParams(2048, 32)


def empty_set():
    return PointSet(np.array([], dtype=np.int64), np.array([]),
                    np.array([], dtype=np.int64))


def corner_coverages(cut, base):
    """Brute-force count of base points covered by each outward corner."""
    return [int(np.count_nonzero(
        cut.covers(i, base.x, base.y, base.tiebreak)))
        for i in range(len(cut.outward))]


def query_coverage(cut, base, q: Point) -> int:
    """Base points on the query's covered side, by orientation."""
    if cut.orientation == "red":
        # points the query dominates
        mask = (base.x < q.x) & ykey_less(q.y, q.tiebreak, base.y, base.tiebreak)
    else:
        # points that dominate the query
        mask = (base.x > q.x) & ykey_less(base.y, base.tiebreak, q.y, q.tiebreak)
    return int(np.count_nonzero(mask))


class TestDegenerate:
    def test_empty_base(self):
        cut = build_red_cutting(empty_set(), 5, IoTally(PARAMS))
        assert len(cut.cells) == 1 and len(cut.cells[0]) == 0
        assert corner_coverages(cut, empty_set()) == [0]

    def test_depth_at_least_base_size(self):
        red, _ = reduce_inversions(generate(InstanceSpec(20, "random_permutation")))
        cut = build_red_cutting(red, 20, IoTally(PARAMS))
        assert len(cut.outward) == 1
        assert len(cut.cells[0]) == 20

    def test_blue_degenerate(self):
        _, blue = reduce_inversions(generate(InstanceSpec(10, "random_real")))
        cut = build_blue_cutting(blue, 10, IoTally(PARAMS))
        assert len(cut.cells) == 1 and len(cut.cells[0]) == 10

    def test_depth_must_be_positive(self):
        red, _ = reduce_inversions([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            build_red_cutting(red, 0, IoTally(PARAMS))

    @pytest.mark.parametrize("build", [build_red_cutting, build_blue_cutting],
                             ids=["red", "blue"])
    @pytest.mark.parametrize("depth", [True, 2.5, 1.0, np.float64(2.0)])
    def test_depth_must_be_an_integer(self, build, depth):
        red, blue = reduce_inversions([3.0, 1.0, 4.0, 1.5, 5.0, 9.0])
        with pytest.raises(ValueError, match="depth"):
            build(red if build is build_red_cutting else blue, depth,
                  IoTally(PARAMS))

    def test_numpy_integer_depth_accepted(self):
        red, _ = reduce_inversions([3.0, 1.0, 4.0, 1.5, 5.0, 9.0])
        assert len(build_red_cutting(red, np.int64(1), IoTally(PARAMS)).outward) > 1

    @pytest.mark.parametrize("build", [build_red_cutting, build_blue_cutting],
                             ids=["red", "blue"])
    def test_one_cell_base_is_not_ranked(self, monkeypatch, build):
        # A base of at most 2k points is one cell: no sweep and no ranks,
        # but still the scan charge.
        red, blue = reduce_inversions(generate(InstanceSpec(40, "random_real")))

        def refuse(*args):
            raise AssertionError("a one-cell base was ranked or swept")

        monkeypatch.setattr(cuttings, "_sweep", refuse)
        monkeypatch.setattr(cuttings.np, "lexsort", refuse)
        tally = IoTally(PARAMS)
        cut = build(red if build is build_red_cutting else blue, 20, tally)
        assert [c.tolist() for c in cut.cells] == [list(range(40))]
        assert len(cut.outward) == 1 and tally.reads == PARAMS.blocks(40, 2)


class TestCoverageBounds:
    def test_red_200_permutation_depth_10(self):
        red, _ = reduce_inversions(generate(InstanceSpec(200, "random_permutation", seed=1)))
        cut = build_red_cutting(red, 10, IoTally(PARAMS))
        for cov in corner_coverages(cut, red):
            assert 10 <= cov <= 20
        assert len(cut.outward) <= 40

    def test_blue_200_points_depth_10(self):
        _, blue = reduce_inversions(generate(InstanceSpec(200, "random_real", seed=2)))
        cut = build_blue_cutting(blue, 10, IoTally(PARAMS))
        for cov in corner_coverages(cut, blue):
            assert 10 <= cov <= 20
        assert len(cut.outward) <= 40

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("orientation", ["red", "blue"])
    def test_coverage_and_size_randomized(self, seed, orientation):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 300))
        k = int(rng.integers(1, max(2, n // 3)))
        base, other = reduce_inversions(generate(
            InstanceSpec(n, "random_permutation", seed=seed + 50)))
        build = build_red_cutting if orientation == "red" else build_blue_cutting
        cut = build(base if orientation == "red" else other, k, IoTally(PARAMS))
        pts = base if orientation == "red" else other
        if n > 2 * k:
            for cov in corner_coverages(cut, pts):
                assert k <= cov <= 2 * k
            assert len(cut.outward) * k <= 2 * n


def classify_one(cut, q: Point) -> int:
    """``classify_many`` on the single query point ``q``."""
    one = PointSet(np.array([q.x]), np.array([q.y]), np.array([q.tiebreak]))
    return int(cut.classify_many(one)[0])


class TestClassify:
    K = 8

    def _cutting(self, n=120, k=K, seed=3):
        red, blue = reduce_inversions(generate(
            InstanceSpec(n, "random_permutation", seed=seed)))
        return red, blue, build_red_cutting(red, k, IoTally(PARAMS))

    def test_empty_query_set(self):
        _, _, cut = self._cutting()
        assign = cut.classify_many(empty_set())
        assert assign.dtype == np.int64 and assign.shape == (0,)

    def test_high_left_query_lands_in_first_cell(self):
        red, _, cut = self._cutting()
        q = Point(int(red.x[0]) - 1, float(red.y.max()) + 1.0, -1)
        assert classify_one(cut, q) == 0

    def test_heavy_query_is_deep(self):
        red, _, cut = self._cutting()
        # Dominates every base point: right of and below all of them.
        q = Point(int(red.x[-1]) + 1, float(red.y.min()) - 1.0, -1)
        assert query_coverage(cut, red, q) == len(red) >= 2 * self.K + 1
        assert classify_one(cut, q) == -1

    def test_shallow_queries_always_assigned(self):
        red, blue, cut = self._cutting()
        assign = cut.classify_many(blue)
        for i in range(len(blue)):
            if query_coverage(cut, red, blue.point(i)) < self.K:
                assert assign[i] >= 0

    def test_assigned_queries_are_not_too_deep(self):
        red, blue, cut = self._cutting()
        assign = cut.classify_many(blue)
        for i in range(len(blue)):
            if assign[i] >= 0:
                assert query_coverage(cut, red, blue.point(i)) < 2 * self.K

    def test_vectorized_matches_scalar(self):
        # One batch over every query agrees with one call per query point.
        _, blue, cut = self._cutting()
        assign = cut.classify_many(blue)
        assert (assign < 0).any() and (assign >= 0).any()
        for i in range(len(blue)):
            assert assign[i] == classify_one(cut, blue.point(i))

    def test_assignment_is_leftmost_containing_cell(self):
        red, blue, cut = self._cutting()
        assign = cut.classify_many(blue)
        assert (assign < 0).any() and (assign >= 0).any()
        for i in range(len(blue)):
            ci = int(assign[i])
            q = blue.point(i)
            containing = [m for m in range(len(cut.outward))
                          if cut.covers(m, q.x, q.y, q.tiebreak)]
            if ci < 0:
                assert containing == []
            else:
                assert containing and ci == containing[0]


class TestCharges:
    def test_build_charges_one_scan(self):
        red, _ = reduce_inversions(generate(InstanceSpec(500, "random_real", seed=4)))
        tally = IoTally(PARAMS)
        build_red_cutting(red, 10, tally)
        assert tally.reads == PARAMS.blocks(500, 2)
        assert tally.writes == 0

    def test_corner_charge_is_explicit(self):
        red, _ = reduce_inversions(generate(InstanceSpec(500, "random_real", seed=4)))
        tally = IoTally(PARAMS)
        cut = build_red_cutting(red, 10, tally)
        before = tally.writes
        cut.charge_corners(tally)
        n_corners = 2 * len(cut.outward) - 1
        assert tally.writes - before == PARAMS.blocks(n_corners, CORNER_WIDTH)
