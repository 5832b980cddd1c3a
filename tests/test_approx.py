"""Randomized estimator: regimes, sampler laws, unbiasedness at small scale."""

import numpy as np
import pytest

from invcount import (Estimate, InstanceSpec, PairSampler, brute_force_count,
                      count_adaptive_ram, counting, estimate_inversions,
                      generate, mergesort_count, reduce_inversions)
from invcount.approx import (EmptySampleSpaceError, REGIME_CELL, REGIME_EXACT,
                             REGIME_UNIFORM, _uniform_indices,
                             draw_uniform_pair, middle_regime_cap)
from invcount.cells import Cell, RedBlueCells, build_cells
from invcount.core import PointSet, dominance_mask
from invcount.iomodel import IoTally, RAM_PARAMS


def single_point_set(x, y, t, color="red"):
    return PointSet(np.array([x]), np.array([float(y)]), np.array([t]), color)


class TestRegimeDispatch:
    def test_sorted_is_exact_zero(self):
        est = estimate_inversions(generate(InstanceSpec(777, "sorted")), seed=0)
        assert est.regime == REGIME_EXACT and est.value == 0.0

    def test_small_count_is_exact(self):
        n = 10000
        values = generate(InstanceSpec(n, "target_inversions", seed=4,
                                       target=9000))
        est = estimate_inversions(values, seed=0)
        assert est.regime == REGIME_EXACT
        assert est.value == mergesort_count(values) == 9000

    def test_exact_round_spanning_several_batches(self):
        # N = 2^13 at k* = N/2 gives cells of more points than one batch
        # of the comparison-model counter holds.
        n = 2**13
        values = generate(InstanceSpec(n, "target_inversions", seed=0,
                                       target=n // 2))
        red, blue = reduce_inversions(values)
        family = build_cells(red, blue, n, IoTally(RAM_PARAMS))
        assert len(list(counting._batches(family.layout()[3]))) > 1
        est = estimate_inversions(values, seed=0)
        assert est.regime == REGIME_EXACT and est.value == n // 2
        assert count_adaptive_ram(red, blue).count == mergesort_count(values)

    def test_small_count_never_runs_distribution_counter(self, monkeypatch):
        import invcount.counting as counting

        def refuse(*args, **kwargs):
            raise AssertionError("exact_small ran the distribution counter")

        monkeypatch.setattr(counting, "count_nonadaptive", refuse)
        values = generate(InstanceSpec(4096, "target_inversions", seed=3,
                                       target=2048))
        est = estimate_inversions(values, seed=0)
        assert est.regime == REGIME_EXACT and est.value == 2048

    def test_middle_regime_reports_sampling_provenance(self):
        values = generate(InstanceSpec(1024, "target_inversions", seed=1,
                                       target=40960))
        est = estimate_inversions(values, seed=0)
        assert est.regime == REGIME_CELL
        assert est.n_samples == 1024 and est.sample_space > 0

    def test_forced_construction_failure_uses_uniform_pairs(self, monkeypatch):
        import invcount.approx as approx

        monkeypatch.setattr(approx, "build_cells",
                            lambda *a, **k: RedBlueCells(cap=1, failed=True))
        values = generate(InstanceSpec(256, "random_permutation", seed=2))
        kstar = mergesort_count(values)
        ests = [approx.estimate_inversions(values, seed=s) for s in range(60)]
        assert all(e.regime == REGIME_UNIFORM for e in ests)
        mean = np.mean([e.value for e in ests])
        assert abs(mean - kstar) <= 0.12 * kstar

    def test_uniform_regime_draws_through_the_uniform_sampler(self, monkeypatch):
        import invcount.approx as approx

        calls = []

        def recording(red, blue, rng, m=None):
            calls.append((red, blue, m, *_uniform_indices(red, blue, rng, m)))
            return calls[-1][3:]

        monkeypatch.setattr(approx, "_uniform_indices", recording)
        monkeypatch.setattr(approx, "build_cells",
                            lambda *a, **k: RedBlueCells(cap=1, failed=True))
        values = generate(InstanceSpec(512, "random_permutation", seed=2))
        est = estimate_inversions(values, seed=3)
        assert est.regime == REGIME_UNIFORM and len(calls) == 1
        red, blue, m, ri, bi = calls[0]
        assert m == est.n_samples == 512 and est.sample_space == m * m
        hits = sum(dominance_mask(*blue.point(j), *red.point(i)) for i, j in zip(ri, bi))
        assert est.hits == hits and est.value == hits * m

    def test_deterministic_given_seed(self):
        values = generate(InstanceSpec(1024, "target_inversions", seed=1,
                                       target=40960))
        a = estimate_inversions(values, seed=17)
        b = estimate_inversions(values, seed=17)
        assert a == b and isinstance(a, Estimate)

    def test_needs_at_least_one_value(self):
        with pytest.raises(ValueError):
            estimate_inversions([], seed=0)

    @pytest.mark.parametrize("seed", [True, 2.0, 1.5, None, -1],
                             ids=["bool", "float", "fraction", "none", "negative"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # Checked before any regime: a sorted list is counted exactly.
        with pytest.raises(ValueError, match="seed must be"):
            estimate_inversions([0.0, 1.0, 2.0], seed=seed)


class TestMiddleRegimeCap:
    def test_tiny_inputs(self):
        assert middle_regime_cap(1) == 1
        assert middle_regime_cap(2) == 1     # clamped to the single pair

    def test_4096(self):
        assert middle_regime_cap(4096) == int(np.ceil(4096**1.5 * 12))

    def test_clamp_to_max_pairs(self):
        n = 16
        assert middle_regime_cap(n) <= n * (n - 1) // 2


class TestPairSampler:
    def _family(self, weights):
        """Cell family with one red point per cell and ``w`` blue points."""
        cells = []
        x = 0
        for ci, w in enumerate(weights):
            red = single_point_set(x, 100 + ci, x)
            x += 1
            bx, by, bt = [], [], []
            for _ in range(w):
                bx.append(x); by.append(float(ci)); bt.append(x)
                x += 1
            blue = PointSet(np.array(bx), np.array(by), np.array(bt), "blue")
            cells.append(Cell(red=red, blue=blue))
        fam = RedBlueCells(cap=1)
        fam.cells = cells
        return fam

    def test_single_pair_is_certain(self):
        sampler = PairSampler(self._family([1]))
        rng = np.random.default_rng(0)
        ri, bi, ci = sampler.draw_many(rng, 1)
        assert ci[0] == 0 and sampler.rx[ri[0]] == 0 and sampler.bx[bi[0]] == 1

    def test_cell_weights_respected(self):
        sampler = PairSampler(self._family([1, 3]))
        rng = np.random.default_rng(5)
        _, _, cells = sampler.draw_many(rng, 100_000)
        freq = np.mean(cells == 1)
        sigma = np.sqrt(0.75 * 0.25 / 100_000)
        assert abs(freq - 0.75) <= 4 * sigma

    @pytest.mark.parametrize("at", [0, 1, 2])
    @pytest.mark.parametrize("side", ["red", "blue"])
    def test_empty_side_cell_is_never_drawn(self, at, side):
        fam = self._family([2, 3])
        none = PointSet(np.array([], dtype=np.int64), np.array([]),
                        np.array([], dtype=np.int64), side)
        cells = list(fam.cells)
        full = cells[0]
        cells.insert(at, Cell(red=none, blue=full.blue) if side == "red"
                     else Cell(red=full.red, blue=none))
        fam.cells = cells
        sampler = PairSampler(fam)
        assert sampler.total == 1 * 2 + 1 * 3
        _, _, cells = sampler.draw_many(np.random.default_rng(11), 100_000)
        assert not np.any(cells == at)

    def test_empty_sample_space_raises(self):
        fam = RedBlueCells(cap=1)
        sampler = PairSampler(fam)
        with pytest.raises(EmptySampleSpaceError):
            sampler.draw_many(np.random.default_rng(0), 1)

    def test_hit_probability_matches_truth_over_sample_space(self):
        values = generate(InstanceSpec(200, "random_permutation", seed=8))
        red, blue = reduce_inversions(values)
        kstar = brute_force_count(red, blue)
        built = build_cells(red, blue, middle_regime_cap(200),
                            IoTally(RAM_PARAMS))
        assert not built.failed
        sampler = PairSampler(built)
        space = sampler.total
        assert space == sum(len(c.red) * len(c.blue) for c in built.cells)
        m = 40_000
        rng = np.random.default_rng(3)
        ri, bi, _ = sampler.draw_many(rng, m)
        hits = sampler.count_hits(ri, bi)
        p = kstar / space
        sigma = np.sqrt(p * (1 - p) / m)
        assert abs(hits / m - p) <= 4 * sigma

    def test_count_hits_agrees_with_scalar_dominates(self):
        values = generate(InstanceSpec(60, "random_permutation", seed=9))
        red, blue = reduce_inversions(values)
        built = build_cells(red, blue, 60 * 60, IoTally(RAM_PARAMS))
        sampler = PairSampler(built)
        rng = np.random.default_rng(1)
        ri, bi, _ = sampler.draw_many(rng, 500)
        expect = 0
        for i, j in zip(ri, bi):
            r = (int(sampler.rx[i]), float(sampler.ry[i]), int(sampler.rt[i]))
            b = (int(sampler.bx[j]), float(sampler.by[j]), int(sampler.bt[j]))
            expect += dominance_mask(*b, *r)
        assert sampler.count_hits(ri, bi) == expect


class TestUniformPairs:
    def test_single_point_sets(self):
        red, blue = reduce_inversions([42.0])
        rng = np.random.default_rng(0)
        r, b = draw_uniform_pair(red, blue, rng)
        assert r.x == b.x == 0

    def test_frequencies_uniform_n4(self):
        red, blue = reduce_inversions(generate(InstanceSpec(4, "random_permutation")))
        rng = np.random.default_rng(2)
        counts = np.zeros((4, 4))
        m = 100_000
        for _ in range(m):
            r, b = draw_uniform_pair(red, blue, rng)
            counts[r.x, b.x] += 1
        p = 1 / 16
        sigma = np.sqrt(p * (1 - p) / m)
        assert np.all(np.abs(counts / m - p) <= 5 * sigma)

    def test_vector_draws_uniform_n4(self):
        red, blue = reduce_inversions(generate(InstanceSpec(4, "random_permutation")))
        m = 100_000
        ri, bi = _uniform_indices(red, blue, np.random.default_rng(2), m)
        counts = np.bincount(4 * ri + bi, minlength=16)
        p = 1 / 16
        sigma = np.sqrt(p * (1 - p) / m)
        assert np.all(np.abs(counts / m - p) <= 5 * sigma)

    def test_empty_set_rejected(self):
        red, _ = reduce_inversions([1.0])
        empty = PointSet(np.array([], dtype=np.int64), np.array([]),
                         np.array([], dtype=np.int64), "blue")
        with pytest.raises(ValueError):
            draw_uniform_pair(red, empty, np.random.default_rng(0))

    def test_hit_rate_estimates_density(self):
        n = 128
        values = generate(InstanceSpec(n, "random_permutation", seed=3))
        red, blue = reduce_inversions(values)
        kstar = brute_force_count(red, blue)
        rng = np.random.default_rng(4)
        m = 50_000
        hits = 0
        for _ in range(m):
            r, b = draw_uniform_pair(red, blue, rng)
            hits += dominance_mask(*b, *r)
        p = kstar / n**2
        sigma = np.sqrt(p * (1 - p) / m)
        assert abs(hits / m - p) <= 4 * sigma


class TestCellSamplingAccuracy:
    def test_mean_over_seeds_tracks_truth(self):
        n = 1024
        values = generate(InstanceSpec(n, "target_inversions", seed=6,
                                       target=40 * n))
        kstar = mergesort_count(values)
        ests = [estimate_inversions(values, seed=s) for s in range(100)]
        assert all(e.regime == REGIME_CELL for e in ests)
        vals = np.array([e.value for e in ests])
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - kstar) <= 5 * max(se, 1e-9)
