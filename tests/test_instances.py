"""Instance generation, including exact inversion-count targeting."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invcount import InstanceSpec, generate, mergesort_count
from invcount.instances import (InfeasibleTargetError, SHAPES,
                                decode_inversion_table,
                                random_inversion_table)


class TestShapes:
    def test_sorted(self):
        assert mergesort_count(generate(InstanceSpec(10, "sorted"))) == 0

    def test_reverse(self):
        assert mergesort_count(generate(InstanceSpec(10, "reverse"))) == 45

    def test_target_seven_of_ten(self):
        values = generate(InstanceSpec(10, "target_inversions", seed=0, target=7))
        assert mergesort_count(values) == 7

    def test_random_permutation_is_a_permutation(self):
        values = generate(InstanceSpec(50, "random_permutation", seed=1))
        assert sorted(values) == list(range(50))

    def test_duplicates_actually_repeat(self):
        values = generate(InstanceSpec(200, "duplicates", seed=1))
        assert len(np.unique(values)) < 200

    def test_deterministic_per_seed(self):
        a = generate(InstanceSpec(64, "random_real", seed=9))
        b = generate(InstanceSpec(64, "random_real", seed=9))
        c = generate(InstanceSpec(64, "random_real", seed=10))
        assert np.array_equal(a, b) and not np.array_equal(a, c)

    def test_unknown_shape_rejected(self):
        with pytest.raises(ValueError):
            generate(InstanceSpec(10, "zigzag"))

    def test_target_requires_target(self):
        with pytest.raises(ValueError):
            generate(InstanceSpec(10, "target_inversions"))

    @pytest.mark.parametrize("frac", [-0.1, 1.5, 7.0, float("nan")])
    def test_dup_fraction_out_of_range_rejected(self, frac):
        with pytest.raises(ValueError):
            generate(InstanceSpec(10, "duplicates", dup_fraction=frac))

    @pytest.mark.parametrize("spec", [
        InstanceSpec(10, "target_inversions", target=2.5),
        InstanceSpec(10, "target_inversions", target=True),
        InstanceSpec(10, "target_inversions", target=np.float64(7.0)),
        InstanceSpec(10.0, "target_inversions", target=7),
        InstanceSpec(True, "sorted"),
        InstanceSpec(10.5, "random_real"),
    ])
    def test_non_integral_size_or_target_rejected(self, spec):
        with pytest.raises(ValueError):
            generate(spec)

    @pytest.mark.parametrize("seed", [True, 2.0, 1.5, None, -1],
                             ids=["bool", "float", "fraction", "none", "negative"])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match="seed must be"):
            generate(InstanceSpec(10, "random_permutation", seed=seed))

    def test_numpy_integers_accepted(self):
        values = generate(InstanceSpec(np.int64(10), "target_inversions",
                                       target=np.int32(7)))
        assert mergesort_count(values) == 7

    def test_every_declared_shape_generates(self):
        for shape in SHAPES:
            target = 3 if shape == "target_inversions" else None
            assert len(generate(InstanceSpec(16, shape, target=target))) == 16


class TestInversionTables:
    def test_infeasible_target(self):
        with pytest.raises(InfeasibleTargetError):
            random_inversion_table(5, 11, np.random.default_rng(0))

    def test_extremes(self):
        rng = np.random.default_rng(0)
        assert sum(random_inversion_table(6, 0, rng)) == 0
        assert sum(random_inversion_table(6, 15, rng)) == 15

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 60), st.floats(0, 1))
    def test_table_decodes_to_exact_count(self, seed, n, frac):
        rng = np.random.default_rng(seed)
        k = int(frac * (n * (n - 1) // 2))
        table = random_inversion_table(n, k, rng)
        assert sum(table) == k
        assert all(0 <= b <= n - 1 - i for i, b in enumerate(table))
        perm = decode_inversion_table(table)
        assert mergesort_count(perm) == k
        assert sorted(perm) == list(range(n))
        assert [int(np.sum(perm[i + 1:] < perm[i])) for i in range(n)] == table.tolist()

    def test_generate_hits_exact_targets(self):
        for k in (0, 1, 100, 4950):
            values = generate(InstanceSpec(100, "target_inversions",
                                           seed=k, target=k))
            assert mergesort_count(values) == k

    def test_decoder_frees_its_temporaries(self):
        # The int64 ranks and indices take 2 MiB at n = 2**17; a level's two
        # masks and at most three half-length temporaries add 1.75 MiB.
        n = 2**17
        table = random_inversion_table(n, n, np.random.default_rng(0))
        tracemalloc.start()
        try:
            decode_inversion_table(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


def loop_table(n, k, rng):
    """The per-entry draw the chunked table must replay exactly."""
    remaining = k
    suffix = n * (n - 1) // 2
    table = []
    for i in range(n):
        cap = n - 1 - i
        suffix -= cap
        lo = max(0, remaining - suffix)
        hi = min(cap, remaining)
        b = int(rng.integers(lo, hi + 1)) if hi > lo else lo
        table.append(b)
        remaining -= b
    return table


BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox)

#: Targets that put the draw in each regime: none, few or many bound entries.
REGIMES = {
    "zero": lambda n, top: 0,
    "one": lambda n, top: min(1, top),
    "n": lambda n, top: min(n, top),
    "half": lambda n, top: top // 2,
    "max-n": lambda n, top: max(0, top - n),
    "max-1": lambda n, top: max(0, top - 1),
    "max": lambda n, top: top,
}


def assert_replays_loop(n, k, bit_generator, seed):
    loop_rng = np.random.Generator(bit_generator(seed))
    rng = np.random.Generator(bit_generator(seed))
    table = random_inversion_table(n, k, rng)
    assert table.dtype == np.int64
    assert table.tolist() == loop_table(n, k, loop_rng)
    assert repr(rng.bit_generator.state) == repr(loop_rng.bit_generator.state)


class TestChunkedTable:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 300), st.integers(0, 2**32 - 1),
           st.sampled_from(sorted(REGIMES)), st.sampled_from(BIT_GENERATORS))
    def test_equals_per_entry_loop(self, n, seed, regime, bit_generator):
        k = REGIMES[regime](n, n * (n - 1) // 2)
        assert_replays_loop(n, k, bit_generator, seed)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 300), st.integers(0, 2**32 - 1), st.data())
    def test_equals_per_entry_loop_at_any_target(self, n, seed, data):
        k = data.draw(st.integers(0, n * (n - 1) // 2))
        assert_replays_loop(n, k, np.random.PCG64, seed)

    # The count-dense and estimate-dense instances: k = n**2 / 4 and
    # k = floor(n ** 1.2).
    @pytest.mark.parametrize("n, k", [(2**17, 2**32), (2**18, 3178688)],
                             ids=["count-dense", "estimate-dense"])
    def test_equals_per_entry_loop_at_workload_sizes(self, n, k):
        assert_replays_loop(n, k, np.random.PCG64, 0)


class TestStreamContract:
    """numpy's array draws replay its scalar draws, which the table relies on.

    ``rng.integers(lows, highs)`` gives the values of one scalar call per
    element, in order, and leaves the same generator state; a single-value
    range draws nothing either way.  A numpy release that breaks this
    fails here by name, before any pinned instance digest.
    """

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_array_bounds_replay_scalar_calls(self, bit_generator):
        spec = np.random.default_rng(2024)
        widths = np.concatenate([
            np.ones(50, dtype=np.int64),
            spec.integers(1, 300, size=400),
            spec.integers(1, 2**31 + 1, size=200),
            [2**31 - 1, 2**31, 2**16, 2**16 + 1, 1, 2],
        ])
        spec.shuffle(widths)
        lows = spec.integers(0, 1000, size=len(widths))
        highs = lows + widths
        scalar_rng = np.random.Generator(bit_generator(7))
        rng = np.random.Generator(bit_generator(7))
        start = rng.bit_generator.state
        scalar = [int(scalar_rng.integers(lo, hi)) for lo, hi in zip(lows, highs)]
        drawn = rng.integers(lows, highs)
        assert drawn.tolist() == scalar
        assert repr(rng.bit_generator.state) == repr(scalar_rng.bit_generator.state)
        rng.bit_generator.state = start
        assert rng.integers(lows, highs).tolist() == scalar

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_single_value_ranges_draw_nothing(self, bit_generator):
        rng = np.random.Generator(bit_generator(3))
        start = repr(rng.bit_generator.state)
        assert rng.integers(np.arange(5), np.arange(1, 6)).tolist() == list(range(5))
        assert int(rng.integers(4, 5)) == 4
        assert repr(rng.bit_generator.state) == start
