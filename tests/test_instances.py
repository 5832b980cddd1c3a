"""Instance generation, including exact inversion-count targeting."""

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
        assert [int(np.sum(perm[i + 1:] < perm[i])) for i in range(n)] == table

    def test_generate_hits_exact_targets(self):
        for k in (0, 1, 100, 4950):
            values = generate(InstanceSpec(100, "target_inversions",
                                           seed=k, target=k))
            assert mergesort_count(values) == k
