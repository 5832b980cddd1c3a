"""Red-blue cell construction: partition exactness and the failure contract."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invcount import (EmParams, InstanceSpec, IoTally, PairSampler,
                      RAM_PARAMS, audit_cells, brute_force_count,
                      build_cells, core, count_capped, counting, generate,
                      merge_count_dominance, mergesort_count,
                      reduce_inversions)
from invcount.approx import middle_regime_cap
from invcount.cells import Cell, RedBlueCells
from invcount.core import PointSet
from invcount.instances import SHAPES


def build(values, cap):
    red, blue = reduce_inversions(values)
    return red, blue, build_cells(red, blue, cap, IoTally(RAM_PARAMS))


class TestContract:
    def test_sorted_list_any_cap(self):
        for cap in (1, 7, 100):
            red, blue, built = build(generate(InstanceSpec(80, "sorted")), cap)
            assert not built.failed
            assert audit_cells(built, red, blue).total_pairs == 0

    def test_300_permutation_saturated_cap(self):
        values = generate(InstanceSpec(300, "random_permutation", seed=9))
        red, blue, built = build(values, 300 * 300)
        assert not built.failed
        audit = audit_cells(built, red, blue)
        assert audit.ok
        assert audit.total_pairs == mergesort_count(values)

    def test_reverse_256_fails_at_cap_n(self):
        _, _, built = build(generate(InstanceSpec(256, "reverse")), 256)
        assert built.failed
        assert built.failed

    def test_cap_must_be_positive(self):
        red, blue = reduce_inversions([2.0, 1.0])
        with pytest.raises(ValueError):
            build_cells(red, blue, 0, IoTally(RAM_PARAMS))

    @pytest.mark.parametrize("cap", [True, 2.5, 4.0, float("inf"), None],
                             ids=["bool", "fraction", "float", "inf", "none"])
    def test_cap_must_be_an_integer(self, cap):
        red, blue = reduce_inversions(generate(InstanceSpec(64, "reverse")))
        with pytest.raises(ValueError, match="cap must be an integer"):
            build_cells(red, blue, cap, IoTally(RAM_PARAMS))

    @pytest.mark.parametrize("cap", [0, -3, True, 2.5, None])
    def test_family_refuses_a_cap_below_one_or_not_an_integer(self, cap):
        # The audit divides by the cap, so the family checks it once, for
        # build_cells as well.
        red, blue = reduce_inversions([2.0, 1.0])
        with pytest.raises(ValueError, match="cap must be"):
            audit_cells(RedBlueCells(cap=cap), red, blue)

    def test_empty_input(self):
        _, _, built = build([], 5)
        assert not built.failed and built.cells == ()

    def test_failed_rounds_charge_only_scans(self):
        """A failed build's tally must not depend on corner or cell counts."""
        values = generate(InstanceSpec(256, "reverse"))
        red, blue = reduce_inversions(values)
        params = RAM_PARAMS
        tally = IoTally(params)
        assert build_cells(red, blue, 256, tally).failed
        # base scan + classification scan only, no writes
        assert tally.writes == 0
        assert tally.reads == 2 * params.blocks(256, 2)

    def test_blue_half_level_failure(self):
        """The red cutting's half-level passes and the blue one fails."""
        values = generate(InstanceSpec(64, "random_permutation", seed=5))
        red, blue = reduce_inversions(values)
        assert mergesort_count(values) == 1043
        tally = IoTally(RAM_PARAMS)
        built = build_cells(red, blue, 256, tally)
        assert built.failed and len(built.cells) == 3
        assert (tally.reads, tally.writes) == (448, 181)
        params = EmParams(2048, 32)
        tally = IoTally(params)
        assert count_capped(red, blue, 256, params, tally) is None
        assert (tally.reads, tally.writes) == (14, 6)


class TestAudit:
    def test_gentle_300_permutation_cap_16n(self):
        n, cap = 300, 300 * 16
        values = generate(InstanceSpec(n, "target_inversions", seed=5,
                                       target=cap // 2))
        red, blue, built = build(values, cap)
        assert not built.failed
        audit = audit_cells(built, red, blue)
        assert audit.ok
        assert audit.total_pairs == brute_force_count(red, blue)

    def test_corrupted_family_reports_duplicates(self):
        values = generate(InstanceSpec(100, "target_inversions", seed=5,
                                       target=300))
        red, blue, built = build(values, 1600)
        assert not built.failed and len(built.cells) >= 1
        built.cells = [*built.cells, built.cells[0]]
        audit = audit_cells(built, red, blue)
        assert not audit.ok
        assert audit.duplicate_pairs

    def test_missing_cell_reported(self):
        values = generate(InstanceSpec(100, "random_permutation", seed=1))
        red, blue, built = build(values, 100 * 100)
        assert not built.failed
        dropped = [c for c in built.cells if len(c.red) * len(c.blue) > 0]
        assert dropped
        built.cells = [c for c in built.cells if c is not dropped[0]]
        audit = audit_cells(built, red, blue)
        assert not audit.ok

    def test_reported_pairs_match_a_set_reference(self):
        values = generate(InstanceSpec(200, "target_inversions", seed=2,
                                       target=600))
        red, blue, built = build(values, 16 * 200)
        hit = [c for c in built.cells if brute_force_count(c.red, c.blue)]
        assert len(hit) >= 2
        built.cells = [*(c for c in built.cells if c is not hit[0]), hit[1]]

        def pairs(r, b):
            return [(p.tiebreak, q.tiebreak)
                    for p in map(r.point, range(len(r)))
                    for q in map(b.point, range(len(b))) if core.dominance_mask(*q, *p)]

        seen = Counter(p for c in built.cells for p in pairs(c.red, c.blue))
        audit = audit_cells(built, red, blue)
        assert audit.duplicate_pairs == sorted(p for p, k in seen.items() if k > 1)
        assert audit.missing_pairs == sorted(set(pairs(red, blue)) - set(seen))
        assert audit.duplicate_pairs and audit.missing_pairs
        assert audit.total_pairs == sum(seen.values())

    def test_repeated_tiebreak_is_not_a_duplicate(self):
        # Two reds share tiebreak 0; each of the two pairs is found once.
        red = PointSet([0, 1], [5.0, 6.0], [0, 0])
        blue = PointSet([2], [1.0], [0], "blue")
        for family in (RedBlueCells(cap=4, cells=[Cell(red, blue)]),
                       build_cells(red, blue, 4, IoTally(RAM_PARAMS))):
            audit = audit_cells(family, red, blue)
            assert audit.ok and audit.duplicate_pairs == []
            assert audit.total_pairs == audit.expected_pairs == 2

    def test_summary_names_the_outcome(self):
        values = generate(InstanceSpec(100, "target_inversions", seed=5,
                                       target=300))
        red, blue, built = build(values, 1600)
        assert audit_cells(built, red, blue).summary() == (
            "ok: pairs 300/300, small-side ratio 4.00, size ratio 1.64")
        built.cells = [*built.cells, built.cells[0]]
        assert audit_cells(built, red, blue).summary() == (
            "VIOLATION: pairs 558/300, small-side ratio 4.00, size ratio 2.28")

    @pytest.mark.parametrize("color", ["red", "blue"])
    @pytest.mark.parametrize("x", [-1, 5, 100])
    def test_audit_refuses_a_foreign_point(self, color, x):
        # Input x are 0, 2, 4, ..., 18: x = 5 lies between two of them, where
        # an index by search alone would credit its pairs to a neighbour.
        red, blue = reduce_inversions(np.arange(10.0)[::-1])
        red, blue = (PointSet(2 * s.x, s.y, s.tiebreak, s.color) for s in (red, blue))
        stray = PointSet([x], [4.5], [x], color)
        cell = Cell(stray, blue) if color == "red" else Cell(red, stray)
        with pytest.raises(ValueError, match=f"{color} point that is not in the input"):
            audit_cells(RedBlueCells(cap=100, cells=[Cell(red, blue), cell]), red, blue)

    def test_corruption_between_cells_is_reported(self):
        """Criterion 3's 200 instances (rng seed 7) at ``cap = max(K*, 1)``,
        where the pairs spread over several cells, unlike at criterion 3's
        own caps: each build passes the audit, and a copy with one
        pair-holding cell duplicated, or dropped, fails it."""
        rng = np.random.default_rng(7)
        shapes = ["sorted", "reverse", "random_permutation", "random_real",
                  "duplicates"]
        spread = 0
        for i in range(200):
            n = int(rng.integers(64, 501))
            rng.integers(1, max(2, n // 3))  # criterion 3's cutting depth
            values = generate(InstanceSpec(n, shapes[i % len(shapes)], seed=i))
            red, blue, built = build(values, max(mergesort_count(values), 1))
            assert not built.failed and audit_cells(built, red, blue).ok
            cells = built.cells
            hit = [c for c in cells if brute_force_count(c.red, c.blue)]
            if len(hit) < 2:
                continue
            spread += 1
            for family in ([*cells, hit[0]], [c for c in cells if c is not hit[0]]):
                built.cells = family
                assert not audit_cells(built, red, blue).ok
        assert spread == 64

    def test_audit_refuses_failed_build(self):
        red, blue, built = build(generate(InstanceSpec(256, "reverse")), 256)
        with pytest.raises(ValueError):
            audit_cells(built, red, blue)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(4, 180), st.integers(0, 3))
    def test_no_false_failure_and_exact_partition(self, seed, n, capmul):
        shape = ["random_permutation", "random_real", "duplicates",
                 "reverse"][seed % 4]
        values = generate(InstanceSpec(n, shape, seed=seed))
        red, blue = reduce_inversions(values)
        kstar = brute_force_count(red, blue)
        cap = max(1, kstar * (1 + capmul))
        built = build_cells(red, blue, cap, IoTally(RAM_PARAMS))
        assert not built.failed, "failure with cap >= true count is a contract breach"
        audit = audit_cells(built, red, blue)
        assert audit.ok
        assert audit.total_pairs == kstar

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(4, 180), st.integers(1, 500))
    def test_failure_implies_cap_exceeded(self, seed, n, cap):
        values = generate(InstanceSpec(n, "random_permutation", seed=seed))
        red, blue = reduce_inversions(values)
        built = build_cells(red, blue, cap, IoTally(RAM_PARAMS))
        if built.failed:
            assert brute_force_count(red, blue) > cap

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SHAPES), st.integers(0, 300), st.integers(0, 10**6),
           st.integers(1, 50_000), st.sampled_from([RAM_PARAMS, EmParams(1024, 32)]))
    def test_every_cell_has_both_sides(self, shape, n, seed, cap, params):
        # PairSampler weights every cell by |R||B| without filtering; this
        # holds for the partial family of a failed build too.
        target = seed % (n * (n - 1) // 2 + 1)
        values = generate(InstanceSpec(n, shape, seed=seed, target=target))
        red, blue = reduce_inversions(values)
        built = build_cells(red, blue, cap, IoTally(params))
        assert all(len(c.red) and len(c.blue) for c in built.cells)

    def test_level_counts_halve(self):
        values = generate(InstanceSpec(400, "random_permutation", seed=3))
        red, blue = reduce_inversions(values)
        kstar = brute_force_count(red, blue)
        built = build_cells(red, blue, 2 * kstar, IoTally(RAM_PARAMS))
        assert not built.failed
        by_level = {}
        for c in built.cells:
            by_level.setdefault(c.level, [0, 0])
            by_level[c.level][0] += len(c.red)
            by_level[c.level][1] += len(c.blue)
        for level, (nr, nb) in by_level.items():
            assert min(nr, nb) <= 400  # sanity; sharper bound in acceptance


class TestLayout:
    """A family is held once, as its flat layout.  Reading ``.cells`` makes
    views of it and changes nothing; assigning ``.cells`` gathers the
    assigned cells into a new layout."""

    N = 300
    SAMPLER = ("total", "bx", "r_offs", "r_sizes", "b_offs", "b_sizes")

    @pytest.mark.parametrize("params", [RAM_PARAMS, EmParams(1024, 32)])
    @pytest.mark.parametrize("shape", ["sorted", "reverse",
                                       "random_permutation", "target_inversions"])
    def test_list_family_agrees_with_layout(self, shape, params):
        n = self.N
        values = generate(InstanceSpec(n, shape, seed=4, target=n))
        red, blue = reduce_inversions(values)
        cells = 0
        for cap in (1, n, 16 * n, middle_regime_cap(n)):
            fresh, read = (build_cells(red, blue, cap, IoTally(params))
                           for _ in range(2))
            cells += len(read.cells)
            for a, b in zip(fresh.layout(), read.layout()):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert (counting._count_cells(fresh, merge_count_dominance)
                    == counting._count_cells(read, merge_count_dominance))
            samplers = PairSampler(fresh), PairSampler(read)
            for name in self.SAMPLER:
                a, b = (getattr(s, name) for s in samplers)
                assert np.array_equal(a, b)
                assert np.asarray(a).dtype == np.asarray(b).dtype
            if samplers[0].total:
                draws = [s.draw_many(np.random.default_rng(cap), 500) for s in samplers]
                assert all(np.array_equal(a, b) for a, b in zip(*draws))
                hits = [s.count_hits(*d[:2]) for s, d in zip(samplers, draws)]
                assert hits[0] == hits[1]
        assert cells > 0

    def test_layout_holds_the_cells(self):
        n = 400  # at k* = cap = n, the family spans levels 0 and 1
        values = generate(InstanceSpec(n, "target_inversions", seed=1, target=n))
        red, blue = reduce_inversions(values)
        built = build_cells(red, blue, n, IoTally(RAM_PARAMS))
        x, y, t, sizes = built.layout()
        cells = built.cells
        assert len(cells) == sizes.shape[1] > 1
        assert sizes[0].tolist() == [len(c.blue) for c in cells]
        assert sizes[1].tolist() == [len(c.red) for c in cells]
        sides = [c.blue for c in cells] + [c.red for c in cells]
        assert np.array_equal(x, np.concatenate([s.x for s in sides]))
        assert np.array_equal(y, np.concatenate([s.y for s in sides]))
        assert np.array_equal(t, np.concatenate([s.tiebreak for s in sides]))
        assert len({c.level for c in cells}) > 1

    def test_reading_cells_keeps_the_layout(self):
        red, blue = reduce_inversions(generate(InstanceSpec(
            self.N, "target_inversions", seed=3, target=2 * self.N)))
        built = build_cells(red, blue, self.N, IoTally(RAM_PARAMS))
        before = built.layout()
        cells = built.cells
        assert len(cells) > 1 and built.cells is cells
        assert all(a is b for a, b in zip(before, built.layout()))
        with pytest.raises(AttributeError):
            cells.append(cells[0])
        with pytest.raises(TypeError):
            cells[0] = cells[1]

    def test_assigning_cells_adds_their_pairs(self):
        values = generate(InstanceSpec(self.N, "target_inversions", seed=3,
                                       target=2 * self.N))
        red, blue = reduce_inversions(values)
        built = build_cells(red, blue, 16 * self.N, IoTally(RAM_PARAMS))
        before = counting._count_cells(built, merge_count_dominance)
        total = PairSampler(built).total
        extra = Cell(red._take(slice(0, 40)), blue._take(slice(0, 40)))
        assert brute_force_count(extra.red, extra.blue) > 0
        built.cells = [*built.cells, extra]
        assert counting._count_cells(built, merge_count_dominance) == (
            before + brute_force_count(extra.red, extra.blue))
        assert PairSampler(built).total == total + 40 * 40
