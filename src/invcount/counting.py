"""Exact dominance counters: non-adaptive, capped, and adaptive.

The non-adaptive counter is a distribution-sort style recursion.  The
smaller color (red on a tie) is cut by key rank into ``f ~ sqrt(M/B)``
chunks at ranks ``j * ns // f``, and one sort of both colors by key gives
every point a chunk label: the chunk of its own rank, or for the other
color the chunk of the number of split-side keys strictly below its own.
A blue labelled below a red then has the smaller key and dominates the
red exactly when it lies to its right; one synchronized scan counts those
pairs, and each label recurses on its own.  Tie rule: a blue whose key
equals two or more split-side reds takes the label of the last of them,
so no red of equal key is labelled above it.  Once the smaller side of a
subproblem has at most ``B`` points, both sides are charged as read and
the leaf counts its pairs with the strict dominance mask of
``core.brute_force_count``: O(B n) RAM work on data already in memory,
with no further I/O.

The capped counter builds red-blue cells for a cap ``K`` and runs the
non-adaptive counter inside each cell; it may report failure, which
certifies the true count exceeds ``K``.

The adaptive counter runs the capped counter over a doubly-exponential
cap schedule ``(N*B) * (M/B)**(2**i - 2)``, saturating at ``N**2``, and
stops at the first success.  The total cost telescopes to the cost of the
last round, so the I/O count adapts to the true number of pairs.

The comparison/RAM-model rounds (``count_capped_ram``, and
``count_adaptive_ram`` over ``ram_cap_schedule``) count each cell with
``merge_count_dominance`` instead: one O(n log n) sort, then the
``ceil(log2 n)`` vectorized passes of the position-inversion kernel, each
ending in one stable sort, so O(n log^2 n) comparisons in all.  The kernel
lives in ``core`` beside ``core.mergesort_count``, its other user.
Only the I/O-model counters reach the distribution recursion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import isqrt
from typing import Callable, Iterator, Optional

import numpy as np

from .cells import build_cells
from .core import PointSet, brute_force_count, count_position_inversions
from .iomodel import EmParams, IoTally, RAM_PARAMS


def merge_count_dominance(red: PointSet, blue: PointSet) -> int:
    """Exact domination-pair count in O(n log^2 n) comparisons.

    Used as the comparison-model leaf solver; independent of the
    distribution-based recursion.  A stable sort of x, blue concatenated
    first, merges the colors with blue first on equal x, so equal-x pairs
    (never dominating) cannot count; the domination pairs are then the
    red-blue position inversions under the ``(y, tiebreak)`` key, which
    ``core.count_position_inversions`` counts in ``ceil(log2 n)`` passes.
    """
    by_x = np.argsort(np.concatenate([blue.x, red.x]), kind="stable")
    y = np.concatenate([blue.y, red.y])[by_x]
    t = np.concatenate([blue.tiebreak, red.tiebreak])[by_x]
    is_red = by_x >= len(blue)
    return count_position_inversions(np.lexsort((t, y)), is_red, ~is_red)


def _fanout(params: EmParams) -> int:
    f = max(2, isqrt(params.memory_words // params.block_words))
    # A distribution pass keeps one input stream plus f bucket streams
    # open.  The counting scan keeps more: f chunk streams, the opposite
    # input and f bucket streams, 2f + 1 in all, which exceeds the budget
    # for M // B in 6-13, 16 and 17.
    return min(f, params.max_streams - 1)


def _chunk_labels(red: PointSet, blue: PointSet,
                  f: int) -> tuple[np.ndarray, np.ndarray]:
    """Chunk label of every red and every blue point; see the module docstring."""
    nr, nb = len(red), len(blue)
    side_is_red, ns = nr <= nb, min(nr, nb)
    # Other-color points sort before split-side points of an equal key, so
    # a side point's rank is its key position and another point's the
    # number of side keys strictly below its own.
    is_side = np.repeat([side_is_red, not side_is_red], [nr, nb])
    y = np.concatenate([red.y, blue.y])
    t = np.concatenate([red.tiebreak, blue.tiebreak])
    order = np.lexsort((is_side, t, y))
    s = is_side[order]
    through = np.cumsum(s)
    rank = through - s
    if side_is_red:
        # Tie rule: a blue ranks max(r, le - 1), where ``le`` counts the
        # side keys at or below its own, through the end of the key's run.
        y, t = y[order], t[order]
        tie = (y[1:] == y[:-1]) & (t[1:] == t[:-1])
        le = np.where(np.append(~tie, True), through, ns)
        le = np.minimum.accumulate(le[::-1])[::-1]
        rank = np.where(s, rank, np.maximum(rank, le - 1))
    labels = np.empty_like(rank)
    labels[order] = np.searchsorted(np.arange(f) * ns // f, rank, side="right") - 1
    return labels[:nr], labels[nr:]


def _nonadaptive_rec(red: PointSet, blue: PointSet,
                     params: EmParams, tally: IoTally, f: int) -> int:
    nr, nb = len(red), len(blue)
    if nr == 0 or nb == 0:
        return 0
    if min(nr, nb) <= params.block_words:
        tally.charge_read(nr)
        tally.charge_read(nb)
        return brute_force_count(red, blue)

    red_labels, blue_labels = _chunk_labels(red, blue, f)
    reds, blues = red.split(red_labels, f), blue.split(blue_labels, f)

    # Distribution pass over the side, then a synchronized counting scan
    # of its chunks that also distributes the opposite points into buckets.
    side, other = (reds, blues) if nr <= nb else (blues, reds)
    tally.charge_distribute(min(nr, nb), [len(c) for c in side])
    for chunk in side:
        tally.charge_read(len(chunk))
    tally.charge_distribute(max(nr, nb), [len(c) for c in other])

    # Cross-chunk pairs: a blue labelled below a red has the smaller key,
    # so it dominates the red exactly when it lies to the red's right.
    total = 0
    for j in range(1, f):
        total += int(np.searchsorted(reds[j].x, blue.x[blue_labels < j]).sum())
    return total + sum(_nonadaptive_rec(r, b, params, tally, f)
                       for r, b in zip(reds, blues))


def count_nonadaptive(red: PointSet, blue: PointSet,
                      params: EmParams, tally: IoTally) -> int:
    """Exact domination-pair count by multiway distribution."""
    f = _fanout(params)
    if f < 2:
        raise ValueError("memory too small for fanout 2 plus an input stream")
    return _nonadaptive_rec(red, blue, params, tally, f)


def _capped(red: PointSet, blue: PointSet, cap: int, tally: IoTally,
            leaf: Callable[[PointSet, PointSet], int]) -> Optional[int]:
    """One guessing round: count with ``leaf`` inside the cells for ``cap``.

    A cap that cannot be exceeded skips the cell construction entirely.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if cap >= len(red) * len(blue):
        return leaf(red, blue)
    built = build_cells(red, blue, cap, tally)
    if built.failed:
        return None
    return sum(leaf(cell.red, cell.blue) for cell in built.cells)


def count_capped(red: PointSet, blue: PointSet, cap: int,
                 params: EmParams, tally: IoTally) -> Optional[int]:
    """Exact count, or ``None`` (failure) only when the true count > cap."""
    return _capped(red, blue, cap, tally,
                   lambda r, b: count_nonadaptive(r, b, params, tally))


def _saturating(n: int, cap_at: Callable[[int], int]) -> Iterator[int]:
    """``cap_at(2**i)`` for ``i = 1, 2, ...``, ending with ``n**2``."""
    sat = n * n
    for i in itertools.count(1):
        cap = cap_at(2**i)
        if cap >= sat:
            yield sat
            return
        yield cap


def cap_schedule(n: int, params: EmParams) -> Iterator[int]:
    """Doubly-exponential cap guesses, saturating at ``n**2``.

    Round ``i`` uses ``(n*B) * (M/B)**(2**i - 2)``, i.e. exponents 0, 2,
    6, 14, ...; the first round's cap ``n*B`` keeps the zero-inversion
    cost near one scan, and a failure in round ``i`` still certifies
    ``2**(i+1) <= 2*log_{M/B}(true/(n*B)) + 4``, so the total cost
    telescopes to the cost of the last round.
    """
    m, b = params.memory_words, params.block_words
    return _saturating(n, lambda p: n * b * m**(p - 2) // b**(p - 2))


def ram_cap_schedule(n: int) -> Iterator[int]:
    """Cap guesses ``n * 2**(2**i)`` for the comparison/RAM variants."""
    return _saturating(n, lambda p: n * 2**p)


@dataclass
class AdaptiveCount:
    """Result of a guessing-round run: the count and the rounds it took."""

    count: int
    caps: list[int] = field(default_factory=list)

    @property
    def rounds(self) -> int:
        return len(self.caps)


def _rounds(n: int, schedule: Iterator[int],
            capped: Callable[[int], Optional[int]]) -> AdaptiveCount:
    """Run ``capped`` on each cap of ``schedule`` until a round succeeds."""
    if n == 0:
        return AdaptiveCount(0)
    caps: list[int] = []
    for cap in schedule:
        caps.append(cap)
        res = capped(cap)
        if res is not None:
            return AdaptiveCount(res, caps)
    raise AssertionError("saturated cap cannot fail")


def count_adaptive(red: PointSet, blue: PointSet,
                   params: EmParams, tally: IoTally) -> AdaptiveCount:
    """Exact count via capped rounds with doubly-exponential caps."""
    n = max(len(red), len(blue))
    return _rounds(n, cap_schedule(n, params),
                   lambda cap: count_capped(red, blue, cap, params, tally))


def count_capped_ram(red: PointSet, blue: PointSet, cap: int) -> Optional[int]:
    """Comparison-model capped round: ``merge_count_dominance`` in each cell."""
    return _capped(red, blue, cap, IoTally(RAM_PARAMS), merge_count_dominance)


def count_adaptive_ram(red: PointSet, blue: PointSet) -> AdaptiveCount:
    """Comparison-model adaptive counter: capped RAM rounds until one succeeds."""
    n = max(len(red), len(blue))
    return _rounds(n, ram_cap_schedule(n),
                   lambda cap: count_capped_ram(red, blue, cap))
