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
``count_adaptive_ram`` over ``ram_cap_schedule``) count their cells in
batches of consecutive cells holding about ``BATCH_POINTS`` points, one
call of the position-inversion kernel per batch.  Every point carries the
id of its cell; positions sort by ``(cell, x, blue first on equal x)``
and keys by ``(cell, y, tiebreak)``, so a red and a blue of different
cells never invert and only pairs within a cell count.  A batch of ``n``
points costs one O(n log n) sort, then the ``ceil(log2 n)`` vectorized
kernel passes, each ending in one stable sort: O(n log^2 n) comparisons,
and a round is the sum over its batches.  ``merge_count_dominance`` is
the one-cell case.  The kernel lives in ``core`` beside
``core.mergesort_count``, its other user.  Only the I/O-model counters
reach the distribution recursion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import isqrt
from typing import Callable, Iterator, Optional

import numpy as np

from .cells import Cell, build_cells
from .core import PointSet, brute_force_count, count_position_inversions
from .iomodel import EmParams, IoTally, RAM_PARAMS


#: Points a batch of cells gathers for one kernel call; a larger cell is
#: a batch of its own.  Larger batches ran no faster and held more memory:
#: on the exact round of a 2^15-point estimate, a bound of 2^16 raised
#: peak RSS by about 4 MB and one batch for all cells by about 9 MB.
BATCH_POINTS = 2**12


def _gather(cells: list[Cell]) -> tuple[np.ndarray, ...]:
    """``x, y, tiebreak`` of every blue point of ``cells`` and then every
    red one, each colour in cell order, and the sizes as two rows: the
    blue and the red size of each cell."""
    sides = [c.blue for c in cells] + [c.red for c in cells]
    sizes = np.array([len(s) for s in sides], dtype=np.int64).reshape(2, -1)
    x, y, t = (np.concatenate([getattr(s, a) for s in sides] or [np.empty(0)])
               for a in ("x", "y", "tiebreak"))
    return x, y, t, sizes


def _batches(cells: list[Cell]) -> Iterator[list[Cell]]:
    """Runs of consecutive cells, each of at most ``BATCH_POINTS`` points
    unless it is a single larger cell."""
    start = points = 0
    for i, c in enumerate(cells):
        n = len(c.red) + len(c.blue)
        if i > start and points + n > BATCH_POINTS:
            yield cells[start:i]
            start, points = i, 0
        points += n
    if start < len(cells):
        yield cells[start:]


def _key_order(cells: list[Cell]) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's key order and red mask for one batch of cells.

    Blue comes first in the gather, so the stable sort by ``(cell, x)``
    puts blue first on equal x: equal-x pairs (never dominating) cannot
    count.  The gathered coordinates are freed on return, before the
    kernel allocates its own arrays.
    """
    x, y, t, sizes = _gather(cells)
    cell = np.repeat(np.tile(np.arange(len(cells)), 2), sizes.ravel())
    by_x = np.lexsort((x, cell))
    is_red = by_x >= sizes[0].sum()
    return np.lexsort((t[by_x], y[by_x], cell[by_x])), is_red


def _count_cells(cells: list[Cell]) -> int:
    """Domination pairs summed over ``cells``: one kernel call per batch."""
    total = 0
    for batch in _batches(cells):
        order, is_red = _key_order(batch)
        total += count_position_inversions(order, is_red, ~is_red)
    return total


def merge_count_dominance(red: PointSet, blue: PointSet) -> int:
    """Exact domination-pair count in O(n log^2 n) comparisons.

    The one-cell case of the comparison-model rounds' batched counter;
    independent of the distribution-based recursion.
    """
    return _count_cells([Cell(red, blue)])


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
            count: Callable[[list[Cell]], int]) -> Optional[int]:
    """One guessing round: ``count`` the pairs in the cells for ``cap``.

    A cap that cannot be exceeded skips the cell construction entirely
    and counts the input as one cell.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if cap >= len(red) * len(blue):
        return count([Cell(red, blue)])
    built = build_cells(red, blue, cap, tally)
    if built.failed:
        return None
    return count(built.cells)


def count_capped(red: PointSet, blue: PointSet, cap: int,
                 params: EmParams, tally: IoTally) -> Optional[int]:
    """Exact count, or ``None`` (failure) only when the true count > cap."""
    return _capped(red, blue, cap, tally, lambda cells: sum(
        count_nonadaptive(c.red, c.blue, params, tally) for c in cells))


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
    """Comparison-model capped round: its cells counted in batches."""
    return _capped(red, blue, cap, IoTally(RAM_PARAMS), _count_cells)


def count_adaptive_ram(red: PointSet, blue: PointSet) -> AdaptiveCount:
    """Comparison-model adaptive counter: capped RAM rounds until one succeeds."""
    n = max(len(red), len(blue))
    return _rounds(n, ram_cap_schedule(n),
                   lambda cap: count_capped_ram(red, blue, cap))
