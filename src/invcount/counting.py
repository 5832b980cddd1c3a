"""Exact dominance counters: non-adaptive, capped, and adaptive.

The non-adaptive counter is a distribution-sort style recursion.  The
smaller color of a subproblem (red on a tie) is cut by key rank into
``f ~ sqrt(M/B)`` chunks at ranks ``j * ns // f``, and every point gets a
chunk label: the chunk of its own rank, or for the other color the chunk
of the number of split-side keys strictly below its own.  A blue labelled
below a red then has the smaller key and dominates the red exactly when
it lies to its right; one synchronized scan counts those pairs, and each
label is a subproblem of its own.  Tie rule: a blue whose key equals two
or more split-side reds takes the label of the last of them, so no red of
equal key is labelled above it.  The K order below puts red first on an
equal key, so the split-side points before such a blue, less one, are
that red's rank: one pass of running counts ranks every point.  Once the
smaller side of a subproblem has at most ``B`` points, both sides are
charged as read and every pair is tested by ``_cell_pairs``: O(B n) RAM
work on data already in memory, with no further I/O.

The recursion runs level by level, as distribution sweeping does, over
every cell of a batch at once.  A level holds all its subproblems as two
lists of point numbers, each grouped by subproblem: the X order, by x
with blue first on equal x, and the K order, by key with red first on an
equal key.  Both are sorted once, at the root, where a point's key also
becomes a rank.  A level labels the points by running counts along the K
order; within a subproblem labels never decrease along it, so it stays
grouped by child with no work.  The cross-chunk pairs are ``f - 1``
running counts along the X order, and a stable sort by (subproblem,
label) groups the X order by child: one radix pass per 16-bit digit of
``nodes * f``, in ``_radix_argsort`` beside ``_distribute``, whatever
order the keys arrive in.  So a level costs O(f) linear passes plus
those radix passes, and the leaves O(B n) work in chunks of pairs.  One
``bincount`` over (subproblem, label, colour) gives every bucket size,
and ``IoTally``'s array rules charge the level's passes from those
sizes, with the same charges as a recursion node by node.

The capped counter builds red-blue cells for a cap ``K`` and counts the
pairs inside each cell; it may report failure, which certifies the true
count exceeds ``K``.  Both models' rounds cut the family's flat layout
(``cells.RedBlueCells.layout``) into the batches of ``_batches`` and
pass each to one counter call as two slices, its cells' red and blue
points, and their sizes.  The I/O round's counter is
``count_nonadaptive``: each cell is a root subproblem, charged as its
own recursion.

The adaptive counter runs the capped counter over a doubly-exponential
cap schedule ``(N*B) * (M/B)**(2**i - 2)``, saturating at ``N**2``, and
stops at the first success.  The total cost telescopes to the cost of the
last round, so the I/O count adapts to the true number of pairs.

The comparison/RAM-model rounds (``count_capped_ram``, and
``count_adaptive_ram`` over ``ram_cap_schedule``) call
``merge_count_dominance(red, blue, sizes)`` once per batch of ``n``
points.  A batch whose candidate pairs, the sum over its cells of
``|blue| * |red|``, number at most ``n * ceil(log2 n)`` tests each of
them with ``_cell_pairs``, the distribution leaves' pair test.  Cells
built for a cap of O(N) have an O(1) smaller side and O(N) points in
all, so the estimator's exact round, at cap ``N``, is O(N) work.  Any
other batch takes one call of the position-inversion kernel.  Every
point carries the id of its cell; positions sort by ``(cell, x, blue
first on equal x)`` and keys by ``(cell, y, tiebreak)``, so only pairs
within a cell count.  That costs one O(n log n) sort, then the
``ceil(log2 n)`` vectorized kernel passes, each ending in one stable
sort: O(n log^2 n) comparisons, which bound the pair test too.  The
kernel lives in ``core`` beside ``core.mergesort_count``, its other
user.  Only the I/O-model counters reach the distribution counter.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import isqrt
from typing import Callable, Iterator, Optional

import numpy as np

from .cells import RedBlueCells, build_cells
from .core import (PointSet, _integer, _unchecked, count_position_inversions,
                   dominance_mask)
from .iomodel import EmParams, IoTally, RAM_PARAMS


#: Points a batch of cells holds for one counter call; a larger cell is
#: a batch of its own.  Larger batches ran no faster and held more memory:
#: on the exact round of a 2^15-point estimate, a bound of 2^16 raised
#: peak RSS by about 4 MB and one batch for all cells by about 9 MB.
BATCH_POINTS = 2**12


def _batches(sizes: np.ndarray) -> Iterator[tuple[int, ...]]:
    """Runs ``lo, hi`` of consecutive cells, each of at most
    ``BATCH_POINTS`` points unless it is a single larger cell, and where
    the run's blue and its red points start and end in the layout,
    ``b0, b1, r0, r1``; ``sizes`` holds the blue and the red size of each
    cell as two rows."""
    offs = np.zeros((2, sizes.shape[1] + 1), dtype=np.int64)
    np.cumsum(sizes, axis=1, out=offs[:, 1:])
    ends = offs.sum(axis=0)
    offs[1] += offs[0, -1]
    lo, n = 0, sizes.shape[1]
    while lo < n:
        fit = int(np.searchsorted(ends, ends[lo] + BATCH_POINTS, side="right")) - 1
        hi = max(lo + 1, fit)
        yield lo, hi, *offs[:, [lo, hi]].ravel().tolist()
        lo = hi


def _count_cells(family: RedBlueCells, count: Callable[..., int]) -> int:
    """Domination pairs summed over the cells of ``family``: one
    ``count(red, blue, sizes)`` call per batch, on slices of the layout."""
    x, y, t, sizes = family.layout()
    return sum(count(_unchecked(x[r0:r1], y[r0:r1], t[r0:r1], "red"),
                     _unchecked(x[b0:b1], y[b0:b1], t[b0:b1], "blue"),
                     sizes[:, lo:hi])
               for lo, hi, b0, b1, r0, r1 in _batches(sizes))


#: Pairs one comparison pass of ``_cell_pairs`` holds.
_LEAF_PAIRS = 2**15


def _cell_pairs(blue: tuple, red: tuple, n_blue: np.ndarray,
                n_red: np.ndarray) -> int:
    """Domination pairs of every blue with each red of its cell, by
    testing every pair with ``core.dominance_mask``.

    ``blue`` and ``red`` hold each colour's ``x``, ``y`` and ``tiebreak``,
    cell after cell, and ``n_blue`` and ``n_red`` the cells' sizes; a
    coordinate may be a scalar that all points share.  The pair list is
    expanded ``_LEAF_PAIRS`` at a time: O(pairs) work, and O(``_LEAF_PAIRS``)
    words per pass.
    """
    # Row i pairs blue i with the reds of its cell,
    # red[first[i]:first[i] + width[i]].
    width = np.repeat(n_red, n_blue)
    first = np.repeat(np.cumsum(n_red) - n_red, n_blue)
    ends = np.cumsum(width)
    n_pairs = int(ends[-1]) if len(ends) else 0
    total = 0
    for p0 in range(0, n_pairs, _LEAF_PAIRS):
        p1 = min(p0 + _LEAF_PAIRS, n_pairs)
        i0, i1 = np.searchsorted(ends, [p0, p1 - 1], side="right")
        rows = slice(i0, i1 + 1)
        row_p0 = ends[rows] - width[rows]
        n = np.minimum(ends[rows], p1) - np.maximum(row_p0, p0)
        col = np.arange(p0, p1)
        col -= np.repeat(row_p0 - first[rows], n)
        # A row's blue repeats, so its coordinates are repeated rather
        # than gathered: no index array for the rows.
        total += int(np.count_nonzero(dominance_mask(
            *(np.repeat(c[rows], n) if np.ndim(c) else c for c in blue),
            *(c[col] if np.ndim(c) else c for c in red))))
    return total


def _few_pairs(sizes: np.ndarray) -> bool:
    """Whether a batch's candidate pairs, the sum over its cells of
    ``|blue| * |red|``, number at most ``n * ceil(log2 n)`` for its ``n``
    points: the element-passes of ``count_position_inversions``."""
    n = int(sizes.sum())
    return int(sizes[0] @ sizes[1]) <= n * (n - 1).bit_length()


def merge_count_dominance(red: PointSet, blue: PointSet,
                          sizes: Optional[np.ndarray] = None) -> int:
    """Exact domination-pair count in O(n log^2 n) comparisons.

    ``sizes`` reads as in ``count_nonadaptive``: the sum over a batch of
    cells.  A batch of ``n`` points with at most ``n * ceil(log2 n)``
    candidate pairs (``_few_pairs``) tests each of them with
    ``_cell_pairs``: no more work than the kernel's element-passes, so
    O(n log^2 n) bounds both paths.  Any other batch takes one call of
    the position-inversion kernel.  Blue goes first there, so the
    stable sort by ``(cell, x)`` puts blue first on equal x: equal-x pairs
    (never dominating) cannot count.  The gathered coordinates are freed
    before the kernel allocates its own.
    """
    if sizes is None:
        sizes = np.array([[len(blue)], [len(red)]])
    if _few_pairs(sizes):
        return _cell_pairs((blue.x, blue.y, blue.tiebreak),
                           (red.x, red.y, red.tiebreak), *sizes)
    x, y, t = (np.concatenate((getattr(blue, a), getattr(red, a)))
               for a in ("x", "y", "tiebreak"))
    cell = np.repeat(np.tile(np.arange(sizes.shape[1]), 2), sizes.ravel())
    by_x = np.lexsort((x, cell))
    is_red = by_x >= len(blue)
    order = np.lexsort((t[by_x], y[by_x], cell[by_x]))
    del x, y, t, cell, by_x
    return count_position_inversions(order, is_red, ~is_red)


def _fanout(params: EmParams) -> int:
    f = max(2, isqrt(params.memory_words // params.block_words))
    # A distribution pass keeps one input stream plus f bucket streams
    # open.  The counting scan keeps more: f chunk streams, the opposite
    # input and f bucket streams, 2f + 1 in all, which exceeds the budget
    # for M // B in 6-13, 16 and 17.
    return min(f, params.max_streams - 1)


def _root_orders(red: PointSet, blue: PointSet,
                 sizes: np.ndarray) -> tuple[np.ndarray, ...]:
    """The X order, the K order and the key ranks of a batch's points.

    A point is numbered by its place in the batch's layout, blue and then
    red.  The X order sorts by ``(cell, x)``, blue first on equal x; the
    K order by ``(cell, y, tiebreak)``, red first on an equal key, each
    colour then in x order.  A key rank numbers the runs of equal ``(cell,
    y, tiebreak)`` in K order.  Each order is sorted from coordinates
    gathered for it alone, which are freed on return.
    """
    nb, nr = len(blue), len(red)
    idx = np.int32 if nb + nr < 2**31 else np.intp

    def keys(first, second, rows, *attrs):
        # Within a colour each cell's points are in x order, which a
        # stable sort keeps between equal keys.
        ks = [np.concatenate((getattr(first, a), getattr(second, a)))
              for a in attrs]
        if sizes.shape[1] > 1:
            cell = np.tile(np.arange(sizes.shape[1], dtype=idx), 2)
            ks.append(np.repeat(cell, sizes[rows].ravel()))
        return ks

    xo = np.lexsort(keys(blue, red, [0, 1], "x")).astype(idx)
    ks = keys(red, blue, [1, 0], "tiebreak", "y")
    ko = np.lexsort(ks)
    run_starts = np.zeros(nb + nr, dtype=bool)
    for k in ks:
        k = k[ko]
        run_starts[1:] |= k[1:] != k[:-1]
    del ks, k
    # Renumber from red first to the layout's blue first.
    ko += nb
    ko %= nb + nr
    ko = ko.astype(idx)
    krank = np.empty(nb + nr, dtype=idx)
    krank[ko] = np.cumsum(run_starts, dtype=idx)
    return xo, ko, krank


def _leaf_pairs(xo: np.ndarray, krank: np.ndarray, nb: int,
                sizes: np.ndarray, leaf: np.ndarray) -> int:
    """Domination pairs inside the ``leaf`` nodes, by ``_cell_pairs``.

    The test runs in rank space: a point's place in the X order stands for
    its x, where a blue comes before a red of equal x, and its key rank
    for its key, with a zero tiebreak: O(B n) work when the smaller side
    of every leaf has at most ``B`` points.
    """
    at = np.repeat(leaf, sizes.sum(axis=1))
    is_red = xo >= nb
    bpos, rpos = np.flatnonzero(at & ~is_red), np.flatnonzero(at & is_red)
    return _cell_pairs((bpos, krank[xo[bpos]], 0), (rpos, krank[xo[rpos]], 0),
                       *sizes[leaf].T)


def _labels(ko: np.ndarray, krank: np.ndarray, nb: int, sizes: np.ndarray,
            node: np.ndarray, f: int) -> np.ndarray:
    """The chunk label of every point in K order; see the module docstring.

    A side point ranks ``before``, the side points before it in its
    node; another point ranks ``max(strict, before - 1)``, where
    ``strict`` counts those before its run of equal keys.  Red goes first
    in a run, so at a blue that follows side reds of its key ``before - 1``
    is the last one's rank, the tie rule; elsewhere it is below
    ``strict``.  Ranks, and with them labels, never decrease along a node.
    """
    m = len(ko)
    count = sizes.sum(axis=1)
    starts = np.cumsum(count) - count
    side_red = sizes[:, 1] <= sizes[:, 0]
    is_side = (ko >= nb) == side_red[node]
    before = np.cumsum(is_side, dtype=ko.dtype)
    before -= is_side
    kr = krank[ko]
    run_starts = np.empty(m, dtype=bool)
    np.not_equal(kr[1:], kr[:-1], out=run_starts[1:])
    run_starts[starts] = True
    del kr
    rank = np.maximum.accumulate(np.where(run_starts, before, 0))
    del run_starts
    np.maximum(rank, before - 1, out=rank)
    np.copyto(rank, before, where=is_side)
    rank -= np.repeat(before[starts], count)
    del before, is_side
    # Chunk j of a node's ns side points starts at rank j * ns // f, so
    # the label, #{j >= 1 : j * ns // f <= rank}, is this quotient.
    # Ranks stay below ``m``, so the products stay below ``m * f``.
    lab = rank.astype(np.int64 if m * f >= 2**31 else rank.dtype, copy=False)
    del rank
    lab += 1
    lab *= f
    lab -= 1
    lab //= np.where(side_red, sizes[:, 1], sizes[:, 0]).astype(lab.dtype)[node]
    return np.minimum(lab, f - 1, out=lab)


def _cross_pairs(is_red: np.ndarray, label: np.ndarray,
                 buckets: np.ndarray) -> int:
    """Pairs of a blue labelled ``l`` and a red labelled above ``l`` to its
    left in its node, summed over ``l``.  ``is_red`` and ``label`` follow
    the X order; each ``l`` takes one running count of the reds above it,
    into one buffer, read at the blues labelled ``l``."""
    f = buckets.shape[1]
    red_lab = np.where(is_red, label, 0)
    blues = np.flatnonzero(~is_red)
    # Labels are uint8 or uint16, which numpy's stable argsort radix-sorts.
    blues = np.split(blues[np.argsort(label[blues], kind="stable")],
                     np.cumsum(buckets[:, :, 0].sum(axis=0))[:-1])
    above = np.empty(len(label), dtype=bool)
    run = np.empty(len(label), dtype=np.int32 if len(label) < 2**31 else np.int64)
    total = 0
    for lab in range(f - 1):
        np.greater(red_lab, lab, out=above)
        np.cumsum(above, dtype=run.dtype, out=run)
        total += int(run[blues[lab]].sum(dtype=np.int64))
    # The running counts include the reds of earlier nodes.
    blues_below = np.cumsum(buckets[:, :, 0], axis=1)
    for j in range(1, f):
        reds = buckets[:, j, 1]
        total -= int(blues_below[:, j - 1] @ (np.cumsum(reds) - reds))
    return total


def _radix_argsort(key: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` for integers ``0 <= key < bound``,
    the distribution counter's partition of a level by child.

    One stable pass per 16-bit digit of ``bound - 1``, least significant
    first, each over the digit cast to the narrowest unsigned dtype, which
    numpy sorts by radix: O(n) per pass.
    """
    bits = max(bound - 1, 0).bit_length()

    def digit(k, shift):
        return (k >> shift).astype(np.uint8 if bits - shift <= 8 else np.uint16)

    perm = np.argsort(digit(key, 0), kind="stable")
    for shift in range(16, bits, 16):
        perm = perm[np.argsort(digit(key[perm], shift), kind="stable")]
    return perm


def _distribute(xo: np.ndarray, ko: np.ndarray, krank: np.ndarray, nb: int,
                sizes: np.ndarray, params: EmParams, tally: IoTally, f: int) -> int:
    """The distribution recursion of the module docstring, level by level.

    ``xo`` and ``ko`` list the points of every node of a level in X and
    in K order, node after node, and ``sizes`` holds each node's blue and
    red size as one row; a point numbered ``nb`` or more is red.
    """
    total = 0
    label = np.empty(len(krank), dtype=np.min_scalar_type(f))
    while True:
        small = sizes.min(axis=1)
        leaf = (small > 0) & (small <= params.block_words)
        if leaf.any():
            tally.charge_read(sizes[leaf])
            total += _leaf_pairs(xo, krank, nb, sizes, leaf)
        inner = small > params.block_words
        if not inner.all():
            keep = np.repeat(inner, sizes.sum(axis=1))
            xo, ko, sizes = xo[keep], ko[keep], sizes[inner]
            del keep
        if not len(sizes):
            return total
        nodes = len(sizes)
        node = np.repeat(np.arange(nodes, dtype=xo.dtype), sizes.sum(axis=1))
        lab = _labels(ko, krank, nb, sizes, node, f)
        buckets = np.bincount(node * np.int64(2 * f) + lab * 2 + (ko >= nb),
                              minlength=2 * f * nodes).reshape(nodes, f, 2)
        label[ko] = lab
        del lab
        # Each colour's distribution pass into its f buckets, and the
        # counting scan that reads the side's chunks again.
        tally.charge_distribute(sizes, buckets)
        side = (sizes[:, 1] <= sizes[:, 0]).view(np.int8)
        tally.charge_read(buckets[np.arange(nodes), :, side])
        lx = label[xo]
        total += _cross_pairs(xo >= nb, lx, buckets)
        # The children: the X order partitioned stably by (node, label).
        # The K order is grouped so already, as labels never decrease
        # along a node.
        xo = xo[_radix_argsort(node * np.int64(f) + lx, nodes * f)]
        del node, lx
        sizes = buckets.reshape(nodes * f, 2)


def count_nonadaptive(red: PointSet, blue: PointSet, params: EmParams,
                      tally: IoTally, sizes: Optional[np.ndarray] = None) -> int:
    """Exact domination-pair count by multiway distribution.

    With ``sizes``, ``red`` and ``blue`` hold a batch of cells in the
    layout of ``cells.RedBlueCells.layout``, each colour cell after cell,
    and ``sizes`` the blue and the red size of each cell as two rows: the
    count is the sum over the cells, each charged as its own recursion.
    """
    f = _fanout(params)
    if f < 2:
        raise ValueError("memory too small for fanout 2 plus an input stream")
    if sizes is None:
        sizes = np.array([[len(blue)], [len(red)]])
    xo, ko, krank = _root_orders(red, blue, sizes)
    return _distribute(xo, ko, krank, len(blue), sizes.T, params, tally, f)


def _capped(red: PointSet, blue: PointSet, cap: int, tally: IoTally,
            count: Callable[..., int]) -> Optional[int]:
    """One guessing round: the pairs in the cells for ``cap``, by one
    ``count(red, blue, sizes)`` call per batch of ``_count_cells``.

    A cap that cannot be exceeded skips the cell construction entirely
    and counts the input as one cell, ``count(red, blue)``, which reads
    the two sets as they are rather than a gathered copy.
    """
    cap = _integer(cap, "cap")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if cap >= len(red) * len(blue):
        return count(red, blue)
    built = build_cells(red, blue, cap, tally)
    if built.failed:
        return None
    return _count_cells(built, count)


def count_capped(red: PointSet, blue: PointSet, cap: int,
                 params: EmParams, tally: IoTally) -> Optional[int]:
    """Exact count, or ``None`` (failure) only when the true count > cap."""
    return _capped(red, blue, cap, tally, lambda r, b, sizes=None: count_nonadaptive(
        r, b, params, tally, sizes))


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
    return _capped(red, blue, cap, IoTally(RAM_PARAMS), merge_count_dominance)


def count_adaptive_ram(red: PointSet, blue: PointSet) -> AdaptiveCount:
    """Comparison-model adaptive counter: capped RAM rounds until one succeeds."""
    n = max(len(red), len(blue))
    return _rounds(n, ram_cap_schedule(n),
                   lambda cap: count_capped_ram(red, blue, cap))
