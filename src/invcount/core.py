"""Domain types for inversion counting and the reference counters.

An inversion in a list ``L`` is a pair of positions ``i < j`` with
``L(i) > L(j)``.  Counting inversions reduces to red-blue dominance
counting: map every element to the planar point ``(i, L(i))`` and use the
same point set for both colors.  A blue point *dominates* a red point when
it lies strictly to the right of it and strictly below it; the domination
pairs of the reduction are exactly the inversions of the list.

Equal values never form an inversion (the definition uses strict ``>``).
To keep the downstream geometry free of degenerate ties, every point
carries a ``tiebreak`` (its original index) and all vertical comparisons
use the lexicographic key ``(value, tiebreak)``, which is a strict total
order.

Two reference counters live here: an exhaustive O(n^2) enumeration and an
O(n log^2 n) counter that runs the level-by-level position-inversion kernel,
``count_position_inversions``, which also lives here; the comparison-model
counters of ``counting`` run the same kernel.  Everything else in the
package is tested against the two reference counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Hard cap on input length so that pair counts fit comfortably in 64 bits
#: (n*(n-1)/2 < 2**62 for n <= 2**31).
MAX_LENGTH = 2**31


class Point(NamedTuple):
    """A planar point of the reduction: list index, value, tie-break index."""

    x: int
    y: float
    tiebreak: int


def dominates(b: Point, r: Point) -> bool:
    """True iff blue point ``b`` dominates red point ``r``.

    Domination is strict: larger x and smaller ``(y, tiebreak)`` key.
    Equal values therefore never dominate, matching the strict ``>`` in
    the inversion definition.
    """
    return bool(dominance_mask(*b, *r))


def ykey_less(y1, t1, y2, t2):
    """Vectorized strict lexicographic comparison ``(y1, t1) < (y2, t2)``."""
    return (y1 < y2) | ((y1 == y2) & (t1 < t2))


def _checked_values(values) -> np.ndarray:
    """An input list as a one-dimensional array of finite 64-bit floats.

    Anything but a real array of at most 64 bits becomes an object array,
    so numpy rounds nothing before the check.  Every value must equal its
    float64 exactly: a large integer, a fraction, a decimal, a string or a
    complex number is rejected rather than silently changing the count.
    """
    inexact = "value list must hold numbers that float64 holds exactly"
    native = (isinstance(values, np.ndarray) and values.dtype.kind in "bf"
              and values.dtype.itemsize <= 8)
    raw = values if native else np.array(values, dtype=object)
    if raw.ndim != 1:
        raise ValueError("value list must be one-dimensional")
    if len(raw) > MAX_LENGTH:
        raise ValueError(f"value list longer than {MAX_LENGTH}")
    try:
        vals = np.asarray(raw, dtype=np.float64)
    except TypeError:  # a complex value
        raise ValueError(inexact) from None
    if not np.all(np.isfinite(vals)):
        raise ValueError("value list must contain only finite numbers")
    # Python compares int, Fraction and Decimal with a float exactly; a
    # numpy integer would be compared as a float64, so it becomes an int.
    if raw.dtype == object and not all(
            (int(v) if isinstance(v, np.integer) else v) == f
            for v, f in zip(raw.tolist(), vals.tolist())):
        raise ValueError(inexact)
    return vals


@dataclass(frozen=True)
class PointSet:
    """An x-sorted set of colored points, stored as parallel arrays."""

    x: np.ndarray
    y: np.ndarray
    tiebreak: np.ndarray
    color: str = "red"

    def __post_init__(self):
        # Cuttings place corners at x midpoints and tiebreak half-steps in
        # float64, which holds those exactly only inside (-2**52, 2**52).
        bounded = "x and tiebreak must be integers inside (-2**52, 2**52)"
        try:
            with np.errstate(invalid="ignore"):  # a NaN x is rejected below
                x = np.asarray(self.x, dtype=np.int64)
                t = np.asarray(self.tiebreak, dtype=np.int64)
        except OverflowError:  # a Python int beyond int64
            raise ValueError(bounded) from None
        y = _checked_values(self.y)
        if not (len(x) == len(y) == len(t)):
            raise ValueError("coordinate arrays must have equal length")
        if not (np.array_equal(x, self.x) and np.array_equal(t, self.tiebreak)
                and all(np.all((c > -2**52) & (c < 2**52)) for c in (x, t))):
            raise ValueError(bounded)
        if len(x) > 1 and not np.all(np.diff(x) > 0):
            raise ValueError("x coordinates must be strictly increasing")
        if self.color not in ("red", "blue"):
            raise ValueError(f"unknown color {self.color!r}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "tiebreak", t)

    def __len__(self) -> int:
        return len(self.x)

    def point(self, i: int) -> Point:
        return Point(int(self.x[i]), float(self.y[i]), int(self.tiebreak[i]))

    def _take(self, idx) -> "PointSet":
        """Subset by an ascending index array or a slice, without the checks.

        An ascending index keeps the x order, and the arrays are already
        checked and cast, so the subset skips ``__post_init__``: only
        points built from outside input go through it.
        """
        sub = object.__new__(PointSet)
        object.__setattr__(sub, "x", self.x[idx])
        object.__setattr__(sub, "y", self.y[idx])
        object.__setattr__(sub, "tiebreak", self.tiebreak[idx])
        object.__setattr__(sub, "color", self.color)
        return sub

    def split(self, labels: np.ndarray, k: int) -> list["PointSet"]:
        """Subset ``j`` for each label ``j`` in ``range(k)``, in x order
        (empty where no point has the label).  One gather in label order,
        x-sorted within each label, then a view per label."""
        grouped = self._take(np.argsort(labels, kind="stable"))
        ends = np.cumsum(np.bincount(labels, minlength=k)).tolist()
        return [grouped._take(slice(a, b)) for a, b in zip([0] + ends, ends)]


def reduce_inversions(values) -> tuple[PointSet, PointSet]:
    """Map a value list to the red and blue point sets of the reduction.

    Both sets contain the point ``(i, L(i))`` with tiebreak ``i``; the
    domination pairs between them are exactly the inversions of the list.
    """
    values = _checked_values(values)
    idx = np.arange(len(values), dtype=np.int64)
    return PointSet(idx, values, idx, "red"), PointSet(idx, values, idx, "blue")


def dominance_mask(bx, by, bt, rx, ry, rt) -> np.ndarray:
    """Vectorized :func:`dominates`: blue ``(bx, by, bt)`` over red ``(rx, ry, rt)``.

    The arguments broadcast, so a column of blue coordinates against a row
    of red ones gives the mask of every pair.
    """
    return (bx > rx) & ykey_less(by, bt, ry, rt)


#: Mask entries :func:`brute_force_count` evaluates at once.
MASK_ENTRIES = 2**20


def brute_force_count(red: PointSet, blue: PointSet) -> int:
    """Count domination pairs by exhaustive enumeration.

    O(|red| * |blue|) time.  The mask is evaluated a slab of blue points
    at a time, so memory stays O(|red| + MASK_ENTRIES).  This is the
    ground-truth oracle for every other counter in the package, and the
    leaf solver of the distribution counter, where one side has at most
    ``B`` points.
    """
    rows = max(1, MASK_ENTRIES // max(len(red), 1))
    total = 0
    for s in range(0, len(blue), rows):
        b = slice(s, s + rows)
        total += np.count_nonzero(dominance_mask(
            blue.x[b, None], blue.y[b, None], blue.tiebreak[b, None],
            red.x, red.y, red.tiebreak))
    return int(total)


def count_position_inversions(order: np.ndarray, red: np.ndarray,
                              blue: np.ndarray) -> int:
    """Pairs of positions ``i < j``, ``i`` red and ``j`` blue, with key i > key j.

    ``order`` lists the positions by ascending key, equal keys in position
    order, so equal keys never count; an entry may be red and blue at once.

    A pair whose positions first differ in bit ``lev`` has ``i`` in the
    left and ``j`` in the right half of one block of ``2 * 2**lev``
    positions.  The kernel makes one vectorized pass per bit, from the top
    bit down.  Each pass sees the entries grouped by block, in key order
    within a block, so every right-half blue finds the left-half reds above
    its key in one running sum.  A stable sort by ``pos >> lev`` then puts
    each block's left half first, both halves still in key order: the
    grouping for the next bit.  That sort (numpy's timsort on int64 keys
    already grouped by block) takes O(n log n) comparisons, so after the
    sort that produced ``order`` the count takes O(n log^2 n).  Indices and
    running sums stay below ``n`` and one pass counts fewer than ``n**2 / 4``
    pairs, so int64 holds every intermediate for ``n`` up to ``MAX_LENGTH``.
    """
    n = len(order)
    pos, is_red, is_blue = order, red[order], blue[order]
    total = 0
    for lev in reversed(range((n - 1).bit_length())):
        half = 1 << lev
        right = (pos & half) != 0
        # Earlier blocks are full, so a block starts at the index that
        # equals its first position.
        start = pos >> (lev + 1) << (lev + 1)
        reds = np.cumsum(is_red & ~right)
        k = np.flatnonzero(right & is_blue)
        last = np.minimum(start[k] + 2 * half, n) - 1
        total += int((reds[last] - reds[k]).sum())
        if lev:
            perm = np.argsort(pos >> lev, kind="stable")
            pos, is_red, is_blue = pos[perm], is_red[perm], is_blue[perm]
    return total


def mergesort_count(values) -> int:
    """Count inversions of a list in O(n log^2 n) comparisons.

    One stable sort, then the ``ceil(log2 n)`` passes of
    :func:`count_position_inversions` with every element both red and
    blue; the stable sort keeps equal values in position order, so they
    never invert.
    """
    values = _checked_values(values)
    every = np.ones(len(values), dtype=bool)
    return count_position_inversions(
        np.argsort(values, kind="stable"), every, every)
