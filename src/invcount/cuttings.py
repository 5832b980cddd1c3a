"""Shallow staircase cuttings over a planar point set.

A depth-``k`` cutting is a monotone staircase of alternating horizontal
and vertical segments whose every corner covers between ``k`` and ``2k``
base points, built in a single left-to-right sweep.  "Covers" depends on
the orientation:

* ``red`` orientation: a corner covers the base points it dominates
  (strictly smaller x, strictly larger ``(y, tiebreak)`` key).  The cell
  of an outward corner ``c`` is the open quadrant left of and above ``c``.
* ``blue`` orientation: the mirror image; a corner covers the base points
  that dominate it, and cells open to the right and below.

A query point that lies inside some cell covers fewer than ``2k`` base
points ("shallow"); a query covering at least ``k`` base points that lies
in no cell is "deep".  Any point covering fewer than ``k`` base points is
guaranteed to land in a cell.  These bounds assume distinct keys within
the base, as ``reduce_inversions`` gives; over repeated keys a corner also
covers the tied copies of its floor point that the sweep dropped.

Corner coordinates sit strictly between adjacent base coordinates in the
strict total order (half-integer x, half-step tiebreak in y), so no query
ever ties with the staircase.  Only the outward corners are stored: the
inward corner between outward corners ``i`` and ``i + 1`` has the x of
corner ``i`` and the key of corner ``i + 1``.

The blue orientation is implemented by negating all coordinates and
running the red sweep, so there is exactly one sweep to get right.  The
sweep compares integer ranks of the base keys, taken once per build;
equal keys rank in sweep order, so the staircase keeps the later of two
tied points, as a stable sort of the keys would.  A base of at most
``2k`` points is one cell, the whole plane, and is neither ranked nor
swept; its build still charges the scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import PointSet, _integer, dominance_mask, ykey_less
from .iomodel import IoTally

_INF = float("inf")

#: Words charged per staircase corner when the cutting is materialized.
CORNER_WIDTH = 3


def _sweep(rank: list[int], k: int):
    """Left-to-right sweep in red-oriented coordinates.

    ``rank`` holds the distinct key rank of each of more than ``2k`` base
    points, in ascending x order.  For each outward corner but the last,
    returns the base position its x cut falls just before (``n`` past the
    last point) and the floor point whose key the next corner sits just
    below; then the base indices of every cell, concatenated in cell
    order and ascending within a cell, and the size of every cell.
    """
    n = len(rank)
    cuts: list[int] = []
    floors: list[int] = []
    members: list[int] = []
    cur = list(range(2 * k))
    pos = 2 * k
    while len(cur) == 2 * k:
        cuts.append(pos)
        members += sorted(cur)
        # Raise the staircase: keep the k highest keys of the conflict
        # list, anchoring the next corner just below the lowest survivor.
        cur.sort(key=rank.__getitem__)
        cur = cur[k:]
        floors.append(cur[0])
        floor = rank[cur[0]]
        # Extend right until the conflict list refills to 2k.
        while pos < n and len(cur) < 2 * k:
            if rank[pos] > floor:
                cur.append(pos)
            pos += 1
    members += sorted(cur)
    return cuts, floors, members, [2 * k] * len(cuts) + [len(cur)]


@dataclass
class StaircaseCutting:
    """A constructed staircase and the base points of each of its cells.

    Corners are stored in sweep order, which is ascending x for the red
    orientation and descending x for the blue orientation.  ``members``
    holds the base indices of every cell, concatenated in cell order and
    ascending within a cell, and ``sizes`` the size of every cell;
    ``cells`` splits ``members`` into one index array per cell.
    """

    orientation: str
    outward: np.ndarray        # shape (t, 3): x, y, y-tiebreak
    members: np.ndarray = field(repr=False)
    sizes: np.ndarray = field(repr=False)

    @property
    def cells(self) -> list[np.ndarray]:
        """The ascending base indices of each cell, as views of ``members``."""
        return np.split(self.members, np.cumsum(self.sizes)[:-1])

    def _transform(self, *coords):
        """Red-oriented float coordinates (negated for the blue orientation)."""
        coords = [np.asarray(c, dtype=np.float64) for c in coords]
        return coords if self.orientation == "red" else [-c for c in coords]

    def covers(self, ci: int, x, y, t):
        """Whether corner ``ci`` covers the point(s) with given coordinates."""
        tx, ty, tt = self._transform(x, y, t)
        cx, cy, ct = self._transform(*self.outward[ci])
        return dominance_mask(cx, cy, ct, tx, ty, tt)

    def classify_many(self, pts: PointSet) -> np.ndarray:
        """Cell index for each shallow point, -1 for deep points.

        The assigned cell is the first containing cell in sweep order,
        which makes assignment deterministic.
        """
        tx, ty, tt = self._transform(pts.x, pts.y, pts.tiebreak)
        cx, cy, ct = self._transform(*self.outward.T)
        m = np.searchsorted(cx, tx, side="left")
        return np.where(ykey_less(cy[m], ct[m], ty, tt), m, -1).astype(np.int64)

    def charge_corners(self, tally: IoTally) -> None:
        """Charge the writes that materialize the outward and inward corners."""
        tally.charge_write(2 * len(self.outward) - 1, width=CORNER_WIDTH)


def _build(base: PointSet, k: int, tally: IoTally, orientation: str) -> StaircaseCutting:
    k = _integer(k, "depth")
    if k < 1:
        raise ValueError("cutting depth must be at least 1")
    n = len(base)
    tally.charge_read(n)  # one scan of the base points
    x, y, t = base.x, base.y, base.tiebreak
    if orientation == "blue":
        x, y, t = -x[::-1], -y[::-1], -t[::-1]
    if n <= 2 * k:
        # Degenerate staircase: one corner whose cell is the whole plane.
        cuts, floors, members, sizes = [], [], np.arange(n), [n]
    else:
        # lexsort is stable, so equal keys rank in sweep order, the order a
        # stable sort of the (y, tiebreak) keys leaves them in: sorting and
        # comparing ranks match sorting and comparing keys, ties included.
        cuts, floors, members, sizes = _sweep(
            np.lexsort((t, y)).argsort().tolist(), k)

    cuts = np.array(cuts, dtype=np.intp)
    xs = np.append(x, x[-1:] + 1)  # a cut past the last point sits at +0.5
    outward = np.column_stack((
        np.append((xs[cuts - 1] + xs[cuts]) / 2.0, _INF),
        np.insert(y[floors], 0, -_INF),
        np.insert(t[floors] - 0.5, 0, 0.0),
    ))
    members = np.array(members, dtype=np.intp)
    sizes = np.array(sizes, dtype=np.intp)
    if orientation == "blue":
        outward = -outward
        # Undo the mirror: reverse each cell in place with one gather,
        # entry ``j`` of a cell ending at ``e`` taking ``2e - size - 1 - j``.
        ends = np.cumsum(sizes)
        flip = np.repeat(2 * ends - sizes - 1, sizes) - np.arange(len(members))
        members = n - 1 - members[flip]

    # Construction is a single scan; corners and conflict lists are only
    # charged when a consumer materializes them (see charge_corners and
    # the cell grouping), so an aborted build costs exactly its scans.
    return StaircaseCutting(
        orientation=orientation,
        outward=outward,
        members=members,
        sizes=sizes,
    )


def build_red_cutting(base: PointSet, k: int, tally: IoTally) -> StaircaseCutting:
    """Cutting whose cells capture points that dominate few base points."""
    return _build(base, k, tally, "red")


def build_blue_cutting(base: PointSet, k: int, tally: IoTally) -> StaircaseCutting:
    """Cutting whose cells capture points dominated by few base points."""
    return _build(base, k, tally, "blue")
