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
guaranteed to land in a cell.

Corner coordinates sit strictly between adjacent base coordinates in the
strict total order (half-integer x, half-step tiebreak in y), so no query
ever ties with the staircase.

The blue orientation is implemented by negating all coordinates and
running the red sweep, so there is exactly one sweep to get right.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import PointSet
from .iomodel import IoTally

_INF = float("inf")

#: Words charged per staircase corner when the cutting is materialized.
CORNER_WIDTH = 3


def _sweep(xs: list, ykeys: list, k: int):
    """Left-to-right sweep in red-oriented coordinates.

    ``xs`` must be strictly ascending and ``ykeys`` strictly totally
    ordered tuples.  Returns outward corners, inward corners (as coordinate
    triples ``(x, yv, yt)``) and the per-cell base index lists.
    """
    n = len(xs)
    if k < 1:
        raise ValueError("cutting depth must be at least 1")
    if n <= 2 * k:
        # Degenerate staircase: one corner whose cell is the whole plane.
        return [(_INF, -_INF, 0.0)], [], [list(range(n))]

    outward: list[tuple] = []
    inward: list[tuple] = []
    cells: list[list[int]] = []

    cur = list(range(2 * k))
    cx = (xs[2 * k - 1] + xs[2 * k]) / 2.0
    cy = (-_INF, 0.0)
    pos = 2 * k
    while True:
        outward.append((cx, cy[0], cy[1]))
        cells.append(sorted(cur))
        # Raise the staircase: keep the k highest ykeys of the conflict
        # list, anchoring the inward corner just below the lowest survivor.
        cur.sort(key=lambda i: ykeys[i])
        boundary = ykeys[cur[len(cur) - k]]
        cy = (boundary[0], boundary[1] - 0.5)
        inward.append((cx, cy[0], cy[1]))
        cur = cur[len(cur) - k:]
        # Extend right until the conflict list refills to 2k.
        while pos < n and len(cur) < 2 * k:
            if ykeys[pos] > cy:
                cur.append(pos)
            pos += 1
        if len(cur) < 2 * k:
            outward.append((_INF, cy[0], cy[1]))
            cells.append(sorted(cur))
            return outward, inward, cells
        cx = (xs[pos - 1] + xs[pos]) / 2.0 if pos < n else xs[pos - 1] + 0.5


@dataclass
class StaircaseCutting:
    """A constructed staircase with per-cell membership lists.

    Corners are stored in sweep order, which is ascending x for the red
    orientation and descending x for the blue orientation.  The private
    ``_t*`` arrays hold the corners in red-oriented (possibly negated)
    coordinates and drive classification.
    """

    orientation: str
    k: int
    base: PointSet
    outward: np.ndarray        # shape (t, 3): x, y, y-tiebreak
    inward: np.ndarray         # shape (t-1, 3)
    cells: list[np.ndarray] = field(repr=False)
    _tx: np.ndarray = field(repr=False)
    _tyv: np.ndarray = field(repr=False)
    _tyt: np.ndarray = field(repr=False)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    def _transform(self, x, y, t):
        if self.orientation == "red":
            return x, y, t
        return -np.asarray(x), -np.asarray(y), -np.asarray(t)

    def covers(self, ci: int, x, y, t):
        """Whether corner ``ci`` covers the point(s) with given coordinates."""
        tx, tyv, tyt = self._transform(
            np.asarray(x, dtype=np.float64),
            np.asarray(y, dtype=np.float64),
            np.asarray(t, dtype=np.float64),
        )
        cx, cyv, cyt = self._tx[ci], self._tyv[ci], self._tyt[ci]
        above = (tyv > cyv) | ((tyv == cyv) & (tyt > cyt))
        return (tx < cx) & above

    def classify_many(self, pts: PointSet) -> np.ndarray:
        """Cell index for each shallow point, -1 for deep points.

        The assigned cell is the first containing cell in sweep order,
        which makes assignment deterministic.
        """
        if len(pts) == 0:
            return np.empty(0, dtype=np.int64)
        tx, tyv, tyt = self._transform(pts.x, pts.y, pts.tiebreak)
        m = np.searchsorted(self._tx, tx, side="left")
        above = (tyv > self._tyv[m]) | ((tyv == self._tyv[m]) & (tyt > self._tyt[m]))
        return np.where(above, m, -1).astype(np.int64)

    def charge_corners(self, tally: IoTally) -> None:
        """Charge the writes that materialize the staircase corners."""
        tally.charge_write(len(self.outward) + len(self.inward),
                           width=CORNER_WIDTH)

    def cell_points(self, ci: int) -> PointSet:
        return self.base.take(self.cells[ci])

    def debug_dict(self) -> dict:
        return {
            "orientation": self.orientation,
            "depth": self.k,
            "n_cells": self.n_cells,
            "outward_corners": [list(map(float, c)) for c in self.outward],
            "inward_corners": [list(map(float, c)) for c in self.inward],
            "cell_sizes": [int(len(c)) for c in self.cells],
        }


def _build(base: PointSet, k: int, tally: IoTally, orientation: str) -> StaircaseCutting:
    n = len(base)
    tally.charge_read(n)  # one scan of the base points
    if orientation == "red":
        xs = base.x.tolist()
        ys = base.y.tolist()
        ts = base.tiebreak.tolist()
        remap = None
    else:
        xs = (-base.x[::-1]).tolist()
        ys = (-base.y[::-1]).tolist()
        ts = (-base.tiebreak[::-1]).tolist()
        remap = n - 1
    ykeys = list(zip(ys, (float(t) for t in ts)))
    outward, inward, cells = _sweep(xs, ykeys, k)

    out_arr = np.array(outward, dtype=np.float64).reshape(-1, 3)
    in_arr = np.array(inward, dtype=np.float64).reshape(-1, 3)
    tx, tyv, tyt = out_arr[:, 0].copy(), out_arr[:, 1].copy(), out_arr[:, 2].copy()
    if remap is not None:
        cells = [[remap - i for i in cell] for cell in cells]
        out_arr = -out_arr
        in_arr = -in_arr
    cell_arrays = [np.array(sorted(cell), dtype=np.intp) for cell in cells]

    # Construction is a single scan; corners and conflict lists are only
    # charged when a consumer materializes them (see charge_corners and
    # the cell grouping), so an aborted build costs exactly its scans.
    return StaircaseCutting(
        orientation=orientation,
        k=k,
        base=base,
        outward=out_arr,
        inward=in_arr,
        cells=cell_arrays,
        _tx=tx,
        _tyv=tyv,
        _tyt=tyt,
    )


def build_red_cutting(base: PointSet, k: int, tally: IoTally) -> StaircaseCutting:
    """Cutting whose cells capture points that dominate few base points."""
    return _build(base, k, tally, "red")


def build_blue_cutting(base: PointSet, k: int, tally: IoTally) -> StaircaseCutting:
    """Cutting whose cells capture points dominated by few base points."""
    return _build(base, k, tally, "blue")
