"""Recursive construction of red-blue cells for capped dominance counting.

Given red and blue point sets and a cap ``K``, the builder produces cells
``(R_i, B_i)`` such that, on success:

* the smaller side of every cell is O(K/N);
* every domination pair of the input lands in exactly one cell;
* the total cell size is O(N).

Each level builds a staircase cutting of depth ``ceil(2K/N_level)`` over
the red points, assigns the blue points that land in a cell, then mirrors
the step over the remaining ("deep") blue points to assign red points.
If either deep set exceeds half the level budget the builder reports
failure, which certifies that the true pair count exceeds ``K``; failures
are a value, not an error, because callers retry with a larger cap.  The
recursion halves the level budget and stops below a small constant, where
one leaf cell holds everything left.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import PointSet, dominance_mask
from .cuttings import build_blue_cutting, build_red_cutting
from .iomodel import IoTally

#: Recursion stops when both colors are below this many points; the
#: remainder becomes a single all-pairs leaf cell.
STOP_SIZE = 64


@dataclass(frozen=True)
class Cell:
    """One red-blue cell: the candidate pairs are R x B.

    ``level`` records the recursion level that produced the cell; the
    level-j size budget is ``2**j`` times the level-0 budget, because the
    recursion halves the point budget while keeping the same cap.
    """

    red: PointSet
    blue: PointSet
    level: int = 0


@dataclass
class RedBlueCells:
    """Outcome of the cell construction for one cap value."""

    cap: int
    cells: list[Cell] = field(default_factory=list)
    failed: bool = False


def _half_level(build, base: PointSet, others: PointSet, depth: int, n0: int,
                level: int, out: list[Cell], tally: IoTally) -> PointSet | None:
    """Cut ``base`` and put each point of ``others`` into a cell of the cutting.

    Appends one cell per cutting cell that received a point and returns the
    deep points of ``others`` (those in no cell), or ``None`` for failure:
    more deep points than half this level's budget ``n0 / 2**level``.
    Materializing a cell writes its conflict list (the host side); the
    members are charged in one batch.
    """
    cut = build(base, depth, tally)
    assign = cut.classify_many(others)
    tally.charge_read(len(others))  # classification scan
    n_deep = int(np.count_nonzero(assign < 0))
    if n_deep * (1 << (level + 1)) > n0:
        return None
    cut.charge_corners(tally)
    tally.charge_write(len(others) - n_deep)
    deep, *groups = others.split(assign + 1, len(cut.cells) + 1)
    for ci, members in enumerate(groups):
        if len(members):
            host = base._take(cut.cells[ci])
            tally.charge_write(len(host))
            pair = (host, members) if cut.orientation == "red" else (members, host)
            out.append(Cell(*pair, level=level))
    return deep


def build_cells(red: PointSet, blue: PointSet, cap: int, tally: IoTally) -> RedBlueCells:
    """Build red-blue cells for ``cap``; may report failure iff truth > cap."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    n0 = max(len(red), len(blue))
    result = RedBlueCells(cap=cap)
    cur_red, cur_blue = red, blue
    level = 0
    while True:
        nr, nb = len(cur_red), len(cur_blue)
        if nr == 0 or nb == 0:
            break
        if nr < STOP_SIZE and nb < STOP_SIZE:
            result.cells.append(Cell(red=cur_red, blue=cur_blue, level=level))
            break
        depth = (2 * cap * (1 << level) + n0 - 1) // n0

        deep_blue = _half_level(build_red_cutting, cur_red, cur_blue, depth,
                                n0, level, result.cells, tally)
        if deep_blue is None or len(deep_blue) == 0:
            result.failed = deep_blue is None
            break
        deep_red = _half_level(build_blue_cutting, deep_blue, cur_red, depth,
                               n0, level, result.cells, tally)
        if deep_red is None:
            result.failed = True
            break
        tally.charge_write(len(deep_red) + len(deep_blue))

        cur_red, cur_blue = deep_red, deep_blue
        level += 1
    return result


@dataclass
class CellAudit:
    """Measured cell-family properties, verified against brute force."""

    ok: bool
    total_pairs: int
    expected_pairs: int
    small_side_ratio: float     # max over cells of min(|R|,|B|) / (2^level * cap/N)
    total_size_ratio: float     # max(sum|R|, sum|B|) / N
    duplicate_pairs: list
    missing_pairs: list

    def summary(self) -> str:
        status = "ok" if self.ok else "VIOLATION"
        return (f"{status}: pairs {self.total_pairs}/{self.expected_pairs}, "
                f"small-side ratio {self.small_side_ratio:.2f}, "
                f"size ratio {self.total_size_ratio:.2f}")


def _cell_pairs(cell: Cell) -> np.ndarray:
    """One column (red x, blue x) per domination pair; x is unique per color."""
    r, b = cell.red, cell.blue
    bi, ri = np.nonzero(dominance_mask(
        b.x[:, None], b.y[:, None], b.tiebreak[:, None], r.x, r.y, r.tiebreak))
    return np.stack([r.x[ri], b.x[bi]])


def audit_cells(result: RedBlueCells, red: PointSet, blue: PointSet) -> CellAudit:
    """Exhaustively verify a successful cell family (meant for small N).

    Checks that the per-cell domination pairs partition the input's pairs
    exactly and reports the measured size constants.
    """
    if result.failed:
        raise ValueError("cannot audit a failed cell construction")
    n = max(len(red), len(blue), 1)

    found = [_cell_pairs(c) for c in result.cells]
    total = sum(f.shape[1] for f in found)
    # Every distinct pair, found or true, sorted by (red x, blue x); the
    # first ``total`` columns are the found copies.
    true = _cell_pairs(Cell(red=red, blue=blue))
    heads, inv = np.unique(np.concatenate(found + [true], axis=1), axis=1,
                           return_inverse=True)
    n_found = np.bincount(inv[:total], minlength=heads.shape[1])
    heads = heads.T
    duplicates = list(map(tuple, heads[n_found > 1].tolist()))
    missing = list(map(tuple, heads[n_found == 0].tolist()))
    expected = true.shape[1]

    small_side = max(
        (min(len(c.red), len(c.blue)) / (1 << c.level) for c in result.cells),
        default=0.0)
    size_sum = max(sum(len(c.red) for c in result.cells),
                   sum(len(c.blue) for c in result.cells))
    ok = not duplicates and not missing and total == expected
    return CellAudit(
        ok=ok,
        total_pairs=total,
        expected_pairs=expected,
        small_side_ratio=small_side / (result.cap / n),
        total_size_ratio=size_sum / n,
        duplicate_pairs=duplicates,
        missing_pairs=missing,
    )
