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

A built family is one flat layout, the form the comparison-model counter
and the pair sampler read: the ``x``, ``y`` and ``tiebreak`` of every blue
point of every cell and then of every red point, each colour in cell
order, the cell sizes as two rows (blue, red), and one level per cell.
It is the family's only form: ``RedBlueCells.cells`` is a tuple of
per-cell views of it, made only when a caller reads it.
Beyond the cutting's sweep, a half-level costs a constant number of numpy
passes over its points: one classification, one stable sort of the cell
labels, one ``bincount``, one mask over the cutting's members, and one
gather each of the hosts' and the members' indices into the input sets.
The layout is one gather of the input coordinates by those indices at
the end, so the family's points are held once.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import PointSet, _integer, _unchecked, dominance_mask
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


class RedBlueCells:
    """Outcome of the cell construction for one cap value.

    The family is held once, as the flat layout of the module docstring,
    which ``layout()`` returns, and the level of each cell.  ``cells`` is a
    tuple of ``Cell``s whose sides are views of the layout, made on its
    first read.  A sequence of ``Cell``s assigned to ``cells`` or passed to
    the constructor is gathered into a new layout.
    """

    def __init__(self, cap: int, cells: Sequence[Cell] = (), failed: bool = False):
        self.cap = _integer(cap, "cap")
        if self.cap < 1:
            raise ValueError("cap must be at least 1")
        self.failed = failed
        self.cells = cells

    @property
    def cells(self) -> tuple[Cell, ...]:
        if self._views is None:
            x, y, t, sizes = self._layout
            nb = int(sizes[0].sum())
            blue = _unchecked(x[:nb], y[:nb], t[:nb], "blue")
            red = _unchecked(x[nb:], y[nb:], t[nb:], "red")
            b_ends, r_ends = np.cumsum(sizes, axis=1).tolist()
            self._views = tuple(
                Cell(red._take(slice(r0, r1)), blue._take(slice(b0, b1)), level)
                for b0, b1, r0, r1, level in zip([0] + b_ends, b_ends, [0] + r_ends,
                                                 r_ends, self._levels.tolist()))
        return self._views

    @cells.setter
    def cells(self, cells: Sequence[Cell]) -> None:
        sides = [c.blue for c in cells] + [c.red for c in cells]
        sizes = np.array([len(s) for s in sides], dtype=np.int64).reshape(2, -1)
        x, y, t = (np.concatenate([np.empty(0, dt)] + [getattr(s, a) for s in sides])
                   for a, dt in (("x", np.int64), ("y", np.float64),
                                 ("tiebreak", np.int64)))
        self._layout = (x, y, t, sizes)
        self._levels = np.array([c.level for c in cells], dtype=np.int64)
        self._views = None

    def layout(self) -> tuple[np.ndarray, ...]:
        """``x, y, tiebreak`` of every blue point and then every red point,
        each colour in cell order, and the sizes as two rows (blue, red)."""
        return self._layout


def _half_level(build, base: PointSet, base_at: np.ndarray, others: PointSet,
                others_at: np.ndarray, depth: int, n0: int, level: int,
                out: list, tally: IoTally) -> np.ndarray | None:
    """Cut ``base`` and put each point of ``others`` into a cell of the cutting.

    ``base_at`` and ``others_at`` hold the index of each point of ``base``
    and ``others`` in the input set of its colour.  Appends the cutting
    cells that received a point to ``out`` as one group (see
    ``build_cells``) and returns the ascending positions in ``others`` of
    its deep points (those in no cell), or ``None`` for failure: more deep
    points than half this level's budget ``n0 / 2**level``.  Materializing
    a cell writes its conflict list (the host side); the members are
    charged in one batch.
    """
    cut = build(base, depth, tally)
    assign = cut.classify_many(others)
    tally.charge_read(len(others))  # classification scan
    n_deep = int(np.count_nonzero(assign < 0))
    if n_deep * (1 << (level + 1)) > n0:
        return None
    cut.charge_corners(tally)
    tally.charge_write(len(others) - n_deep)
    # The stable sort puts the deep points first and then each cell's
    # members, every run in x order.
    by_cell = np.argsort(assign, kind="stable")
    got = np.bincount(assign + 1, minlength=len(cut.sizes) + 1)[1:]
    kept = got > 0
    n_hosts, n_members = cut.sizes[kept], got[kept]
    tally.charge_write(n_hosts)
    hosts = base_at[cut.members[np.repeat(kept, cut.sizes)]]
    members = others_at[by_cell[n_deep:]]
    if cut.orientation == "red":
        out.append((hosts, members, np.stack((n_members, n_hosts)), level))
    else:
        out.append((members, hosts, np.stack((n_hosts, n_members)), level))
    return by_cell[:n_deep]


def build_cells(red: PointSet, blue: PointSet, cap: int, tally: IoTally) -> RedBlueCells:
    """Build red-blue cells for ``cap``; may report failure iff truth > cap."""
    result = RedBlueCells(cap)
    cap, n0 = result.cap, max(len(red), len(blue))
    # One group per half-level (and the leaf): the indices into ``red``
    # and into ``blue`` of its cells' points, cell after cell, the cells'
    # sizes as two rows (blue, red), and the level.
    groups: list[tuple[np.ndarray, np.ndarray, np.ndarray, int]] = []
    cur_red, cur_blue = red, blue
    red_at, blue_at = np.arange(len(red)), np.arange(len(blue))
    level = 0
    while True:
        nr, nb = len(cur_red), len(cur_blue)
        if nr == 0 or nb == 0:
            break
        if nr < STOP_SIZE and nb < STOP_SIZE:
            groups.append((red_at, blue_at, np.array([[nb], [nr]]), level))
            break
        depth = (2 * cap * (1 << level) + n0 - 1) // n0

        deep = _half_level(build_red_cutting, cur_red, red_at, cur_blue, blue_at,
                           depth, n0, level, groups, tally)
        if deep is None or len(deep) == 0:
            result.failed = deep is None
            break
        cur_blue, blue_at = cur_blue._take(deep), blue_at[deep]
        deep = _half_level(build_blue_cutting, cur_blue, blue_at, cur_red, red_at,
                           depth, n0, level, groups, tally)
        if deep is None:
            result.failed = True
            break
        cur_red, red_at = cur_red._take(deep), red_at[deep]
        tally.charge_write(len(cur_red) + len(cur_blue))
        level += 1

    none = np.empty(0, np.intp)
    red_at, blue_at = (np.concatenate([g[i] for g in groups] + [none]) for i in (0, 1))
    sizes = np.concatenate([g[2] for g in groups] + [np.empty((2, 0), np.int64)],
                           axis=1)
    result._levels = np.repeat([g[3] for g in groups], [g[2].shape[1] for g in groups])
    groups.clear()
    # Gather straight into the layout, so it is the one copy of the points.
    # Every index comes from the build and is in range, so "clip" changes
    # none; the default "raise" would copy each gather through a buffer.
    nb = len(blue_at)
    coords = []
    for a in ("x", "y", "tiebreak"):
        col = np.empty(nb + len(red_at), getattr(red, a).dtype)
        np.take(getattr(blue, a), blue_at, out=col[:nb], mode="clip")
        np.take(getattr(red, a), red_at, out=col[nb:], mode="clip")
        coords.append(col)
    result._layout = (*coords, sizes)
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


def _input_index(side: PointSet, points: PointSet) -> np.ndarray:
    """The index in ``points`` of each point of ``side``, by its x, which
    is unique within a colour."""
    if not np.isin(side.x, points.x).all():
        raise ValueError(f"a cell holds a {side.color} point that is not in the input")
    return np.searchsorted(points.x, side.x)


def _pair_mask(red: PointSet, blue: PointSet) -> np.ndarray:
    """The ``|blue| x |red|`` mask of domination pairs."""
    return dominance_mask(blue.x[:, None], blue.y[:, None], blue.tiebreak[:, None],
                          red.x, red.y, red.tiebreak)


def audit_cells(result: RedBlueCells, red: PointSet, blue: PointSet) -> CellAudit:
    """Exhaustively verify a successful cell family (meant for small N).

    Checks that the per-cell domination pairs partition the input's pairs
    exactly and reports the measured size constants.  A pair is listed as
    ``(red x, blue x)``, the lists sorted.
    """
    if result.failed:
        raise ValueError("cannot audit a failed cell construction")
    n = max(len(red), len(blue), 1)

    # How often the cells find each pair, indexed by its blue and its red
    # point's place in the input.  Within a cell the indices are unique.
    found = np.zeros((len(blue), len(red)), dtype=np.int64)
    for c in result.cells:
        found[np.ix_(_input_index(c.blue, blue), _input_index(c.red, red))] += \
            _pair_mask(c.red, c.blue)
    true = _pair_mask(red, blue)
    total, expected = int(found.sum()), int(np.count_nonzero(true))

    def pairs(mask):
        ri, bi = np.nonzero(mask.T)
        return list(zip(red.x[ri].tolist(), blue.x[bi].tolist()))

    duplicates = pairs(found > 1)
    missing = pairs(true & (found == 0))

    sizes = result.layout()[3]
    small_side = float((sizes.min(axis=0) / 2.0 ** result._levels).max(initial=0.0))
    size_sum = int(sizes.sum(axis=1).max())
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
