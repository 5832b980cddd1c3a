"""Linear-time randomized estimation of the inversion count.

Three regimes, dispatched by how large the true count turns out to be:

1. small: a capped exact count with cap N either returns the exact answer
   or certifies that the count exceeds N;
2. middle: build red-blue cells for cap ``ceil(N**1.5 * log2 N)`` and draw
   N pair samples weighted by cell, each pair uniform over the cell
   family's sample space S; report ``hits * S / N``;
3. large: if the cell construction fails, draw N uniform pairs from
   R x B and report ``hits * N``.

Both sampling estimators are exactly unbiased: in the middle regime every
domination pair lives in exactly one cell, so a sample hits with
probability (true count)/S; in the large regime the hit probability is
(true count)/N^2.

All randomness flows through one seeded 64-bit generator
(``numpy.random.default_rng``); cell and within-cell draws use integer
arithmetic, so the stage probabilities are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2

import numpy as np

from .cells import RedBlueCells, build_cells
from .core import PointSet, _integer, reduce_inversions, ykey_less
from .counting import count_capped_ram
from .iomodel import IoTally, RAM_PARAMS

REGIME_EXACT = "exact_small"
REGIME_CELL = "cell_sampling"
REGIME_UNIFORM = "uniform_sampling"


@dataclass(frozen=True)
class Estimate:
    """An inversion-count estimate with its provenance."""

    value: float
    regime: str
    hits: int
    sample_space: int
    n_samples: int
    epsilon_bound: float


class EmptySampleSpaceError(ValueError):
    """No candidate pairs to sample from (the true count is zero)."""


class PairSampler:
    """Three-stage pair sampler over a successful cell family.

    Stage 1 picks a cell with probability |R_i||B_i|/S, stage 2 a uniform
    blue point of the cell, stage 3 a uniform red point; the resulting
    pair is uniform over all S candidate pairs.  The coordinate arrays are
    views of the family's layout, so the family is held once.
    """

    def __init__(self, cells: RedBlueCells):
        x, y, t, (self.b_sizes, self.r_sizes) = cells.layout()
        # A cell with an empty side adds nothing to ``cum``, so
        # ``searchsorted(cum, u, "right")`` never draws it.
        self.cum = np.cumsum(self.r_sizes * self.b_sizes)
        self.total = int(self.cum[-1]) if len(self.cum) else 0
        self.r_offs = np.concatenate([[0], np.cumsum(self.r_sizes)])
        self.b_offs = np.concatenate([[0], np.cumsum(self.b_sizes)])
        nb = self.b_offs[-1]
        self.bx, self.by, self.bt = x[:nb], y[:nb], t[:nb]
        self.rx, self.ry, self.rt = x[nb:], y[nb:], t[nb:]

    def draw_many(self, rng: np.random.Generator, m: int):
        """Draw ``m`` pairs; returns flat indices (red, blue, cell)."""
        if self.total == 0:
            raise EmptySampleSpaceError("sample space is empty")
        u = rng.integers(0, self.total, size=m)
        cell = np.searchsorted(self.cum, u, side="right")
        b_pos = rng.integers(0, self.b_sizes[cell])
        r_pos = rng.integers(0, self.r_sizes[cell])
        return self.r_offs[cell] + r_pos, self.b_offs[cell] + b_pos, cell

    def count_hits(self, ri: np.ndarray, bi: np.ndarray) -> int:
        """How many of the drawn pairs are domination pairs."""
        return _count_dominating(self.rx, self.ry, self.rt,
                                 self.bx, self.by, self.bt, ri, bi)


def _count_dominating(rx, ry, rt, bx, by, bt, ri, bi) -> int:
    """How many index pairs ``(ri, bi)`` pair a red with a dominating blue."""
    # Not core.dominance_mask: a call holds all six gathers at once,
    # which raised estimate-dense peak RSS by about 4 MB.
    dom = (bx[bi] > rx[ri]) & ykey_less(by[bi], bt[bi], ry[ri], rt[ri])
    return int(np.count_nonzero(dom))


def _uniform_indices(red: PointSet, blue: PointSet, rng: np.random.Generator,
                     m: int | None = None):
    """Independent uniform red and blue indices: ``m`` of each, or one."""
    if len(red) == 0 or len(blue) == 0:
        raise ValueError("cannot sample from an empty point set")
    return rng.integers(0, len(red), size=m), rng.integers(0, len(blue), size=m)


def draw_uniform_pair(red: PointSet, blue: PointSet, rng: np.random.Generator):
    """Independent uniform red and blue points."""
    i, j = _uniform_indices(red, blue, rng)
    return red.point(i), blue.point(j)


def middle_regime_cap(n: int) -> int:
    """Cell cap for the middle regime, clamped to the maximum pair count."""
    if n < 2:
        return 1
    return max(1, min(ceil(n**1.5 * log2(n)), n * (n - 1) // 2))


def estimate_inversions(values, seed: int) -> Estimate:
    """Estimate the inversion count of a list in roughly linear time."""
    seed = _integer(seed, "seed")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    red, blue = reduce_inversions(values)
    n = len(red)
    if n < 1:
        raise ValueError("need at least one value")

    exact = count_capped_ram(red, blue, n)
    if exact is not None:
        return Estimate(value=float(exact), regime=REGIME_EXACT, hits=0,
                        sample_space=0, n_samples=0, epsilon_bound=0.0)

    rng = np.random.default_rng(seed)
    built = build_cells(red, blue, middle_regime_cap(n), IoTally(RAM_PARAMS))
    if not built.failed:
        sampler = PairSampler(built)
        space = sampler.total
        # Not ``ri, bi, _``: the drawn cells would stay alive through
        # the hit test, the call's memory peak.
        ri, bi = sampler.draw_many(rng, n)[:2]
        hits = sampler.count_hits(ri, bi)
        regime, epsilon = REGIME_CELL, log2(n) / n**0.25
    else:
        space = n * n
        ri, bi = _uniform_indices(red, blue, rng, n)
        hits = _count_dominating(red.x, red.y, red.tiebreak,
                                 blue.x, blue.y, blue.tiebreak, ri, bi)
        regime, epsilon = REGIME_UNIFORM, n**-0.25
    return Estimate(value=hits * space / n, regime=regime, hits=hits,
                    sample_space=space, n_samples=n, epsilon_bound=epsilon)
