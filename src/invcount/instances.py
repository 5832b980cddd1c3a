"""Deterministic test-instance generation, including exact inversion targets.

The ``target_inversions`` shape draws a random offset table (entry i in
``[0, n-1-i]``, the number of later-but-smaller elements) conditioned to
sum to the requested count, then decodes it to a permutation by merging
blocks of positions bottom-up, one sort per level.  This gives exact
control of the inversion count, which the adaptivity benchmarks need.
The table is drawn in numpy chunks that replay, value for value and with
the same final generator state, one bounded draw per entry; only the few
entries whose bounds bind the draw to the target cost a scalar call.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import _integer

SHAPES = (
    "sorted",
    "reverse",
    "random_permutation",
    "random_real",
    "duplicates",
    "target_inversions",
)


class InfeasibleTargetError(ValueError):
    """Requested inversion count exceeds n*(n-1)/2."""


@dataclass(frozen=True)
class InstanceSpec:
    n: int
    shape: str
    seed: int = 0
    target: Optional[int] = None        # target_inversions only
    dup_fraction: float = 0.3           # duplicates only


def random_inversion_table(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Offset table with entries in [0, n-1-i] summing to exactly ``k``.

    Entry ``i`` is ``rng.integers(lo, hi + 1)`` with ``lo = max(0, r - s)``
    and ``hi = min(c, r)``, where ``c = n-1-i`` is its cap, ``s = c(c-1)/2``
    the sum of the later caps and ``r`` the count still to place; no draw
    is made when ``lo == hi``.  Wherever ``c <= r <= s`` the bounds are the
    free ``[0, c]``, independent of earlier draws, and numpy draws an array
    of bounds in order with the same values and final generator state as
    one scalar call per element.  So a chunk of free draws is taken at
    once; if some entry's bounds bind, the generator is restored and only
    the free prefix before it redrawn, and the bound entry is drawn alone.
    Chunks double while they succeed and restart at the prefix length.
    Once ``r`` is 0 or the sum of the remaining caps, the rest of the
    table is forced and draws nothing.  At ``n = 2**17`` and
    ``k = n**2 / 4`` that is about 26 numpy calls drawing ``1.5 n``
    values in all, where a loop per entry makes ``n`` Python steps.
    """
    max_total = n * (n - 1) // 2
    if not 0 <= k <= max_total:
        raise InfeasibleTargetError(f"cannot place {k} inversions in {n} elements")
    caps = np.arange(n - 1, -1, -1, dtype=np.int64)
    table = np.zeros(n, dtype=np.int64)
    remaining = k
    i = 0
    size = 1
    while i < n:
        cap = n - 1 - i
        suffix = cap * (cap - 1) // 2
        # With nothing, or every cap, left to place, the rest is forced.
        if remaining == 0:
            break
        if remaining == suffix + cap:
            table[i:] = caps[i:]
            break
        if not cap <= remaining <= suffix:
            # Bounds bind; here lo < hi, so the loop would draw.
            lo = max(0, remaining - suffix)
            hi = min(cap, remaining)
            b = int(rng.integers(lo, hi + 1))
            table[i] = b
            remaining -= b
            i += 1
            continue
        chunk_caps = caps[i:i + size]
        state = rng.bit_generator.state
        draws = rng.integers(0, chunk_caps + 1)
        before = remaining - (np.cumsum(draws) - draws)
        free = (chunk_caps <= before) & (before <= chunk_caps * (chunk_caps - 1) // 2)
        if free.all():
            size *= 2
        else:
            size = int(free.argmin())    # at least 1: entry i is free
            rng.bit_generator.state = state
            draws = rng.integers(0, chunk_caps[:size] + 1)
        table[i:i + len(draws)] = draws
        remaining -= int(draws.sum())
        i += len(draws)
    return table


def decode_inversion_table(table: Sequence[int] | np.ndarray) -> np.ndarray:
    """Permutation of 0..n-1 whose inversion count is the table's sum.

    Entry ``i`` is the rank of value ``i`` among the values at positions
    ``i`` onward.  Pairs of blocks merge bottom-up: a rank ``v`` in a block
    B becomes ``v + #{j : sorted(A)[j] - j <= v}`` for the block A before
    it, its rank from A's start onward.  Each of the ``ceil(log2 n)``
    levels is one keyed sort and one search, O(n log n); keys stay below
    ``2**62`` for ``n <= 2**31``.
    """
    n = len(table)
    rank = np.array(table, dtype=np.int64)
    i = np.arange(n)
    for lev in range((n - 1).bit_length()):
        half = 1 << lev
        in_a = (i & half) == 0
        b = ~in_a
        # Keys pair * n + rank (ranks stay below n).  Temporaries are freed
        # once read, so at most three half-length arrays live beside rank and i.
        # sorted(A)[j] - j per pair; A is full wherever B is not empty.
        free = (i[in_a] >> (lev + 1)) * n + rank[in_a]
        free.sort()
        free -= np.arange(len(free)) & (half - 1)
        key = (i[b] >> (lev + 1)) * n + rank[b]
        pos = np.searchsorted(free, key, side="right")
        del free
        pos -= key // n << lev
        rank[b] += pos
        del key, pos
    return rank.astype(np.float64)


def generate(spec: InstanceSpec) -> np.ndarray:
    """Deterministic value list for one instance spec."""
    n = _integer(spec.n, "n")
    target = None if spec.target is None else _integer(spec.target, "target")
    if n < 0:
        raise ValueError("n must be non-negative")
    seed = _integer(spec.seed, "seed")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if not 0.0 <= spec.dup_fraction <= 1.0:
        raise ValueError("dup_fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    if spec.shape == "sorted":
        return np.arange(n, dtype=np.float64)
    if spec.shape == "reverse":
        return np.arange(n - 1, -1, -1, dtype=np.float64)
    if spec.shape == "random_permutation":
        return rng.permutation(n).astype(np.float64)
    if spec.shape == "random_real":
        return rng.random(n)
    if spec.shape == "duplicates":
        pool = max(1, round(n * (1.0 - spec.dup_fraction)))
        return rng.integers(0, pool, size=n).astype(np.float64)
    if spec.shape == "target_inversions":
        if target is None:
            raise ValueError("target_inversions requires a target count")
        table = random_inversion_table(n, target, rng)
        return decode_inversion_table(table)
    raise ValueError(f"unknown shape {spec.shape!r}")
