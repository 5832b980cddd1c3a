"""Deterministic test-instance generation, including exact inversion targets.

The ``target_inversions`` shape draws a random offset table (entry i in
``[0, n-1-i]``, the number of later-but-smaller elements) conditioned to
sum to the requested count, then decodes it to a permutation by merging
blocks of positions bottom-up, one sort per level.  This gives exact
control of the inversion count, which the adaptivity benchmarks need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

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


def random_inversion_table(n: int, k: int, rng: np.random.Generator) -> list[int]:
    """Offset table with entries in [0, n-1-i] summing to exactly ``k``."""
    max_total = n * (n - 1) // 2
    if not 0 <= k <= max_total:
        raise InfeasibleTargetError(f"cannot place {k} inversions in {n} elements")
    remaining = k
    suffix = max_total
    table = []
    for i in range(n):
        cap = n - 1 - i
        suffix -= cap
        lo = max(0, remaining - suffix)
        hi = min(cap, remaining)
        b = int(rng.integers(lo, hi + 1)) if hi > lo else lo
        table.append(b)
        remaining -= b
    return table


def decode_inversion_table(table: list[int]) -> np.ndarray:
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
    n = spec.n
    if n < 0:
        raise ValueError("n must be non-negative")
    if not 0.0 <= spec.dup_fraction <= 1.0:
        raise ValueError("dup_fraction must lie in [0, 1]")
    rng = np.random.default_rng(spec.seed)
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
        if spec.target is None:
            raise ValueError("target_inversions requires a target count")
        table = random_inversion_table(n, spec.target, rng)
        return decode_inversion_table(table)
    raise ValueError(f"unknown shape {spec.shape!r}")
