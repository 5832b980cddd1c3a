"""Analytic I/O tally for the external-memory cost model.

The cost model: a machine with ``M`` words of main memory and a disk
formatted into blocks of ``B`` words (``M >= 2B``).  One I/O transfers one
block.  Rather than emulating a buffer cache, the algorithms charge their
block transfers to an :class:`IoTally`, which makes tallies exact, fast,
and reproducible bit-for-bit.  The tally has three charge rules:

* ``charge_read``: scanning ``n`` records of ``w`` words charges
  ``ceil(n*w/B)`` reads;
* ``charge_write``: materializing them charges ``ceil(n*w/B)`` writes;
* ``charge_distribute``: a multiway distribution pass charges one input
  scan plus the write blocks of every bucket plus one flush block per
  bucket.

Each rule is one method that takes a count or an array of counts and
charges one ceiling per count, not of the sum, so a caller charges a
whole level of passes in one call and no ceiling is computed outside
this module.

Any in-memory processing of a working set that fits in ``M`` words is
free.  Each open stream reserves two blocks (double buffering), so at
most ``M // (2B)`` streams fit at once; the distribution counter sizes
its fanout from that budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _integer

#: Words needed to store one planar point (index, value).
POINT_WIDTH = 2


@dataclass(frozen=True)
class EmParams:
    """External-memory parameters: M words of memory, B words per block."""

    memory_words: int
    block_words: int

    def __post_init__(self):
        _integer(self.memory_words, "memory_words")
        if _integer(self.block_words, "block_words") < 1:
            raise ValueError("block size must be at least one word")
        if self.memory_words < 2 * self.block_words:
            raise ValueError("memory must hold at least two blocks")

    @property
    def max_streams(self) -> int:
        """Streams that fit with two buffer blocks reserved per stream."""
        return self.memory_words // (2 * self.block_words)

    def blocks(self, n_records: int, width: int) -> int:
        """Blocks occupied by ``n_records`` records of ``width`` words."""
        return -(-(n_records * width) // self.block_words)


#: Constants used when the simulator stands in for the RAM model.
RAM_PARAMS = EmParams(memory_words=64, block_words=1)


@dataclass
class IoTally:
    """Monotone counters of block reads and writes for one execution."""

    params: EmParams
    reads: int = 0
    writes: int = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes

    def charge_read(self, n_records, width: int = POINT_WIDTH) -> None:
        self.reads += self._blocks(n_records, width)

    def charge_write(self, n_records, width: int = POINT_WIDTH) -> None:
        self.writes += self._blocks(n_records, width)

    def _blocks(self, n_records, width: int) -> int:
        sizes = np.asarray(n_records, dtype=np.int64)
        return int(self.params.blocks(sizes, width).sum())

    def charge_distribute(self, n_records, bucket_sizes) -> None:
        """Charge passes that split ``n_records`` points into buckets.

        One scan of each input, the blocks of every bucket, and one
        partial-block flush per bucket, empty buckets included.  Either
        argument may be a count or an array of counts, so one call can
        charge many passes.
        """
        self.charge_read(n_records)
        self.charge_write(bucket_sizes)
        self.writes += int(np.size(bucket_sizes))
