"""Analytic I/O accounting: the scan, write and distribution charge rules."""

import numpy as np
import pytest

from invcount.iomodel import EmParams, IoTally


class TestParams:
    def test_memory_must_hold_two_blocks(self):
        with pytest.raises(ValueError):
            EmParams(memory_words=63, block_words=32)

    def test_block_must_be_positive(self):
        with pytest.raises(ValueError):
            EmParams(memory_words=64, block_words=0)

    @pytest.mark.parametrize("memory, block", [
        (1024, True), (True, 1), (1024.0, 32), (1024, 32.0), (1024, 2.5),
        (float("inf"), 32), (1024, "32"), (np.float64(1024), 32)],
        ids=["bool-B", "bool-M", "float-M", "float-B", "fraction-B", "inf-M",
             "str-B", "numpy-float-M"])
    def test_sizes_must_be_integers(self, memory, block):
        # EmParams(1024, True) used to count with B = 1.
        with pytest.raises(ValueError, match="must be an integer"):
            EmParams(memory, block)

    def test_numpy_integer_sizes_accepted(self):
        p = EmParams(np.int64(2048), np.int32(32))
        assert p.max_streams == 32 and p.blocks(100, 2) == 7

    def test_max_streams(self):
        assert EmParams(2048, 32).max_streams == 32
        assert EmParams(64, 32).max_streams == 1

    def test_blocks_is_ceiling(self):
        p = EmParams(2048, 32)
        assert p.blocks(0, 2) == 0
        assert p.blocks(1, 2) == 1
        assert p.blocks(100, 2) == 7


class TestScanCharges:
    def test_empty_scan_is_free(self):
        t = IoTally(EmParams(2048, 32))
        t.charge_read(0, 1)
        assert t.reads == 0

    def test_single_record(self):
        t = IoTally(EmParams(2048, 32))
        t.charge_read(1, 1)
        assert t.reads == 1

    def test_hundred_wide_records(self):
        t = IoTally(EmParams(2048, 32))
        t.charge_read(100, 2)
        assert t.reads == 7  # ceil(200/32)

    def test_write_charge_mirrors_scan(self):
        t = IoTally(EmParams(2048, 32))
        t.charge_write(100, 2)
        assert t.writes == 7 and t.reads == 0

    @pytest.mark.parametrize("block", [1, 3, 32])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_write_each_is_one_write_per_size(self, block, width):
        # Reads and writes over an array charge a ceiling per size, not of
        # the sum: at B = 3 and w = 1, sizes 1 and 1 are two blocks, not one.
        rng = np.random.default_rng(block * 10 + width)
        sizes = rng.integers(0, 200, 500)
        sizes[::7] = 0
        params = EmParams(64 * block, block)
        each, loop = IoTally(params), IoTally(params)
        each.charge_read(sizes, width=width)
        each.charge_write(sizes[::-1], width=width)
        for n in sizes.tolist():
            loop.charge_read(n, width=width)
            loop.charge_write(n, width=width)
        assert (each.reads, each.writes) == (loop.reads, loop.writes)
        assert each.reads > 0 and each.writes > 0

    def test_write_each_of_nothing_is_free(self):
        t = IoTally(EmParams(2048, 32))
        t.charge_read(np.array([], dtype=np.int64))
        t.charge_write(np.array([], dtype=np.int64))
        assert t.total == 0


class TestDistribute:
    def test_single_bucket_is_a_charged_copy(self):
        t = IoTally(EmParams(2048, 32))
        t.charge_distribute(50, [50])  # 50 points of two words
        assert t.reads == 4           # ceil(100/32)
        assert t.writes == 4 + 1      # bucket blocks + one flush block

    def test_four_even_buckets(self):
        t = IoTally(EmParams(64, 8))
        t.charge_distribute(32, [8, 8, 8, 8])
        assert t.reads == 8             # ceil(64/8)
        assert t.writes == 4 * 2 + 4    # 2 blocks per bucket + 4 flushes

    def test_empty_buckets_still_flush(self):
        t = IoTally(EmParams(64, 8))
        t.charge_distribute(0, [0, 0, 0])
        assert (t.reads, t.writes) == (0, 3)


class TestArrayCharges:
    """Charges over arrays of sizes equal loops of scalar charges."""

    @pytest.mark.parametrize("block", [1, 3, 32])
    def test_match_scalar_loops(self, block):
        # Forty nodes of two colours, each split into seven buckets; some
        # inputs are empty and some buckets, and one node, hold nothing.
        rng = np.random.default_rng(block)
        inputs = rng.integers(0, 120, (40, 2))
        inputs[::6] = 0
        buckets = rng.integers(0, 40, (40, 7, 2))
        buckets[::4, 3] = 0
        buckets[9] = 0
        params = EmParams(64 * block, block)
        arrays, loops = IoTally(params), IoTally(params)
        arrays.charge_read(inputs)
        arrays.charge_write(buckets)
        arrays.charge_distribute(inputs, buckets)
        for n in inputs.ravel().tolist():
            loops.charge_read(n)
        for n in buckets.ravel().tolist():
            loops.charge_write(n)
        for n, sizes in zip(inputs.ravel().tolist(),
                            buckets.transpose(0, 2, 1).reshape(-1, 7).tolist()):
            loops.charge_distribute(n, sizes)
        assert (arrays.reads, arrays.writes) == (loops.reads, loops.writes)
        assert arrays.reads > 0 and arrays.writes > 0

    def test_empty_arrays_are_free(self):
        t = IoTally(EmParams(2048, 32))
        t.charge_read(np.empty(0, dtype=np.int64))
        t.charge_distribute(np.empty((0, 2), dtype=np.int64),
                            np.empty((0, 5, 2), dtype=np.int64))
        assert t.total == 0


class TestSynchronizedScan:
    """A synchronized scan charges each of its streams as one scan."""

    def test_empty_plus_one_block(self):
        t = IoTally(EmParams(2048, 32))
        for n in (0, 32):
            t.charge_read(n, 1)
        assert t.reads == 1

    def test_two_sequences_of_hundred(self):
        t = IoTally(EmParams(2048, 32))
        for n in (100, 100):
            t.charge_read(n, 1)
        assert t.reads == 8  # ceil(100/32) * 2

    def test_three_streams_within_budget(self):
        t = IoTally(EmParams(2048, 32))
        for n in (10, 10, 10):
            t.charge_read(n, 1)
        assert t.reads == 3


def test_tally_is_deterministic():
    def run():
        t = IoTally(EmParams(64, 8))
        sizes = [17, 17, 16]
        t.charge_distribute(50, sizes)
        for n in sizes:
            t.charge_read(n)
        return (t.reads, t.writes)

    assert run() == run() == (13 + 14, 14 + 3)
