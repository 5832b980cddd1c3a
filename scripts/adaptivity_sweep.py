#!/usr/bin/env python3
"""Measure how the adaptive counter's I/O cost tracks the true inversion count.

Sweeps a grid of target inversion counts at fixed (N, M, B), runs the
adaptive counter on several seeded instances per grid point, and prints one
summary row per point: mean/min/max I/O, rounds, and the ratio to the
zero-inversion baseline.  Each row also gives the median wall seconds,
over the seeds, of the comparison-model counters on the same instances:
``count_adaptive_ram`` (``ram_s``) and ``mergesort_count`` (``merge_s``).

Example:
    python3 scripts/adaptivity_sweep.py --n 131072 --mem 1024 --block 32 \
        --kstar 0,131072,536870912,4294967296 --seeds 5
"""

from __future__ import annotations

import argparse
import statistics
import time

import numpy as np

from invcount import (EmParams, InstanceSpec, IoTally, count_adaptive,
                      count_adaptive_ram, generate, mergesort_count,
                      reduce_inversions)


def timed(fn, *args):
    """``fn(*args)`` and the wall seconds it took."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=2**17)
    ap.add_argument("--mem", type=int, default=1024)
    ap.add_argument("--block", type=int, default=32)
    ap.add_argument("--kstar", default="0,131072,536870912,4294967296",
                    help="comma-separated target inversion counts, from 0")
    ap.add_argument("--seeds", type=int, default=5)
    args = ap.parse_args()

    params = EmParams(args.mem, args.block)
    targets = [int(s) for s in args.kstar.split(",")]
    if targets[0] != 0:
        ap.error("--kstar must start at 0, the baseline of vs_zero")
    print(f"n={args.n} mem={args.mem} block={args.block} seeds={args.seeds}")
    print(f"{'kstar':>14} {'mean_io':>12} {'min_io':>10} {'max_io':>10} "
          f"{'rounds':>6} {'vs_zero':>8} {'ram_s':>8} {'merge_s':>8}")

    baseline = None
    for kstar in targets:
        ios, rounds, ram_s, merge_s = [], set(), [], []
        for seed in range(args.seeds):
            values = generate(InstanceSpec(args.n, "target_inversions",
                                           seed=seed, target=kstar))
            red, blue = reduce_inversions(values)
            tally = IoTally(params)
            res = count_adaptive(red, blue, params, tally)
            assert res.count == kstar
            ios.append(tally.total)
            rounds.add(res.rounds)
            ram, secs = timed(count_adaptive_ram, red, blue)
            assert ram.count == kstar
            ram_s.append(secs)
            count, secs = timed(mergesort_count, values)
            assert count == kstar
            merge_s.append(secs)
        mean = float(np.mean(ios))
        if baseline is None:
            baseline = mean
        print(f"{kstar:>14} {mean:>12.1f} {min(ios):>10} {max(ios):>10} "
              f"{'/'.join(map(str, sorted(rounds))):>6} "
              f"{mean / baseline:>8.2f} {statistics.median(ram_s):>8.4f} "
              f"{statistics.median(merge_s):>8.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
