#!/usr/bin/env python3
"""Measure how the adaptive counter's I/O cost tracks the true inversion count.

Sweeps a grid of target inversion counts at fixed (N, M, B), runs the
adaptive counter on several seeded instances per grid point, and prints one
summary row per point: mean/min/max I/O, rounds, and the ratio to the
zero-inversion baseline.

Example:
    python3 scripts/adaptivity_sweep.py --n 131072 --mem 1024 --block 32 \
        --kstar 0,131072,536870912,4294967296 --seeds 5
"""

from __future__ import annotations

import argparse

import numpy as np

from invcount import (EmParams, InstanceSpec, IoTally, count_adaptive,
                      generate, reduce_inversions)


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
          f"{'rounds':>6} {'vs_zero':>8}")

    baseline = None
    for kstar in targets:
        ios, rounds = [], set()
        for seed in range(args.seeds):
            values = generate(InstanceSpec(args.n, "target_inversions",
                                           seed=seed, target=kstar))
            red, blue = reduce_inversions(values)
            tally = IoTally(params)
            res = count_adaptive(red, blue, params, tally)
            assert res.count == kstar
            ios.append(tally.total)
            rounds.add(res.rounds)
        mean = float(np.mean(ios))
        if baseline is None:
            baseline = mean
        print(f"{kstar:>14} {mean:>12.1f} {min(ios):>10} {max(ios):>10} "
              f"{'/'.join(map(str, sorted(rounds))):>6} "
              f"{mean / baseline:>8.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
