#!/usr/bin/env python3
"""Print a deterministic record of invcount's observable behaviour.

For every ``(N, M, B)`` grid, the record holds the ``invcount bench`` CSV
(timing off) of all six algorithms, ``capped`` at the fixed cap ``N * B``,
over five target inversion counts; then one ``count`` report per shape
and algorithm; then, for both staircase orientations at the depths ``B``
and ``N // 8``, a digest of the cutting's corners and cells over the
reduction of one ``duplicates`` instance.  After the grids come the
``estimate`` reports of every shape.  Two runs of one version print the
same bytes, so two versions can be compared with ``cmp``.  ``invcount``
is imported from ``PYTHONPATH``:

    PYTHONPATH=src python3 scripts/behaviour_snapshot.py > after.txt
    PYTHONPATH=/path/to/other/src python3 scripts/behaviour_snapshot.py > before.txt
    cmp before.txt after.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys

import numpy as np

from invcount import (EmParams, InstanceSpec, IoTally, build_blue_cutting,
                      build_red_cutting, generate, reduce_inversions)
from invcount.cli import ALGORITHMS, main as cli

#: Default grids, ``N:M:B``; one has ``B = 1``.
GRIDS = "2000:2048:32,1500:256:16,1000:64:1,1200:512:8"

SHAPES = ("sorted", "reverse", "random-permutation", "random-real",
          "duplicates", "target-inversions")


def run(argv: list[str]) -> str:
    """Output of one CLI call; a non-zero exit is an error."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli(argv)
    if status:
        raise SystemExit(f"invcount {' '.join(argv)} exited with {status}")
    return out.getvalue()


def alg_args(alg: str, cap: int) -> list[str]:
    """``--alg``, and ``--cap`` for the one algorithm that reads it."""
    return ["--alg", alg] + (["--cap", str(cap)] if alg == "capped" else [])


def cuttings(n: int, m: int, b: int) -> str:
    """One line per orientation and depth: a digest of corners and cells."""
    red, blue = reduce_inversions(generate(InstanceSpec(n, "duplicates")))
    lines = []
    for depth in (b, n // 8):
        for name, build, base in (("red", build_red_cutting, red),
                                  ("blue", build_blue_cutting, blue)):
            cut = build(base, depth, IoTally(EmParams(m, b)))
            sizes = [len(c) for c in cut.cells]
            h = hashlib.sha256(cut.outward.tobytes())
            h.update(np.concatenate([sizes, *cut.cells]).astype(np.int64).tobytes())
            lines.append(f"cutting n={n} orientation={name} depth={depth} "
                         f"corners={len(cut.outward)} cell_points={sum(sizes)} "
                         f"digest={h.hexdigest()[:16]}\n")
    return "".join(lines)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--grids", default=GRIDS,
                    help="comma-separated N:M:B triples")
    ap.add_argument("--seeds", type=int, default=2)
    args = ap.parse_args()

    grids = [tuple(map(int, g.split(":"))) for g in args.grids.split(",")]
    for n, m, b in grids:
        maxk = n * (n - 1) // 2
        kstars = ",".join(str(k) for k in (0, n, min(4 * n * m, maxk),
                                           n * n // 4, n * n // 16))
        common = ["--n", str(n), "--mem", str(m), "--block", str(b)]
        for alg in ALGORITHMS:
            sys.stdout.write(run(["bench", *alg_args(alg, n * b), *common,
                                  "--kstar", kstars, "--seeds", str(args.seeds)]))
        for shape in SHAPES:
            for alg in ALGORITHMS:
                sys.stdout.write(run(["count", *alg_args(alg, n * b), *common,
                                      "--shape", shape, "--k", str(n)]))
        sys.stdout.write(cuttings(n, m, b))
    n = max(g[0] for g in grids)
    for shape in SHAPES:
        for seed in range(args.seeds):
            sys.stdout.write(run(["estimate", "--n", str(n), "--shape", shape,
                                  "--k", str(n), "--seed", str(seed)]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
