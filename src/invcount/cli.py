"""Command-line surface: counting, estimation, and benchmark sweeps.

Reports are single-line JSON objects; benchmarks emit RFC-4180 CSV with a
header row.  Exit status: 0 on success, 2 on usage errors, 3 on input
parse errors.  With identical flags and seed, output is byte-identical
(wall-clock timing is only included when requested with --timing).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from decimal import Decimal, InvalidOperation

import numpy as np

from . import instances
from .approx import estimate_inversions
from .core import brute_force_count, mergesort_count, reduce_inversions
from .counting import (AdaptiveCount, count_adaptive, count_adaptive_ram,
                       count_capped, count_nonadaptive)
from .iomodel import EmParams, IoTally

EXIT_USAGE = 2
EXIT_PARSE = 3

ALGORITHMS = ("brute", "mergesort", "nonadaptive", "capped", "adaptive",
              "adaptive-ram")

class InputParseError(Exception):
    def __init__(self, line_no: int, text: str, why: str = ""):
        super().__init__(f"line {line_no}: cannot parse value {text!r}{why}")


def read_values(stream) -> np.ndarray:
    """One decimal value per line; blank lines ignored.

    float64 keeps the order of distinct decimals but may round two to one
    value, which would hide their inversion.  So a line is refused when its
    float64 equals an earlier line's and the decimals differ, and so is an
    integral value, in any notation, that float64 rounds.
    """
    values, seen = [], {}
    for line_no, line in enumerate(stream, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            v = float(text)
            d = Decimal(text)
            exact = np.isfinite(v) and (d != d.to_integral_value() or d == Decimal(v))
        except (ValueError, InvalidOperation):
            exact = False
        if not exact:
            raise InputParseError(line_no, text)
        first = seen.setdefault(v, d)
        if first != d:
            raise InputParseError(line_no, text, f": float64 rounds it as it rounds"
                                  f" {first}, a different value on an earlier line")
        values.append(v)
    return np.array(values, dtype=np.float64)


def _load_instance(args) -> tuple[np.ndarray, dict]:
    if args.input:
        if args.input == "-":
            values = read_values(sys.stdin)
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                values = read_values(fh)
        meta = {"source": args.input, "n": len(values)}
    else:
        spec = instances.InstanceSpec(
            n=args.n, shape=args.shape.replace("-", "_"), seed=args.seed,
            target=args.k, dup_fraction=args.dup_frac)
        values = instances.generate(spec)
        meta = {"shape": args.shape, "n": args.n}
    digest = hashlib.sha256(values.tobytes()).hexdigest()[:16]
    meta["digest"] = digest
    return values, meta


def _run_counter(alg: str, values: np.ndarray, params: EmParams, cap):
    """Returns (count, rounds, tally)."""
    tally = IoTally(params)
    red, blue = reduce_inversions(values)
    res = {
        "brute": lambda: brute_force_count(red, blue),
        "mergesort": lambda: mergesort_count(values),
        "nonadaptive": lambda: count_nonadaptive(red, blue, params, tally),
        "capped": lambda: count_capped(red, blue, cap, params, tally),
        "adaptive": lambda: count_adaptive(red, blue, params, tally),
        "adaptive-ram": lambda: count_adaptive_ram(red, blue),
    }[alg]()
    if isinstance(res, AdaptiveCount):
        return res.count, res.rounds, tally
    return res, 0, tally


def _timed(fn, *args):
    """``fn(*args)`` and its wall time in nanoseconds."""
    started = time.perf_counter_ns()
    out = fn(*args)
    return out, time.perf_counter_ns() - started


def _emit(report: dict) -> None:
    print(json.dumps(report, sort_keys=True, separators=(",", ":")))


def cmd_count(args) -> int:
    values, meta = _load_instance(args)
    if args.verify and len(values) > 2000:
        print("--verify requires n <= 2000", file=sys.stderr)
        return EXIT_USAGE
    params = EmParams(args.mem, args.block)
    (count, rounds, tally), elapsed = _timed(
        _run_counter, args.alg, values, params, args.cap)
    report = {
        "command": "count",
        "algorithm": args.alg,
        "instance": meta,
        "mem": args.mem,
        "block": args.block,
        "seed": args.seed,
        "count": count if count is None else int(count),
        "failed": count is None,
        "rounds": rounds,
        "io_reads": tally.reads,
        "io_writes": tally.writes,
    }
    if args.timing:
        report["wall_ns"] = elapsed
    if args.verify:
        expected = brute_force_count(*reduce_inversions(values))
        # A failed capped round claims only that the truth exceeds --cap.
        holds = expected > args.cap if count is None else count == expected
        if not holds:
            print(f"VERIFY FAILED: got {count}, oracle {expected}", file=sys.stderr)
            return 1
        report["verified"] = True
    _emit(report)
    return 0


def cmd_estimate(args) -> int:
    values, meta = _load_instance(args)
    est, elapsed = _timed(estimate_inversions, values, args.seed)
    report = {
        "command": "estimate",
        "instance": meta,
        "seed": args.seed,
        "value": est.value,
        "regime": est.regime,
        "hits": est.hits,
        "sample_space": est.sample_space,
    }
    if args.timing:
        report["wall_ns"] = elapsed
    _emit(report)
    return 0


def cmd_bench(args) -> int:
    if args.seeds < 1:
        raise ValueError("--seeds must be at least 1")
    params = EmParams(args.mem, args.block)
    kstars = [int(s) for s in args.kstar.split(",")]
    # The CSV is written once the whole grid has run, so a usage error
    # leaves stdout empty.
    rows = []
    for kstar in kstars:
        for s in range(args.seeds):
            seed = args.seed + s
            spec = instances.InstanceSpec(
                n=args.n, shape="target_inversions", seed=seed, target=kstar)
            values = instances.generate(spec)
            (count, rounds, tally), elapsed = _timed(
                _run_counter, args.alg, values, params, args.cap)
            rows.append([args.n, args.mem, args.block, kstar, args.alg,
                         seed, tally.reads, tally.writes, rounds,
                         elapsed if args.timing else 0])
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["n", "mem", "block", "kstar", "algorithm", "seed",
                     "io_reads", "io_writes", "rounds", "wall_ns"])
    writer.writerows(rows)
    return 0


def _seed(text: str) -> int:
    """A ``--seed`` value: numpy's generators take no negative seed."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, not {seed}")
    return seed


def _add_common(p):
    p.add_argument("--n", type=int, default=1000, help="instance length")
    p.add_argument("--shape", default="random-permutation",
                   choices=sorted(s.replace("_", "-") for s in instances.SHAPES))
    p.add_argument("--k", type=int, default=None,
                   help="target inversion count (target-inversions shape)")
    p.add_argument("--dup-frac", type=float, default=0.3,
                   help="duplicate fraction (duplicates shape)")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--input", help="read values from FILE ('-' for stdin)")
    p.add_argument("--timing", action="store_true",
                   help="include wall time in the report (breaks byte-determinism)")


def _add_counter_options(p):
    p.add_argument("--alg", choices=ALGORITHMS, default="adaptive")
    p.add_argument("--mem", type=int, default=2048,
                   help="memory size M in words")
    p.add_argument("--block", type=int, default=32,
                   help="block size B in words")
    p.add_argument("--cap", type=int, help="cap K for the capped algorithm")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invcount",
        description="Exact and approximate inversion counting with an I/O cost model.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_count = sub.add_parser("count", help="run an exact counter")
    _add_common(p_count)
    _add_counter_options(p_count)
    p_count.add_argument("--verify", action="store_true",
                         help="cross-check against the brute-force oracle")
    p_count.set_defaults(func=cmd_count)

    p_est = sub.add_parser("estimate", help="run the randomized estimator")
    _add_common(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_bench = sub.add_parser("bench", help="sweep a benchmark grid, emit CSV")
    _add_counter_options(p_bench)
    p_bench.add_argument("--n", type=int, required=True)
    p_bench.add_argument("--kstar", required=True,
                         help="comma-separated target inversion counts")
    p_bench.add_argument("--seeds", type=int, default=1)
    p_bench.add_argument("--seed", type=_seed, default=0)
    p_bench.add_argument("--timing", action="store_true")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (getattr(args, "alg", None) == "capped") != \
            (getattr(args, "cap", None) is not None):
        parser.error("--cap must be given with --alg capped and only with it")
    if getattr(args, "shape", None) == "target-inversions" and \
            args.k is None and not args.input:
        parser.error("--shape target-inversions requires --k")
    try:
        return args.func(args)
    except InputParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
