"""Benchmark runner for invcount: one workload per process, one thread.

    python3 benchmark/run.py --workload count-sparse --seed 0 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all

``--trace 0`` measures the end-to-end metrics with tracing off: median
wall seconds per top-level call, set-up seconds, modeled I/O blocks per
call and peak RSS.  ``--trace 1`` alternates untraced and traced calls and
reports per-layer metrics and the tracing overhead; its spans are written
to ``benchmark/out/`` when the run ends.  Either way every call's result
is checked, human-readable lines come first, and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in
its own process and prints their lines.

The program is imported from ``src/`` next to this directory; without it
the runner exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Thread-pool sizes of the numeric libraries, pinned before numpy loads.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: End-to-end metrics, name -> unit.
UNITS = {"wall_s": "s", "setup_s": "s", "io_blocks": "blocks", "peak_rss_mb": "MB"}


def _git_commit() -> str:
    """HEAD of the checkout's git repository, read from its files."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def provenance(args) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": _git_commit(),
        "threads": {k: os.environ[k] for k in THREAD_ENV},
    }


def _run_all(args, names) -> int:
    """Each workload in a child process of its own, one after the other."""
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def _summary(w, calls, metrics, import_s, setup_repeats) -> list[str]:
    share = calls.failed / calls.attempted
    return [
        f"{w.name}: N={w.n} k*={w.kstar} ({w.kind}, expected {w.regime})",
        f"  wall_s       {metrics['wall_s']:.4f} s       median of {calls.attempted} calls,"
        f" {w.n / metrics['wall_s']:,.0f} elements/s",
        f"  setup_s      {metrics['setup_s']:.4f} s       import {import_s:.4f} s"
        f" + median of {setup_repeats} instance builds",
        f"  io_blocks    {metrics['io_blocks']} blocks  modeled reads+writes per call",
        f"  failed_share {calls.failed}/{calls.attempted} = {share:.3f}",
        f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB",
        "  call seconds " + " ".join(f"{t:.3f}" for t in calls.seconds),
    ]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    for key in THREAD_ENV:
        os.environ[key] = "1"
    if not (SRC / "invcount" / "__init__.py").is_file():
        print(f"invcount sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import invcount  # noqa: F401  (timed: part of set-up)
    import_s = time.perf_counter() - t0

    import harness

    if args.workload == "all":
        return _run_all(args, harness.NAMES)
    if args.workload not in harness.NAMES:
        p.error(f"unknown workload {args.workload!r};"
                f" choose from {', '.join(harness.NAMES)} or all")
    w = harness.workload(args.workload)
    prov = provenance(args)
    print("provenance " + json.dumps(prov), flush=True)

    if args.trace:
        from tracer import LAYER_METRICS
        calls, metrics, tracer = harness.run_traced(w, args.seed, args.seconds)
        units = {k: u for k, (u, _) in {**LAYER_METRICS, **harness.RUN_METRICS}.items()}
        print(f"{w.name}: traced {calls.traced.count(True)} of {calls.attempted} calls,"
              f" overhead {metrics['trace.overhead']:.3f}x")
        for name, value in metrics.items():
            print(f"  {name:32s} {value} {units[name]}")
        out = HERE / "out" / f"trace-{w.name}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({
            "provenance": prov,
            "span_fields": ["id", "parent", "name", "start_ns", "end_ns", "info"],
            "spans": tracer.spans,
        }))
    else:
        calls, metrics = harness.run_timed(w, args.seed, args.seconds, import_s)
        units = UNITS
        print("\n".join(_summary(w, calls, metrics, import_s, harness.SETUP_REPEATS)))
    for error in calls.errors:
        print(f"FAILED: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not calls.errors,
        "attempted": calls.attempted,
        "failed": calls.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
