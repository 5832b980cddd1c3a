#!/usr/bin/env python3
"""Run the benchmark in alternating pairs of a parent and a change checkout.

Each pair runs ``benchmark/run.py`` once in each checkout, one run at a
time, the parent first in even pairs and the change first in odd ones.
The JSON written to ``--out`` holds the settings, each side's commit and
runs (the provenance lines and the last line of every run), the
``run_order``, per ``workload/metric`` a ``summary``: each side's
median and quartiles, the relative change of the medians, the bound from
the change's ``BENCHMARK.json``, ``over_bound`` when the change's median
is worse than the parent's by more than that bound (its line printed
with ``OVER BOUND``), ``unresolved`` when the parent's interquartile
range exceeds the bound times its median and not every change run reads
better than every parent run (its line printed with ``UNRESOLVED``), and
the pairs in which the change read lower and higher, and per workload
each side's ``failed`` and ``attempted`` calls over all its runs.

A run whose workload reports ``correct: false`` stops the script before
anything is written.  When the change fails a larger share of its calls
than the parent on some workload, the file is written and the script
exits with status 1.

Example:
    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --pairs 10 --seconds 20 --out BENCH_21.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, args) -> dict:
    """One ``benchmark/run.py`` run in ``checkout``: its provenance and result."""
    cmd = [sys.executable, str(checkout / "benchmark" / "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: run.py exited with status"
                         f" {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if args.workload != "all":
        result = {args.workload: result}
    wrong = [name for name, res in result.items() if not res["correct"]]
    if wrong:
        raise SystemExit(f"{checkout}: {', '.join(wrong)} not correct\n"
                         f"{proc.stderr}")
    provenance = {}
    for line in lines:
        if line.startswith("provenance "):
            prov = json.loads(line[len("provenance "):])
            provenance[prov["workload"]] = prov
    return {"provenance": provenance, "result": result}


def quartiles(values: list[float]) -> list[float]:
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def summarize(runs: dict, spec: dict) -> dict:
    """Per ``workload/metric``: medians, quartiles, paired moves,
    whether the move is worse than the metric's bound in ``spec``, the
    ``end_to_end`` entries of ``BENCHMARK.json`` by name, and whether the
    parent's own spread is too wide to tell a move within that bound."""
    summary = {}
    for workload, res in runs["parent"][0]["result"].items():
        for metric in res["metrics"]:
            parent, change = ([r["result"][workload]["metrics"][metric]["value"]
                               for r in runs[side]] for side in SIDES)
            pm, cm = statistics.median(parent), statistics.median(change)
            move = cm / pm - 1 if pm else 0.0
            rule = spec.get(metric, {})
            bound = rule.get("bound")
            sign = -1 if rule.get("better") == "higher" else 1
            worse = sign * move
            pq = quartiles(parent)
            spread = (pq[1] - pq[0]) / pm if pm else 0.0
            apart = max(sign * c for c in change) < min(sign * p for p in parent)
            summary[f"{workload}/{metric}"] = {
                "parent_median": pm,
                "parent_quartiles": pq,
                "change_median": cm,
                "change_quartiles": quartiles(change),
                "change_vs_parent": move,
                "bound": bound,
                "over_bound": bound is not None and worse > bound,
                "unresolved": bound is not None and spread > bound and not apart,
                "pairs_change_lower": sum(c < p for p, c in zip(parent, change)),
                "pairs_change_higher": sum(c > p for p, c in zip(parent, change)),
                "pairs": len(parent),
            }
    return summary


def failures(runs: dict) -> dict:
    """Per workload: each side's failed and attempted calls over its runs."""
    return {workload: {side: {key: sum(r["result"][workload][key] for r in runs[side])
                              for key in ("failed", "attempted")}
                       for side in SIDES}
            for workload in runs["parent"][0]["result"]}


def _share(calls: dict) -> float:
    return calls["failed"] / calls["attempted"] if calls["attempted"] else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True,
                    help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in SIDES}
    run_order = []
    for i in range(args.pairs):
        order = list(SIDES if i % 2 == 0 else reversed(SIDES))
        run_order.append(order)
        for side in order:
            runs[side].append(run_once(checkouts[side], args))
        print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)

    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    out = {
        "settings": {"workload": args.workload, "seed": args.seed,
                     "seconds": args.seconds, "pairs": args.pairs},
        **{side: {"commit": next(iter(runs[side][0]["provenance"].values()))["commit"],
                  "runs": runs[side]} for side in SIDES},
        "run_order": run_order,
        "summary": summarize(runs, metrics),
        "failed": failures(runs),
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for key, s in out["summary"].items():
        print(f"{key:28s} {s['parent_median']:.4g} -> {s['change_median']:.4g}"
              f" ({s['change_vs_parent']:+.1%}, lower in"
              f" {s['pairs_change_lower']}/{s['pairs']})"
              + ("  OVER BOUND" if s["over_bound"] else "")
              + ("  UNRESOLVED" if s["unresolved"] else ""))
    worse = [workload for workload, calls in out["failed"].items()
             if _share(calls["change"]) > _share(calls["parent"])]
    for workload, calls in out["failed"].items():
        print(f"{workload + '/failed':28s} " + " -> ".join(
            f"{calls[side]['failed']}/{calls[side]['attempted']}" for side in SIDES))
    if worse:
        print(f"the change fails a larger share of calls on {', '.join(worse)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
