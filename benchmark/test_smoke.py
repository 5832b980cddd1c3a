"""Smoke test of the benchmark harness and tracer at small N.

    python3 -m pytest benchmark/test_smoke.py -q

Every count-type result must repeat exactly across runs of one seed and
between traced and untraced calls, the per-layer I/O must add up to the
end-to-end tally, and the tracer must leave invcount as it found it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import invcount  # noqa: E402
from invcount import approx, cells, core, counting, cuttings  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_METRICS, VARYING  # noqa: E402

SMALL_N = {"count-sparse": 2**11, "count-dense": 2**11,
           "estimate-sparse": 2**10, "estimate-dense": 2**12}

PATCHED = (invcount, approx, cells, counting, core.PointSet,
           cuttings.StaircaseCutting, approx.PairSampler)


def _snapshot() -> list[dict]:
    return [dict(vars(owner)) for owner in PATCHED]


@pytest.mark.parametrize("name", harness.NAMES)
def test_counts_repeat_and_match_between_traced_and_untraced(name):
    w = harness.workload(name, SMALL_N[name])
    before = _snapshot()
    timed = [harness.run_timed(w, 3, seconds=0, import_s=0.0) for _ in range(2)]
    # Long enough for several traced calls, whose exact counts must agree.
    traced = [harness.run_traced(w, 3, seconds=1.0) for _ in range(2)]
    assert _snapshot() == before, "a wrapper was left installed"
    assert all(calls.traced.count(True) >= 2 for calls, _, _ in traced)

    runs = [calls for calls, _ in timed] + [calls for calls, _, _ in traced]
    assert all(calls.attempted and not calls.errors for calls in runs)
    assert len({fp for calls in runs for fp in calls.fingerprints}) == 1

    io_blocks = {m["io_blocks"] for _, m in timed}
    assert len(io_blocks) == 1 and io_blocks.pop() > 0
    layers = [m for _, m, _ in traced]
    counts = [{k: m[k] for k in LAYER_METRICS if k not in VARYING} for m in layers]
    assert counts[0] == counts[1]
    m = layers[0]
    io = timed[0][1]["io_blocks"]
    assert m["iomodel.reads"] + m["iomodel.writes"] == io
    assert m["cells.io_blocks"] + m["counting.distribute.io_blocks"] == io
    assert m["trace.overhead"] > 0


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    layer = {**LAYER_METRICS, **harness.RUN_METRICS}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layer


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", "count-sparse", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
