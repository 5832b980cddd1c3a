"""The experiment scripts run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_adaptivity_sweep():
    lines = run_script("adaptivity_sweep.py", "--n", "512", "--mem", "256",
                       "--block", "16", "--kstar", "0,512,65536", "--seeds", "2")
    # A parameter line, the column header, then one row per target.
    assert len(lines) == 5
    assert [int(row.split()[0]) for row in lines[2:]] == [0, 512, 65536]


def test_estimator_coverage():
    lines = run_script("estimator_coverage.py", "--n", "256", "--seeds", "5")
    assert [row.split()[0] for row in lines] == [
        "sorted", "few-inversions", "mid-density", "random-permutation",
        "reverse"]


def test_behaviour_snapshot_is_deterministic():
    args = ("--grids", "60:64:2,40:32:1", "--seeds", "1")
    first = run_script("behaviour_snapshot.py", *args)
    # Per grid: a header and five rows for each of six algorithms, one
    # count report per shape and algorithm, and one cutting digest per
    # orientation and depth; then one estimate report per shape.
    assert len(first) == 2 * (6 * 6 + 6 * 6 + 2 * 2) + 6
    assert run_script("behaviour_snapshot.py", *args) == first
