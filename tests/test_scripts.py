"""The experiment scripts run end to end on small inputs."""

import json
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
    assert lines[1].split() == ["kstar", "mean_io", "min_io", "max_io",
                                "rounds", "vs_zero", "ram_s", "merge_s"]
    assert [int(row.split()[0]) for row in lines[2:]] == [0, 512, 65536]
    # The median seconds of count_adaptive_ram and mergesort_count.
    assert all(float(s) >= 0 for row in lines[2:] for s in row.split()[6:])


def test_adaptivity_sweep_refuses_a_nonzero_baseline():
    # vs_zero divides by the first target's mean I/O.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "adaptivity_sweep.py"),
         "--n", "512", "--kstar", "512,0", "--seeds", "1"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--kstar must start at 0" in proc.stderr


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


def test_bench_pairs(tmp_path):
    out = tmp_path / "pairs.json"
    run_script("bench_pairs.py", "--parent", str(ROOT), "--change", str(ROOT),
               "--pairs", "2", "--seconds", "0.3", "--workload",
               "estimate-sparse", "--out", str(out))
    bench = json.loads(out.read_text())
    assert bench["run_order"] == [["parent", "change"], ["change", "parent"]]
    assert [len(bench[side]["runs"]) for side in ("parent", "change")] == [2, 2]
    assert all(run["result"]["estimate-sparse"]["correct"]
               for side in ("parent", "change") for run in bench[side]["runs"])
    bounds = {m["name"]: m["bound"] for m in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    summary = bench["summary"]
    assert sorted(summary) == sorted(f"estimate-sparse/{m}" for m in bounds)
    for key, s in summary.items():
        assert s["bound"] == bounds[key.split("/")[1]] and s["pairs"] == 2
        assert s["pairs_change_lower"] + s["pairs_change_higher"] <= 2
        assert s["parent_quartiles"][0] <= s["parent_median"] <= s["parent_quartiles"][1]
    io = summary["estimate-sparse/io_blocks"]
    assert io["parent_median"] == io["change_median"]
    assert io["pairs_change_lower"] == io["pairs_change_higher"] == 0
    calls = bench["failed"]["estimate-sparse"]
    for side in ("parent", "change"):
        runs = bench[side]["runs"]
        assert calls[side] == {
            key: sum(run["result"]["estimate-sparse"][key] for run in runs)
            for key in ("failed", "attempted")}
        assert calls[side]["failed"] == 0 < calls[side]["attempted"]


def fake_checkout(path, correct, failed, wall_s=1.0):
    """A checkout whose ``benchmark/run.py`` prints one result per run,
    reading ``wall_s`` in turn when it is a list."""
    (path / "benchmark").mkdir(parents=True)
    (path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    walls = wall_s if isinstance(wall_s, list) else [wall_s]
    result = {"correct": correct, "attempted": 10, "failed": failed,
              "metrics": {"wall_s": {"value": None, "unit": "s"}}}
    (path / "benchmark" / "run.py").write_text(
        "import json, pathlib\n"
        "runs = pathlib.Path('runs')\n"
        "i = len(runs.read_text()) if runs.exists() else 0\n"
        "runs.write_text('.' * (i + 1))\n"
        f"result = {result!r}\n"
        f"result['metrics']['wall_s']['value'] = {walls!r}[i % {len(walls)}]\n"
        "print('provenance ' + json.dumps({'workload': 'w', 'commit': 'c'}))\n"
        "print(json.dumps(result))\n")
    return path


def run_pairs(tmp_path, change, parent_wall_s=1.0, pairs=2):
    parent = fake_checkout(tmp_path / "parent", True, 1, parent_wall_s)
    out = tmp_path / "pairs.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"),
         "--parent", str(parent), "--change", str(change), "--pairs", str(pairs),
         "--workload", "w", "--out", str(out)],
        capture_output=True, text=True, timeout=60)
    return proc, out


def test_bench_pairs_refuses_incorrect_runs(tmp_path):
    proc, out = run_pairs(tmp_path, fake_checkout(tmp_path / "change", False, 0))
    assert proc.returncode != 0 and "w not correct" in proc.stderr
    assert not out.exists()


def test_bench_pairs_flags_more_failed_calls(tmp_path):
    proc, out = run_pairs(tmp_path, fake_checkout(tmp_path / "change", True, 2))
    assert proc.returncode == 1 and "larger share of calls on w" in proc.stderr
    assert json.loads(out.read_text())["failed"]["w"] == {
        "parent": {"failed": 2, "attempted": 20},
        "change": {"failed": 4, "attempted": 20}}
    proc, out = run_pairs(tmp_path / "same",
                          fake_checkout(tmp_path / "same" / "change", True, 1))
    assert proc.returncode == 0, proc.stderr


def test_bench_pairs_flags_a_metric_past_its_bound(tmp_path):
    bound = next(m["bound"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"] if m["name"] == "wall_s")
    for wall_s, over in [(1 + bound / 2, False), (1 + 2 * bound, True), (0.5, False)]:
        base = tmp_path / str(wall_s)
        proc, out = run_pairs(base, fake_checkout(base / "change", True, 1, wall_s))
        assert proc.returncode == 0, proc.stderr
        s = json.loads(out.read_text())["summary"]["w/wall_s"]
        assert s["bound"] == bound and s["over_bound"] is over
        assert s["unresolved"] is False
        line = next(l for l in proc.stdout.splitlines() if l.startswith("w/wall_s"))
        assert line.endswith("OVER BOUND") is over


def test_bench_pairs_marks_a_spread_parent_unresolved(tmp_path):
    # The parent reads 1 and 2 in turn: an interquartile range of 2/3 of
    # its median, past wall_s's bound, so only a change whose every run
    # reads below every parent run resolves.
    for name, wall_s, unresolved in [("same", [1.0, 2.0], True),
                                     ("near", [0.9, 1.1], True),
                                     ("apart", [0.5, 0.9], False)]:
        base = tmp_path / name
        proc, out = run_pairs(base, fake_checkout(base / "change", True, 1, wall_s),
                              parent_wall_s=[1.0, 2.0], pairs=4)
        assert proc.returncode == 0, proc.stderr
        s = json.loads(out.read_text())["summary"]["w/wall_s"]
        assert s["parent_quartiles"] == [1.0, 2.0]
        assert s["unresolved"] is unresolved and s["over_bound"] is False
        line = next(l for l in proc.stdout.splitlines() if l.startswith("w/wall_s"))
        assert line.endswith("UNRESOLVED") is unresolved
