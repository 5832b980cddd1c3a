"""Command-line surface: reports, exit codes, determinism."""

import csv
import io
import json

import pytest

from invcount import cli
from invcount.cli import main, read_values


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


class TestCount:
    def test_adaptive_reverse_1024(self, capsys):
        report = run_json(capsys, [
            "count", "--alg", "adaptive", "--shape", "reverse", "--n", "1024",
            "--mem", "2048", "--block", "32", "--seed", "1"])
        assert report["count"] == 523776
        assert report["failed"] is False
        assert report["rounds"] >= 1
        assert report["io_reads"] > 0
        assert "wall_ns" not in report

    def test_every_algorithm_agrees(self, capsys):
        counts = set()
        for alg in ("brute", "mergesort", "nonadaptive", "adaptive",
                    "adaptive-ram"):
            report = run_json(capsys, [
                "count", "--alg", alg, "--shape", "random-permutation",
                "--n", "300", "--seed", "5"])
            counts.add(report["count"])
        assert len(counts) == 1

    def test_capped_failure_is_reported_not_fatal(self, capsys):
        report = run_json(capsys, [
            "count", "--alg", "capped", "--cap", "256", "--shape", "reverse",
            "--n", "256"])
        assert report["count"] is None and report["failed"] is True

    def test_verify_flag(self, capsys):
        report = run_json(capsys, [
            "count", "--alg", "adaptive", "--shape", "duplicates",
            "--n", "500", "--verify"])
        assert report["verified"] is True

    def test_verify_checks_a_failed_round_against_the_cap(self, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(cli, "count_capped", lambda *args: None)
        code, out, err = run(capsys, [
            "count", "--alg", "capped", "--cap", "10", "--shape", "sorted",
            "--n", "100", "--verify"])
        assert code == 1 and out == "" and "VERIFY FAILED" in err

    def test_verify_accepts_a_failure_above_the_cap(self, capsys):
        report = run_json(capsys, [
            "count", "--alg", "capped", "--cap", "10", "--shape", "reverse",
            "--n", "100", "--verify"])
        assert report["failed"] is True and report["verified"] is True

    def test_verify_rejects_large_instances(self, capsys):
        code, _, err = run(capsys, [
            "count", "--alg", "mergesort", "--n", "4096", "--verify"])
        assert code == 2 and "--verify" in err

    def test_verify_rejects_large_instances_before_counting(self, capsys,
                                                            monkeypatch):
        def never(*args):
            raise AssertionError("counted an instance --verify rejects")

        monkeypatch.setattr(cli, "_run_counter", never)
        code, _, err = run(capsys, [
            "count", "--alg", "brute", "--n", "40000", "--verify"])
        assert code == 2 and "--verify" in err

    def test_timing_flag_adds_wall_clock(self, capsys):
        report = run_json(capsys, [
            "count", "--alg", "mergesort", "--n", "100", "--timing"])
        assert report["wall_ns"] > 0


class TestEstimate:
    def test_exact_small_zero(self, capsys):
        report = run_json(capsys, [
            "estimate", "--shape", "target-inversions", "--k", "0",
            "--n", "500", "--seed", "7"])
        assert report["regime"] == "exact_small"
        assert report["value"] == 0

    def test_timing_flag_adds_wall_clock(self, capsys):
        report = run_json(capsys, [
            "estimate", "--n", "100", "--seed", "1", "--timing"])
        assert report["wall_ns"] > 0

    def test_seed_changes_sampled_value(self, capsys):
        argv = ["estimate", "--shape", "target-inversions", "--k", "40960",
                "--n", "1024"]
        a = run_json(capsys, argv + ["--seed", "1"])
        b = run_json(capsys, argv + ["--seed", "2"])
        assert a["regime"] == "cell_sampling"
        assert a["value"] != b["value"]


class TestBench:
    def test_csv_header_and_monotone_reads(self, capsys):
        code, out, err = run(capsys, [
            "bench", "--alg", "adaptive", "--n", "4096", "--mem", "1024",
            "--block", "32", "--kstar", "0,1000000", "--seeds", "2"])
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and set(rows[0]) == {
            "n", "mem", "block", "kstar", "algorithm", "seed", "io_reads",
            "io_writes", "rounds", "wall_ns"}
        means = {}
        for row in rows:
            means.setdefault(int(row["kstar"]), []).append(int(row["io_reads"]))
            assert row["wall_ns"] == "0"
        ordered = [sum(v) / len(v) for _, v in sorted(means.items())]
        assert ordered == sorted(ordered)

    @pytest.mark.parametrize("grid", [["--n", "10", "--kstar", "0,1000"],
                                      ["--n", "-3", "--kstar", "0"],
                                      ["--n", "10", "--kstar", "0,x"],
                                      ["--n", "10", "--kstar", "0", "--seeds", "0"],
                                      ["--n", "10", "--kstar", "0", "--seeds", "-2"]])
    def test_bad_grid_prints_nothing(self, capsys, grid):
        code, out, err = run(capsys, ["bench", "--alg", "mergesort", *grid])
        assert code == 2 and out == "" and err.startswith("error:")


class TestInputs:
    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("3\n\n1\n2\n")
        report = run_json(capsys, [
            "count", "--alg", "brute", "--input", str(path)])
        assert report["count"] == 2
        assert report["instance"]["n"] == 3

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("2\n1\n"))
        report = run_json(capsys, [
            "count", "--alg", "mergesort", "--input", "-"])
        assert report["count"] == 1

    def test_parse_error_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\npotato\n")
        code, _, err = run(capsys, [
            "count", "--alg", "brute", "--input", str(path)])
        assert code == 3 and "line 2" in err

    def test_nonfinite_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("inf\n")
        code, _, _ = run(capsys, ["count", "--alg", "brute",
                                  "--input", str(path)])
        assert code == 3

    def test_read_values_helper(self):
        assert list(read_values(io.StringIO(" 1.5 \n\n-2\n"))) == [1.5, -2.0]

    def test_inexact_integer_rejected(self, capsys, monkeypatch):
        # 2**53 + 1 would round to 2**53 and hide the one inversion.
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("9007199254740993\n9007199254740992\n"))
        code, out, err = run(capsys, [
            "count", "--alg", "mergesort", "--input", "-"])
        assert code == 3 and out == "" and "line 1" in err

    @pytest.mark.parametrize("text", ["9007199254740993.0", "9.007199254740993e15",
                                      "1e23"])
    def test_inexact_integral_value_in_any_notation_rejected(
            self, capsys, monkeypatch, text):
        # 1e23 rounds to 99999999999999991611392, which would hide the
        # one inversion against that value.
        below = ("9007199254740992" if text.startswith("9")
                 else "99999999999999991611392")
        monkeypatch.setattr("sys.stdin",
                            io.StringIO(f"{below}\n{text}\n{below}\n"))
        code, out, err = run(capsys, [
            "count", "--alg", "mergesort", "--input", "-"])
        assert code == 3 and out == "" and "line 2" in err and text in err

    def test_exact_or_non_integral_literals_parse(self):
        text = "1e22\n9007199254740992.0\n0.1\n-0\n1_000\n"
        assert list(read_values(io.StringIO(text))) == [
            1e22, 9007199254740992.0, 0.1, 0.0, 1000.0]

    @pytest.mark.parametrize("text,merged", [
        ("0.10000000000000000001\n0.1\n", "0.1"),
        ("1e-400\n0\n", "0"),
        ("3\n0.3\n1\n0.299999999999999999999\n", "0.299999999999999999999")])
    def test_decimals_float64_merges_rejected(self, capsys, monkeypatch, text,
                                              merged):
        # float64 rounds the two decimals to one value, which would hide
        # the inversion between them.
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, err = run(capsys, [
            "count", "--alg", "brute", "--input", "-"])
        lines = text.splitlines()
        assert code == 3 and out == ""
        assert f"line {len(lines)}" in err and repr(merged) in err

    def test_equal_decimals_in_other_spellings_parse(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("0.1\n0.10\n1e-1\n-0\n0\n0.0\n"))
        report = run_json(capsys, [
            "count", "--alg", "brute", "--input", "-"])
        assert report["count"] == 9

    def test_exact_large_integer_accepted(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("9007199254740994\n9007199254740992\n"))
        report = run_json(capsys, [
            "count", "--alg", "mergesort", "--input", "-"])
        assert report["count"] == 1


class TestUsageErrors:
    def test_capped_requires_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--alg", "capped", "--n", "100"])
        assert exc.value.code == 2

    def test_bench_capped_requires_cap(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--alg", "capped", "--n", "100", "--kstar", "0"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "" and "--cap" in err

    @pytest.mark.parametrize("alg", [a for a in cli.ALGORITHMS if a != "capped"])
    @pytest.mark.parametrize("argv", [["count", "--n", "10"],
                                      ["bench", "--n", "10", "--kstar", "0"]])
    def test_cap_only_with_capped(self, capsys, alg, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--alg", alg, "--cap", "-5"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "" and "--cap" in err

    @pytest.mark.parametrize("argv", [["count", "--n", "10"], ["estimate", "--n", "10"],
                                      ["bench", "--n", "10", "--kstar", "0"]])
    def test_negative_seed_names_the_flag(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "-3"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "argument --seed: must be non-negative" in err

    def test_target_shape_requires_k(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--shape", "target-inversions", "--n", "100"])
        assert exc.value.code == 2

    def test_unknown_algorithm(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--alg", "quantum"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [["--mem", "64"], ["--block", "8"],
                                      ["--cap", "5"], ["--alg", "brute"]])
    def test_estimate_rejects_count_options(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--n", "10"] + flag)
        assert exc.value.code == 2

    def test_dup_frac_out_of_range_is_usage_error(self, capsys):
        code, out, err = run(capsys, [
            "count", "--shape", "duplicates", "--dup-frac", "7", "--n", "10"])
        assert code == 2 and out == "" and "dup_fraction" in err

    def test_infeasible_target_is_usage_error(self, capsys):
        code, _, err = run(capsys, [
            "count", "--shape", "target-inversions", "--n", "10",
            "--k", "100"])
        assert code == 2 and "inversions" in err


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        argv = ["count", "--alg", "adaptive", "--shape", "random-permutation",
                "--n", "600", "--seed", "3"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_estimate_byte_identical(self, capsys):
        argv = ["estimate", "--shape", "target-inversions", "--k", "40960",
                "--n", "1024", "--seed", "5"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2
