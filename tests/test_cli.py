"""Command surface: schemas, determinism, exit codes."""

import argparse
import codecs
import csv
import hashlib
import inspect
import json
import math
import os
import resource
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dc_optlab
from dc_optlab import DCParams, GridSpec, SyntheticSpec, TrainConfig, cli, run_sweep
from dc_optlab.cli import main
from dc_optlab.verification import gradient_suite, run_suites


def run(args):
    return main([str(a) for a in args])


def read_rows(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader if row]


class TestGenData:
    def test_writes_csv_with_split(self, tmp_path):
        out, tr, te = tmp_path / "d.csv", tmp_path / "tr.csv", tmp_path / "te.csv"
        code = run(["gen-data", "--out", out, "--m", 20, "--seed", 3,
                    "--train-out", tr, "--test-out", te])
        assert code == 0
        header, rows = read_rows(out)
        assert header == ["x1", "x2", "y"]
        assert len(rows) == 20
        assert len(read_rows(tr)[1]) == 16
        assert len(read_rows(te)[1]) == 4

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["gen-data", "--out", a, "--seed", 7])
        run(["gen-data", "--out", b, "--seed", 7])
        assert a.read_bytes() == b.read_bytes()

    def test_half_split_flags_rejected(self, tmp_path):
        code = run(["gen-data", "--out", tmp_path / "d.csv", "--train-out", tmp_path / "t.csv"])
        assert code == 2

    # past numpy's largest float64 array; SyntheticSpec rejects these before any allocation
    @pytest.mark.parametrize("command, flags", [
        ("gen-data", ["--m", 10**20]),
        ("gen-data", ["--m", 2**62, "--n", 2]),
        ("gen-data", ["--m", 2**61 - 1]),
        ("gen-data", ["--n", 10**20]),
        ("train", ["--m", 10**20]),
        ("sweep", ["--m", 10**20]),
    ])
    def test_oversized_dataset_is_usage_error(self, command, flags, tmp_path, capsys):
        out = tmp_path / "out"
        base = {"gen-data": ["--out", out], "train": ["--trace-out", out],
                "sweep": ["--json-out", out, "--profile", "desk"]}[command]
        assert run([command, *base, *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: m * n must be <= ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_dataset_beyond_memory_is_usage_error(self, tmp_path, capsys):
        # under the m * n bound, but 4 EiB: the allocation request itself fails
        out = tmp_path / "out"
        assert run(["gen-data", "--out", out, "--m", 2**60 - 1, "--n", 1]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("half", ["--train-out", "--test-out"])
    def test_half_split_flags_write_nothing(self, half, tmp_path, capsys):
        assert run(["gen-data", "--out", tmp_path / "a.csv", half, tmp_path / "t.csv"]) == 2
        assert capsys.readouterr().err == (
            "error: --train-out and --test-out must be given together\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestCurves:
    def test_no_dc_prob_anchor_at_difficulty(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["curves", "--out", out, "--preset", "no-dc",
                    "--t-min", -6, "--t-max", 6, "--samples", 241]) == 0
        header, rows = read_rows(out)
        assert header == ["config", "t", "prob", "loss", "derivative", "f"]
        at_zero = [r for r in rows if float(r[1]) == 0.0]
        assert len(at_zero) == 1
        assert float(at_zero[0][2]) == pytest.approx(0.5, rel=1e-12)

    def test_derivative_column_matches_column_differences(self, tmp_path):
        out = tmp_path / "c.csv"
        run(["curves", "--out", out, "--preset", "no-dc",
             "--t-min", -4, "--t-max", 4, "--samples", 801])
        _, rows = read_rows(out)
        t = [float(r[1]) for r in rows]
        loss = [float(r[3]) for r in rows]
        deriv = [float(r[4]) for r in rows]
        for i in range(1, len(rows) - 1):
            fd = (loss[i + 1] - loss[i - 1]) / (t[i + 1] - t[i - 1])
            assert abs(deriv[i] - fd) <= 1e-4 * max(1.0, abs(deriv[i]))

    def test_all_presets_emitted(self, tmp_path):
        out = tmp_path / "c.csv"
        run(["curves", "--out", out, "--preset", "all", "--samples", 11])
        _, rows = read_rows(out)
        assert {r[0] for r in rows} == {"no-dc", "growing-dc", "decaying-dc", "grow-decay-dc"}
        assert len(rows) == 4 * 11

    def test_explicit_params(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["curves", "--out", out, "--params", "2,1,1,0.7", "--samples", 5]) == 0
        _, rows = read_rows(out)
        assert rows[0][0] == "custom0"

    def test_single_sample_rejected(self, tmp_path):
        assert run(["curves", "--out", tmp_path / "c.csv", "--samples", 1]) == 2

    def test_malformed_params_rejected(self, tmp_path):
        assert run(["curves", "--out", tmp_path / "c.csv", "--params", "1,2,3"]) == 2

    def test_span_beyond_float_range_rejected(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert run(["curves", "--out", out, "--t-min=-1e308", "--t-max=1e308"]) == 2
        assert capsys.readouterr().err == "error: --t-max - --t-min must be finite\n"
        assert not out.exists()


class TestRates:
    def test_dc_rate_below_default(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run(["rates", "--out", out, "--z-min", 3, "--z-max", 10,
                    "--samples", 50]) == 0
        header, rows = read_rows(out)
        assert header == ["z", "g_dc", "g_default", "lower", "upper", "z_min"]
        assert len(rows) == 50
        for row in rows:
            assert float(row[1]) < float(row[2])
            assert float(row[5]) == pytest.approx(1.0)

    def test_difficulty_shifts_by_exactly_d(self, tmp_path):
        a, b = tmp_path / "d0.csv", tmp_path / "d5.csv"
        run(["rates", "--out", a, "--d", 0, "--z-min", 3, "--z-max", 8, "--samples", 21])
        run(["rates", "--out", b, "--d", 5, "--z-min", 3, "--z-max", 8, "--samples", 21])
        _, ra = read_rows(a)
        _, rb = read_rows(b)
        for r0, r5 in zip(ra, rb):
            assert float(r5[1]) == float(r0[1]) + 5.0

    def test_whole_range_below_onset_rejected(self, tmp_path):
        assert run(["rates", "--out", tmp_path / "r.csv", "--z-min", 0.1,
                    "--z-max", 0.9, "--samples", 9]) == 2

    def test_infinite_z_rejected(self, tmp_path, capsys):
        for bound in ("--z-max=inf", "--z-min=-inf"):
            assert run(["rates", "--out", tmp_path / "r.csv", bound]) == 2
            assert capsys.readouterr().err == "error: need finite --z-min and --z-max\n"

    def test_span_beyond_float_range_rejected(self, tmp_path, capsys):
        for lo, hi in ((-1e308, 1e308), (1e308, -1e308)):
            assert run(["rates", "--out", tmp_path / "r.csv", f"--z-min={lo}", f"--z-max={hi}"]) == 2
            assert capsys.readouterr().err == "error: --z-max - --z-min must be finite\n"

    def test_z_near_the_float_limit_has_finite_bounds(self, tmp_path):
        # z * ln z overflows above about 1e305; the bracket must not
        out = tmp_path / "r.csv"
        assert run(["rates", "--out", out, "--z-max=1e308"]) == 0
        header, rows = read_rows(out)
        upper = [float(r[header.index("upper")]) for r in rows]
        assert float(rows[-1][0]) == 1e308
        assert all(math.isfinite(v) for v in upper[1:])  # NaN at z <= e only

    def test_rate_beyond_float_range_rejected(self, tmp_path, capsys):
        # at r < 1 the rate (and the bracket) of z near 1e308 overflows
        out = tmp_path / "r.csv"
        assert run(["rates", "--out", out, "--r", 0.5, "--z-max=1e308"]) == 2
        assert capsys.readouterr().err == (
            "error: the rate at z = 8.994974874371859e+307 overflows float64: "
            "set --z-max below it\n")
        assert not out.exists()

    def test_partial_range_keeps_valid_rows(self, tmp_path):
        out = tmp_path / "r.csv"
        run(["rates", "--out", out, "--z-min", 0.5, "--z-max", 3.0, "--samples", 26])
        _, rows = read_rows(out)
        assert 0 < len(rows) < 26
        assert all(float(r[0]) >= 1.0 for r in rows)


EDGE_VALUES = ["nan", "inf", "-inf", "1e308", "-1e308", "0", "-0.0", "5e-324", "abc"]


class TestNumericFlagFuzz:
    """Seeded fuzz of the numeric flags of each command over edge values:
    every input ends in a documented exit code, never a traceback or a
    numpy warning."""

    @pytest.mark.parametrize("command, flags", [
        ("rates", ["--r", "--c", "--d", "--p-d", "--z-min", "--z-max", "--samples"]),
        ("curves", ["--t-min", "--t-max", "--samples", "--params"]),
        ("gen-data", ["--m", "--n", "--center-distance", "--noise-sigma", "--seed",
                      "--split-fraction", "--split-seed"]),
        ("train", ["--r", "--c", "--d", "--p-d", "--m", "--center-distance", "--noise-sigma",
                   "--data-seed", "--split-fraction", "--split-seed", "--eta",
                   "--batch-size", "--epochs", "--seed"]),
        ("sweep", ["--d-steps", "--p-steps", "--r-steps", "--c-steps", "--pick-fraction",
                   "--runs", "--epochs", "--batch-size", "--eta", "--m", "--split-fraction",
                   "--accuracy-threshold", "--seed"]),
    ])
    def test_exit_code_documented_without_traceback(self, command, flags, tmp_path, capsys):
        out = str(tmp_path / "out.csv")
        base = {
            "rates": ["--out", out],
            "curves": ["--out", out],
            "gen-data": ["--out", out, "--m", "20", "--train-out", out, "--test-out", out],
            "train": ["--trace-out", out, "--m", "40", "--epochs", "2", "--batch-size", "8"],
            "sweep": ["--profile", "desk", "--m", "40", "--epochs", "2", "--batch-size", "8"],
        }[command]
        rng = np.random.default_rng(20240801)
        for _ in range(100):
            argv = [command, *base]
            for flag in flags:
                if rng.random() < 0.5:
                    n = 4 if flag == "--params" else 1
                    argv.append(f"{flag}={','.join(rng.choice(EDGE_VALUES, n))}")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects a non-number
                code = exc.code
            assert code in (0, 1, 2, 3), argv
            assert "Traceback" not in capsys.readouterr().err, argv


class TestNegativeSeed:
    """Each seed flag alone set to -1: one error line, exit 2, nothing written."""

    @pytest.mark.parametrize("command, flag", [
        ("gen-data", "--seed"),
        ("gen-data", "--split-seed"),
        ("train", "--seed"),
        ("train", "--data-seed"),
        ("train", "--split-seed"),
        ("verify", "--seed"),
        ("sweep", "--seed"),
    ])
    def test_is_usage_error(self, command, flag, tmp_path, capsys):
        out = str(tmp_path / "out")
        base = {
            "gen-data": ["--out", out, "--m", "20", "--train-out", out + "1",
                         "--test-out", out + "2"],
            "train": ["--trace-out", out, "--m", "40", "--epochs", "2", "--batch-size", "8"],
            "verify": ["--suite", "gradient", "--json-out", out],
            "sweep": ["--json-out", out, "--profile", "desk", "--epochs", "1"],
        }[command]
        assert main([command, *base, f"{flag}=-1"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {flag} must be an integer >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []

    def test_checked_where_no_suite_reads_it(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["verify", "--suite", "lambert", "--json-out", out, "--seed=-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be an integer >= 0, got -1\n"
        assert not out.exists()


class TestVerify:
    @pytest.mark.parametrize("suite", ["lambert", "theorem", "corollary", "gradient"])
    def test_each_suite_passes(self, suite, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = run(["verify", "--suite", suite, "--json-out", report_path])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        assert report["suites"][0]["suite"] == suite

    def test_all_runs_every_suite(self, tmp_path):
        report_path = tmp_path / "report.json"
        assert run(["verify", "--suite", "all", "--json-out", report_path]) == 0
        report = json.loads(report_path.read_text())
        assert [s["suite"] for s in report["suites"]] == [
            "lambert", "theorem", "corollary", "gradient",
        ]

    def test_report_goes_to_stdout_without_json_out(self, capsys):
        assert run(["verify", "--suite", "corollary"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out) == run_suites(["corollary"])

    def test_unknown_suite_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--suite", "nope"])
        assert exc.value.code == 2

    def test_theorem_grid_coverage(self, tmp_path):
        report_path = tmp_path / "report.json"
        run(["verify", "--suite", "theorem", "--json-out", report_path])
        report = json.loads(report_path.read_text())
        coverage = [c for c in report["suites"][0]["checks"] if c["name"] == "grid_coverage"]
        assert coverage[0]["checked"] >= 1000

    def test_gradient_suite_accepts_seed(self, tmp_path):
        report_path = tmp_path / "report.json"
        assert run(["verify", "--suite", "gradient", "--seed", 5, "--json-out",
                    report_path]) == 0
        assert json.loads(report_path.read_text())["passed"] is True


class TestTrain:
    def test_trace_and_weights(self, tmp_path):
        trace, weights = tmp_path / "t.csv", tmp_path / "w.json"
        code = run(["train", "--trace-out", trace, "--weights-out", weights,
                    "--m", 100, "--epochs", 10, "--seed", 1])
        assert code == 0
        header, rows = read_rows(trace)
        assert header == ["epoch", "train_loss", "test_accuracy", "theta_norm",
                          "min_normalized_margin"]
        assert len(rows) == 10
        theta = json.loads(weights.read_text())["theta"]
        assert len(theta) == 2

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--m", 100, "--epochs", 8, "--seed", 5, "--data-seed", 2]
        run(["train", "--trace-out", a] + args)
        run(["train", "--trace-out", b] + args)
        assert a.read_bytes() == b.read_bytes()

    def test_csv_input_round(self, tmp_path):
        data = tmp_path / "d.csv"
        run(["gen-data", "--out", data, "--m", 60, "--seed", 4])
        trace = tmp_path / "t.csv"
        code = run(["train", "--trace-out", trace, "--data", data,
                    "--epochs", 5, "--batch-size", 12])
        assert code == 0
        assert len(read_rows(trace)[1]) == 5

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_is_format_error(self, value, tmp_path, capsys):
        data, trace = tmp_path / "d.csv", tmp_path / "t.csv"
        data.write_text(f"x1,x2,y\n{value},0.5,1\n1,2,-1\n")
        assert run(["train", "--data", data, "--trace-out", trace]) == 3
        assert capsys.readouterr().err == "error: line 2: non-finite feature value\n"
        assert not trace.exists()

    def test_missing_data_file_is_io_error(self, tmp_path):
        assert run(["train", "--trace-out", tmp_path / "t.csv",
                    "--data", tmp_path / "nope.csv"]) == 3

    @pytest.mark.parametrize("flag", ["--r", "--c", "--d", "--eta"])
    def test_non_finite_value_is_usage_error(self, flag, tmp_path, capsys):
        assert run(["train", "--trace-out", tmp_path / "t.csv", flag, "inf",
                    "--m", 60, "--epochs", 2, "--batch-size", 12]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag[2:]} must be finite") and "Traceback" not in err

    def test_preset_flag(self, tmp_path):
        trace = tmp_path / "t.csv"
        assert run(["train", "--trace-out", trace, "--preset", "growing-dc",
                    "--m", 60, "--epochs", 3, "--batch-size", 12]) == 0

    def test_norm_of_huge_finite_weights(self, tmp_path):
        # theta ends near (3.4e301, 4.3e301): finite, but its squares overflow
        trace, weights = tmp_path / "t.csv", tmp_path / "w.json"
        assert run(["train", "--trace-out", trace, "--weights-out", weights,
                    "--eta", "1e300", "--epochs", 3]) == 0
        theta = json.loads(weights.read_text())["theta"]
        assert all(math.isfinite(v) and v > 1e301 for v in theta)
        header, rows = read_rows(trace)
        norm = float(rows[-1][header.index("theta_norm")])
        margin = float(rows[-1][header.index("min_normalized_margin")])
        assert norm == pytest.approx(5.4766807442979e301, rel=1e-13)
        assert norm == pytest.approx(math.hypot(*theta), rel=1e-15)
        assert margin != 0.0 and math.isfinite(margin)


class TestSweep:
    def test_desk_profile_deterministic_and_sized(self, tmp_path):
        ja, ca = tmp_path / "a.json", tmp_path / "a.csv"
        jb, cb = tmp_path / "b.json", tmp_path / "b.csv"
        args = ["sweep", "--profile", "desk", "--m", 80, "--epochs", 6,
                "--batch-size", 16, "--seed", 2]
        assert run(args + ["--json-out", ja, "--csv-out", ca]) == 0
        assert run(args + ["--json-out", jb, "--csv-out", cb]) == 0
        assert ja.read_bytes() == jb.read_bytes()
        assert ca.read_bytes() == cb.read_bytes()
        result = json.loads(ja.read_text())
        assert len(result["per_config"]) == 8  # 12.5% of the 64-config desk grid
        assert result["runs_per_config"] == 3
        _, rows = read_rows(ca)
        assert len(rows) == 8 * 3

    def test_infinite_eta_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert run(["sweep", "--profile", "desk", "--eta", "inf", "--m", 60, "--epochs", 2,
                    "--batch-size", 12, "--json-out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: eta must be finite") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("threshold", ["nan", "7", "-0.5"])
    def test_bad_accuracy_threshold_is_usage_error(self, threshold, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert run(["sweep", "--profile", "desk", "--m", 60, "--epochs", 2,
                    "--batch-size", 12, "--accuracy-threshold", threshold,
                    "--json-out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: accuracy_threshold must be in [0, 1]")
        assert not out.exists()

    # the checks read only settings every run shares: the first run's
    # rejection stops the sweep with the message train prints
    @pytest.mark.parametrize("profile, flags, message", [
        ([], ["--batch-size", 5000], "batch_size 5000 exceeds training set size 800"),
        (["--profile", "desk"], ["--m", 1], "need m >= 2 to split, got m=1"),
        (["--profile", "desk"], ["--m", 2, "--split-fraction", 0.9],
         "test split is empty: all 2 samples went to training"),
    ], ids=["batch-size", "single-sample", "empty-test-split"])
    def test_data_error_stops_the_sweep_as_it_stops_train(
        self, profile, flags, message, monkeypatch, tmp_path, capsys
    ):
        generated = []
        generate = dc_optlab.sweep.generate
        monkeypatch.setattr(dc_optlab.sweep, "generate",
                            lambda spec: generated.append(spec) or generate(spec))
        outputs = ["--json-out", tmp_path / "s.json", "--csv-out", tmp_path / "s.csv"]
        assert run(["sweep", *profile, *flags, *outputs]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert len(generated) == 1
        assert run(["train", "--trace-out", tmp_path / "t.csv", *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_table_printed(self, tmp_path, capsys):
        run(["sweep", "--profile", "desk", "--m", 60, "--epochs", 3,
             "--batch-size", 12, "--seed", 1])
        out = capsys.readouterr().out
        assert "family" in out
        assert "no_dc" in out

    def test_grid_spec_file(self, tmp_path):
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({
            "d_steps": 1, "p_steps": 1, "r_steps": 2, "c_steps": 2,
            "pick_fraction": 1.0, "runs": 1, "seed": 4,
        }))
        out = tmp_path / "s.csv"
        assert run(["sweep", "--grid-spec", spec, "--m", 60, "--epochs", 3,
                    "--batch-size", 12, "--csv-out", out]) == 0
        _, rows = read_rows(out)
        assert len(rows) == 4  # 1*1*2*2 grid, full pick, one run each

    def test_grid_spec_bad_json_is_format_error(self, tmp_path):
        spec = tmp_path / "grid.json"
        spec.write_text("{not json")
        assert run(["sweep", "--grid-spec", spec, "--m", 60, "--epochs", 2,
                    "--batch-size", 12]) == 3

    @pytest.mark.parametrize("content", [b"\xff", b'{"seed": ' + b"1" * 5000 + b"}", b"[" * 10**5],
                             ids=["not-utf8", "over-long-integer", "too-deep"])
    def test_grid_spec_unreadable_is_format_error(self, content, tmp_path, capsys):
        spec = tmp_path / "grid.json"
        spec.write_bytes(content)
        assert run(["sweep", "--grid-spec", spec]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: grid spec is not valid JSON: ")

    def test_grid_spec_unknown_field_is_usage_error(self, tmp_path):
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({"bogus": 1}))
        assert run(["sweep", "--grid-spec", spec, "--m", 60, "--epochs", 2,
                    "--batch-size", 12]) == 2

    @pytest.mark.parametrize("obj", [
        {"d_range": ["a", 5.0]},
        {"d_steps": 2.5},
        {"d_range": [0, 5, 7]},
        {"seed": -1},
        "ab",
    ])
    def test_grid_spec_bad_value_is_usage_error(self, obj, tmp_path, capsys):
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps(obj))
        assert run(["sweep", "--grid-spec", spec, "--m", 60, "--epochs", 2,
                    "--batch-size", 12]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_flags_override_grid_spec(self, tmp_path):
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({
            "d_steps": 1, "p_steps": 1, "r_steps": 1, "c_steps": 2,
            "pick_fraction": 1.0, "runs": 1,
        }))
        out = tmp_path / "s.json"
        assert run(["sweep", "--grid-spec", spec, "--runs", 2, "--m", 60, "--epochs", 2,
                    "--batch-size", 12, "--json-out", out]) == 0
        result = json.loads(out.read_text())
        assert result["runs_per_config"] == 2
        assert [len(c["runs"]) for c in result["per_config"]] == [2, 2]

    def test_desk_profile_sets_epochs_with_grid_spec(self, tmp_path, capsys):
        spec = tmp_path / "grid.json"
        spec.write_text(json.dumps({
            "d_steps": 1, "p_steps": 1, "r_steps": 1, "c_steps": 1,
            "pick_fraction": 1.0, "runs": 1,
        }))
        assert run(["sweep", "--profile", "desk", "--grid-spec", spec, "--m", 60,
                    "--batch-size", 12]) == 0
        assert "epochs=300" in capsys.readouterr().out


class TestPlot:
    def make_rates_csv(self, tmp_path):
        path = tmp_path / "rates.csv"
        run(["rates", "--out", path, "--z-min", 3, "--z-max", 8, "--samples", 11])
        return path

    def test_rates_plot_has_four_series(self, tmp_path):
        svg = tmp_path / "r.svg"
        assert run(["plot", "--kind", "rates", "--in", self.make_rates_csv(tmp_path),
                    "--out", svg]) == 0
        text = svg.read_text()
        assert text.count("<polyline") == 4
        for label in ("g_dc", "g_default", "lower", "upper"):
            assert label in text

    def test_empty_series_gives_axes_only(self, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("config,t,prob,loss,derivative,f\n")
        svg = tmp_path / "e.svg"
        assert run(["plot", "--kind", "curves", "--in", src, "--out", svg]) == 0
        text = svg.read_text()
        assert "<polyline" not in text
        assert "<rect" in text

    # SHA-256 of the SVG each kind makes of a small file its writer emits
    @pytest.mark.parametrize("kind, argv, sha256", [
        ("curves", ["curves", "--preset", "all", "--samples", 9, "--out"],
         "7fc2cbd43c218e01ecd96eabca6a87d0ba9ace5fa5c5c32741b2c9cdf3ac1d78"),
        ("rates", ["rates", "--z-min", 3, "--z-max", 8, "--samples", 11, "--out"],
         "d73268a4802eb750626bd4472224ff764c360f06afb08855efe4f9ed599ddc13"),
        ("trace", ["train", "--m", 60, "--epochs", 4, "--batch-size", 12, "--trace-out"],
         "50064cd8cb048da4c18f22fa943afa2e81243c40d55e1fe08321a5f243878742"),
        ("sweep", ["sweep", "--profile", "desk", "--m", 60, "--epochs", 3,
                   "--batch-size", 12, "--csv-out"],
         "d4ad5cbc49177aca99b2d59446d320bbfdfe73d08ddc29baf406ec6b335b2616"),
    ], ids=["curves", "rates", "trace", "sweep"])
    def test_svg_matches_golden(self, kind, argv, sha256, tmp_path):
        src, svg = tmp_path / "in.csv", tmp_path / "out.svg"
        assert run([*argv, src]) == 0
        assert run(["plot", "--kind", kind, "--in", src, "--out", svg]) == 0
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize("x, y", [
        (("1", "1.0000000000000002"), ("1", "2")),  # the tick step is below an ulp
        (("0", "5e-324"), ("1", "2")),  # the tick step underflows to 0
        (("1", "2"), ("1e308", "-1e308")),  # the span overflows
        (("1.7e308",), ("1",)),  # the padding of a flat series overflows
        (("5e-324",), ("1",)),  # a tenth of the flat value rounds to 0
        (("1.5", "1.7976931348623157e308"), ("1", "2")),  # a tick past float64
    ], ids=["sub-ulp-step", "zero-step", "overflowing-span", "overflowing-pad",
            "zero-pad", "tick-past-float64"])
    def test_extreme_axis_spans_render(self, x, y, tmp_path):
        # in a child whose address space is capped, so that a tick loop that
        # never ends fails fast instead of filling the machine's memory
        src, svg = tmp_path / "rates.csv", tmp_path / "rates.svg"
        rows = "".join(f"{xv},{yv},1,1,1,1\n" for xv, yv in zip(x, y))
        src.write_text("z,g_dc,g_default,lower,upper,z_min\n" + rows)
        cap = 1 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "dc_optlab.cli", "plot", "--kind", "rates",
             "--in", str(src), "--out", str(svg)],
            env={**os.environ, "PYTHONPATH": str(Path(dc_optlab.__file__).parents[1])},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        text = svg.read_text()
        assert text.count("<polyline") == (4 if len(x) > 1 else 0)
        assert "nan" not in text and "inf" not in text

    def test_bad_header_is_format_error(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("a,b\n1,2\n")
        assert run(["plot", "--kind", "rates", "--in", src, "--out", tmp_path / "x.svg"]) == 3

    def test_missing_file_is_io_error(self, tmp_path):
        assert run(["plot", "--kind", "rates", "--in", tmp_path / "nope.csv",
                    "--out", tmp_path / "x.svg"]) == 3


class TestMalformedFiles:
    """The same fault in a file of each reader, `plot` and `train --data`:
    one error line with the line the fault is on, and exit 3."""

    LONG = "9" * 200_000

    # case: (plot kind, plot input, train --data input, faulty line)
    CASES = {
        "bad-value-in-second-label": (
            "curves", b"config,t,prob\na,0,0.5\na,1,0.6\nb,0,0.5\nb,1,oops\n",
            b"x1,x2,y\n0,0,1\n1,1,-1\n0,0,1\n1,oops,-1\n", 5),
        "blank-line-before-bad-row": (
            "rates", b"z,g_dc,g_default,lower,upper\n3,1,3,0,2\n\n4,oops,4,0,2\n",
            b"x1,x2,y\n0,0,1\n\n1,oops,-1\n", 4),
        "non-utf8-bytes": (
            "trace", b"epoch,train_loss,test_accuracy\n1,0.5,0.5\n2,0.4,\xff\n",
            b"x1,x2,y\n0,0,1\n1,\xff,-1\n", 3),
        "over-long-field": (
            "trace", f"epoch,train_loss,test_accuracy\n1,0.5,0.5\n2,0.4,{LONG}\n".encode(),
            f"x1,x2,y\n0,0,1\n1,{LONG},-1\n".encode(), 3),
        "missing-column": (
            "sweep", b"config_id,r,c,d,p_d,kind,run,final_loss\n0,1,0,0,0.5,no-dc,0,0.1\n",
            b"x1,x2\n0,0\n", 1),
    }

    @pytest.mark.parametrize("reader", ["plot", "train"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_error_line_with_the_true_line_number(self, case, reader, tmp_path, capsys):
        kind, plot_input, data_input, line = self.CASES[case]
        src = tmp_path / "in.csv"
        if reader == "plot":
            src.write_bytes(plot_input)
            argv = ["plot", "--kind", kind, "--in", src, "--out", tmp_path / "out.svg"]
        else:
            src.write_bytes(data_input)
            argv = ["train", "--data", src, "--trace-out", tmp_path / "t.csv"]
        assert run(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: line {line}: "), err


class TestUtf8Files:
    """Every file the tool writes or reads is UTF-8, whatever the locale."""

    def run_in_c_locale(self, argv, cwd):
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONPATH": str(Path(dc_optlab.__file__).parents[1])}
        probe = subprocess.run(
            [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        if codecs.lookup(probe.stdout.strip()).name == "utf-8":
            pytest.skip("the C locale's preferred encoding is UTF-8 here")
        return subprocess.run([sys.executable, "-m", "dc_optlab.cli", *map(str, argv)],
                              env=env, cwd=cwd, capture_output=True, timeout=60)

    def test_non_ascii_label_plots(self, tmp_path):
        src = tmp_path / "e.csv"
        src.write_bytes("config,t,prob\né,0,0.5\né,1,0.6\n".encode())
        proc = self.run_in_c_locale(["plot", "--kind", "curves", "--in", src,
                                     "--out", tmp_path / "e.svg"], tmp_path)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert ">é</text>" in (tmp_path / "e.svg").read_bytes().decode("utf-8")

    def test_non_ascii_grid_spec_field_is_usage_error(self, tmp_path):
        spec = tmp_path / "grid.json"
        spec.write_bytes('{"seed": 1, "nöte": 1}'.encode())
        proc = self.run_in_c_locale(["sweep", "--grid-spec", spec], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"error: bad grid spec field: ")
        assert b"Traceback" not in proc.stderr


class Stop(Exception):
    """Ends a command at a spied call."""


def spy(monkeypatch, name, stop=False):
    """Record the arguments of each call of ``cli.<name>``; raise Stop if ``stop``."""
    calls = []
    real = getattr(cli, name)

    def record(*args, **kwargs):
        calls.append(inspect.signature(real).bind(*args, **kwargs).arguments)
        if stop:
            raise Stop
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, record)
    return calls


def help_entries(command, capsys) -> dict[str, str]:
    """Each option's --help text on one line, keyed by its flag."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    entries, flag = {}, None
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("  -"):
            flag = line.split()[0].rstrip(",")
            entries[flag] = line
        elif flag and line.startswith("   "):
            entries[flag] += " " + line.strip()
    return entries


def assert_help_names(command, values, capsys):
    entries = help_entries(command, capsys)
    for flag, value in values.items():
        assert f"default {value}" in entries[flag], (flag, value, entries[flag])


class TestDefaults:
    """With only its required flags, each command builds the library's defaults
    and its --help names them."""

    def test_gen_data(self, monkeypatch, tmp_path, capsys):
        generate = spy(monkeypatch, "generate", stop=True)
        with pytest.raises(Stop):
            run(["gen-data", "--out", tmp_path / "d.csv"])
        spec = generate[0]["spec"]
        assert spec == SyntheticSpec()
        assert_help_names("gen-data", {
            "--m": spec.m, "--n": spec.n, "--center-distance": spec.center_distance,
            "--noise-sigma": spec.noise_sigma, "--seed": spec.seed,
            "--split-fraction": spec.split_fraction,
        }, capsys)

    def test_train(self, monkeypatch, tmp_path, capsys):
        generate = spy(monkeypatch, "generate")
        split = spy(monkeypatch, "split")
        trained = spy(monkeypatch, "train_with_weights", stop=True)
        with pytest.raises(Stop):
            run(["train", "--trace-out", tmp_path / "t.csv"])
        spec, cfg, params = generate[0]["spec"], trained[0]["cfg"], trained[0]["params"]
        assert spec == SyntheticSpec()
        assert split[0]["fraction"] == spec.split_fraction
        assert cfg == TrainConfig()
        assert params == DCParams(**cli.PRESETS["no-dc"])
        assert_help_names("train", {
            "--m": spec.m, "--center-distance": spec.center_distance,
            "--noise-sigma": spec.noise_sigma, "--data-seed": spec.seed,
            "--split-fraction": spec.split_fraction, "--eta": cfg.eta,
            "--batch-size": cfg.batch_size, "--epochs": cfg.epochs, "--seed": cfg.seed,
            "--mode": cfg.mode.value, "--init": cfg.init.value,
            "--r": params.r, "--c": params.c, "--d": params.d, "--p-d": params.p_d,
        }, capsys)

    @pytest.mark.parametrize("profile", ["paper", "desk"])
    def test_sweep(self, profile, monkeypatch, capsys):
        grids = spy(monkeypatch, "build_grid")
        swept = spy(monkeypatch, "run_sweep", stop=True)
        with pytest.raises(Stop):
            run(["sweep", "--profile", profile])
        spec, call = grids[0]["spec"], swept[0]
        cfg = call["train_cfg"]
        if profile == "desk":
            assert spec == GridSpec(**cli.DESK_GRID)
            assert cfg == replace(TrainConfig(), epochs=cli.DESK_EPOCHS)
        else:
            assert spec == GridSpec()
            assert cfg == TrainConfig()
        assert call["data_spec"] == SyntheticSpec()
        assert (call["runs"], call["seed"]) == (spec.runs, spec.seed)
        threshold = inspect.signature(run_sweep).parameters["accuracy_threshold"].default
        assert call["accuracy_threshold"] == threshold

        entries = help_entries("sweep", capsys)
        described = entries["--profile"].split(f"{profile}: ")[1]
        assert described.startswith(f"{'full' if profile == 'paper' else 'reduced'} grid")
        assert f"{spec.runs} runs, {cfg.epochs} epochs" in described.split(";")[0]
        if profile == "desk":
            steps = ",".join(str(getattr(spec, f"{axis}_steps")) for axis in "dprc")
            assert f"({steps} steps), {100 * spec.pick_fraction:g}% pick" in described
        else:
            assert_help_names("sweep", {
                "--pick-fraction": spec.pick_fraction, "--runs": spec.runs,
                "--epochs": cfg.epochs, "--seed": spec.seed, "--batch-size": cfg.batch_size,
                "--eta": cfg.eta, "--m": SyntheticSpec.m,
                "--split-fraction": SyntheticSpec.split_fraction,
                "--accuracy-threshold": threshold,
            }, capsys)

    def test_verify(self, monkeypatch, capsys):
        suites = spy(monkeypatch, "run_suites", stop=True)
        with pytest.raises(Stop):
            run(["verify", "--suite", "all"])
        seed = inspect.signature(gradient_suite).parameters["seed"].default
        assert suites[0]["gradient_seed"] == seed
        assert inspect.signature(run_suites).parameters["gradient_seed"].default == seed
        assert_help_names("verify", {"--seed": seed}, capsys)

    def test_rates(self, monkeypatch, tmp_path, capsys):
        curves = spy(monkeypatch, "rate_curve", stop=True)
        with pytest.raises(Stop):
            run(["rates", "--out", tmp_path / "r.csv"])
        params, z = curves[0]["params"], curves[0]["z_values"]
        assert params == DCParams(r=1.0, c=0.0, d=0.0, p_d=math.exp(-1.0))
        assert params.b == -1.0
        assert_help_names("rates", {
            "--r": params.r, "--c": params.c, "--d": params.d, "--p-d": params.p_d,
            "--z-min": z[0], "--samples": z.size,
        }, capsys)


class TestFlagTable:
    # (flag, dest, type, choices, default) of every option, as the benchmark's
    # argument lists and scripts rely on them
    FLAGS = {
        "gen-data": {
            ("--center-distance", "center_distance", float, None, 1.5),
            ("--m", "m", int, None, 1000),
            ("--n", "n", int, None, 2),
            ("--noise-sigma", "noise_sigma", float, None, 1.0),
            ("--out", "out", None, None, None),
            ("--seed", "seed", int, None, 0),
            ("--split-fraction", "split_fraction", float, None, 0.8),
            ("--split-seed", "split_seed", int, None, 0),
            ("--test-out", "test_out", None, None, None),
            ("--train-out", "train_out", None, None, None),
        },
        "curves": {
            ("--out", "out", None, None, None),
            ("--params", "params", None, None, None),
            ("--preset", "preset", None,
             ("decaying-dc", "grow-decay-dc", "growing-dc", "no-dc", "all"), None),
            ("--samples", "samples", int, None, 241),
            ("--t-max", "t_max", float, None, 6.0),
            ("--t-min", "t_min", float, None, -6.0),
        },
        "rates": {
            ("--c", "c", float, None, 0.0),
            ("--d", "d", float, None, 0.0),
            ("--out", "out", None, None, None),
            ("--p-d", "p_d", float, None, 0.36787944117144233),
            ("--r", "r", float, None, 1.0),
            ("--samples", "samples", int, None, 200),
            ("--z-max", "z_max", float, None, 10.0),
            ("--z-min", "z_min", float, None, 1.1),
        },
        "verify": {
            ("--json-out", "json_out", None, None, None),
            ("--seed", "seed", int, None, 20240801),
            ("--suite", "suite", None, ("lambert", "theorem", "corollary", "gradient", "all"),
             None),
        },
        "train": {
            ("--batch-size", "batch_size", int, None, 75),
            ("--c", "c", float, None, 0.0),
            ("--center-distance", "center_distance", float, None, 1.5),
            ("--d", "d", float, None, 0.0),
            ("--data", "data", None, None, None),
            ("--data-seed", "data_seed", int, None, 0),
            ("--epochs", "epochs", int, None, 1500),
            ("--eta", "eta", float, None, 0.01),
            ("--init", "init", None, ("zeros", "gaussian_scaled"), "zeros"),
            ("--m", "m", int, None, 1000),
            ("--mode", "mode", None, ("gd", "sgd"), "sgd"),
            ("--noise-sigma", "noise_sigma", float, None, 1.0),
            ("--p-d", "p_d", float, None, 0.5),
            ("--preset", "preset", None,
             ("decaying-dc", "grow-decay-dc", "growing-dc", "no-dc"), None),
            ("--r", "r", float, None, 1.0),
            ("--seed", "seed", int, None, 0),
            ("--split-fraction", "split_fraction", float, None, 0.8),
            ("--split-seed", "split_seed", int, None, 0),
            ("--trace-out", "trace_out", None, None, None),
            ("--weights-out", "weights_out", None, None, None),
        },
        "sweep": {
            ("--accuracy-threshold", "accuracy_threshold", float, None, 0.95),
            ("--batch-size", "batch_size", int, None, 75),
            ("--c-steps", "c_steps", int, None, None),
            ("--csv-out", "csv_out", None, None, None),
            ("--d-steps", "d_steps", int, None, None),
            ("--epochs", "epochs", int, None, None),
            ("--eta", "eta", float, None, 0.01),
            ("--grid-spec", "grid_spec", None, None, None),
            ("--json-out", "json_out", None, None, None),
            ("--m", "m", int, None, 1000),
            ("--p-steps", "p_steps", int, None, None),
            ("--pick-fraction", "pick_fraction", float, None, None),
            ("--profile", "profile", None, ("paper", "desk"), "paper"),
            ("--r-steps", "r_steps", int, None, None),
            ("--runs", "runs", int, None, None),
            ("--seed", "seed", int, None, None),
            ("--split-fraction", "split_fraction", float, None, 0.8),
        },
        "plot": {
            ("--in", "infile", None, None, None),
            ("--kind", "kind", None, ("curves", "rates", "trace", "sweep"), None),
            ("--out", "out", None, None, None),
        },
    }

    def test_every_flag_keeps_dest_type_choices_and_default(self):
        parser = cli.build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(commands.choices) == list(self.FLAGS)
        for name, sub in commands.choices.items():
            table = {
                (a.option_strings[-1], a.dest, a.type,
                 None if a.choices is None else tuple(a.choices), repr(a.default))
                for a in sub._actions if a.dest != "help"
            }
            expected = {(*row[:4], repr(row[4])) for row in self.FLAGS[name]}
            assert table == expected, name
