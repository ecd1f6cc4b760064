"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) and then asserts, so the suite doubles
as a human-readable certificate.
"""

import math
import time

import numpy as np
import pytest

from dc_optlab import (
    BRANCH_POINT,
    DCParams,
    GridSpec,
    SyntheticSpec,
    TrainConfig,
    build_grid,
    dc_rate,
    generate,
    log_response_probability,
    margin_transform,
    rate_onset,
    response_probability,
    sample_grid,
    split,
    train,
    verify_theorem,
    w0,
)
from dc_optlab.cli import main as cli_main
from dc_optlab.verification import gradient_suite
from conftest import random_params


def report(number: int, label: str, ok: bool) -> bool:
    print(f"ACCEPTANCE {number} [{'PASS' if ok else 'FAIL'}] {label}")
    return ok


class TestAcceptance:
    def test_01_lambert_identity(self):
        t0 = time.perf_counter()
        x = BRANCH_POINT + np.geomspace(1e-9, 1e6 - BRANCH_POINT, 10_000)
        w = w0(x)
        resid = float(np.max(np.abs(w * np.exp(w) - x) / np.maximum(1.0, np.abs(x))))
        anchors = abs(w0(math.e) - 1.0) <= 1e-6 and abs(w0(-1.0 / math.e) + 1.0) <= 1e-6
        elapsed = time.perf_counter() - t0
        ok = resid <= 1e-12 and anchors and elapsed < 1.0
        assert report(
            1,
            f"w0 identity residual {resid:.2e} <= 1e-12 on 10k points, "
            f"anchors at e and -1/e, {elapsed:.3f}s < 1s",
            ok,
        )

    def test_02_inverse_function_property(self):
        rng = np.random.default_rng(424242)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            p = random_params(rng)
            z_min = rate_onset(p)
            z = float(rng.uniform(z_min + 0.1, z_min + 20.0))
            err = abs(margin_transform(p, dc_rate(p, z)) - z) / (1.0 + abs(z))
            worst = max(worst, err)
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-9 and elapsed < 1.0
        assert report(
            2,
            f"inverse property worst scaled error {worst:.2e} <= 1e-9 over "
            f"1000 random (params, z), {elapsed:.3f}s < 1s",
            ok,
        )

    def test_03_theorem_bracket_certificate(self):
        b_grid = (-20.0, -10.0, -5.0, -2.0, -1.0, -0.5, -0.1, -0.01, -0.001)
        z_grid = np.geomspace(np.nextafter(math.e, np.inf), 50.0, 200)
        rep = verify_theorem(b_grid, z_grid)
        ok = rep.all_passed and rep.checked > 0
        assert report(
            3,
            f"bracket holds on {rep.checked}/{rep.checked} admissible pairs "
            f"({rep.filtered_out} filtered), all three containments 100%",
            ok,
        )
        for ineq in rep.inequalities:
            assert ineq.failed == 0, ineq.name

    def test_04_corollary_shifts(self):
        p_d = math.exp(-1.0)
        g = [
            dc_rate(DCParams(r=r, c=0.0, d=0.0, p_d=p_d), 5.0)
            for r in (0.5, 1.0, 2.0, 4.0, 8.0)
        ]
        decreasing = all(y < x for x, y in zip(g, g[1:]))
        g0 = dc_rate(DCParams(r=1.0, c=0.0, d=0.0, p_d=p_d), 5.0)
        exact = all(
            dc_rate(DCParams(r=1.0, c=0.0, d=d, p_d=p_d), 5.0) == g0 + d
            for d in (1.0, 2.0, 5.0)
        )
        ok = decreasing and exact
        assert report(
            4,
            "rate strictly decreasing over r in {0.5,1,2,4,8} at z=5 and "
            "difficulty shifts exact for d in {1,2,5}",
            ok,
        )

    def test_05_gradient_correctness(self):
        result = gradient_suite()
        check = result["checks"][0]
        ok = result["passed"]
        assert report(
            5,
            f"analytic gradient vs central differences on 100 random triples, "
            f"worst relative error {check['worst_relative_error']:.2e} <= 1e-6",
            ok,
        )

    def test_06_training_sanity(self):
        t0 = time.perf_counter()
        params = DCParams(r=1.0, c=0.0, d=0.0, p_d=0.5)
        finals = []
        monotone = True
        for seed in (0, 1, 2):
            data = generate(SyntheticSpec(seed=seed))
            tr, te = split(data, 0.8, seed=seed)
            cfg = TrainConfig(eta=0.01, batch_size=75, epochs=300, seed=seed)
            traces = train(params, tr, te, cfg)
            finals.append(traces[-1].test_accuracy)
            monotone &= traces[-1].train_loss < traces[0].train_loss
        elapsed = time.perf_counter() - t0
        mean_acc = float(np.mean(finals))
        ok = mean_acc >= 0.95 and monotone and elapsed < 30.0
        assert report(
            6,
            f"mean final test accuracy {mean_acc:.4f} >= 0.95 over 3 seeds, "
            f"loss drops from epoch 1 in every run, {elapsed:.1f}s < 30s",
            ok,
        )

    def test_07_sweep_protocol(self, tmp_path, capsys):
        grid = build_grid(GridSpec())
        sampled = sample_grid(grid, 0.025, seed=0)
        sizes_ok = len(grid) == 59_400 and len(sampled) == 1_485

        # desk scale: 8 sampled configs x 3 runs x 300 epochs, run twice
        args = [
            "sweep", "--profile", "desk", "--seed", "6",
            "--m", "1000", "--epochs", "300", "--batch-size", "75",
        ]
        ja, ca = tmp_path / "a.json", tmp_path / "a.csv"
        jb, cb = tmp_path / "b.json", tmp_path / "b.csv"
        assert cli_main(args + ["--json-out", str(ja), "--csv-out", str(ca)]) == 0
        assert cli_main(args + ["--json-out", str(jb), "--csv-out", str(cb)]) == 0
        identical = ja.read_bytes() == jb.read_bytes() and ca.read_bytes() == cb.read_bytes()

        table = capsys.readouterr().out
        sampled_8 = '"per_config"' in ja.read_text() and ca.read_text().count("\n") == 1 + 8 * 3
        with capsys.disabled():
            ok = sizes_ok and identical and sampled_8
            report(
                7,
                f"|grid|=59400, |sample|=1485; desk sweep (8 configs x 3 runs "
                f"x 300 epochs) byte-identical across reruns; family table "
                f"emitted (reported, not asserted)",
                ok,
            )
            print(table)
        assert ok

    def test_08_loss_anchors(self):
        rng = np.random.default_rng(99)
        anchored = True
        increasing = True
        for _ in range(1000):
            p = random_params(rng)
            anchored &= abs(response_probability(p, p.d) - p.p_d) <= 1e-12
            t = np.linspace(p.d - 10.0 / p.r, p.d + 10.0 / p.r, 100)
            # strict growth asserted on the log curve: the raw probability
            # underflows float64 on the far left of this grid
            logs = log_response_probability(p, t)
            increasing &= bool(np.all(np.diff(logs) > 0))
            probs = response_probability(p, t)
            increasing &= bool(np.all(np.diff(probs) >= 0))
        ok = anchored and increasing
        assert report(
            8,
            "response probability hits p_d at t=d within 1e-12 and is "
            "strictly increasing (log domain) on 100-point grids, 1000 params",
            ok,
        )

    def test_09_reproducibility(self, tmp_path):
        pairs = []

        for name, args in (
            ("gen-data", ["gen-data", "--m", "200", "--seed", "13"]),
            (
                "train",
                ["train", "--m", "200", "--epochs", "40", "--batch-size", "25",
                 "--seed", "13", "--data-seed", "13"],
            ),
        ):
            outs = []
            for tag in ("x", "y"):
                out = tmp_path / f"{name}-{tag}.csv"
                flag = "--trace-out" if name == "train" else "--out"
                assert cli_main([str(a) for a in args + [flag, out]]) == 0
                outs.append(out.read_bytes())
            pairs.append(outs[0] == outs[1])

        sweep_bytes = []
        for tag in ("x", "y", "z"):
            j = tmp_path / f"sweep-{tag}.json"
            c = tmp_path / f"sweep-{tag}.csv"
            assert cli_main([
                "sweep", "--profile", "desk", "--m", "80", "--epochs", "10",
                "--batch-size", "16", "--seed", "21",
                "--json-out", str(j), "--csv-out", str(c),
            ]) == 0
            sweep_bytes.append(j.read_bytes() + c.read_bytes())
        pairs.append(sweep_bytes[0] == sweep_bytes[1] == sweep_bytes[2])

        ok = all(pairs)
        assert report(
            9,
            "gen-data, train byte-identical across two reruns, sweep across three",
            ok,
        )
