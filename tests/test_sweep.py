"""Grid construction, sampling law, sweep aggregation, curve averaging."""

import math

import numpy as np
import pytest

from dc_optlab import (
    DCParams,
    EpochTrace,
    GridSpec,
    LossConfigKind,
    SyntheticSpec,
    TrainConfig,
    ValidationError,
    aggregate_curves,
    build_grid,
    run_seeds,
    run_sweep,
    sample_grid,
)

SMALL_GRID = GridSpec(d_steps=2, p_steps=2, r_steps=2, c_steps=2, runs=2, seed=0)


def trace(epoch, loss, acc):
    return EpochTrace(
        epoch=epoch, train_loss=loss, test_accuracy=acc, theta_norm=1.0,
        min_normalized_margin=0.0,
    )


class TestBuildGrid:
    def test_two_point_axes_give_all_corners(self):
        grid = build_grid(SMALL_GRID)
        assert len(grid) == 16
        corners = {(p.d, p.p_d, p.r, p.c) for p in grid}
        assert len(corners) == 16
        assert (0.0, 0.1, 0.1, 0.0) in corners
        assert (5.0, 0.9, 12.0, 12.0) in corners

    def test_default_grid_size(self):
        assert len(build_grid(GridSpec())) == 11 * 9 * 24 * 25

    def test_single_point_axes(self):
        spec = GridSpec(d_steps=1, p_steps=1, r_steps=1, c_steps=1)
        grid = build_grid(spec)
        assert len(grid) == 1
        assert grid[0] == DCParams(r=0.1, c=0.0, d=0.0, p_d=0.1)

    def test_ordering_d_outermost_c_innermost(self):
        grid = build_grid(SMALL_GRID)
        assert grid[0].c == 0.0 and grid[1].c == 12.0  # c flips fastest
        assert grid[0].d == grid[7].d == 0.0 and grid[8].d == 5.0  # d flips slowest

    def test_bad_steps_rejected(self):
        with pytest.raises(ValidationError):
            GridSpec(d_steps=0)


class TestSampleGrid:
    @pytest.mark.parametrize(
        "size, fraction",
        [(59400, 0.025), (16, 0.3), (100, 0.011), (7, 1.0)],
    )
    def test_ceiling_law(self, size, fraction):
        grid = [DCParams(r=1.0, c=0.0, d=0.0, p_d=0.5)] * size
        picked = sample_grid(grid, fraction, seed=0)
        assert len(picked) == math.ceil(fraction * size)

    def test_full_fraction_returns_grid_in_order(self):
        grid = build_grid(SMALL_GRID)
        assert sample_grid(grid, 1.0, seed=9) == grid

    def test_deterministic(self):
        grid = build_grid(SMALL_GRID)
        assert sample_grid(grid, 0.5, seed=4) == sample_grid(grid, 0.5, seed=4)

    def test_preserves_grid_order(self):
        grid = build_grid(GridSpec(d_steps=3, p_steps=3, r_steps=3, c_steps=3))
        picked = sample_grid(grid, 0.2, seed=11)
        positions = [grid.index(p) for p in picked]
        assert positions == sorted(positions)

    def test_bad_fraction(self):
        with pytest.raises(ValidationError):
            sample_grid([DCParams(r=1.0, c=0.0, d=0.0, p_d=0.5)], 0.0, seed=0)


class TestRunSeeds:
    def test_pinned_and_distinct(self):
        a = run_seeds(7, 0, 0)
        assert a == run_seeds(7, 0, 0)
        assert a != run_seeds(7, 0, 1)
        assert a != run_seeds(7, 1, 0)
        assert a != run_seeds(8, 0, 0)


class TestRunSweep:
    DATA = SyntheticSpec(m=80, n=2, split_fraction=0.8, seed=0)
    CFG = TrainConfig(eta=0.01, batch_size=16, epochs=8, seed=0)

    def test_single_config_two_runs(self):
        config = DCParams(r=1.0, c=0.0, d=0.0, p_d=0.5)
        result = run_sweep([config], self.DATA, self.CFG, runs=2, seed=5)
        cfg = result.per_config[0]
        assert cfg.kind is LossConfigKind.NO_DC
        assert len(cfg.runs) == 2
        # distinct data seeds make the two runs differ
        assert cfg.runs[0].final_loss != cfg.runs[1].final_loss
        assert cfg.std_final_accuracy >= 0.0
        again = run_sweep([config], self.DATA, self.CFG, runs=2, seed=5)
        assert result.to_json() == again.to_json()

    def test_all_c_zero_has_no_grow_decay_best(self):
        configs = [
            DCParams(r=1.0, c=0.0, d=0.0, p_d=0.5),
            DCParams(r=2.0, c=0.0, d=0.0, p_d=0.5),
        ]
        result = run_sweep(configs, self.DATA, self.CFG, runs=1, seed=0)
        assert LossConfigKind.GROW_DECAY_DC.value not in result.family_best
        assert LossConfigKind.NO_DC.value in result.family_best
        assert LossConfigKind.GROWING_DC.value in result.family_best

    def test_decaying_family_recorded_but_never_best(self):
        configs = [DCParams(r=1.0, c=1.0, d=0.0, p_d=0.5)]
        result = run_sweep(configs, self.DATA, self.CFG, runs=1, seed=0)
        assert result.per_config[0].kind is LossConfigKind.DECAYING_DC
        assert result.family_best == {}
        table = {row["family"]: row for row in result.family_table()}
        assert table["decaying_dc"]["n_configs"] == 1

    def test_failed_runs_recorded_and_excluded(self):
        configs = [DCParams(r=1.0, c=0.0, d=0.0, p_d=0.5)]
        exploding = TrainConfig(eta=1e308, batch_size=16, epochs=2, seed=0)
        result = run_sweep(configs, self.DATA, exploding, runs=2, seed=0)
        assert result.excluded_runs == 2
        assert result.per_config[0].mean_final_accuracy is None
        assert "NumericalError" in result.per_config[0].runs[0].error
        assert result.family_best == {}

    def test_csv_layout(self):
        configs = [DCParams(r=2.0, c=0.0, d=0.0, p_d=0.5)]
        result = run_sweep(configs, self.DATA, self.CFG, runs=2, seed=1)
        lines = result.to_csv().strip().split("\n")
        assert lines[0] == "config_id,r,c,d,p_d,kind,run,final_loss,final_accuracy"
        assert len(lines) == 3
        assert lines[1].startswith("0,2,0,0,0.5,growing_dc,0,")

    def test_empty_configs_rejected(self):
        with pytest.raises(ValidationError):
            run_sweep([], self.DATA, self.CFG, runs=1, seed=0)


class TestAggregateCurves:
    def test_identical_traces(self):
        tr = [trace(1, -1.0, 0.5), trace(2, -2.0, 0.75)]
        stats = aggregate_curves([tr, tr, tr])
        assert np.array_equal(stats.mean_train_loss, [-1.0, -2.0])
        assert np.array_equal(stats.std_train_loss, [0.0, 0.0])
        assert np.array_equal(stats.mean_test_accuracy, [0.5, 0.75])

    def test_two_point_statistics(self):
        a = [trace(1, -1.0, 0.4)]
        b = [trace(1, -3.0, 0.6)]
        stats = aggregate_curves([a, b])
        assert stats.mean_test_accuracy[0] == pytest.approx(0.5)
        assert stats.std_test_accuracy[0] == pytest.approx(math.sqrt(0.02), rel=1e-12)

    def test_single_trace_std_zero(self):
        stats = aggregate_curves([[trace(1, -1.0, 0.5)]])
        assert stats.std_train_loss[0] == 0.0

    def test_ragged_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_curves([[trace(1, -1.0, 0.5)], [trace(1, -1.0, 0.5), trace(2, -1.0, 0.5)]])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_curves([])
