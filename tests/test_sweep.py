"""Grid construction, sampling law, sweep aggregation, the lockstep
training kernel."""

import math
from dataclasses import replace

import numpy as np
import pytest

import dc_optlab.sweep as sweep_module
from dc_optlab import (
    DCParams,
    GridSpec,
    NumericalError,
    SyntheticSpec,
    TrainConfig,
    ValidationError,
    build_grid,
    generate,
    loss_derivative,
    run_sweep,
    sample_grid,
    split,
    train,
)
from dc_optlab.dc_loss import LossConfigKind
from dc_optlab.neuron import Init, Mode, _lockstep, _signed_features
from dc_optlab.sweep import run_seeds

SMALL_GRID = GridSpec(d_steps=2, p_steps=2, r_steps=2, c_steps=2, runs=2, seed=0)


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

    def test_negative_index_counts_from_the_end(self):
        grid = build_grid(SMALL_GRID)
        assert grid[-1] == grid[15] and grid[-16] == grid[0]
        with pytest.raises(IndexError):
            grid[-17]

    def test_bad_steps_rejected(self):
        with pytest.raises(ValidationError):
            GridSpec(d_steps=0)

    def test_numpy_scalars_accepted(self):
        spec = GridSpec(d_steps=np.int64(2), d_range=(np.float64(0.0), 5.0),
                        pick_fraction=np.float64(0.5), seed=np.int64(1))
        assert len(build_grid(spec)) == 2 * 9 * 24 * 25

    def test_list_ranges_stored_as_tuples(self):
        # a --grid-spec JSON file gives its ranges as lists
        spec = GridSpec(d_range=[0, 2], p_d_range=[0.2, 0.8], r_range=[1, 3], c_range=[0, 1])
        assert spec == GridSpec(d_range=(0, 2), p_d_range=(0.2, 0.8), r_range=(1, 3),
                                c_range=(0, 1))
        assert spec.d_range == (0, 2) and hash(spec) is not None


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
        assert sample_grid(grid, 1.0, seed=9) == list(grid)

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

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
            sample_grid([DCParams(r=1.0, c=0.0, d=0.0, p_d=0.5)], 1.0, seed=-1)


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

    def test_data_error_raises_instead_of_excluding(self):
        # blobs this far out overflow to inf: the first run's data is
        # rejected as train rejects it, not recorded as an excluded run
        configs = [DCParams(r=1.0, c=0.0, d=0.0, p_d=0.5)]
        huge = SyntheticSpec(m=40, center_distance=1e308, noise_sigma=1e308)
        with pytest.raises(ValidationError, match="features must be finite"):
            run_sweep(configs, huge, self.CFG, runs=3, seed=0)

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

    @pytest.mark.parametrize("kwargs", [
        dict(runs=0), dict(runs=2.0), dict(seed=-1), dict(accuracy_threshold=math.nan),
    ])
    def test_bad_counts_and_threshold_rejected(self, kwargs):
        configs = [DCParams(r=2.0, c=0.0, d=0.0, p_d=0.5)]
        with pytest.raises(ValidationError):
            run_sweep(configs, self.DATA, self.CFG, **{"runs": 1, "seed": 0, **kwargs})


def reference_run(params, i, k, data_spec, cfg, seed, threshold):
    """Job (i, k) of a sweep trained on its own by ``train``, summarized as
    ``run_sweep`` summarizes it: (final_loss, final_accuracy,
    epochs_to_threshold, error)."""
    data_seed, split_seed, train_seed = run_seeds(seed, i, k)
    data = generate(replace(data_spec, seed=data_seed))
    train_set, test_set = split(data, data_spec.split_fraction, split_seed)
    try:
        traces = train(params, train_set, test_set, replace(cfg, seed=train_seed))
    except NumericalError as exc:
        return None, None, None, f"NumericalError: {exc}"
    hit = next((t.epoch for t in traces if t.test_accuracy >= threshold), None)
    return traces[-1].train_loss, traces[-1].test_accuracy, hit, None


class TestLockstepKernel:
    DATA = SyntheticSpec(m=80, n=2, split_fraction=0.8, seed=0)
    CONFIGS = [
        DCParams(r=1.0, c=0.0, d=0.0, p_d=0.5),
        DCParams(r=4.0, c=0.0, d=0.0, p_d=0.5),
        DCParams(r=0.1, c=12.0, d=5.0, p_d=0.9),
        DCParams(r=12.0, c=12.0, d=0.0, p_d=0.1),
    ]
    RUNS = 3
    SEED = 3
    THRESHOLD = 0.9

    def sweep(self, monkeypatch, cfg, chunk):
        monkeypatch.setattr(sweep_module, "_CHUNK", chunk)
        return run_sweep(self.CONFIGS, self.DATA, cfg, runs=self.RUNS, seed=self.SEED,
                         accuracy_threshold=self.THRESHOLD)

    def assert_matches_reference(self, result, cfg):
        for i, config in enumerate(result.per_config):
            for run in config.runs:
                expected = reference_run(config.params, i, run.run, self.DATA, cfg,
                                         self.SEED, self.THRESHOLD)
                got = (run.final_loss, run.final_accuracy, run.epochs_to_threshold, run.error)
                assert got == expected, (i, run.run)

    @pytest.mark.parametrize("mode", [Mode.SGD, Mode.GD])
    def test_chunk_size_does_not_change_bytes(self, mode, monkeypatch):
        cfg = TrainConfig(eta=0.05, batch_size=16, epochs=6, seed=0, mode=mode)
        jobs = len(self.CONFIGS) * self.RUNS
        one = self.sweep(monkeypatch, cfg, 1)
        for chunk in (5, jobs):
            other = self.sweep(monkeypatch, cfg, chunk)
            assert other.to_json() == one.to_json()
            assert other.to_csv() == one.to_csv()

    # the per-job reference traces weights near the float64 limit
    def test_diverged_job_leaves_the_chunk_alone(self, monkeypatch):
        # at this step size some jobs diverge at different epochs and
        # minibatches, and the jobs of config 2 survive
        cfg = TrainConfig(eta=1e307, batch_size=16, epochs=8, seed=0)
        one = self.sweep(monkeypatch, cfg, 1)
        whole = self.sweep(monkeypatch, cfg, len(self.CONFIGS) * self.RUNS)
        assert whole.to_json() == one.to_json()
        assert whole.to_csv() == one.to_csv()
        errors = [run.error for c in whole.per_config for run in c.runs]
        diverged = {e for e in errors if e is not None}
        assert 0 < whole.excluded_runs < len(errors)
        assert len(diverged) > 1  # not all at the same step
        assert all(e.startswith("NumericalError: non-finite weights at epoch ") for e in diverged)
        self.assert_matches_reference(whole, cfg)

    @pytest.mark.parametrize("mode, init", [
        (Mode.GD, Init.ZEROS),
        (Mode.SGD, Init.GAUSSIAN_SCALED),
        (Mode.GD, Init.GAUSSIAN_SCALED),
    ])
    def test_matches_per_job_train(self, mode, init, monkeypatch):
        cfg = TrainConfig(eta=0.05, batch_size=16, epochs=6, seed=0, mode=mode, init=init)
        result = self.sweep(monkeypatch, cfg, 5)
        assert any(run.epochs_to_threshold for c in result.per_config for run in c.runs)
        self.assert_matches_reference(result, cfg)


class TestRetirement:
    CONFIGS = dict(pick_fraction=0.005, seed=1)
    CFG = TrainConfig(eta=0.01, batch_size=8, epochs=2)

    @staticmethod
    def dead(configs):
        return {j for j, p in enumerate(configs) if loss_derivative(p, 0.0) == 0.0}

    def test_runs_retired_after_epoch_one_are_the_dead_at_zero_configs(self):
        # under the zero init every margin starts at 0, so a run takes zero
        # steps in epoch 1, and retires, exactly when its config's loss
        # derivative at 0 is 0: the analytic frozen-at-init label
        configs = sample_grid(build_grid(GridSpec()), **self.CONFIGS)
        seeds = [run_seeds(5, i, 0) for i in range(len(configs))]
        sets = [split(generate(SyntheticSpec(m=40, seed=a)), 0.8, b) for a, b, _ in seeds]
        finished = {}
        for _ in _lockstep(
            configs, np.stack([_signed_features(tr) for tr, _ in sets]),
            np.stack([te.features for _, te in sets]), np.stack([te.labels for _, te in sets]),
            [np.random.default_rng(c) for _, _, c in seeds], self.CFG, {}, finished, retire=True,
        ):
            pass
        dead = self.dead(configs)
        assert 0 < len(dead) < len(configs)
        assert {j for j, (epoch, _) in finished.items() if epoch == 1} == dead
        assert len(finished) == len(configs)

    def test_sweep_trains_every_run_to_the_last_epoch(self, monkeypatch):
        configs = sample_grid(build_grid(GridSpec()), **self.CONFIGS)
        ended: dict[DCParams, int] = {}
        lockstep = sweep_module._lockstep

        def spy(params, *args, **kwargs):
            yield from lockstep(params, *args, **kwargs)
            finished = args[-1]
            ended.update((params[j], epoch) for j, (epoch, _) in finished.items())

        monkeypatch.setattr(sweep_module, "_lockstep", spy)
        run_sweep(configs, SyntheticSpec(m=40), self.CFG, runs=1, seed=5)
        assert self.dead(configs)
        assert set(ended) == set(configs)
        assert set(ended.values()) == {self.CFG.epochs}
