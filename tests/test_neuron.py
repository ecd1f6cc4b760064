"""Single-neuron trainer: gradients, steps, accuracy, trace contract."""

import json
import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest

from dc_optlab import (
    DCParams,
    DimensionError,
    EmptyDatasetError,
    NumericalError,
    SyntheticSpec,
    TrainConfig,
    ValidationError,
    generate,
    loss_derivative,
    per_sample_loss,
    split,
    train,
)
from dc_optlab import dc_loss
from dc_optlab.data import Dataset
from dc_optlab.neuron import (
    Init,
    Mode,
    _accuracies,
    _lockstep,
    _signed_features,
    _train_metrics,
    accuracy,
    empirical_loss,
    gd_step,
    loss_gradient,
    margins,
    min_normalized_margin,
    trace_csv,
    train_with_weights,
    weights_json,
)
from conftest import random_params

PARAMS = DCParams(r=2.0, c=1.0, d=1.0, p_d=0.7)
NO_DC = DCParams(r=1.0, c=0.0, d=0.0, p_d=0.5)


def small_dataset():
    return Dataset(
        features=np.array([[1.0, 0.0], [0.5, -1.0], [-2.0, 0.25]]),
        labels=np.array([1, -1, 1]),
    )


class TestMargins:
    def test_zero_theta(self):
        assert np.array_equal(margins(np.zeros(2), small_dataset()), np.zeros(3))

    def test_single_sample_dot_product(self):
        data = Dataset(features=np.array([[1.0, 0.0]]), labels=np.array([1]))
        assert margins(np.array([2.0, -3.0]), data)[0] == 2.0

    def test_label_flip_negates(self):
        data = small_dataset()
        flipped = Dataset(features=data.features, labels=-data.labels)
        theta = np.array([0.3, -0.7])
        assert np.array_equal(margins(theta, flipped), -margins(theta, data))

    def test_scale_covariance(self):
        theta = np.array([0.4, 1.1])
        assert np.allclose(
            margins(3.0 * theta, small_dataset()),
            3.0 * margins(theta, small_dataset()),
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            margins(np.zeros(3), small_dataset())


class TestEmpiricalLoss:
    def test_zero_theta_is_m_times_loss_at_zero(self):
        data = small_dataset()
        expected = data.m * per_sample_loss(PARAMS, 0.0)
        assert empirical_loss(PARAMS, np.zeros(2), data) == pytest.approx(expected, rel=1e-15)

    def test_empty_dataset_sums_to_zero(self):
        empty = Dataset(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int))
        assert empirical_loss(PARAMS, np.ones(2), empty) == 0.0

    def test_matches_scalar_oracle(self, rng):
        data = small_dataset()
        theta = rng.normal(size=2)
        by_hand = sum(
            per_sample_loss(PARAMS, float(y * (x @ theta)))
            for x, y in zip(data.features, data.labels)
        )
        assert empirical_loss(PARAMS, theta, data) == pytest.approx(by_hand, rel=1e-14)


class TestLossGradient:
    def test_zero_theta_factorization(self):
        data = small_dataset()
        scalar = loss_derivative(PARAMS, 0.0)
        expected = scalar * np.einsum("i,ij->j", data.labels.astype(float), data.features)
        assert np.allclose(loss_gradient(PARAMS, np.zeros(2), data), expected, rtol=1e-14)

    def test_mirrored_pair_expansion(self):
        x = np.array([0.8, -0.3])
        data = Dataset(features=np.vstack([x, x]), labels=np.array([1, -1]))
        theta = np.array([0.5, 0.2])
        t = float(x @ theta)
        expected = loss_derivative(PARAMS, t) * x + loss_derivative(PARAMS, -t) * (-x)
        assert np.allclose(loss_gradient(PARAMS, theta, data), expected, rtol=1e-14)

    def test_finite_difference_agreement(self, rng):
        for _ in range(100):
            params = DCParams(
                r=float(rng.uniform(0.5, 3.0)),
                c=float(rng.uniform(0.0, 2.0)),
                d=float(rng.uniform(0.0, 3.0)),
                p_d=float(rng.uniform(0.2, 0.8)),
            )
            theta = rng.normal(size=2)
            data = Dataset(
                features=rng.normal(size=(10, 2)), labels=rng.choice((-1, 1), size=10)
            )
            grad = loss_gradient(params, theta, data)
            for j in range(2):
                h = 1e-6 * (1.0 + abs(theta[j]))
                up, dn = theta.copy(), theta.copy()
                up[j] += h
                dn[j] -= h
                fd = (empirical_loss(params, up, data) - empirical_loss(params, dn, data)) / (2 * h)
                assert abs(grad[j] - fd) <= 1e-6 * max(1.0, abs(fd))


class TestGdStep:
    def test_zero_gradient_fixed_point(self):
        theta = np.array([1.0, -2.0])
        assert np.array_equal(gd_step(theta, np.zeros(2), 0.1), theta)

    def test_arithmetic(self):
        out = gd_step(np.array([1.0, 1.0]), np.array([1.0, -1.0]), 0.5)
        assert np.array_equal(out, np.array([0.5, 1.5]))

    def test_two_steps_accumulate(self):
        theta = np.array([0.0, 0.0])
        g1, g2 = np.array([1.0, 2.0]), np.array([-0.5, 0.25])
        out = gd_step(gd_step(theta, g1, 0.1), g2, 0.1)
        assert np.allclose(out, theta - 0.1 * (g1 + g2), rtol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            gd_step(np.zeros(2), np.zeros(3), 0.1)


class TestAccuracy:
    def test_zero_theta_balanced(self):
        # sign(0) = +1, so zero weights predict +1 everywhere
        data = Dataset(features=np.ones((4, 2)), labels=np.array([1, 1, -1, -1]))
        assert accuracy(np.zeros(2), data) == 0.5

    def test_aligned_theta_perfect(self):
        data = generate(SyntheticSpec(m=40, noise_sigma=1e-6, seed=1))
        assert accuracy(np.ones(2), data) == 1.0

    def test_negated_theta_flips(self):
        data = small_dataset()
        theta = np.array([0.37, -0.91])  # no zero dot products here
        assert accuracy(theta, data) + accuracy(-theta, data) == pytest.approx(1.0)

    def test_scale_invariance(self):
        data = small_dataset()
        theta = np.array([0.37, -0.91])
        assert accuracy(theta, data) == accuracy(100.0 * theta, data)

    def test_empty_raises(self):
        empty = Dataset(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int))
        with pytest.raises(EmptyDatasetError):
            accuracy(np.zeros(2), empty)


@pytest.fixture(scope="module")
def blobs():
    data = generate(SyntheticSpec(m=120, seed=8))
    return split(data, 0.8, seed=8)


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def reference_norm(theta: np.ndarray) -> float:
    """||theta|| per run: np.linalg.norm, and where the squares overflow but
    theta is finite, max|theta| times the norm of theta / max|theta|."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(theta))
    if math.isinf(norm) and np.isfinite(theta).all():
        scale = float(np.max(np.abs(theta)))
        norm = scale * float(np.linalg.norm(theta / scale))
    return norm


def reference_metrics(params, theta, train_set, test_set) -> tuple[float, ...]:
    """(train loss, test accuracy, ||theta||, min normalized margin) of one
    run, each from its own per-run computation."""
    norm = reference_norm(theta)
    scores = np.einsum("ij,j->i", test_set.features, theta)
    hits = np.count_nonzero((scores >= 0.0) == (test_set.labels > 0))
    return (
        empirical_loss(params, theta, train_set),
        hits / test_set.m,
        norm,
        0.0 if norm == 0.0 else float(np.min(margins(theta, train_set)) / norm),
    )


def reference_train(params, train_set, test_set, cfg):
    """Per-run reference of ``train_with_weights``: one loss_gradient and
    gd_step per minibatch of Dataset.subset rows, and ``reference_metrics``
    after every epoch. Returns the final weights and the trace rows."""
    gen = np.random.default_rng(cfg.seed)
    theta = np.zeros(train_set.n)
    if cfg.init is Init.GAUSSIAN_SCALED:
        theta = gen.normal(0.0, 1.0 / math.sqrt(train_set.n), size=train_set.n)
    rows = []
    for epoch in range(1, cfg.epochs + 1):
        batches = [train_set]
        if cfg.mode is Mode.SGD:
            perm = gen.permutation(train_set.m)
            batches = [train_set.subset(perm[i:i + cfg.batch_size])
                       for i in range(0, train_set.m, cfg.batch_size)]
        for batch in batches:
            theta = gd_step(theta, loss_gradient(params, theta, batch), cfg.eta)
        rows.append((epoch, *reference_metrics(params, theta, train_set, test_set)))
    return theta, rows


class TestTrain:
    def test_vanishing_eta_freezes_weights(self, blobs):
        tr, te = blobs
        cfg = TrainConfig(eta=1e-300, batch_size=25, epochs=5, seed=0)
        traces = train(NO_DC, tr, te, cfg)
        norms = {t.theta_norm for t in traces}
        assert norms == {0.0}

    def test_gd_single_epoch_equals_manual_step(self, blobs):
        tr, te = blobs
        cfg = TrainConfig(eta=0.05, batch_size=tr.m, epochs=1, seed=0, mode=Mode.GD)
        theta, traces = train_with_weights(NO_DC, tr, te, cfg)
        manual = gd_step(np.zeros(2), loss_gradient(NO_DC, np.zeros(2), tr), 0.05)
        assert np.array_equal(theta, manual)
        assert traces[0].train_loss == empirical_loss(NO_DC, manual, tr)

    @pytest.mark.parametrize("mode", [Mode.SGD, Mode.GD])
    def test_steps_match_the_per_minibatch_loop(self, mode, blobs, rng):
        # training must take the reference's steps bit for bit
        tr, te = blobs
        for _ in range(25):
            params = random_params(rng)
            cfg = TrainConfig(eta=0.01, batch_size=16, epochs=3, mode=mode,
                              seed=int(rng.integers(1000)), init=Init.GAUSSIAN_SCALED)
            theta, _ = reference_train(params, tr, te, cfg)
            assert np.array_equal(train_with_weights(params, tr, te, cfg)[0], theta)

    @pytest.mark.parametrize("mode", [Mode.SGD, Mode.GD])
    @pytest.mark.parametrize("init", [Init.ZEROS, Init.GAUSSIAN_SCALED])
    def test_traces_match_the_per_run_metrics(self, mode, init, blobs, rng):
        tr, te = blobs
        for _ in range(10):
            params = random_params(rng)
            cfg = TrainConfig(eta=float(rng.choice([0.01, 0.5])), batch_size=16, epochs=4,
                              mode=mode, seed=int(rng.integers(1000)), init=init)
            theta, traces = train_with_weights(params, tr, te, cfg)
            ref_theta, ref_rows = reference_train(params, tr, te, cfg)
            assert bits(theta) == bits(ref_theta)
            assert [bits(astuple(t)) for t in traces] == [bits(row) for row in ref_rows]

    def test_deterministic_given_seed(self, blobs):
        tr, te = blobs
        cfg = TrainConfig(eta=0.01, batch_size=16, epochs=12, seed=99)
        assert train(NO_DC, tr, te, cfg) == train(NO_DC, tr, te, cfg)

    def test_seed_changes_sgd_path(self, blobs):
        tr, te = blobs
        a = train(NO_DC, tr, te, TrainConfig(eta=0.01, batch_size=16, epochs=3, seed=1))
        b = train(NO_DC, tr, te, TrainConfig(eta=0.01, batch_size=16, epochs=3, seed=2))
        assert a != b

    def test_gaussian_init_is_seeded(self, blobs):
        tr, te = blobs
        cfg = TrainConfig(eta=1e-300, batch_size=16, epochs=1, seed=4, init=Init.GAUSSIAN_SCALED)
        a = train(NO_DC, tr, te, cfg)
        b = train(NO_DC, tr, te, cfg)
        assert a == b
        assert a[0].theta_norm > 0

    def test_trace_well_formed(self, blobs):
        tr, te = blobs
        traces = train(NO_DC, tr, te, TrainConfig(eta=0.01, batch_size=16, epochs=7, seed=0))
        assert [t.epoch for t in traces] == list(range(1, 8))
        max_norm = float(np.max(np.linalg.norm(tr.features, axis=1)))
        for t in traces:
            assert 0.0 <= t.test_accuracy <= 1.0
            assert t.theta_norm >= 0.0
            assert -max_norm <= t.min_normalized_margin <= max_norm

    def test_empty_training_set_rejected(self, blobs):
        _, te = blobs
        empty = Dataset(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int))
        with pytest.raises(ValidationError):
            train(NO_DC, empty, te, TrainConfig(eta=0.1, batch_size=1, epochs=1, seed=0))

    def test_oversized_batch_rejected(self, blobs):
        tr, te = blobs
        with pytest.raises(ValidationError):
            train(NO_DC, tr, te, TrainConfig(eta=0.1, batch_size=tr.m + 1, epochs=1, seed=0))

    def test_empty_test_set_rejected(self, blobs):
        tr, _ = blobs
        empty = Dataset(features=np.zeros((0, 2)), labels=np.zeros(0, dtype=int))
        with pytest.raises(EmptyDatasetError, match="test split is empty"):
            train(NO_DC, tr, empty, TrainConfig(eta=0.1, batch_size=1, epochs=1, seed=0))

    def test_feature_count_mismatch_rejected(self, blobs):
        tr, te = blobs
        wide = Dataset(features=np.ones((te.m, 3)), labels=te.labels)
        with pytest.raises(DimensionError, match="train has 2 features but test has 3"):
            train(NO_DC, tr, wide, TrainConfig(eta=0.1, batch_size=1, epochs=1, seed=0))

    @pytest.mark.parametrize("eta", [math.inf, math.nan])
    def test_non_finite_eta_rejected(self, eta):
        with pytest.raises(ValidationError, match="eta must be finite"):
            TrainConfig(eta=eta)

    @pytest.mark.parametrize("kwargs", [
        dict(epochs=2.5), dict(batch_size=True), dict(seed=-1), dict(seed=1.0),
    ])
    def test_non_integer_or_negative_counts_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            TrainConfig(**kwargs)

    def test_numpy_scalars_accepted(self):
        cfg = TrainConfig(eta=np.float64(0.5), batch_size=np.int64(8), epochs=np.int64(2),
                          seed=np.int64(3))
        assert (cfg.eta, cfg.batch_size, cfg.epochs, cfg.seed) == (0.5, 8, 2, 3)

    def test_divergence_reports_position(self, blobs):
        tr, te = blobs
        cfg = TrainConfig(eta=1e308, batch_size=16, epochs=1, seed=0)
        with pytest.raises(NumericalError, match="epoch 1, minibatch"):
            train(NO_DC, tr, te, cfg)

    def test_separable_blobs_reach_high_accuracy(self):
        data = generate(SyntheticSpec(seed=21))
        tr, te = split(data, 0.8, seed=21)
        cfg = TrainConfig(eta=0.01, batch_size=75, epochs=60, seed=3)
        traces = train(NO_DC, tr, te, cfg)
        assert traces[-1].test_accuracy >= 0.9


# the benchmark's gd-fullbatch config 2, which full-batch GD drives far
# into the Gompertz tail, and its config 1, which stays out of it
SATURATING = DCParams(r=1.6521739130434785, c=1.5, d=1.5, p_d=0.9)
UNSATURATED = DCParams(r=0.1, c=2.5, d=5.0, p_d=0.9)


@pytest.fixture
def tail_rule(monkeypatch):
    """Records, per kernel call, each row's share of elements the tail rule
    filled (None where it took the whole formula); ``off()`` turns the
    rule off, so that the kernels compute every element."""
    tail_keep = dc_loss._tail_keep

    class Rule:
        def __init__(self):
            self.on, self.shares = True, []

        def off(self):
            self.on = False

        def keep(self, z, bound):
            keep = tail_keep(z, bound) if self.on else None
            self.shares.append(None if keep is None else 1.0 - keep.mean(axis=-1))
            return keep

    rule = Rule()
    monkeypatch.setattr(dc_loss, "_tail_keep", rule.keep)
    return rule


class TestSaturatedTraining:
    """Training far into the Gompertz tail, where the kernels fill most
    elements, against the per-run reference with the tail rule off."""

    # full-batch steps about as large as the benchmark's (eta 0.01 summed over
    # 80,000 rows): the weights reach the tail within two epochs
    CFG = dict(eta=8.0, epochs=6, mode=Mode.GD)

    @pytest.fixture
    def data(self):
        return split(generate(SyntheticSpec(m=100, seed=3)), 0.8, seed=3)

    def test_saturated_gd_run_matches_the_reference(self, data, tail_rule):
        tr, te = data
        cfg = TrainConfig(batch_size=tr.m, **self.CFG)
        theta, traces = train_with_weights(SATURATING, tr, te, cfg)
        filled = np.array([s for s in tail_rule.shares if s is not None])
        assert len(filled) >= 8 and filled.min() >= 0.8
        tail_rule.off()
        ref_theta, ref_rows = reference_train(SATURATING, tr, te, cfg)
        assert bits(theta) == bits(ref_theta)
        assert [bits(astuple(t)) for t in traces] == [bits(row) for row in ref_rows]

    def test_mixed_lockstep_chunk_matches_the_reference(self, data, tail_rule):
        tr, te = data
        cfg = TrainConfig(batch_size=tr.m, **self.CFG)
        params = [SATURATING, UNSATURATED]
        signed = np.stack([_signed_features(tr)] * 2)
        rngs = [np.random.default_rng(cfg.seed) for _ in params]
        rows = [[], []]
        for epoch, live, theta, acc in _lockstep(
            params, signed, np.stack([te.features] * 2), np.stack([te.labels] * 2),
            rngs, cfg, {}, {}, retire=True,
        ):
            assert live.tolist() == [0, 1]
            loss, norm, min_margin = _train_metrics(params, signed, theta)
            for j in live:
                rows[j].append((epoch, loss[j], acc[j], norm[j], min_margin[j]))
        filled = [s for s in tail_rule.shares if s is not None]
        assert max(s[0] for s in filled) >= 0.8 and max(s[1] for s in filled) == 0.0
        tail_rule.off()
        for j, p in enumerate(params):
            ref_theta, ref_rows = reference_train(p, tr, te, cfg)
            assert bits(theta[j]) == bits(ref_theta), j
            assert [bits(row) for row in rows[j]] == [bits(row) for row in ref_rows], j


# a paper-grid config whose derivative at margin 0 is exactly 0 (r*d = 60),
# so the zero init never moves, and one that large steps carry past both
# ends of its derivative's window within an epoch or two
DEAD = DCParams(r=12.0, c=12.0, d=5.0, p_d=0.5)
SNAPPING = DCParams(r=12.0, c=2.0, d=0.0, p_d=0.1)
GROWING = DCParams(r=4.0, c=0.0, d=0.0, p_d=0.5)


class TestRetirement:
    """A job whose derivatives were all ±0 for an epoch retires from the
    lockstep kernel; every job, retired, diverged or not, keeps the bits of
    the per-run reference."""

    EPOCHS = 6
    POOL = (DEAD, SNAPPING, SATURATING, NO_DC)

    @staticmethod
    def jobs(rng, params):
        """Per job: train set, test set and training seed, each its own."""
        seeds = rng.integers(2**31, size=(len(params), 3)).tolist()
        sets = [split(generate(SyntheticSpec(m=40, seed=a)), 0.8, seed=b) for a, b, _ in seeds]
        return [tr for tr, _ in sets], [te for _, te in sets], [c for _, _, c in seeds]

    @staticmethod
    def chunk(params, train_sets, test_sets, seeds, cfg):
        """One ``_lockstep`` chunk: each job's trace rows as yielded, and
        the ``diverged`` and ``finished`` it ends with."""
        signed = np.stack([_signed_features(t) for t in train_sets])
        rows = [[] for _ in params]
        diverged, finished = {}, {}
        for epoch, live, theta, acc in _lockstep(
            params, signed, np.stack([t.features for t in test_sets]),
            np.stack([t.labels for t in test_sets]),
            [np.random.default_rng(s) for s in seeds], cfg, diverged, finished, retire=True,
        ):
            loss, norm, min_margin = _train_metrics([params[j] for j in live], signed[live], theta)
            for i, j in enumerate(live):
                rows[j].append((epoch, loss[i], acc[i], norm[i], min_margin[i]))
        return rows, diverged, finished

    def assert_jobs_match_the_reference(self, params, train_sets, test_sets, seeds, cfg):
        """Each job of the chunk, and the job trained alone by
        ``train_with_weights``, against ``reference_train``; returns each
        job's outcome."""
        rows, diverged, finished = self.chunk(params, train_sets, test_sets, seeds, cfg)
        assert sorted([*diverged, *finished]) == list(range(len(params)))
        outcomes = []
        for j, p in enumerate(params):
            args = (p, train_sets[j], test_sets[j], replace(cfg, seed=seeds[j]))
            # near the float64 limit the reference's scalar norms and margins
            # overflow, and it steps on past a divergence
            with np.errstate(all="ignore"):
                ref_theta, ref_rows = reference_train(*args)
            if j in diverged:
                epoch = int(re.match(r"non-finite weights at epoch (\d+)", str(diverged[j]))[1])
                assert [bits(row) for row in rows[j]] == [bits(row) for row in ref_rows[:epoch - 1]]
                # the reference's weights leave the finite range in that epoch
                cut = replace(args[3], epochs=epoch)
                with np.errstate(all="ignore"):
                    assert not np.isfinite(reference_train(*args[:3], cut)[0]).all(), j
                    if epoch > 1:
                        before = reference_train(*args[:3], replace(cut, epochs=epoch - 1))[0]
                        assert np.isfinite(before).all(), j
                with pytest.raises(NumericalError) as alone:
                    train_with_weights(*args)
                assert str(alone.value) == str(diverged[j])
                outcomes.append("diverged")
                continue
            last, theta = finished[j]
            assert len(rows[j]) == last
            assert [bits(row) for row in rows[j]] == [bits(row) for row in ref_rows[:last]], j
            assert weights_json(theta) == weights_json(ref_theta) and bits(theta) == bits(ref_theta)
            alone_theta, traces = train_with_weights(*args)
            assert weights_json(alone_theta) == weights_json(ref_theta)
            assert [bits(astuple(t)) for t in traces] == [bits(row) for row in ref_rows], j
            if last == cfg.epochs:
                outcomes.append("ran every epoch")
            else:
                outcomes.append("frozen at init" if last == 1 else "froze later")
        return outcomes

    @pytest.mark.parametrize("mode", [Mode.GD, Mode.SGD])
    @pytest.mark.parametrize("init", [Init.ZEROS, Init.GAUSSIAN_SCALED])
    def test_fuzzed_chunks_match_the_reference(self, mode, init, rng):
        seen = set()
        for eta in (0.01, 0.5, 8.0, 1e307) * 2:
            cfg = TrainConfig(eta=eta, batch_size=8, epochs=self.EPOCHS, mode=mode, init=init)
            params = [
                self.POOL[rng.integers(len(self.POOL))] if rng.random() < 0.4
                else random_params(rng)
                for _ in range(10)
            ]
            seen.update(self.assert_jobs_match_the_reference(params, *self.jobs(rng, params), cfg))
        assert seen == {"frozen at init", "froze later", "ran every epoch", "diverged"}

    def test_all_frozen_chunk(self, rng):
        params = [DEAD, DCParams(r=12.0, c=0.0, d=5.0, p_d=0.9), DCParams(r=6.0, c=3.0, d=4.0, p_d=0.3)]
        assert all(loss_derivative(p, 0.0) == 0.0 for p in params)
        cfg = TrainConfig(eta=0.01, batch_size=8, epochs=self.EPOCHS)
        outcomes = self.assert_jobs_match_the_reference(params, *self.jobs(rng, params), cfg)
        assert outcomes == ["frozen at init"] * 3

    def test_all_diverged_in_epoch_one_chunk(self, rng):
        # no epoch is ever yielded
        params = [NO_DC, GROWING, NO_DC]
        cfg = TrainConfig(eta=1e308, batch_size=8, epochs=self.EPOCHS)
        jobs = self.jobs(rng, params)
        rows, diverged, _ = self.chunk(params, *jobs, cfg)
        assert rows == [[], [], []]
        assert all("at epoch 1," in str(exc) for exc in diverged.values())
        assert self.assert_jobs_match_the_reference(params, *jobs, cfg) == ["diverged"] * 3

    @pytest.mark.parametrize("mode", [Mode.GD, Mode.SGD])
    def test_job_that_freezes_in_its_last_epoch(self, mode, rng):
        params = [SNAPPING] * 6 + [NO_DC]
        jobs = self.jobs(rng, params)
        cfg = TrainConfig(eta=8.0, batch_size=8, epochs=self.EPOCHS, mode=mode)
        finished = self.chunk(params, *jobs, cfg)[2]
        j, (froze, theta) = next((j, f) for j, f in finished.items() if 1 < f[0] < cfg.epochs)
        for epochs in (froze, froze + 1):
            last = replace(cfg, epochs=epochs)
            self.assert_jobs_match_the_reference(params, *jobs, last)
            final = self.chunk(params, *jobs, last)[2][j]
            assert final[0] == froze and bits(final[1]) == bits(theta)

    def test_frozen_and_diverging_jobs_interleave(self):
        params = [DEAD, NO_DC, DEAD, GROWING, DEAD, NO_DC, DEAD, GROWING]
        cfg = TrainConfig(eta=1e307, batch_size=8, epochs=self.EPOCHS, mode=Mode.GD)
        jobs = self.jobs(np.random.default_rng(0), params)
        outcomes = self.assert_jobs_match_the_reference(params, *jobs, cfg)
        assert outcomes == ["frozen at init", "diverged"] * 4
        # one diverges after the frozen rows have left the chunk
        diverged = self.chunk(params, *jobs, cfg)[1]
        assert sorted(str(exc) for exc in diverged.values())[-1].endswith("epoch 2")


class TestExports:
    def test_trace_csv_shape(self):
        data = generate(SyntheticSpec(m=60, seed=2))
        tr, te = split(data, 0.8, seed=2)
        traces = train(NO_DC, tr, te, TrainConfig(eta=0.01, batch_size=12, epochs=4, seed=0))
        text = trace_csv(traces)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,train_loss,test_accuracy,theta_norm,min_normalized_margin"
        assert len(lines) == 5

    def test_weights_json(self):
        text = weights_json(np.array([0.25, -1.5]))
        assert json.loads(text) == {"theta": [0.25, -1.5]}

    def test_min_normalized_margin_zero_for_zero_theta(self):
        assert min_normalized_margin(np.zeros(2), small_dataset()) == 0.0

    def test_min_normalized_margin_bounded_by_feature_norm(self):
        data = small_dataset()
        theta = np.array([1.0, 2.0])
        val = min_normalized_margin(theta, data)
        assert abs(val) <= float(np.max(np.linalg.norm(data.features, axis=1)))


class TestTrainMetrics:
    """The batched epoch metrics against the per-run reference, row by row."""

    def jobs(self, rng, theta):
        r, m = theta.shape[0], 75
        params = [random_params(rng) for _ in range(r)]
        train_sets = [Dataset(features=rng.normal(size=(m, 2)) * 3,
                              labels=rng.choice((-1, 1), size=m)) for _ in range(r)]
        test_sets = [Dataset(features=rng.normal(size=(20, 2)),
                             labels=rng.choice((-1, 1), size=20)) for _ in range(r)]
        return params, train_sets, test_sets

    def assert_rows_match(self, params, train_sets, test_sets, theta):
        signed = np.stack([_signed_features(t) for t in train_sets])
        loss, norm, min_margin = _train_metrics(params, signed, theta)
        acc = _accuracies(np.stack([t.features for t in test_sets]),
                          np.stack([t.labels for t in test_sets]), theta)
        for j in range(theta.shape[0]):
            expected = reference_metrics(params[j], theta[j], train_sets[j], test_sets[j])
            assert bits((loss[j], acc[j], norm[j], min_margin[j])) == bits(expected), j
        return norm, min_margin

    def test_rows_match_the_per_run_reference(self, rng):
        direction = rng.normal(size=(64, 2))
        theta = direction * np.exp(rng.uniform(-30.0, 30.0, size=(64, 1)))
        self.assert_rows_match(*self.jobs(rng, theta), theta)

    def test_overflowing_squares_take_the_rescaled_norm(self, rng):
        theta = np.array([[1e200, -3e199], [0.5, 2.0]])
        with np.errstate(over="ignore"):
            assert np.isinf(theta[0] @ theta[0])
        norm, _ = self.assert_rows_match(*self.jobs(rng, theta), theta)
        assert np.isfinite(norm).all()

    def test_zero_weights_have_zero_min_margin(self, rng):
        theta = np.array([[0.0, 0.0], [0.5, -2.0]])
        norm, min_margin = self.assert_rows_match(*self.jobs(rng, theta), theta)
        assert norm[0] == 0.0 and bits(min_margin[0]) == bits(0.0)
