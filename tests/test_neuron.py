"""Single-neuron trainer: gradients, steps, accuracy, trace contract."""

import json
import math
from dataclasses import astuple

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
from dc_optlab.data import Dataset
from dc_optlab.neuron import (
    Init,
    Mode,
    _accuracies,
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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_squares_take_the_rescaled_norm(self, rng):
        theta = np.array([[1e200, -3e199], [0.5, 2.0]])
        with np.errstate(over="ignore"):
            assert np.isinf(theta[0] @ theta[0])
        norm, _ = self.assert_rows_match(*self.jobs(rng, theta), theta)
        assert np.isfinite(norm).all()

    @pytest.mark.filterwarnings("error")
    def test_zero_weights_have_zero_min_margin(self, rng):
        theta = np.array([[0.0, 0.0], [0.5, -2.0]])
        norm, min_margin = self.assert_rows_match(*self.jobs(rng, theta), theta)
        assert norm[0] == 0.0 and bits(min_margin[0]) == bits(0.0)
