"""Single-neuron linear classifier trained by full-batch GD or minibatch SGD
on the summed DC loss.

The model is homogeneous (no bias): score = theta . x, margin = y * score.
Minibatch gradients are sums, not means, so the step size keeps the same
meaning across batch sizes. Training is a pure function of (params,
datasets, config): the seeded generator drives initialization and epoch
shuffling, and all reductions avoid threaded BLAS paths, so repeated runs
are bit-identical.
"""

import enum
import json
import math
from dataclasses import dataclass

import numpy as np

from .dc_loss import DCParams, loss_derivative, per_sample_loss
from .errors import (
    DimensionError,
    EmptyDatasetError,
    NumericalError,
    ValidationError,
)
from .data import Dataset, csv_text


class Mode(str, enum.Enum):
    GD = "gd"
    SGD = "sgd"


class Init(str, enum.Enum):
    ZEROS = "zeros"
    GAUSSIAN_SCALED = "gaussian_scaled"


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings: fixed step size, batch, epochs, seed, mode, init."""

    eta: float = 0.01
    batch_size: int = 75
    epochs: int = 1500
    seed: int = 0
    mode: Mode = Mode.SGD
    init: Init = Init.ZEROS

    def __post_init__(self):
        if not self.eta > 0:
            raise ValidationError(f"eta must be > 0, got {self.eta!r}")
        if not self.batch_size >= 1:
            raise ValidationError(f"batch_size must be >= 1, got {self.batch_size!r}")
        if not self.epochs >= 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs!r}")
        object.__setattr__(self, "mode", Mode(self.mode))
        object.__setattr__(self, "init", Init(self.init))


@dataclass(frozen=True)
class EpochTrace:
    """Metrics recorded after the last step of each epoch (1-based)."""

    epoch: int
    train_loss: float
    test_accuracy: float
    theta_norm: float
    min_normalized_margin: float


def _check_theta(theta: np.ndarray, data: Dataset) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:
        raise DimensionError(f"theta must be 1-D, got ndim={theta.ndim}")
    if theta.shape[0] != data.n:
        raise DimensionError(
            f"theta has {theta.shape[0]} entries but features have {data.n} columns"
        )
    return theta


def margins(theta: np.ndarray, data: Dataset) -> np.ndarray:
    """Per-sample margins y_i * (theta . x_i)."""
    theta = _check_theta(theta, data)
    return data.labels * np.einsum("ij,j->i", data.features, theta)


def empirical_loss(params: DCParams, theta: np.ndarray, data: Dataset) -> float:
    """Sum of per-sample losses over the dataset (0 for an empty set)."""
    t = margins(theta, data)
    return float(np.sum(per_sample_loss(params, t))) if t.size else 0.0


def loss_gradient(params: DCParams, theta: np.ndarray, data: Dataset) -> np.ndarray:
    """Analytic gradient: sum_i loss_derivative(t_i) * y_i * x_i."""
    theta = _check_theta(theta, data)
    if data.m == 0:
        return np.zeros_like(theta)
    t = margins(theta, data)
    coeff = np.asarray(loss_derivative(params, t)) * data.labels
    # einsum keeps the reduction on numpy's single-threaded path
    return np.einsum("i,ij->j", coeff, data.features)


def gd_step(theta: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    """One fixed-step update theta - eta * grad.

    May return non-finite entries for divergent steps; ``train`` turns
    those into ``NumericalError``.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if theta.shape != grad.shape:
        raise DimensionError(
            f"theta shape {theta.shape} does not match grad shape {grad.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        return theta - eta * grad


def accuracy(theta: np.ndarray, data: Dataset) -> float:
    """Fraction of samples with sign(theta . x) == y; sign(0) counts as +1."""
    theta = _check_theta(theta, data)
    if data.m == 0:
        raise EmptyDatasetError("accuracy of an empty dataset is undefined")
    scores = np.einsum("ij,j->i", data.features, theta)
    pred = np.where(scores >= 0.0, 1, -1)
    return float(np.count_nonzero(pred == data.labels) / data.m)


def min_normalized_margin(theta: np.ndarray, data: Dataset) -> float:
    """min_i y_i * (theta . x_i) / ||theta||; 0 when theta is all zeros."""
    norm = float(np.linalg.norm(theta))
    if norm == 0.0 or data.m == 0:
        return 0.0
    return float(np.min(margins(theta, data)) / norm)


def _initial_theta(cfg: TrainConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    if cfg.init is Init.ZEROS:
        return np.zeros(n)
    return rng.normal(0.0, 1.0 / math.sqrt(n), size=n)


def train_with_weights(
    params: DCParams,
    train_set: Dataset,
    test_set: Dataset,
    cfg: TrainConfig,
) -> tuple[np.ndarray, list[EpochTrace]]:
    """Run cfg.epochs passes; return the final weights and one trace per epoch.

    SGD shuffles indices each epoch with the seeded generator and visits
    ceil(m/batch_size) minibatches (the last may be short), stepping once
    per minibatch on the summed gradient. GD takes one full-batch step per
    epoch. Raises ``NumericalError`` with epoch/minibatch coordinates if
    the weights leave the finite range.
    """
    if train_set.m == 0:
        raise ValidationError("training set must be nonempty")
    if train_set.n != test_set.n:
        raise DimensionError(
            f"train has {train_set.n} features but test has {test_set.n}"
        )
    if cfg.batch_size > train_set.m:
        raise ValidationError(
            f"batch_size {cfg.batch_size} exceeds training set size {train_set.m}"
        )

    rng = np.random.default_rng(cfg.seed)
    theta = _initial_theta(cfg, train_set.n, rng)

    m = train_set.m
    traces: list[EpochTrace] = []
    for epoch in range(1, cfg.epochs + 1):
        if cfg.mode is Mode.GD:
            theta = gd_step(theta, loss_gradient(params, theta, train_set), cfg.eta)
            if not np.all(np.isfinite(theta)):
                raise NumericalError(f"non-finite weights at epoch {epoch}")
        else:
            perm = rng.permutation(m)
            for k, start in enumerate(range(0, m, cfg.batch_size)):
                batch = train_set.subset(perm[start:start + cfg.batch_size])
                theta = gd_step(theta, loss_gradient(params, theta, batch), cfg.eta)
                if not np.all(np.isfinite(theta)):
                    raise NumericalError(
                        f"non-finite weights at epoch {epoch}, minibatch {k}"
                    )
        traces.append(
            EpochTrace(
                epoch=epoch,
                train_loss=empirical_loss(params, theta, train_set),
                test_accuracy=accuracy(theta, test_set),
                theta_norm=float(np.linalg.norm(theta)),
                min_normalized_margin=min_normalized_margin(theta, train_set),
            )
        )
    return theta, traces


def train(
    params: DCParams,
    train_set: Dataset,
    test_set: Dataset,
    cfg: TrainConfig,
) -> list[EpochTrace]:
    """Like ``train_with_weights`` but returns only the epoch traces."""
    return train_with_weights(params, train_set, test_set, cfg)[1]


TRACE_HEADER = ("epoch", "train_loss", "test_accuracy", "theta_norm", "min_normalized_margin")


def trace_csv(traces: list[EpochTrace]) -> str:
    return csv_text(
        TRACE_HEADER,
        (
            (t.epoch, t.train_loss, t.test_accuracy, t.theta_norm, t.min_normalized_margin)
            for t in traces
        ),
    )


def save_trace_csv(traces: list[EpochTrace], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(trace_csv(traces))


def weights_json(theta: np.ndarray) -> str:
    return json.dumps({"theta": [float(v) for v in np.asarray(theta, dtype=float)]})
