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
from dataclasses import astuple, dataclass, fields

import numpy as np

from .dc_loss import (
    DCParams,
    _dc_derivative,
    _derivative_constants,
    loss_derivative,
    per_sample_loss,
)
from .errors import (
    DimensionError,
    EmptyDatasetError,
    NumericalError,
    ValidationError,
    check_number,
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
        check_number("eta", self.eta, 0, math.inf)
        check_number("batch_size", self.batch_size, 1, math.inf, "[)", integer=True)
        check_number("epochs", self.epochs, 1, math.inf, "[)", integer=True)
        check_number("seed", self.seed, 0, math.inf, "[)", integer=True)
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

    May return non-finite entries for divergent steps.
    """
    theta = np.asarray(theta, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if theta.shape != grad.shape:
        raise DimensionError(
            f"theta shape {theta.shape} does not match grad shape {grad.shape}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        return theta - eta * grad


def _hit_rate(scores: np.ndarray, labels: np.ndarray):
    """Fraction of sign(score) == label along the last axis; sign(0) counts
    as +1. Takes (m,) or (R, m) scores and labels."""
    return np.count_nonzero((scores >= 0.0) == (labels > 0), axis=-1) / labels.shape[-1]


def accuracy(theta: np.ndarray, data: Dataset) -> float:
    """Fraction of samples with sign(theta . x) == y; sign(0) counts as +1."""
    theta = _check_theta(theta, data)
    if data.m == 0:
        raise EmptyDatasetError("accuracy of an empty dataset is undefined")
    return float(_hit_rate(np.einsum("ij,j->i", data.features, theta), data.labels))


def _norm(theta: np.ndarray) -> float:
    """||theta||, also where the squares overflow but theta is finite: then
    theta is rescaled by max|theta| first."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(theta))
    if math.isinf(norm) and np.isfinite(theta).all():
        scale = float(np.max(np.abs(theta)))
        norm = scale * float(np.linalg.norm(np.divide(theta, scale)))
    return norm


def min_normalized_margin(theta: np.ndarray, data: Dataset) -> float:
    """min_i y_i * (theta . x_i) / ||theta||; 0 when theta is all zeros."""
    norm = _norm(theta)
    if norm == 0.0 or data.m == 0:
        return 0.0
    return float(np.min(margins(theta, data)) / norm)


def _initial_theta(cfg: TrainConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    if cfg.init is Init.ZEROS:
        return np.zeros(n)
    return rng.normal(0.0, 1.0 / math.sqrt(n), size=n)


def _check_training_sets(train_set: Dataset, test_set: Dataset, cfg: TrainConfig) -> None:
    """Reject datasets that ``train`` cannot run on (typed errors, no training)."""
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
    if test_set.m == 0:
        raise EmptyDatasetError("accuracy of an empty dataset is undefined")


def _signed_features(data: Dataset) -> np.ndarray:
    """labels * features row by row: margins are signed @ theta. A sign flip
    is exact, so margins and gradients keep the bits of the unsigned forms."""
    return data.labels[:, None] * data.features


def _lockstep(
    params: list[DCParams],
    signed: np.ndarray,
    rngs: list[np.random.Generator],
    cfg: TrainConfig,
    diverged: dict[int, NumericalError],
):
    """Train R jobs in lockstep; yield (epoch, live, theta) after every epoch.

    Job j minimizes the loss of ``params[j]`` on its training set, given as
    ``signed[j]`` (an (m, n) ``_signed_features`` block, the same shape for
    every job), drawing its initial weights and epoch permutations from
    ``rngs[j]``. Every job takes the same steps, with the same bits, as a
    run of its own: margins, the loss derivative (``_dc_derivative`` on
    per-job constant columns) and the summed gradient are computed per row
    with the same elementwise operations and reductions. ``live`` holds the
    indices of the jobs still training and ``theta`` their (len(live), n)
    weights. A job whose weights
    leave the finite range stops, and ``diverged[j]`` gets a ``NumericalError``
    that names its epoch (and minibatch, for SGD).
    """
    m, n = signed.shape[1:]
    r, d, b, k = np.array([_derivative_constants(p) for p in params]).T[..., None]
    theta = np.array([_initial_theta(cfg, n, rng) for rng in rngs])
    live = np.arange(len(rngs))
    sgd = cfg.mode is Mode.SGD
    step = cfg.batch_size if sgd else m
    for epoch in range(1, cfg.epochs + 1):
        if sgd:
            # every job's rows in its own epoch order, gathered once
            order = np.array([rng.permutation(m) for rng in rngs])
            order += np.arange(0, order.size, m)[:, None]
            epoch_rows = signed.reshape(-1, n).take(order, axis=0)
        else:
            epoch_rows = signed
        with np.errstate(over="ignore", invalid="ignore"):
            for batch_index, start in enumerate(range(0, m, step)):
                batch = epoch_rows[:, start:start + step]
                deriv = _dc_derivative(np.einsum("rij,rj->ri", batch, theta), r, d, b, k)
                theta = theta - cfg.eta * np.einsum("ri,rij->rj", deriv, batch)
                if np.isfinite(theta).all():
                    continue
                finite = np.isfinite(theta).all(axis=1)
                where = f"epoch {epoch}, minibatch {batch_index}" if sgd else f"epoch {epoch}"
                for j in live[~finite]:
                    diverged[int(j)] = NumericalError(f"non-finite weights at {where}")
                live, theta, r, d, b, k, signed, epoch_rows = (
                    a[finite] for a in (live, theta, r, d, b, k, signed, epoch_rows)
                )
                rngs = [rng for rng, keep in zip(rngs, finite) if keep]
                if not live.size:
                    return
        yield epoch, live, theta


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
    _check_training_sets(train_set, test_set, cfg)
    diverged: dict[int, NumericalError] = {}
    epochs = _lockstep(
        [params], _signed_features(train_set)[None], [np.random.default_rng(cfg.seed)],
        cfg, diverged,
    )
    traces: list[EpochTrace] = []
    for epoch, _, weights in epochs:
        theta = weights[0]
        traces.append(
            EpochTrace(
                epoch=epoch,
                train_loss=empirical_loss(params, theta, train_set),
                test_accuracy=accuracy(theta, test_set),
                theta_norm=_norm(theta),
                min_normalized_margin=min_normalized_margin(theta, train_set),
            )
        )
    if diverged:
        raise diverged[0]
    return theta, traces


def train(
    params: DCParams,
    train_set: Dataset,
    test_set: Dataset,
    cfg: TrainConfig,
) -> list[EpochTrace]:
    """Like ``train_with_weights`` but returns only the epoch traces."""
    return train_with_weights(params, train_set, test_set, cfg)[1]


TRACE_HEADER = tuple(f.name for f in fields(EpochTrace))


def trace_csv(traces: list[EpochTrace]) -> str:
    return csv_text(TRACE_HEADER, (astuple(t) for t in traces))


def save_trace_csv(traces: list[EpochTrace], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(trace_csv(traces))


def weights_json(theta: np.ndarray) -> str:
    return json.dumps({"theta": [float(v) for v in np.asarray(theta, dtype=float)]})
