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
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .dc_loss import (
    DCParams,
    _dc_derivative,
    _derivative_constants,
    _probability,
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
from .data import Dataset, csv_text, write_text


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


def _accuracies(features: np.ndarray, labels: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Test accuracy of R jobs: the fraction of sign(theta[j] . x) == y over
    job j's (m, n) ``features[j]`` and (m,) ``labels[j]``; sign(0) counts as
    +1."""
    scores = np.einsum("rij,rj->ri", features, theta)
    return np.count_nonzero((scores >= 0.0) == (labels > 0), axis=1) / labels.shape[1]


def accuracy(theta: np.ndarray, data: Dataset) -> float:
    """Fraction of samples with sign(theta . x) == y; sign(0) counts as +1."""
    theta = _check_theta(theta, data)
    if data.m == 0:
        raise EmptyDatasetError("accuracy of an empty dataset is undefined")
    return float(_accuracies(data.features[None], data.labels[None], theta[None])[0])


def _norms(theta: np.ndarray) -> np.ndarray:
    """||theta[j]|| of each row of an (R, n) array, also where the squares
    overflow but the row is finite: then it is rescaled by its max|theta|
    first; a norm beyond the float64 range is inf. The stacked matmul gives
    each row the bits of ``np.linalg.norm`` (sqrt of a dot product); einsum
    and ``np.linalg.norm(axis=1)`` do not always."""
    with np.errstate(over="ignore"):
        norms = np.sqrt((theta[:, None, :] @ theta[:, :, None])[:, 0, 0])
        big = np.isinf(norms) & np.isfinite(theta).all(axis=1)
        if big.any():
            scale = np.max(np.abs(theta[big]), axis=1, keepdims=True)
            norms[big] = scale[:, 0] * _norms(theta[big] / scale)
    return norms


def _min_normalized(t: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Each row's min margin of (R, m) margins t over its norm; 0 where the
    norm is 0, NaN where both overflowed."""
    with np.errstate(invalid="ignore"):
        return np.divide(np.min(t, axis=1), norms, out=np.zeros_like(norms), where=norms != 0.0)


def min_normalized_margin(theta: np.ndarray, data: Dataset) -> float:
    """min_i y_i * (theta . x_i) / ||theta||; 0 when theta is all zeros."""
    if data.m == 0:
        return 0.0
    theta = _check_theta(theta, data)
    return float(_min_normalized(margins(theta, data)[None], _norms(theta[None]))[0])


def _train_metrics(
    params: list[DCParams], signed: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(train loss, ||theta||, min normalized margin) of R jobs, from one
    margin product.

    Job j is ``params[j]`` on its training set ``signed[j]`` (an (m, n)
    ``_signed_features`` block) at weights ``theta[j]``. Each value has the
    bits of that job's ``empirical_loss``, ``np.linalg.norm`` (rescaled as
    in ``_norms``) and ``min_normalized_margin``.
    """
    t = np.einsum("rij,rj->ri", signed, theta)
    r, d, a, b = np.array([(p.r, p.d, p.a, p.b) for p in params]).T[..., None]
    loss = np.sum(-_probability(t, r, d, a, b), axis=1)  # per_sample_loss, summed
    norms = _norms(theta)
    return loss, norms, _min_normalized(t, norms)


def _initial_theta(cfg: TrainConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    if cfg.init is Init.ZEROS:
        return np.zeros(n)
    return rng.normal(0.0, 1.0 / math.sqrt(n), size=n)


def _check_training_sets(train_set: Dataset, test_set: Dataset, cfg: TrainConfig) -> None:
    """Reject datasets that ``train`` cannot run on (typed errors, no training)."""
    if train_set.m == 0:
        raise ValidationError("training set must be nonempty")
    if test_set.m == 0:
        raise EmptyDatasetError(f"test split is empty: all {train_set.m} samples went to training")
    if train_set.n != test_set.n:
        raise DimensionError(
            f"train has {train_set.n} features but test has {test_set.n}"
        )
    if cfg.batch_size > train_set.m:
        raise ValidationError(
            f"batch_size {cfg.batch_size} exceeds training set size {train_set.m}"
        )


def _signed_features(data: Dataset) -> np.ndarray:
    """labels * features row by row: margins are signed @ theta. A sign flip
    is exact, so margins and gradients keep the bits of the unsigned forms."""
    return data.labels[:, None] * data.features


def _derivative_columns(params: list[DCParams]) -> np.ndarray:
    """The ``_derivative_constants`` (r, d, b, k) of R jobs, each an (R, 1) column."""
    return np.array([_derivative_constants(p) for p in params]).T[..., None]


def _summed_gradient(signed, theta, r, d, b, k) -> tuple[np.ndarray, np.ndarray]:
    """(deriv, grad) of R jobs, the bits of ``loss_derivative`` and ``loss_gradient``, at (R, n)
    theta on (R, B, n) ``_signed_features`` rows with ``_derivative_columns`` r, d, b, k."""
    deriv = _dc_derivative(np.einsum("rij,rj->ri", signed, theta), r, d, b, k)
    return deriv, np.einsum("ri,rij->rj", deriv, signed)


def _lockstep(
    params: list[DCParams],
    signed: np.ndarray,
    test_x: np.ndarray,
    test_y: np.ndarray,
    rngs: list[np.random.Generator],
    cfg: TrainConfig,
    diverged: dict[int, NumericalError],
    finished: dict[int, tuple[int, np.ndarray]],
    retire: bool,
):
    """Train R jobs in lockstep; yield (epoch, live, theta, test accuracy)
    after every epoch.

    Job j minimizes the loss of ``params[j]`` on its training set, given as
    ``signed[j]`` (an (m, n) ``_signed_features`` block, the same shape for
    every job), drawing its initial weights and epoch permutations from
    ``rngs[j]``, and is scored on ``test_x[j]``/``test_y[j]`` (its test
    features and labels, stacked like ``signed``). Every job takes the same
    steps, with the same bits, as a run of its own: margins, the loss
    derivative (``_dc_derivative`` on per-job constant columns) and the
    summed gradient are computed per row with the same elementwise
    operations and reductions. ``live`` holds the indices of the jobs still
    training, ``theta`` their (len(live), n) weights and the accuracy their
    (len(live),) ``_accuracies``. A job whose weights leave the finite range
    is dropped from every per-job array, and ``diverged[j]`` gets a
    ``NumericalError`` that names its epoch (and minibatch, for SGD).

    Every other job ends in ``finished[j] = (epoch, theta)``: after the
    last epoch, or, with ``retire``, earlier, when it retires. A job
    retires after an epoch in which every derivative it computed was ±0.
    That is exact: no step
    of the epoch moved theta, so each of its m training samples was scored
    at that one theta and gave 0, and every later minibatch, whatever the
    permutation, is a subset of them. Its theta, test accuracy and train
    loss therefore stay as they are (a zero step could only turn a -0.0
    weight into +0.0, and no step makes a -0.0 from a zero or gaussian
    init), and its generator, read only for permutations, has no draw left
    that matters. A NaN derivative counts as a move, so a job that
    diverges still does so where it would. A retired job is dropped from
    every per-job array after the yield of its last epoch.
    """
    m, n = signed.shape[1:]
    r, d, b, k = _derivative_columns(params)
    theta = np.array([_initial_theta(cfg, n, rng) for rng in rngs])
    live = np.arange(len(rngs))
    rngs = np.array(rngs, dtype=object)
    sgd = cfg.mode is Mode.SGD
    step = cfg.batch_size if sgd else m

    def keep_only(keep):
        nonlocal live, theta, moved, r, d, b, k, signed, test_x, test_y, rngs
        live, theta, moved, r, d, b, k, signed, test_x, test_y, rngs = (
            a[keep] for a in (live, theta, moved, r, d, b, k, signed, test_x, test_y, rngs)
        )

    for epoch in range(1, cfg.epochs + 1):
        if sgd:
            # every job's rows in its own epoch order, gathered once
            order = np.array([rng.permutation(m) for rng in rngs])
            order += np.arange(0, order.size, m)[:, None]
            epoch_rows = signed.reshape(-1, n).take(order, axis=0)
        else:
            epoch_rows = signed
        moved = np.full(live.size, not retire)
        with np.errstate(over="ignore", invalid="ignore"):
            for batch_index, start in enumerate(range(0, m, step)):
                batch = epoch_rows[:, start:start + step]
                deriv, grad = _summed_gradient(batch, theta, r, d, b, k)
                if retire:
                    moved |= deriv.any(axis=1)
                theta = theta - cfg.eta * grad
                if np.isfinite(theta).all():
                    continue
                finite = np.isfinite(theta).all(axis=1)
                where = f"epoch {epoch}, minibatch {batch_index}" if sgd else f"epoch {epoch}"
                for j in live[~finite]:
                    diverged[int(j)] = NumericalError(f"non-finite weights at {where}")
                epoch_rows = epoch_rows[finite]
                keep_only(finite)
                if not live.size:
                    return
        yield epoch, live, theta, _accuracies(test_x, test_y, theta)
        if not moved.all():
            for j, job_theta in zip(live[~moved], theta[~moved]):
                finished[int(j)] = (epoch, job_theta)
            keep_only(moved)
            if not live.size:
                return
    for j, job_theta in zip(live, theta):
        finished[int(j)] = (cfg.epochs, job_theta)


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
    epoch. The run is ``_lockstep`` with one job, which gives each epoch's
    test accuracy; ``_train_metrics`` gives the rest of its trace. A run
    that retires (an epoch whose derivatives were all ±0; see
    ``_lockstep``) stands still from then on, so the trace repeats the
    retiring epoch's row, epoch number advanced, which has the bits the
    remaining epochs would compute, and the weights are the retired ones.
    Raises ``NumericalError`` with epoch/minibatch coordinates if the
    weights leave the finite range.
    """
    _check_training_sets(train_set, test_set, cfg)
    signed = _signed_features(train_set)[None]
    diverged: dict[int, NumericalError] = {}
    finished: dict[int, tuple[int, np.ndarray]] = {}
    epochs = _lockstep(
        [params], signed, test_set.features[None], test_set.labels[None],
        [np.random.default_rng(cfg.seed)], cfg, diverged, finished, retire=True,
    )
    traces: list[EpochTrace] = []
    for epoch, _, theta, acc in epochs:
        loss, norm, min_margin = _train_metrics([params], signed, theta)
        traces.append(
            EpochTrace(
                epoch=epoch,
                train_loss=float(loss[0]),
                test_accuracy=float(acc[0]),
                theta_norm=float(norm[0]),
                min_normalized_margin=float(min_margin[0]),
            )
        )
    if diverged:
        raise diverged[0]
    last, theta = finished[0]
    traces += [replace(traces[-1], epoch=epoch) for epoch in range(last + 1, cfg.epochs + 1)]
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
    write_text(path, trace_csv(traces))


def weights_json(theta: np.ndarray) -> str:
    return json.dumps({"theta": [float(v) for v in np.asarray(theta, dtype=float)]})
