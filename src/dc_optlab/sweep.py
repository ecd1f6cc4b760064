"""Hyperparameter sweep: full Cartesian grid over (d, p_d, r, c), a seeded
random pick of a small fraction of it, repeated training runs per config,
and aggregation into configuration families.

Per-run seeding is pinned: run (i, k) of the sweep draws its data, split,
and training seeds from numpy's SeedSequence([sweep_seed, i, k]), so each
run varies both the dataset realization and the SGD shuffling.

Runs train in lockstep chunks of (i, k) jobs: one vectorised loop advances
every job of a chunk, each on its own data, loss constants and generator,
with the per-row operations of a run trained alone (``neuron._lockstep``).
Results are therefore independent of execution order and of chunking, and
re-running a sweep reproduces it byte for byte.

Every job of a sweep trains for all of its epochs. ``_lockstep`` can
retire a job after an epoch in which all of its loss derivatives were
±0, which is exact (the job would stand still from then on) and which
``train`` does; about two thirds of the paper pick have a derivative of
exactly 0 at margin 0, so under the default zero init their runs would
retire after epoch 1. The sweep keeps it off because its time would then
depend on how many of its configs are frozen at init: the two-config
``sgd-protocol`` benchmark workload would time no live run on some seeds
and one on others, some hundred-fold apart, and could no longer compare
two versions of the sweep. Turning it on waits for that workload to
sweep a sample large enough to hold a steady frozen share.
"""

import json
import math
import operator
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dc_loss import DCParams, LossConfigKind, classify_config
from .data import SyntheticSpec, csv_text, generate, split
from .errors import NumericalError, ValidationError, check_number
from .neuron import (
    TrainConfig,
    _check_training_sets,
    _lockstep,
    _signed_features,
    _train_metrics,
)

# jobs trained together by one lockstep pass. At the protocol's m=1000,
# n=2 throughput stops growing past about 16 jobs a chunk, while peak
# memory grows about 80 KB a job.
_CHUNK = 64

# the test accuracy whose first epoch a run reports as epochs_to_threshold
ACCURACY_THRESHOLD = 0.95

# families that compete for a "best" entry; decaying-only configs are
# recorded but de-emphasized
BEST_FAMILIES = (
    LossConfigKind.NO_DC,
    LossConfigKind.GROWING_DC,
    LossConfigKind.GROW_DECAY_DC,
)


@dataclass(frozen=True)
class GridSpec:
    """Axis ranges with linear step counts, pick fraction, and run budget.

    Default ranges d in [0,5], p_d in [0.1,0.9], r in [0.1,12], c in [0,12]
    with (11, 9, 24, 25) points give a 59,400-config grid; 2.5% of it is
    1,485 sampled configs.
    """

    d_range: tuple[float, float] = (0.0, 5.0)
    d_steps: int = 11
    p_d_range: tuple[float, float] = (0.1, 0.9)
    p_steps: int = 9
    r_range: tuple[float, float] = (0.1, 12.0)
    r_steps: int = 24
    c_range: tuple[float, float] = (0.0, 12.0)
    c_steps: int = 25
    pick_fraction: float = 0.025
    runs: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("d_range", "p_d_range", "r_range", "c_range"):
            rng = getattr(self, name)
            if not (isinstance(rng, (tuple, list)) and len(rng) == 2):
                raise ValidationError(f"{name} must be a pair (lo, hi), got {rng!r}")
            check_number(f"{name} lo", rng[0], -math.inf, math.inf)
            check_number(f"{name} hi", rng[1], rng[0], math.inf, "[)")
            object.__setattr__(self, name, tuple(rng))
        for name in ("d_steps", "p_steps", "r_steps", "c_steps", "runs"):
            check_number(name, getattr(self, name), 1, math.inf, "[)", integer=True)
        check_number("pick_fraction", self.pick_fraction, 0, 1, "(]")
        check_number("seed", self.seed, 0, math.inf, "[)", integer=True)


def _axis(rng: tuple[float, float], steps: int) -> list[float]:
    return np.linspace(rng[0], rng[1], steps).tolist()


class _Grid(Sequence):
    """The Cartesian grid of a GridSpec as a read-only sequence: index ->
    DCParams by mixed radix over the axes, d slowest, c fastest."""

    def __init__(self, spec: GridSpec):
        self._axes = (
            _axis(spec.d_range, spec.d_steps),
            _axis(spec.p_d_range, spec.p_steps),
            _axis(spec.r_range, spec.r_steps),
            _axis(spec.c_range, spec.c_steps),
        )
        self._len = math.prod(len(axis) for axis in self._axes)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index) -> DCParams:
        index = operator.index(index)
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError(f"grid index {index} out of range")
        values = []
        for axis in reversed(self._axes):
            index, pos = divmod(index, len(axis))
            values.append(axis[pos])
        c, r, p_d, d = values
        return DCParams(r=r, c=c, d=d, p_d=p_d)


def build_grid(spec: GridSpec) -> Sequence[DCParams]:
    """Cartesian product, endpoints inclusive, ordered d-outermost to
    c-innermost. Entries are built on access, not stored."""
    return _Grid(spec)


def sample_grid(grid: Sequence[DCParams], pick_fraction: float, seed: int) -> list[DCParams]:
    """ceil(pick_fraction * |grid|) distinct configs, seeded, grid order kept."""
    check_number("pick_fraction", pick_fraction, 0, 1, "(]")
    check_number("seed", seed, 0, math.inf, "[)", integer=True)
    k = math.ceil(pick_fraction * len(grid))
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(len(grid), size=k, replace=False))
    return [grid[i] for i in idx]


@dataclass
class RunSummary:
    """One training run of one config; error set means it diverged and is excluded."""

    run: int
    final_loss: float | None
    final_accuracy: float | None
    epochs_to_threshold: int | None
    error: str | None = None


@dataclass
class ConfigResult:
    config_id: int
    params: DCParams
    kind: LossConfigKind
    runs: list[RunSummary]
    mean_final_accuracy: float | None
    std_final_accuracy: float | None
    excluded: int

    def to_dict(self) -> dict:
        return {
            "config_id": self.config_id,
            "r": self.params.r,
            "c": self.params.c,
            "d": self.params.d,
            "p_d": self.params.p_d,
            "kind": self.kind.value,
            "runs": [asdict(r) for r in self.runs],
            "mean_final_accuracy": self.mean_final_accuracy,
            "std_final_accuracy": self.std_final_accuracy,
            "excluded": self.excluded,
        }


SWEEP_HEADER = ("config_id", "r", "c", "d", "p_d", "kind", "run", "final_loss", "final_accuracy")


@dataclass
class SweepResult:
    per_config: list[ConfigResult]
    family_best: dict[str, int]  # family value -> config_id
    accuracy_threshold: float
    runs_per_config: int
    excluded_runs: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "runs_per_config": self.runs_per_config,
            "accuracy_threshold": self.accuracy_threshold,
            "excluded_runs": self.excluded_runs,
            "family_best": dict(sorted(self.family_best.items())),
            "family_table": self.family_table(),
            "per_config": [c.to_dict() for c in self.per_config],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_csv(self) -> str:
        nan = float("nan")
        return csv_text(
            SWEEP_HEADER,
            (
                (
                    cfg.config_id, cfg.params.r, cfg.params.c, cfg.params.d, cfg.params.p_d,
                    cfg.kind.value, run.run,
                    nan if run.final_loss is None else run.final_loss,
                    nan if run.final_accuracy is None else run.final_accuracy,
                )
                for cfg in self.per_config
                for run in cfg.runs
            ),
        )

    def family_table(self) -> list[dict]:
        """Per-family comparison rows: emitted for inspection, not asserted."""
        rows = []
        for kind in LossConfigKind:
            members = [c for c in self.per_config if c.kind is kind]
            scored = [c for c in members if c.mean_final_accuracy is not None]
            best = self.family_best.get(kind.value)
            rows.append(
                {
                    "family": kind.value,
                    "n_configs": len(members),
                    "best_config_id": best,
                    "best_mean_accuracy": (
                        None
                        if best is None
                        else self.per_config[best].mean_final_accuracy
                    ),
                    "avg_mean_accuracy": (
                        float(np.mean([c.mean_final_accuracy for c in scored]))
                        if scored
                        else None
                    ),
                }
            )
        return rows


def run_seeds(sweep_seed: int, config_index: int, run_index: int) -> tuple[int, int, int]:
    """(data, split, train) seeds for run k of config i: SeedSequence
    entropy [sweep_seed, i, k], three uint64 draws."""
    ss = np.random.SeedSequence(entropy=[sweep_seed, config_index, run_index])
    a, b, c = ss.generate_state(3, dtype=np.uint64)
    return int(a), int(b), int(c)


def _train_chunk(
    configs: list[DCParams],
    jobs: list[tuple[int, int]],
    data_spec: SyntheticSpec,
    train_cfg: TrainConfig,
    sweep_seed: int,
    accuracy_threshold: float,
) -> list[RunSummary]:
    """Summaries of the (config, run) jobs, in order, trained in lockstep.

    Each job draws its data and split and passes the checks ``train``
    makes, which raise as they do there. The jobs train together in one
    ``_lockstep``, which gives their test accuracy every epoch and, with
    retirement off (see the module docstring), runs every job that does
    not diverge to the last epoch. A job that diverges is excluded with
    its ``NumericalError``; the final train loss of the others comes from
    one ``_train_metrics`` call on the weights they finished with.
    """
    params, train_sets, test_sets, rngs = [], [], [], []
    for i, k in jobs:
        data_seed, split_seed, train_seed = run_seeds(sweep_seed, i, k)
        data = generate(replace(data_spec, seed=data_seed))
        train_set, test_set = split(data, data_spec.split_fraction, split_seed)
        _check_training_sets(train_set, test_set, train_cfg)
        params.append(configs[i])
        train_sets.append(train_set)
        test_sets.append(test_set)
        rngs.append(np.random.default_rng(train_seed))

    signed = np.stack([_signed_features(t) for t in train_sets])
    reached = np.zeros(len(jobs), dtype=int)  # first epoch at the threshold, 0 if none
    final_acc = np.zeros(len(jobs))
    final_loss = np.zeros(len(jobs))
    diverged: dict[int, NumericalError] = {}
    finished: dict[int, tuple[int, np.ndarray]] = {}
    steps = _lockstep(
        params, signed, np.stack([t.features for t in test_sets]),
        np.stack([t.labels for t in test_sets]), rngs, train_cfg, diverged, finished,
        retire=False,
    )
    for epoch, live, theta, acc in steps:
        final_acc[live] = acc
        reached[live[(acc >= accuracy_threshold) & (reached[live] == 0)]] = epoch
    if finished:
        rows = sorted(finished)
        final_loss[rows] = _train_metrics(
            [params[j] for j in rows], signed[rows], np.array([finished[j][1] for j in rows])
        )[0]

    return [
        RunSummary(k, None, None, None, f"NumericalError: {diverged[row]}") if row in diverged
        else RunSummary(
            run=k,
            final_loss=float(final_loss[row]),
            final_accuracy=float(final_acc[row]),
            epochs_to_threshold=int(reached[row]) or None,
        )
        for row, (_, k) in enumerate(jobs)
    ]


def run_sweep(
    configs: list[DCParams],
    data_spec: SyntheticSpec,
    train_cfg: TrainConfig,
    runs: int,
    seed: int,
    accuracy_threshold: float = ACCURACY_THRESHOLD,
) -> SweepResult:
    """Train every config `runs` times and aggregate.

    A run is excluded only when it diverges: it is recorded with its
    ``NumericalError`` and left out of the mean/std, and the exclusion
    count is reported. Data, split and batch-size errors raise as in
    ``train``. Family bests maximize mean final accuracy with ties broken
    by grid order; decaying-only configs never receive a best entry.
    """
    if not configs:
        raise ValidationError("configs must be nonempty")
    check_number("runs", runs, 1, math.inf, "[)", integer=True)
    check_number("seed", seed, 0, math.inf, "[)", integer=True)
    check_number("accuracy_threshold", accuracy_threshold, 0, 1, "[]")

    jobs = [(i, k) for i in range(len(configs)) for k in range(runs)]
    done: list[RunSummary] = []
    for start in range(0, len(jobs), _CHUNK):
        done += _train_chunk(
            configs, jobs[start:start + _CHUNK], data_spec, train_cfg, seed, accuracy_threshold
        )

    per_config: list[ConfigResult] = []
    excluded_total = 0
    for i, params in enumerate(configs):
        summaries = done[i * runs:(i + 1) * runs]
        good = [s.final_accuracy for s in summaries if s.error is None]
        excluded = runs - len(good)
        excluded_total += excluded
        if good:
            mean = float(np.mean(good))
            std = float(np.std(good, ddof=1)) if len(good) > 1 else 0.0
        else:
            mean = std = None
        per_config.append(
            ConfigResult(
                config_id=i,
                params=params,
                kind=classify_config(params),
                runs=summaries,
                mean_final_accuracy=mean,
                std_final_accuracy=std,
                excluded=excluded,
            )
        )

    family_best: dict[str, int] = {}
    for kind in BEST_FAMILIES:
        candidates = [
            c for c in per_config if c.kind is kind and c.mean_final_accuracy is not None
        ]
        if candidates:
            best = max(candidates, key=lambda c: (c.mean_final_accuracy, -c.config_id))
            family_best[kind.value] = best.config_id

    return SweepResult(
        per_config=per_config,
        family_best=family_best,
        accuracy_threshold=accuracy_threshold,
        runs_per_config=runs,
        excluded_runs=excluded_total,
        seed=seed,
    )
