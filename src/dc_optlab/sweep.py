"""Hyperparameter sweep: full Cartesian grid over (d, p_d, r, c), a seeded
random pick of a small fraction of it, repeated training runs per config,
and aggregation into configuration families.

Per-run seeding is pinned: run (i, k) of the sweep draws its data, split,
and training seeds from numpy's SeedSequence([sweep_seed, i, k]), so each
run varies both the dataset realization and the SGD shuffling, results are
independent of execution order, and re-running a sweep reproduces it byte
for byte.
"""

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .dc_loss import DCParams, LossConfigKind, classify_config
from .data import SyntheticSpec, csv_text, generate, split
from .errors import DCOptLabError, ValidationError
from .neuron import EpochTrace, TrainConfig, train

# families that compete for a "best" entry; decaying-only configs are
# recorded but de-emphasized
BEST_FAMILIES = (
    LossConfigKind.NO_DC,
    LossConfigKind.GROWING_DC,
    LossConfigKind.GROW_DECAY_DC,
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
            if not (
                isinstance(rng, (tuple, list))
                and len(rng) == 2
                and all(_is_real(v) and math.isfinite(v) for v in rng)
                and rng[0] <= rng[1]
            ):
                raise ValidationError(
                    f"{name} must be two finite numbers lo <= hi, got {rng!r}"
                )
        for name in ("d_steps", "p_steps", "r_steps", "c_steps", "runs"):
            value = getattr(self, name)
            if not (_is_int(value) and value >= 1):
                raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
        if not (_is_real(self.pick_fraction) and 0 < self.pick_fraction <= 1):
            raise ValidationError(
                f"pick_fraction must be in (0, 1], got {self.pick_fraction!r}"
            )
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValidationError(f"seed must be an integer >= 0, got {self.seed!r}")

    def to_dict(self) -> dict:
        return {
            "d_range": list(self.d_range),
            "d_steps": self.d_steps,
            "p_d_range": list(self.p_d_range),
            "p_steps": self.p_steps,
            "r_range": list(self.r_range),
            "r_steps": self.r_steps,
            "c_range": list(self.c_range),
            "c_steps": self.c_steps,
            "pick_fraction": self.pick_fraction,
            "runs": self.runs,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "GridSpec":
        kwargs = dict(obj)
        for key in ("d_range", "p_d_range", "r_range", "c_range"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


def _axis(rng: tuple[float, float], steps: int) -> np.ndarray:
    return np.linspace(rng[0], rng[1], steps)


def build_grid(spec: GridSpec) -> list[DCParams]:
    """Cartesian product, endpoints inclusive, ordered d-outermost to
    c-innermost."""
    grid = []
    for d in _axis(spec.d_range, spec.d_steps):
        for p_d in _axis(spec.p_d_range, spec.p_steps):
            for r in _axis(spec.r_range, spec.r_steps):
                for c in _axis(spec.c_range, spec.c_steps):
                    grid.append(DCParams(r=float(r), c=float(c), d=float(d), p_d=float(p_d)))
    return grid


def sample_grid(grid: list[DCParams], pick_fraction: float, seed: int) -> list[DCParams]:
    """ceil(pick_fraction * |grid|) distinct configs, seeded, grid order kept."""
    if not 0 < pick_fraction <= 1:
        raise ValidationError(
            f"pick_fraction must be in (0, 1], got {pick_fraction!r}"
        )
    k = math.ceil(pick_fraction * len(grid))
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(len(grid), size=k, replace=False))
    return [grid[i] for i in idx]


@dataclass
class RunSummary:
    """One training run of one config; error set means the run is excluded."""

    run: int
    final_loss: float | None
    final_accuracy: float | None
    epochs_to_threshold: int | None
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "run": self.run,
            "final_loss": self.final_loss,
            "final_accuracy": self.final_accuracy,
            "epochs_to_threshold": self.epochs_to_threshold,
            "error": self.error,
        }


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
            "runs": [r.to_dict() for r in self.runs],
            "mean_final_accuracy": self.mean_final_accuracy,
            "std_final_accuracy": self.std_final_accuracy,
            "excluded": self.excluded,
        }


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

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_csv(self) -> str:
        nan = float("nan")
        return csv_text(
            ("config_id", "r", "c", "d", "p_d", "kind", "run", "final_loss", "final_accuracy"),
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
                        else self.per_config[
                            [c.config_id for c in self.per_config].index(best)
                        ].mean_final_accuracy
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


def _one_run(
    params: DCParams,
    config_index: int,
    run_index: int,
    data_spec: SyntheticSpec,
    train_cfg: TrainConfig,
    sweep_seed: int,
    accuracy_threshold: float,
) -> RunSummary:
    data_seed, split_seed, train_seed = run_seeds(sweep_seed, config_index, run_index)
    try:
        data = generate(replace(data_spec, seed=data_seed))
        train_set, test_set = split(data, data_spec.split_fraction, split_seed)
        traces = train(params, train_set, test_set, replace(train_cfg, seed=train_seed))
    except DCOptLabError as exc:
        return RunSummary(
            run=run_index,
            final_loss=None,
            final_accuracy=None,
            epochs_to_threshold=None,
            error=f"{type(exc).__name__}: {exc}",
        )
    hit = next(
        (t.epoch for t in traces if t.test_accuracy >= accuracy_threshold), None
    )
    last = traces[-1]
    return RunSummary(
        run=run_index,
        final_loss=last.train_loss,
        final_accuracy=last.test_accuracy,
        epochs_to_threshold=hit,
    )


def run_sweep(
    configs: list[DCParams],
    data_spec: SyntheticSpec,
    train_cfg: TrainConfig,
    runs: int,
    seed: int,
    accuracy_threshold: float = 0.95,
) -> SweepResult:
    """Train every config `runs` times and aggregate.

    Failed runs are recorded with their error and excluded from the
    mean/std; the exclusion count is reported. Family bests maximize mean
    final accuracy with ties broken by grid order; decaying-only configs
    never receive a best entry.
    """
    if not configs:
        raise ValidationError("configs must be nonempty")
    if not runs >= 1:
        raise ValidationError(f"runs must be >= 1, got {runs!r}")

    per_config: list[ConfigResult] = []
    excluded_total = 0
    for i, params in enumerate(configs):
        summaries = [
            _one_run(params, i, k, data_spec, train_cfg, seed, accuracy_threshold)
            for k in range(runs)
        ]
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


@dataclass
class CurveStats:
    """Per-epoch mean and sample std of train loss and test accuracy."""

    epochs: np.ndarray
    mean_train_loss: np.ndarray
    std_train_loss: np.ndarray
    mean_test_accuracy: np.ndarray
    std_test_accuracy: np.ndarray


def aggregate_curves(traces: list[list[EpochTrace]]) -> CurveStats:
    """Average epoch-aligned traces; std is the sample deviation (0 for a
    single trace). Raises ``ValidationError`` on ragged input."""
    if not traces:
        raise ValidationError("need at least one trace")
    length = len(traces[0])
    if any(len(t) != length for t in traces):
        raise ValidationError("traces must all have the same length")
    loss = np.array([[t.train_loss for t in tr] for tr in traces])
    acc = np.array([[t.test_accuracy for t in tr] for tr in traces])
    ddof = 1 if len(traces) > 1 else 0
    std_loss = np.std(loss, axis=0, ddof=ddof) if len(traces) > 1 else np.zeros(length)
    std_acc = np.std(acc, axis=0, ddof=ddof) if len(traces) > 1 else np.zeros(length)
    return CurveStats(
        epochs=np.array([t.epoch for t in traces[0]]),
        mean_train_loss=np.mean(loss, axis=0),
        std_train_loss=std_loss,
        mean_test_accuracy=np.mean(acc, axis=0),
        std_test_accuracy=std_acc,
    )
