"""dc_optlab: differential-capability loss family, Lambert-W convergence
bounds, and a single-neuron GD/SGD experiment harness.

The package exports what the demos, the README quick start and the
acceptance tests use, plus the error classes; everything else is imported
from its submodule (``dc_optlab.neuron``, ``dc_optlab.sweep``, ...)."""

__version__ = "0.1.0"

from .errors import (
    DCOptLabError,
    DimensionError,
    DomainError,
    EmptyDatasetError,
    FormatError,
    NumericalError,
    ValidationError,
)
from .lambert_w import BRANCH_POINT, w0
from .dc_loss import (
    DCParams,
    classify_config,
    log_response_probability,
    loss_derivative,
    margin_transform,
    per_sample_loss,
    response_probability,
)
from .convergence import (
    bracket_curves,
    dc_rate,
    rate_curve,
    rate_onset,
    theorem_bracket,
    verify_theorem,
)
from .data import SyntheticSpec, generate, split
from .neuron import TrainConfig, save_trace_csv, train
from .sweep import GridSpec, build_grid, run_sweep, sample_grid

__all__ = [
    "BRANCH_POINT",
    "DCOptLabError",
    "DCParams",
    "DimensionError",
    "DomainError",
    "EmptyDatasetError",
    "FormatError",
    "GridSpec",
    "NumericalError",
    "SyntheticSpec",
    "TrainConfig",
    "ValidationError",
    "bracket_curves",
    "build_grid",
    "classify_config",
    "dc_rate",
    "generate",
    "log_response_probability",
    "loss_derivative",
    "margin_transform",
    "per_sample_loss",
    "rate_curve",
    "rate_onset",
    "response_probability",
    "run_sweep",
    "sample_grid",
    "save_trace_csv",
    "split",
    "theorem_bracket",
    "train",
    "verify_theorem",
    "w0",
]
