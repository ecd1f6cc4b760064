"""Differential-capability (DC) loss family built on the Gompertz curve.

The response curve is a two-parameter-logistic item-response model reshaped
by a growth rate r and a decay rate c:

    response_probability(t) = a * exp(b * exp(-r*(t - d)))

with derived constants eps = c/r, a = exp(eps), b = ln(p_d) - eps. At the
difficulty t = d the curve passes through p_d exactly; it rises from 0 to
the plateau a. Note the curve is strictly increasing in t for every valid
parameter set: the "decay" rate c moves the plateau a = exp(c/r) and the
offset b, it does not bend the shape downward.

The trained objective negates the response probability so that its
derivative

    loss_derivative(t) = a*b*r * exp(-f(t)),   f(t) = r*(t-d) - b*exp(-r*(t-d))

is strictly negative (b < 0), placing the loss in the monotone family whose
derivative is -exp(-f(t)) up to the constant ln(a*(-b)*r).
"""

import enum
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class DCParams:
    """Parameter bundle of the DC loss.

    r: growth rate of differential capability (> 0)
    c: decay rate (>= 0)
    d: item difficulty in margin units (>= 0)
    p_d: probability of a correct response at t = d (in (0, 1))

    Derived (never serialized): eps = c/r, a = exp(eps), b = ln(p_d) - eps.
    """

    r: float
    c: float
    d: float
    p_d: float
    eps: float = field(init=False, repr=False, compare=False)
    a: float = field(init=False, repr=False, compare=False)
    b: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.r > 0:
            raise ValidationError(f"r must be > 0, got {self.r!r}")
        if not self.c >= 0:
            raise ValidationError(f"c must be >= 0, got {self.c!r}")
        if not self.d >= 0:
            raise ValidationError(f"d must be >= 0, got {self.d!r}")
        if not 0 < self.p_d < 1:
            raise ValidationError(f"p_d must be in (0, 1), got {self.p_d!r}")
        object.__setattr__(self, "eps", self.c / self.r)
        if self.eps > 709.0:
            raise ValidationError(
                f"c/r = {self.eps!r} is too large: exp(c/r) overflows float64"
            )
        object.__setattr__(self, "a", math.exp(self.eps))
        object.__setattr__(self, "b", math.log(self.p_d) - self.eps)

    def to_json(self) -> str:
        return json.dumps({"r": self.r, "c": self.c, "d": self.d, "p_d": self.p_d})

    @classmethod
    def from_json(cls, text: str) -> "DCParams":
        obj = json.loads(text)
        try:
            return cls(r=obj["r"], c=obj["c"], d=obj["d"], p_d=obj["p_d"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed DCParams JSON: {exc}") from exc


class LossConfigKind(str, enum.Enum):
    """Configuration taxonomy keyed on (r vs 1, c vs 0)."""

    NO_DC = "no_dc"
    GROWING_DC = "growing_dc"
    DECAYING_DC = "decaying_dc"
    GROW_DECAY_DC = "grow_decay_dc"


# r is compared to 1 with this absolute tolerance; c to 0 exactly
R_UNIT_TOL = 1e-12


def _shifted_exp(params: DCParams, t):
    # exp(-r*(t-d)), clipped so downstream products stay finite
    z = -params.r * (np.asarray(t, dtype=float) - params.d)
    return np.exp(np.clip(z, -745.0, 709.0))


def response_probability(params: DCParams, t):
    """a * exp(b * exp(-r*(t-d))); equals p_d at t = d, tends to a as t -> inf."""
    u = _shifted_exp(params, t)
    with np.errstate(over="ignore"):
        out = params.a * np.exp(params.b * u)
    return float(out) if out.ndim == 0 else out


def log_response_probability(params: DCParams, t):
    """log of response_probability: eps + b * exp(-r*(t-d)).

    Exact where the probability itself underflows to zero in float64; use
    this for monotonicity checks on wide t ranges.
    """
    u = _shifted_exp(params, t)
    with np.errstate(over="ignore"):
        out = params.eps + params.b * u
    return float(out) if out.ndim == 0 else out


def per_sample_loss(params: DCParams, t):
    """Negated response probability; strictly decreasing in t, range (-a, 0)."""
    out = -np.asarray(response_probability(params, t))
    return float(out) if out.ndim == 0 else out


def margin_transform(params: DCParams, t):
    """f(t) = r*(t-d) - b*exp(-r*(t-d)); equals -b > 0 at t = d."""
    s = params.r * (np.asarray(t, dtype=float) - params.d)
    with np.errstate(over="ignore"):
        out = s - params.b * np.exp(np.clip(-s, -745.0, 709.0))
    return float(out) if out.ndim == 0 else out


def loss_derivative(params: DCParams, t):
    """d/dt of per_sample_loss: a*b*r * exp(-f(t)), always negative.

    The magnitude is assembled in log space, eps + ln(-b) + ln(r) - f(t),
    so extreme parameters (a up to e^709) and margins far left of d (where
    -f(t) -> -inf) stay free of overflow and inf*0 artifacts.
    """
    s = params.r * (np.asarray(t, dtype=float) - params.d)
    u = np.exp(np.clip(-s, -745.0, 709.0))
    with np.errstate(over="ignore"):
        log_mag = params.eps + math.log(-params.b) + math.log(params.r) - s + params.b * u
    out = -np.exp(np.minimum(log_mag, 709.0))
    return float(out) if out.ndim == 0 else out


def classify_config(params: DCParams) -> LossConfigKind:
    """Map params to its taxonomy cell; |r - 1| <= 1e-12 counts as r = 1."""
    unit_r = abs(params.r - 1.0) <= R_UNIT_TOL
    if params.c == 0.0:
        return LossConfigKind.NO_DC if unit_r else LossConfigKind.GROWING_DC
    return LossConfigKind.DECAYING_DC if unit_r else LossConfigKind.GROW_DECAY_DC
