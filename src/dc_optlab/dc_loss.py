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
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError, check_number


@dataclass(frozen=True)
class DCParams:
    """Parameter bundle of the DC loss.

    r: growth rate of differential capability (finite, > 0)
    c: decay rate (finite, >= 0)
    d: item difficulty in margin units (finite, >= 0)
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
        check_number("r", self.r, 0, math.inf)
        check_number("c", self.c, 0, math.inf, "[)")
        check_number("d", self.d, 0, math.inf, "[)")
        check_number("p_d", self.p_d, 0, 1)
        object.__setattr__(self, "eps", self.c / self.r)
        if self.eps > 709.0:
            raise ValidationError(
                f"c/r = {self.eps!r} is too large: exp(c/r) overflows float64"
            )
        object.__setattr__(self, "a", math.exp(self.eps))
        object.__setattr__(self, "b", math.log(self.p_d) - self.eps)


class LossConfigKind(str, enum.Enum):
    """Configuration taxonomy keyed on (r vs 1, c vs 0)."""

    NO_DC = "no_dc"
    GROWING_DC = "growing_dc"
    DECAYING_DC = "decaying_dc"
    GROW_DECAY_DC = "grow_decay_dc"


# r is compared to 1 with this absolute tolerance; c to 0 exactly
R_UNIT_TOL = 1e-12


def _shifted_exp(t, r, d):
    # exp(-r*(t-d)), clipped so downstream products stay finite
    with np.errstate(over="ignore"):
        z = -r * (np.asarray(t, dtype=float) - d)
    return np.exp(np.clip(z, -745.0, 709.0))


def _probability(t, r, d, a, b):
    """a * exp(b * exp(-r*(t-d))) from floats, or from (R, 1) columns
    against (R, m) margins t (one row of constants per job); either way
    each element takes the same operations, so the bits agree."""
    u = _shifted_exp(t, r, d)
    with np.errstate(over="ignore"):
        return a * np.exp(b * u)


def response_probability(params: DCParams, t):
    """a * exp(b * exp(-r*(t-d))); equals p_d at t = d, tends to a as t -> inf."""
    out = _probability(t, params.r, params.d, params.a, params.b)
    return float(out) if out.ndim == 0 else out


def log_response_probability(params: DCParams, t):
    """log of response_probability: eps + b * exp(-r*(t-d)).

    Exact where the probability itself underflows to zero in float64; use
    this for monotonicity checks on wide t ranges.
    """
    u = _shifted_exp(t, params.r, params.d)
    with np.errstate(over="ignore"):
        out = params.eps + params.b * u
    return float(out) if out.ndim == 0 else out


def per_sample_loss(params: DCParams, t):
    """Negated response probability; strictly decreasing in t, range (-a, 0)."""
    out = -np.asarray(response_probability(params, t))
    return float(out) if out.ndim == 0 else out


def margin_transform(params: DCParams, t):
    """f(t) = r*(t-d) - b*exp(-r*(t-d)); equals -b > 0 at t = d.

    Where -s = -r*(t-d) > 709, exp(-s) overflows, so f is taken as
    s + exp(ln(-b) - s), with s = -inf replaced by the most negative
    float: it overflows to +inf only where f does.
    """
    with np.errstate(over="ignore"):
        s = params.r * (np.asarray(t, dtype=float) - params.d)
        s_finite = np.maximum(s, -sys.float_info.max)
        out = np.where(
            -s > 709.0,
            s_finite + np.exp(math.log(-params.b) - s_finite),
            s - params.b * np.exp(np.clip(-s, -745.0, 709.0)),
        )
    return float(out) if out.ndim == 0 else out


def _derivative_constants(params: DCParams) -> tuple[float, float, float, float]:
    """(r, d, b, k) of ``_dc_derivative`` for params: k = eps + ln(-b) + ln(r),
    the log of the derivative's scale a*(-b)*r, summed in this order."""
    return params.r, params.d, params.b, params.eps + math.log(-params.b) + math.log(params.r)


def _dc_derivative(t, r, d, b, k):
    """-exp(k - f(t)) = a*b*r * exp(-f(t)) from the ``_derivative_constants``.

    r, d, b and k are floats, or (R, 1) columns against (R, m) margins t
    (one row of constants per job); either way each element takes the
    same operations in the same order, so the bits agree. ``b * u`` may
    overflow to -inf, which the final exp maps to -0: callers silence
    the overflow warning (it runs once per minibatch, too often to pay
    for an ``errstate`` of its own).
    """
    s = r * (t - d)
    u = np.exp(np.minimum(np.maximum(-s, -745.0), 709.0))
    return -np.exp(np.minimum(k - s + b * u, 709.0))


def loss_derivative(params: DCParams, t):
    """d/dt of per_sample_loss: a*b*r * exp(-f(t)), always negative.

    The magnitude is assembled in log space, eps + ln(-b) + ln(r) - f(t),
    so extreme parameters (a up to e^709) and margins far left of d (where
    -f(t) -> -inf) stay free of overflow and inf*0 artifacts.
    """
    with np.errstate(over="ignore"):
        out = _dc_derivative(np.asarray(t, dtype=float), *_derivative_constants(params))
    return float(out) if out.ndim == 0 else out


def classify_config(params: DCParams) -> LossConfigKind:
    """Map params to its taxonomy cell; |r - 1| <= 1e-12 counts as r = 1."""
    unit_r = abs(params.r - 1.0) <= R_UNIT_TOL
    if params.c == 0.0:
        return LossConfigKind.NO_DC if unit_r else LossConfigKind.GROWING_DC
    return LossConfigKind.DECAYING_DC if unit_r else LossConfigKind.GROW_DECAY_DC
