"""Principal branch W0 of the Lambert function on its real domain [-1/e, inf).

W0 inverts w -> w*exp(w). Evaluation uses Halley's iteration seeded by a
regime-dependent initial guess:

* branch-point series in p = sqrt(2*(e*x + 1)) for x in [-1/e, -0.25],
* w ~ x for |x| < 0.25,
* log(1 + x) for 0.25 <= x <= e,
* the asymptotic log(x) - log(log(x)) for x > e.

Halley converges cubically; the iteration stops when every step drops
below 1e-15 * (1 + |w|) and is capped at 50 rounds. An element whose update
leaves it unchanged is at a fixed point (its step is under half an ulp of
w, so below the tolerance) and is retired from the working arrays; later
rounds run only on the elements still moving. Arguments within ~1e-3 of
-1/e can alternate between neighbouring doubles without meeting the
tolerance, so the cap is reached on most certificate grids, but only those
few elements pay for it, and the results are bit-identical to iterating the
whole array. When the cap is reached, the elements still moving must
satisfy |w*exp(w) - x| <= 1e-12 * max(1, |x|); otherwise ``NumericalError``
names the first such argument.

Above x = 1e307, Halley's product (w + 2) * f overflows float64 (from about
3e307 on), which would zero the step and return the initial guess. There
w0 solves ln w + w = ln x by Newton's iteration in log space instead,
from the same guess; arguments up to 1e307 keep the Halley path and its
bits.

Inputs within 1e-12 below -1/e are clamped to the branch point (callers hit
it through rounding), anything lower raises ``DomainError``.
"""

import numpy as np

from .errors import DomainError, NumericalError

BRANCH_POINT = -1.0 / np.e
DOMAIN_SLACK = 1e-12

_MAX_ITER = 50
_STEP_TOL = 1e-15
_LOG_SPACE_MIN = 1e307


def _initial_guess(x: np.ndarray) -> np.ndarray:
    w = np.empty_like(x)

    near_branch = x <= -0.25
    if near_branch.any():
        # series around w = -1: w = -1 + p - p^2/3 + 11 p^3/72
        p = np.sqrt(np.maximum(2.0 * (np.e * x[near_branch] + 1.0), 0.0))
        w[near_branch] = -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * (11.0 / 72.0)))

    small = (x > -0.25) & (x < 0.25)
    w[small] = x[small]

    mid = (x >= 0.25) & (x <= np.e)
    w[mid] = np.log1p(x[mid])

    large = x > np.e
    if large.any():
        lx = np.log(x[large])
        w[large] = lx - np.log(lx)

    return w


def _halley_round(w: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, bool]:
    """One Halley round for w*exp(w) = x: the updated w, and whether every
    step met the tolerance |step| <= 1e-15 * (1 + |w|)."""
    ew = np.exp(w)
    f = w * ew - x
    wp1 = w + 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        step = f / denom
    # at the branch point itself (wp1 == 0) the guess is already exact
    step = np.where(np.isfinite(step), step, 0.0)
    new = w - step
    return new, bool(np.all(np.abs(step) <= _STEP_TOL * (1.0 + np.abs(new))))


def _log_space_newton(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Solve ln w + w = ln x from the guess w by Newton's iteration, which
    no float64 x overflows; for x above 1e307 (w > 700) it meets the step
    tolerance within a few rounds."""
    lx = np.log(x)
    for _ in range(_MAX_ITER):
        step = (np.log(w) + w - lx) * w / (w + 1.0)
        w = w - step
        if np.all(np.abs(step) <= _STEP_TOL * (1.0 + np.abs(w))):
            break
    return w


def w0(x):
    """Evaluate W0 at ``x`` (scalar or array_like).

    Returns w with |w*exp(w) - x| <= 1e-12 * max(1, |x|). Raises
    ``DomainError`` for x < -1/e - 1e-12; values inside the slack are
    treated as the branch point itself and map to -1. Raises
    ``NumericalError`` if an element still moving after the last Halley
    round misses that residual bound.
    """
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)

    if np.any(~np.isfinite(arr)):
        raise DomainError("w0 requires finite arguments")
    if np.any(arr < BRANCH_POINT - DOMAIN_SLACK):
        bad = float(arr[arr < BRANCH_POINT - DOMAIN_SLACK][0])
        raise DomainError(
            f"w0 argument {bad!r} is below the branch point -1/e ~ {BRANCH_POINT!r}"
        )

    xa = np.maximum(arr, BRANCH_POINT)
    w = _initial_guess(xa)

    # idx, wa, xa: positions, iterates and arguments of the elements still
    # moving. An element left unchanged by its update is at a fixed point:
    # each later round would recompute the same sub-half-ulp step, which
    # passes the step test and changes no bit.
    idx, wa = np.arange(w.size), w
    big = xa > _LOG_SPACE_MIN
    if big.any():
        w[big] = _log_space_newton(w[big], xa[big])
        idx, wa, xa = idx[~big], w[~big], xa[~big]
    for _ in range(_MAX_ITER):
        new, settled = _halley_round(wa, xa)
        if settled:
            w[idx] = new
            break
        moving = new != wa
        idx, wa, xa = idx[moving], new[moving], xa[moving]
        w[idx] = wa
        del new  # before the next round allocates its temporaries
    else:
        with np.errstate(over="ignore"):
            bad = np.abs(wa * np.exp(wa) - xa) > 1e-12 * np.maximum(1.0, np.abs(xa))
        if bad.any():
            raise NumericalError(
                f"w0 did not converge in {_MAX_ITER} Halley rounds at "
                f"x={float(arr[idx[bad][0]])!r}"
            )

    return float(w[0]) if scalar else w
