"""Convergence rate of the DC loss and numerical certificates for its bounds.

The rate is the inverse of the margin transform f(t) = r*(t-d) - b*exp(-r*(t-d)):

    dc_rate(z) = d + (W0(b*exp(-z)) + z) / r

evaluated on the principal Lambert branch. The W0 argument leaves the real
branch below the onset z_min = ln(-b) + 1; requests below it raise
``DomainError``. Against the default rate g(z) = z, the shifted enclosure

    b/z + z  <=  W0(b*exp(-z)) + z  <=  b*(ln z - z)/(z*ln z) + z     (z > e)

straddles z from below and above; ``verify_theorem`` certifies this on a
grid and reports worst-case margins.
"""

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .dc_loss import DCParams
from .errors import DomainError, ValidationError
from .lambert_w import BLOCK, BRANCH_POINT, DOMAIN_SLACK, w0


def rate_onset(params: DCParams) -> float:
    """Smallest z with a real-valued rate: ln(-b) + 1."""
    return math.log(-params.b) + 1.0


def dc_rate(params: DCParams, z):
    """d + (W0(b*exp(-z)) + z) / r for z at or above the onset ln(-b) + 1.

    Accepts a scalar or an array of z values. Raises ``DomainError`` when
    any W0 argument falls below -1/e, reporting the onset.
    """
    zarr = np.asarray(z, dtype=float)
    scalar = zarr.ndim == 0
    zarr = np.atleast_1d(zarr)
    with np.errstate(over="ignore"):
        arg = params.b * np.exp(-zarr)
    if np.any(arg < BRANCH_POINT - DOMAIN_SLACK):
        bad = float(zarr[arg < BRANCH_POINT - DOMAIN_SLACK][0])
        raise DomainError(
            f"z={bad!r} is below the rate onset z_min = ln(-b)+1 = "
            f"{rate_onset(params)!r}"
        )
    # z near the float64 limit and r < 1 overflow to inf: rate_curve rejects it
    with np.errstate(over="ignore"):
        g = params.d + (w0(arg) + zarr) / params.r
    return float(g[0]) if scalar else g


def _bracket(b, z):
    """The theorem's enclosure of W0(b*exp(-z)) + z, as (lower, upper):
    b/z + z and b*(ln z - z)/(z*ln z) + z. Elementwise over arrays; where
    z*ln z overflows (z above about 1e305) the upper bound takes its equal
    form b/z - b/ln z + z instead."""
    lz = np.log(z)
    with np.errstate(over="ignore", invalid="ignore"):
        zlz = z * lz
        upper = b * (lz - z) / zlz + z
        big = np.isinf(zlz)
        if big.any():
            upper = np.where(big, b / z - b / lz + z, upper)
    return b / z + z, upper


@dataclass(frozen=True)
class BoundBracket:
    """Enclosure of value = W0(b*exp(-z)) + z at one (b, z) point."""

    lower: float
    upper: float
    z: float
    value: float

    def contains_value(self) -> bool:
        return self.lower <= self.value <= self.upper

    def straddles_default(self) -> bool:
        return self.lower < self.z < self.upper


def theorem_bracket(b: float, z: float) -> BoundBracket:
    """Bracket W0(b*exp(-z)) + z between b/z + z and b*(ln z - z)/(z ln z) + z.

    Requires finite b < 0, finite z >= e, and b*exp(-z) >= -1/e.
    """
    if not (math.isfinite(b) and math.isfinite(z)):
        raise ValidationError(f"bracket requires finite b and z, got b={b!r}, z={z!r}")
    if not b < 0:
        raise ValidationError(f"bracket requires b < 0, got {b!r}")
    if z < math.e:
        raise DomainError(f"bracket is proven for z >= e only, got z={z!r}")
    arg = b * math.exp(-z)
    if arg < BRANCH_POINT - DOMAIN_SLACK:
        raise DomainError(
            f"W0 argument {arg!r} below -1/e; z={z!r} is under the onset "
            f"ln(-b)+1 = {math.log(-b) + 1.0!r}"
        )
    lower, upper = _bracket(b, z)
    return BoundBracket(lower=float(lower), upper=float(upper), z=z, value=w0(arg) + z)


@dataclass
class InequalityCheck:
    """Tally of one inequality over a verification grid."""

    name: str
    checked: int
    passed: int
    failed: int
    worst_margin: float | None
    worst_pair: tuple[float, float] | None
    failures: list[dict]


@dataclass
class VerificationReport:
    """Outcome of the bracket certificate over a (b, z) grid."""

    checked: int
    filtered_out: int
    inequalities: list[InequalityCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.failed == 0 for c in self.inequalities)

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "filtered_out": self.filtered_out,
            "all_passed": self.all_passed,
            "inequalities": [asdict(c) for c in self.inequalities],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _tally(name, b, z, margin, strict: bool) -> InequalityCheck:
    ok = margin > 0 if strict else margin >= 0
    failures = [
        {"b": float(bb), "z": float(zz), "margin": float(mm)}
        for bb, zz, mm in zip(b[~ok], z[~ok], margin[~ok])
    ]
    if margin.size:
        i = int(np.argmin(margin))
        worst_margin, worst_pair = float(margin[i]), (float(b[i]), float(z[i]))
    else:
        worst_margin, worst_pair = None, None
    return InequalityCheck(
        name=name,
        checked=int(margin.size),
        passed=int(np.count_nonzero(ok)),
        failed=int(np.count_nonzero(~ok)),
        worst_margin=worst_margin,
        worst_pair=worst_pair,
        failures=failures,
    )


def verify_theorem(b_grid, z_grid) -> VerificationReport:
    """Check the bracket inequalities on every admissible (b, z) pair.

    Grids of any shape are read as flat sets of values. Pairs are filtered
    to z > e and z >= ln(-b) + 1 + 1e-9. The reduction
    is order-independent: pairs are sorted lexicographically by (b, z), so
    the reported worst case breaks ties toward the smallest pair. Raises
    ``ValidationError`` for an empty grid, a b >= 0 or a non-finite value.
    """
    b_grid = np.sort(np.asarray(b_grid, dtype=float), axis=None)
    z_grid = np.sort(np.asarray(z_grid, dtype=float), axis=None)
    if b_grid.size == 0 or np.any(b_grid >= 0):
        raise ValidationError("verify_theorem requires a nonempty grid of b < 0")
    if z_grid.size == 0:
        raise ValidationError("verify_theorem requires a nonempty grid of z")
    if not (np.isfinite(b_grid).all() and np.isfinite(z_grid).all()):
        raise ValidationError("verify_theorem requires finite b and z values")

    # keep[i, j] says whether pair (b_grid[i], zk[j]) is admissible; its
    # row-major order is the (b, z) order of the pairs
    zk = z_grid[z_grid > math.e]
    keep = zk >= (np.log(-b_grid) + 1.0 + 1e-9)[:, None]
    b = np.broadcast_to(b_grid[:, None], keep.shape)[keep]
    z = np.broadcast_to(zk, keep.shape)[keep]
    # the W0 arguments b*e^(-z), with e^(-z) taken once per z
    value = np.broadcast_to(np.exp(-zk), keep.shape)[keep]
    value *= b
    value = w0(value)

    lower_margin, upper_margin, straddle_margin = (np.empty_like(z) for _ in range(3))
    for s in range(0, z.size, BLOCK):
        blk = slice(s, s + BLOCK)
        bb, zz, v = b[blk], z[blk], value[blk]
        v += zz
        lower, upper = _bracket(bb, zz)
        lower_margin[blk] = v - lower
        upper_margin[blk] = upper - v
        straddle_margin[blk] = np.minimum(zz - lower, upper - zz)

    checks = [
        _tally("lower <= value", b, z, lower_margin, strict=False),
        _tally("value <= upper", b, z, upper_margin, strict=False),
        _tally("lower < z < upper", b, z, straddle_margin, strict=True),
    ]
    return VerificationReport(
        checked=int(z.size), filtered_out=int(b_grid.size * z_grid.size - z.size),
        inequalities=checks,
    )


def rate_curve(params: DCParams, z_values) -> tuple[np.ndarray, np.ndarray]:
    """Sample dc_rate over z_values, retaining only the valid domain.

    Returns (z, g): the distinct valid z values in increasing order and the
    rate at each. Raises ``ValidationError`` naming the first retained z
    whose rate is not finite (it overflows from there on, or z = inf).
    """
    z = np.unique(np.asarray(z_values, dtype=float))
    with np.errstate(over="ignore"):
        keep = params.b * np.exp(-z) >= BRANCH_POINT - DOMAIN_SLACK
    z = z[keep]
    if z.size == 0:
        raise DomainError(
            f"no z value is at or above the onset z_min = {rate_onset(params)!r}"
        )
    g = dc_rate(params, z)
    bad = ~np.isfinite(g)
    if bad.any():
        raise ValidationError(f"the rate at z = {float(z[bad][0])!r} overflows float64")
    return z, g


def bracket_curves(params: DCParams, z_values):
    """Theorem bounds mapped onto the rate scale: d + bound/r per z.

    At r = 1, d = 0 these are the raw bracket quantities; for general
    params the same affine map that takes W0(b*exp(-z)) + z to the rate is
    applied to both bounds, so they bracket dc_rate wherever z > e. Entries
    for z <= e are NaN (the enclosure is only proven beyond e).
    """
    z = np.asarray(z_values, dtype=float)
    lower = np.full_like(z, np.nan)
    upper = np.full_like(z, np.nan)
    m = z > math.e
    lo, up = _bracket(params.b, z[m])
    with np.errstate(over="ignore"):
        lower[m] = params.d + lo / params.r
        upper[m] = params.d + up / params.r
    return lower, upper
