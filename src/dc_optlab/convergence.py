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
from .lambert_w import BRANCH_POINT, DOMAIN_SLACK, w0


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

    Requires b < 0, z >= e, and b*exp(-z) >= -1/e.
    """
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

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


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

    Pairs are filtered to z > e and z >= ln(-b) + 1 + 1e-9. The reduction
    is order-independent: pairs are sorted lexicographically by (b, z), so
    the reported worst case breaks ties toward the smallest pair.
    """
    b_grid = np.sort(np.asarray(b_grid, dtype=float))
    z_grid = np.sort(np.asarray(z_grid, dtype=float))
    if b_grid.size == 0 or np.any(b_grid >= 0):
        raise ValidationError("verify_theorem requires a nonempty grid of b < 0")

    b = np.repeat(b_grid, z_grid.size)
    z = np.tile(z_grid, b_grid.size)
    keep = (z > math.e) & (z >= np.log(-b) + 1.0 + 1e-9)
    total = b.size
    b, z = b[keep], z[keep]

    value = w0(b * np.exp(-z)) + z
    lower, upper = _bracket(b, z)

    checks = [
        _tally("lower <= value", b, z, value - lower, strict=False),
        _tally("value <= upper", b, z, upper - value, strict=False),
        _tally("lower < z < upper", b, z, np.minimum(z - lower, upper - z), strict=True),
    ]
    return VerificationReport(
        checked=int(b.size), filtered_out=int(total - b.size), inequalities=checks
    )


def rate_curve(params: DCParams, z_values) -> tuple[np.ndarray, np.ndarray]:
    """Sample dc_rate over z_values, retaining only the valid domain.

    Returns (z, g): the distinct valid z values in increasing order and the
    rate at each. Raises ``ValidationError`` if a retained g is not finite
    (z = inf).
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
    if not np.all(np.isfinite(g)):
        raise ValidationError("g_values must be finite at every retained point")
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
