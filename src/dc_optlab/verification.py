"""Self-check suites behind ``dc-optlab verify``.

Each suite returns a plain dict (JSON-ready) with per-check outcomes and
worst-case margins. Suites are deterministic: fixed grids, fixed seeds.
"""

import math

import numpy as np

from .convergence import dc_rate, verify_theorem
from .dc_loss import DCParams
from .errors import check_number
from .lambert_w import BRANCH_POINT, w0
from .neuron import _derivative_columns, _summed_gradient, _train_metrics

GRADIENT_SEED = 20240801
GRADIENT_TRIALS = 100
# suite name -> runner of the gradient seed; a suite is looked up when it runs
SUITES = {
    "lambert": lambda seed: lambert_suite(),
    "theorem": lambda seed: theorem_suite(),
    "corollary": lambda seed: corollary_suite(),
    "gradient": lambda seed: gradient_suite(seed=seed),
}

# bracket-certificate grid: 9 b values x 200 log-spaced z in (e, 50]
THEOREM_B_GRID = (-20.0, -10.0, -5.0, -2.0, -1.0, -0.5, -0.1, -0.01, -0.001)
THEOREM_Z_GRID = np.geomspace(np.nextafter(math.e, np.inf), 50.0, 200)


def _check(name: str, passed: bool, **details) -> dict:
    return {"name": name, "passed": bool(passed), **details}


def identity_grid() -> np.ndarray:
    """10,000 points from 1e-9 above the branch point to 1e6, log-spaced in offset."""
    return BRANCH_POINT + np.geomspace(1e-9, 1e6 - BRANCH_POINT, 10_000)


def lambert_suite() -> dict:
    checks = []

    grid = identity_grid()
    w = w0(grid)
    with np.errstate(over="ignore"):
        resid = np.abs(w * np.exp(w) - grid) / np.maximum(1.0, np.abs(grid))
    worst = float(np.max(resid))
    checks.append(
        _check("identity_residual", worst <= 1e-12, n=int(grid.size), worst=worst)
    )

    err_e = abs(w0(math.e) - 1.0)
    checks.append(_check("anchor_w0_of_e", err_e <= 1e-6, error=err_e))
    err_bp = abs(w0(BRANCH_POINT) + 1.0)
    checks.append(_check("anchor_branch_point", err_bp <= 1e-6, error=err_bp))

    checks.append(
        _check("strictly_increasing", bool(np.all(np.diff(w) > 0)), n=int(grid.size))
    )

    neg = BRANCH_POINT + np.geomspace(1e-12, -BRANCH_POINT - 1e-9, 2000)
    wn = w0(neg)
    ordered = bool(np.all((neg > wn) & (wn >= -1.0)))
    checks.append(_check("negative_argument_ordering", ordered, n=int(neg.size)))

    z = np.geomspace(math.e * (1.0 + 1e-9), 1e6, 2000)
    lows, highs = np.log(z) - np.log(np.log(z)), np.log(z)
    wz = w0(z)
    contained = bool(np.all((lows < wz) & (wz < highs)))
    checks.append(_check("log_enclosure_contains_w0", contained, n=int(z.size)))

    return {"suite": "lambert", "passed": all(c["passed"] for c in checks), "checks": checks}


def theorem_suite() -> dict:
    report = verify_theorem(THEOREM_B_GRID, THEOREM_Z_GRID)
    checks = [
        _check(
            ineq.name,
            ineq.failed == 0,
            checked=ineq.checked,
            worst_margin=ineq.worst_margin,
            worst_pair=list(ineq.worst_pair) if ineq.worst_pair else None,
        )
        for ineq in report.inequalities
    ]
    checks.append(
        _check("grid_coverage", report.checked >= 1000, checked=report.checked,
               filtered_out=report.filtered_out)
    )
    return {"suite": "theorem", "passed": all(c["passed"] for c in checks), "checks": checks}


def corollary_suite() -> dict:
    base = DCParams(r=1.0, c=0.0, d=0.0, p_d=math.exp(-1.0))
    z = 5.0
    checks = []

    r_values = (0.5, 1.0, 2.0, 4.0, 8.0)
    g_r = [dc_rate(DCParams(r=r, c=0.0, d=0.0, p_d=base.p_d), z) for r in r_values]
    decreasing = all(y < x for x, y in zip(g_r, g_r[1:]))
    checks.append(
        _check("rate_strictly_decreasing_in_r", decreasing,
               r_values=list(r_values), g_values=g_r)
    )

    g0 = dc_rate(base, z)
    shifts_exact = True
    shift_values = []
    for d in (1.0, 2.0, 5.0):
        gd = dc_rate(DCParams(r=1.0, c=0.0, d=d, p_d=base.p_d), z)
        shift_values.append(gd)
        # both sides round the identical sum d + (W0+z)/r, so == is exact
        shifts_exact &= gd == g0 + d
    checks.append(
        _check("difficulty_shift_exact", shifts_exact, g_at_d0=g0, g_shifted=shift_values)
    )

    return {"suite": "corollary", "passed": all(c["passed"] for c in checks), "checks": checks}


def gradient_suite(seed: int = GRADIENT_SEED) -> dict:
    """Analytic gradient vs central differences on random (params, theta, data).

    The gradient is the one a training step takes (``_summed_gradient``)
    and the losses are the ones training reports (``_train_metrics``), all
    trials in one pass. Step per coordinate is 1e-6 * (1 + |theta_j|);
    mismatch is measured relative to max(1, |finite difference|).
    """
    check_number("seed", seed, 0, math.inf, "[)", integer=True)
    rng = np.random.default_rng(seed)
    params, theta, signed = [], [], []
    for _ in range(GRADIENT_TRIALS):
        params.append(DCParams(
            r=float(rng.uniform(0.5, 3.0)),
            c=float(rng.uniform(0.0, 2.0)),
            d=float(rng.uniform(0.0, 3.0)),
            p_d=float(rng.uniform(0.2, 0.8)),
        ))
        theta.append(rng.normal(0.0, 1.0, size=2))
        features = rng.normal(0.0, 1.0, size=(10, 2))
        signed.append(rng.choice((-1, 1), size=10)[:, None] * features)
    theta, signed = np.array(theta), np.array(signed)
    with np.errstate(over="ignore"):
        grad = _summed_gradient(signed, theta, *_derivative_columns(params))[1]
    h = 1e-6 * (1.0 + np.abs(theta))
    fd = np.empty_like(theta)
    for j in range(2):
        up, down = theta.copy(), theta.copy()
        up[:, j] += h[:, j]
        down[:, j] -= h[:, j]
        loss_up, loss_down = (_train_metrics(params, signed, w)[0] for w in (up, down))
        fd[:, j] = (loss_up - loss_down) / (2 * h[:, j])
    rel = np.abs(grad - fd) / np.maximum(1.0, np.abs(fd))
    failures = int(np.count_nonzero(rel > 1e-6))
    check = _check(
        "gradient_matches_central_difference",
        failures == 0,
        trials=GRADIENT_TRIALS,
        coordinates=GRADIENT_TRIALS * 2,
        failures=failures,
        worst_relative_error=float(np.max(rel)),
    )
    return {"suite": "gradient", "passed": check["passed"], "checks": [check]}


def run_suites(names, gradient_seed: int = GRADIENT_SEED) -> dict:
    # a repeated name runs once, where it is first given
    selected = SUITES if "all" in names else dict.fromkeys(names)
    suites = [SUITES[name](gradient_seed) for name in selected]
    return {"passed": all(s["passed"] for s in suites), "suites": suites}
