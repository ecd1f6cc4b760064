"""Lambert W0: frozen oracle values, defining identity, forward error, and
the logarithmic enclosure."""

import math
import sys

import numpy as np
import pytest

from dc_optlab import BRANCH_POINT, DomainError, NumericalError, w0
from dc_optlab import convergence, lambert_w
from dc_optlab.sweep import GridSpec, build_grid, sample_grid
from dc_optlab.verification import identity_grid
from conftest import w0_bisect


def w0_whole_array(x):
    """The Halley loop that iterates every element until all meet the step
    tolerance, kept as the reference for ``w0``'s fixed-point retirement.
    Returns (w, rounds run)."""
    xc = np.maximum(np.atleast_1d(np.asarray(x, dtype=float)), BRANCH_POINT)
    w = lambert_w._initial_guess(xc)
    for rounds in range(1, lambert_w._MAX_ITER + 1):
        ew = np.exp(w)
        f = w * ew - xc
        wp1 = w + 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
            step = f / denom
        step = np.where(np.isfinite(step), step, 0.0)
        w = w - step
        if np.all(np.abs(step) <= lambert_w._STEP_TOL * (1.0 + np.abs(w))):
            break
    return w, rounds


# the z grid of the theorem suite and of the benchmark's certificate
THEOREM_Z = np.geomspace(np.nextafter(math.e, math.inf), 50.0, 200)


def paper_sample_b(seed):
    spec = GridSpec()
    return np.unique([p.b for p in sample_grid(build_grid(spec), spec.pick_fraction, seed)])


def certify_arguments(seed):
    """The W0 arguments ``verify_theorem`` evaluates for a paper sample's b
    values against the theorem z grid."""
    b = np.repeat(paper_sample_b(seed), THEOREM_Z.size)
    z = np.tile(THEOREM_Z, b.size // THEOREM_Z.size)
    keep = (z > math.e) & (z >= np.log(-b) + 1.0 + 1e-9)
    return b[keep] * np.exp(-z[keep])


def mixed_regimes(seed):
    rng = np.random.default_rng(seed)
    x = np.concatenate([
        BRANCH_POINT + rng.uniform(0.0, 1e-3, 5000),
        BRANCH_POINT + 10.0 ** rng.uniform(-15.0, -1.0, 5000),
        rng.uniform(-0.25, 0.25, 5000),
        rng.uniform(0.25, math.e, 5000),
        10.0 ** rng.uniform(0.5, 300.0, 5000),
    ])
    rng.shuffle(x)
    return x


class TestW0Anchors:
    def test_zero(self):
        assert w0(0.0) == 0.0

    def test_e_maps_to_one(self):
        assert w0(math.e) == pytest.approx(1.0, abs=1e-14)

    def test_branch_point_maps_to_minus_one(self):
        assert w0(-1.0 / math.e) == -1.0

    def test_negative_tenth(self):
        # bisection oracle on w*e^w = -0.1 over [-1, 0]
        assert w0(-0.1) == pytest.approx(-0.11183255915896297, abs=1e-12)

    def test_ten(self):
        assert w0(10.0) == pytest.approx(1.7455280027406992, abs=1e-12)

    @pytest.mark.parametrize("x", [-0.3, -0.05, 0.2, 0.9, 2.0, 7.5, 123.0, 1e5])
    def test_matches_bisection_oracle(self, x):
        assert w0(x) == pytest.approx(w0_bisect(x), abs=1e-13, rel=1e-13)


class TestW0Domain:
    def test_slack_clamps_to_branch_point(self):
        assert w0(BRANCH_POINT - 1e-13) == -1.0

    def test_below_slack_raises(self):
        with pytest.raises(DomainError):
            w0(BRANCH_POINT - 1e-9)

    def test_nan_raises(self):
        with pytest.raises(DomainError):
            w0(float("nan"))

    def test_array_input_round_trips_shape(self):
        x = np.array([0.0, 1.0, 10.0])
        w = w0(x)
        assert w.shape == (3,)
        assert w[0] == 0.0


class TestW0Properties:
    def test_defining_identity_on_log_spaced_grid(self):
        x = BRANCH_POINT + np.geomspace(1e-12, 1e6 - BRANCH_POINT, 5000)
        w = w0(x)
        resid = np.abs(w * np.exp(w) - x) / np.maximum(1.0, np.abs(x))
        assert float(np.max(resid)) <= 1e-12

    def test_strictly_increasing(self):
        x = BRANCH_POINT + np.geomspace(1e-10, 1e6 - BRANCH_POINT, 2000)
        assert np.all(np.diff(w0(x)) > 0)

    def test_negative_arguments_sit_between_x_and_minus_one(self):
        x = BRANCH_POINT + np.geomspace(1e-9, -BRANCH_POINT - 1e-9, 1000)
        w = w0(x)
        assert np.all(x > w)
        assert np.all(w >= -1.0)

    def test_sign_matches_argument(self):
        assert w0(0.5) > 0
        assert w0(-0.2) < 0


class TestW0ForwardError:
    def test_within_conditioning_near_branch_point(self):
        # W' = W / (x (1 + W)) grows without bound as x -> -1/e, so half an
        # ulp of x moves W by |W'| ulp(x)/2; w0 may miss by 8 times that
        x = BRANCH_POINT + np.geomspace(1e-12, 0.1, 400)
        ref = np.array([w0_bisect(float(v)) for v in x])
        slope = np.abs(ref / (x * (1.0 + ref)))
        assert np.all(np.abs(w0(x) - ref) <= 8.0 * slope * np.spacing(np.abs(x)) / 2)


class TestLogEnclosure:
    def test_contains_w0_on_grid(self):
        # ln z - ln ln z < W0(z) < ln z for z > e
        z = np.geomspace(math.e * (1 + 1e-9), 1e6, 500)
        lz = np.log(z)
        lo = lz - np.log(lz)
        w = w0(z)
        assert np.all((lo < w) & (w < lz))
        assert np.all(lo > 0)


class TestFixedPointRetirement:
    """``w0`` drops an element from its Halley loop once an update leaves it
    unchanged; the bits and the round count must match the whole-array loop."""

    @pytest.mark.parametrize("inputs, rounds", [
        # a seeded paper sample has arguments near -1/e that never meet the
        # step tolerance, so both loops run every round
        (lambda: certify_arguments(0), lambert_w._MAX_ITER),
        (identity_grid, lambert_w._MAX_ITER),
        (lambda: BRANCH_POINT + np.geomspace(1e-12, -BRANCH_POINT - 1e-9, 2000),
         lambert_w._MAX_ITER),
        (lambda: mixed_regimes(20240801), lambert_w._MAX_ITER),
        (lambda: np.geomspace(math.e * (1.0 + 1e-9), 1e6, 2000), 4),
    ], ids=["certify", "identity_grid", "near_branch", "mixed", "large_z"])
    def test_bit_equal_to_whole_array_loop(self, inputs, rounds):
        x = inputs()
        ref, ran = w0_whole_array(x)
        assert ran == rounds
        assert np.array_equal(w0(x).view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("x", [0.0, math.e, -1.0 / math.e, -1.0 / math.e - 1e-13, 1e300,
                                   1e307])
    def test_scalars_bit_equal(self, x):
        ref, _ = w0_whole_array(x)
        assert np.array_equal(np.float64(w0(x)).view(np.int64), ref[0].view(np.int64))

    def test_certificate_json_unchanged(self, monkeypatch):
        b = paper_sample_b(0)
        report = convergence.verify_theorem(b, THEOREM_Z).to_json()
        monkeypatch.setattr(convergence, "w0", lambda x: w0_whole_array(x)[0])
        assert convergence.verify_theorem(b, THEOREM_Z).to_json() == report


class TestW0NonConvergence:
    def test_unsettled_elements_raise(self, monkeypatch):
        # one Halley round leaves 1e100 and 1e6 off by more than the contract
        monkeypatch.setattr(lambert_w, "_MAX_ITER", 1)
        with pytest.raises(NumericalError, match=r"x=1e\+100"):
            w0(np.array([0.0, 1e100, 1e6]))


class TestW0NearTheFloatLimit:
    """Above 1e307 Halley's products overflow; w0 solves ln w + w = ln x."""

    def test_within_an_ulp_of_mpmath(self):
        mpmath = pytest.importorskip("mpmath")  # test-only oracle
        rng = np.random.default_rng(20240801)
        big = np.concatenate([
            [np.nextafter(1e307, math.inf), 3e307, 5e307, 1e308, sys.float_info.max],
            rng.uniform(1e307, sys.float_info.max, 200),
        ])
        small = np.concatenate([[-0.3, 0.0, 2.0, 1e300, 1e307], rng.uniform(1e305, 1e307, 50)])
        x = np.concatenate([big, small])
        rng.shuffle(x)
        w = w0(x)
        at_big = x > 1e307
        with mpmath.workdps(40):
            exact = np.array([float(mpmath.lambertw(mpmath.mpf(float(v))).real)
                              for v in x[at_big]])
        assert np.all(np.abs(w[at_big] - exact) <= np.spacing(exact))
        # the others keep the Halley loop's bits
        ref, _ = w0_whole_array(x[~at_big])
        assert np.array_equal(w[~at_big].view(np.int64), ref.view(np.int64))
