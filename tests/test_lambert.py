"""Lambert W0: frozen oracle values, defining identity, forward error, and
the logarithmic enclosure."""

import math

import numpy as np
import pytest

from dc_optlab import BRANCH_POINT, DomainError, w0
from conftest import w0_bisect


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
