"""Rate formula, shift directions, and the bracket certificate."""

import math

import numpy as np
import pytest

from dc_optlab import (
    DCParams,
    DomainError,
    ValidationError,
    bracket_curves,
    dc_rate,
    margin_transform,
    rate_curve,
    rate_onset,
    theorem_bracket,
    verify_theorem,
)
from conftest import random_params, w0_bisect

B_MINUS_ONE = DCParams(r=1.0, c=0.0, d=0.0, p_d=math.exp(-1.0))  # b = -1


class TestDcRate:
    def test_known_value(self):
        # 3 + W0(-e^-3), W0 from the bisection oracle
        assert dc_rate(B_MINUS_ONE, 3.0) == pytest.approx(2.9475309025422853, rel=1e-12)

    def test_difficulty_enters_additively(self):
        shifted = DCParams(r=1.0, c=0.0, d=5.0, p_d=math.exp(-1.0))
        assert dc_rate(shifted, 3.0) == dc_rate(B_MINUS_ONE, 3.0) + 5.0

    def test_below_onset_raises(self):
        with pytest.raises(DomainError, match="onset"):
            dc_rate(B_MINUS_ONE, 0.5)

    def test_onset_value(self):
        assert rate_onset(B_MINUS_ONE) == pytest.approx(1.0)

    def test_matches_oracle_composition(self, rng):
        for _ in range(50):
            p = random_params(rng)
            z = rate_onset(p) + float(rng.uniform(0.5, 15.0))
            expected = p.d + (w0_bisect(p.b * math.exp(-z), lo=-1.0, hi=0.0) + z) / p.r
            assert dc_rate(p, z) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_inverse_of_margin_transform(self, rng):
        for _ in range(500):
            p = random_params(rng)
            z = rate_onset(p) + 0.1 + float(rng.uniform(0.0, 19.9))
            g = dc_rate(p, z)
            assert abs(margin_transform(p, g) - z) <= 1e-9 * (1.0 + abs(z))

    def test_approaches_affine_asymptote(self):
        p = DCParams(r=2.0, c=1.0, d=1.5, p_d=0.3)
        gaps = [abs(dc_rate(p, z) - (p.d + z / p.r)) for z in (5.0, 10.0, 20.0, 40.0)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-15

    def test_vectorized_matches_scalar(self):
        z = np.array([3.0, 4.0, 5.0])
        g = dc_rate(B_MINUS_ONE, z)
        assert list(g) == [dc_rate(B_MINUS_ONE, float(v)) for v in z]

    def test_r_sweep_matches_frozen_oracle_values(self):
        g = [dc_rate(DCParams(r=r, c=0.0, d=0.0, p_d=math.exp(-1.0)), 5.0)
             for r in (1.0, 2.0, 4.0)]
        expected = [4.993216188647903, 2.4966080943239515, 1.2483040471619757]
        assert g == pytest.approx(expected, rel=1e-12)

    def test_d_sweep_exact_shifts(self):
        g = [dc_rate(DCParams(r=1.0, c=0.0, d=d, p_d=math.exp(-1.0)), 5.0)
             for d in (0.0, 1.0, 2.0)]
        assert g[1] == g[0] + 1.0
        assert g[2] == g[0] + 2.0


class TestTheoremBracket:
    def test_example_at_e(self):
        br = theorem_bracket(-1.0, math.e)
        assert br.lower == pytest.approx(math.e - 1.0 / math.e, abs=1e-14)
        assert br.upper == pytest.approx(math.e + (math.e - 1.0) / math.e, abs=1e-14)
        assert br.value == pytest.approx(2.6474502420499664, rel=1e-12)
        assert br.contains_value()
        assert br.straddles_default()

    def test_width_shrinks_and_value_approaches_z(self):
        widths = []
        gaps = []
        for z in (5.0, 10.0, 20.0):
            br = theorem_bracket(-1.0, z)
            widths.append(br.upper - br.lower)
            gaps.append(abs(br.value - z))
        assert widths == sorted(widths, reverse=True)
        assert gaps == sorted(gaps, reverse=True)

    def test_below_e_raises(self):
        with pytest.raises(DomainError):
            theorem_bracket(-1.0, 2.0)

    def test_nonnegative_b_raises(self):
        with pytest.raises(ValidationError):
            theorem_bracket(0.5, 5.0)

    def test_w0_domain_violation_raises(self):
        with pytest.raises(DomainError, match="onset"):
            theorem_bracket(-100.0, 2.9)

    @pytest.mark.parametrize("b, z", [(-1.0, math.inf), (-math.inf, 5.0), (-1.0, math.nan)])
    def test_non_finite_rejected(self, b, z):
        with pytest.raises(ValidationError, match="finite"):
            theorem_bracket(b, z)


class TestVerifyTheorem:
    def test_small_grid_all_pass(self):
        report = verify_theorem([-1.0], [3.0, 4.0, 5.0])
        assert report.checked == 3
        assert report.filtered_out == 0
        assert report.all_passed
        for ineq in report.inequalities:
            assert ineq.failed == 0
            assert ineq.worst_margin > 0

    def test_onset_filter(self):
        # 3 < ln(20) + 1 ~ 3.996, so the pair is dropped
        report = verify_theorem([-20.0], [3.0])
        assert report.checked == 0
        assert report.filtered_out == 1

    def test_positive_b_rejected(self):
        with pytest.raises(ValidationError):
            verify_theorem([1.0], [3.0])

    @pytest.mark.parametrize("b, z", [
        ([-math.inf], [3.0, 4.0]),
        ([math.nan], [3.0]),
        ([-1.0, math.nan], [3.0]),
        ([-1.0], [math.inf]),
        ([-1.0], [3.0, math.nan]),
        ([-1.0], [-math.inf, 3.0]),
    ])
    def test_non_finite_value_rejected(self, b, z):
        with pytest.raises(ValidationError, match="finite"):
            verify_theorem(b, z)

    def test_grids_of_any_shape_read_as_flat(self):
        b, z = np.array([[-4.0, -1.0], [-2.0, -3.0]]), np.array([[6.0, 3.0], [5.0, 4.0]])
        flat = verify_theorem(b.ravel(), z.ravel()).to_json()
        assert verify_theorem(b, z).to_json() == flat
        assert verify_theorem(b, z.T).to_json() == flat

    def test_empty_z_grid_rejected(self):
        with pytest.raises(ValidationError, match="grid of z"):
            verify_theorem([-1.0], [])

    def test_report_serializes(self):
        report = verify_theorem([-1.0, -2.0], [3.0, 4.0])
        obj = report.to_dict()
        assert obj["all_passed"] is True
        assert len(obj["inequalities"]) == 3
        assert report.to_json().startswith("{")

    def test_dense_grid(self):
        z = np.geomspace(math.e + 1e-6, 50.0, 60)
        report = verify_theorem([-5.0, -1.0, -0.01], z)
        assert report.all_passed
        assert report.checked == 180


class TestRateCurve:
    def test_filters_to_valid_domain(self):
        z, g = rate_curve(B_MINUS_ONE, np.linspace(0.2, 5.0, 25))
        assert np.all(z >= rate_onset(B_MINUS_ONE) - 1e-12)
        assert np.all(np.diff(z) > 0)
        assert np.all(np.isfinite(g))

    def test_all_invalid_raises(self):
        with pytest.raises(DomainError):
            rate_curve(B_MINUS_ONE, [0.1, 0.5, 0.9])

    def test_bracket_curves_nan_below_e_and_contain_rate(self):
        z, g = rate_curve(B_MINUS_ONE, np.linspace(2.0, 10.0, 17))
        lower, upper = bracket_curves(B_MINUS_ONE, z)
        below = z <= math.e
        assert np.all(np.isnan(lower[below]))
        above = ~below
        assert np.all(lower[above] < g[above])
        assert np.all(g[above] < upper[above])

    def test_bracket_curves_overflow_to_inf_silently(self):
        p = DCParams(r=0.5, c=0.0, d=0.0, p_d=math.exp(-1.0))
        lower, upper = bracket_curves(p, np.array([1e308]))
        assert np.isposinf(lower).all() and np.isposinf(upper).all()

    def test_bracket_curves_scale_with_r_and_d(self):
        p = DCParams(r=2.0, c=0.0, d=1.0, p_d=math.exp(-1.0))
        z, g = rate_curve(p, np.linspace(3.0, 8.0, 11))
        lower, upper = bracket_curves(p, z)
        assert np.all(lower < g)
        assert np.all(g < upper)
