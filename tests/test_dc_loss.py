"""DC loss family: parameter derivation, curve anchors, derivative, taxonomy."""

import math

import numpy as np
import pytest

from dc_optlab import (
    DCParams,
    ValidationError,
    classify_config,
    log_response_probability,
    loss_derivative,
    margin_transform,
    per_sample_loss,
    response_probability,
)
from dc_optlab.dc_loss import LossConfigKind
from conftest import random_params


class TestDCParams:
    def test_no_dc_derivation(self):
        p = DCParams(r=1.0, c=0.0, d=0.0, p_d=0.5)
        assert p.eps == 0.0
        assert p.a == 1.0
        assert p.b == math.log(0.5)

    def test_grow_decay_derivation(self):
        p = DCParams(r=2.0, c=1.0, d=1.0, p_d=0.7)
        assert p.eps == pytest.approx(0.5)
        assert p.a == pytest.approx(math.exp(0.5))
        assert p.b == pytest.approx(math.log(0.7) - 0.5)

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            (dict(r=0.0, c=0.0, d=0.0, p_d=0.5), "r must be"),
            (dict(r=-1.0, c=0.0, d=0.0, p_d=0.5), "r must be"),
            (dict(r=1.0, c=-0.5, d=0.0, p_d=0.5), "c must be"),
            (dict(r=1.0, c=0.0, d=-1.0, p_d=0.5), "d must be"),
            (dict(r=1.0, c=0.0, d=0.0, p_d=0.0), "p_d must be"),
            (dict(r=1.0, c=0.0, d=0.0, p_d=1.0), "p_d must be"),
            (dict(r=math.inf, c=0.0, d=0.0, p_d=0.5), "r must be finite"),
            (dict(r=1.0, c=math.inf, d=0.0, p_d=0.5), "c must be finite"),
            (dict(r=1.0, c=0.0, d=math.inf, p_d=0.5), "d must be finite"),
        ],
    )
    def test_validation_names_the_bound(self, kwargs, fragment):
        with pytest.raises(ValidationError, match=fragment):
            DCParams(**kwargs)

    def test_b_always_negative_a_at_least_one(self, rng):
        for _ in range(300):
            p = random_params(rng)
            assert p.b < 0
            assert p.a >= 1.0
            assert (p.a == 1.0) == (p.c == 0.0)


class TestResponseProbability:
    def test_anchor_at_difficulty(self):
        p = DCParams(r=2.0, c=1.0, d=1.0, p_d=0.7)
        assert response_probability(p, 1.0) == pytest.approx(0.7, rel=1e-12)

    def test_anchor_random_params(self, rng):
        for _ in range(300):
            p = random_params(rng)
            assert response_probability(p, p.d) == pytest.approx(p.p_d, rel=1e-12)

    def test_known_value_at_zero(self):
        p = DCParams(r=1.0, c=0.0, d=0.0, p_d=math.exp(-1.0))
        assert response_probability(p, 0.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_known_value_half_power(self):
        # 0.5 ** exp(-2), frozen from 40-digit evaluation of the exp/ln form
        p = DCParams(r=1.0, c=0.0, d=0.0, p_d=0.5)
        assert response_probability(p, 2.0) == pytest.approx(
            0.9104582179395536, rel=1e-14
        )

    def test_limits(self):
        p = DCParams(r=2.0, c=3.0, d=1.0, p_d=0.4)
        assert response_probability(p, 1e6) == pytest.approx(p.a, rel=1e-12)
        assert response_probability(p, -1e6) == 0.0

    def test_range_open_zero_a(self, rng):
        p = random_params(rng)
        t = np.linspace(p.d - 5 / p.r, p.d + 5 / p.r, 101)
        vals = response_probability(p, t)
        assert np.all(vals > 0)
        assert np.all(vals < p.a)

    def test_strictly_increasing_in_log_domain(self, rng):
        for _ in range(100):
            p = random_params(rng)
            t = np.linspace(p.d - 10 / p.r, p.d + 10 / p.r, 100)
            logs = log_response_probability(p, t)
            assert np.all(np.diff(logs) > 0)


class TestPerSampleLoss:
    def test_negation_of_probability(self):
        p = DCParams(r=2.0, c=1.0, d=1.0, p_d=0.7)
        assert per_sample_loss(p, 1.0) == pytest.approx(-0.7, rel=1e-12)

    def test_limits(self):
        p = DCParams(r=2.0, c=1.0, d=1.0, p_d=0.7)
        assert per_sample_loss(p, 1e6) == pytest.approx(-p.a, rel=1e-12)
        assert per_sample_loss(p, -1e6) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_margins_near_the_float_limit_are_silent(self):
        # r * (t - d) overflows to +-inf before the clip
        p = DCParams(r=12.0, c=0.0, d=1.0, p_d=0.5)
        assert np.array_equal(per_sample_loss(p, np.array([-1e308, 1e308])), [0.0, -1.0])

    def test_strictly_decreasing(self, rng):
        p = random_params(rng)
        t = np.linspace(p.d - 3 / p.r, p.d + 3 / p.r, 50)
        assert np.all(np.diff(per_sample_loss(p, t)) < 0)


class TestLossDerivative:
    def test_known_value(self):
        p = DCParams(r=1.0, c=0.0, d=0.0, p_d=math.exp(-1.0))
        assert loss_derivative(p, 0.0) == pytest.approx(-math.exp(-1.0), rel=1e-13)

    def test_frozen_central_difference_value(self):
        # central difference of per_sample_loss, step 1e-6, frozen oracle
        p = DCParams(r=1.0, c=0.0, d=0.0, p_d=0.5)
        assert loss_derivative(p, 2.0) == pytest.approx(-0.0854075998812931, rel=1e-8)

    def test_always_negative(self, rng):
        for _ in range(100):
            p = random_params(rng)
            t = float(rng.uniform(p.d - 5 / p.r, p.d + 5 / p.r))
            assert loss_derivative(p, t) < 0

    def test_matches_central_difference(self, rng):
        h = 1e-6
        for _ in range(100):
            p = DCParams(
                r=float(rng.uniform(0.3, 4.0)),
                c=float(rng.uniform(0.0, 3.0)),
                d=float(rng.uniform(0.0, 3.0)),
                p_d=float(rng.uniform(0.15, 0.85)),
            )
            t = float(rng.uniform(p.d - 2 / p.r, p.d + 2 / p.r))
            fd = (per_sample_loss(p, t + h) - per_sample_loss(p, t - h)) / (2 * h)
            assert loss_derivative(p, t) == pytest.approx(fd, rel=1e-6)

    def test_monotone_family_form(self, rng):
        # log(-derivative) + f(t) must equal the constant ln(a * (-b) * r)
        for _ in range(50):
            p = random_params(rng)
            const = math.log(p.a * (-p.b) * p.r)
            for t in np.linspace(p.d - 2 / p.r, p.d + 2 / p.r, 7):
                val = math.log(-loss_derivative(p, float(t))) + margin_transform(p, float(t))
                assert val == pytest.approx(const, rel=1e-9, abs=1e-9)


class TestMarginTransform:
    def test_at_difficulty_equals_minus_b(self, rng):
        for _ in range(50):
            p = random_params(rng)
            assert margin_transform(p, p.d) == pytest.approx(-p.b, rel=1e-12)
            assert margin_transform(p, p.d) > 0

    def test_known_value(self):
        p = DCParams(r=1.0, c=0.0, d=0.0, p_d=math.exp(-1.0))
        assert margin_transform(p, 1.0) == pytest.approx(1.0 + math.exp(-1.0), rel=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_margins_near_the_float_limit_are_silent(self):
        # r * (t - d) overflows to +-inf; f -> +inf at both ends
        p = DCParams(r=12.0, c=0.0, d=1.0, p_d=0.5)
        assert np.array_equal(margin_transform(p, np.array([-1e308, 1e308])), [np.inf, np.inf])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("r, p_d, t, expected", [
        # s - b*exp(-s) from mpmath at 50 digits
        (1.0, 0.5, -709.5, 9.3920494693023551328e307),
        (1.0, 0.99, -712.0, 1.6590202612304071218e307),
        (1.0, 0.5, -1e308, math.inf),
        (12.0, 0.5, -1e308, math.inf),
    ])
    def test_exp_overflow_region_matches_mpmath(self, r, p_d, t, expected):
        # -r*(t-d) > 709: exp(-r*(t-d)) alone overflows, f need not
        assert margin_transform(DCParams(r=r, c=0.0, d=0.0, p_d=p_d), t) == pytest.approx(
            expected, rel=1e-12
        )


class TestClassifyConfig:
    @pytest.mark.parametrize(
        "r, c, kind",
        [
            (1.0, 0.0, LossConfigKind.NO_DC),
            (3.0, 0.0, LossConfigKind.GROWING_DC),
            (1.0, 2.0, LossConfigKind.DECAYING_DC),
            (2.0, 2.0, LossConfigKind.GROW_DECAY_DC),
            (0.5, 0.0, LossConfigKind.GROWING_DC),
        ],
    )
    def test_kinds(self, r, c, kind):
        assert classify_config(DCParams(r=r, c=c, d=0.0, p_d=0.5)) is kind

    def test_unit_r_tolerance(self):
        assert classify_config(DCParams(r=1.0 + 5e-13, c=0.0, d=0.0, p_d=0.5)) is LossConfigKind.NO_DC
        assert classify_config(DCParams(r=1.0 + 1e-9, c=0.0, d=0.0, p_d=0.5)) is LossConfigKind.GROWING_DC

    def test_c_compared_exactly(self):
        assert classify_config(DCParams(r=1.0, c=1e-300, d=0.0, p_d=0.5)) is LossConfigKind.DECAYING_DC
