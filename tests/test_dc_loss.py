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
from dc_optlab.dc_loss import (
    LossConfigKind,
    _dc_derivative,
    _derivative_constants,
    _probability,
)
from dc_optlab.sweep import GridSpec
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

    def test_margins_near_the_float_limit_are_silent(self):
        # r * (t - d) overflows to +-inf; f -> +inf at both ends
        p = DCParams(r=12.0, c=0.0, d=1.0, p_d=0.5)
        assert np.array_equal(margin_transform(p, np.array([-1e308, 1e308])), [np.inf, np.inf])

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


def reference_dc_derivative(t, r, d, b, k):
    """The derivative kernel without its tail rule: every element through
    the whole formula."""
    s = r * (t - d)
    u = np.exp(np.minimum(np.maximum(-s, -745.0), 709.0))
    return -np.exp(np.minimum(k - s + b * u, 709.0))


def reference_probability(t, r, d, a, b):
    """The probability kernel without its tail rule."""
    with np.errstate(over="ignore"):
        z = -r * (np.asarray(t, dtype=float) - d)
    u = np.exp(np.clip(z, -745.0, 709.0))
    with np.errstate(over="ignore"):
        return a * np.exp(b * u)


def grid_params(rng, count):
    """count configs drawn from the paper grid's axes."""
    spec = GridSpec()
    axes = [np.linspace(*spec.r_range, spec.r_steps), np.linspace(*spec.c_range, spec.c_steps),
            np.linspace(*spec.d_range, spec.d_steps), np.linspace(*spec.p_d_range, spec.p_steps)]
    return [DCParams(*(float(rng.choice(axis)) for axis in axes)) for _ in range(count)]


# extremes: k > 708 (eps near 709), tiny and huge r
EXTREME_PARAMS = [
    DCParams(r=1.0, c=708.9, d=0.0, p_d=0.5),
    DCParams(r=1e-3, c=0.7089, d=5.0, p_d=1e-300),
    DCParams(r=1e-6, c=0.0, d=1.0, p_d=0.5),
    DCParams(r=1e6, c=3.0, d=2.0, p_d=0.9),
    DCParams(r=1e12, c=0.0, d=0.0, p_d=0.1),
]


def fuzz_margins(rng, p, size):
    """Margins t = d + s/r with s over [-1e4, 1e4], dense near both tail
    bounds and near 0, plus +-inf, NaN, +-0 and t == d."""
    k = _derivative_constants(p)[3]
    s = np.concatenate([
        rng.uniform(-1e4, 1e4, size),
        rng.choice((-1.0, 1.0), size) * 10.0 ** rng.uniform(-6.0, 4.0, size),
        745.0 + rng.uniform(-1.0, 1.0, size),
        k + 746.0 + rng.uniform(-1.0, 1.0, size),
    ])
    return np.concatenate([p.d + s / p.r, [np.inf, -np.inf, np.nan, 0.0, -0.0, p.d]])


def assert_same_bits(got, want):
    """Equal values, NaN at the same places and the same sign on every
    number, so -0.0 must match too. A NaN's sign is left out: numpy's add
    of two NaNs returns either one's depending on the element's position
    in the array, so the whole formula gives it no stable sign."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    number = ~np.isnan(want)
    assert np.array_equal(np.signbit(got[number]), np.signbit(want[number]))


class TestKernelTailRule:
    """The kernels fill the elements far into the Gompertz tail instead of
    computing them; the bits must be those of the whole formula."""

    @staticmethod
    def kernels(t, p):
        r, d, b, k = _derivative_constants(p)
        with np.errstate(over="ignore", invalid="ignore"):
            return ((_dc_derivative(t, r, d, b, k), reference_dc_derivative(t, r, d, b, k)),
                    (_probability(t, p.r, p.d, p.a, p.b),
                     reference_probability(t, p.r, p.d, p.a, p.b)))

    def test_fuzzed_margins_match_the_whole_formula(self, rng):
        for p in grid_params(rng, 40) + EXTREME_PARAMS:
            t = fuzz_margins(rng, p, 500)
            for got, want in self.kernels(t, p):
                assert_same_bits(got, want)
            for got, want in self.kernels(rng.permutation(t)[t.size // 2:], p):
                assert_same_bits(got, want)

    def test_scalars_and_zero_d_arrays(self, rng):
        for p in grid_params(rng, 10) + EXTREME_PARAMS:
            for t in fuzz_margins(rng, p, 3):
                for form in (float(t), np.float64(t), np.asarray(t)):
                    for got, want in self.kernels(form, p):
                        assert_same_bits(got, want)

    def test_columns_against_rows(self, rng):
        params = grid_params(rng, 12) + EXTREME_PARAMS
        t = np.stack([fuzz_margins(rng, p, 100) for p in params])
        cols = np.array([(p.r, p.d, p.a, p.b, _derivative_constants(p)[3])
                         for p in params]).T[..., None]
        r, d, a, b, k = cols
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_bits(_dc_derivative(t, r, d, b, k), reference_dc_derivative(t, r, d, b, k))
            assert_same_bits(_probability(t, r, d, a, b), reference_probability(t, r, d, a, b))
        for j, p in enumerate(params):  # each row as a run of its own
            for got, want in self.kernels(t[j], p):
                assert_same_bits(got, want)

    def test_empty_margins(self):
        p = DCParams(r=2.0, c=1.0, d=1.0, p_d=0.7)
        for t in (np.array([]), np.empty((3, 0))):
            for got, want in self.kernels(t, p):
                assert_same_bits(got, want)
        assert loss_derivative(p, np.array([])).shape == (0,)
        assert response_probability(p, np.array([])).shape == (0,)

    def test_tail_is_filled_with_the_formula_bits(self):
        p = DCParams(r=1.6521739130434785, c=1.5, d=1.5, p_d=0.9)
        t = p.d + np.array([1e3, 1e4, np.inf]) / p.r
        assert_same_bits(loss_derivative(p, t), [-0.0] * 3)
        assert_same_bits(response_probability(p, t), [p.a] * 3)

    def test_deep_tail_takes_no_subnormal(self, rng):
        # the filled elements are never computed, so nothing underflows
        params = grid_params(rng, 20) + EXTREME_PARAMS[2:]
        for p in params:
            t = p.d + rng.uniform(2e3, 1e4, 50) / p.r
            r, d, b, k = _derivative_constants(p)
            with np.errstate(under="raise"):
                _dc_derivative(t, r, d, b, k)
                _probability(t, p.r, p.d, p.a, p.b)
        cols = np.array([(p.r, p.d, p.a, p.b) for p in params]).T[..., None]
        t = cols[1] + rng.uniform(2e3, 1e4, (len(params), 50)) / cols[0]
        with np.errstate(under="raise"):
            _probability(t, *cols)

    def test_exp_is_zero_at_and_below_minus_746(self):
        # the derivative's tail rule rests on this property of numpy's exp
        x = np.concatenate([np.linspace(-746.0, -2000.0, 1_000_001),
                            -np.geomspace(2000.0, 1e308, 10_001),
                            [-np.inf]])
        with np.errstate(under="ignore"):
            out = np.exp(x)
        assert_same_bits(out, np.zeros_like(x))
