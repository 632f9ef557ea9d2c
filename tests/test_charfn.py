import math

import numpy as np
import pytest

from multistable.charfn import cf, cf_multivariate, cf_profile
from multistable.fixtures import fixture, random_spec
from multistable.function_space import ExponentFunction, StepFunction, refine


def make(breaks, coefs, a_vals, a_breaks=()):
    return refine(StepFunction(breaks, coefs), ExponentFunction(a_breaks, a_vals))


CAUCHY = make((0.0, 1.0), (1.0,), (1.0,))


def test_theta_zero_is_one(rng):
    for _ in range(10):
        assert cf(random_spec(rng), 0.0) == 1.0


def test_cauchy_closed_form():
    assert cf(CAUCHY, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-15)


def test_half_exponent_closed_form():
    spec = make((0.0, 1.0), (1.0,), (0.5,))
    assert cf(spec, 4.0) == pytest.approx(math.exp(-2.0), rel=1e-15)


def test_even(rng):
    for _ in range(20):
        spec = random_spec(rng)
        t = float(rng.uniform(0.0, 20.0))
        assert cf(spec, t) == cf(spec, -t)


def test_bounds_and_strict_decay(rng):
    for _ in range(20):
        spec = random_spec(rng)
        ts = np.linspace(0.0, 30.0, 40)
        vals = cf_profile(spec, ts)
        assert vals[0] == 1.0
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        # strictly decreasing until the exponential underflows to 0
        alive = vals > 1e-300
        assert np.all(np.diff(vals[alive]) < 0.0)


def test_nan_theta_refused_and_infinite_theta_is_zero():
    # a NaN theta came back as a NaN cf (cf_profile: a NaN entry), and in
    # cf_multivariate as a complaint about the combined step function's
    # coefficients
    spec = fixture("two_exp")
    with pytest.raises(ValueError, match="theta"):
        cf(spec, math.nan)
    with pytest.raises(ValueError, match="theta"):
        cf_multivariate([spec, spec], [1.0, math.nan])
    with pytest.raises(ValueError, match="theta"):
        cf_profile(spec, [1.0, math.nan])
    assert cf(spec, math.inf) == cf(spec, -math.inf) == 0.0
    assert cf_profile(spec, [math.inf, -math.inf]).tolist() == [0.0, 0.0]


def test_lp_truncated_integral_converges():
    # integral of cf^p stabilizes as the truncation grows, for p in {0.5, 1, 2}
    spec = fixture("two_exp")
    ts = np.linspace(0.0, 400.0, 400001)
    for p in (0.5, 1.0, 2.0):
        vals = cf_profile(spec, ts) ** p
        full = np.trapezoid(vals, ts)
        half = np.trapezoid(vals[: 200001], ts[: 200001])
        quarter = np.trapezoid(vals[: 100001], ts[: 100001])
        assert abs(full - half) < 1e-8
        assert abs(full - half) <= abs(half - quarter) + 1e-12


class TestMultivariate:
    def test_d1_reduces_to_cf(self, rng):
        spec = random_spec(rng)
        t = 1.3
        assert cf_multivariate([spec], [t]) == pytest.approx(cf(spec, t), rel=1e-14)

    def test_all_zero_thetas(self):
        assert cf_multivariate([CAUCHY, CAUCHY], [0.0, 0.0]) == 1.0

    def test_two_indicators(self):
        assert cf_multivariate([CAUCHY, CAUCHY], [1.0, 1.0]) == pytest.approx(
            math.exp(-2.0), rel=1e-15)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            cf_multivariate([CAUCHY], [1.0, 2.0])

    def test_mismatched_exponents(self):
        other = make((0.0, 1.0), (1.0,), (0.5,))
        with pytest.raises(ValueError):
            cf_multivariate([CAUCHY, other], [1.0, 1.0])

    def test_empty(self):
        with pytest.raises(ValueError):
            cf_multivariate([], [])
