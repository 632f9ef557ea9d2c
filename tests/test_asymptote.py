import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from multistable.asymptote import (
    TailAsymptote,
    ratio,
    scaling_bounds_check,
    tail_asymptote,
    tail_constant,
)
from multistable.fixtures import fixture, random_spec
from multistable.function_space import ExponentFunction, StepFunction, refine
from multistable.quadrature import QuadratureConfig

CAUCHY = fixture("cauchy")


class TestTailConstant:
    def test_at_one(self):
        assert tail_constant(1.0) == 2.0 / math.pi

    def test_half(self):
        expected = 0.5 / (gamma_fn(1.5) * math.cos(math.pi / 4.0))
        assert tail_constant(0.5) == pytest.approx(expected, rel=1e-14)
        assert tail_constant(0.5) == pytest.approx(0.7978846, abs=1e-7)

    def test_three_halves(self):
        expected = -0.5 / (gamma_fn(0.5) * math.cos(0.75 * math.pi))
        assert tail_constant(1.5) == pytest.approx(expected, rel=1e-14)
        assert tail_constant(1.5) == pytest.approx(0.3989423, abs=1e-7)

    def test_domain(self):
        for bad in (0.0, 2.0, -1.0, 2.3):
            with pytest.raises(ValueError):
                tail_constant(bad)

    def test_positive_on_grid(self):
        for g in np.linspace(0.01, 1.99, 199):
            assert tail_constant(float(g)) > 0.0

    @pytest.mark.parametrize("h", [1e-2, 1e-4, 1e-6])
    def test_removable_singularity_continuity(self, h):
        lim = 2.0 / math.pi
        assert abs(tail_constant(1.0 + h) - lim) < 2.0 * h
        assert abs(tail_constant(1.0 - h) - lim) < 2.0 * h
        # agreement at the switch: 1e-7 demanded just outside the window
        assert abs(tail_constant(1.0 + 2e-8) - lim) < 1e-7

    @pytest.mark.parametrize("d", [1e-9, 1e-7, 1e-5])
    def test_near_one_within_four_ulps_of_mpmath(self, d):
        # (2/pi) Gamma(g) sin(pi g / 2) has no removable singularity at 1; the
        # (1 - g) / (Gamma(2 - g) cos(pi g / 2)) form cancels there and was
        # 3.3e6 ulps off at 1 - 1e-9 (returned as 2/pi) and 1.9e3 at 1 + 1e-5
        for g in (1.0 - d, 1.0 + d):
            with mp.workdps(40):
                ref = float(2 / mp.pi * mp.gamma(mp.mpf(g)) * mp.sin(mp.pi * mp.mpf(g) / 2))
            assert abs(tail_constant(g) - ref) <= 4 * math.ulp(ref), g


class TestTailAsymptote:
    def test_cauchy_at_100(self):
        assert tail_asymptote(CAUCHY, 100.0) == pytest.approx(
            2.0 / math.pi / 100.0, rel=1e-14)

    def test_hashable_by_identity(self):
        asym = TailAsymptote.from_spec(fixture("two_exp"))
        assert hash(asym) == hash(asym)
        assert asym == asym
        assert asym != TailAsymptote.from_spec(fixture("two_exp"))

    def test_spec_is_the_only_input(self):
        spec = fixture("two_exp")
        asym = TailAsymptote(spec)
        with pytest.raises(TypeError):
            TailAsymptote(spec, asym.weights, asym.exponents)

    def test_lambda_one_weight_sum(self):
        spec = fixture("two_exp")
        asym = TailAsymptote.from_spec(spec)
        assert tail_asymptote(spec, 1.0) == pytest.approx(float(np.sum(asym.weights)))

    def test_dominant_exponent_slope(self):
        spec = fixture("two_exp")
        slope = (math.log(tail_asymptote(spec, 1e6)) - math.log(tail_asymptote(spec, 1e5)))
        slope /= math.log(10.0)
        assert slope == pytest.approx(-0.8, abs=1e-3)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            tail_asymptote(CAUCHY, 0.0)

    def test_nan_lambda_rejected(self):
        # NaN fails every comparison, so a lam <= 0 test let it through as T = NaN
        with pytest.raises(ValueError, match="lambda must be positive"):
            tail_asymptote(CAUCHY, math.nan)

    @pytest.mark.parametrize("lam", [-1.0, 0.0, math.nan, [10.0, -2.0], [math.nan, 10.0]])
    def test_call_refuses_a_lambda_that_is_not_positive(self, lam):
        # the callable used to give NaN or inf with a RuntimeWarning, or NaN silently
        with pytest.raises(ValueError, match="lambda must be positive"):
            TailAsymptote(fixture("two_exp"))(lam)

    def test_call_takes_inf_and_an_empty_grid(self):
        asym = TailAsymptote(fixture("two_exp"))
        assert asym(math.inf) == 0.0
        assert asym(np.array([])).shape == (0,)

    def test_zero_function_rejected(self):
        zero = refine(StepFunction((0.0, 1.0), (0.0,)), ExponentFunction.constant(1.0))
        with pytest.raises(ValueError):
            tail_asymptote(zero, 1.0)

    def test_strictly_decreasing(self, rng):
        for _ in range(10):
            spec = random_spec(rng)
            lams = np.geomspace(0.5, 1e4, 30)
            vals = TailAsymptote.from_spec(spec)(lams)
            assert np.all(np.diff(vals) < 0.0)


class TestRatio:
    def test_cauchy_100(self):
        got = ratio(CAUCHY, 100.0, QuadratureConfig(abs_tol=1e-12))
        assert got == pytest.approx(0.99997, abs=1e-5)

    def test_cauchy_1(self):
        got = ratio(CAUCHY, 1.0, QuadratureConfig(abs_tol=1e-12))
        assert got == pytest.approx(0.5 / (2.0 / math.pi), rel=1e-10)

    def test_tends_to_one(self):
        cfg = QuadratureConfig(abs_tol=1e-13)
        for name in ("cauchy", "two_exp", "three_cell", "wide_narrow"):
            spec = fixture(name)
            devs = [abs(ratio(spec, lam, cfg) - 1.0) for lam in (1e2, 1e3, 1e4)]
            assert devs[-1] < devs[0]
            assert devs[-1] < 0.05

    def test_lambda_below_one_rejected(self):
        with pytest.raises(ValueError):
            ratio(CAUCHY, 0.5)

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_non_finite_lambda_rejected(self, lam):
        # T(inf) = 0, so an unchecked inf divided by zero
        with pytest.raises(ValueError, match="finite lambda"):
            ratio(CAUCHY, lam)

    def test_unnormalized_rejected(self):
        spec = refine(StepFunction((0.0, 2.0), (1.0,)), ExponentFunction.constant(0.5))
        with pytest.raises(ValueError):
            ratio(spec, 10.0)


class TestScalingBounds:
    def test_xi_one_trivial(self):
        assert scaling_bounds_check(CAUCHY, 1.0, 1.0) == (True, True, True)

    def test_validation(self):
        with pytest.raises(ValueError):
            scaling_bounds_check(CAUCHY, 0.5, 1.0)
        with pytest.raises(ValueError):
            scaling_bounds_check(CAUCHY, 1.0, 0.0)

    def test_constant_alpha_always_inside(self, rng):
        spec = fixture("alpha14")
        for _ in range(50):
            xi = float(rng.uniform(1.0, 100.0))
            delta = float(rng.uniform(0.01, 50.0))
            assert all(scaling_bounds_check(spec, xi, delta))

    def test_random_sweep(self, rng):
        for _ in range(200):
            spec = random_spec(rng)
            xi = float(rng.uniform(1.0, 50.0))
            delta = float(rng.uniform(0.05, 20.0))
            assert all(scaling_bounds_check(spec, xi, delta))


def test_group_weights_match_per_cell_sum(rng):
    # T summed per exponent group equals the per-cell sum of the closed form
    lams = np.geomspace(1.0, 1e8, 97)
    specs = [fixture(n) for n in ("cauchy", "two_exp", "three_cell", "wide_narrow")]
    specs += [random_spec(rng) for _ in range(20)]
    for spec in specs:
        cells = [(hi - lo, abs(c), a) for lo, hi, c, a in spec.cells if c != 0.0]
        ref = sum(ln * c ** a * tail_constant(a) * lams ** -a for ln, c, a in cells)
        assert np.allclose(TailAsymptote.from_spec(spec)(lams), ref, rtol=1e-14, atol=0.0)
