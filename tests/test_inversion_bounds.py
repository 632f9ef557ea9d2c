"""Honesty of the (value, error bound) pairs returned by the inversion routines.

Every check asserts |true - value| <= err against an independent oracle:
the Cauchy closed forms, or Zolotarev's convergent series for the
standard symmetric stable law (cf exp(-|theta|^alpha)) summed in mpmath.
"""

import math
import time

import mpmath as mp
import numpy as np
import pytest

from multistable.fixtures import fixture
from multistable.function_space import ExponentFunction, StepFunction, refine
from multistable.inversion import (
    _EPS,
    _cdf_with_error,
    _integrand,
    _log_exp1,
    _log_upper_gamma,
    _plan,
    _ray,
    _stub,
    _truncation,
    cdf,
    density,
    density_with_error,
    interval_probability,
    tail_probability_with_error,
)
from multistable.quadrature import AccuracyError, QuadratureConfig, _nodes

CAUCHY = fixture("cauchy")
TOLS = (1e-10, 1e-13)


def stable(alpha):
    return refine(StepFunction((0.0, 1.0), (1.0,)), ExponentFunction.constant(alpha))


def _sum_series(term, dps):
    """Sum term(k) for k = 0, 1, ... until the terms stay below 1e-40 of the sum."""
    with mp.workdps(dps):
        total, k, small = mp.mpf(0), 0, 0
        while small < 5:
            t = term(k)
            total += t
            small = small + 1 if abs(t) < abs(total) * mp.mpf(10) ** -40 else 0
            k += 1
            assert k < 20000, "series did not converge"
        return total


def small_x_series(alpha, x, what):
    """Density, cdf or two-sided tail near 0, convergent for alpha > 1."""
    a, x = mp.mpf(alpha), mp.mpf(x)
    if what == "density":
        s = _sum_series(lambda k: (-1) ** k * mp.gamma((2 * k + 1) / a)
                        / mp.factorial(2 * k) * x ** (2 * k), 40)
        return float(s / (mp.pi * a))
    s = _sum_series(lambda k: (-1) ** k * mp.gamma((2 * k + 1) / a)
                    / mp.factorial(2 * k + 1) * x ** (2 * k + 1), 40)
    with mp.workdps(40):
        half = s / (mp.pi * a)                  # F(x) - 1/2
        return float(mp.mpf(1) / 2 + half if what == "cdf" else 1 - 2 * half)


def large_x_series(alpha, x, what):
    """Density or two-sided tail away from 0, convergent for alpha < 1."""
    # the terms peak near k = (alpha^alpha x^-alpha)^(1/(1-alpha)) at about
    # exp((1 - alpha) k): carry that many extra digits through the cancellation
    peak = (alpha ** alpha * x ** -alpha) ** (1.0 / (1.0 - alpha))
    dps = 40 + int((1.0 - alpha) * peak / 2.3)
    a, x = mp.mpf(alpha), mp.mpf(x)
    if what == "density":
        s = _sum_series(lambda k: (-1) ** k * mp.gamma(a * (k + 1) + 1) / mp.factorial(k + 1)
                        * mp.sin((k + 1) * mp.pi * a / 2) * x ** (-a * (k + 1) - 1), dps)
        return float(s / mp.pi)
    s = _sum_series(lambda k: (-1) ** k * mp.gamma(a * (k + 1)) / mp.factorial(k + 1)
                    * mp.sin((k + 1) * mp.pi * a / 2) * x ** (-a * (k + 1)), dps)
    return float(2 * s / mp.pi)


def log_grid(lo, hi, per_decade=2):
    n = int(round(math.log10(hi / lo) * per_decade))
    return [lo * (hi / lo) ** (i / n) for i in range(n + 1)]


def cauchy_density(x):
    return float(1 / (mp.pi * (1 + mp.mpf(x) ** 2)))


def cauchy_tail(x):
    return float(2 / mp.pi * mp.atan(1 / mp.mpf(x)))


class TestNearOrigin:
    # these points once came back as 0.0 or 1.0 with bounds near 1e-15
    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("x", [1e-6, 1e-5, 1e-4, 1e-3])
    def test_cauchy(self, x, tol):
        cfg = QuadratureConfig(abs_tol=tol)
        d, derr = density_with_error(CAUCHY, x, cfg)
        assert abs(cauchy_density(x) - d) <= derr
        assert density(CAUCHY, x, cfg) == pytest.approx(cauchy_density(x), abs=tol)
        p, perr = tail_probability_with_error(CAUCHY, x, cfg)
        assert abs(cauchy_tail(x) - p) <= perr

    @pytest.mark.parametrize("tol", TOLS)
    @pytest.mark.parametrize("alpha", [1.5, 1.9])
    def test_constant_alpha_density_at_1e_3(self, alpha, tol):
        # D(x) = Gamma(1 + 1/a)/pi - Gamma(3/a) x^2 / (2 pi a) + O(x^4)
        x = 1e-3
        got = density(stable(alpha), x, QuadratureConfig(abs_tol=tol))
        d0 = math.gamma(1.0 + 1.0 / alpha) / math.pi
        assert abs(got - d0) <= math.gamma(3.0 / alpha) / (2 * math.pi * alpha) * x * x + tol


class TestSeriesSweep:
    @pytest.mark.parametrize("tol", TOLS)
    def test_alpha_1_5_near_zero(self, tol):
        spec, cfg = stable(1.5), QuadratureConfig(abs_tol=tol)
        for x in log_grid(1e-6, 1.0):
            d, derr = density_with_error(spec, x, cfg)
            assert abs(small_x_series(1.5, x, "density") - d) <= derr, x
            assert abs(small_x_series(1.5, x, "cdf") - cdf(spec, x, cfg)) <= tol, x
            p, perr = tail_probability_with_error(spec, x, cfg)
            assert abs(small_x_series(1.5, x, "tail") - p) <= perr, x

    @pytest.mark.parametrize("tol", TOLS)
    def test_alpha_0_6_away_from_zero(self, tol):
        spec, cfg = stable(0.6), QuadratureConfig(abs_tol=tol)
        for x in log_grid(0.1, 1e6):
            d, derr = density_with_error(spec, x, cfg)
            assert abs(large_x_series(0.6, x, "density") - d) <= derr, x
            p, perr = tail_probability_with_error(spec, x, cfg)
            assert abs(large_x_series(0.6, x, "tail") - p) <= perr, x

    @pytest.mark.parametrize("tol", TOLS)
    def test_cauchy_closed_forms(self, tol):
        cfg = QuadratureConfig(abs_tol=tol)
        for x in log_grid(1e-6, 1e6):
            d, derr = density_with_error(CAUCHY, x, cfg)
            assert abs(cauchy_density(x) - d) <= derr, x
            p, perr = tail_probability_with_error(CAUCHY, x, cfg)
            assert abs(cauchy_tail(x) - p) <= perr, x
            assert abs(1.0 - 0.5 * cauchy_tail(x) - cdf(CAUCHY, x, cfg)) <= tol, x


def test_cauchy_sweep_within_every_bound():
    # density, tail, cdf at +-x and two intervals on 97 points from 1e-12 to
    # 1e12, each within its own bound of the closed form in mpmath; the cdf
    # at x > 0 must count the rounding of 1 - P/2 (up to half an ulp of F)
    def interval(lo, hi):
        (f_hi, e_hi), (f_lo, e_lo) = _cdf_with_error(CAUCHY, hi), _cdf_with_error(CAUCHY, lo)
        err = e_hi + e_lo + _EPS * abs(f_hi - f_lo)
        return interval_probability(CAUCHY, lo, hi, QuadratureConfig(abs_tol=err)), err

    bad = []
    with mp.workdps(50):
        for x in log_grid(1e-12, 1e12, 4):
            mx, hi = mp.mpf(x), x * (1.0 + 1e-6)
            half = mp.atan(mx) / mp.pi
            checks = {
                "density": (1 / (mp.pi * (1 + mx ** 2)), density_with_error(CAUCHY, x)),
                "tail": (1 - 2 * half, tail_probability_with_error(CAUCHY, x)),
                "cdf": (mp.mpf(1) / 2 + half, _cdf_with_error(CAUCHY, x)),
                "cdf at -x": (mp.mpf(1) / 2 - half, _cdf_with_error(CAUCHY, -x)),
                "(-x, x]": (2 * half, interval(-x, x)),
                "(x, x (1 + 1e-6)]": ((mp.atan(mp.mpf(hi)) - mp.atan(mx)) / mp.pi,
                                      interval(x, hi)),
            }
            bad += [(what, x) for what, (true, (value, err)) in checks.items()
                    if not abs(true - value) <= err]
    assert not bad


class TestSmallExponent:
    # With alpha near 0 the law is extremely heavy-tailed and peaked; each
    # call must return an honest bound or raise AccuracyError, and quickly.
    @pytest.mark.parametrize("alpha", [0.05, 0.2])
    @pytest.mark.parametrize("what", ["density", "tail"])
    @pytest.mark.parametrize("x", [1e-9, 1e8])
    def test_honest_or_fast_failure(self, alpha, what, x):
        spec, cfg = stable(alpha), QuadratureConfig(abs_tol=1e-10)
        fn = density_with_error if what == "density" else tail_probability_with_error
        start = time.perf_counter()
        try:
            value, err = fn(spec, x, cfg)
        except AccuracyError:
            assert time.perf_counter() - start < 5.0
            return
        assert time.perf_counter() - start < 5.0
        assert abs(large_x_series(alpha, x, what) - value) <= err


class TestTruncationSpecialFunctionBounds:
    # The truncation bounds use closed-form upper bounds on E1 and Gamma(s, x);
    # each must lie above the true value and within a factor 2 of it.
    @pytest.mark.parametrize("x", [0.3, 0.5, 1.0, 3.0, 10.0, 45.0, 100.0, 700.0, 1e3])
    def test_exp1(self, x):
        with mp.workdps(30):
            excess = mp.mpf(_log_exp1(x)) - mp.log(mp.e1(x))
        assert 0.0 <= excess <= math.log(2.0), x

    @pytest.mark.parametrize("s", [0.01, 0.3, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
                             + [1.0 / a for a in (0.6, 0.3, 0.1, 0.05)])
    @pytest.mark.parametrize("x", [45.0, 60.0, 100.0, 1e3])
    def test_upper_gamma(self, s, x):
        with mp.workdps(30):
            excess = mp.mpf(_log_upper_gamma(s, x)) - mp.log(mp.gammainc(s, x, mp.inf))
        assert 0.0 <= excess <= math.log(2.0), (s, x)

    def test_upper_gamma_out_of_range_is_infinite(self):
        assert _log_upper_gamma(20.0, 10.0) == math.inf


def exact_terms(ray, omega):
    """omega, e^{i phi} and each group's (alpha, W, e^{i alpha phi}) in mpmath, at the
    working precision."""
    phi = mp.mpf(ray.phi)
    return (mp.mpf(omega), mp.expj(phi),
            [(mp.mpf(a), mp.mpf(c), mp.expj(mp.mpf(a) * phi)) for a, c in ray.groups])


def exact_integrand(kind, terms, t):
    """The kind's integrand on the ray times t (the ds = dt/t weight), at t, in
    mpmath: D = Re(int ds) / pi for the densities, P = 2 Im(int ds) / pi for the
    tails (tail-cf gives 1 - P)."""
    w, rot, groups = terms
    kern, m = mp.exp(1j * w * t * rot), sum(c * z * t ** a for a, c, z in groups)
    if kind == "density":
        return kern * mp.exp(-m) * rot * t
    if kind == "density-1":
        return kern * mp.expm1(-m) * rot * t
    if kind == "tail":
        return -kern * mp.expm1(-m)
    return mp.expm1(1j * w * t * rot) * mp.exp(-m)       # tail-cf


# three fixtures, each of the four stub forms: (kind, omega) on either side of a switch
PART_FIXTURES = ["two_exp", "three_cell", "alpha18"]
PART_KINDS = [("density", 0.3), ("density-1", 3.0), ("tail", 3.0), ("tail-cf", 0.3)]


class TestStubRemainder:
    # Each of the four stub forms against its exact value: the integrand less
    # its first order, integrated in mpmath from 0 to the stub's float end,
    # must lie within the stub's remainder bound.  The bound has little slack
    # (6e-9 of it on three_cell's tail at 1e-18), so the integral runs on a log
    # scale, where the t^(alpha - 1) ends are smooth: at 30 digits on [0, t_lo]
    # mpmath's own error read as a violation there.  The first order is built
    # in mpmath too, as the float value's rounding (1.6e-26 there) exceeds the
    # slack (8e-28).  On alpha18 (alpha > 1) the bare kernel's (wt)^2/2 leads the
    # density's and tail-cf's remainder; on the other two it is a small share.
    @pytest.mark.parametrize("name", PART_FIXTURES)
    @pytest.mark.parametrize("kind, omega", PART_KINDS)
    @pytest.mark.parametrize("tgt", [1e-10, 1e-18])
    def test_remainder_within_its_bound(self, name, kind, omega, tgt):
        ray = _ray(fixture(name))
        assert _plan(ray, omega, kind.split("-")[0]).kind == kind
        s_lo, _, rem = _stub(ray, kind, omega, math.log(min(1.0 / omega, ray.t_cf)), tgt)
        with mp.workdps(30):
            end = mp.mpf(math.exp(s_lo))
            terms = exact_terms(ray, omega)
            w, rot, groups = terms
            first = {"density": rot * end * (1 + 0.5j * w * rot * end - sum(
                         c * z * end ** a / (a + 1) for a, c, z in groups)),
                     "density-1": -rot * end * sum(c * z * end ** a / (a + 1)
                                                   for a, c, z in groups),
                     "tail": sum(c * z * end ** a / a for a, c, z in groups),
                     "tail-cf": 1j * w * rot * end}[kind]
            actual = abs(mp.quad(lambda s: exact_integrand(kind, terms, mp.exp(s)),
                                 [-mp.inf, mp.log(end)]) - first)
        assert 0.0 < actual <= rem, (actual, rem)


class TestTruncation:
    # int_T^inf |integrand| dt beyond the last panel, T = e^s_hi, against
    # _truncation's bound at targets that force retried decays.  The integral
    # runs in mpmath at 30 digits on a log scale over [s_hi, s_hi + log(40) / p],
    # p = min(a, 1): every envelope the bound uses has fallen by e^-1800 there
    # (an infinite upper end ran for minutes).  The integrand falls by e^-decay
    # per unit of p (s - s_hi), so the pieces shrink toward s_hi: on 5 of them
    # the integral is within 1e-6 of one on 18.  The bound of the kernel cuts
    # (density-1, tail) adds the unresolved-phase term, which also covers the
    # rule's panels past s_cf; where it exceeds the target (alpha18 at omega 3)
    # the bound is 1e7 to 1e8 times the actual tail.  Run with -s to see every
    # bound / actual.
    @pytest.mark.parametrize("name", PART_FIXTURES)
    @pytest.mark.parametrize("kind, omega", PART_KINDS)
    @pytest.mark.parametrize("tgt", [1e-24, 1e-32])
    def test_tail_within_its_bound(self, name, kind, omega, tgt):
        ray = _ray(fixture(name))
        assert _plan(ray, omega, kind.split("-")[0]).kind == kind
        s_hi, bound = _truncation(ray, kind, omega, tgt)
        span = math.log(40.0) / min(ray.a, 1.0)
        with mp.workdps(30):
            terms = exact_terms(ray, omega)
            actual = mp.quad(lambda s: abs(exact_integrand(kind, terms, mp.exp(s))),
                             [s_hi + span * x for x in (0.0, 2.0 ** -10, 2.0 ** -7, 2.0 ** -4,
                                                        0.5, 1.0)])
        print(f"truncation {name} {kind} tgt {tgt:g}: bound / actual {float(bound / actual):.3g}")
        assert 0.0 < actual <= bound, (actual, bound)


class TestNodeRoundoff:
    # At 150 nodes of each plan, drawn under a fixed seed, _integrand's value
    # must lie within eps times its counted roundoff of the exact integrand at
    # the same float node (t = t0 e^sigma from the float t0 and sigma), computed
    # in mpmath at 40 digits.  Run with -s to see each plan's worst share.
    # The sampled errors stay far inside the bound (worst 0.126 of it), so
    # this checks that the whole bound covers them, not the _ROUNDINGS count
    # itself: a copy with _ROUNDINGS cut tenfold still passes, one with 0 fails.
    @pytest.mark.parametrize("name", PART_FIXTURES)
    @pytest.mark.parametrize("kind, omega", PART_KINDS)
    def test_values_within_their_counted_roundoff(self, name, kind, omega):
        ray = _ray(fixture(name))
        plan = _plan(ray, omega, kind.split("-")[0])
        assert plan.kind == kind
        sigma, _ = _nodes(plan.lo, plan.width)
        f, err = _integrand(ray, kind, omega, plan.t0, sigma)
        picks = np.random.default_rng(14).choice(sigma.size, 150, replace=False).tolist()
        part = mp.re if kind.startswith("density") else mp.im
        worst = 0.0
        with mp.workdps(40):
            terms = exact_terms(ray, omega)
            for i in picks:
                t = mp.mpf(plan.t0) * mp.exp(mp.mpf(sigma[i]))
                off = abs(f[i] - part(exact_integrand(kind, terms, t)))
                assert off <= _EPS * err[i], (sigma[i], off, _EPS * err[i])
                worst = max(worst, float(off / (_EPS * err[i])))
        print(f"roundoff {name} {kind}: worst {worst:.3g} of the counted bound")
