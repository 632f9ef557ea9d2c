import itertools
import math

import numpy as np
import pytest

from multistable.fixtures import fixture
from multistable.function_space import ExponentFunction, MultistableSpec, StepFunction, refine
from multistable.inversion import (
    cdf,
    density,
    interval_probability,
    tail_probability,
)
from multistable.quadrature import QuadratureConfig

CAUCHY = fixture("cauchy")
TWO_EXP = fixture("two_exp")
CFG = QuadratureConfig(abs_tol=1e-10)


def cauchy_density(x):
    return 1.0 / (math.pi * (1.0 + x * x))


def cauchy_tail(lam):
    return 2.0 / math.pi * math.atan(1.0 / lam)


class TestDensity:
    @pytest.mark.parametrize("x", [0.0, 1.0, 5.0])
    def test_cauchy_oracle(self, x):
        got = density(CAUCHY, x, QuadratureConfig(abs_tol=1e-10))
        assert got == pytest.approx(cauchy_density(x), abs=1e-8)

    def test_even(self):
        for spec in (CAUCHY, TWO_EXP):
            for x in (0.7, 3.3):
                assert density(spec, x, CFG) == pytest.approx(
                    density(spec, -x, CFG), abs=1e-10)

    def test_zero_function_rejected(self):
        zero = refine(StepFunction((0.0, 1.0), (0.0,)), ExponentFunction.constant(1.0))
        with pytest.raises(ValueError):
            density(zero, 0.0, CFG)

    def test_bounded_by_value_at_zero(self):
        d0 = density(TWO_EXP, 0.0, CFG)
        for x in (0.5, 1.0, 2.0, 10.0):
            assert density(TWO_EXP, x, CFG) <= d0 + 1e-10


class TestTail:
    @pytest.mark.parametrize("lam,expected", [
        (1.0, 0.5),
        (10.0, 2.0 / math.pi * math.atan(0.1)),
        (100.0, 2.0 / math.pi * math.atan(0.01)),
    ])
    def test_cauchy_oracle(self, lam, expected):
        assert tail_probability(CAUCHY, lam, CFG) == pytest.approx(expected, abs=1e-10)

    def test_small_lambda_near_one(self):
        assert tail_probability(TWO_EXP, 1e-6, CFG) == pytest.approx(1.0, abs=1e-4)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            tail_probability(CAUCHY, 0.0, CFG)

    def test_monotone_in_lambda(self):
        lams = [0.5, 1.0, 2.0, 5.0, 20.0, 100.0]
        vals = [tail_probability(TWO_EXP, lam, CFG) for lam in lams]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestInterval:
    def test_whole_line(self):
        assert interval_probability(CAUCHY, -math.inf, math.inf, CFG) == 1.0

    def test_cauchy_symmetric_unit(self):
        assert interval_probability(CAUCHY, -1.0, 1.0, CFG) == pytest.approx(0.5, abs=1e-10)

    def test_half_line(self):
        assert interval_probability(CAUCHY, 0.0, math.inf, CFG) == pytest.approx(0.5, abs=1e-10)

    def test_lo_above_hi_rejected(self):
        with pytest.raises(ValueError):
            interval_probability(CAUCHY, 1.0, -1.0, CFG)

    def test_consistent_with_tail(self):
        for lam in (1.0, 10.0, 100.0):
            inner = interval_probability(TWO_EXP, -lam, lam, CFG)
            assert inner == pytest.approx(1.0 - tail_probability(TWO_EXP, lam, CFG),
                                          abs=2e-10)

    def test_normalization_grows_to_one(self):
        vals = [interval_probability(TWO_EXP, -r, r, CFG) for r in (10.0, 100.0, 1000.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(1.0, abs=2e-2)

    def test_cdf_antisymmetry(self):
        for x in (0.5, 2.0):
            assert cdf(TWO_EXP, x, CFG) + cdf(TWO_EXP, -x, CFG) == pytest.approx(
                1.0, abs=2e-10)


def tail_via_density(spec: MultistableSpec, lam: float,
                     cfg: QuadratureConfig | None = None,
                     density_tol: float | None = None) -> float:
    """P(|I(f)| > lam) = 1 - 2 integral_0^lam D(x) dx, integrating the density.

    A deliberately independent route from the tail integral: the x-axis
    integral is driven adaptively over pointwise density evaluations, so
    the two paths share no quadrature decisions.  Used for cross-checks.
    """
    from scipy.integrate import quad

    cfg = cfg or QuadratureConfig()
    dtol = density_tol if density_tol is not None else cfg.abs_tol

    dcfg = QuadratureConfig(abs_tol=dtol)
    body, err = quad(lambda x: density(spec, x, dcfg), 0.0, lam,
                     epsabs=cfg.abs_tol / 4, epsrel=1e-12, limit=400)
    return float(np.clip(1.0 - 2.0 * body, 0.0, 1.0))


class TestCrossRoutes:
    def test_oracle_equivalence_tight(self):
        # constant alpha = 1 against closed forms at abs_tol 1e-10 -> 1e-8
        tight = QuadratureConfig(abs_tol=1e-10)
        for x in (0.0, 1.0, 5.0):
            assert density(CAUCHY, x, tight) == pytest.approx(cauchy_density(x), abs=1e-8)
        for lam in (1.0, 10.0, 100.0):
            assert tail_probability(CAUCHY, lam, tight) == pytest.approx(
                cauchy_tail(lam), abs=1e-8)

    @pytest.mark.parametrize("lam", [1.0, 10.0, 100.0])
    def test_density_route_matches_gil_pelaez(self, lam):
        via_density = tail_via_density(CAUCHY, lam, CFG)
        direct = tail_probability(CAUCHY, lam, CFG)
        assert via_density == pytest.approx(direct, abs=2e-10)

    def test_density_route_two_exp(self):
        lam = 10.0
        assert tail_via_density(TWO_EXP, lam, CFG) == pytest.approx(
            tail_probability(TWO_EXP, lam, CFG), abs=2e-9)


class TestStableOracle:
    # scipy.stats.levy_stable (beta = 0, scale 1) has the same characteristic
    # function exp(-|theta|^alpha) and an unrelated evaluation method
    @pytest.mark.parametrize("name,alpha", [("alpha06", 0.6), ("alpha14", 1.4),
                                            ("alpha18", 1.8)])
    def test_density_matches_levy_stable(self, name, alpha):
        from scipy.stats import levy_stable

        spec = fixture(name)
        cfg = QuadratureConfig(abs_tol=1e-11)
        for x in (0.0, 0.7, 3.0):
            assert density(spec, x, cfg) == pytest.approx(
                levy_stable.pdf(x, alpha, 0.0), abs=1e-9)

    @pytest.mark.parametrize("name,alpha", [("alpha06", 0.6), ("alpha18", 1.8)])
    def test_tail_matches_levy_stable(self, name, alpha):
        from scipy.stats import levy_stable

        spec = fixture(name)
        cfg = QuadratureConfig(abs_tol=1e-11)
        for lam in (2.0, 20.0):
            assert tail_probability(spec, lam, cfg) == pytest.approx(
                2.0 * levy_stable.sf(lam, alpha, 0.0), abs=1e-9)


def test_monte_carlo_consistency():
    from multistable.sampler import mc_tail, sample

    draws = sample(TWO_EXP, 10 ** 6, seed=7)
    for lam in (1.0, 10.0, 100.0):
        p_hat, se = mc_tail(draws, lam)
        p = tail_probability(TWO_EXP, lam, CFG)
        assert abs(p_hat - p) <= 4.0 * se


def test_interval_certifies_the_sum_of_its_cdf_bounds():
    # each cdf meets abs_tol at the larger of their bounds, but the difference
    # can be off by both: the interval's own bound must be certified
    from multistable.inversion import _cdf_with_error
    from multistable.quadrature import AccuracyError

    bounds = [_cdf_with_error(CAUCHY, x)[1] for x in (1.0, 2.0)]
    assert min(bounds) > 0.0
    for x in (1.0, 2.0):
        cdf(CAUCHY, x, QuadratureConfig(abs_tol=max(bounds)))
    with pytest.raises(AccuracyError, match="interval probability"):
        interval_probability(CAUCHY, 1.0, 2.0, QuadratureConfig(abs_tol=max(bounds)))
    p = interval_probability(CAUCHY, 1.0, 2.0, QuadratureConfig(abs_tol=2.0 * sum(bounds)))
    assert p == pytest.approx((math.atan(2.0) - math.atan(1.0)) / math.pi, abs=2.0 * sum(bounds))


@pytest.mark.parametrize("omega", [1e-250, 1e-300])
def test_truncation_bound_at_a_tiny_frequency_is_not_an_overflow(omega):
    # the tail-shape bound's W k^-alpha passes the float range there: it comes
    # out inf and the other closed form is taken
    from multistable.inversion import _ray, _truncation

    s_hi, bound = _truncation(_ray(TWO_EXP), "tail", omega, 1e-30)
    assert math.isfinite(s_hi) and math.isfinite(bound)


@pytest.mark.parametrize("name", ["two_exp", "alpha18", "three_cell"])
def test_tail_and_cdf_at_a_subnormal_argument(name):
    # omega sin(phi) underflows to 0 on these rays (sin(phi) <= 1/2), where the
    # tail-cf switch took its log, a math domain error; the cf dies long before
    # the kernel there, so the tail is tail-cf's 1
    from multistable.inversion import _cdf_with_error, tail_probability_with_error

    spec = fixture(name)
    p, err = tail_probability_with_error(spec, 5e-324)
    assert p == 1.0 and 0.0 < err < 1e-14
    for x in (5e-324, -5e-324):
        f, f_err = _cdf_with_error(spec, x)
        assert f == 0.5 and 0.0 < f_err < 1e-14
    assert interval_probability(spec, -5e-324, 5e-324) == 0.0


@pytest.mark.parametrize("xi", [0.0, -0.0, -1.0, -math.inf, math.nan])
def test_eta_refuses_an_xi_that_is_not_positive(xi):
    # these raised ZeroDivisionError, a math domain error or a NaN conversion
    from multistable.inversion import _eta_integrals, eta_integral

    with pytest.raises(ValueError, match="xi must be positive"):
        eta_integral(TWO_EXP, xi, 0.25)
    with pytest.raises(ValueError, match="xi must be positive"):
        _eta_integrals(TWO_EXP, [1.0, xi], 0.25)
    zero = refine(StepFunction((0.0, 1.0), (0.0,)), ExponentFunction.constant(1.0))
    assert eta_integral(zero, 1.0, 0.25) == (0.0, 0.0)
    assert _eta_integrals(zero, [1.0, 2.0], 0.25) == [(0.0, 0.0)] * 2


@pytest.mark.parametrize("name", ["two_exp", "alpha18", "three_cell"])
def test_eta_where_the_kernel_rate_underflows_is_an_accuracy_error(name):
    # xi sin(phi) rounds to 0 (sin(phi) <= 1/2): the kernel never cuts the
    # integrand, where math.log(decay / k) divided by zero
    from multistable.inversion import _eta_integrals, eta_integral
    from multistable.quadrature import AccuracyError

    spec = fixture(name)
    with pytest.raises(AccuracyError, match="underflows to 0"):
        eta_integral(spec, 5e-324, 0.25)
    with pytest.raises(AccuracyError, match="underflows to 0"):
        _eta_integrals(spec, [1.0, 5e-324], 0.25)


def test_density_whose_integrand_outlives_theta_is_an_accuracy_error():
    # one cell of width 1e-15 at alpha 0.05: t_cf is e^691, and at x = 0 the
    # envelope e^-R(t) falls to e^-45 only past t = e^700
    from multistable.inversion import density_with_error
    from multistable.quadrature import AccuracyError

    spec = refine(StepFunction((0.0, 1e-15), (1.0,)), ExponentFunction.constant(0.05))
    with pytest.raises(AccuracyError, match="density's integrand outlives"):
        density_with_error(spec, 0.0)


EDGE_SIZES = (1e-300, 1e-100, 1e-30, 1e-15, 1.0, 1e100, 1e300)
EDGE_ARGS = (0.0, 1e-310, 1e-300, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e308)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0, 1.5, 1.95])
def test_specs_at_the_float_range_edges_are_refused_by_name(alpha):
    # one cell per width and coefficient from 1e-300 to 1e300: a spec is built
    # or refused, and its quasinorm, density, tail, cdf and eta at arguments from
    # 0 to 1e308 each return finite numbers or raise ValueError or AccuracyError,
    # never OverflowError, ZeroDivisionError or a RuntimeWarning; a nonzero spec's
    # quasinorm is never 0
    from multistable.function_space import quasinorm
    from multistable.inversion import (
        _cdf_with_error,
        density_with_error,
        eta_integral,
        tail_probability_with_error,
    )
    from multistable.quadrature import AccuracyError

    returned = 0
    for width, coef in itertools.product(EDGE_SIZES, EDGE_SIZES + (1e200,)):
        try:
            spec = refine(StepFunction((0.0, width), (coef,)), ExponentFunction.constant(alpha))
        except ValueError:
            continue
        calls = [(quasinorm, ())] + [
            (call, (x,)) for x in EDGE_ARGS
            for call in (density_with_error, tail_probability_with_error, _cdf_with_error)]
        calls += [(eta_integral, (x, 0.125)) for x in EDGE_ARGS]
        for call, args in calls:
            try:
                got = call(spec, *args)
            except (ValueError, AccuracyError):
                continue
            returned += 1
            assert all(map(math.isfinite, np.atleast_1d(got))), (call.__name__, width, coef, args)
            if call is quasinorm:
                assert got > 0.0, (width, coef)
    assert returned > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eta_whose_kernel_passes_the_float_max_is_refused_by_name():
    # eta's kernel reaches xi (1 + w) and its stub xi (1 + w/2): where that
    # passed the float max, the stub raised a raw math domain error or the call
    # returned a NaN error bound; on the edge specs each call now returns finite
    # numbers or raises ValueError or AccuracyError, and the public eta refuses
    import multistable as ms
    from multistable.inversion import eta_integral
    from multistable.mollifier import build_mollifier
    from multistable.quadrature import AccuracyError

    named = 0
    for alpha in (0.05, 0.5, 1.0, 1.5, 1.95):
        for width, coef in itertools.product(EDGE_SIZES, EDGE_SIZES + (1e200,)):
            try:
                spec = refine(StepFunction((0.0, width), (coef,)), ExponentFunction.constant(alpha))
            except ValueError:
                continue
            for xi, w in ((1.7e308, 0.125), (1e308, 0.25), (float(np.finfo(float).max), 0.001)):
                try:
                    got = eta_integral(spec, xi, w)
                except AccuracyError as exc:
                    named += "xi (1 + w)" in str(exc)
                    continue
                except ValueError as exc:
                    assert "math domain" not in str(exc), (alpha, width, coef, xi, w)
                    continue
                assert all(map(math.isfinite, got)), (alpha, width, coef, xi, w)
    assert named > 0
    spec = refine(StepFunction((0.0, 1e-300), (1.0,)), ExponentFunction.constant(1.0))
    with pytest.raises(AccuracyError, match=r"xi \(1 \+ w\) passes"):
        ms.eta(spec, build_mollifier(1.25), 1.7e308, QuadratureConfig(1e-10))


# cell [0, 823.87] at alpha 0.01 and [823.87, 9.0466e20] at alpha 1.5 (groups
# (0.01, 840.07) and (1.5, 4.6e-92)): the density's plans end 529.6 past s0, where
# the alpha 1.5 group's (t/t0)^alpha is e^794
MIXED_ALPHA = refine(StepFunction((0.0, 823.87, 9.0466e20), (7.0114, -1.3784e-75)),
                     ExponentFunction((823.87,), (0.01, 1.5)))


@pytest.mark.parametrize("x", [5e-324, 1.0])
def test_a_density_whose_nodes_pass_the_float_range_is_refused_by_name(x):
    # it returned (nan, nan) after "overflow encountered in exp" and "invalid
    # value encountered in matmul"; the tail and the cdf keep their pairs
    from multistable.inversion import _cdf_with_error, density_with_error, tail_probability_with_error
    from multistable.quadrature import AccuracyError

    with pytest.raises(AccuracyError, match="floating-point range"):
        density_with_error(MIXED_ALPHA, x)
    assert tail_probability_with_error(MIXED_ALPHA, x) == (1.0, 2.841418247630041e-15)
    assert _cdf_with_error(MIXED_ALPHA, x) == (0.5, 1.4762202750462782e-15)


def test_frame_refuses_the_eta_plans_the_eta_only_rule_refused(monkeypatch):
    # _frame's one check, s_hi > end_max or s_hi - s0 > span_max, against the rule
    # it replaced for eta: the panel table's e^(s - s0) past the float max, or a
    # W t^alpha or (t/t0)^alpha past e^700 at the end
    from multistable import inversion
    from multistable.fixtures import fixture_names, random_spec
    from multistable.quadrature import AccuracyError

    ends = []
    truncation = inversion._truncation

    def recorded(*args):
        out = truncation(*args)
        ends.append(out[0])
        return out

    monkeypatch.setattr(inversion, "_truncation", recorded)
    rng = np.random.default_rng(45)
    specs = [fixture(name) for name in fixture_names()]
    specs += [refine(StepFunction((0.0, width), (1.0,)), ExponentFunction.constant(alpha))
              for width, alpha in ((1e6, 0.2), (1e12, 0.05))]     # tiny t_cf
    specs += [random_spec(rng) for _ in range(40)]
    ws = [0.5 * (q - 1.0) for q in (1.01, 1.25, 2.5, 50.0, 1e6)]
    plans = refused = 0
    for spec in specs:
        ray = inversion._ray(spec)
        for xi, w in itertools.product([10.0 ** -k for k in range(0, 301, 10)], ws):
            ends.clear()
            try:
                inversion._frame(ray, xi, "eta", w)
                frame_refuses = False
            except AccuracyError as exc:
                if not ends:        # refused by _truncation, before the check
                    continue
                assert "floating-point range" in str(exc)
                frame_refuses = True
            s_hi, s0 = ends[0], math.log(min(1.0 / xi, ray.t_cf))
            eta_rule = s_hi - s0 > inversion._LOG_MAX or any(
                max(lw + a * s_hi, a * (s_hi - s0)) > inversion._LOG_HUGE
                for a, lw in zip(ray.alph_list, ray.log_w_list))
            limits = s_hi > ray.end_max or s_hi - s0 > ray.span_max
            assert eta_rule == limits == frame_refuses, (spec.groups, xi, w)
            plans += 1
            refused += frame_refuses
    assert 0 < refused < plans
