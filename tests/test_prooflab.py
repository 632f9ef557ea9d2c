import json
import math
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistable import inversion, prooflab
from multistable.asymptote import tail_asymptote, tail_constant
from multistable.fixtures import fixture, random_spec
from multistable.function_space import ExponentFunction, StepFunction, refine
from multistable.inversion import eta_integral, tail_probability
from multistable.mollifier import build_mollifier
from multistable.prooflab import (
    eta,
    eta_with_error,
    h_q,
    j0,
    rho,
    rho_with_error,
    tau,
    tau_with_error,
    verify_elementary_inequality,
    verify_lemma1,
    verify_lemma3,
    verify_lemma5,
    verify_lemma6,
    verify_parseval,
)
from multistable.quadrature import QuadratureConfig

CAUCHY = fixture("cauchy")
TWO_EXP = fixture("two_exp")
CFG = QuadratureConfig(abs_tol=1e-10)


class TestJ0:
    def test_lambda_equals_q(self):
        assert j0(1.5, 1.5) == 1

    def test_derived_example(self):
        assert j0(10.0, 2.0) == 3  # 8 <= 10 < 16

    def test_exact_power_boundary(self):
        assert j0(1.5 ** 3, 1.5) == 3

    @pytest.mark.parametrize("lam, floored", [(7.59375, 4), (11.390624999999998, 6)])
    def test_integer_search_corrects_the_float_floor(self, lam, floored):
        # 7.59375 = 1.5^5 exactly, whose float log ratio floors one low; the float
        # below 1.5^6 floors one high
        assert math.floor(math.log(lam) / math.log(1.5)) == floored
        assert j0(lam, 1.5) == 5

    def test_bracketing_property(self, rng):
        for _ in range(200):
            q = float(rng.uniform(1.05, 3.0))
            lam = float(rng.uniform(q, 1e5))
            j = j0(lam, q)
            assert j >= 1 and q ** j <= lam < q ** (j + 1)

    def test_domain(self):
        with pytest.raises(ValueError):
            j0(1.2, 1.5)
        with pytest.raises(ValueError):
            j0(10.0, 1.0)

    @pytest.mark.parametrize("lam,q", [(math.inf, 1.5), (math.nan, 1.5), (10.0, math.nan),
                                       (10.0, math.inf)])
    def test_non_finite_arguments_refused_by_name(self, lam, q):
        # unchecked, inf overflowed in int() and nan failed to convert to an integer
        with pytest.raises(ValueError, match="lambda|q must"):
            j0(lam, q)


class TestHq:
    def test_sandwich_at_gamma_one(self, moll15):
        h = h_q(moll15, 1.0)
        c = tail_constant(1.0)
        assert 1.5 ** -1 * h <= c <= 1.5 * h

    def test_positive(self, moll15):
        for g in np.linspace(0.3, 1.9, 17):
            assert h_q(moll15, float(g)) > 0.0

    def test_q_to_one_pinch(self):
        # sandwich width (q^g - q^-g) h_q(g) shrinks as q -> 1
        from multistable.mollifier import build_mollifier

        g = 1.0
        widths = []
        for q in (2.0, 1.5, 1.25, 1.1):
            moll = build_mollifier(q)
            h = h_q(moll, g)
            widths.append((q ** g - q ** -g) * h)
        assert all(w1 > w2 for w1, w2 in zip(widths, widths[1:]))


class TestEtaTauRho:
    def test_eta_vanishes_at_infinity(self, moll15):
        big = eta(TWO_EXP, moll15, 1e8)
        assert 0.0 <= big < 1e-5

    def test_eta_lemma1_sandwich_cauchy(self, moll15):
        lam, q = 50.0, 1.5
        j = j0(lam, q)
        p = tail_probability(CAUCHY, lam, CFG)
        assert eta(CAUCHY, moll15, q ** (j + 1)) <= p <= eta(CAUCHY, moll15, q ** (j - 1))

    def test_eta_between_tau_bounds(self, moll15):
        # |eta - tau| <= rho at xi = 10 (triangle bound from the remainder)
        for spec in (CAUCHY, TWO_EXP):
            e = eta(spec, moll15, 10.0)
            t = tau(spec, moll15, 10.0)
            r = rho(spec, moll15, 10.0)
            assert t - r - 1e-12 <= e <= t + r + 1e-12

    def test_tau_sandwich(self, moll15):
        q = moll15.q
        for xi in (1.0, 10.0, 100.0):
            t = tau(TWO_EXP, moll15, xi)
            assert tail_asymptote(TWO_EXP, q * xi) <= t <= tail_asymptote(TWO_EXP, xi / q)

    def test_tau_nonincreasing(self, moll15):
        xis = np.geomspace(1.0, 1e3, 20)
        vals = [tau(TWO_EXP, moll15, float(x)) for x in xis]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_tau_constant_alpha_closed_form(self, moll15):
        # tau(xi) = xi^-alpha h_q(alpha) int |f|^alpha for constant alpha
        spec = fixture("alpha14")
        h = h_q(moll15, 1.4)
        for xi in (1.0, 7.0, 40.0):
            assert tau(spec, moll15, xi) == pytest.approx(xi ** -1.4 * h, rel=1e-12)

    @pytest.mark.parametrize("name", ["cauchy", "two_exp", "three_cell", "wide_narrow"])
    def test_tau_bound_covers_its_own_roundings(self, name, moll15):
        # with exact h values (zero bounds) the bound is the weighted sum's own
        # rounding: the power, two products and the running sum per group
        spec = fixture(name)
        hs = [(moll15.h(alph)[0], 0.0) for alph, _ in spec.groups]
        with mp.workdps(50):
            for xi in (1.0, 1.7, 7.0, 123.456, 1e5):
                val, err = prooflab._tau(spec, hs, xi)
                exact = mp.fsum(mp.mpf(wgt) * mp.mpf(xi) ** -mp.mpf(alph) * mp.mpf(h)
                                for (alph, wgt), (h, _) in zip(spec.groups, hs))
                assert abs(exact - mp.mpf(val)) <= err, (xi, val, err)
                assert err <= 4.0 * len(hs) * prooflab._EPS * val

    def test_rho_nonnegative(self, moll15):
        for xi in (1.0, 10.0, 1e3):
            assert rho(TWO_EXP, moll15, xi) >= 0.0

    def test_rho_quadratic_shape(self, moll15):
        # rho(xi) / T(xi)^2 stays bounded across xi
        ratios = []
        for xi in (10.0, 100.0, 1000.0):
            ratios.append(rho(TWO_EXP, moll15, xi) / tail_asymptote(TWO_EXP, xi) ** 2)
        assert max(ratios) < 10.0 * min(ratios)

    def test_rho_over_tail_asymptote_vanishes(self, moll15):
        q = moll15.q
        lams = (10.0, 100.0, 1000.0)
        vals = []
        for lam in lams:
            xi = q ** (j0(lam, q) + 1)
            vals.append(rho(TWO_EXP, moll15, xi) / tail_asymptote(TWO_EXP, lam))
        assert all(a > b for a, b in zip(vals, vals[1:]))
        # decays like lam^-a: the scaled constants stay in a narrow band
        scaled = [v * lam ** TWO_EXP.a for v, lam in zip(vals, lams)]
        assert max(scaled) < 5.0 * min(scaled)

    def test_zero_spec_gives_zero_with_a_zero_bound(self, moll15):
        # with no cells m = 0 everywhere; rho's bound once kept a guessed 4e-16
        zero = refine(StepFunction((0.0, 1.0), (0.0,)), ExponentFunction.constant(1.0))
        assert zero.is_zero
        for fn in (eta_with_error, tau_with_error, rho_with_error):
            for xi in (1.0, 10.0):
                assert fn(zero, moll15, xi) == (0.0, 0.0), (fn.__name__, xi)

    def test_xi_below_one_rejected(self, moll15):
        for fn in (eta, tau, rho):
            with pytest.raises(ValueError):
                fn(CAUCHY, moll15, 0.5)


class TestElementaryInequality:
    def test_endpoints(self):
        assert verify_elementary_inequality([0.0])
        assert verify_elementary_inequality([1.0])
        assert verify_elementary_inequality([100.0])

    def test_specific_values(self):
        u = 1.0
        assert abs((u + math.expm1(-u)) - math.exp(-1.0)) < 1e-15
        u = 100.0
        assert u + math.expm1(-u) == pytest.approx(99.0, abs=1e-10)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            verify_elementary_inequality([-0.1])

    def test_random_sweep(self, rng):
        assert verify_elementary_inequality(rng.uniform(0.0, 1e3, 10 ** 4))

    @pytest.mark.parametrize("u", [0.0, 1e-300, 1e-8, 1.0, 1e3, math.nan])
    def test_matches_the_loop(self, u):
        assert verify_elementary_inequality([u]) is _elementary_loop([u])

    def test_matches_the_loop_on_a_sweep(self):
        us = 10.0 ** np.random.default_rng(3).uniform(-300.0, 3.0, 2000)
        assert all(verify_elementary_inequality([u]) is _elementary_loop([u]) for u in us)
        assert verify_elementary_inequality(us) is _elementary_loop(us)

    def test_a_negative_sample_behind_a_nan_is_refused(self):
        assert verify_elementary_inequality([math.nan]) is False
        with pytest.raises(ValueError, match="nonnegative"):
            verify_elementary_inequality([1.0, math.nan, -1e-300])


def _elementary_loop(u_samples):
    """The per-sample reference: one math.expm1 a sample."""
    for u in u_samples:
        if u < 0.0:
            raise ValueError(f"samples must be nonnegative, got {u}")
        lhs = u + math.expm1(-u)
        if not (0.0 <= lhs <= u * u / 2.0):
            return False
    return True


class TestLemmaSweeps:
    def test_lemma3_reports(self, moll15):
        rep = verify_lemma3(moll15, [0.3, 1.0, 1.9])
        assert rep.passed
        assert rep.summary["worst_margin"] > 0.0
        assert len(rep.grid) == 3

    def test_lemma1_cauchy(self, moll15):
        rep = verify_lemma1(CAUCHY, moll15, [10.0, 100.0], CFG)
        assert rep.passed

    def test_lemma5_fixture(self, moll15):
        rep = verify_lemma5(TWO_EXP, moll15, [1.0, 10.0, 100.0])
        assert rep.passed

    @pytest.mark.parametrize("name", ["cauchy", "two_exp", "three_cell"])
    def test_lemma5_takes_h_once_per_group_and_call(self, name, moll15, monkeypatch):
        # the exponent groups' h_q are one hs call per sweep, not one per xi,
        # and again on the next sweep; the rows equal tau_with_error's
        spec, xis = fixture(name), [1.0, 10.0, 100.0]
        taus = [tau_with_error(spec, moll15, xi) for xi in xis]
        hs, calls = type(moll15).hs, []

        def counted(self, gammas):
            calls.append(list(gammas))
            return hs(self, gammas)

        monkeypatch.setattr(type(moll15), "hs", counted)
        for sweep in (1, 2):
            rep = verify_lemma5(spec, moll15, xis)
            assert calls == [[a for a, _ in spec.groups]] * sweep
            assert [(r["tau"], r["tau_err"]) for r in rep.grid] == taus

    def test_lemma3_and_tau_take_one_hs_call(self, moll15, monkeypatch):
        # every h_q of a lemma3 grid and of a tau comes from one hs call
        gammas, spec = [0.3, 1.0, 1.9], fixture("three_cell")
        hs, calls = type(moll15).hs, []

        def counted(self, gs):
            calls.append(list(gs))
            return hs(self, gs)

        monkeypatch.setattr(type(moll15), "hs", counted)
        rep = verify_lemma3(moll15, gammas)
        tau_with_error(spec, moll15, 10.0)
        assert calls == [gammas, [a for a, _ in spec.groups]]
        assert [(r["h"], r["h_err"]) for r in rep.grid] == [moll15.h(g) for g in gammas]

    @pytest.mark.parametrize("sweep, what", [
        (lambda moll: verify_lemma1(CAUCHY, moll, []), "lambda"),
        (lambda moll: verify_lemma3(moll, []), "gamma"),
        (lambda moll: verify_lemma5(CAUCHY, moll, []), "xi"),
        (lambda moll: verify_lemma6(CAUCHY, moll, []), "lambda"),
    ], ids=["lemma1", "lemma3", "lemma5", "lemma6"])
    def test_an_empty_grid_is_refused_by_name(self, sweep, what, moll15):
        # an empty grid used to end in "min() arg is an empty sequence"
        with pytest.raises(ValueError, match=f"need at least one {what}$"):
            sweep(moll15)

    def test_lemma6_envelope(self, moll15):
        rep = verify_lemma6(TWO_EXP, moll15, [10.0, 100.0, 1000.0], CFG)
        assert rep.passed
        q, b = 1.5, TWO_EXP.b
        for row in rep.grid:
            if row["lambda"] >= 100.0:
                assert q ** (-2 * b) * 0.5 <= row["ratio_lower"]
                assert row["ratio_upper"] <= q ** (3 * b) * 2.0

    def test_lemma6_requires_unit_sphere(self, moll15):
        from multistable.function_space import ExponentFunction, StepFunction, refine

        off = refine(StepFunction((0.0, 2.0), (1.0,)), ExponentFunction.constant(0.5))
        with pytest.raises(ValueError):
            verify_lemma6(off, moll15, [10.0], CFG)

    def test_parseval(self, moll15):
        rep = verify_parseval(CAUCHY, moll15, [0.1, 1.0], CFG)
        assert rep.passed
        for row in rep.grid:
            assert abs(row["difference"]) <= row["tolerance"]

    def test_lemma6_fails_on_an_eta_too_small(self, moll15, monkeypatch):
        # the outer inequalities are checked against the edges themselves, with
        # no envelope fitted to make them hold: eta scaled by 0.3 (its bound
        # too) keeps the middle inequality but falls below q^-2b
        lams = [10.0, 50.0, 100.0, 1000.0]
        assert verify_lemma6(TWO_EXP, moll15, lams).passed

        def scaled(spec, xis, w):
            return [(0.3 * val, 0.3 * err) for val, err in inversion._eta_integrals(spec, xis, w)]

        monkeypatch.setattr(prooflab, "_eta_integrals", scaled)
        rep = verify_lemma6(TWO_EXP, moll15, lams)
        assert not rep.passed
        assert all(row["margin_lower"] < 0.0 and not row["ok"] for row in rep.grid)

    @pytest.mark.parametrize("q", [1.25, 1.5, 2.0])
    @pytest.mark.parametrize("name", ["cauchy", "alpha06", "alpha18", "two_exp",
                                      "three_cell", "wide_narrow"])
    def test_lemma6_holds_at_the_cli_lambdas(self, name, q):
        rep = verify_lemma6(fixture(name), build_mollifier(q), [10.0, 50.0, 100.0, 1000.0])
        assert rep.passed, rep.grid
        for row in rep.grid:
            assert row["margin_lower"] <= row["ratio_lower"] - row["lower_edge"]
            assert row["margin_upper"] <= row["upper_edge"] - row["ratio_upper"]

    @pytest.mark.parametrize("lemma", ["lemma1", "lemma3", "lemma5"])
    def test_a_row_inside_its_error_window_fails(self, lemma, moll15, monkeypatch):
        # the value sits on the lower edge with a bound of 1e-3 of it: inside the
        # bounds counted in its favour, but its margin is negative, so the row
        # fails and the report with it
        spec, q = TWO_EXP, moll15.q
        if lemma == "lemma1":
            def on_the_edge(spec, lams):
                return [(lo, 1e-3 * lo) for _, (lo, _), _ in prooflab._eta_sweep(spec, moll15, lams)]

            monkeypatch.setattr(prooflab, "_tails_with_error", on_the_edge)
            rep = verify_lemma1(spec, moll15, [100.0])
        elif lemma == "lemma3":
            def on_the_edge(self, gammas):
                return [(q ** g * tail_constant(g), 1e-3 * q ** g * tail_constant(g))
                        for g in gammas]

            monkeypatch.setattr(type(moll15), "hs", on_the_edge)
            rep = verify_lemma3(moll15, [1.0])
        else:
            t = tail_asymptote(spec, q * 10.0)
            monkeypatch.setattr(prooflab, "_tau", lambda spec, hs, xi: (t, 1e-3 * t))
            rep = verify_lemma5(spec, moll15, [10.0])
        row, = rep.grid
        assert row["margin_lower"] < 0.0 < row["margin_upper"]
        assert row["ok"] is False and rep.passed is False
        assert rep.summary["worst_margin"] == row["margin_lower"]

    @pytest.mark.parametrize("q", [1.25, 1.5, 2.0])
    @pytest.mark.parametrize("name", ["cauchy", "alpha06", "alpha18", "two_exp",
                                      "three_cell", "wide_narrow"])
    def test_a_report_passes_exactly_when_its_margins_hold(self, name, q):
        # lemma6 also asks for its middle inequality, which has no margin
        spec, moll, lams = fixture(name), build_mollifier(q), [10.0, 50.0, 100.0, 1000.0]
        middle = all(lo <= hi + lo_err + hi_err
                     for _, (lo, lo_err), (hi, hi_err) in prooflab._eta_sweep(spec, moll, lams))
        for rep, extra in ((verify_lemma1(spec, moll, lams), True),
                           (verify_lemma3(moll, [0.3, 1.0, 1.9]), True),
                           (verify_lemma5(spec, moll, [1.0, 10.0, 100.0]), True),
                           (verify_lemma6(spec, moll, lams), middle),
                           (verify_parseval(spec, moll, [0.1, 1.0]), True)):
            assert rep.passed is (rep.summary["worst_margin"] >= 0.0 and extra), rep.lemma
            assert all(type(row["ok"]) is bool for row in rep.grid)

    @pytest.mark.parametrize("verify, args", [
        (verify_lemma1, [10.0, 100.0]), (verify_lemma5, [1.0, 10.0]),
        (verify_lemma6, [10.0, 100.0]), (verify_parseval, [0.1, 1.0])])
    def test_every_sweep_reports_its_rows(self, moll15, verify, args):
        # one verdict path: passed is every row's ok, worst_margin the thinnest margin
        rep = verify(TWO_EXP, moll15, args)
        assert rep.passed is all(row["ok"] for row in rep.grid)
        assert rep.summary == {"q": 1.5, "worst_margin": min(
            min(row["margin_lower"], row["margin_upper"]) for row in rep.grid)}


    @pytest.mark.parametrize("tol", [1e-10, 1e-13])
    def test_parseval_x_side_matches_mpmath(self, moll15, tol):
        # Cauchy: D(x) = 1 / (pi (1 + x^2)) and P(|I| > x) = 1 - 2 atan(x) / pi, so
        # the x side is a 30-digit integral of a polynomial bump times a rational
        q, w = moll15.q, moll15.w
        s5 = [0, 0, 0, 0, 0, 0, 462, -1980, 3465, -3080, 1386, -252]
        rep = verify_parseval(CAUCHY, moll15, [0.1, 1.0], QuadratureConfig(abs_tol=tol))
        for row in rep.grid:
            with mp.workdps(30):
                d = mp.mpf(row["delta"])
                lo, hi = 1 / d, (1 + mp.mpf(q)) / 2 / d
                # 1 - bump(d x) = S5((d x - 1) / w) on the band
                band = mp.quad(lambda x: mp.polyval(s5[::-1], (d * x - 1) / mp.mpf(w))
                               / (mp.pi * (1 + x * x)), [lo, hi])
                ref = 2 * band + 1 - 2 * mp.atan(hi) / mp.pi
            assert abs(row["x_side"] - ref) <= row["x_err"], row


def _table_route(spec, moll, scale):
    """The former table route for 2 int phi_q (1 - cf(scale theta)) dtheta: the
    GK21 table sum with m evaluated per cell, and its budget (the envelope
    and stub bounds group by group, plus 4e-16 relative)."""
    body = 2.0 * float(np.sum(moll.weights * moll.phi_values
                              * -np.expm1(-spec.scaled_modular(scale * moll.nodes))))
    budget = sum(wgt * scale ** alph * (moll.tail_power_bound(alph) + moll.stub_bound(alph))
                 for alph, wgt in spec.groups)
    return body, 2.0 * budget + 4e-16 * (1.0 + abs(body))


class TestNonFiniteArguments:
    @pytest.mark.parametrize("fn", [eta, tau, rho])
    @pytest.mark.parametrize("xi", [math.nan, math.inf])
    def test_xi_refused(self, moll15, fn, xi):
        # a NaN xi used to pass the xi >= 1 check and come back as NaN
        with pytest.raises(ValueError, match="xi must be a finite number"):
            fn(TWO_EXP, moll15, xi)

    def test_lemma5_refuses_nan(self, moll15):
        with pytest.raises(ValueError, match="xi"):
            verify_lemma5(TWO_EXP, moll15, [1.0, math.nan])

    @pytest.mark.parametrize("verify", [verify_lemma1, verify_lemma6])
    def test_lemma_sweeps_refuse_infinite_lambda(self, moll15, verify):
        with pytest.raises(ValueError, match="lambda"):
            verify(TWO_EXP, moll15, [10.0, math.inf])

    @pytest.mark.parametrize("delta", [math.inf, math.nan, 0.0, -1.0])
    def test_parseval_refuses_a_delta_before_any_work(self, moll15, monkeypatch, delta):
        def unreachable(*args):
            raise AssertionError("integrated before checking every delta")

        monkeypatch.setattr(prooflab, "eta_integral", unreachable)
        with pytest.raises(ValueError, match="delta"):
            verify_parseval(TWO_EXP, moll15, [1.0, delta])

    def test_parseval_refuses_an_empty_delta_grid(self, moll15):
        # an empty grid used to pass, having checked nothing
        with pytest.raises(ValueError, match="at least one delta"):
            verify_parseval(TWO_EXP, moll15, [])


class TestParsevalXSide:
    """The x side as a band integral of certified tails."""

    def test_a_shifted_theta_side_fails(self, moll15, monkeypatch):
        # the verdict is |theta - x| <= theta_err + x_err with no slack, so a
        # 1e-11 error on one side shows
        def shifted(spec, xi, w):
            val, err = eta_integral(spec, xi, w)
            return val + 1e-11, err

        assert verify_parseval(TWO_EXP, moll15, [0.1, 1.0, 10.0]).passed
        monkeypatch.setattr(prooflab, "eta_integral", shifted)
        rep = verify_parseval(TWO_EXP, moll15, [0.1, 1.0, 10.0])
        assert not any(row["ok"] for row in rep.grid) and not rep.passed

    @pytest.mark.parametrize("q", [2.0, 50.0])
    def test_x_side_within_its_bound_on_several_panels(self, q):
        # Cauchy: P(|I| > x) = 1 - 2 atan(x) / pi, and E[1 - bump(delta I)] =
        # int_0^1 S5'(u) P((1 + w u) / delta) du; the band has 2 panels at q = 2
        # and 13 at q = 50
        moll = build_mollifier(q)
        assert len(moll.band()[1]) == {2.0: 2, 50.0: 13}[q]
        rep = verify_parseval(CAUCHY, moll, [0.1, 1.0, 10.0])
        assert rep.passed
        for row in rep.grid:
            with mp.workdps(30):
                w, xi = mp.mpf(moll.w), mp.mpf(1.0 / row["delta"])  # the float xi both sides use
                ref = mp.quad(lambda u: 2772 * (u * (1 - u)) ** 5
                              * (1 - 2 * mp.atan((1 + w * u) * xi) / mp.pi),
                              [0, 0.01, 0.1, 0.25, 0.5, 0.75, 1])
            assert abs(float(row["x_side"] - ref)) <= row["x_err"], row["delta"]
            assert row["tolerance"] == row["theta_err"] + row["x_err"] <= 1e-13


class TestTableKernel:
    """eta, rho and the Parseval theta side against the table route."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), shared=st.booleans(),
           log_xi=st.floats(0.0, 6.0), log_delta=st.floats(-2.0, 2.0))
    def test_matches_per_cell_formula(self, moll2, seed, shared, log_xi, log_delta):
        rng = np.random.Generator(np.random.Philox(key=seed))
        alpha_range = (0.3, 1.9)
        if shared:  # every cell gets one exponent, so the cells merge into one group
            alpha = float(rng.uniform(0.3, 1.9))
            alpha_range = (alpha, alpha)
        spec = random_spec(rng, alpha_range=alpha_range)
        xi, delta = 10.0 ** log_xi, 10.0 ** log_delta
        eta_ref, eta_ref_err = _table_route(spec, moll2, 1.0 / xi)
        val, err = eta_with_error(spec, moll2, xi)
        assert abs(val - eta_ref) <= err + eta_ref_err
        # rho stays on the table; it reaches ~1e2 at xi near 1, where one ulp is ~1e-14
        m = spec.scaled_modular(moll2.nodes / xi)
        rho_ref = 2.0 * float(np.sum(moll2.weights * np.abs(moll2.phi_values)
                                     * np.abs(m + np.expm1(-m))))
        assert abs(rho(spec, moll2, xi) - rho_ref) <= 1e-15 * max(1.0, rho_ref)
        theta_ref, theta_ref_err = _table_route(spec, moll2, delta)
        theta_side, theta_err = eta_integral(spec, 1.0 / delta, moll2.w)
        assert abs(theta_side - theta_ref) <= theta_err + theta_ref_err

    def test_parseval_theta_side_uses_the_kernel(self, moll15):
        rep = verify_parseval(TWO_EXP, moll15, [0.1, 1.0], CFG)
        for row in rep.grid:
            theta_side, theta_err = eta_integral(TWO_EXP, 1.0 / row["delta"], moll15.w)
            assert (row["theta_side"], row["theta_err"]) == (theta_side, theta_err)
            ref, ref_err = _table_route(TWO_EXP, moll15, row["delta"])
            assert abs(theta_side - ref) <= theta_err + ref_err

    @pytest.mark.parametrize("spec", [CAUCHY, TWO_EXP, fixture("three_cell")])
    def test_sweep_rows_equal_single_calls(self, moll125, spec):
        lams = [10.0, 12.0, 50.0, 100.0, 1000.0]  # 10 and 12 share j0 at q = 1.25
        q = moll125.q
        rep1 = verify_lemma1(spec, moll125, lams, CFG)
        rep6 = verify_lemma6(spec, moll125, lams, CFG)
        for r1, r6 in zip(rep1.grid, rep6.grid):
            j = r1["j0"]
            lo = eta_with_error(spec, moll125, q ** (j + 1))[0]
            hi = eta_with_error(spec, moll125, q ** (j - 1))[0]
            assert r1["eta_upper_arg"] == lo and r1["eta_lower_arg"] == hi
            t = tail_asymptote(spec, r6["lambda"])
            assert r6["ratio_lower"] == lo / t and r6["ratio_upper"] == hi / t

    def test_parseval_stub_budget_carries_weights_and_scale(self, moll15):
        # alpha = 0.1 with W = 1e4 next to alpha = 1.9: near theta = 0 the theta
        # side's integrand is the modular, whose weights and scale the ray
        # rule's stub remainder must carry; a weightless one misses the true
        # remainder by orders of magnitude
        spec = refine(StepFunction((0.0, 1e4, 1e4 + 1.0), (1.0, 1.0)),
                      ExponentFunction((1e4,), (0.1, 1.9)))
        assert spec.groups == ((0.1, 1e4), (1.9, 1.0))
        unit = refine(StepFunction((0.0, 1.0, 2.0), (1.0, 1.0)), ExponentFunction((1.0,), (0.1, 1.9)))
        assert unit.groups == ((0.1, 1.0), (1.9, 1.0))
        delta, w = 10.0, moll15.w
        omega = 1.0 / delta
        ray = inversion._ray(spec)
        rate = omega * (1.0 + 0.5 * w)
        for s in (-200.0, -120.0):
            _, value, rem = inversion._stub(ray, "tail", rate, s)
            with mp.workdps(30):
                rot = mp.expj(ray.phi)
                c13, wm = mp.mpf(13) / 2, mp.mpf(w)

                def integrand(v):
                    th = mp.exp(v) * rot
                    z = omega * th
                    h = mp.hyp0f1(c13, -(wm * z) ** 2 / 16) * mp.expj((1 + wm / 2) * z)
                    m = sum(wgt * th ** alph for alph, wgt in spec.groups)
                    return mp.im(h * -mp.expm1(-m))

                true = float(mp.quad(integrand, [-mp.inf, s]) - value.imag)
            weightless = inversion._stub(inversion._ray(unit), "tail", rate, s)[2]
            assert weightless < 1e-6 * abs(true) and abs(true) <= rem, s
        rep = verify_parseval(spec, moll15, [delta], CFG)
        row = rep.grid[0]
        assert row["theta_err"] == eta_integral(spec, omega, w)[1]
        assert row["tolerance"] >= row["theta_err"] + row["x_err"]

    def test_rho_refuses_a_table_over_budget(self):
        # q = 1.01 would need a 15M-node phi_q table (about 360 MB): the mollifier
        # builds, eta and tau run on the ray, and rho refuses before allocating
        moll = build_mollifier(1.01)
        assert eta(CAUCHY, moll, 10.0) > 0.0 and tau(CAUCHY, moll, 10.0) > 0.0
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="budget"):
                rho_with_error(CAUCHY, moll, 10.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


# ---------------------------------------------------------------------------
# 30-digit mpmath oracle on the ray, precomputed by make_ray_oracle.py

def _load_ray_oracle():
    doc = json.loads(Path(__file__).with_name("ray_oracle.json").read_text())
    with mp.workdps(doc["dps"]):
        return {(p["fixture"], p["q"], p["xi"]): (p["groups"], mp.mpf(p["eta"]))
                for p in doc["points"]}


_RAY_ORACLE = _load_ray_oracle()


def _eta_mpmath(spec, name, xi, q):
    """The table's 30-digit eta at (name, q, xi), after checking that the
    table was built for this spec's stable-mixture groups."""
    groups, value = _RAY_ORACLE[(name, q, xi)]
    assert groups == [list(g) for g in spec.groups], name
    return value


class TestRayOracle:
    """|value - mpmath| <= err for the ray kinds, against the 30-digit oracle."""

    @pytest.mark.parametrize("name", ["cauchy", "two_exp", "three_cell"])
    @pytest.mark.parametrize("q", [1.01, 1.25, 2.0, 50.0])
    def test_eta_within_its_bound(self, name, q):
        spec, moll = fixture(name), build_mollifier(q)
        for xi in (1.0, 10.0, 1e3):
            val, err = eta_with_error(spec, moll, xi)
            assert abs(float(val - _eta_mpmath(spec, name, xi, q))) <= err, xi

    def test_parseval_theta_side_within_its_bound(self, moll15):
        rep = verify_parseval(TWO_EXP, moll15, [0.1, 1.0, 10.0], CFG)
        assert rep.passed
        for row in rep.grid:
            ref = _eta_mpmath(TWO_EXP, "two_exp", 1.0 / row["delta"], moll15.q)
            assert abs(float(row["theta_side"] - ref)) <= row["theta_err"], row["delta"]


def test_j0_where_the_next_power_passes_the_float_range():
    # q^(j0+1) overflows: it exceeds every finite lambda
    assert j0(1.7e308, 2.0) == 1023
    assert j0(1e308, 1e6) == 51
    with pytest.raises(ValueError, match="passes the largest float"):
        verify_lemma1(CAUCHY, build_mollifier(1e6), [1e308])


# one cell of width 1e6 at alpha 0.2 (t_cf = 1e-30) and one of width 1e12 at
# alpha 0.05 (t_cf = 1e-240): at a tiny xi only the kernel cuts eta's integrand,
# so far out that the panel table's e^(s - s0) would overflow
_TINY_T_CF = {"w1e6_a02": (1e6, 0.2), "w1e12_a005": (1e12, 0.05)}


@pytest.mark.parametrize("name, delta", [("w1e6_a02", 1e290), ("w1e6_a02", 1e300),
                                         ("w1e12_a005", 1e200)])
def test_a_huge_delta_ends_in_an_accuracy_error(name, delta):
    # np.exp overflowed in _panels' table (then OverflowError or a NaN level
    # count's ValueError), or E1 of an underflowed product divided by zero
    width, alpha = _TINY_T_CF[name]
    spec = refine(StepFunction((0.0, width), (1.0,)), ExponentFunction((), (alpha,)))
    moll = build_mollifier(2.5)
    with pytest.raises(inversion.AccuracyError, match="floating-point range"):
        eta_integral(spec, 1.0 / delta, moll.w)
    with pytest.raises(inversion.AccuracyError, match="floating-point range"):
        verify_parseval(spec, moll, [1.0, delta])
