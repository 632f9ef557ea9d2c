import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistable import prooflab
from multistable.asymptote import tail_asymptote, tail_constant
from multistable.fixtures import fixture, random_spec
from multistable.function_space import ExponentFunction, StepFunction, refine
from multistable.inversion import tail_probability
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


class TestTableKernel:
    """The group-power table kernel against the direct per-cell modular."""

    @staticmethod
    def _direct(spec, moll, scale):
        return spec.scaled_modular(scale * moll.nodes)

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
        m = self._direct(spec, moll2, 1.0 / xi)
        eta_ref = 2.0 * moll2.integrate(-np.expm1(-m))
        rho_ref = 2.0 * moll2.integrate_abs(np.abs(m + np.expm1(-m)))
        assert abs(eta(spec, moll2, xi) - eta_ref) <= 1e-15
        # rho reaches ~1e2 at xi near 1, where one ulp is ~1e-14
        assert abs(rho(spec, moll2, xi) - rho_ref) <= 1e-15 * max(1.0, rho_ref)
        powers = prooflab._node_powers(spec, moll2)
        theta_side = 2.0 * moll2.integrate(
            -np.expm1(-prooflab._table_modular(spec, powers, delta)))
        theta_ref = 2.0 * moll2.integrate(-np.expm1(-self._direct(spec, moll2, delta)))
        assert abs(theta_side - theta_ref) <= 1e-15

    def test_parseval_theta_side_uses_the_kernel(self, moll15):
        rep = verify_parseval(TWO_EXP, moll15, [0.1, 1.0], CFG)
        for row in rep.grid:
            m = self._direct(TWO_EXP, moll15, row["delta"])
            assert row["theta_side"] == pytest.approx(
                2.0 * moll15.integrate(-np.expm1(-m)), abs=1e-15)

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
        # alpha = 0.1 with W = 1e4 next to alpha = 1.9: the untabulated stub
        # [0, stub] holds mass 2 int phi_q (1 - cf(delta theta)), which a
        # weightless stub_bound(b) misses by 24 orders of magnitude
        spec = refine(StepFunction((0.0, 1e4, 1e4 + 1.0), (1.0, 1.0)),
                      ExponentFunction((1e4,), (0.1, 1.9)))
        assert spec.groups == ((0.1, 1e4), (1.9, 1.0))
        delta = 10.0
        with mp.workdps(30):
            stub_mass = float(2 * mp.quad(
                lambda t: moll15.phi(float(t)) * -mp.expm1(
                    -sum(w * (delta * t) ** a for a, w in spec.groups)),
                [0, moll15.stub]))
        assert 2.0 * moll15.stub_bound(spec.b) < 1e-30 < stub_mass
        # with the decay envelope switched off only the stub part remains
        stub_only = dataclasses.replace(moll15, decay_coeff=0.0)
        assert 2.0 * prooflab._group_budget(spec, stub_only, delta) >= stub_mass
        rep = verify_parseval(spec, moll15, [delta], CFG)
        row = rep.grid[0]
        assert row["theta_err"] == 2.0 * prooflab._group_budget(spec, moll15, delta)
        assert row["tolerance"] >= row["theta_err"] + row["x_err"]
