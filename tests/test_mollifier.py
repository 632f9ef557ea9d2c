import dataclasses
import hashlib
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from multistable import mollifier
from multistable.fixtures import fixture
from multistable.mollifier import (
    _TAIL_TOL,
    MollifierSpec,
    _build_panels,
    _kernel,
    build_mollifier,
    smoothstep_c5,
)
from multistable.prooflab import rho_with_error


def test_q_must_exceed_one():
    # and be finite and at most 1e6: at q = 1e100 the tail bound overflows
    for bad in (1.0, 0.5, -2.0, math.nan, math.inf, 1e7, 1e100):
        with pytest.raises(ValueError):
            build_mollifier(bad)
        with pytest.raises(ValueError):
            MollifierSpec(bad)


def test_q_is_the_only_input():
    # w, decay_coeff and theta_fit are derived from q, never passed
    with pytest.raises(TypeError):
        MollifierSpec(q=1.5, w=0.3)
    with pytest.raises(TypeError):
        MollifierSpec(1.5, 0.25, 1.0, 7.0, 75.0)


def test_replace_copy_is_recomputed_from_its_q(moll2):
    # a copy that kept q = 2's w of 0.5 at q = 3 bounded its rho by the wrong
    # envelope and integrated the wrong table
    copy, built = dataclasses.replace(moll2, q=3.0), build_mollifier(3.0)
    for name in ("w", "decay_coeff", "theta_fit"):
        assert getattr(copy, name) == getattr(built, name), name
    spec = fixture("two_exp")
    assert rho_with_error(spec, copy, 10.0) == rho_with_error(spec, built, 10.0)


def test_build_check_raises_value_error(monkeypatch):
    # a table that integrates to 2 instead of 1 fails the normalization check,
    # which runs where the table is built: on first reading it
    moll = build_mollifier(1.5)
    phi = mollifier._phi
    monkeypatch.setattr(mollifier, "_phi", lambda w, theta: 2.0 * phi(w, theta))
    with pytest.raises(ValueError, match="integral of phi_q"):
        moll.nodes


def test_smoothstep_midpoint_symmetry():
    assert smoothstep_c5(0.5) == pytest.approx(0.5, abs=1e-15)
    assert smoothstep_c5(0.0) == 0.0
    assert smoothstep_c5(1.0) == pytest.approx(1.0, abs=1e-14)
    ts = np.linspace(0.0, 1.0, 101)
    assert np.allclose(smoothstep_c5(ts) + smoothstep_c5(1.0 - ts), 1.0, atol=1e-13)


def test_smoothstep_c5_exact_near_both_ends():
    # from the monomial coefficients S5 reached 1 + 4.1e-13 on [0.9, 1], 3300
    # ulps off; against exact rationals at the same floats it stays in [0, 1]
    ts = np.concatenate([np.linspace(0.0, 0.1, 1001), np.linspace(0.9, 1.0, 1001)])
    vals = smoothstep_c5(ts)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    for t, v in zip(ts.tolist(), vals.tolist()):
        exact = _s5_mp(Fraction(t))
        ulp = Fraction(float(np.spacing(float(exact)))) if exact else Fraction(0)
        assert abs(Fraction(v) - exact) <= (8 if t < 0.5 else 1) * ulp, t


def test_smoothstep_c5_junctions():
    # five vanishing derivatives at both ends, checked by finite differences
    h = 1e-2
    for t0 in (0.0, 1.0):
        sign = 1.0 if t0 == 0.0 else -1.0
        # S5(t0 + s h) stays O(h^6) near the junction
        val = smoothstep_c5(t0 + sign * h) - smoothstep_c5(t0)
        assert abs(val) < 500 * h ** 6


class TestBump:
    def test_boundary_values(self, moll15):
        assert float(moll15.bump(1.0)) == 1.0
        assert float(moll15.bump(0.3)) == 1.0
        edge = (1.0 + moll15.q) / 2.0
        assert float(moll15.bump(edge)) == pytest.approx(0.0, abs=1e-15)
        assert float(moll15.bump(edge + 0.5)) == 0.0

    def test_even_and_in_unit_range(self, moll15):
        xs = np.linspace(-2.0, 2.0, 401)
        vals = moll15.bump(xs)
        assert np.allclose(vals, moll15.bump(-xs))
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_vanishes_at_the_edge_for_every_q(self, moll15):
        # the build's bump checks on the q grid 1.01..3.00; near the top end of
        # the transition 1 - S5(t) cancelled (-1.08e-13 at q = 1.3)
        for i in range(101, 301):
            q = i / 100.0
            moll = dataclasses.replace(moll15, q=q)
            edge = (1.0 + q) / 2.0
            assert float(moll.bump(1.0)) == 1.0, q
            assert abs(float(moll.bump(edge))) <= 1e-14, q
            vals = moll.bump(np.linspace(0.0, 1.1 * edge, 2001))
            assert vals.min() >= 0.0 and vals.max() <= 1.0, q

    def test_builds_across_q(self):
        # full builds (table, decay envelope and every build check) on a coarser grid;
        # q = 1.05, 1.3 and 1.8 raised before the bump fix
        for i in range(21, 61):
            assert build_mollifier(i / 20.0).q == i / 20.0


class TestPhi:
    def test_matches_direct_quadrature(self, moll15):
        from scipy.integrate import quad

        for th in (0.0, 0.9, 7.7, 44.0):
            ref, _ = quad(lambda x: math.cos(th * x) * float(moll15.bump(x)),
                          0.0, (1.0 + moll15.q) / 2.0, limit=300, epsabs=1e-14)
            assert moll15.phi(th) == pytest.approx(ref / math.pi, abs=1e-12)

    def test_even(self, moll15):
        ts = np.array([0.3, 2.0, 11.0])
        assert np.allclose(moll15.phi(ts), moll15.phi(-ts))

    def test_normalization(self, moll125, moll15, moll2):
        for moll in (moll125, moll15, moll2):
            total = 2.0 * float(np.sum(moll.weights * moll.phi_values))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_decay_model_floor(self, moll125, moll15, moll2):
        for moll in (moll125, moll15, moll2):
            assert moll.decay_power >= 5.0
            ts = np.geomspace(moll.theta_fit, moll.theta_max, 500)
            assert np.all(np.abs(moll.phi(ts)) <= moll.decay_coeff * ts ** -moll.decay_power)


@settings(max_examples=8, deadline=None)
@given(q=st.floats(1.05, 3.0))
def test_proven_envelope_beyond_the_table(q):
    # the envelope is proven for every theta >= theta_fit, so check it out to
    # a hundred times the table's end, where no table node lies
    moll = build_mollifier(q)
    assert moll.decay_power == 7.0
    ts = np.geomspace(moll.theta_fit, 100.0 * moll.theta_max, 4000)
    assert np.all(np.abs(moll.phi(ts)) <= moll.decay_coeff * ts ** -7.0)


def test_tables_integrate_to_one_within_the_envelope_bound(moll125, moll2):
    # the mass the table misses is what the envelope and the stub bound; for
    # w >> 1 the panels shrink with 1/w to resolve G(w theta), and on pi/2
    # panels q = 100 integrated to 1.00000069
    for moll in (moll125, moll2, *(build_mollifier(q) for q in (30.0, 100.0, 1e3, 1e6))):
        total = 2.0 * float(np.sum(moll.weights * moll.phi_values))
        budget = 2.0 * (moll.tail_power_bound(0.0) + moll.stub_bound(0.0))
        assert abs(total - 1.0) <= budget + 1e-14, moll.q


@pytest.mark.parametrize("q", [300.0, 500.0, 1e3, 1e6])
def test_large_q_tails_within_tolerance(q):
    # from q = 300 on theta_max < 1, where gamma = 0 has the largest tail bound;
    # sized by gamma = 1.9 alone, q = 500 left 3.7e-8 and q = 1e3 1.85e-7
    moll = build_mollifier(q)
    for gamma in (0.0, 1.9):
        assert moll.tail_power_bound(gamma) <= 1e-8, gamma


@pytest.mark.parametrize("q", [1.25, 1.5, 2.0, 3.0])
def test_small_q_tables_keep_the_gamma_19_sizing(q):
    # theorem-cli's q values: theta_max >= 1, so the gamma = 1.9 solution is the
    # larger one and the table is byte-identical to one sized by it alone
    moll = build_mollifier(q)
    k = moll.decay_power - 2.9
    theta_max = max((moll.decay_coeff / (k * _TAIL_TOL)) ** (1.0 / k), 2.0 * moll.theta_fit)
    nodes, weights, stub, last_edge = _build_panels(theta_max, moll.w)
    assert (last_edge, stub) == (moll.theta_max, moll.stub)
    assert nodes.tobytes() == moll.nodes.tobytes()
    assert weights.tobytes() == moll.weights.tobytes()


def _rho_on_the_zeros(spec, moll, xis):
    """rho at each xi by a rule of its own: two 20-point Gauss-Legendre panels
    between consecutive zeros of phi_q, out to twice the table's end, after
    dyadic panels down to 2^-80 of the first zero.  The zeros are j pi /
    (1 + w/2) and 2x / w for the zeros x of spherical_jn(5, .), one in each
    (n pi - pi/2, n pi + pi/2) for n >= 3, found by brentq."""
    from scipy.optimize import brentq
    from scipy.special import spherical_jn

    w, end = moll.w, 2.0 * moll.theta_max
    rate = 1.0 + 0.5 * w
    zeros = list(np.arange(1, math.ceil(end * rate / math.pi) + 1) * (math.pi / rate))
    x_end, n = 0.5 * w * zeros[-1], 3
    while (n + 0.5) * math.pi < x_end:
        x = brentq(lambda v: spherical_jn(5, v), (n - 0.5) * math.pi, (n + 0.5) * math.pi,
                   xtol=1e-300, rtol=1e-15)
        zeros.append(2.0 * x / w)
        n += 1
    zeros = np.unique(zeros)
    edges = np.concatenate([zeros[0] * 0.5 ** np.arange(80, 0, -1), zeros])
    edges = np.concatenate([np.ravel(np.column_stack((edges[:-1], 0.5 * (edges[:-1] + edges[1:])))),
                            edges[-1:]])
    gx, gw = np.polynomial.legendre.leggauss(20)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * gx).ravel()
    weighted = (half[:, None] * gw).ravel() * np.abs(moll.phi(nodes))
    out = []
    for xi in xis:
        m = spec.scaled_modular(nodes / xi)
        out.append(2.0 * float(np.sum(weighted * (m + np.expm1(-m)))))
    return out


@pytest.mark.parametrize("q", [1.25, 1.5, 2.0])
def test_rho_within_its_bound_against_a_rule_on_the_zeros(q):
    # |phi_q| has a kink at each zero; on panels that straddled them rho was
    # 4.1e-3 / 1.3e-4 / 4.1e-8 off at q = 1.5, xi = 1 / 10 / 1000, against
    # claimed bounds of 5.1e-5 / 5.2e-8 / 8.1e-14.  At xi = 1e4 the bound, about
    # 3e-16, is within 3-10x of the actual error
    moll, xis = build_mollifier(q), (1.0, 10.0, 1000.0, 1e4)
    for name in ("two_exp", "three_cell"):
        spec = fixture(name)
        for xi, ref in zip(xis, _rho_on_the_zeros(spec, moll, xis)):
            val, err = rho_with_error(spec, moll, xi)
            assert abs(val - ref) <= err, (name, xi, val - ref, err)


def test_weighted_moments_stabilize(moll15):
    # integral (1+theta)^gamma |phi| over the table stabilizes under doubling
    nodes, weights = moll15.nodes, moll15.weights
    absphi = np.abs(moll15.phi_values)
    for gamma in (0.0, 2.0, 3.9):
        factor = (1.0 + nodes) ** gamma * absphi
        cuts = []
        for frac in (0.25, 0.5, 1.0):
            mask = nodes <= frac * moll15.theta_max
            cuts.append(2.0 * float(weights[mask] @ factor[mask]))
        assert abs(cuts[2] - cuts[1]) <= abs(cuts[1] - cuts[0]) + 1e-12
        assert abs(cuts[2] - cuts[1]) < 1e-4 * max(1.0, abs(cuts[2]))


def test_h_repeats_and_error_reporting(moll15):
    v1, e1 = moll15.h(1.1)
    v2, e2 = moll15.h(1.1)
    assert v1 == v2 and e1 == e2
    assert e1 < 1e-6
    with pytest.raises(ValueError):
        moll15.h(2.0)


def test_h_of_a_replace_copy_uses_its_own_q(moll15, moll2):
    v, _ = moll15.h(1.1)
    other = dataclasses.replace(moll15, q=2.0)
    assert other.h(1.1) == moll2.h(1.1)
    assert moll15.h(1.1)[0] == v != other.h(1.1)[0]


_HS_GAMMAS = [round(0.05 + 0.1 * k, 10) for k in range(20)]
_HS_QS = (1.01, 1.25, 2.0, 50.0, 1e6)


def test_hs_is_h_bit_for_bit():
    # one band evaluation for every gamma gives each gamma the bits of its own
    # call, and those are the bits h had as its own band evaluation: the digest
    # was taken before h became hs's one-element call
    values = []
    for q in _HS_QS:
        moll = build_mollifier(q)
        hs = moll.hs(_HS_GAMMAS)
        assert hs == [moll.h(g) for g in _HS_GAMMAS], q
        values += hs
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == "0c3eb91c43d7cc6201d34fff15d203f5c3cd23ea3bcdb3b0ee22820634594382"
    assert build_mollifier(1.5).hs([]) == []


@pytest.mark.parametrize("bad", [0.0, 2.0, math.nan])
@pytest.mark.parametrize("where", [0, 2, 4])
def test_hs_checks_every_gamma_before_the_band(bad, where, moll15, monkeypatch):
    def refuse(*args):
        raise AssertionError("band evaluated")

    monkeypatch.setattr(mollifier, "_s5", refuse)
    gammas = [0.3, 0.7, 1.1, 1.5]
    gammas.insert(where, bad)
    with pytest.raises(ValueError, match="gamma must lie in"):
        moll15.hs(gammas)


def _s5_mp(u):
    return u ** 6 * (462 - 1980 * u + 3465 * u ** 2 - 3080 * u ** 3 + 1386 * u ** 4 - 252 * u ** 5)


def _h_mpmath(q, gamma):
    """h_q(gamma) at 30 digits by the identity h_q(gamma) = gamma C(gamma)
    integral_1^inf x^(-1-gamma) (1 - bump(x)) dx, C the stable tail constant
    (|theta|^gamma is a superposition of 1 - cos(theta x), and phi_q
    transforms back to the bump).  MollifierSpec.h sums the same identity,
    so _h_ray_mpmath is the independent oracle."""
    with mp.workdps(30):
        q, g = mp.mpf(q), mp.mpf(gamma)
        w = (q - 1) / 2
        c = (1 - g) / (mp.gamma(2 - g) * mp.cos(mp.pi * g / 2))
        band = mp.quad(lambda x: x ** (-1 - g) * _s5_mp((x - 1) / w), [1, 1 + w])
        return g * c * (band + (1 + w) ** -g / g)


_H_GAMMAS = (0.05, 0.3, 0.5, 0.7, 1.1, 1.5, 1.7, 1.9, 1.99)


def test_h_within_its_bound_against_mpmath(moll125, moll15, moll2):
    # with the S5' weights folded from the monomials, the table's h_q(0.3) at
    # q = 1.25 was 1.7e-14 off against a bound of 2.6e-15
    for moll in (moll125, moll15, moll2, *(build_mollifier(q) for q in (1.01, 50.0, 1e6))):
        for gamma in _H_GAMMAS:
            val, err = moll.h(gamma)
            assert abs(float(val - _h_mpmath(moll.q, gamma))) <= err, (moll.q, gamma)


def _h_ray_mpmath(q, gamma):
    """h_q(gamma) at 30 digits on the ray psi = pi/2: (2/pi) sin(pi gamma/2)
    integral_0^inf G(i w t) e^{-(1+w/2) t} t^(gamma-1) dt with G(i y) =
    0F1(; 13/2; y^2/16), integrated in s = log t."""
    with mp.workdps(30):
        w, g = (mp.mpf(q) - 1) / 2, mp.mpf(gamma)

        def integrand(s):
            t = mp.exp(s)
            return mp.hyp0f1(mp.mpf(13) / 2, (w * t) ** 2 / 16) * mp.exp(g * s - (1 + w / 2) * t)

        # the transition to the e^-t tail sits near t = 1 / w; past t = 120
        # the integrand is below e^-t t^gamma < 1e-50
        pts = sorted({-mp.inf, -mp.log(w), mp.mpf(0), mp.log(10), mp.log(120)})
        return 2 / mp.pi * mp.sin(mp.pi * g / 2) * mp.quad(integrand, pts)


@pytest.mark.parametrize("q", [1.01, 1.25, 2.0, 50.0])
def test_h_within_its_bound_against_mpmath_on_the_ray(q):
    moll = build_mollifier(q)
    for gamma in _H_GAMMAS:
        val, err = moll.h(gamma)
        assert abs(float(val - _h_ray_mpmath(q, gamma))) <= err, gamma


def test_table_node_budget():
    # the rho table grows like w^-1.5: q = 1.02 would need 7.2M nodes, q = 1.01
    # 19.8M; the mollifier builds, and reading its table raises before allocating.
    # q = 1.03 takes 4.02M nodes, one GK21 panel between each pair of zeros
    for q in (1.01, 1.02):
        moll = build_mollifier(q)
        with pytest.raises(ValueError, match="budget"):
            moll.nodes
    assert 3_000_000 < build_mollifier(1.03).nodes.size <= mollifier._MAX_TABLE_NODES


def test_build_allocates_no_table():
    for q in (1.01, 1.25, 2.0, 50.0):
        moll = build_mollifier(q)
        assert moll not in mollifier._TABLES


def test_sin_cos_within_a_few_units_of_2_to_the_minus_53():
    # against 40-digit mpmath at the exact float x: |x| up to 1e5, the floats
    # next to odd multiples of pi (where tan(x/2) is about 1e16), +-0 and tiny
    # x.  The bounds are the ones _ROUNDINGS counts: 6 units for the sine, 7
    # for the cosine; the sine is within 6 units relative too
    unit = 2.0 ** -53
    rng = np.random.default_rng(20261018)
    with mp.workdps(40):
        odd = np.array([float((2 * k + 1) * mp.pi) for k in range(-15915, 15915, 397)])
    odd = np.concatenate([odd, np.nextafter(odd, np.inf), np.nextafter(odd, -np.inf)])
    tiny = np.array([5e-324, -1e-310, 1e-200, -1e-20, 3e-9])
    x = np.concatenate([rng.uniform(-1e5, 1e5, 400), rng.uniform(-10.0, 10.0, 400), odd, tiny])
    before = x.copy()
    sin, cos = mollifier._sin_cos(x)
    assert x.tobytes() == before.tobytes()
    with mp.workdps(40):
        for k, v in enumerate(x.tolist()):
            s, c = mp.sin(mp.mpf(v)), mp.cos(mp.mpf(v))
            assert abs(sin[k] - s) <= 6.0 * unit * min(1.0, abs(s)) + 1e-300, v
            assert abs(cos[k] - c) <= 7.0 * unit, v
    zero = mollifier._sin_cos(np.array([0.0, -0.0]))
    assert zero[0].tolist() == [0.0, 0.0] and np.signbit(zero[0]).tolist() == [False, True]
    assert zero[1].tolist() == [1.0, 1.0]


def test_junctions_checked_once_per_process(monkeypatch):
    # build_mollifier derives no derivative of the module constant S5; the
    # check itself raises ValueError for a transition that is only C^1
    def refuse(*args):
        raise AssertionError("polyder called at build time")

    monkeypatch.setattr(mollifier.npoly, "polyder", refuse)
    build_mollifier(50.0)
    monkeypatch.undo()
    mollifier._check_junctions(mollifier._S5)
    with pytest.raises(ValueError, match="derivative 2"):
        mollifier._check_junctions(np.array([0.0, 0.0, 3.0, -2.0]))


def test_build_evaluates_no_s5_grid(monkeypatch):
    # S5's range on [0, 1] is checked once per process, and its edge values
    # S5(0) = 0, S5(1) = 1 are exact, so a build evaluates S5 nowhere
    s5, sizes = mollifier._s5, []

    def counted(t):
        sizes.append(np.size(t))
        return s5(t)

    monkeypatch.setattr(mollifier, "_s5", counted)
    for q in (1.01, 1.25, 50.0, 1e6):
        build_mollifier(q)
    assert sizes == []


def test_range_check_refuses_a_polynomial_that_leaves_the_unit_interval():
    mollifier._check_range(mollifier._S5)
    for poly in (2.0 * mollifier._S5,              # reaches 2 at t = 1
                 np.array([0.0, -0.5, 1.5])):      # dips to -1/24 at t = 1/6
        with pytest.raises(ValueError, match="stay in"):
            mollifier._check_range(poly)


def _h_of_z_mpmath(w, rho, psi):
    """H(z) = G(w z) e^{i(1+w/2) z} at z = rho e^{i psi}, 30 digits, with
    G(2x) = 10395 j5(x) / x^5 and j5(x) = sqrt(pi / (2x)) J_{11/2}(x)."""
    with mp.workdps(30):
        z = mp.mpf(rho) * (mp.j if psi == "pi/2" else mp.expj(mp.mpf(psi)))
        x = mp.mpf(w) * z / 2
        g = 10395 * mp.sqrt(mp.pi / (2 * x)) * mp.besselj(mp.mpf(11) / 2, x) / x ** 5
        return complex(g * mp.expj((1 + mp.mpf(w) / 2) * z))


@pytest.mark.parametrize("w", [0.005, 0.5, 24.5, 5e3])
def test_kernel_matches_besselj_across_the_crossover(w):
    # both sides of |x| = |w z| / 2 = 6, where the series hands over to the
    # explicit form, and of 12.5, on the real axis, on rays and on the
    # imaginary axis; |H| <= bound <= e^{-Im z} (so the explicit form's bound
    # is capped at e^{-Im z} where 2 _far_amplitude exceeds 1, as at 6 and
    # 6.5), and the error is a few units of 2^-53 times the bound, plus the
    # rounding of the phases
    eps = 2.0 ** -53
    xs = [1e-3, 0.3, 2.0, 5.0, 12.0, float(np.nextafter(12.5, 0.0)), 12.5, 13.0, 30.0, 1e3,
          float(np.nextafter(mollifier._X_SERIES, 0.0)), mollifier._X_SERIES, 6.5, 9.0]
    for psi in (0.0, 0.3, math.pi / 4, 1.2, "pi/2"):
        cos_psi, sin_psi = (0.0, 1.0) if psi == "pi/2" else (math.cos(psi), math.sin(psi))
        rho = 2.0 * np.array(xs) / w
        re, im, bound = _kernel(w, rho, cos_psi, sin_psi)
        for k, r in enumerate(rho.tolist()):
            ref = _h_of_z_mpmath(w, r, psi)
            assert abs(ref) <= bound[k] * (1.0 + 1e-12), (psi, xs[k])
            assert bound[k] <= math.exp(-sin_psi * r) * (1.0 + 1e-15), (psi, xs[k])
            err = abs(complex(re[k], im[k]) - ref)
            # the allowance is summed before eps scales it: eps * bound underflows
            # to 0 where bound is subnormal (w = 0.005, psi = 0.3, |x| just below 6)
            assert err <= bound[k] * (8.0 + 4.0 * (1.0 + w) * r) * eps, (psi, xs[k])


def test_series_remainder_below_its_stated_bound():
    # the first term the kernel's series omits at |x| = _X_SERIES, the
    # geometric bound on all of them (the terms' ratio falls in k) and the
    # 30-digit remainder stay below _SERIES_TAIL; the coefficients are
    # a_k = 1 / (k! (13/2)_k) correctly rounded, highest first
    n, x = len(mollifier._SERIES), mollifier._X_SERIES
    a = [Fraction(1, math.factorial(k)) / math.prod(Fraction(13, 2) + j for j in range(k))
         for k in range(n + 1)]
    assert mollifier._SERIES == [float(c) for c in a[n - 1::-1]]
    y = Fraction(x) ** 2 / 4
    first = a[n] * y ** n
    assert first < first / (1 - y / ((n + 1) * (n + Fraction(13, 2)))) <= Fraction(
        mollifier._SERIES_TAIL)
    with mp.workdps(30):
        ym = -mp.mpf(x) ** 2 / 4
        rest = mp.hyp0f1(mp.mpf(13) / 2, ym) - sum(mp.mpf(c.numerator) / c.denominator * ym ** k
                                                     for k, c in enumerate(a[:n]))
        assert abs(rest) <= mollifier._SERIES_TAIL


# An independent evaluation of phi_q in the two-regime A/B form
#
#     pi phi_q(theta) = w cos(theta) A(s)/s + B(s) sin(theta)/theta,   s = w theta,
#     A(s), B(s) = integral_0^1 S5'(u) (sin, cos)(s u) du,
#
# with A and B by 64-point Gauss-Legendre for s < 25 and by the eleven-step
# integration-by-parts recurrence over the derivative chain of S5' above.
_S5P = 2772.0 * npoly.polymul(npoly.polypow([0.0, 1.0], 5), npoly.polypow([1.0, -1.0], 5))
_CHAIN0, _CHAIN1 = [], []
_poly = _S5P
for _ in range(11):
    _CHAIN0.append(float(npoly.polyval(0.0, _poly)))
    _CHAIN1.append(float(npoly.polyval(1.0, _poly)))
    _poly = npoly.polyder(_poly) if len(_poly) > 1 else np.zeros(1)
_GLU, _GLW = np.polynomial.legendre.leggauss(64)
_GLU = 0.5 * (_GLU + 1.0)
# S5' in factored form: folded from the monomials the weights sum to 1 + 2e-14
_GLW = 0.5 * _GLW * 2772.0 * (_GLU * (1.0 - _GLU)) ** 5


def _ab_reference(s):
    a, b = np.empty_like(s), np.empty_like(s)
    small = s < 25.0
    args = np.multiply.outer(s[small], _GLU)
    a[small], b[small] = np.sin(args) @ _GLW, np.cos(args) @ _GLW
    big = s[~small]
    sins, coss = np.sin(big), np.cos(big)
    i_sin = np.zeros_like(big)
    i_cos = np.zeros_like(big)
    for k in range(10, -1, -1):
        i_sin, i_cos = (
            (_CHAIN0[k] - _CHAIN1[k] * coss + i_cos) / big,
            (_CHAIN1[k] * sins - i_sin) / big,
        )
    a[~small], b[~small] = i_sin, i_cos
    return a, b


def _phi_reference(w, theta):
    """phi_q at theta > 0 in the two-regime A/B form."""
    s = w * theta
    a, b = _ab_reference(s)
    return (w * np.cos(theta) * a / s + b * np.sin(theta) / theta) / math.pi


def test_phi_matches_two_regime_reference(moll125, moll15, moll2):
    for moll in (moll125, moll15, moll2):
        # every table node, and the crossover s = w theta = 25 and its neighbours
        crossover = 25.0 / moll.w
        ts = np.concatenate([moll.nodes, [np.nextafter(crossover, 0.0), crossover,
                                          np.nextafter(crossover, np.inf)]])
        assert np.all(np.abs(moll.phi(ts) - _phi_reference(moll.w, ts)) <= 4e-15)
        assert np.all(np.abs(moll.phi_values - _phi_reference(moll.w, moll.nodes)) <= 4e-15)


def _phi_mpmath(q, theta):
    """(1/pi) integral_0^(1+w) cos(theta x) bump(x) dx at 30 digits.

    The flat part integrates to sin(theta)/theta; the transition [1, 1+w] is
    split wherever theta x crosses a multiple of pi.
    """
    with mp.workdps(30):
        w = (mp.mpf(q) - 1) / 2
        th = mp.mpf(theta)

        def integrand(x):
            return mp.cos(th * x) * (1 - _s5_mp((x - 1) / w))

        ks = range(int(mp.ceil(th / mp.pi)), int(mp.floor(th * (1 + w) / mp.pi)) + 1)
        pts = [mp.mpf(1)] + [k * mp.pi / th for k in ks] + [1 + w]
        return (mp.sin(th) / th + mp.quad(integrand, pts, method="gauss-legendre")) / mp.pi


def test_phi_far_field_matches_mpmath(moll125, moll15, moll2):
    # past the crossover phi_q decays like theta^-6, so check relative accuracy
    for moll in (moll125, moll15, moll2):
        for theta in np.geomspace(25.0 / moll.w, 200.0 / moll.w, 4):
            ref = _phi_mpmath(moll.q, theta)
            assert abs(float((moll.phi(theta) - ref) / ref)) <= 1e-10


def test_counted_phi_rounding_covers_mpmath(moll125, moll15, moll2):
    # the table's per-node bound on phi_q's rounding, in units of eps: on the
    # dyadic head, where it grows like 1/theta, around the kernel's switch to
    # the explicit form (s = w theta = 12) and the crossover s = 25, where it
    # is absolute against a bound of 1, and at the far end, where phi_q is
    # below 1e-20 and the bound follows the kernel's r^6 decay
    eps = float(np.finfo(float).eps)
    for moll in (moll125, moll15, moll2):
        nodes = moll.nodes
        picks = [0, 1, 20, 21 * 20 + 10, 21 * 41 - 1, nodes.size - 1]
        for s in (12.0, 25.0):
            k = int(np.searchsorted(nodes, s / moll.w))
            picks += [k - 1, k, k + 1, k + 10]
        phi, err = mollifier._phi(moll.w, nodes[picks])
        assert phi.tobytes() == moll.phi_values[picks].tobytes()
        for theta, value, bound in zip(nodes[picks], phi, err):
            ref = _phi_mpmath(moll.q, theta)
            assert abs(float(value - ref)) <= eps * bound, (moll.q, theta)


def test_phi_near_origin_matches_mpmath(moll125, moll15, moll2):
    # near theta = 0, phi_q is about (1 + w/2) / pi times G(0) = 1; when G was
    # a Gauss-Legendre sum with weights folded from the monomial S5', that sum
    # was 1 + 2.1e-14 and phi came out 7e-15 to 1e-14 high
    for moll in (moll125, moll15, moll2):
        with mp.workdps(30):
            at_zero = (1 + (mp.mpf(moll.q) - 1) / 4) / mp.pi
        assert abs(float(moll.phi(0.0) - at_zero)) <= 1e-15
        for theta in (1e-9, 1e-3, 0.3, 1.0, 2.5, 7.0):
            assert abs(float(moll.phi(theta) - _phi_mpmath(moll.q, theta))) <= 1e-15, theta
