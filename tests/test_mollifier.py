import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from multistable.mollifier import build_mollifier, smoothstep_c5


def test_q_must_exceed_one():
    for bad in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            build_mollifier(bad)


def test_smoothstep_midpoint_symmetry():
    assert smoothstep_c5(0.5) == pytest.approx(0.5, abs=1e-15)
    assert smoothstep_c5(0.0) == 0.0
    assert smoothstep_c5(1.0) == pytest.approx(1.0, abs=1e-14)
    ts = np.linspace(0.0, 1.0, 101)
    assert np.allclose(smoothstep_c5(ts) + smoothstep_c5(1.0 - ts), 1.0, atol=1e-13)


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
            moll = dataclasses.replace(moll15, q=q, w=(q - 1.0) / 2.0)
            edge = (1.0 + q) / 2.0
            assert float(moll.bump(1.0)) == 1.0, q
            assert abs(float(moll.bump(edge))) <= 1e-14, q
            vals = moll.bump(np.linspace(0.0, 1.1 * edge, 2001))
            assert vals.min() >= 0.0 and vals.max() <= 1.0, q

    def test_builds_across_q(self):
        # full builds (table, decay fit and every build check) on a coarser grid;
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
            total = 2.0 * moll.integrate(np.ones_like(moll.nodes))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_decay_model_floor(self, moll125, moll15, moll2):
        for moll in (moll125, moll15, moll2):
            assert moll.decay_power >= 5.0
            ts = np.geomspace(moll.theta_fit, moll.theta_max, 500)
            assert np.all(np.abs(moll.phi(ts)) <= moll.decay_coeff * ts ** -moll.decay_power)


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


def test_h_cache_and_error_reporting(moll15):
    v1, e1 = moll15.h(1.1)
    v2, e2 = moll15.h(1.1)
    assert v1 == v2 and e1 == e2
    assert e1 < 1e-6
    with pytest.raises(ValueError):
        moll15.h(2.0)


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
_GLW = 0.5 * _GLW * npoly.polyval(_GLU, _S5P)


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
            u = (x - 1) / w
            s5 = u ** 6 * (462 - 1980 * u + 3465 * u ** 2 - 3080 * u ** 3
                           + 1386 * u ** 4 - 252 * u ** 5)
            return mp.cos(th * x) * (1 - s5)

        ks = range(int(mp.ceil(th / mp.pi)), int(mp.floor(th * (1 + w) / mp.pi)) + 1)
        pts = [mp.mpf(1)] + [k * mp.pi / th for k in ks] + [1 + w]
        return (mp.sin(th) / th + mp.quad(integrand, pts, method="gauss-legendre")) / mp.pi


def test_phi_far_field_matches_mpmath(moll125, moll15, moll2):
    # past the crossover phi_q decays like theta^-6, so check relative accuracy
    for moll in (moll125, moll15, moll2):
        for theta in np.geomspace(25.0 / moll.w, 200.0 / moll.w, 4):
            ref = _phi_mpmath(moll.q, theta)
            assert abs(float((moll.phi(theta) - ref) / ref)) <= 1e-10
