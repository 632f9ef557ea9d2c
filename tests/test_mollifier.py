import math

import numpy as np
import pytest

from multistable.mollifier import _CHAIN0, _CHAIN1, _ab_large, build_mollifier, smoothstep_c5


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


def _ab_large_reference(s):
    """The eleven-step integration-by-parts recurrence, dividing by s each step."""
    sins, coss = np.sin(s), np.cos(s)
    i_sin = np.zeros_like(s)
    i_cos = np.zeros_like(s)
    for k in range(10, -1, -1):
        i_sin, i_cos = (
            (_CHAIN0[k] - _CHAIN1[k] * coss + i_cos) / s,
            (_CHAIN1[k] * sins - i_sin) / s,
        )
    return i_sin, i_cos


def test_ab_large_matches_reference_recurrence():
    s = np.concatenate([np.linspace(25.0, 40.0, 20001), np.geomspace(40.0, 1e6, 20001)])
    a_ref, b_ref = _ab_large_reference(s)
    a, b = _ab_large(s)
    # multiplying by a rounded 1/s moves each of the six boundary steps by an
    # ulp or two of the leading term 2 * 332640 / s^6 (the fifth-order chain value)
    tol = 16.0 * np.finfo(float).eps * 2.0 * abs(_CHAIN0[5]) / s ** 6
    assert np.all(np.abs(a - a_ref) <= tol)
    assert np.all(np.abs(b - b_ref) <= tol)
