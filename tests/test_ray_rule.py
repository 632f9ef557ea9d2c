"""The rotated-ray rule's integrand and panel layout against their plain forms.

The rule takes every sine and cosine from the tangent of a half angle and
lays its panels out in a Python loop.  These tests hold each against the
straightforward form it replaced: the integrands written with np.sin and
np.cos must agree within the roundoff bound the rule reports per node,
and the panels must sit where the np.repeat layout puts them.
"""

import math

import numpy as np
import pytest

from multistable import inversion
from multistable.fixtures import fixture
from multistable.inversion import (
    _GRID,
    _LN8,
    _REACH,
    _TURN,
    _integrand,
    _panels,
    _power_sum,
    _unit,
)

FIXTURES = ("cauchy", "alpha06", "alpha18", "two_exp", "three_cell", "wide_narrow")
# 73 points from 1e-6 to 1e6: three per half decade, then 1e6
GRID = [10.0 ** ((k + f) / 2.0) for k in range(-12, 12) for f in (0.0, 1.0 / 3.0, 2.0 / 3.0)]
GRID.append(1e6)
EPS = float(np.finfo(float).eps)


def libm_integrand(ray, kind, omega, t0, sigma):
    """The integrands with np.sin and np.cos, as the rule wrote them before."""
    t = t0 * np.exp(sigma)
    pw = np.exp(np.multiply.outer(ray.alph, sigma))
    _, m_r, m_i = (ray.parts * t0 ** ray.alph) @ pw
    wt = omega * t
    kappa, beta = ray.sin * wt, ray.cos * wt
    if kind == "density":
        return t * np.exp(-kappa - m_r) * np.cos(ray.phi + beta - m_i)
    cf = np.exp(-m_r)
    if kind == "tail-cf":
        return cf * (np.exp(-kappa) * np.sin(beta - m_i) + np.sin(m_i))
    s2, c2 = np.sin(0.5 * m_i), np.cos(0.5 * m_i)
    q_r = np.expm1(-m_r) - 2.0 * cf * s2 * s2
    q_i = -2.0 * cf * s2 * c2
    if kind == "tail":
        return -np.exp(-kappa) * (np.sin(beta) * q_r + np.cos(beta) * q_i)
    gam = ray.phi + beta
    return t * np.exp(-kappa) * (np.cos(gam) * q_r - np.sin(gam) * q_i)


def repeat_panels(al, lin, log_w0, s_lo, s_hi, s_c):
    """The panel layout built with np.repeat (no eta or h terms)."""
    share = _TURN / (al.size + 1)
    start = min(((math.log(share) - lw) / a for lw, a in zip(log_w0, al)), default=s_hi)
    if lin > 0.0:
        start = min(start, math.log(share / lin))
    start = min(max(start, s_lo), s_hi)
    n = int((s_hi - start) / _GRID) + 1
    grid = start + (s_hi - start) / n * np.arange(n + 1)
    kern = lin * np.exp(grid)
    cf_terms = np.exp(np.multiply.outer(al, np.minimum(grid, s_c)) + log_w0[:, None])
    phi = kern + cf_terms.sum(axis=0)
    levels = np.arange(math.floor(phi[0] / _TURN) + 1, math.ceil(phi[-1] / _TURN)) * _TURN
    edges = np.sort(np.concatenate((np.interp(levels, phi, grid), [s_lo, s_c, s_hi])))
    left, right = edges[:-1], edges[1:]
    slope = np.where(left < s_c, np.interp(right, grid, kern + al @ cf_terms),
                     lin * np.exp(right))
    pieces = np.ceil((right - left) * np.maximum(1.0 / _LN8, slope / _REACH)).astype(np.int64)
    width = np.repeat((right - left) / np.maximum(pieces, 1), pieces)
    k = np.arange(width.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    return np.repeat(left, pieces) + k * width, width


def _calls(monkeypatch, name):
    """Every density and tail call of the grid on one fixture, with the
    arguments each passed to _panels and to _integrand."""
    panels, integrands = [], []

    def spy_panels(*args):
        panels.append(args)
        return _panels(*args)

    def spy_integrand(*args):
        integrands.append(args)
        return _integrand(*args)

    monkeypatch.setattr(inversion, "_panels", spy_panels)
    monkeypatch.setattr(inversion, "_integrand", spy_integrand)
    spec = fixture(name)
    for x in GRID:
        inversion.density_with_error(spec, x)
        inversion.tail_probability_with_error(spec, x)
    return panels, integrands


@pytest.mark.parametrize("name", FIXTURES)
def test_panels_sit_where_the_repeat_layout_puts_them(monkeypatch, name):
    # the same count, and every lo and width within 2 ulps: a running sum of
    # widths would drift by more along the ray
    panels, _ = _calls(monkeypatch, name)
    assert len(panels) == 2 * len(GRID)
    for al, lin, log_w0, s_lo, s_hi, s_c, fast, power in panels:
        assert fast == power == (0.0, 0.0)
        lo, width = _panels(al, lin, log_w0, s_lo, s_hi, s_c)
        ref_lo, ref_width = repeat_panels(al, lin, log_w0, s_lo, s_hi, s_c)
        assert lo.size == ref_lo.size
        assert np.all(np.abs(lo - ref_lo) <= 2.0 * np.spacing(np.abs(ref_lo)))
        assert np.all(np.abs(width - ref_width) <= 2.0 * np.spacing(ref_width))


@pytest.mark.parametrize("name", FIXTURES)
def test_integrand_matches_libm_within_its_roundoff(monkeypatch, name):
    # on the nodes of every grid call, each of the four kinds; the rule's
    # per-node bound must cover the distance to the libm form
    _, integrands = _calls(monkeypatch, name)
    kinds = set()
    for ray, kind, omega, t0, sigma, _ in integrands:
        kinds.add(kind)
        pair = {"density": "density-1", "density-1": "density",
                "tail": "tail-cf", "tail-cf": "tail"}[kind]
        for k in (kind, pair):
            f, err = _integrand(ray, k, omega, t0, sigma)
            ref = libm_integrand(ray, k, omega, t0, sigma)
            assert np.all(np.isfinite(f)) and np.all(err >= 0.0), (k, omega)
            assert np.all(np.abs(f - ref) <= EPS * err), (k, omega)
    assert {"density", "density-1", "tail"} <= kinds


def test_scalar_helpers_keep_numpy_semantics():
    # _unit replaces np.clip(p, 0, 1) and lets NaN through as np.clip did;
    # _power_sum replaces a numpy sum of powers under errstate(over="ignore")
    assert _unit(-1e-17) == 0.0 and _unit(1.0 + 1e-15) == 1.0 and _unit(0.25) == 0.25
    assert math.isnan(_unit(math.nan))
    assert _power_sum([(2.0, 1.5), (3.0, 0.5)], 4.0) == 2.0 * 4.0 ** -1.5 + 3.0 * 4.0 ** -0.5
    assert _power_sum([(1.0, 2.0)], 1e-300) == math.inf
    assert _power_sum([(1.0, 2.0)], 0.0) == math.inf
