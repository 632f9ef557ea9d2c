"""The rotated-ray rule's integrand and panel layout against their plain forms.

The rule takes every sine and cosine from the tangent of a half angle and
cuts its split panel gaps one by one.  These tests hold each against the
straightforward form: the integrands written with np.sin and
np.cos must agree within the roundoff bound the rule reports per node,
and the panels must sit where the np.repeat layout puts them.  Two digests
pin the bits of every (value, err) the grid gives and of densities and
tails far out, from 1e100 to 1e300.
"""

import hashlib
import math

import numpy as np
import pytest

from multistable import inversion, prooflab
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
    _, minus_m_r, m_i = (ray.parts * t0 ** ray.alph) @ pw     # the rows are M, -Re m, Im m
    m_r = -minus_m_r
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


def repeat_panels(al, lin, log_w0, s_lo, s_hi, s_c, fast=(0.0, 0.0), power=(0.0, 0.0)):
    """The panel layout built with np.repeat, eta's kernel and algebraic terms
    each entering where it is switched on."""
    lin_f, s_f = fast
    p_x, s_x = power
    s_f, s_x = min(max(s_f, s_lo), s_hi), min(max(s_x, s_lo), s_hi)
    share = _TURN / (al.size + 1 + (lin_f > 0.0))
    start = min(((math.log(share) - lw) / a for lw, a in zip(log_w0, al)), default=s_hi)
    if lin > 0.0:
        start = min(start, math.log(share / lin))
    if lin_f > 0.0:
        start = min(start, math.log(share / lin_f))
    if p_x > 0.0:
        start = min(start, s_x)
    start = min(max(start, s_lo), s_hi)
    n = int((s_hi - start) / _GRID) + 1
    grid = start + (s_hi - start) / n * np.arange(n + 1)
    kern = lin * np.exp(grid)
    cf_terms = np.exp(np.multiply.outer(al, np.minimum(grid, s_c)) + log_w0[:, None])
    phi = kern + cf_terms.sum(axis=0)
    cuts = [s_lo, s_c, s_hi]
    if lin_f > 0.0:
        phi = phi + lin_f * np.exp(np.minimum(grid, s_f))
        cuts.append(s_f)
    if p_x > 0.0:
        phi = phi + p_x * np.maximum(grid - s_x, 0.0)
        cuts.append(s_x)
    levels = np.arange(math.floor(phi[0] / _TURN) + 1, math.ceil(phi[-1] / _TURN)) * _TURN
    edges = np.sort(np.concatenate((np.interp(levels, phi, grid), cuts)))
    left, right = edges[:-1], edges[1:]
    slope = np.where(left < s_c, np.interp(right, grid, kern + al @ cf_terms),
                     lin * np.exp(right))
    if lin_f > 0.0:
        slope = slope + np.where(left < s_f, lin_f * np.exp(right), 0.0)
    if p_x > 0.0:
        slope = slope + np.where(left >= s_x, p_x, 0.0)
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
def test_panels_sit_where_the_repeat_layout_puts_them(monkeypatch, name, moll125, moll15,
                                                     moll2):
    # the same count, and every lo and width within 2 ulps: a running sum of
    # widths would drift by more along the ray.  The grid's densities and
    # tails have no eta terms; the etas of the lemma1 and lemma6 sweeps at
    # three q have both
    panels, _ = _calls(monkeypatch, name)
    # the grid's plans inside a frequency regime take its stored layout instead
    grid_calls = len(panels)
    assert 0 < grid_calls < 2 * len(GRID)
    assert all(args[6] == args[7] == (0.0, 0.0) for args in panels)
    for moll in (moll125, moll15, moll2):
        prooflab._eta_sweep(fixture(name), moll, [10.0, 50.0, 100.0, 1000.0])
    etas = panels[grid_calls:]
    assert etas and all(args[6][0] > 0.0 and args[7][0] > 0.0 for args in etas)
    for args in panels:
        lo, width = _panels(*args)
        ref_lo, ref_width = repeat_panels(*args)
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


def test_grid_pairs_pinned():
    # every (value, err) of the scalar density, tail and cdf on the grid, and a
    # batch of etas at q = 1.5 from xi = 1.5^-20 to 1.5^39: a change to the
    # planner or the integrand that keeps the rule must keep every bit
    pairs = []
    for name in FIXTURES:
        spec = fixture(name)
        for x in GRID:
            pairs.append(inversion.density_with_error(spec, x))
            pairs.append(inversion.tail_probability_with_error(spec, x))
            pairs.append(inversion._cdf_with_error(spec, x))
    xis = [1.5 ** k for k in range(-20, 40)]
    for name in ("two_exp", "three_cell", "wide_narrow"):
        pairs += inversion._eta_integrals(fixture(name), xis, 0.25)
    assert len(pairs) == 3 * len(FIXTURES) * len(GRID) + 3 * len(xis)
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == \
        "3515888d905ce9b83fc4b8150d0229d01936640c82792222088af42c97587bb1"


def test_far_pairs_pinned():
    # densities and tails from 1e100 to 1e300, where t0^alpha = omega^-alpha
    # underflows into the subnormal range: a factor folded into the cf's
    # exponent rows (halving Im m there, say) rounds differently in that
    # range and moves bits that the grid's digest does not see
    pairs = []
    for name in FIXTURES:
        spec = fixture(name)
        for k in range(100, 301, 4):
            pairs.append(inversion.density_with_error(spec, 10.0 ** k))
            pairs.append(inversion.tail_probability_with_error(spec, 10.0 ** k))
    assert hashlib.sha256(repr(pairs).encode()).hexdigest() == \
        "378642946f932c504608d7773df4fa077221f17679e2802b5a1e450043bc8f6b"


@pytest.mark.parametrize("name, kind, x", [("two_exp", "density", 1e-3),
                                           ("two_exp", "density", 100.0),
                                           ("three_cell", "tail", 10.0),
                                           ("cauchy", "tail", 1e-3)])
def test_panel_budget_refuses_one_panel_short(monkeypatch, name, kind, x):
    # one panel under a grid call's count, the rule refuses it and names the
    # count; at the count, the call gives the same pair as under the default
    # budget
    spec = fixture(name)
    call = {"density": inversion.density_with_error,
            "tail": inversion.tail_probability_with_error}[kind]
    pair = call(spec, x)
    need = inversion._plan(inversion._ray(spec), x, kind).lo.size
    monkeypatch.setattr(inversion, "_MAX_PANELS", need - 1)
    with pytest.raises(inversion.AccuracyError,
                       match=f"needs {need} panels, more than its budget of {need - 1}"):
        call(spec, x)
    monkeypatch.setattr(inversion, "_MAX_PANELS", need)
    assert call(spec, x) == pair


@pytest.mark.parametrize("name", FIXTURES)
def test_level_edges_past_the_table_fall_back_bit_for_bit(monkeypatch, name):
    # grid plans need level edges j pi up to j = 58 and the lemma sweeps' etas
    # up to 136, inside the 256-entry table; cut to two entries, every plan
    # takes np.arange and must lay out the same panels, bit for bit
    ray = inversion._ray(fixture(name))
    calls = [(x, kind, 0.0) for kind in ("density", "tail") for x in GRID]
    calls += [(xi, "eta", w) for w in (0.1, 0.25, 1.0) for xi in (10.0, 100.0, 1000.0)]
    plans = [inversion._plan(ray, x, kind, w) for x, kind, w in calls]
    monkeypatch.setattr(inversion, "_LEVELS", inversion._LEVELS[:2])
    for (x, kind, w), plan in zip(calls, plans):
        again = inversion._plan(ray, x, kind, w)
        assert again.lo.tobytes() == plan.lo.tobytes()
        assert again.width.tobytes() == plan.width.tobytes()
