"""The ray rule's frequency regimes: stored layouts against each plan's own terms.

Far above the cf's scale (omega >= omega_hi) and far below it (omega <=
omega_lo) a plan takes its regime's stored layout, laid out once at the
regime's edge, and cuts only its own first gap.  These tests hold every such
plan to the rule that _panels keeps for its own layouts, with Phi' computed
from the plan's own terms: the panels cover the plan's [s_lo, s_hi] with no
hole, none is wider than log 8 or than _REACH over the largest Phi' on it,
and the count meets the panel budget with the same refusal.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistable import inversion
from multistable.fixtures import fixture, random_spec
from multistable.function_space import ExponentFunction, StepFunction, refine
from multistable.inversion import _LN8, _REACH, AccuracyError

FIXTURES = ("cauchy", "alpha06", "alpha18", "two_exp", "three_cell", "wide_narrow")
# 1e-300 to 1e300, a decade apart in the middle and ten decades apart further out
FAR = [10.0 ** k for k in range(-300, -10, 10)] + [10.0 ** k for k in range(-10, 11)] + \
      [10.0 ** k for k in range(20, 301, 10)]
REQUESTS = (("density", 0.0), ("tail", 0.0), ("eta", 0.25), ("eta", 24.5))


def edge_omegas(ray):
    """Each regime's edge and its two float neighbours."""
    return [math.nextafter(edge, to) for edge in (ray.omega_lo, ray.omega_hi)
            if 0.0 < edge < math.inf for to in (0.0, edge, math.inf)]


def own_rate(args, al, right, left):
    """The largest Phi' of the plan's own Phi (see _panels) on the panel (left, right]:
    Phi' rises between the cuts s_c and s_f, where a term stops, so it is taken
    just left of every such cut inside the panel and of the right end."""
    lin, log_w0, s_lo, s_hi, s_c, (lin_f, s_f), (p_x, s_x) = args
    s_f, s_x = min(max(s_f, s_lo), s_hi), min(max(s_x, s_lo), s_hi)
    best = 0.0
    for at in [right] + [c for c in (s_c, s_f) if left < c < right]:
        rate = lin * math.exp(at)
        if at <= s_c:
            rate += sum(a * math.exp(a * at + lw) for a, lw in zip(al.tolist(), log_w0.tolist()))
        if lin_f > 0.0 and at <= s_f:
            rate += lin_f * math.exp(at)
        if p_x > 0.0 and at > s_x:
            rate += p_x
        best = max(best, rate)
    return best


def stored_plans(monkeypatch, ray, omegas):
    """Every (plan, its _panels arguments) of the requests at omegas that took a
    stored layout; a refused request is skipped once its own frame or its own
    layout is seen to refuse it too."""
    taken = []
    stored_panels = inversion._stored_panels

    def spy(layout, *args):
        panels = stored_panels(layout, *args)
        if panels is not None:
            taken.append(args)
        return panels

    monkeypatch.setattr(inversion, "_stored_panels", spy)
    out = []
    for omega in omegas:
        for kind, w in REQUESTS:
            taken.clear()
            try:
                plan = inversion._plan(ray, omega, kind, w)
            except AccuracyError:
                # a refusal is the request's own: its frame's, or its own layout's
                try:
                    args = inversion._frame(ray, omega, kind, w)[5]
                except AccuracyError:
                    continue
                with pytest.raises(AccuracyError):
                    inversion._panels(ray.alph, *args)
                continue
            if taken:
                args = inversion._frame(ray, omega, kind, w)[5]
                own = taken[0]
                assert args[2:] == own[2:] and args[0] == own[0]
                assert np.array_equal(args[1], own[1])
                out.append((plan, args))
    monkeypatch.setattr(inversion, "_stored_panels", stored_panels)
    return out


def check_stored_plans(monkeypatch, ray, omegas):
    plans = stored_plans(monkeypatch, ray, omegas)
    for plan, args in plans:
        lo, width = plan.lo, plan.width
        s_lo, s_hi = args[2], args[3]
        right = lo + width
        # the plan's own [s_lo, s_hi], panel after panel with no hole or overlap
        assert lo[0] == s_lo and right[-1] >= s_hi
        assert np.all(np.abs(right[:-1] - lo[1:]) <= 4.0 * np.spacing(np.abs(lo).max()))
        assert np.all(width > 0.0) and np.all(width <= _LN8)
        rates = [own_rate(args, ray.alph, r, l) for l, r in zip(lo.tolist(), right.tolist())]
        assert np.all(width * np.array(rates) <= _REACH), (plan.kind, plan.omega)
        # the panel budget refuses the plan one panel short, with _panels' message
        need = lo.size
        monkeypatch.setattr(inversion, "_MAX_PANELS", need - 1)
        with pytest.raises(AccuracyError,
                           match=f"needs {need} panels, more than its budget of {need - 1}"):
            inversion._plan(ray, plan.omega, plan.kind, plan.w)
        monkeypatch.undo()
    return plans


def check_short_table(monkeypatch, spec, ray):
    # the stored layouts, laid out again with two entries of _LEVELS, bit for bit
    monkeypatch.setattr(inversion, "_LEVELS", inversion._LEVELS[:2])
    again = inversion._Ray(spec)
    for (kind, w), layout in ray.layouts.items():
        short = inversion._regime_layout(again, kind, w)
        assert (short is None) == (layout is None)
        if layout is not None:
            assert (short.first, short.rate) == (layout.first, layout.rate)
            assert short.panels.tobytes() == layout.panels.tobytes()
    monkeypatch.undo()


@pytest.mark.parametrize("name", FIXTURES)
def test_stored_layouts_serve_their_plans(monkeypatch, name):
    spec = fixture(name)
    ray = inversion._ray(spec)
    plans = check_stored_plans(monkeypatch, ray, FAR + edge_omegas(ray))
    # both regimes and every kind that has one are reached
    assert {p.kind for p, _ in plans} == {"density", "tail-cf", "density-1", "tail", "eta"}
    check_short_table(monkeypatch, spec, ray)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_stored_layouts_serve_random_specs(seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        spec = random_spec(np.random.default_rng(seed))
        ray = inversion._Ray(spec)
        check_stored_plans(monkeypatch, ray, FAR[::2] + edge_omegas(ray))
        check_short_table(monkeypatch, spec, ray)


@pytest.mark.parametrize("alpha", [0.01, 0.05])
def test_low_layout_keeps_the_kernel_small_to_its_end(monkeypatch, alpha):
    # at a small alpha the density's omega -> 0 cut lies far past the cf's e^s_cf
    # (e^90 t_cf at alpha 0.05), where omega_lo t is 1e5 (alpha 0.05) or 5e63
    # (alpha 0.01): the low layout keeps omega t <= 0.1 up to its end, so a tiny
    # omega's density takes no more panels than its own layout
    spec = refine(StepFunction((0.0, 1.0), (1.0,)), ExponentFunction.constant(alpha))
    ray = inversion._Ray(spec)
    plans = check_stored_plans(monkeypatch, ray, FAR + edge_omegas(ray))
    assert {"density", "tail-cf"} <= {p.kind for p, _ in plans}
    lin, _, _, end = ray.layouts[("density", 0.0)].args[:4]
    assert lin * math.exp(end) <= 0.1 * (1.0 + 1e-12)
    for plan, args in plans:
        if plan.kind == "density":
            assert plan.lo.size <= inversion._panels(ray.alph, *args)[0].size


def test_edge_requests_keep_their_own_layout():
    # at omega_hi, a power of two, the edge's own requests take the stored layouts
    # and get the panels they would lay out themselves, to within 64 _SLACK: the
    # stored layout's cuts and eta's kernel terms are moved out by _SLACK, which
    # moves its level edges by up to a few times that (the low regime's layout
    # ends at the omega -> 0 cut, past omega_lo's own)
    for name in FIXTURES:
        ray = inversion._ray(fixture(name))
        for kind, w in REQUESTS:
            plan = inversion._plan(ray, ray.omega_hi, kind, w)
            lo, width = inversion._panels(ray.alph, *inversion._frame(ray, ray.omega_hi, kind, w)[5])
            assert inversion._regime_layout(ray, plan.kind, w) is not None
            assert plan.lo.size == lo.size
            assert np.allclose(plan.lo, lo, rtol=0.0, atol=64.0 * inversion._SLACK)
            assert np.allclose(plan.width, width, rtol=0.0, atol=64.0 * inversion._SLACK)


def test_stub_sums_at_t_cf_are_cached_lazily():
    # a plan with t0 = t_cf starts its stub at the ray's cached sums, built on
    # first use: a high-frequency plan (t0 = 1/omega) builds none
    spec = fixture("three_cell")
    ray = inversion._Ray(spec)
    assert ray.at_cf == {}
    inversion._plan(ray, 1e6, "tail")
    assert ray.at_cf == {}
    fresh = [inversion._plan(inversion._Ray(spec), x, k) for x, k in ((1e-3, "tail"), (0.1, "density"))]
    cached = [inversion._plan(ray, x, k) for x, k in ((1e-3, "tail"), (0.1, "density"))]
    assert set(ray.at_cf) == {"tail-cf", "density"}
    for a, b in zip(fresh, cached):
        assert (a.stub, a.stub_rem, a.lo.tobytes()) == (b.stub, b.stub_rem, b.lo.tobytes())
    for kind in ("tail-cf", "density"):
        assert ray.at_cf[kind] == inversion._remainder_sums(ray, kind, ray.log_t_cf)
