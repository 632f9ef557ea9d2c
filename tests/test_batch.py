"""Batched ray-rule evaluation against the scalar rule.

``inversion._integrals`` plans every request and evaluates the plans of one
kind in blocks of about ``_BLOCK_NODES`` nodes, one ``_integrand`` call a
block.  Every (value, err) it gives must equal the scalar call's, compared
with ``==``; so must the batched entries built on it.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multistable import inversion, prooflab
from multistable.asymptote import _ratio_parts, ratio_with_error
from multistable.cli import run_command
from multistable.fixtures import fixture, random_spec
from multistable.function_space import normalize_to_sphere
from multistable.mollifier import build_mollifier

FIXTURES = ("cauchy", "alpha06", "alpha18", "two_exp", "three_cell", "wide_narrow")
QS = (1.25, 2.0, 1e6)
KINDS = {"density", "density-1", "tail", "tail-cf", "eta"}


def requests(spec) -> list[tuple[float, str, float]]:
    """Density at 0 and on both sides of the density-1 switch, tails from the
    tail-cf range up, and eta at each q of QS."""
    switch = 1.0 / inversion._ray(spec).t_cf
    xs = [0.0, 1e-3, 0.5 * switch, switch * (1.0 - 1e-12), switch, 2.0 * switch, 1e3]
    reqs = [(x, "density", 0.0) for x in xs]
    reqs += [(lam, "tail", 0.0) for lam in (1e-4, 1e-2, 0.3, 1.0, 10.0, 1e4)]
    for q in QS:
        reqs += [(xi, "eta", 0.5 * (q - 1.0)) for xi in (1.0, q, q ** 3, 50.0)]
    return reqs


def kinds(spec, reqs) -> set[str]:
    ray = inversion._ray(spec)
    return {inversion._plan(ray, *r).kind for r in reqs if not math.isinf(r[0])}


def assert_batch_equals_scalar(spec, reqs):
    # the reference is each plan run on its own, (0, 0) at omega = inf
    ray = inversion._ray(spec)
    got = list(inversion._integrals(spec, reqs))
    assert len(got) == len(reqs)
    for r, pair in zip(reqs, got):
        ref = (0.0, 0.0) if math.isinf(r[0]) else inversion._run(ray, inversion._plan(ray, *r))
        assert pair == ref, r


@pytest.fixture
def block_calls(monkeypatch):
    """The node counts of every _integrand call, one per plan of its block."""
    calls = []
    real = inversion._integrand

    def spy(*args):
        calls.append(args[6] if len(args) > 6 else [args[4].size])
        return real(*args)

    monkeypatch.setattr(inversion, "_integrand", spy)
    return calls


@pytest.mark.parametrize("name", FIXTURES)
def test_every_kind_in_one_mixed_batch(name, block_calls):
    # mixed kinds, repeated omegas and an infinite one in one request list
    spec = fixture(name)
    reqs = requests(spec)
    assert kinds(spec, reqs) == KINDS
    reqs = reqs + [(math.inf, "tail", 0.0)] + reqs[::3]
    assert_batch_equals_scalar(spec, reqs)
    assert any(len(sizes) > 1 for sizes in block_calls)


def test_large_batches_and_plans_larger_than_a_block(block_calls):
    # more than 16384 nodes in all, and plans of a block or more (eta at
    # q = 1e6 and small xi), which run alone on the scalar path
    spec = fixture("three_cell")
    ray = inversion._ray(spec)
    lams = np.geomspace(1e-3, 1e5, 40).tolist()
    reqs = [(lam, "tail", 0.0) for lam in lams] + [(x, "density", 0.0) for x in lams]
    reqs += [(xi, "eta", 0.125) for xi in lams if xi >= 1.0]
    reqs += [(xi, "eta", 499999.5) for xi in (1.0, 2.0, 3.0, 10.0, 1e3)]
    sizes = [inversion._plan(ray, *r).lo.size * 21 for r in reqs]
    assert sum(sizes) > 16384 and max(sizes) >= inversion._BLOCK_NODES
    assert_batch_equals_scalar(spec, reqs)
    # a batched block holds fewer than twice the block size
    assert all(sum(s) < 2 * inversion._BLOCK_NODES for s in block_calls if len(s) > 1)
    assert any(len(s) == 1 and s[0] >= inversion._BLOCK_NODES for s in block_calls)


def test_a_smaller_block_size_changes_nothing(monkeypatch):
    # most plans are then larger than a block and the rest pack in pairs
    monkeypatch.setattr(inversion, "_BLOCK_NODES", 1500)
    spec = fixture("two_exp")
    assert_batch_equals_scalar(spec, requests(spec))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_random_specs(seed):
    spec = random_spec(np.random.Generator(np.random.Philox(key=seed)))
    assert_batch_equals_scalar(spec, requests(spec))


def test_batched_entries_equal_the_scalar_entries():
    spec = fixture("wide_narrow")
    lams = [1e-3, 0.5, 2.0, 2.0, 1e3, math.inf]
    assert list(inversion._tails_with_error(spec, lams)) == [
        inversion.tail_probability_with_error(spec, lam) for lam in lams]
    xis = [1.0, 7.0, 1e4]
    assert inversion._eta_integrals(spec, xis, 0.25) == [
        inversion.eta_integral(spec, xi, 0.25) for xi in xis]
    xs = [-math.inf, -3.0, 0.0, 1e-2, 3.0, math.inf]
    assert inversion._cdfs_with_error(spec, xs) == [inversion._cdf_with_error(spec, x) for x in xs]
    xs = [-math.inf, -3.0, -0.0, 0.0, 1e-2, 3.0, math.inf]
    assert list(inversion._densities_with_error(spec, xs)) == [
        inversion.density_with_error(spec, x) for x in xs]
    unit = normalize_to_sphere(spec)
    lams = [1.0, 10.0, 1e3]
    assert [(p / t, e / t) for t, p, e in _ratio_parts(unit, lams)] == [
        ratio_with_error(unit, lam) for lam in lams]


@pytest.fixture
def work(monkeypatch):
    """The names of the _plan and _integrand calls made."""
    calls = []
    for name in ("_plan", "_integrand"):
        def spy(*args, _name=name, _real=getattr(inversion, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(inversion, name, spy)
    return calls


def test_batched_tails_raise_where_a_scalar_loop_would(work):
    # the error a loop of one-lambda calls raises first, naming its lambda,
    # before any lambda is planned: no pair comes out
    spec = fixture("cauchy")
    lams = [10.0, 1.0, -1.0, 20.0, -2.0]
    with pytest.raises(ValueError, match=r"lambda must be positive, got -1\.0"):
        inversion._tails_with_error(spec, lams)
    assert work == []
    with pytest.raises(ValueError, match=r"lambda must be positive, got -1\.0"):
        [inversion.tail_probability_with_error(spec, lam) for lam in lams]
    assert work == ["_plan", "_integrand"] * 2     # the scalar loop ran its first two


def test_batched_densities_raise_where_a_scalar_loop_would(work):
    # the error a loop of one-x calls raises first, before any x is planned
    spec = fixture("cauchy")
    xs = [10.0, -1.0, math.nan, 20.0]
    with pytest.raises(ValueError, match="x is NaN"):
        inversion._densities_with_error(spec, xs)
    assert work == []
    with pytest.raises(ValueError, match="x is NaN"):
        [inversion.density_with_error(spec, x) for x in xs]
    assert work == ["_plan", "_integrand"] * 2


def test_batched_densities_refuse_a_zero_spec():
    zero = fixture("cauchy").with_coefficients_scaled(0.0)
    with pytest.raises(ValueError, match="no density"):
        list(inversion._densities_with_error(zero, [1.0, 2.0]))


def test_cli_density_grid_is_one_batch(block_calls, tmp_path):
    # 41 points from 1e-6 to 1e6 on both sides of 0: fewer than half as many
    # _integrand calls as points
    g = np.geomspace(1e-6, 1e6, 20).tolist()
    xs = [-x for x in g] + [0.0] + g
    rc = run_command(["density", "--fixture", "three_cell", "--x", *map(repr, xs),
                      "--out", str(tmp_path / "d.csv")])
    assert rc == 0
    assert sum(len(s) for s in block_calls) == len(xs)
    assert len(block_calls) < len(xs) / 2


def test_x_side_tails_are_one_batch(block_calls):
    # the centre value and the tails at the 13 band panels' nodes: 274 plans
    # in fewer than half as many _integrand calls
    spec, moll = fixture("cauchy"), build_mollifier(50.0)
    prooflab._x_side(spec, moll, 1.0)
    assert sum(len(s) for s in block_calls) == 13 * 21 + 1
    assert len(block_calls) < (13 * 21 + 1) / 2


def test_eta_sweep_calls_the_integrand_once_a_block(monkeypatch):
    spec, moll = fixture("two_exp"), build_mollifier(1.25)
    lams = np.geomspace(10.0, 1e4, 12).tolist()
    calls = []
    real = inversion._integrand

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(inversion, "_integrand", spy)
    prooflab._eta_sweep(spec, moll, lams)
    js = [prooflab.j0(lam, moll.q) for lam in lams]
    xis = {moll.q ** (j + d) for j in js for d in (1, -1)}
    ray = inversion._ray(spec)
    nodes = sum(inversion._plan(ray, xi, "eta", moll.w).lo.size * 21 for xi in xis)
    assert len(calls) <= math.ceil(nodes / inversion._BLOCK_NODES) < len(xis)
