import bisect
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from multistable.charfn import cf, cf_multivariate
from multistable.fixtures import fixture, fixture_names, random_spec
from multistable.function_space import (
    ExponentFunction,
    MultistableSpec,
    StepFunction,
    combine_steps,
    exp_sum_root,
    modular_integral,
    normalize_to_sphere,
    quasinorm,
    refine,
)


def make(breaks, coefs, a_breaks, a_vals):
    return refine(StepFunction(breaks, coefs), ExponentFunction(a_breaks, a_vals))


CAUCHY = make((0.0, 1.0), (1.0,), (), (1.0,))


class TestTypes:
    def test_exponent_rejects_out_of_range(self):
        for bad in (0.0, 2.0, 2.5, -0.3):
            with pytest.raises(ValueError):
                ExponentFunction((), (bad,))

    def test_exponent_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ExponentFunction((1.0, 0.0), (0.5, 0.5, 0.5))

    def test_exponent_value_count(self):
        with pytest.raises(ValueError):
            ExponentFunction((0.0,), (1.0,))

    def test_exponent_bounds_derived(self):
        a = ExponentFunction((0.0,), (0.5, 1.5))
        assert a.a == 0.5 and a.b == 1.5

    def test_step_mismatched_lengths(self):
        with pytest.raises(ValueError):
            StepFunction((0.0, 1.0), (1.0, 2.0))

    def test_step_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            StepFunction((0.0, 1.0), (np.inf,))

    def test_zero_function(self):
        z = StepFunction((), ())
        assert z.is_zero and z.support is None
        assert refine(z, ExponentFunction.constant(1.0)).is_zero


class TestRefine:
    def test_interval_intersection(self):
        spec = make((0.0, 2.0), (1.0,), (1.0,), (0.5, 1.5))
        assert [(lo, hi) for lo, hi, _, _ in spec.cells] == [(0.0, 1.0), (1.0, 2.0)]
        assert [a for *_, a in spec.cells] == [0.5, 1.5]

    def test_breakpoint_union_sorted(self):
        spec = make((0.0, 1.0, 3.0), (1.0, 2.0), (0.5, 2.5), (0.4, 0.9, 1.3))
        edges = [lo for lo, *_ in spec.cells] + [spec.cells[-1][1]]
        assert edges == sorted(edges)
        assert edges == [0.0, 0.5, 1.0, 2.5, 3.0]

    def test_empty_support(self):
        spec = make((), (), (), (1.0,))
        assert spec.cells == ()

    def test_f_and_alpha_are_the_only_inputs(self):
        spec = CAUCHY
        with pytest.raises(TypeError):
            MultistableSpec(spec.f, spec.alpha, spec.cells)

    def test_cells_derived_bit_for_bit(self, rng):
        # the spec's cells equal a refinement by table lookup at each cell's
        # left edge, and its groups those of refine(f, alpha); scaling the
        # coefficients scales each cell's coefficient and nothing else
        specs = [fixture(name) for name in fixture_names()]
        specs += [random_spec(rng) for _ in range(300)]
        for spec in specs:
            f, alpha = spec.f, spec.alpha
            pts = sorted(set(f.breakpoints) | {b for b in alpha.breakpoints
                                               if f.breakpoints[0] < b < f.breakpoints[-1]})
            ref = tuple((p, q, f.coefficients[bisect.bisect_right(f.breakpoints, p) - 1],
                         alpha.values[bisect.bisect_right(alpha.breakpoints, p)])
                        for p, q in zip(pts, pts[1:]))
            made = MultistableSpec(f, alpha)
            assert repr(made.cells) == repr(spec.cells) == repr(ref)
            assert repr(made.groups) == repr(spec.groups) == repr(refine(f, alpha).groups)
            delta = float(rng.uniform(0.1, 10.0))
            scaled = tuple((lo, hi, delta * c, a) for lo, hi, c, a in spec.cells)
            assert repr(spec.with_coefficients_scaled(delta).cells) == repr(scaled)

    def test_round_trip_pointwise(self, rng):
        for _ in range(25):
            spec = random_spec(rng)
            xs = rng.uniform(-5.0, 5.0, 1000)
            f_cells = np.zeros_like(xs)
            a_cells = spec.alpha(xs)
            for lo, hi, c, a in spec.cells:
                mask = (xs >= lo) & (xs < hi)
                f_cells[mask] = c
                assert np.all(a_cells[mask] == a)
            assert np.array_equal(f_cells, spec.f(xs))

    def test_ulp_spaced_breakpoints(self):
        # (p + q) / 2 rounds to q when q is the float after p, so a lookup at
        # the midpoint gave the cell [p, q) its right neighbour's data
        p = math.nextafter(1.0, 2.0)
        q = math.nextafter(p, 2.0)
        spec = make((0.0, p, q, 2.0), (1.0, 2.0, 3.0), (), (1.0,))
        assert [c for _, _, c, _ in spec.cells] == [1.0, 2.0, 3.0]
        spec = make((0.0, 2.0), (1.0,), (p, q), (0.5, 1.0, 1.5))
        assert [a for *_, a in spec.cells] == [0.5, 1.0, 1.5]
        assert spec.groups == ((0.5, p), (1.0, q - p), (1.5, 2.0 - q))


@settings(max_examples=200, deadline=None)
@given(f_sites=st.lists(st.integers(-400, 400), min_size=2, max_size=6, unique=True),
       a_sites=st.lists(st.integers(-1000, 1000), max_size=4, unique=True),
       data=st.data())
def test_cells_are_midpoint_evaluations(f_sites, a_sites, data):
    # breakpoints in hundredths, so at least 0.01 apart; alpha's reach past
    # f's range, and some coefficients are zero.  Away from ulp-spaced
    # breakpoints each cell is f and alpha evaluated at its midpoint
    f_bp = sorted(k / 100.0 for k in f_sites)
    a_bp = sorted(k / 100.0 for k in a_sites)
    coefs = data.draw(st.lists(st.just(0.0) | st.floats(-5.0, 5.0),
                               min_size=len(f_bp) - 1, max_size=len(f_bp) - 1))
    vals = data.draw(st.lists(st.floats(0.05, 1.95),
                              min_size=len(a_bp) + 1, max_size=len(a_bp) + 1))
    spec = make(f_bp, coefs, a_bp, vals)
    edges = sorted(set(f_bp) | {b for b in a_bp if f_bp[0] < b < f_bp[-1]})
    mids = np.array([(lo + hi) / 2.0 for lo, hi in zip(edges, edges[1:])])
    ref = tuple(zip(edges, edges[1:], spec.f(mids).tolist(), spec.alpha(mids).tolist()))
    assert repr(spec.cells) == repr(ref)
    weights = {}
    for lo, hi, c, a in ref:
        if c != 0.0:
            weights[a] = weights.get(a, 0.0) + abs(c) ** a * (hi - lo)
    assert spec.groups == tuple(sorted(weights.items()))


def test_random_spec_draws_pinned():
    # verify remarks --seed reproduces only while random_spec makes the same
    # Generator calls in the same order with the same sizes.  Key 19's first
    # 2000 specs include 80 coefficient floors and 2 redrawn breakpoint sets
    rng = np.random.Generator(np.random.Philox(key=19))
    specs = [random_spec(rng) for _ in range(2000)]
    data = [(s.f.breakpoints, s.f.coefficients, s.alpha.breakpoints, s.alpha.values)
            for s in specs]
    assert data[:2] == [
        ((-3.17373662908925, -2.4868324611916375, -0.2553982627376721,
          0.41381843224478043, 3.2056167760707224),
         (2.7513416467144935, -0.2434291141342868, 1.3495341345319716, -2.97180653233646),
         (), (0.7875731290749438,)),
        ((1.3755123247407504, 3.953179803991425), (-2.7872081407153573,),
         (1.4673666813775643,), (1.2023126304918998, 0.9001239618144921))]
    assert sum(c == 0.3 for s in specs for c in s.f.coefficients) == 80
    assert hashlib.sha256(repr(data).encode()).hexdigest() == \
        "f52ba8c754d150ed0525c29fb27c0ac6ff3b795c1b2674a8b0d881c0a0a8c4be"
    assert float(rng.uniform()) == 0.7138801445944161


class TestModular:
    def test_indicator_any_alpha_scale_one(self):
        for alpha in (0.3, 1.0, 1.7):
            spec = make((0.0, 1.0), (1.0,), (), (alpha,))
            assert modular_integral(spec, 1.0) == 1.0

    def test_closed_form_half_exponent(self):
        # f = 1_[0,2], alpha = 0.5: modular(lam) = 2 lam^(-1/2); at lam = 4 -> 1
        spec = make((0.0, 2.0), (1.0,), (), (0.5,))
        assert modular_integral(spec, 4.0) == pytest.approx(1.0, abs=1e-15)

    def test_linear_exponent(self):
        spec = make((0.0, 1.0), (3.0,), (), (1.0,))
        assert modular_integral(spec, 1.0) == pytest.approx(3.0)

    def test_zero_iff_zero_function(self):
        zero = make((0.0, 1.0), (0.0,), (), (1.0,))
        assert modular_integral(zero, 2.0) == 0.0
        assert modular_integral(CAUCHY, 2.0) > 0.0

    def test_nonpositive_scale_rejected(self):
        for s in (0.0, -1.0):
            with pytest.raises(ValueError):
                modular_integral(CAUCHY, s)

    def test_strictly_decreasing_in_scale(self, rng):
        for _ in range(10):
            spec = random_spec(rng)
            lams = np.geomspace(0.1, 100.0, 25)
            vals = [modular_integral(spec, lam) for lam in lams]
            assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))


class TestQuasinorm:
    def test_constant_multiple_of_indicator(self):
        for c in (0.25, 1.0, 7.5):
            spec = make((0.0, 1.0), (c,), (), (0.7,))
            assert quasinorm(spec) == pytest.approx(c, rel=1e-12)

    def test_half_exponent_oracle(self):
        # solve 2 lam^(-1/2) = 1 -> lam = 4
        spec = make((0.0, 2.0), (1.0,), (), (0.5,))
        assert quasinorm(spec) == pytest.approx(4.0, rel=1e-12)

    def test_mixed_exponent_oracle(self):
        # oracle: bisection on lam^(-1/2) + lam^(-3/2) = 1, independent of the package
        spec = make((0.0, 1.0, 2.0), (1.0, 1.0), (1.0,), (0.5, 1.5))
        oracle = brentq(lambda lam: lam ** -0.5 + lam ** -1.5 - 1.0, 1.0, 10.0,
                        xtol=1e-14)
        assert quasinorm(spec) == pytest.approx(oracle, rel=1e-11)
        assert quasinorm(spec) == pytest.approx(2.148, abs=5e-4)

    def test_zero_function(self):
        assert quasinorm(make((0.0, 1.0), (0.0,), (), (1.0,))) == 0.0

    def test_bad_tolerance(self):
        for rel_tol in (-1e-9, math.nan):
            with pytest.raises(ValueError):
                quasinorm(CAUCHY, rel_tol=rel_tol)

    def test_homogeneity(self, rng):
        for _ in range(50):
            spec = random_spec(rng)
            delta = float(rng.uniform(-10.0, 10.0))
            if delta == 0.0:
                continue
            lhs = quasinorm(spec.with_coefficients_scaled(delta))
            rhs = abs(delta) * quasinorm(spec)
            assert lhs == pytest.approx(rhs, rel=2e-12)

    def test_modular_at_quasinorm(self, rng):
        for _ in range(50):
            spec = random_spec(rng)
            lam = quasinorm(spec)
            assert modular_integral(spec, lam) == pytest.approx(1.0, abs=1e-12)


def _brentq_quasinorm(spec):
    """Test-only oracle: a doubling bracket around scale 1, then brentq."""
    def excess(lam):
        return modular_integral(spec, lam) - 1.0
    lo = hi = 1.0
    if excess(1.0) > 0.0:
        while excess(hi) > 0.0:
            hi *= 4.0
        lo = hi / 4.0
    else:
        while excess(lo) < 0.0:
            lo /= 4.0
        hi = lo * 4.0
    return brentq(excess, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=300)


def test_unknown_fixture_lists_the_names():
    with pytest.raises(ValueError, match="unknown fixture 'nope'") as info:
        fixture("nope")
    assert all(repr(name) in str(info.value) for name in fixture_names())


@pytest.mark.parametrize("terms", [[(1e-310, 1.5)], [(1e-310, 1.0), (1e-20, 0.05)],
                                   [(5e-324, 1.95), (2.5e-308, 0.5)]])
def test_exp_sum_root_with_a_coefficient_below_y_over_the_float_max(terms):
    # y / c and e^(alpha u) overflow for such a c: its terms are taken in
    # logarithms, and the root matches one found in mpmath
    import mpmath as mp

    u = exp_sum_root(45.0, terms)
    ref = mp.findroot(lambda v: sum(c * mp.exp(al * v) for c, al in terms) - 45,
                      min((math.log(45.0) - math.log(c)) / al for c, al in terms))
    assert u == pytest.approx(float(ref), rel=1e-13)
    with pytest.raises(ValueError, match="must be positive"):
        exp_sum_root(45.0, terms + [(0.0, 1.0)])


@settings(max_examples=300, deadline=None)
@given(cells=st.lists(st.tuples(st.floats(0.05, 1.99), st.floats(-6.0, 6.0),
                                st.floats(0.01, 4.0), st.booleans()),
                      min_size=1, max_size=5),
       rel_tol=st.sampled_from([1e-8, 1e-12]))
def test_quasinorm_root_property(cells, rel_tol):
    # one cell per (alpha, log10 |c|, width, sign); alpha down to 0.05, |c| in 1e-6..1e6
    edges = np.concatenate([[0.0], np.cumsum([w for _, _, w, _ in cells])])
    coefs = [(-1.0 if neg else 1.0) * 10.0 ** e for _, e, _, neg in cells]
    spec = make(tuple(edges), coefs, tuple(edges[1:-1]), [a for a, *_ in cells])
    lam = quasinorm(spec, rel_tol=rel_tol)
    assert modular_integral(spec, lam) == pytest.approx(1.0, rel=rel_tol)
    assert lam == pytest.approx(_brentq_quasinorm(spec), rel=rel_tol)


class TestNormalize:
    def test_homogeneity_example(self):
        spec = make((0.0, 1.0), (2.0,), (), (1.0,))
        out = normalize_to_sphere(spec)
        assert out.f.coefficients == pytest.approx((1.0,))

    def test_divide_by_quasinorm(self):
        spec = make((0.0, 2.0), (1.0,), (), (0.5,))
        out = normalize_to_sphere(spec)
        assert out.f.coefficients == pytest.approx((0.25,), rel=1e-12)

    def test_idempotent(self, rng):
        spec = normalize_to_sphere(random_spec(rng))
        again = normalize_to_sphere(spec)
        assert quasinorm(again) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(again.f.coefficients, spec.f.coefficients, rtol=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            normalize_to_sphere(make((0.0, 1.0), (0.0,), (), (1.0,)))


def test_combine_steps_pointwise(rng):
    f1 = StepFunction((0.0, 1.0, 2.0), (1.0, -2.0))
    f2 = StepFunction((0.5, 1.5), (3.0,))
    g = combine_steps([f1, f2], [2.0, -1.0])
    xs = rng.uniform(-1.0, 3.0, 500)
    assert np.allclose(g(xs), 2.0 * f1(xs) - 1.0 * f2(xs))


def test_combine_steps_reads_each_cell_at_its_left_edge():
    # [p, q) with q the float after p: its midpoint rounds to q, so a midpoint
    # lookup takes the next cell's coefficient
    p = math.nextafter(1.0, 2.0)
    q = math.nextafter(p, 2.0)
    f = StepFunction((0.0, p, q, 2.0), (1.0, 2.0, 3.0))
    assert combine_steps([f], [1.0]).coefficients == (1.0, 2.0, 3.0)
    # a coefficient of 1e16 on the one-ulp cell carries 2.2 of the modular
    spec = refine(StepFunction((0.0, p, q, 2.0), (1.0, 1e16, 3.0)), ExponentFunction.constant(1.0))
    assert cf_multivariate([spec, spec], [0.5, 0.5]) == pytest.approx(cf(spec, 1.0), rel=1e-14)


def test_groups_view(rng):
    # alpha 0.5 on two separated cells (one sign-flipped), 1.5 between them
    spec = make((0.0, 1.0, 2.0, 4.0), (2.0, 0.0, -3.0), (1.0, 2.0), (0.5, 1.5, 0.5))
    assert [a for a, _ in spec.groups] == [0.5]
    assert spec.groups[0][1] == pytest.approx(2.0 ** 0.5 + 2.0 * 3.0 ** 0.5, rel=1e-15)
    for _ in range(10):
        spec = random_spec(rng)
        alphas = [a for a, _ in spec.groups]
        assert alphas == sorted(set(alphas))
        for s in (0.3, 1.0, 7.0):
            assert sum(w * s ** a for a, w in spec.groups) == pytest.approx(
                spec.scaled_modular(s), rel=1e-13)
