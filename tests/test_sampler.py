import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from multistable import sampler
from multistable.charfn import cf
from multistable.fixtures import fixture
from multistable.function_space import ExponentFunction, StepFunction, refine
from multistable.sampler import mc_tail, mixture_decompose, sample, sample_standard_stable

CAUCHY = fixture("cauchy")
TWO_EXP = fixture("two_exp")


class TestMixtureDecompose:
    def test_cauchy_single_group(self):
        assert mixture_decompose(CAUCHY) == [(1.0, 1.0)]

    def test_half_exponent_scale(self):
        from multistable.function_space import ExponentFunction, StepFunction, refine

        spec = refine(StepFunction((0.0, 2.0), (1.0,)), ExponentFunction.constant(0.5))
        [(alpha, sigma)] = mixture_decompose(spec)
        assert alpha == 0.5 and sigma == pytest.approx(4.0)

    def test_cf_product_identity(self):
        mix = mixture_decompose(TWO_EXP)
        assert len(mix) == 2
        for theta in (0.5, 1.0, 3.0):
            prod = math.prod(math.exp(-abs(theta * s) ** a) for a, s in mix)
            assert prod == pytest.approx(cf(TWO_EXP, theta), rel=1e-15)

    def test_a_scale_past_the_float_range_is_refused_by_name(self):
        # W = 1e18 at alpha 0.05 has W^(1/alpha) = 1e360, past the float max;
        # refused as a ValueError, not Python's raw OverflowError
        from multistable.function_space import ExponentFunction, StepFunction, refine

        spec = refine(StepFunction((0.0, 1e18), (1.0,)), ExponentFunction.constant(0.05))
        with pytest.raises(ValueError, match=r"W\^\(1/alpha\)"):
            mixture_decompose(spec)
        with pytest.raises(ValueError, match=r"W\^\(1/alpha\)"):
            sample(spec, 10)


class TestStandardStable:
    def test_domain(self, rng):
        for bad in (0.0, 2.0, -1.0):
            with pytest.raises(ValueError):
                sample_standard_stable(bad, rng)

    def test_cauchy_median_of_abs(self, rng):
        z = sample_standard_stable(1.0, rng, size=10 ** 6)
        assert z.base is None  # holds no kernel scratch alive
        p = np.mean(np.abs(z) > 1.0)
        se = math.sqrt(0.25 / z.size)
        assert abs(p - 0.5) < 3.0 * se

    def test_empirical_cf_alpha_half(self, rng):
        z = sample_standard_stable(0.5, rng, size=10 ** 6)
        emp = np.mean(np.cos(z))  # real part of the empirical cf at theta = 1
        se = np.std(np.cos(z)) / math.sqrt(z.size)
        assert abs(emp - math.exp(-1.0)) < 3.0 * se

    def test_symmetry(self, rng):
        z = sample_standard_stable(1.7, rng, size=10 ** 6)
        se = 1.0 / math.sqrt(z.size)
        assert abs(np.mean(np.sign(z))) < 3.0 * se


class TestSample:
    def test_seed_determinism(self):
        a = sample(TWO_EXP, 10 ** 4, seed=123)
        b = sample(TWO_EXP, 10 ** 4, seed=123)
        assert np.array_equal(a, b)

    def test_chunking_invariance(self, monkeypatch):
        # chunk k comes from stream k, so whole chunks are a prefix of any
        # longer run: 3000 draws are the first three 1000-draw chunks of 3500
        monkeypatch.setattr(sampler, "CHUNK", 1000)
        assert np.array_equal(sample(TWO_EXP, 3500, seed=9)[:3000], sample(TWO_EXP, 3000, seed=9))

    def test_different_seeds_differ(self):
        assert not np.array_equal(sample(CAUCHY, 100, seed=1), sample(CAUCHY, 100, seed=2))

    def test_empirical_cf_grid(self):
        draws = sample(TWO_EXP, 10 ** 6, seed=5)
        for theta in (0.3, 1.0, 2.0):
            emp = np.mean(np.cos(theta * draws))
            se = np.std(np.cos(theta * draws)) / math.sqrt(draws.size)
            assert abs(emp - cf(TWO_EXP, theta)) < 3.5 * se

    def test_cauchy_tail_closed_form(self):
        draws = sample(CAUCHY, 10 ** 6, seed=11)
        p, se = mc_tail(draws, 100.0)
        assert abs(p - 2.0 / math.pi * math.atan(0.01)) < 3.5 * se

    def test_n_validation(self):
        with pytest.raises(ValueError):
            sample(CAUCHY, 0)

    @pytest.mark.parametrize("n, seed, error, name", [
        (10 ** 8, -1, ValueError, "seed"), (10 ** 8, True, TypeError, "seed"),
        (10 ** 8, 2.0, TypeError, "seed"), (1e3, 0, TypeError, "n"), (True, 0, TypeError, "n"),
        (-5, 0, ValueError, "n")])
    def test_arguments_checked_before_anything_is_allocated(self, n, seed, error, name,
                                                            monkeypatch):
        # refused by name before the output (8e8 bytes at n = 1e8) is
        # allocated or a worker starts
        def refuse(*args):
            raise AssertionError("a worker started")

        monkeypatch.setattr(sampler, "_fill_chunks", refuse)
        tracemalloc.start()
        try:
            with pytest.raises(error, match=f"^{name} "):
                sample(CAUCHY, n, seed=seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_any_whole_seed_is_accepted(self):
        # SeedSequence takes any non-negative int, 2^128 included, and a numpy
        # integer is its value
        big = sample(CAUCHY, 10, seed=2 ** 128)
        assert np.all(np.isfinite(big)) and not np.array_equal(big, sample(CAUCHY, 10, seed=0))
        assert np.array_equal(sample(CAUCHY, 10, seed=np.int64(7)), sample(CAUCHY, 10, seed=7))

    def test_chunk_streams_are_spawned_children_of_the_seed(self):
        # chunk k of seed s is child k of SeedSequence(s): reproducible, and
        # unlike seed + k seeding, chunk k of s is not chunk k - 1 of s + 1
        def first(s, k):
            return sampler._chunk_rng(s, k).random(8)

        for s, k in ((0, 1), (5, 3), (2 ** 70, 9)):
            assert np.array_equal(first(s, k), first(s, k))
            assert not np.array_equal(first(s, k), first(s, k + 1))
            assert not np.array_equal(first(s, k), first(s + 1, k - 1))
        assert isinstance(sampler._chunk_rng(0, 0).bit_generator, np.random.SFC64)

    @pytest.mark.parametrize("name", ["three_cell", "cauchy"])
    def test_whole_blocks_are_a_prefix(self, name, monkeypatch):
        # within a chunk the draws come block by block and group by group (u,
        # then w unless alpha = 1), so whole blocks of a shorter run are a prefix
        monkeypatch.setattr(sampler, "_BLOCK", 64)
        b = sampler._BLOCK
        spec = fixture(name)
        assert np.array_equal(sample(spec, 2 * b + 7, seed=4)[:2 * b], sample(spec, 2 * b, seed=4))

    @pytest.mark.parametrize("name", ["three_cell", "cauchy"])
    def test_draws_do_not_depend_on_worker_count(self, name, monkeypatch):
        # chunk k is stream k whichever worker fills it; 8 chunks, the last
        # one partial, each in 64-draw blocks, the last block partial
        monkeypatch.setattr(sampler, "CHUNK", 1000)
        monkeypatch.setattr(sampler, "_BLOCK", 64)
        fill = sampler._fill_chunks
        calls = []

        def spy(out, mixture, seed, first, step, stop):
            calls.append((first, step))
            fill(out, mixture, seed, first, step, stop)

        monkeypatch.setattr(sampler, "_fill_chunks", spy)
        spec = fixture(name)
        runs = []
        for k in (1, 2, 3):
            monkeypatch.setattr(sampler, "_cpus", lambda k=k: k)
            calls.clear()
            runs.append(sample(spec, 7123, seed=6))
            assert sorted(calls) == [(i, k) for i in range(k)]
        assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[0], runs[2])

    def test_worker_exception_reaches_caller(self, monkeypatch):
        monkeypatch.setattr(sampler, "CHUNK", 1000)
        monkeypatch.setattr(sampler, "_cpus", lambda: 2)
        chunk_rng = sampler._chunk_rng

        def failing(seed, chunk_index):
            if chunk_index == 3:
                raise RuntimeError("chunk 3 failed")
            return chunk_rng(seed, chunk_index)

        monkeypatch.setattr(sampler, "_chunk_rng", failing)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="chunk 3 failed"):
            sample(TWO_EXP, 5500, seed=1)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("failing, error", [(1, RuntimeError), (0, KeyboardInterrupt)])
    def test_failing_chunk_stops_the_other_workers(self, failing, error, monkeypatch):
        # two workers: the caller fills chunks 0, 2, ... and a pool thread 1, 3, ...
        # One fails on its first chunk (a KeyboardInterrupt stands for Ctrl-C);
        # the other holds its first chunk until the stop flag is set, then must
        # fill no further block or chunk
        monkeypatch.setattr(sampler, "CHUNK", 1000)
        monkeypatch.setattr(sampler, "_BLOCK", 64)
        monkeypatch.setattr(sampler, "_cpus", lambda: 2)
        fill, chunk_rng = sampler._fill_chunks, sampler._chunk_rng
        stops, chunks = [], []

        def spy(out, mixture, seed, first, step, stop):
            stops.append(stop)
            fill(out, mixture, seed, first, step, stop)

        def failing_rng(seed, chunk_index):
            chunks.append(chunk_index)
            if chunk_index == failing:
                raise error(f"chunk {failing} failed")
            stops[0].wait(timeout=30)
            return chunk_rng(seed, chunk_index)

        monkeypatch.setattr(sampler, "_fill_chunks", spy)
        monkeypatch.setattr(sampler, "_chunk_rng", failing_rng)
        threads = threading.active_count()
        with pytest.raises(error, match=f"chunk {failing} failed"):
            sample(TWO_EXP, 9500, seed=1)
        assert sorted(chunks) == [0, 1]
        assert threading.active_count() == threads

    def test_interrupt_while_waiting_stops_the_workers(self, monkeypatch):
        # the caller fills chunks 0 and 2, then a Ctrl-C reaches it while it
        # waits for the pool thread, which holds chunk 1 until the stop flag
        # is set and then must not fill chunk 3
        from concurrent.futures import Future

        monkeypatch.setattr(sampler, "CHUNK", 1000)
        monkeypatch.setattr(sampler, "_BLOCK", 64)
        monkeypatch.setattr(sampler, "_cpus", lambda: 2)
        fill, chunk_rng = sampler._fill_chunks, sampler._chunk_rng
        stops, chunks = [], []

        def spy(out, mixture, seed, first, step, stop):
            stops.append(stop)
            fill(out, mixture, seed, first, step, stop)

        def holding_rng(seed, chunk_index):
            chunks.append(chunk_index)
            if chunk_index % 2:
                stops[0].wait(timeout=30)
            return chunk_rng(seed, chunk_index)

        def interrupted(self, timeout=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(sampler, "_fill_chunks", spy)
        monkeypatch.setattr(sampler, "_chunk_rng", holding_rng)
        monkeypatch.setattr(Future, "result", interrupted)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            sample(TWO_EXP, 4000, seed=1)
        assert sorted(chunks) == [0, 1, 2]
        assert threading.active_count() == threads


@pytest.fixture(scope="module")
def cms_points():
    # 1000 random (u, w), plus |u| within 1e-12..1e-3 of pi/2 on both sides,
    # paired with w from 1e-10 to 40
    rng = np.random.default_rng(2024)
    gap = np.geomspace(1e-12, 1e-3, 20)
    u = np.concatenate([rng.uniform(-math.pi / 2.0, math.pi / 2.0, 1000),
                        math.pi / 2.0 - gap, gap - math.pi / 2.0])
    w = np.concatenate([rng.standard_exponential(1000), np.geomspace(1e-10, 40.0, 40)])
    return u, w


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.8, 1.0, 1.5, 1.99])
def test_cms_matches_mpmath(alpha, cms_points):
    # the half-angle kernel against the transform at 40 digits; near |u| = pi/2
    # cos u keeps its relative accuracy only through v = pi/2 - |u| in
    # double-double (measured worst: 8.8e-14 at alpha = 0.05, the power
    # (1 - alpha)/alpha amplifying rounding; 7.3e-15 at alpha = 1.99)
    u, w = cms_points
    with mp.workdps(40):
        a = mp.mpf(alpha)
        ref = np.array([float(mp.sin(a * x) / mp.cos(x) ** (1 / a)
                              * (mp.cos((1 - a) * x) / y) ** ((1 - a) / a))
                        for x, y in zip(u.tolist(), w.tolist())])
    # the kernel overwrites u and w, so it gets copies of the shared points
    z, t = np.empty((2, u.size))
    with np.errstate(over="ignore"):
        sampler._cms(alpha, u.copy(), w.copy(), z, t)
    # at alpha = 0.05, u within 1e-9 of pi/2 and w below 1e-8 the variate
    # exceeds the double range, and must come out as inf of the right sign
    big = np.isinf(ref)
    assert np.array_equal(z[big], ref[big])
    assert np.max(np.abs(z[~big] / ref[~big] - 1.0)) <= 1e-13


def _cms_reference(alpha, u, w):
    """The transform at 40 digits, rounded to a double (inf past the float range)."""
    with mp.workdps(40):
        a = mp.mpf(alpha)
        return float(mp.sin(a * u) / mp.cos(u) ** (1 / a)
                     * (mp.cos((1 - a) * u) / w) ** ((1 - a) / a))


class _ZeroUniforms:
    """Stands in for a Generator whose every uniform is U = 0."""

    def random(self, out):
        out[...] = 0.0


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.8, 1.0, 1.5, 1.99])
def test_cms_at_the_uniform_edge(alpha):
    # U = 0 gives u = -fl(pi/2), where cos u = 6.1e-17 and the variate is
    # largest; it must have the transform's sign and size, or be -inf where
    # that passes the float range.  The exponential's U = 0 gives w = +0 (not
    # -0), where the variate is -inf for alpha < 1 and 0 for alpha > 1
    u, w = np.empty((2, 3))
    sampler._draw(alpha, _ZeroUniforms(), u, w)
    assert np.all(u == -math.pi / 2.0)
    if alpha != 1.0:
        assert np.all(w == 0.0) and not np.any(np.signbit(w))
    ws = np.array([1e-10, 1.0, 40.0])
    ref = np.array([_cms_reference(alpha, -math.pi / 2.0, y) for y in ws.tolist()])
    z, t = np.empty((2, 3))
    with np.errstate(over="ignore"):
        sampler._cms(alpha, u.copy(), ws.copy(), z, t)
    big = np.isinf(ref)
    assert np.array_equal(z[big], ref[big])
    assert np.all(np.abs(z[~big] / ref[~big] - 1.0) <= 1e-13)
    if alpha != 1.0:
        with np.errstate(over="ignore", divide="ignore"):
            sampler._cms(alpha, u.copy(), np.zeros(3), z, t)
        assert np.all(z == (-math.inf if alpha < 1.0 else 0.0))


def test_exponentials_from_uniforms():
    # w = -log(1 - U) on 2^20 draws: finite and >= 0, mean 1 and P(w > x) = e^-x
    # each within 5 SE
    n = 1 << 20
    u, w = np.empty((2, n))
    sampler._draw(0.5, sampler._chunk_rng(2718, 0), u, w)
    assert np.all(np.isfinite(w)) and np.all(w >= 0.0)
    assert abs(w.mean() - 1.0) <= 5.0 / math.sqrt(n)
    for x in (1.0, 5.0, 10.0):
        p = math.exp(-x)
        assert abs(np.count_nonzero(w > x) / n - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n)


def test_three_cell_draws_follow_the_inverted_cdf():
    # 2^20 draws of three_cell (alpha 0.5, 1.1 and 1.9): at 41 fixed x the
    # empirical cdf lies within the DKW bound of the inverted cdf, eps with
    # 2 exp(-2 n eps^2) = 1e-6, a false-alarm probability of 1e-6
    from multistable.inversion import cdf

    spec = fixture("three_cell")
    n = 1 << 20
    draws = np.sort(sample(spec, n, seed=60613))
    eps = math.sqrt(math.log(2e6) / (2.0 * n))
    g = np.geomspace(1e-2, 1e2, 20)
    xs = np.concatenate([-g[::-1], [0.0], g])
    emp = np.searchsorted(draws, xs, side="right") / n
    exact = np.array([cdf(spec, float(x)) for x in xs])
    assert np.max(np.abs(emp - exact)) <= eps


class TestMcTail:
    def test_all_below(self):
        assert mc_tail(np.array([0.1, -0.2, 0.05]), 1.0) == (0.0, 0.0)

    def test_lambda_zero(self):
        assert mc_tail(np.array([0.1, -0.2, 0.05]), 0.0) == (1.0, 0.0)

    def test_binomial_se(self):
        draws = np.array([0.5, 1.5, -2.0, 0.1])
        p, se = mc_tail(draws, 1.0)
        assert p == 0.5 and se == math.sqrt(0.25 / 4.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mc_tail(np.array([]), 1.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            mc_tail(np.array([1.0]), -1.0)

    def test_nan_lambda_rejected(self):
        with pytest.raises(ValueError):
            mc_tail(np.array([1.0]), math.nan)

    def test_count_matches_abs_on_edge_values(self):
        draws = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 2.5, -0.5])
        for lam in (0.0, 0.5, 1.0, 2.0, np.inf):
            p, _ = mc_tail(draws, lam)
            assert p == np.count_nonzero(np.abs(draws) > lam) / draws.size


def _whole_array_tail(draws, lam):
    """mc_tail's (p, se) from two comparisons over the whole array at once."""
    d = np.asarray(draws)
    p = float(np.count_nonzero(d > lam) + np.count_nonzero(d < -lam)) / d.size
    return p, math.sqrt(p * (1.0 - p) / d.size)


class TestMcTailBlocks:
    """mc_tail counts in slices of _TAIL_BLOCK draws; every (p, se) must equal
    the whole-array count's, at and across the slice edges."""

    B = sampler._TAIL_BLOCK

    @staticmethod
    def _draws(n, seed=0):
        return np.random.default_rng(seed).standard_cauchy(n)

    @pytest.mark.parametrize("extra", [(1, -1), (1, 0), (1, 1), (3, 7)])
    def test_counts_around_the_block_size(self, extra):
        mult, add = extra
        d = self._draws(mult * self.B + add)
        for lam in (0.0, 0.1, 1.0, 10.0, 1e3, abs(float(d[-1])), abs(float(d[d.size // 2]))):
            assert mc_tail(d, lam) == _whole_array_tail(d, lam)

    def test_layouts_and_dtypes(self):
        d = self._draws(3 * self.B + 7, seed=1)
        grid = d[: 2 * self.B].reshape(self.B // 4, 8)
        inputs = {
            "2-D": grid,
            "2-D transposed": grid.T,
            "2-D strided": grid[::3, 1::2],
            "1-D strided": d[::3],
            "reversed": d[::-1],
            "float32": d.astype(np.float32),
            "list": d[: self.B + 5].tolist(),
        }
        for name, x in inputs.items():
            for lam in (0.0, 0.1, 1.0, np.float64(0.1), 100.0, math.inf):
                assert mc_tail(x, lam) == _whole_array_tail(x, lam), (name, lam)

    def test_edge_values_across_blocks(self):
        d = self._draws(3 * self.B + 7, seed=2)
        specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 2.5, -2.5])
        for edge in (self.B, 2 * self.B, 3 * self.B):   # straddle each slice edge
            d[edge - 3: edge + 4] = specials
        d[:7], d[-7:] = specials, specials[::-1]
        for lam in (0.0, 2.5, abs(float(d[100])), math.inf):   # at draws: 2.5 and |d[100]|
            assert mc_tail(d, lam) == _whole_array_tail(d, lam), lam
            assert mc_tail(d, lam)[0] == np.count_nonzero(np.abs(d) > lam) / d.size


@pytest.fixture(scope="module")
def big_draws():
    return sample(TWO_EXP, 10 ** 7, seed=31)


def test_tail_cross_check_ten_million(big_draws):
    # |mc_tail - tail_probability| <= 4 SE at lambda in {1, 10, 100}, n = 1e7
    from multistable.inversion import tail_probability
    from multistable.quadrature import QuadratureConfig

    cfg = QuadratureConfig(abs_tol=1e-11)
    for lam in (1.0, 10.0, 100.0):
        p_hat, se = mc_tail(big_draws, lam)
        p = tail_probability(TWO_EXP, lam, cfg)
        assert abs(p_hat - p) <= 4.0 * se


def test_density_histogram_cross_check(big_draws):
    # sampler vs inversion: histogram on [-5, 5] with 0.1 bins, n = 1e7
    from multistable.inversion import density
    from multistable.quadrature import QuadratureConfig

    n = 10 ** 7
    draws = big_draws
    edges = np.round(np.arange(-5.0, 5.0 + 0.1, 0.1), 10)
    counts, _ = np.histogram(draws, bins=edges)
    cfg = QuadratureConfig(abs_tol=1e-9)
    centers = 0.5 * (edges[:-1] + edges[1:])
    dens = np.array([density(TWO_EXP, float(x), cfg) for x in centers])
    p_bin = dens * 0.1  # density nearly constant across a 0.1 bin
    emp = counts / n
    se = np.sqrt(np.maximum(p_bin * (1.0 - p_bin), 1e-12) / n)
    # bin-center approximation adds O(h^2) curvature error; allow it alongside 5 SE
    curvature = 0.1 ** 2 * np.abs(np.gradient(np.gradient(dens, centers), centers)) / 24.0 * 0.1
    within = np.abs(emp - p_bin) <= 5.0 * se + curvature + 1e-6
    assert np.mean(within) >= 0.95


def test_ten_million_draws_are_finite(big_draws):
    assert np.all(np.isfinite(big_draws))


def test_import_loads_no_executor():
    # sample imports concurrent.futures only when called, so importing the
    # package (and its CLI) does not pay for it
    src = str(Path(sampler.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, multistable, multistable.cli; sys.exit('concurrent.futures' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_draws_past_the_float_max_are_infinite_with_no_warning(monkeypatch):
    # one cell [0, 1] at alpha 0.01: about one draw in 1000 passes the float
    # max, where the kernel's power warned "overflow encountered in power"; two
    # workers, so that a pool thread fills the second chunk and must not warn
    monkeypatch.setattr(sampler, "CHUNK", 1 << 15)
    monkeypatch.setattr(sampler, "_cpus", lambda: 2)
    spec = refine(StepFunction((0.0, 1.0), (1.0,)), ExponentFunction.constant(0.01))
    draws = sample(spec, 1 << 16, seed=3)
    big = np.isinf(draws)
    assert 0 < np.count_nonzero(big) < 200 and not np.isnan(draws).any()
    assert np.any(draws[big] > 0.0) and np.any(draws[big] < 0.0)
    # mc_tail counts every infinite draw past any finite lambda
    assert mc_tail(draws, 1e300)[0] == np.count_nonzero(np.abs(draws) > 1e300) / draws.size
    assert mc_tail(draws, 1.7e308)[0] == np.count_nonzero(big) / draws.size
    z = sample_standard_stable(0.01, sampler._chunk_rng(3, 0), 1 << 16)
    assert 0 < np.count_nonzero(np.isinf(z)) < 200


def test_groups_overflowing_with_opposite_signs_give_nan_with_no_warning():
    # scales 1e300 (alpha 0.01) and 5.3e272 (alpha 0.011): most draws of each
    # group pass the float max, and +inf plus -inf is NaN, which mc_tail
    # counts in neither tail
    spec = refine(StepFunction((0.0, 1000.0, 2000.0), (1.0, 1.0)),
                  ExponentFunction((1000.0,), (0.01, 0.011)))
    draws = sample(spec, 4096, seed=3)
    nan = np.isnan(draws)
    assert np.any(nan) and np.any(np.isposinf(draws)) and np.any(np.isneginf(draws))
    assert mc_tail(draws, 1e300)[0] == np.count_nonzero(np.abs(draws[~nan]) > 1e300) / draws.size
