"""Exact Monte Carlo sampling of the multistable integral.

For piecewise-constant data the characteristic function factorizes over
the distinct exponent values, so I(f) equals in law an independent sum

    I(f)  =d=  sum_i sigma_i Z_i,
    sigma_i = (sum_{cells with alpha_i} |c|^alpha_i |cell|)^(1/alpha_i),

with Z_i standard symmetric alpha_i-stable.  The standard variates come
from the Chambers-Mallows-Stuck transform; alpha = 1 gets its own branch
(the Cauchy case tan(U)), where the general transform is singular.

The transform is taken with one power,

    Z = sin(alpha u) / cos u * (cos((1 - alpha) u) / (w cos u))^((1 - alpha)/alpha),

since (1/cos u)^(1/alpha) = (1/cos u) (1/cos u)^((1 - alpha)/alpha), and
from two half-angle tangents: numpy vectorizes its float64 tan, while its
sin and cos can fall back to scalar libm calls at about twice the cost per
element (measured on x86-64 with AVX-512, numpy 2.4).  With

    a = tan(alpha u / 2),    c = tan(v / 2),    v = pi/2 - |u|,

sin(alpha u) = 2a / (1 + a^2), 1/cos u = (1/c + c)/2, tan|u| = (1/c - c)/2,
and, by cos((1 - alpha) u) = cos u cos(alpha u) + sin u sin(alpha u),

    cos((1 - alpha) u) / cos u = cos(alpha u) + sin(alpha u) tan u
                               = ((1 - a^2) + 2 |a| tan|u|) / (1 + a^2),

since a and tan u share the sign of u.  v is formed in double-double
(fl(pi/2) - |u| is exact for |u| >= pi/4, and pi/2 - fl(pi/2) is added
back), so 1/cos u and tan|u| keep their relative accuracy near |u| = pi/2,
where the heavy tail comes from.  The bracket's two terms may have opposite
signs (1 - a^2 < 0 once |alpha u| > pi/2), but cos((1 - alpha) u) >= cos u
for alpha in (0, 2), so the bracket is at least 1 + a^2 >= |1 - a^2| and
the sum of the terms' sizes is at most 3 times the bracket: cancellation
amplifies their rounding by at most 3.

The exponential is w = -log(1 - U) from a second uniform fill.  U lies on
the 2^-53 grid in [0, 1), so 1 - U is exact and in (0, 1], and w = 0 only
at U = 0: an atom of probability 2^-53 (numpy's ziggurat exponential has
one at 0 too), where w is +0 and the variate is +-inf for alpha < 1 and 0
for alpha > 1, the transform's limit (NaN for alpha < 1 if u = 0 as well,
at probability 2^-106).

Generation is chunked: chunk k of CHUNK draws comes from its own SFC64
stream, seeded by SeedSequence(seed, spawn_key=(k,)), numpy's way of
spawning independent child streams (seeding with seed + k instead would
make chunk k of seed s equal chunk k - 1 of seed s + 1).  So a chunk's
draws depend only on the seed and the chunk's index.  `sample` fills its
chunks concurrently, one worker per CPU the process may run on (at most
one per chunk): the calling thread and, beyond one worker, the threads of
a pool opened per call.  The output is bit-identical for any number of
workers.  An exception in any worker, or an interrupt, stops the others
before their next block and reaches the caller.  Each worker fills its
chunks in blocks of _BLOCK draws from one scratch array of four
block-sized rows (u, w, the variate z and a temporary), which every
uniform fill and every ufunc writes in place; each block adds its groups
into its slice of the output.  Within a chunk's stream the draws come
block by block, and within a block group by group: first the group's
uniforms u, then (alpha != 1) the uniforms behind its exponentials w.
So the whole chunks, and the whole blocks of a chunk, of a shorter run are a
prefix of a longer one.  Draws are reproducible per seed within a
version; the exact bits may change between versions (they did when the
chunk streams moved from Philox substreams to spawned SFC64 streams).

`mc_tail` counts |x| > lam in one pass over the flattened draws, one
cache-sized slice of _TAIL_BLOCK draws at a time: both comparisons,
x > lam and x < -lam, run on a slice while it is still in cache, so the
draws are read from memory once.  The count is exact, so the result is
the same as two comparisons over the whole array.
"""

from __future__ import annotations

import math
import operator
import os
import threading

import numpy as np

from .function_space import MultistableSpec

__all__ = ["mixture_decompose", "sample_standard_stable", "sample", "mc_tail"]

# A 2^20-draw call spans four chunk streams, which `sample` fills concurrently.
# On two x86-64 cores (numpy 2.4) a 2^20 call of two_exp took 67-71 ms at
# 2^18 and 2^19, 76 at 2^17 and 120 at 2^20 (one chunk, one core); 2^18
# would split a call over four cores.  Only two cores were measured: scaling
# beyond them, and behaviour under a cgroup CPU quota (which the affinity mask
# does not show) or with several concurrent callers, is unverified.
CHUNK = 1 << 18
# 256 KiB per scratch row, so 1 MiB per worker, allocated once per call and
# rewritten in place: unlike fresh temporaries (mmapped from 128 KiB up),
# large blocks take no page faults.  They matter because numpy releases the
# GIL only inside each ufunc or random fill: with 2^18 chunks on two cores
# a 2^20 call took 110 ms at 2^13, 81 at 2^14, 71 at 2^15 and 68 at 2^16
# (Philox fills, as the streams then were).
_BLOCK = 1 << 15
# Draws per slice in `mc_tail`: 512 KiB of float64 and a 64 KiB boolean
# temporary per comparison, below glibc's 128 KiB mmap threshold.  On two
# x86-64 cores with 2 MiB L2 (numpy 2.4), 13 lambdas on 2^20 two_exp draws
# took, per call, 1.50 ms at 2^13, 1.14 at 2^14, 0.96 at 2^15, 0.88 at
# 2^16, 0.89 at 2^17 and 1.07 at 2^18, against 1.14 for two whole-array
# comparisons (medians of 15 rounds); on 1e7 draws 2^16 and 2^17 took
# 11.6 and 11.2 ms against 16.8.
_TAIL_BLOCK = 1 << 16
# pi/2 - fl(pi/2), the low half of pi/2 in double-double
_HALF_PI_LO = 6.123233995736766e-17


def mixture_decompose(spec: MultistableSpec) -> list[tuple[float, float]]:
    """Stable-mixture decomposition [(alpha_i, sigma_i)], sorted by alpha."""
    try:
        return [(a, w ** (1.0 / a)) for a, w in spec.groups]
    except OverflowError:
        raise ValueError("a group's scale W^(1/alpha) lies past the float range: "
                         f"(alpha, W) = {spec.groups}") from None


def _draw(alpha: float, rng: np.random.Generator, u: np.ndarray, w: np.ndarray) -> None:
    """Fill u ~ Uniform(-pi/2, pi/2), then (alpha != 1) w = -log(1 - U) ~ Exp(1)
    from a second uniform fill, from rng (module docstring)."""
    rng.random(out=u)
    u *= math.pi
    u -= math.pi / 2.0
    if alpha != 1.0:
        rng.random(out=w)
        np.subtract(1.0, w, out=w)
        np.log(w, out=w)
        np.abs(w, out=w)  # -log(1 - U), but +0 at U = 0, where negation gives -0


def _cms(alpha: float, u: np.ndarray, w: np.ndarray, z: np.ndarray, t: np.ndarray) -> None:
    """Chambers-Mallows-Stuck: write into z standard symmetric alpha-stable
    variates from u ~ Uniform(-pi/2, pi/2) and w ~ Exp(1); alpha = 1 is
    tan(u) and ignores w.  u, w and t are overwritten as scratch.

    Two half-angle tangents per variate, a = tan(alpha u/2) and c = tan(v/2)
    with v = pi/2 - |u| in double-double; with Q = 1/c + c and D = 1/c - c,

        z = a Q / (1 + a^2) * [((1 - a^2) + |a| D) / ((1 + a^2) w)]^((1 - alpha)/alpha),

    whose bracket over 1 + a^2 is cos((1 - alpha) u) / cos u >= 1 (module
    docstring).  a Q is kept in u and |a| D in t, as a/c + a c and
    |a/c - a c|."""
    if alpha == 1.0:
        np.tan(u, out=z)
        return
    a = np.multiply(u, 0.5 * alpha, out=z)
    np.tan(a, out=a)
    c = np.abs(u, out=t)
    np.subtract(math.pi / 2.0, c, out=c)
    c += _HALF_PI_LO
    c *= 0.5
    np.tan(c, out=c)
    # u <- a/c + a c = a Q, t <- |a/c - a c| = |a| D, z <- 1 + a^2
    q = np.divide(a, c, out=u)
    c *= a
    np.multiply(a, a, out=a)
    a += 1.0
    q += c
    c *= 2.0
    d = np.subtract(q, c, out=t)
    np.abs(d, out=d)
    # t <- (|a| D + 2) - (1 + a^2), u <- a Q / (1 + a^2) = sin(alpha u) / cos u
    d += 2.0
    d -= a
    q /= a
    # times ((cos((1 - alpha) u) / cos u) / w)^((1 - alpha)/alpha)
    a *= w
    d /= a
    np.power(d, (1.0 - alpha) / alpha, out=d)
    np.multiply(q, d, out=z)


def sample_standard_stable(alpha: float, rng: np.random.Generator,
                           size: int | None = None):
    """Draws of a standard symmetric alpha-stable variate, cf exp(-|theta|^alpha)."""
    if not (0.0 < alpha < 2.0):
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    n = 1 if size is None else size
    z = np.empty(n)  # owns its n doubles; the scratch is freed on return
    u, w, t = np.empty((3, n))
    _draw(alpha, rng, u, w)
    _cms(alpha, u, w, z, t)
    return float(z[0]) if size is None else z


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """The stream of chunk chunk_index: SFC64 from the seed's spawned child."""
    seq = np.random.SeedSequence(seed, spawn_key=(chunk_index,))
    return np.random.Generator(np.random.SFC64(seq))


def _fill_chunks(out: np.ndarray, mixture: list[tuple[float, float]], seed: int,
                 first: int, step: int, stop: threading.Event) -> None:
    """Fill chunks first, first + step, ... of out, each from its own stream,
    block by block and group by group, through one scratch array.  Return
    before the next block once stop is set; set stop on any exception."""
    try:
        scratch = np.empty((4, min(_BLOCK, out.size)))
        for start in range(first * CHUNK, out.size, step * CHUNK):
            rng = _chunk_rng(seed, start // CHUNK)
            end = min(start + CHUNK, out.size)
            for lo in range(start, end, _BLOCK):
                if stop.is_set():
                    return
                acc = out[lo:min(lo + _BLOCK, end)]
                u, w, z, t = scratch[:, :acc.size]
                for alpha, sigma in mixture:
                    _draw(alpha, rng, u, w)
                    _cms(alpha, u, w, z, t)
                    z *= sigma
                    acc += z
    except BaseException:
        stop.set()
        raise


def _whole(name: str, value, least: int) -> int:
    """value as an int >= least; TypeError for a bool or a non-integer."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not a bool")
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def sample(spec: MultistableSpec, n: int, seed: int = 0) -> np.ndarray:
    """n independent draws of I(f); chunk k of CHUNK draws comes from the SFC64
    stream spawned as child k of seed, drawn block by block, and the chunks
    are filled concurrently (module docstring).  n is a whole number >= 1 and
    seed a whole number >= 0 (not a bool); both are checked before anything
    is allocated."""
    n, seed = _whole("n", n, 1), _whole("seed", seed, 0)
    mixture = mixture_decompose(spec)
    out = np.zeros(n)
    workers = min(_cpus(), -(-n // CHUNK))
    from concurrent.futures import ThreadPoolExecutor

    # the caller fills chunks 0, W, 2W, ... itself and pool thread k those
    # from k (a pool given no job starts no thread); an exception anywhere, a
    # KeyboardInterrupt included, sets stop, so every thread leaves before
    # its next block
    stop = threading.Event()
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        jobs = [pool.submit(_fill_chunks, out, mixture, seed, k, workers, stop)
                for k in range(1, workers)]
        try:
            _fill_chunks(out, mixture, seed, 0, workers, stop)
            for job in jobs:
                job.result()
        finally:
            stop.set()
    return out


def mc_tail(draws: np.ndarray, lam: float) -> tuple[float, float]:
    """(fraction of |draws| exceeding lam, binomial standard error).

    The draws are flattened (a view unless a multi-dimensional input is not
    C-contiguous) and counted in one pass, _TAIL_BLOCK at a time, as x > lam
    plus x < -lam: a NaN draw fails both and is never counted."""
    draws = np.asarray(draws)
    if draws.size == 0:
        raise ValueError("draws must be nonempty")
    if not lam >= 0.0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    flat = draws.reshape(-1)
    n = flat.size
    count = 0
    for lo in range(0, n, _TAIL_BLOCK):
        block = flat[lo:lo + _TAIL_BLOCK]
        count += np.count_nonzero(block > lam) + np.count_nonzero(block < -lam)
    p = float(count) / n
    se = math.sqrt(p * (1.0 - p) / n)
    return p, se
