"""Exact Monte Carlo sampling of the multistable integral.

For piecewise-constant data the characteristic function factorizes over
the distinct exponent values, so I(f) equals in law an independent sum

    I(f)  =d=  sum_i sigma_i Z_i,
    sigma_i = (sum_{cells with alpha_i} |c|^alpha_i |cell|)^(1/alpha_i),

with Z_i standard symmetric alpha_i-stable.  The standard variates come
from the Chambers-Mallows-Stuck transform; alpha = 1 gets its own branch
(the Cauchy case tan(U)), where the general transform is singular.

The transform needs sin(alpha u), cos((1 - alpha) u) and cos u.  Each
comes from np.tan of a half angle: numpy vectorizes its float64 tan,
while its sin and cos can fall back to scalar libm calls at 3-5 times
the cost per element (measured on x86-64 with AVX-512, numpy 2.4):

    sin(alpha u)       = 2a / (1 + a^2),            a = tan(alpha u / 2),
    cos((1 - alpha) u) = (1 - b)(1 + b) / (1 + b^2), b = tan((1 - alpha) u / 2),
    1 / cos u          = (c + 1/c) / 2,              c = tan(v / 2),

with v = pi/2 - |u| formed in double-double (fl(pi/2) - |u| is exact for
|u| >= pi/4, and pi/2 - fl(pi/2) is added back), so cos u keeps its
relative accuracy near |u| = pi/2, where the heavy tail comes from; and
|b| < 1, so (1 - b)(1 + b) does not cancel for alpha in (0, 2).

Generation is chunked over a counter-based bit generator (Philox), one
substream per chunk of CHUNK draws, so output is deterministic for a
given seed no matter how chunks are scheduled.  Each chunk is filled in
blocks of _BLOCK draws whose temporaries stay in cache; each block adds
its groups in place into its slice of the output.  Within a chunk's
substream the draws come block by block, and within a block group by
group: first the group's uniforms u, then (alpha != 1) its exponentials
w.  So the whole chunks, and the whole blocks of a chunk, of a shorter
run are a prefix of a longer one.  Draws are reproducible per seed
within a version; the exact bits may change between versions.
"""

from __future__ import annotations

import math

import numpy as np

from .function_space import MultistableSpec

__all__ = ["mixture_decompose", "sample_standard_stable", "sample", "mc_tail"]

CHUNK = 1 << 20
# 64 KiB per temporary.  From 2^14 up the temporaries reach glibc's 128 KiB
# mmap threshold, and one 1e7-draw call in a fresh process (CLI `sample`)
# took 60k-130k page faults and ran 10-40% slower; at 2^13 it took 580.
_BLOCK = 1 << 13
# pi/2 - fl(pi/2), the low half of pi/2 in double-double
_HALF_PI_LO = 6.123233995736766e-17


def mixture_decompose(spec: MultistableSpec) -> list[tuple[float, float]]:
    """Stable-mixture decomposition [(alpha_i, sigma_i)], sorted by alpha."""
    return [(a, w ** (1.0 / a)) for a, w in spec.groups]


def _cms(alpha: float, u: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Chambers-Mallows-Stuck: a standard symmetric alpha-stable variate from
    u ~ Uniform(-pi/2, pi/2) and w ~ Exp(1); alpha = 1 is tan(u) and ignores w.

    Sines and cosines come from half-angle tangents (module docstring)."""
    if alpha == 1.0:
        return np.tan(u)
    # cos(u)^(-1/alpha), with 1/cos u = (c + 1/c)/2 and c = tan(v/2)
    c = np.abs(u)
    np.subtract(math.pi / 2.0, c, out=c)
    c += _HALF_PI_LO
    c *= 0.5
    np.tan(c, out=c)
    z = np.divide(1.0, c)
    z += c
    z *= 0.5
    np.power(z, 1.0 / alpha, out=z)
    # times sin(alpha u) = 2a/(1 + a^2)
    a = np.multiply(u, 0.5 * alpha, out=c)
    np.tan(a, out=a)
    z *= a
    np.multiply(a, a, out=a)
    a += 1.0
    z /= a
    z *= 2.0
    # times (cos((1 - alpha) u) / w)^((1 - alpha)/alpha), cos from b = tan((1 - alpha) u/2)
    b = np.multiply(u, 0.5 * (1.0 - alpha), out=a)
    np.tan(b, out=b)
    d = np.multiply(b, b)
    d += 1.0
    d *= w
    x = np.subtract(1.0, b)
    b += 1.0
    x *= b
    x /= d
    np.power(x, (1.0 - alpha) / alpha, out=x)
    z *= x
    return z


def sample_standard_stable(alpha: float, rng: np.random.Generator,
                           size: int | None = None):
    """Draws of a standard symmetric alpha-stable variate, cf exp(-|theta|^alpha)."""
    if not (0.0 < alpha < 2.0):
        raise ValueError(f"alpha must lie in (0, 2), got {alpha}")
    n = 1 if size is None else size
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    w = None if alpha == 1.0 else rng.standard_exponential(n)
    z = _cms(alpha, u, w)
    return float(z[0]) if size is None else z


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=chunk_index << 128))


def sample(spec: MultistableSpec, n: int, seed: int = 0) -> np.ndarray:
    """n independent draws of I(f); chunk k of CHUNK draws is Philox substream k,
    drawn block by block (module docstring)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    mixture = mixture_decompose(spec)
    out = np.zeros(n)
    for start in range(0, n, CHUNK):
        rng = _chunk_rng(seed, start // CHUNK)
        end = min(start + CHUNK, n)
        for lo in range(start, end, _BLOCK):
            acc = out[lo:min(lo + _BLOCK, end)]
            for alpha, sigma in mixture:
                u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, acc.size)
                w = None if alpha == 1.0 else rng.standard_exponential(acc.size)
                z = _cms(alpha, u, w)
                z *= sigma
                acc += z
    return out


def mc_tail(draws: np.ndarray, lam: float) -> tuple[float, float]:
    """(fraction of |draws| exceeding lam, binomial standard error)."""
    draws = np.asarray(draws)
    if draws.size == 0:
        raise ValueError("draws must be nonempty")
    if lam < 0.0:
        raise ValueError(f"lambda must be nonnegative, got {lam}")
    n = draws.size
    # two comparisons instead of an |draws| temporary; NaN fails both
    p = float(np.count_nonzero(draws > lam) + np.count_nonzero(draws < -lam)) / n
    se = math.sqrt(p * (1.0 - p) / n)
    return p, se
