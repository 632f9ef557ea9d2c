"""Exact Monte Carlo sampling of the multistable integral.

For piecewise-constant data the characteristic function factorizes over
the distinct exponent values, so I(f) equals in law an independent sum

    I(f)  =d=  sum_i sigma_i Z_i,
    sigma_i = (sum_{cells with alpha_i} |c|^alpha_i |cell|)^(1/alpha_i),

with Z_i standard symmetric alpha_i-stable.  The standard variates come
from the Chambers-Mallows-Stuck transform; alpha = 1 gets its own branch
(the Cauchy case tan(U)), where the general transform is singular.

Generation is chunked over a counter-based bit generator (Philox), one
substream per chunk, so output is deterministic for a given seed no
matter how chunks are scheduled.
"""

from __future__ import annotations

import math

import numpy as np

from .function_space import MultistableSpec

__all__ = ["mixture_decompose", "sample_standard_stable", "sample", "mc_tail"]

CHUNK = 1 << 20


def mixture_decompose(spec: MultistableSpec) -> list[tuple[float, float]]:
    """Stable-mixture decomposition [(alpha_i, sigma_i)], sorted by alpha."""
    return [(a, w ** (1.0 / a)) for a, w in spec.groups]


def _cms(alpha: float, u: np.ndarray, w: np.ndarray | None) -> np.ndarray:
    """Chambers-Mallows-Stuck: a standard symmetric alpha-stable variate from
    u ~ Uniform(-pi/2, pi/2) and w ~ Exp(1); alpha = 1 is tan(u) and ignores w."""
    if alpha == 1.0:
        return np.tan(u)
    return (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha))


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
    """n independent draws of I(f); chunk k of CHUNK draws is Philox substream k."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    mixture = mixture_decompose(spec)
    out = np.zeros(n)
    start = 0
    chunk_index = 0
    while start < n:
        m = min(CHUNK, n - start)
        rng = _chunk_rng(seed, chunk_index)
        acc = np.zeros(m)
        for alpha, sigma in mixture:
            # fixed draw counts per group keep substreams aligned across chunks
            u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, m)
            w = rng.standard_exponential(m)
            acc += sigma * _cms(alpha, u, w)
        out[start:start + m] = acc
        start += m
        chunk_index += 1
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
