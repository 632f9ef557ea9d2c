"""The C^5 mollifier pair (phi_q, bump) used by the proof machinery.

The bump is the even C^5 function equal to 1 on [-1, 1] and 0 outside
[-(1+q)/2, (1+q)/2], with the transition realized by the degree-11
smoothstep

    S5(t) = 462 t^6 - 1980 t^7 + 3465 t^8 - 3080 t^9 + 1386 t^10 - 252 t^11,

the lowest-degree polynomial whose first five derivatives vanish at both
ends of the transition.  The mollifier itself is the inverse transform

    phi_q(theta) = (1/pi) integral_0^(1+w) cos(theta x) bump(x) dx,   w = (q-1)/2.

Writing the transition integral in terms of s = theta * w gives the
numerically exact two-regime form

    pi * phi_q(theta) = w cos(theta) A(s)/s + B(s) sin(theta)/theta,
    A(s) = integral_0^1 S5'(u) sin(s u) du,
    B(s) = integral_0^1 S5'(u) cos(s u) du,

in which the sin(theta)/theta parts of the flat and transition regions
have cancelled analytically.  A and B are evaluated by Gauss-Legendre
quadrature for small s and by the exact integration-by-parts boundary
expansion for large s (S5' vanishes to fourth order at both endpoints,
so the expansion starts at the fifth derivative and is stable).  Most of
a table lies in the large-s regime; there the expansion runs in powers
of r = 1/s, and its five lowest orders, which carry no boundary terms,
collapse into a single factor r^5.

A dense node/weight/value table over [0, theta_max] doubles as the fixed
quadrature grid for every integral against phi_q; mass beyond theta_max
is bounded through a fitted power-law decay envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = ["MollifierSpec", "build_mollifier", "smoothstep_c5"]

# degree-11 C^5 smoothstep, coefficient array in increasing powers
_S5 = np.zeros(12)
_S5[6:] = [462.0, -1980.0, 3465.0, -3080.0, 1386.0, -252.0]
_S5P = npoly.polyder(_S5)  # = 2772 u^5 (1-u)^5

# endpoint values of the derivative chain of S5' (k = 0..10); the chain
# vanishes through order 4, which is what makes the boundary expansion stable
_CHAIN0 = []
_CHAIN1 = []
_poly = _S5P.copy()
for _ in range(11):
    _CHAIN0.append(float(npoly.polyval(0.0, _poly)))
    _CHAIN1.append(float(npoly.polyval(1.0, _poly)))
    _poly = npoly.polyder(_poly) if len(_poly) > 1 else np.zeros(1)
_CHAIN0 = np.array(_CHAIN0)
_CHAIN1 = np.array(_CHAIN1)

# 64-point Gauss-Legendre on [0, 1] resolves sin(s u) to machine precision
# for s up to the crossover
_GLX, _GLW = np.polynomial.legendre.leggauss(64)
_GLX = 0.5 * (_GLX + 1.0)
_GLW = 0.5 * _GLW
_S5P_AT_GL = npoly.polyval(_GLX, _S5P)
_S_CROSSOVER = 25.0


def smoothstep_c5(t):
    """S5 on [0, 1], clamped outside."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return npoly.polyval(t, _S5)


def _ab_small(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    args = np.multiply.outer(s, _GLX)
    w = _GLW * _S5P_AT_GL
    return np.sin(args) @ w, np.cos(args) @ w


def _ab_large(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # integration by parts from the top of the chain down to order 5; the five
    # remaining steps have zero boundary terms and only rotate the pair,
    # (i_sin, i_cos) -> (i_cos, -i_sin) / s each, i.e. (i_cos, -i_sin) / s^5
    r = 1.0 / s
    sins, coss = np.sin(s), np.cos(s)
    i_sin = np.zeros_like(s)
    i_cos = np.zeros_like(s)
    for k in range(10, 4, -1):
        i_sin, i_cos = (
            (_CHAIN0[k] - _CHAIN1[k] * coss + i_cos) * r,
            (_CHAIN1[k] * sins - i_sin) * r,
        )
    # in place: a table is mostly large s, so every extra array here is large
    r **= 5
    i_cos *= r
    i_sin *= r
    return i_cos, np.negative(i_sin, out=i_sin)


@dataclass(frozen=True, eq=False)
class MollifierSpec:
    """Mollifier for a fixed q > 1, with its quadrature table and decay model."""

    q: float
    w: float                       # transition half-width (q - 1) / 2
    theta_max: float
    nodes: np.ndarray              # quadrature nodes on (0, theta_max)
    weights: np.ndarray
    phi_values: np.ndarray         # phi_q at the nodes
    decay_coeff: float             # |phi_q(theta)| <= decay_coeff * theta^(-decay_power)
    decay_power: float             # fitted, clamped to [5, 7.5]
    theta_fit: float               # envelope valid for theta >= theta_fit
    table_resolution: int
    stub: float                    # untabulated initial interval [0, stub]
    _h_cache: dict = field(default_factory=dict, repr=False)

    # -- pointwise evaluation ------------------------------------------------

    def bump(self, x):
        """The Fourier transform: 1 on [-1,1], 0 outside [-(1+q)/2, (1+q)/2]."""
        ax = np.abs(np.asarray(x, dtype=float))
        t = np.clip((ax - 1.0) / self.w, 0.0, 1.0)
        return 1.0 - npoly.polyval(t, _S5)

    def phi(self, theta):
        """phi_q(theta), exact two-regime evaluation; accepts arrays."""
        t = np.abs(np.asarray(theta, dtype=float))
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        s = t * self.w
        A = np.empty_like(s)
        B = np.empty_like(s)
        small = s < _S_CROSSOVER
        if small.any():
            A[small], B[small] = _ab_small(s[small])
        if (~small).any():
            A[~small], B[~small] = _ab_large(s[~small])
        a_over_s = np.where(s > 0.0, A / np.where(s > 0.0, s, 1.0), 0.5)
        sinc = np.where(t > 0.0, np.sin(t) / np.where(t > 0.0, t, 1.0), 1.0)
        out = (self.w * np.cos(t) * a_over_s + B * sinc) / math.pi
        return float(out[0]) if scalar else out

    # -- integrals against the table ------------------------------------------

    def integrate(self, factor_values: np.ndarray) -> float:
        """sum of weights * phi * factor over the table (one-sided, theta > 0)."""
        return float(self.weights @ (self.phi_values * factor_values))

    def integrate_abs(self, factor_values: np.ndarray) -> float:
        return float(self.weights @ (np.abs(self.phi_values) * factor_values))

    def tail_power_bound(self, gamma: float) -> float:
        """Bound on integral_theta_max^inf theta^gamma |phi_q| dtheta."""
        p = self.decay_power
        if gamma >= p - 1.0:
            raise ValueError(f"decay model cannot bound a theta^{gamma} tail")
        return self.decay_coeff * self.theta_max ** (gamma - p + 1.0) / (p - 1.0 - gamma)

    def stub_bound(self, gamma: float) -> float:
        """Bound on the untabulated mass integral_0^stub theta^gamma |phi_q|."""
        peak = (1.0 + self.w / 2.0) / math.pi  # |phi_q| <= phi_q(0)
        return peak * self.stub ** (gamma + 1.0) / (gamma + 1.0)

    # -- h_q -------------------------------------------------------------------

    def h(self, gamma: float) -> tuple[float, float]:
        """h_q(gamma) = integral |theta|^gamma phi_q(theta) dtheta, with error bound."""
        if not (0.0 < gamma < 2.0):
            raise ValueError(f"gamma must lie in (0, 2), got {gamma}")
        cached = self._h_cache.get(gamma)
        if cached is not None:
            return cached
        powers = self.nodes ** gamma
        body = 2.0 * self.integrate(powers)
        err = 2.0 * (self.tail_power_bound(gamma) + self.stub_bound(gamma))
        err += 4e-16 * 2.0 * self.integrate_abs(powers)
        self._h_cache[gamma] = (body, err)
        return body, err


def _build_panels(theta_max: float, res: int) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Graded-then-uniform Gauss-Legendre panels on (stub, theta_max]."""
    gx, gw = np.polynomial.legendre.leggauss(res)
    # dyadic grading toward 0 keeps theta^gamma factors exact for gamma < 2
    edges = [0.5 * math.pi / 2 ** k for k in range(42, 0, -1)]
    stub = edges[0]
    step = 0.5 * math.pi
    n_uniform = int(math.ceil((theta_max - edges[-1]) / step))
    edges = np.concatenate([edges, edges[-1] + step * np.arange(1, n_uniform + 1)])
    los, his = edges[:-1], edges[1:]
    mid = 0.5 * (los + his)
    half = 0.5 * (his - los)
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()
    return nodes, weights, stub, float(edges[-1])


def build_mollifier(q: float, table_resolution: int = 16,
                    tail_tol: float = 1e-8) -> MollifierSpec:
    """Construct the mollifier for q > 1 and verify its invariants.

    ``table_resolution`` is the Gauss-Legendre order per panel;
    ``tail_tol`` controls how far the table extends (the decay-envelope
    bound on a theta^1.9-weighted tail is pushed below it).
    """
    if q <= 1.0:
        raise ValueError(f"q must exceed 1, got {q}")
    if table_resolution < 4:
        raise ValueError("table_resolution must be at least 4")
    w = (q - 1.0) / 2.0

    probe = MollifierSpec(q=q, w=w, theta_max=math.inf, nodes=np.empty(0),
                          weights=np.empty(0), phi_values=np.empty(0),
                          decay_coeff=math.inf, decay_power=5.0,
                          theta_fit=math.inf, table_resolution=table_resolution,
                          stub=0.0)

    # fit the decay envelope |phi| <= A theta^(-p) beyond theta_fit
    theta_fit = 1.5 * _S_CROSSOVER / w
    ts = np.linspace(theta_fit, 8.0 * theta_fit, 4001)
    vals = np.abs(probe.phi(ts))
    # block maxima over ~2pi windows give the oscillation envelope
    block = max(8, int(2.0 * math.pi / (ts[1] - ts[0])))
    nblk = len(ts) // block
    bt = ts[: nblk * block].reshape(nblk, block)
    bv = vals[: nblk * block].reshape(nblk, block)
    peak_t = bt[np.arange(nblk), np.argmax(bv, axis=1)]
    peak_v = bv.max(axis=1)
    keep = peak_v > 0
    slope, intercept = np.polyfit(np.log(peak_t[keep]), np.log(peak_v[keep]), 1)
    p = float(np.clip(-slope, 5.0, 7.5))
    coeff = 1.5 * float(np.max(peak_v * peak_t ** p))

    # extend the table until the worst weighted tail (gamma = 1.9) is small
    theta_max = (coeff / ((p - 2.9) * tail_tol)) ** (1.0 / (p - 2.9))
    theta_max = max(theta_max, 2.0 * theta_fit)

    nodes, weights, stub, last_edge = _build_panels(theta_max, table_resolution)
    phi_values = probe.phi(nodes)

    moll = MollifierSpec(
        q=q, w=w, theta_max=last_edge,
        nodes=nodes, weights=weights, phi_values=phi_values,
        decay_coeff=coeff, decay_power=p, theta_fit=theta_fit,
        table_resolution=table_resolution, stub=stub,
    )

    _verify_build(moll)
    return moll


def _verify_build(moll: MollifierSpec):
    """Build-time invariant checks on the bump and the table."""
    b_edge = (1.0 + moll.q) / 2.0
    if not math.isclose(float(moll.bump(1.0)), 1.0, abs_tol=1e-14):
        raise AssertionError("bump must equal 1 at |x| = 1")
    if abs(float(moll.bump(b_edge))) > 1e-14:
        raise AssertionError("bump must vanish at |x| = (1+q)/2")
    xs = np.linspace(0.0, b_edge * 1.1, 2001)
    bs = moll.bump(xs)
    if bs.min() < -1e-12 or bs.max() > 1.0 + 1e-12:
        raise AssertionError("bump values must stay in [0, 1]")
    # C^5 junctions: first five derivatives of the transition vanish at its ends
    poly = _S5
    for k in range(1, 6):
        poly = npoly.polyder(poly)
        if abs(npoly.polyval(0.0, poly)) > 1e-9 or abs(npoly.polyval(1.0, poly)) > 1e-9:
            raise AssertionError(f"smoothstep derivative {k} does not vanish at a junction")
    # normalization: integral phi = bump(0) = 1
    total = 2.0 * moll.integrate(np.ones_like(moll.nodes))
    budget = 2.0 * (moll.tail_power_bound(0.0) + moll.stub_bound(0.0)) + 1e-10
    if abs(total - 1.0) > budget + 1e-9:
        raise AssertionError(f"integral of phi_q is {total}, expected 1")
    # decay envelope holds where the model claims it does
    ts = np.geomspace(moll.theta_fit, moll.theta_max, 2000)
    if np.any(np.abs(moll.phi(ts)) > moll.decay_coeff * ts ** -moll.decay_power):
        raise AssertionError("fitted decay envelope is violated inside the table")
