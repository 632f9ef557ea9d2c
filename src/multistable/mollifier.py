"""The C^5 mollifier pair (phi_q, bump) used by the proof machinery.

The bump is the even C^5 function equal to 1 on [-1, 1] and 0 outside
[-(1+q)/2, (1+q)/2], with the transition realized by the degree-11
smoothstep

    S5(t) = 462 t^6 - 1980 t^7 + 3465 t^8 - 3080 t^9 + 1386 t^10 - 252 t^11,

the lowest-degree polynomial whose first five derivatives vanish at both
ends of the transition.  The mollifier itself is the inverse transform

    phi_q(theta) = (1/pi) integral_0^(1+w) cos(theta x) bump(x) dx,   w = (q-1)/2.

It has a closed form.  One integration by parts moves the derivative onto
the bump, which is flat except on [1, 1+w], where bump' = -S5'((x-1)/w)/w:

    pi * phi_q(theta) = (1/theta) integral_0^1 S5'(u) sin(theta (1 + w u)) du.

Write 1 + w u = (1 + w/2) + w (u - 1/2) and expand the sine.  S5'(u) =
2772 u^5 (1-u)^5 is symmetric about u = 1/2, so the sin(w theta (u - 1/2))
half integrates to zero and what is left factors:

    pi * phi_q(theta) = G(w theta) sin((1 + w/2) theta) / theta,
    G(s) = integral_0^1 S5'(u) cos(s (u - 1/2)) du = 10395 j5(s/2) / (s/2)^5,

with j5 the spherical Bessel function (the Poisson integral
j_n(x) = x^n / (2^(n+1) n!) integral_-1^1 cos(x t) (1 - t^2)^n dt with n = 5;
10395 = 11!! makes G(0) = 1).  DLMF 10.49.3 gives it in elementary terms;
with x = s/2 and r = 1/x,

    G = 10395 r^6 [(15 - 420 r^2 + 945 r^4) r sin(x) - (1 - 105 r^2 + 945 r^4) cos(x)].

As x -> 0 that bracket cancels through eleven orders, so the explicit form
serves only from x = 12.5 (s = 25) on, where r^2 <= 0.0064 and its
coefficients lose less than two bits.  Below the crossover G is a plain
real integral of a polynomial against cos(s v) with |s v| <= 12.5, which a
64-point Gauss-Legendre rule resolves to rounding; the rule's nodes come in
pairs u = 1/2 +- v, so it needs only 32 cosines per point.  The crossover
stays at s = 25: the explicit form would hold a little lower, but only
1-3% of a table's nodes lie below s = 25, and the crossover also fixes
where the decay envelope is fitted (theta_fit = 1.5 * 25 / w).

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

# 64-point Gauss-Legendre on [0, 1] with S5' folded into the weights; the
# node pairs u = 1/2 +- v/2 share cos(x v), so each pair keeps one weight
_GLX, _GLW = np.polynomial.legendre.leggauss(64)
_GLW = 0.5 * _GLW * npoly.polyval(0.5 * (_GLX + 1.0), _S5P)
_GLV, _GLW = _GLX[32:], _GLW[32:] + _GLW[31::-1]
_S_CROSSOVER = 25.0
# points per vectorized pass: a block's temporaries stay in cache and their
# memory is reused, where whole-table temporaries are fresh pages each time
_BLOCK = 16384


def smoothstep_c5(t):
    """S5 on [0, 1], clamped outside."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return npoly.polyval(t, _S5)


def _g_near(x: np.ndarray) -> np.ndarray:
    """G(2x) for x < 12.5 by the folded Gauss-Legendre rule."""
    return np.cos(np.multiply.outer(x, _GLV)) @ _GLW


def _g_far(x: np.ndarray, sin_x: np.ndarray, cos_x: np.ndarray) -> np.ndarray:
    """G(2x) = 10395 j5(x) / x^5 for x >= 12.5, Horner in r^2 = 1/x^2."""
    r = 1.0 / x
    r2 = r * r
    return 10395.0 * r2 ** 3 * (((945.0 * r2 - 420.0) * r2 + 15.0) * r * sin_x
                                - ((945.0 * r2 - 105.0) * r2 + 1.0) * cos_x)


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
        # 1 - S5(t) = S5(1 - t): the upper half is evaluated without the
        # cancellation that leaves 1 - S5(1 - 8e-16) at -1e-13
        return np.where(t <= 0.5, 1.0 - npoly.polyval(t, _S5), npoly.polyval(1.0 - t, _S5))

    def phi(self, theta):
        """phi_q(theta) = G(w theta) sin((1 + w/2) theta) / (pi theta); accepts arrays."""
        t = np.abs(np.asarray(theta, dtype=float))
        flat = t.ravel()
        order = None
        if not (flat[1:] >= flat[:-1]).all():
            order = np.argsort(flat)
            flat = flat[order]
        out = np.empty_like(flat)
        for i in range(0, flat.size, _BLOCK):
            out[i:i + _BLOCK] = self._phi_sorted(flat[i:i + _BLOCK])
        if order is not None:
            out[order] = out.copy()
        return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)

    def _phi_sorted(self, t: np.ndarray) -> np.ndarray:
        # t ascending and nonnegative: each regime, and theta = 0, is one slice
        x = (0.5 * self.w) * t
        split = int(np.searchsorted(x, 0.5 * _S_CROSSOVER))
        zeros = int(np.searchsorted(t, 0.0, side="right"))
        sin_x, cos_x = np.sin(x), np.cos(x)
        # sin((1 + w/2) t) = sin(t + x) from the unrounded arguments: rounding
        # the product would move the phase by an ulp of t, which costs a
        # relative error of about eps * t next to each zero
        out = np.sin(t) * cos_x + np.cos(t) * sin_x
        out[zeros:] /= t[zeros:]
        out[:zeros] = 1.0 + 0.5 * self.w
        out[:split] *= _g_near(x[:split])
        out[split:] *= _g_far(x[split:], sin_x[split:], cos_x[split:])
        out /= math.pi
        return out

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
