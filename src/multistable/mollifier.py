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
1-3% of a table's nodes lie below s = 25.

The same form bounds the decay.  With a = (15 - 420 r^2 + 945 r^4) r and
b = 1 - 105 r^2 + 945 r^4, the coefficients of sin(x) and cos(x) above,
a^2 + b^2 = 1 + 15 r^2 + 315 r^4 + 6300 r^6 + 99225 r^8 + 893025 r^10 has
positive coefficients, so |G(2x)| <= 10395 r^6 hypot(a, b) with hypot(a, b)
decreasing in x.  As |sin((1 + w/2) theta)| <= 1 and r = 2 / (w theta), for
theta >= theta_fit = 37.5 / w (x >= 18.75, past the crossover)

    |phi_q(theta)| <= 10395 (2/w)^6 hypot(a, b)|_(x=18.75) / pi * theta^-7,

with hypot(a, b) = 1.02243 at x = 18.75.  A dense node/weight/value table
over [0, theta_max] doubles as the fixed quadrature grid for every integral
against phi_q; this proven envelope bounds the mass beyond theta_max.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

__all__ = ["MollifierSpec", "build_mollifier", "smoothstep_c5"]

# degree-11 C^5 smoothstep, coefficient array in increasing powers
_S5 = np.zeros(12)
_S5[6:] = [462.0, -1980.0, 3465.0, -3080.0, 1386.0, -252.0]

# 64-point Gauss-Legendre on [0, 1] with S5'(u) = 2772 (u(1-u))^5 folded into
# the weights (u(1-u) = (1 - x^2)/4 at the node x); folded in this factored
# form the weights sum to 1 + 2e-15, from the monomials to 1 + 2e-14.  The
# node pairs u = 1/2 +- v/2 share cos(x v), so each pair keeps one weight
_GLX, _GLW = np.polynomial.legendre.leggauss(64)
_GLW = 0.5 * _GLW * 2772.0 * (0.25 * (1.0 - _GLX * _GLX)) ** 5
_GLV, _GLW = _GLX[32:], _GLW[32:] + _GLW[31::-1]
_S_CROSSOVER = 25.0
# the proven envelope holds from x = w theta / 2 = 18.75 on
_X_ENVELOPE = 18.75
# Gauss-Legendre order per table panel; bound on the envelope's theta^gamma
# tails for gamma in [0, 1.9]
_TABLE_RESOLUTION, _TAIL_TOL = 16, 1e-8
# largest q: at q = 1e100 the tail bound's theta_max^(gamma - 6) overflows
_MAX_Q = 1e6
# points per vectorized pass: a block's temporaries stay in cache and their
# memory is reused, where whole-table temporaries are fresh pages each time
_BLOCK = 16384
# largest phi_q table: the node count grows like w^-1.5 (q = 1.04 needs 4.0M
# nodes, q = 1.01 would need 30M, about 720 MB over three arrays)
_MAX_TABLE_NODES = 1 << 22
# h values per table, keyed by gamma: the lemma 5 and tau sweeps repeat
# exponents, and one h is a power over the whole table.  Keyed by the
# (identity-hashed) table, so a dataclasses.replace copy starts empty; weak
# keys never keep a table alive
_H_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


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


def _phi(w: float, theta):
    """phi_q at theta for the transition half-width w; accepts arrays."""
    t = np.abs(np.asarray(theta, dtype=float))
    flat = t.ravel()
    order = None
    if not (flat[1:] >= flat[:-1]).all():
        order = np.argsort(flat)
        flat = flat[order]
    out = np.empty_like(flat)
    for i in range(0, flat.size, _BLOCK):
        out[i:i + _BLOCK] = _phi_sorted(w, flat[i:i + _BLOCK])
    if order is not None:
        out[order] = out.copy()
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


def _phi_sorted(w: float, t: np.ndarray) -> np.ndarray:
    # t ascending and nonnegative: each regime, and theta = 0, is one slice
    x = (0.5 * w) * t
    split = int(np.searchsorted(x, 0.5 * _S_CROSSOVER))
    zeros = int(np.searchsorted(t, 0.0, side="right"))
    sin_x, cos_x = np.sin(x), np.cos(x)
    # sin((1 + w/2) t) = sin(t + x) from the unrounded arguments: rounding
    # the product would move the phase by an ulp of t, which costs a
    # relative error of about eps * t next to each zero
    out = np.sin(t) * cos_x + np.cos(t) * sin_x
    out[zeros:] /= t[zeros:]
    out[:zeros] = 1.0 + 0.5 * w
    out[:split] *= _g_near(x[:split])
    out[split:] *= _g_far(x[split:], sin_x[split:], cos_x[split:])
    out /= math.pi
    return out


@dataclass(frozen=True, eq=False)
class MollifierSpec:
    """Mollifier for a fixed q > 1, with its quadrature table and decay envelope."""

    q: float
    w: float                       # transition half-width (q - 1) / 2
    theta_max: float
    nodes: np.ndarray              # quadrature nodes on (0, theta_max)
    weights: np.ndarray
    phi_values: np.ndarray         # phi_q at the nodes
    decay_coeff: float             # |phi_q(theta)| <= decay_coeff * theta^(-decay_power)
    decay_power: float             # 7, from the closed form of phi_q
    theta_fit: float               # envelope valid for theta >= theta_fit
    stub: float                    # untabulated initial interval [0, stub]

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
        return _phi(self.w, theta)

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
        memo = _H_MEMO.setdefault(self, {})
        cached = memo.get(gamma)
        if cached is None:
            powers = self.nodes ** gamma
            body = 2.0 * self.integrate(powers)
            err = 2.0 * (self.tail_power_bound(gamma) + self.stub_bound(gamma))
            err += 4e-16 * 2.0 * self.integrate_abs(powers)
            cached = memo[gamma] = (body, err)
        return cached


def _build_panels(theta_max: float, unit: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Graded-then-uniform Gauss-Legendre panels on (stub, theta_max].

    Uniform panels of width ``unit`` follow dyadic ones that halve toward 0.
    Raises ValueError, before allocating the table, when it would exceed
    _MAX_TABLE_NODES nodes.
    """
    # dyadic grading toward 0 keeps theta^gamma factors exact for gamma < 2
    edges = [unit / 2 ** k for k in range(42, 0, -1)]
    stub = edges[0]
    n_uniform = int(math.ceil((theta_max - edges[-1]) / unit))
    n_nodes = _TABLE_RESOLUTION * (len(edges) - 1 + n_uniform)
    if n_nodes > _MAX_TABLE_NODES:
        raise ValueError(f"the phi_q table up to theta = {theta_max:.3g} needs {n_nodes} "
                         f"nodes, more than the budget of {_MAX_TABLE_NODES}; "
                         "choose a larger q")
    gx, gw = np.polynomial.legendre.leggauss(_TABLE_RESOLUTION)
    edges = np.concatenate([edges, edges[-1] + unit * np.arange(1, n_uniform + 1)])
    los, his = edges[:-1], edges[1:]
    mid = 0.5 * (los + his)
    half = 0.5 * (his - los)
    nodes = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    weights = (half[:, None] * gw[None, :]).ravel()
    return nodes, weights, stub, float(edges[-1])


def build_mollifier(q: float) -> MollifierSpec:
    """Construct the mollifier for 1 < q <= 1e6 and verify its invariants.

    Raises ValueError for any other q, and for a q so close to 1 that the
    table would exceed its node budget.
    """
    if not 1.0 < q <= _MAX_Q:
        raise ValueError(f"q must lie in (1, {_MAX_Q:g}], got {q}")
    w = (q - 1.0) / 2.0

    # the proven envelope |phi| <= coeff theta^-p beyond theta_fit (module docstring)
    hypot_ab = math.sqrt(npoly.polyval(_X_ENVELOPE ** -2, [1, 15, 315, 6300, 99225, 893025]))
    coeff = 10395.0 * (2.0 / w) ** 6 * hypot_ab / math.pi
    p = 7.0
    theta_fit = 2.0 * _X_ENVELOPE / w

    # extend the table until every weighted tail for gamma in [0, 1.9] is small:
    # the log of the bound is convex in gamma, so its worst is gamma = 1.9 while
    # theta_max >= 1 and gamma = 0 below (large q)
    theta_max = max((coeff / (k * _TAIL_TOL)) ** (1.0 / k) for k in (p - 2.9, p - 1.0))
    theta_max = max(theta_max, 2.0 * theta_fit)

    # panels of pi/2, or of pi/(2w) once G(w theta) varies faster than the sine
    nodes, weights, stub, last_edge = _build_panels(theta_max, 0.5 * math.pi / max(1.0, w))
    moll = MollifierSpec(
        q=q, w=w, theta_max=last_edge,
        nodes=nodes, weights=weights, phi_values=_phi(w, nodes),
        decay_coeff=coeff, decay_power=p, theta_fit=theta_fit, stub=stub,
    )

    _verify_build(moll)
    return moll


def _verify_build(moll: MollifierSpec):
    """Build-time invariant checks on the bump and the table; raise ValueError."""
    b_edge = (1.0 + moll.q) / 2.0
    if not math.isclose(float(moll.bump(1.0)), 1.0, abs_tol=1e-14):
        raise ValueError("bump must equal 1 at |x| = 1")
    if abs(float(moll.bump(b_edge))) > 1e-14:
        raise ValueError("bump must vanish at |x| = (1+q)/2")
    xs = np.linspace(0.0, b_edge * 1.1, 2001)
    bs = moll.bump(xs)
    if bs.min() < -1e-12 or bs.max() > 1.0 + 1e-12:
        raise ValueError("bump values must stay in [0, 1]")
    # C^5 junctions: first five derivatives of the transition vanish at its ends
    poly = _S5
    for k in range(1, 6):
        poly = npoly.polyder(poly)
        if abs(npoly.polyval(0.0, poly)) > 1e-9 or abs(npoly.polyval(1.0, poly)) > 1e-9:
            raise ValueError(f"smoothstep derivative {k} does not vanish at a junction")
    # normalization: integral phi = bump(0) = 1
    total = 2.0 * moll.integrate(np.ones_like(moll.nodes))
    budget = 2.0 * (moll.tail_power_bound(0.0) + moll.stub_bound(0.0)) + 1e-10
    if abs(total - 1.0) > budget + 1e-9:
        raise ValueError(f"integral of phi_q is {total}, expected 1")
