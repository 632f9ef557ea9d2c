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
serves only from |x| = 6 on.  Below, G is its power series (the Poisson
integral term by term), summed by Horner in y = -x^2/4:

    G(2x) = 0F1(; 13/2; y) = sum_k a_k y^k,   a_k = 1 / (k! (13/2)_k).

Its terms fall by |y| / ((k+1)(k + 13/2)) from k to k + 1, so the 17 terms
k <= 16 leave at most a_17 9^17 / (1 - 9/423) = 2.6e-18 at |x| < 6; Horner
rounds by a multiple of S = sum_k a_k |y|^k <= e^{|x|^2/26}, below 4 there.

The same form bounds the decay.  With a = (15 - 420 r^2 + 945 r^4) r and
b = 1 - 105 r^2 + 945 r^4, the coefficients of sin(x) and cos(x) above,
a^2 + b^2 = 1 + 15 r^2 + 315 r^4 + 6300 r^6 + 99225 r^8 + 893025 r^10 has
positive coefficients, so |G(2x)| <= 10395 r^6 hypot(a, b) with hypot(a, b)
decreasing in x.  As |sin((1 + w/2) theta)| <= 1 and r = 2 / (w theta), for
theta >= theta_fit = 37.5 / w (x >= 18.75, past the crossover)

    |phi_q(theta)| <= 10395 (2/w)^6 hypot(a, b)|_(x=18.75) / pi * theta^-7,

with hypot(a, b) = 1.02243 at x = 18.75.

The product continues to complex arguments as an average of Fourier kernels,

    H(z) = G(w z) e^{i (1 + w/2) z} = integral_0^1 S5'(u) e^{i z (1 + w u)} du,

so |H(z)| <= e^{-Im z} in the upper half plane (Paley-Wiener: the bump's
transition band is [1, 1 + w]) and pi phi_q(theta) = Im H(theta) / theta on
the real axis.  Let F be real on the real axis, analytic and of at most
polynomial growth in a sector above it, and small enough at 0 that F / theta
is integrable there.  Turning the half-line onto a ray theta = t e^{i psi} in
that sector gives

    integral_0^inf phi_q(theta) F(theta) dtheta = (1/pi) Im integral_ray H(theta) F(theta) / theta dtheta.

eta (F = 1 - e^{-m(theta/xi)}) and the Parseval theta side (F = 1 - cf(delta
theta)) are ray-rule integrands of :mod:`multistable.inversion` in this form.
:func:`_kernel` evaluates H on a ray, x = w z / 2: below |x| = 6 as e^{i z}
e^{i x} G(2x), from 6 on by the explicit form split into e^{i z} and
e^{i (1 + w) z} terms, which cannot overflow at any q.

h_q needs no phi_q.  The stable Levy measure (Samorodnitsky and Taqqu 1994)
writes |theta|^gamma, 0 < gamma < 2, as gamma C(gamma) integral_0^inf
(1 - cos(theta x)) x^(-1-gamma) dx with C(gamma) = (2/pi) Gamma(gamma)
sin(pi gamma / 2), and phi_q transforms back to the bump, so in y = log x

    h_q(gamma) = C(gamma) [(1 + w)^-gamma + gamma integral_0^log1p(w) e^{-gamma y} S5(expm1(y) / w) dy].

:meth:`MollifierSpec.hs` sums this smooth band integral, every gamma of a sweep
at once, on GK21 panels at most a quarter wide in y, where Kronrod-minus-Gauss
stays below 1e-15 of h_q (6e-11 on unit-wide panels) for q from 1.01 to 1e6.

rho integrates |phi_q|, which has a kink at every zero of phi_q, so it alone
keeps a dense table over [0, theta_max]: one GK21 panel between consecutive
zeros (j pi / (1 + w/2) of the sine; 2x / w of G, with x = n pi + atan(b / a)
for n >= 3 by fixed point, as a > 0 from x = 5.05 on and j5 has no zero below
9.36), after dyadic panels below the first; the proven envelope bounds the
mass beyond theta_max.  Built on first use and kept in a weak memo, it holds
log theta, phi_q and the bound of :func:`_phi` on phi_q's rounding at each node.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from numpy.polynomial import polynomial as npoly

from .function_space import tail_constant
from .quadrature import _EPS, _WK21, _X21, _add_up, _nodes

__all__ = ["MollifierSpec", "build_mollifier", "smoothstep_c5"]

# degree-11 C^5 smoothstep, coefficient array in increasing powers
_S5 = np.zeros(12)
_S5[6:] = [462.0, -1980.0, 3465.0, -3080.0, 1386.0, -252.0]

# G(2x)'s series below |x| = _X_SERIES (module docstring), a_k correctly rounded, highest first
_X_SERIES, _SERIES_TAIL = 6.0, 2.6e-18
_SERIES = [2 ** k / (math.factorial(k) * math.prod(range(13, 13 + 2 * k, 2)))
           for k in range(16, -1, -1)]
_S_CROSSOVER = 25.0        # the ray rule's panels count H's r^6 decay from s = w |z| = 25 on
# the proven envelope holds from x = w theta / 2 = 18.75 on, where hypot(a, b) = 1.02243
_X_ENVELOPE = 18.75
_HYPOT_AB = math.sqrt(npoly.polyval(_X_ENVELOPE ** -2, [1, 15, 315, 6300, 99225, 893025]))
_TAIL_TOL = 1e-8           # bound on the envelope's theta^gamma tails, gamma in [0, 1.9]
# roundings in units of eps: H's on the real axis, of its bound (in units of eps/2
# as for inversion._KERNEL_ROUNDINGS: |x| < 6 52.8 of S < 4 and 14.5; |x| >= 6 67.2,
# and 57 from x's and the node's 5 units through r^11; e^{i theta} 9.2: 117.5 eps),
# and the rule's of |phi_q| F (product, weight, dot product 10.5, half width 2 and
# numpy's pairwise sum over _MAX_TABLE_NODES / 21 panels 18)
_REAL_ROUNDINGS, _RULE_ROUNDINGS = 120.0, 32.0
# largest q: at q = 1e100 the tail bound's theta_max^(gamma - 6) overflows
_MAX_Q = 1e6
# points per vectorized pass: a block's temporaries stay in cache and their
# memory is reused, where whole-table temporaries are fresh pages each time
_BLOCK = 16384
# largest phi_q table: the node count grows like w^-1.5 (q = 1.03 needs 4.02M
# nodes, about 160 MB over five arrays; q = 1.01 would need 19.8M)
_MAX_TABLE_NODES = 1 << 22
# the rho table of each mollifier, keyed by the (identity-hashed) spec, so a
# dataclasses.replace copy starts empty; weak keys never keep a spec alive
_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _s5(t):
    """S5(t) by Horner: for t <= 1/2 the polynomial itself, above it 1 - S5(1 - t)
    with 1 - t exact, free of the monomial form's 4e-13 cancellation near 1."""
    s = np.minimum(t, 1.0 - t)
    p = 0.0
    for c in _S5[:5:-1].tolist():             # S5(s) = s^6 p(s), p's coefficients
        p = p * s + c
    p *= (s * s * s) ** 2
    return np.where(t <= 0.5, p, 1.0 - p)


def smoothstep_c5(t):
    """S5 on [0, 1], clamped outside."""
    return _s5(np.clip(np.asarray(t, dtype=float), 0.0, 1.0))


def _sin_cos(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sin x, cos x) from tau = tan(x/2), each within a few units of 2^-53
    absolute: np.tan costs a tenth of np.sin or np.cos.  In place on two
    buffers, as fresh temporaries of this size cost more than the sums."""
    sin = np.multiply(x, 0.5)
    np.tan(sin, out=sin)
    cos = np.multiply(sin, sin)
    cos += 1.0
    np.divide(2.0, cos, out=cos)              # 2 / (1 + tau^2)
    sin *= cos
    cos -= 1.0
    return sin, cos


def _far_amplitude(x):
    """Bound on (10395/2) |r|^6 (|a| + |b|) at any |x| > 0, r = 1/x: each
    coefficient at most its all-positive form in |r|, which falls with |x|."""
    u = 1.0 / x
    u2 = u * u
    return 5197.5 * u2 * u2 * u2 * (((((945.0 * u + 945.0) * u + 420.0) * u + 105.0) * u
                                     + 15.0) * u + 1.0)


def _kernel(w: float, rho: np.ndarray, cos_psi: float, sin_psi: float,
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """H(z) = G(w z) e^{i (1 + w/2) z} at z = rho e^{i psi}, rho >= 0, 0 <= psi <= pi/2.

    Returns (Re H, Im H, bound), |H| <= bound <= e^{-Im z}; beyond e^{i z} each part
    rounds by inversion._KERNEL_ROUNDINGS eps of bound on the ray rule's rays, plus
    the phase errors of Re z and w Re z.  Real sines and cosines, no complex ones.
    """
    bound = np.exp(-sin_psi * rho)                      # |e^{i z}|
    # e^{i z} e^{i x}: the phase (1 + w/2) Re z is never a rounded sum (an ulp of Re z)
    sin_z, cos_z = _sin_cos(cos_psi * rho)
    h = bound * (cos_z + 1j * sin_z)                    # e^{i z}
    x = 0.5 * w * rho                                   # |x|
    near = x < _X_SERIES

    # e^{i x} G(2x), G by Horner in y = -(x e^{i psi})^2 / 4
    x_n = x[near]
    g = np.full(x_n.shape, _SERIES[0], dtype=complex)
    y = np.square(x_n) * (-0.25 * complex(cos_psi, sin_psi) ** 2)
    for a in _SERIES[1:]:
        g *= y
        g += a
    sin_x, cos_x = _sin_cos(cos_psi * x_n)
    g *= np.exp(-sin_psi * x_n) * (cos_x + 1j * sin_x)
    h[near] *= g

    # the explicit form: e^{i z} (10395/2) r^6 ((i a - b) - e^{2 i x} (i a + b)), r = 1/x
    far = ~near
    x_f = x[far]
    r = (1.0 / x_f) * complex(cos_psi, -sin_psi)
    r2 = r * r
    ia = 1j * r * ((945.0 * r2 - 420.0) * r2 + 15.0)
    b = (945.0 * r2 - 105.0) * r2 + 1.0
    sin_2x, cos_2x = _sin_cos((2.0 * cos_psi) * x_f)
    e2x = np.exp((-2.0 * sin_psi) * x_f) * (cos_2x + 1j * sin_2x)
    h[far] *= 5197.5 * r2 * r2 * r2 * ((ia - b) - e2x * (ia + b))
    bound[far] *= np.minimum(1.0, 2.0 * _far_amplitude(x_f))
    return h.real, h.imag, bound


def _phi(w: float, theta):
    """phi_q = Im H(theta) / (pi theta) and a bound on its rounding in eps, H's and its
    phases' over pi theta (so growing toward 0): two floats, or two arrays of theta's shape."""
    t = np.abs(np.asarray(theta, dtype=float))
    flat = t.ravel()
    out = np.empty((2, flat.size))
    for i in range(0, flat.size, _BLOCK):
        _, out[0, i:i + _BLOCK], out[1, i:i + _BLOCK] = _kernel(w, flat[i:i + _BLOCK], 1.0, 0.0)
    out[1] *= _REAL_ROUNDINGS + 4.0 * (1.0 + w) * flat
    np.divide(out, flat, out=out, where=flat > 0.0)
    out[:, flat == 0.0] = [[1.0 + 0.5 * w], [0.0]]    # H(theta) / theta -> 1 + w/2
    out /= math.pi
    out[1] += 3.0 * np.abs(out[0])            # the division, pi and the node in 1/theta
    return (float(out[0, 0]), float(out[1, 0])) if t.ndim == 0 else out.reshape(2, *t.shape)


@dataclass(frozen=True)
class _Table:
    """GK21 panels on (stub, theta_max]: nodes, Kronrod weights and half widths."""

    theta_max: float
    stub: float                    # untabulated initial interval [0, stub]
    nodes: np.ndarray
    weights: np.ndarray
    half: np.ndarray
    log_nodes: np.ndarray
    phi_values: np.ndarray
    unit_err: np.ndarray           # eps units of |phi_q| F per unit F: phi_q's and the rule's


@dataclass(frozen=True, eq=False)
class MollifierSpec:
    """Mollifier for a fixed q in (1, 1e6], ``MollifierSpec(q)``, and its
    proven decay envelope.

    The other fields are derived from q, and q is checked (ValueError), so a
    ``dataclasses.replace`` copy is recomputed from its own q.  ``theta_max``,
    ``stub``, ``nodes``, ``weights`` (Kronrod) and ``phi_values`` describe rho's
    GK21 table (:meth:`abs_integral`), built on first reading.  A build evaluates
    no S5: S5(0) = 0 and S5(1) = 1 exactly, and its range is checked at import.
    """

    q: float
    w: float = field(init=False)   # transition half-width (q - 1) / 2
    # |phi_q(theta)| <= decay_coeff * theta^(-decay_power) for theta >= theta_fit
    decay_coeff: float = field(init=False)
    theta_fit: float = field(init=False)
    decay_power: ClassVar[float] = 7.0   # from the closed form of phi_q

    def __post_init__(self):
        q = self.q
        if not 1.0 < q <= _MAX_Q:
            raise ValueError(f"q must lie in (1, {_MAX_Q:g}], got {q}")
        w = (q - 1.0) / 2.0
        # the proven envelope |phi| <= coeff theta^-7 beyond theta_fit (module docstring)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "decay_coeff", 10395.0 * (2.0 / w) ** 6 * _HYPOT_AB / math.pi)
        object.__setattr__(self, "theta_fit", 2.0 * _X_ENVELOPE / w)

    # -- pointwise evaluation ------------------------------------------------

    def bump(self, x):
        """The Fourier transform: 1 on [-1,1], 0 outside [-(1+q)/2, (1+q)/2]."""
        ax = np.abs(np.asarray(x, dtype=float))
        t = np.clip((ax - 1.0) / self.w, 0.0, 1.0)
        return _s5(1.0 - t)                 # 1 - S5(t), by the symmetry of S5

    def phi(self, theta):
        """phi_q(theta) = G(w theta) sin((1 + w/2) theta) / (pi theta); accepts arrays."""
        return _phi(self.w, theta)[0]

    # -- the rho table ---------------------------------------------------------

    @property
    def _table(self) -> _Table:
        """The rho table, built on first use: panels up to where the envelope bounds
        every weighted tail.  ValueError, before allocating, for a table over the node
        budget, and after building it, for a table that does not integrate to 1."""
        if self in _TABLES:
            return _TABLES[self]
        # extend the table until every weighted tail for gamma in [0, 1.9] is small:
        # the log of the bound is convex in gamma, so its worst is gamma = 1.9 while
        # theta_max >= 1 and gamma = 0 below (large q)
        coeff, p, w = self.decay_coeff, self.decay_power, self.w
        theta_max = max((coeff / (k * _TAIL_TOL)) ** (1.0 / k) for k in (p - 2.9, p - 1.0))
        theta_max = max(theta_max, 2.0 * self.theta_fit)
        nodes, weights, stub, last_edge = _build_panels(theta_max, w)
        phi, err = _phi(w, nodes)
        # normalization: integral phi = bump(0) = 1, up to the mass outside the table
        total = 2.0 * float(np.sum(weights * phi))
        outside = coeff * last_edge ** (1.0 - p) / (p - 1.0) + (1.0 + 0.5 * w) / math.pi * stub
        if abs(total - 1.0) > 2.0 * outside + 1e-10 + 1e-9:
            raise ValueError(f"integral of phi_q is {total}, expected 1")
        err += _RULE_ROUNDINGS * np.abs(phi)
        # half widths from the centre nodes' weights, each within an ulp
        table = _TABLES[self] = _Table(
            theta_max=last_edge, stub=stub, nodes=nodes, weights=weights,
            half=weights[10::21] / _WK21[10], log_nodes=np.log(nodes), phi_values=phi,
            unit_err=err)
        return table

    theta_max = property(lambda self: self._table.theta_max)
    stub = property(lambda self: self._table.stub)
    nodes = property(lambda self: self._table.nodes, doc="quadrature nodes on (stub, theta_max]")
    weights = property(lambda self: self._table.weights)
    phi_values = property(lambda self: self._table.phi_values, doc="phi_q at the nodes")

    def abs_integral(self, factor) -> tuple[float, float, float]:
        """_add_up of |phi_q| F >= 0 on the table (theta > 0), phi_q's and the rule's roundoff
        added: factor(log theta) gives F and its eps roundoff, arrays it may overwrite."""
        table = self._table
        rows = np.empty((2, table.nodes.size))
        for i in range(0, table.nodes.size, _BLOCK):
            block = slice(i, i + _BLOCK)
            f, f_err = factor(table.log_nodes[block])
            absphi = np.abs(table.phi_values[block])
            np.multiply(absphi, f, out=rows[0, block])
            f_err *= absphi
            f *= table.unit_err[block]
            np.add(f_err, f, out=rows[1, block])
        return _add_up(rows, table.half)

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

    def band(self) -> tuple[float, np.ndarray, np.ndarray]:
        """(span, starts, widths): [0, span = log1p(w)], the bump's transition band in
        log x, as equal panels at most a quarter wide, for h_q and the Parseval x side."""
        span = math.log1p(self.w)
        n = math.ceil(4.0 * span)
        step = span / n
        return span, step * np.arange(n), np.full(n, step)

    def h(self, gamma: float) -> tuple[float, float]:
        """h_q(gamma) = integral |theta|^gamma phi_q(theta) dtheta, 0 < gamma < 2, from
        the bump side (module docstring), and a bound on its absolute error:
        the Kronrod-minus-Gauss differences plus counted roundoff."""
        return self.hs([gamma])[0]

    def hs(self, gammas) -> list[tuple[float, float]]:
        """h's (value, bound) at each gamma, every gamma checked before any work, from
        one band evaluation: the gamma-free terms once, each gamma's rows summed on
        their own, so each pair has the bits of a one-gamma call."""
        gs = [float(g) for g in gammas]
        for g in gs:
            if not (0.0 < g < 2.0):
                raise ValueError(f"gamma must lie in (0, 2), got {g}")
        w = self.w
        span, lo, width = self.band()
        y, half = _nodes(lo, width)
        # roundoff in units of eps: 24 of the value (exp 1; product, 1 - v, weight and
        # half width 2; Kronrod dot product 10.5; numpy's pairwise sum over at most 128
        # panels 9.5, q = 1e6 has 53) and gamma y / 2 of it, t's 3/2 through S5'(t) t,
        # Horner's 7 s^6 sum_k |p_k| s^k (s = min(t, 1 - t); p alternates in sign, so
        # that is S5(-s)), and a node shift of 2 (y + half width) through the slope
        t = np.expm1(y) / w
        s5, horner = _s5(np.stack((t, -np.minimum(t, 1.0 - t))))
        shift = 2.0 * y + width[0]
        fixed = (2772.0 * (t - t * t) ** 5 * (1.5 * t + shift * (t + 1.0 / w))  # S5'(t) terms
                 + 7.0 * horner)
        g = np.array(gs)[:, None]
        rows = np.empty((len(gs), 2, y.size))
        rows[:, 0], rows[:, 1] = s5, fixed + s5 * (24.0 + g * (0.5 * y + shift))
        rows *= np.exp(-g * y)[:, None]
        out = []
        for gamma, row in zip(gs, rows):
            body, kg, rounding = _add_up(row, half)
            c = tail_constant(gamma)
            edge = (1.0 + w) ** -gamma
            h = c * (edge + gamma * body)
            # the band's end moves by 2 eps span; C(gamma) and the assembly take 12 eps
            # of h (math.gamma measured within 7 units of 2^-53 on (0, 2))
            err = c * gamma * (kg + rounding + 2.0 * _EPS * span * edge) + 12.0 * _EPS * h
            out.append((h, err))
        return out


def _build_panels(theta_max: float, w: float) -> tuple[np.ndarray, np.ndarray, float, float]:
    """GK21 nodes and Kronrod weights on (stub, last edge], and those two edges: a
    panel between consecutive zeros of phi_q up to the first sine zero past
    theta_max, after dyadic ones below the first zero.  Raises ValueError, before
    allocating the table, when it would exceed _MAX_TABLE_NODES nodes."""
    rate = 1.0 + 0.5 * w
    n_sine = max(1, math.ceil(theta_max * rate / math.pi))
    last = n_sine * math.pi / rate
    # one candidate zero x of G(2x) in (n pi - pi/2, n pi + pi/2) for each n >= 3
    n_top = 0.5 * w * last / math.pi + 1.0
    n_nodes = _X21.size * (41 + n_sine + max(0, math.floor(n_top) - 2))
    if n_nodes > _MAX_TABLE_NODES:
        raise ValueError(f"the phi_q table up to theta = {theta_max:.3g} needs {n_nodes} "
                         f"nodes, more than the budget of {_MAX_TABLE_NODES}; "
                         "choose a larger q")
    x = n_pi = np.arange(3.0, n_top) * math.pi
    for _ in range(24):            # x -> n pi + atan(b/a) contracts by 0.18 at n = 3, less beyond
        r2 = x ** -2.0
        x = n_pi + np.arctan(x * ((945.0 * r2 - 105.0) * r2 + 1.0)
                             / ((945.0 * r2 - 420.0) * r2 + 15.0))
    g_zeros = 2.0 * x / w
    zeros = np.union1d(np.arange(1, n_sine + 1) * (math.pi / rate), g_zeros[g_zeros < last])
    # dyadic grading toward 0 keeps theta^gamma factors exact for gamma < 2
    edges = np.concatenate([zeros[0] * 0.5 ** np.arange(42, 0, -1), zeros])
    nodes, half = _nodes(edges[:-1], np.diff(edges))
    return nodes, (half[:, None] * _WK21).ravel(), float(edges[0]), float(edges[-1])


def build_mollifier(q: float) -> MollifierSpec:
    """The mollifier for 1 < q <= 1e6 (ValueError for any other q); builds
    no table: rho builds its table on first use."""
    return MollifierSpec(q)


def _check_junctions(poly: np.ndarray):
    """Raise ValueError unless the first five derivatives of the transition
    polynomial vanish at both ends (the C^5 junctions)."""
    for k in range(1, 6):
        poly = npoly.polyder(poly)
        if abs(npoly.polyval(0.0, poly)) > 1e-9 or abs(npoly.polyval(1.0, poly)) > 1e-9:
            raise ValueError(f"smoothstep derivative {k} does not vanish at a junction")


def _check_range(poly: np.ndarray):
    """Raise ValueError unless the transition polynomial stays in [0, 1] on a
    2001-point grid of [0, 1], so the bump stays in [0, 1] at every q."""
    vals = npoly.polyval(np.linspace(0.0, 1.0, 2001), poly)
    if vals.min() < -1e-12 or vals.max() > 1.0 + 1e-12:
        raise ValueError("smoothstep values must stay in [0, 1]")


# _S5 is a module constant, so its junctions and range are checked once per process
_check_junctions(_S5)
_check_range(_S5)
