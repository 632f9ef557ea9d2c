"""Density and tail probabilities of the multistable integral by Fourier inversion.

With exponent groups ``(alpha_g, W_g)`` (see ``MultistableSpec.groups``) the
characteristic function is cf(theta) = exp(-m(theta)), m(theta) = sum_g
W_g theta^alpha_g.  It is analytic off the negative axis and keeps
decaying in the sector |arg theta| < pi/(2b), b = max alpha_g.  On the ray
theta = t e^{i phi}, phi = min(pi/(4b), pi/2), the Fourier kernel decays
too, and

    D(x)         = (1/pi) Re int_ray e^{i x theta} cf(theta) dtheta,
    P(|I| > lam) = (2/pi) Im int_ray e^{i lam theta} (1 - cf(theta)) / theta dtheta,
    F(x)         = 1 - P(|I| > x) / 2 for x > 0, P(|I| > -x) / 2 for x < 0.

Each integral is one exponentially decaying, non-oscillatory function
with a fixed rule: Gauss-Kronrod panels (the 10 Gauss-Legendre nodes and
their 21-point Kronrod extension, the table shared with
:mod:`multistable.quadrature`) in s = log t, each spanning at most a
factor 8 in t and a bounded change of the integrand's complex exponent,
all evaluated in vectorized passes.  For x * t_cf >= 1 (t_cf: the scale
where the modular is 1) the density integrates e^{i x theta}(cf - 1)
instead, dropping int e^{i x theta} dtheta = i/x, whose real part is 0
but whose size would swamp the small density; where the cf dies before
the kernel (small lam), the tail integrates (e^{i lam theta} - 1)
cf(theta) / theta, which gives 1 - P.  The returned error bound adds
closed-form parts only: the Kronrod-minus-Gauss difference per panel,
the remainder of the first-order stub on [0, t_lo], a truncation bound
beyond the last panel and a roundoff bound.

This rule is the only inversion route; :mod:`multistable.quadrature`
contributes the shared :class:`QuadratureConfig`, :class:`AccuracyError`,
certification check and Gauss-Kronrod panel sum, but none of its real-axis
engine.

Each kind (density, density-1, tail, tail-cf, eta) is a row of ``_KINDS``,
which ``_stub``, ``_truncation``, ``_plan``, ``_integrand`` and ``_finish``
read: adding a kind takes a row, its ``_integrand`` body, and its first order
in ``_stub`` if its form is new.  Each integral is planned, then evaluated.
``_plan`` chooses the kind and lays out t0, the stub, the truncation and the
panels; ``_evaluate`` takes the plans of one spec, groups them by kind (and
w), and packs each group into blocks that close once they hold _BLOCK_NODES
nodes, one ``_integrand`` call a block with omega and t0 per node.  A plan
of that many nodes runs alone on the one-plan path, ``_run``.  The scalar
density, tail, cdf and eta are one-request calls: each makes its batched
body's checks, in the same order, then ``_integral`` plans its one request
and runs it on ``_run``, with no generator between.  ``_Ray`` holds what
every plan would otherwise rebuild (the stub's denominators, the
truncation's first factors, W t_cf^alpha); three fifths of a plan is its
panel layout, about 30 numpy calls on arrays of 20 to 60 floats.  Every
batched (value, err) equals ``_run``'s (``==``), by three rules:

1. each plan's cf exponents (ray.parts t0^alpha) @ (t/t0)^alpha stay one
   matrix product over that plan's own nodes (a product per node rounds
   differently);
2. each plan's GK21 sums stay one (2n, 21) @ _W21 product in the one-plan
   row layout, then :func:`multistable.quadrature._add_up`'s own sum and
   dot products, so _ROUNDINGS' count of numpy's pairwise sum holds;
3. blocks stay below 256 KiB of complex temporaries: above it numpy turns
   them into in-place operations, whose complex products round
   differently.

The same rule integrates against the mollifier phi_q of
:mod:`multistable.mollifier`, whose kernel H(z) = G(w z) e^{i(1+w/2) z}
averages e^{i lam z} over lam in [1, 1 + w]: :func:`eta_integral` (the
kind "eta", the tail with H(xi theta) in place of e^{i xi theta}) gives
eta and the Parseval theta side.
"""

from __future__ import annotations

import math
import weakref
from operator import truediv
from typing import Iterator, NamedTuple

import numpy as np

try:  # np.interp's compiled core, past the wrapper's checks (1 us a call); numpy >= 2.0
    from numpy._core.multiarray import interp as _interp
except ImportError:     # numpy < 2.0
    _interp = np.interp

from .function_space import MultistableSpec, exp_sum_root
from .mollifier import _S_CROSSOVER, _far_amplitude, _kernel, _sin_cos
from .quadrature import (
    _EPS,
    _X21,
    AccuracyError,
    QuadratureConfig,
    _add_up,
    _certify,
    _nodes,
)

__all__ = [
    "density",
    "tail_probability",
    "interval_probability",
    "cdf",
    "density_with_error",
    "tail_probability_with_error",
]


def _require_nonzero(spec: MultistableSpec):
    if spec.is_zero:
        raise ValueError("f == 0: the law is a point mass at 0 and has no density")


# ---------------------------------------------------------------------------
# rotated-contour rule

_TINY = float(np.finfo(float).tiny)
_LOG_HUGE = 700.0            # e^700 is near the top of the float range
_LOG_MAX = math.log(np.finfo(float).max)   # np.exp overflows above this
_LN8 = math.log(8.0)        # widest panel: a factor 8 in t
_TURN = math.pi             # spacing of the level edges in Phi (see _panels)
_REACH = 4.5                # largest panel width in s times Phi' at its right end
_GRID = 1.0 / 8.0           # s-spacing of the table that places the level edges
_LEVELS = np.arange(256) * _TURN   # level edges' Phi values j pi; plans past j = 255 use arange
_DECAY = 45.0               # envelopes are cut where they fall below e^-45
_REL = 2.0 ** -60           # stub and truncation bounds aim below this share of the result
_MAX_PANELS = 8192          # budget of one call: about 170 000 nodes
# A batched _integrand call (see _evaluate) takes plans until it holds this many
# nodes or more: N nodes take at most ceil(N / _BLOCK_NODES) calls of fewer than
# 2 _BLOCK_NODES nodes each.  Per node, on one core of a shared 2-core x86-64 box
# (two_exp, medians of 300 calls), a tail costs 100 ns at 800 nodes, 62 at 1600,
# 36-50 from 2400 to 4800 and 52-76 at 6400; eta 180-340, 120-230, 90-190 and
# 195-215.  Blocks also stay far below 16384 nodes, 256 KiB of complex values,
# where numpy would reuse _kernel's complex temporaries in place and round them
# differently.
_BLOCK_NODES = 2400
# Roundoff behind one node's share of the sum, in units of eps times the
# sizes of its components.  Counted in units of eps/2, the most one
# operation rounds by (each exp, expm1 and tan is within 1 ulp, two units):
# at most 28 to form a value (density-1: the half-angle cosine 7, cf - 1
# from tan(m_i/2) 12, t e^{-kappa} 6, three products and a difference 3;
# the other kinds take less), 21 in its panel's Kronrod dot product, 1 for
# the half width and at most 31 in numpy's pairwise sum over at most
# _MAX_PANELS panels.  That is 81 units, 40.5 eps; 44 leaves room for
# second-order terms.
_ROUNDINGS = 44.0
# Further roundings in one value of the mollifier kernel H beyond e^{i z} (which
# _ROUNDINGS counts as the tail's kernel), in units of eps/2 of H's bound on rays with
# psi > pi/8; a complex product rounds by sqrt(5) units (Brent, Percival and
# Zimmermann).  |x| < 6, x = w z / 2: coefficients 1 and 16 Horner steps 51.8, of S
# e^{-x_i} <= e^{|x|^2/26 - |x| sin psi} <= 1; e^{i x} 10; two products 4.5: 67.3.
# |x| >= 6, per term: r = e^{-i psi} / x 2, so 22 in r^11; r^2 11.2 in r^10; a's
# Horner 7.5; the bracket 14.2; 5197.5 r^6 7.7; e^{i z} 2.2: 64.8 of a sum at most
# 1.04 times the bound (_far_amplitude(6) (1 + e^{-2 x_i}) where capped), 67.2.  So
# 33.7 eps, 36 with room for second-order terms.  H's argument roundings (3.5 units of
# x) are phase errors, inside _integrand's 4 eps (1 + w) omega t.
_KERNEL_ROUNDINGS = 36.0
# in the far field H carries r^6, r = 2 / (w z): the exponent's extra rate in log t
_FAR_POWER = 6.0


def _log_exp1(x: float) -> float:
    """Upper bound on log E1(x), E1(x) = int_x^inf e^-v / v dv, for x > 0: A&S 5.1.20
    gives E1(x) < e^-x ln(1 + 1/x), within a factor 1 + 1/(2x) for large x.
    inf at x = 0, where E1 is infinite (a product that underflowed)."""
    return math.log(math.log1p(1.0 / x)) - x if x > 0.0 else math.inf


def _exp1(x: float) -> float:
    return math.exp(_log_exp1(x))


def _log_upper_gamma(s: float, x: float) -> float:
    """Upper bound on log Gamma(s, x), Gamma(s, x) = int_x^inf v^(s-1) e^-v dv, s, x > 0.

    For s <= 1, v^(s-1) <= x^(s-1) on [x, inf), so Gamma(s, x) <= x^(s-1) e^-x.
    For s > 1, log(v/x) <= (v - x)/x gives v^(s-1) e^-v <= x^(s-1) e^-x
    e^(-(1 - (s-1)/x)(v - x)), so Gamma(s, x) <= x^(s-1) e^-x x / (x - s + 1)
    when x > s - 1.  Otherwise the bound is inf.
    """
    if s <= 1.0:
        return (s - 1.0) * math.log(x) - x
    if x > s - 1.0:
        return (s - 1.0) * math.log(x) - x + math.log(x / (x - s + 1.0))
    return math.inf


def _kernel_factors(d: int, shifted: list[float], decay: float) -> tuple[float, list[float]]:
    """Gamma(d, decay) (E1 at d = 0) and Gamma(alpha + d, decay) for each alpha + d."""
    return ((_exp1(decay) if d == 0 else math.exp(-decay)),
            [math.exp(_log_upper_gamma(sh, decay)) for sh in shifted])


class _Ray:
    """Constants of the rotated contour for one spec."""

    def __init__(self, spec: MultistableSpec):
        self.groups = spec.groups
        self.alph = np.array([al for al, _ in self.groups])
        self.w = np.array([w for _, w in self.groups])
        self.alph_list = self.alph.tolist()
        self.a, self.b = float(self.alph.min()), float(self.alph.max())
        phi = min(math.pi / (4.0 * self.b), math.pi / 2.0)
        self.sin, self.cos = math.sin(phi), math.cos(phi)
        self.rot = complex(self.cos, self.sin)
        # m(t e^{i phi}) = sum_g W_g turn_g t^alpha_g, Re m = sum_g decay_g t^alpha_g
        self.turn = [complex(math.cos(al * phi), math.sin(al * phi)) for al, _ in self.groups]
        self.phi = phi
        # rows give M(t) = sum W t^alpha >= |m|, -Re m and Im m from t^alpha per
        # group; the sign carries exactly through every product and sum, so the
        # integrand needs no negation of its own
        self.parts = np.array([self.w, -(self.w * np.cos(self.alph * phi)),
                               self.w * np.sin(self.alph * phi)])
        self.decay = [(w * math.cos(al * phi), al) for al, w in self.groups]
        terms = [(w, al) for al, w in self.groups]
        self.t_cf = math.exp(exp_sum_root(1.0, terms))       # 1 / quasinorm
        self.s_cf = exp_sum_root(_DECAY, self.decay)         # |cf| <= e^-45 beyond
        self.log_w = np.log(self.w)
        self.log_w_list = self.log_w.tolist()
        # what every plan would rebuild: by a kind's d, the stub's denominators alpha + d,
        # alpha + d + 1 and alpha_i + alpha_j + d and the kernel cut's first factors; by
        # kind, the stub's least power (see _stub); log(W t_cf^alpha)
        self.shifted = tuple([al + j for al in self.alph_list] for j in (0.0, 1.0, 2.0))
        self.pair_den = tuple([(i, j, a1 + a2 + shift) for i, a1 in enumerate(self.alph_list)
                               for j, a2 in enumerate(self.alph_list)] for shift in (0.0, 1.0))
        self.stub_power = {kind: min(d + 1.0 + self.a, d + 2.0 if cut != "kernel" else math.inf,
                                     d + 2.0 * self.a if cut != "cf" else math.inf)
                           for kind, (d, cut, _) in _KINDS.items()}
        self.at_decay = tuple(_kernel_factors(d, self.shifted[d], _DECAY) for d in (0, 1))
        self.log_w_cf = self.log_w + self.alph * math.log(self.t_cf)
        # for scale only, by d: leading terms W sin(pi alpha/2) Gamma(alpha + d) (2 or 1) / pi
        # x^-(alpha + d), caps P <= 1, D(0) <= min_g Gamma(1 + 1/alpha_g) W_g^(-1/alpha_g) / pi
        sin_half = np.sin(0.5 * math.pi * self.alph)
        coef = (self.w * (2.0 / math.pi) * sin_half, self.w * sin_half / math.pi)
        self.lead_terms = tuple(list(zip((c * [math.gamma(x) for x in xs]).tolist(), xs))
                                for c, xs in zip(coef, self.shifted))
        log_d0 = min(math.lgamma(1.0 + 1.0 / al) - math.log(w) / al for al, w in self.groups)
        self.lead_cap = (1.0, math.exp(min(log_d0, _LOG_HUGE)) / math.pi)


# The constants depend only on the immutable spec and cost about a sixth of
# a call, so they are memoized; weak keys never keep a spec alive.
_RAYS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _ray(spec: MultistableSpec) -> _Ray:
    ray = _RAYS.get(spec)
    if ray is None:
        ray = _RAYS[spec] = _Ray(spec)
    return ray


class _Kind(NamedTuple):
    """A row of _KINDS.  d: the power of t in the weight, 1 for e^{i phi} dt (D =
    Re(int) / pi), 0 for dt / t (P = 2 Im(int) / pi).  cut: what ends the integrand,
    "both", the "kernel" (its cf - 1's phase unresolved past s_cf) or the "cf" (the
    value is 1 - P).  h: eta's kernel H(w theta) in place of e^{i w theta}."""

    d: int
    cut: str
    h: bool = False


# Each kind's integrand on the ray (theta = t e^{i phi}) and its first order as t -> 0
# (see _stub).  The "-1" and "tail" forms vanish like m(theta) there, so a small value
# keeps its relative accuracy; "tail-cf" serves w t_cf < 1, where the cf dies first.
_KINDS = {
    "density": _Kind(1, "both"),        # e^{i w theta} cf e^{i phi}: 1 + i w theta - m
    "density-1": _Kind(1, "kernel"),    # e^{i w theta} (cf - 1) e^{i phi}: -m; w t_cf >= 1
    "tail": _Kind(0, "kernel"),         # e^{i w theta} (1 - cf) / t: m / t; w t_cf >= 1
    "tail-cf": _Kind(0, "cf"),          # (e^{i w theta} - 1) cf / t: i w theta / t; small w
    "eta": _Kind(0, "kernel", True),    # H(w theta) (1 - cf) / t: m / t, as the tail
}


def _pow(x: float, p: float) -> float:
    """x ** p, inf where it passes the float range."""
    try:
        return x ** p
    except OverflowError:
        return math.inf


def _power_sum(terms: list[tuple[float, float]], x: float) -> float:
    """sum c x^-p over the (c, p) terms, inf where a power overflows."""
    total = 0.0
    try:
        for c, p in terms:
            total += c * x ** -p
    except (OverflowError, ZeroDivisionError):
        return math.inf
    return total


def _unit(p: float) -> float:
    """p clipped to [0, 1]; NaN passes through."""
    return 0.0 if p < 0.0 else 1.0 if p > 1.0 else p


def _stub(ray: _Ray, kind: str, omega: float, s: float,
          tgt: float = math.inf) -> tuple[float, complex, float]:
    """int_0^{e^s} of the integrand's first order (see _KINDS; times e^{i phi} for
    d = 1) and a bound on its remainder, with the end moved down from e^s when
    that bound exceeds tgt: (log of the end, value, bound).

    With M(t) = sum W t^alpha >= |m|, |e^{i w theta} - 1| <= wt,
    |e^{i w theta} - 1 - i w theta| <= (wt)^2/2, |cf| <= 1, |cf - 1| <= M and
    |cf - 1 + m| <= M^2/2 (Im theta >= 0, Re m >= 0), the remainder is at most
    t^(d-1) times w t M, plus (wt)^2/2 for a bare kernel (cut "both" or "cf")
    and M^2/2 for cf - 1 (cut "both" or "kernel").  Integrated, these grow like
    t^(d+1+a), t^(d+2) and t^(d+2a): moving the end down by log(tgt / bound) / p,
    p the least power present (ray.stub_power), brings the bound to tgt.
    """
    d, cut, _ = _KINDS[kind]
    for moved in (False, True):
        t = math.exp(s)
        wt = [w * math.exp(al * s) for al, w in ray.groups]
        rem = omega * t * sum(map(truediv, wt, ray.shifted[d + 1]))
        if cut != "cf":
            rem += 0.5 * sum(wt[i] * wt[j] / den for i, j, den in ray.pair_den[d])
        rem *= t ** d
        if cut != "kernel":
            rem += (omega * t) ** 2 * t ** d / (4.0 + 2.0 * d)
        if moved or not rem > tgt:
            break
        s += math.log(tgt / rem) / ray.stub_power[kind]
    if cut == "cf":
        return s, 1j * omega * ray.rot * t, rem
    first = sum(x * z / den for x, den, z in zip(wt, ray.shifted[d], ray.turn))
    if not d:
        return s, first, rem
    if cut == "kernel":
        return s, -ray.rot * (t * first), rem
    return s, ray.rot * (t + 0.5j * omega * ray.rot * t * t - t * first), rem


def _truncation(ray: _Ray, kind: str, omega: float, tgt: float) -> tuple[float, float]:
    """(log T, bound on int_T^inf |integrand| dt) with the bound near tgt or below.

    For t >= T the kernel gives |e^{i w theta}| = e^{-k t}, k = w sin phi, and
    |cf| <= e^{-R(t)} with R(t) = sum decay t^alpha >= R(T) (t/T)^a.  A kernel cut
    ends at k T = decay: |1 - cf| <= min(2, M), weight t^(d-1) dt, gives the less of
    2 k^-d Gamma(d, decay) and sum W k^(-alpha-d) Gamma(alpha + d, decay).
    """
    d, cut, _ = _KINDS[kind]
    k = omega * ray.sin
    if cut == "kernel" and k == 0.0:
        raise AccuracyError("omega sin(phi) underflows to 0: the kernel never cuts", math.inf)
    decay = _DECAY
    for _ in range(4):
        if cut == "both":
            # e^{-(k t + R(t))} with k t + R(t) >= K (t/T)^p, p = min(a, 1)
            s_hi = exp_sum_root(decay, ([(k, 1.0)] if k > 0.0 else []) + ray.decay)
            if s_hi > _LOG_HUGE:
                raise AccuracyError("the density's integrand outlives the floating-point "
                                    "range of theta", math.inf)
            kk = k * math.exp(s_hi) + sum(c * math.exp(al * s_hi) for c, al in ray.decay)
            p = min(ray.a, 1.0)
            log_bound = s_hi - math.log(p) - math.log(kk) / p + _log_upper_gamma(1.0 / p, kk)
            bound = math.exp(log_bound) if log_bound < _LOG_HUGE else math.inf
        elif cut == "cf":
            # |e^{i w theta} - 1| |cf| / t <= 2 e^{-R(T) (t/T)^a} / t; R(T) = _DECAY at s_cf
            s_hi = ray.s_cf if decay == _DECAY else exp_sum_root(decay, ray.decay)
            bound = 2.0 * (ray.at_decay[0][0] if decay == _DECAY else _exp1(decay)) / ray.a
        else:
            s_hi = math.log(decay / k)
            whole, gammas = (ray.at_decay[d] if decay == _DECAY else
                             _kernel_factors(d, ray.shifted[d], decay))
            bound = min(2.0 * whole / k ** d, sum(w * _pow(k, -sh) * g for (_, w), sh, g
                                               in zip(ray.groups, ray.shifted[d], gammas)))
        if bound <= tgt:
            break
        decay = 2.0 * decay if math.isinf(bound) else decay + math.log(bound / tgt) + 1.0
    if cut == "kernel" and ray.s_cf < s_hi:
        # the cf's phase is not resolved where |cf| <= e^-45: bound what it adds,
        # once for the integral and once for the rule's sum
        x = k * math.exp(ray.s_cf)
        bound += 2.0 * math.exp(-_DECAY) * ((_exp1(x) if d == 0 else math.exp(-x)) / k ** d)
    return s_hi, bound


def _panels(al: np.ndarray, lin: float, log_w0: np.ndarray, s_lo: float, s_hi: float,
            s_c: float, fast: tuple[float, float] = (0.0, 0.0),
            power: tuple[float, float] = (0.0, 0.0)) -> tuple[np.ndarray, np.ndarray]:
    """Panels (lo, width) covering [s_lo, s_hi] in sigma = log(t / t0).

    Phi(sigma) = lin e^sigma + sum w0 e^{alpha min(sigma, s_c)}, with
    lin = omega t0 and w0 = W t0^alpha = e^log_w0, bounds the change of the
    integrand's complex exponent; beyond s_c the cf's phase is left
    unresolved.  A second kernel term ``fast = (lin_f, s_f)`` adds
    lin_f e^{min(sigma, s_f)}, and ``power = (p, s_x)`` adds
    p max(sigma - s_x, 0), an algebraic factor t^-p from s_x on.  Edges sit
    near the levels Phi = j pi, read off a table of Phi.  Each gap is then
    cut into equal pieces at most log 8 wide and at most _REACH / Phi'
    wide, with Phi' = dPhi/dsigma at the gap's right end, its largest value
    on the gap.  So no panel sees Phi change by more than _REACH, whatever
    the table's accuracy, and none is so wide that the rule's complex
    neighbourhood turns theta out of the sector where the cf decays.
    """
    (lin_f, s_f), (p_x, s_x) = fast, power
    s_f, s_x = min(max(s_f, s_lo), s_hi), min(max(s_x, s_lo), s_hi)
    # below start every term of Phi is under _TURN / (terms + 1)
    share = _TURN / (al.size + 1 + (lin_f > 0.0))
    start = min(((math.log(share) - lw) / a for lw, a in zip(log_w0.tolist(), al.tolist())),
                default=s_hi)
    if lin > 0.0:
        start = min(start, math.log(share / lin))
    if lin_f > 0.0:
        start = min(start, math.log(share / lin_f))
    if p_x > 0.0:
        start = min(start, s_x)
    start = min(max(start, s_lo), s_hi)
    n = int((s_hi - start) / _GRID) + 1
    grid = start + (s_hi - start) / n * np.arange(n + 1.0)
    kern = lin * np.exp(grid)
    capped = grid if s_c >= grid[-1] else np.minimum(grid, s_c)
    if al.size == 1:    # tables of Phi and of Phi' (rate); one group needs no matrix product
        cf = np.exp(capped * al[0] + log_w0[0])
        phi, rate = kern + cf, kern + al[0] * cf
    else:
        cf = np.exp(np.multiply.outer(al, capped) + log_w0[:, None])
        phi, rate = kern + cf.sum(axis=0), kern + al @ cf
    cuts = [s_lo, s_c, s_hi]
    if lin_f > 0.0:
        phi += lin_f * np.exp(np.minimum(grid, s_f))
        cuts.append(s_f)
    if p_x > 0.0:
        phi += p_x * np.maximum(grid - s_x, 0.0)
        cuts.append(s_x)
    k0, k1 = math.floor(phi[0] / _TURN) + 1, math.ceil(phi[-1] / _TURN)
    levels = _LEVELS[k0:k1] if k1 <= _LEVELS.size else np.arange(k0, k1) * _TURN
    edges = _interp(levels, phi, grid).tolist() + cuts
    edges.sort()
    bounds = np.array(edges)
    left, right = bounds[:-1], bounds[1:]
    gaps = right - left
    # Phi' is convex, so interpolating its table overestimates it; from s_c on (no gaps
    # when s_c is the last edge) only the kernel term moves; fast and power enter exactly
    slope = _interp(right, grid, rate)
    if edges[-1] > s_c:
        past = edges.index(s_c)
        slope[past:] = lin * np.exp(right[past:])
    if lin_f > 0.0:
        slope += np.where(left < s_f, lin_f * np.exp(right), 0.0)
    if p_x > 0.0:
        slope += np.where(left >= s_x, p_x, 0.0)
    pieces = np.ceil(gaps * np.maximum(1.0 / _LN8, slope / _REACH))
    total = sum(pieces.tolist())
    if not total <= _MAX_PANELS:
        raise AccuracyError(f"rotated-contour rule needs {total:.0f} panels, "
                            f"more than its budget of {_MAX_PANELS}", math.inf)
    # of a median plan's 22 gaps, one is split and one empty: np.repeat lays them
    # out, then the k-th panel of a split gap starts at left + k h, not a running sum
    reps = pieces.astype(np.intp)
    lo, width = left.repeat(reps), gaps.repeat(reps)
    counts = reps.tolist()
    for i in (reps > 1).nonzero()[0].tolist():
        n, at, x = counts[i], sum(counts[:i]), edges[i]
        width[at:at + n] = h = (edges[i + 1] - x) / n
        lo[at:at + n] = [x + k * h for k in range(n)]
    return lo, width


def _integrand(ray: _Ray, kind: str, omega, t0, sigma: np.ndarray, w: float = 0.0,
               sizes: list[int] | None = None) -> np.ndarray:
    """The integrand's wanted part times t (the ds = dt/t weight) at t = t0 e^sigma,
    and a bound on its roundoff in units of eps: the two rows of one array.

    With sizes, sigma holds the nodes of several plans one after another,
    sizes[i] of them for plan i, and omega and t0 hold one value per plan.
    Each plan's cf exponents are then one product over its own nodes, as its
    one-plan call forms them; everything else goes node by node, so every
    value and bound equals the one-plan call's.

    The cf exponents are one product of the rows ray.parts (M, -Re m, Im m)
    with (t/t0)^alpha.  Im m is halved where the half angle is needed, not in
    the rows: halving a subnormal product rounds, so a halved row would move
    the values of tails and etas past omega ~ 1e176, whose t0^alpha underflows.

    Every sine and cosine comes from the tangent of its half angle
    (:func:`multistable.mollifier._sin_cos`).  cf - 1 = q_r + i q_i comes
    from tau = tan(Im m/2) without cancellation: q_i = -2 cf tau / (1 + tau^2)
    = -cf sin(Im m) and q_r = expm1(-Re m) + q_i tau = expm1(-Re m)
    - 2 cf sin^2(Im m/2), two terms of one sign; "tail-cf" takes
    sin(Im m) = 2 tau / (1 + tau^2) from the same tau.

    The roundoff covers the value's own roundings and those of its share of
    the sum (_ROUNDINGS times the sizes of its components, counted where
    _ROUNDINGS is defined: the half-angle sine within 6 units of eps/2 and
    cosine within 7, against 1 ulp for a libm sine or cosine), the absolute
    errors of the exponents (kernel: 4 eps w t, from the roundings in t, w t
    and its two projections; cf: |dm| <= eps M (_ROUNDINGS + b|sigma|)), and
    the shift of the node by the rounding of sigma, which moves the value by
    |dF/ds| eps |sigma|.  The cf's exponent and shift together give it
    M (_ROUNDINGS + 2 b|sigma|).  Values and bounds are built in place on a
    few buffers.
    """
    d, cut, h = _KINDS[kind]
    # rows are taken by index: unpacking an array's rows costs about 1 us more
    out = np.empty((2, sigma.size))
    f, err = out[0], out[1]
    pw = np.multiply.outer(ray.alph, sigma)
    np.exp(pw, out=pw)                                            # (t/t0)^alpha per group
    if sizes is None:
        exps = (ray.parts * t0 ** ray.alph) @ pw
    else:
        exps = np.concatenate(
            [(ray.parts * s ** ray.alph) @ p
             for s, p in zip(t0, np.split(pw, np.cumsum(sizes[:-1]), axis=1))], axis=1)
        omega, t0 = np.repeat(omega, sizes), np.repeat(t0, sizes)
    big_m, m_r, m_i = exps[0], exps[1], exps[2]                   # M >= |m|, -Re m, Im m
    t = np.exp(sigma)
    t *= t0
    wt = omega * t
    beta = ray.cos * wt           # e^{i w theta} = e^{-kappa + i beta}, kappa = sin(phi) w t
    np.multiply(wt, -ray.sin, out=f)                              # -kappa
    asig = np.abs(sigma)
    spread = asig * (2.0 * ray.b)                 # the cf's share: M (_ROUNDINGS + 2 b|sigma|)
    spread += _ROUNDINGS
    spread *= big_m
    if cut == "both":
        # density: the envelope t e^{-kappa - Re m} times cos(phi + beta - m_i)
        beta += ray.phi
        beta -= m_i
        f += m_r
        np.exp(f, out=f)
        f *= t
        np.add(asig, 4.0, out=err)
        err *= wt
        err += asig
        err += _ROUNDINGS
        err += spread
        err *= f
        f *= _sin_cos(beta)[1]
        return out
    cf = np.exp(m_r)
    if cut == "cf":
        # tail-cf: cf (e^{-kappa} sin(beta - m_i) + sin(m_i)); w t cf >= |e^{i w theta} - 1| |cf|
        beta -= m_i
        a1 = _sin_cos(beta)[0]
        np.exp(f, out=f)
        a1 *= f
        m_i *= 0.5
        tau = np.tan(m_i, out=m_i)
        a2 = tau * tau
        a2 += 1.0
        np.divide(tau, a2, out=a2)
        a2 *= 2.0
        np.add(a1, a2, out=f)
        f *= cf
        np.abs(a1, out=a1)
        np.abs(a2, out=a2)
        a1 += a2
        a1 *= _ROUNDINGS
        np.add(asig, 4.0, out=err)
        err += spread
        err *= wt
        err += a1
        err *= cf
        return out
    m_i *= 0.5
    tau = np.tan(m_i, out=m_i)
    q_i = tau * tau
    q_i += 1.0
    np.divide(tau, q_i, out=q_i)
    q_i *= cf
    q_i *= -2.0
    q_r = np.expm1(m_r)
    tau *= q_i
    q_r += tau
    qa = np.abs(q_r)
    qa += np.abs(q_i)
    rounds, lead = _ROUNDINGS, float(d)
    if h:
        # the mollifier kernel H(omega theta) in place of e^{i w theta}: kern
        # bounds |H|, its phases turn at most (1 + w) omega t per unit of s,
        # and its far form carries r^6
        h_r, h_i, kern = _kernel(w, wt, ray.cos, ray.sin)
        np.multiply(h_r, q_i, out=f)
        h_i *= q_r
        f += h_i
        np.negative(f, out=f)
        wt *= 1.0 + w
        rounds, lead = _ROUNDINGS + _KERNEL_ROUNDINGS, _FAR_POWER
    elif d:
        # density-1: t e^{-kappa} Re(e^{i (phi + beta)} (cf - 1))
        kern = np.exp(f)
        kern *= t
        beta += ray.phi
        sin, cos = _sin_cos(beta)
        cos *= q_r
        sin *= q_i
        np.subtract(cos, sin, out=f)
        f *= kern
    else:
        # tail: -e^{-kappa} Im(e^{i beta} (cf - 1))
        kern = np.exp(f)
        sin, cos = _sin_cos(beta)
        sin *= q_r
        cos *= q_i
        np.add(sin, cos, out=f)
        np.negative(f, out=f)
        f *= kern
    np.add(asig, 4.0, out=err)
    err *= wt
    if lead:
        asig *= lead
        err += asig
    err += rounds
    err *= qa
    spread *= cf
    err += spread
    err *= kern
    return out


class _Plan(NamedTuple):
    """One ray integral laid out for the rule: the kind chosen, the frequency
    omega, the mollifier's half-width w (kind "eta"), t0, the panels
    (lo, width) in sigma = log(t / t0), and the closed-form parts: the stub's
    value (its real part for the densities, else its imaginary part), the
    stub's remainder bound and the truncation bound."""

    kind: str
    omega: float
    w: float
    t0: float
    lo: np.ndarray
    width: np.ndarray
    stub: float
    stub_rem: float
    trunc: float


def _plan(ray: _Ray, omega: float, kind: str, w: float = 0.0) -> _Plan:
    """The layout of one finite omega's integral: D(omega) for kind "density",
    P(|I| > omega) for kind "tail", switched to density-1 or tail-cf where
    those serve; the kind's row sets the scale, s_c and eta's kernel terms.

    Kind "eta" gives E[1 - bump(I / omega)] for the mollifier's bump of
    half-width w: the tail smoothed over [omega, (1 + w) omega], with the
    kernel H(omega theta) of :func:`multistable.mollifier._kernel` in place
    of e^{i omega theta}.  As |H(omega theta)| <= e^{-omega Im theta} and
    |H(omega theta) - 1| <= (1 + w/2) omega |theta|, its row is the tail's
    but for h, and its stub takes omega (1 + w/2) in the remainder.
    """
    al = ray.alph
    if kind == "density" and omega * ray.t_cf >= 1.0:
        kind = "density-1"
    elif (kind == "tail" and omega * ray.t_cf < 1.0 and (
            omega * ray.sin == 0.0 or math.log(omega * ray.sin) + ray.s_cf < math.log(_DECAY))):
        kind = "tail-cf"        # the cf dies before the kernel does
    d, cut, h = _KINDS[kind]
    t0 = ray.t_cf if omega == 0.0 else min(1.0 / omega, ray.t_cf)
    s0 = math.log(t0)
    # the leading term, capped (eta >= P(|I| > (1 + w) omega); inf at omega = 0); 1 - P: 1
    scale = (ray.lead_cap[d] if cut == "cf" else
             min(ray.lead_cap[d], _power_sum(ray.lead_terms[d], omega * (1.0 + w))))
    tgt = max(_REL * scale, _TINY)

    # stub [0, t_lo], with t_lo <= t0 where its remainder bound meets tgt
    s_lo, stub, stub_rem = _stub(ray, kind, omega * (1.0 + 0.5 * w), s0, tgt)
    s_hi, trunc = _truncation(ray, kind, omega, tgt)
    if s_hi - s0 > _LOG_MAX:
        # _panels' tables hold e^(s - s0) up to s_hi, which would overflow: at a
        # tiny xi with a tiny t_cf only the kernel cuts eta's integrand, that far out
        raise AccuracyError("the panel table's e^(s - s0) passes the floating-point "
                            "range before the integrand is cut", math.inf)
    if h and any(max(lw + a * s_hi, a * (s_hi - s0)) > _LOG_HUGE
                 for a, lw in zip(ray.alph_list, ray.log_w_list)):
        # at a tiny xi only the kernel cuts eta's integrand, so far out that
        # W t^alpha or (t/t0)^alpha would overflow on the last panels
        raise AccuracyError("the cf's exponent passes the floating-point range before "
                            "the kernel cuts the integrand", math.inf)
    # resolve the cf's phase to the end unless the kernel alone cuts the integrand
    s_c = min(ray.s_cf, s_hi) if cut == "kernel" else s_hi
    fast, power = (0.0, 0.0), (0.0, 0.0)
    if h:
        # H's e^{i(1+w) z} term is e^{-45} of its e^{i z} term from s_f on, where
        # its phase is left unresolved: bound what it adds, once for the
        # integral and once for the rule's sum (|1 - cf| <= 2)
        s_f = math.log(_DECAY / (w * omega * ray.sin))
        if s_f < s_hi:
            trunc += 4.0 * _far_amplitude(0.5 * _DECAY / ray.sin) * _exp1(_DECAY * (1.0 + w) / w)
        fast = (w * omega * t0, s_f - s0)
        power = (_FAR_POWER, math.log(_S_CROSSOVER / (w * omega)) - s0)
    # nodes in sigma = s - s0, so rounding moves a node by eps |sigma| at most
    lo, width = _panels(al, omega * t0, ray.log_w_cf if t0 == ray.t_cf else ray.log_w + al * s0,
                        s_lo - s0, s_hi - s0, s_c - s0, fast, power)
    return _Plan(kind, omega, w, t0, lo, width, stub.real if d else stub.imag, stub_rem, trunc)


def _finish(plan: _Plan, body: float, kg: float, rounding: float) -> tuple[float, float]:
    """The plan's value and error bound from its rule sums (see quadrature._add_up)."""
    d, cut, _ = _KINDS[plan.kind]
    total = body + plan.stub
    err = kg + plan.stub_rem + plan.trunc + rounding
    if d:
        dens = total / math.pi
        return dens, err / math.pi + 2.0 * _EPS * abs(dens)
    p = 2.0 / math.pi * total
    if cut == "cf":
        p = 1.0 - p
    return _unit(p), 2.0 / math.pi * err + 2.0 * _EPS * abs(p)


def _run(ray: _Ray, plan: _Plan) -> tuple[float, float]:
    """One plan on its own: the scalar path."""
    sigma, half = _nodes(plan.lo, plan.width)
    y = _integrand(ray, plan.kind, plan.omega, plan.t0, sigma, plan.w)
    return _finish(plan, *_add_up(y, half))


def _blocks(members: list[int], plans: list[_Plan]):
    """The plans named by members, in order, in runs closed once they hold
    _BLOCK_NODES nodes or more, so N nodes take at most ceil(N / _BLOCK_NODES)
    runs; a plan of that many nodes runs alone."""
    block, size = [], 0
    for i in members:
        n = plans[i].lo.size * _X21.size
        if n >= _BLOCK_NODES:
            yield [i]
            continue
        block.append(i)
        size += n
        if size >= _BLOCK_NODES:
            yield block
            block, size = [], 0
    if block:
        yield block


def _evaluate(ray: _Ray | None, plans: list[_Plan | None]) -> list[tuple[float, float]]:
    """The (value, err) of each plan, None standing for omega = inf, (0, 0); ray
    may be None when every plan is.

    Plans of one kind and w share _blocks: one _integrand call per block.
    Each plan keeps its own GK21 sums (quadrature._add_up on its own nodes,
    in the one-plan row layout), and a one-plan block runs _run, so every
    pair equals _run's on its plan.
    """
    out = [(0.0, 0.0)] * len(plans)
    groups: dict[tuple[str, float], list[int]] = {}
    for i, plan in enumerate(plans):
        if plan is not None:
            groups.setdefault((plan.kind, plan.w), []).append(i)
    for (kind, w), members in groups.items():
        for block in _blocks(members, plans):
            if len(block) == 1:
                out[block[0]] = _run(ray, plans[block[0]])
                continue
            chosen = [plans[i] for i in block]
            nodes = [_nodes(p.lo, p.width) for p in chosen]
            sizes = [x.size for x, _ in nodes]
            y = _integrand(ray, kind, [p.omega for p in chosen], [p.t0 for p in chosen],
                           np.concatenate([x for x, _ in nodes]), w, sizes)
            start = 0
            for i, plan, (x, half) in zip(block, chosen, nodes):
                out[i] = _finish(plan, *_add_up(y[:, start:start + x.size], half))
                start += x.size
    return out


def _integrals(spec: MultistableSpec, requests) -> Iterator[tuple[float, float]]:
    """The pair of each (omega, kind, w) of requests, _run's on its plan (see
    _plan) and (0, 0) at omega = inf, planned in order and evaluated in blocks.

    Yields the pairs in order.  An exception raised while a request or its
    plan is made is raised after the pairs before it, where a loop of scalar
    calls would raise it.
    """
    ray, plans, failure = None, [], None
    try:
        for omega, kind, w in requests:
            if math.isinf(omega):
                plans.append(None)
            else:
                ray = ray or _ray(spec)
                plans.append(_plan(ray, omega, kind, w))
    except (ValueError, ArithmeticError, AccuracyError) as exc:  # re-raised in order below
        failure = exc
    yield from _evaluate(ray, plans)
    if failure is not None:
        raise failure


def _integral(spec: MultistableSpec, omega: float, kind: str,
              w: float = 0.0) -> tuple[float, float]:
    """The pair _integrals gives one request (omega, kind, w), with no generator
    between: (0, 0) at omega = inf, else _run on its plan."""
    if math.isinf(omega):
        return 0.0, 0.0
    ray = _ray(spec)
    return _run(ray, _plan(ray, omega, kind, w))


def _eta_integrals(spec: MultistableSpec, xis: list[float],
                   w: float) -> list[tuple[float, float]]:
    """2 int_0^inf phi_q(theta) (1 - cf(theta / xi)) dtheta = E[1 - bump(I / xi)] for
    the mollifier of half-width w at each xi > 0, with an absolute error bound,
    evaluated in blocks; ValueError, before any is evaluated, if an xi is not."""
    if spec.is_zero:
        return [(0.0, 0.0)] * len(xis)
    return list(_integrals(spec, [(_positive("xi", xi), "eta", w) for xi in xis]))


def eta_integral(spec: MultistableSpec, xi: float, w: float) -> tuple[float, float]:
    """The one-xi call of :func:`_eta_integrals`: its pair, from one plan."""
    if spec.is_zero:
        return 0.0, 0.0
    return _integral(spec, _positive("xi", xi), "eta", w)


# ---------------------------------------------------------------------------
# public entry points

def _check_x(spec: MultistableSpec, x: float):
    _require_nonzero(spec)
    if math.isnan(x):
        raise ValueError("x is NaN")


def _positive(name: str, value: float) -> float:
    if not value > 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def _check_lambda(spec: MultistableSpec, lam: float):
    _require_nonzero(spec)
    _positive("lambda", lam)


def _densities_with_error(spec: MultistableSpec, xs) -> Iterator[tuple[float, float]]:
    """The density at each x and a bound on the absolute error, evaluated in blocks:
    yields in order and raises where a loop of one-x calls would (see _integrals)."""
    def requests():
        for x in xs:
            _check_x(spec, x)
            yield abs(x), "density", 0.0
    return _integrals(spec, requests())


def density_with_error(spec: MultistableSpec, x: float,
                       cfg: QuadratureConfig | None = None) -> tuple[float, float]:
    """Density at x and a bound on the absolute error, the one-x call of
    :func:`_densities_with_error`: the same check, then its pair from one plan;
    cfg is not read, and :func:`density` certifies the bound."""
    _check_x(spec, x)
    return _integral(spec, abs(x), "density")


def _certified_density(what: str, val: float, err: float, cfg: QuadratureConfig) -> float:
    """A density value whose bound meets cfg.abs_tol, with quadrature noise in
    [-abs_tol, 0) clamped to 0; anything more negative raises."""
    _certify(what, err, cfg)
    if val < -cfg.abs_tol:
        raise AccuracyError(f"{what} came out significantly negative", abs(val))
    return max(val, 0.0)


def density(spec: MultistableSpec, x: float,
            cfg: QuadratureConfig | None = None) -> float:
    """Probability density of I(f) at x (continuous, even, bounded).

    Values in [-abs_tol, 0) produced by quadrature noise are clamped to 0;
    anything more negative raises :class:`AccuracyError`.
    """
    cfg = cfg or QuadratureConfig()
    val, err = density_with_error(spec, x, cfg)
    return _certified_density("density", val, err, cfg)


def _tails_with_error(spec: MultistableSpec, lams) -> Iterator[tuple[float, float]]:
    """P(|I(f)| > lam) and a bound on the absolute error at each lambda, evaluated
    in blocks: yields in order and raises where a loop of one-lambda calls
    would (see _integrals)."""
    def requests():
        for lam in lams:
            _check_lambda(spec, lam)
            yield lam, "tail", 0.0
    return _integrals(spec, requests())


def tail_probability_with_error(spec: MultistableSpec, lam: float,
                                cfg: QuadratureConfig | None = None) -> tuple[float, float]:
    """P(|I(f)| > lam) and a bound on the absolute error, the one-lambda call of
    :func:`_tails_with_error`: the same check, then its pair from one plan;
    cfg is not read."""
    _check_lambda(spec, lam)
    return _integral(spec, lam, "tail")


def tail_probability(spec: MultistableSpec, lam: float,
                     cfg: QuadratureConfig | None = None) -> float:
    """P(|I(f)| > lam), clipped to [0, 1]."""
    cfg = cfg or QuadratureConfig()
    p, err = tail_probability_with_error(spec, lam, cfg)
    _certify("tail probability", err, cfg)
    return p


def _cdf_from_tail(x: float, p: float, err: float) -> tuple[float, float]:
    """F(x) and a bound on its absolute error from P = P(|I| > |x|) and its bound:
    F = P/2 for x <= 0, exact, and F = 1 - P/2 for x > 0, whose rounding adds
    eps/2 F to the bound."""
    if x <= 0.0:
        return 0.5 * p, 0.5 * err
    f = 1.0 - 0.5 * p
    return f, 0.5 * err + 0.5 * _EPS * f


def _cdfs_with_error(spec: MultistableSpec, xs: list[float]) -> list[tuple[float, float]]:
    """F(x) at each x and a bound on its absolute error (see _cdf_from_tail), the
    tails evaluated in blocks."""
    for x in xs:
        _check_x(spec, x)
    # every x is checked, so the tails run to their end at once, never suspended
    tails = iter(list(_integrals(spec, [(abs(x), "tail", 0.0) for x in xs if x != 0.0])))
    return [_cdf_from_tail(x, *(next(tails) if x != 0.0 else (1.0, 0.0)))  # P(|I| > 0) = 1
            for x in xs]


def _cdf_with_error(spec: MultistableSpec, x: float) -> tuple[float, float]:
    """The one-x call of :func:`_cdfs_with_error`: the same check, then its tail
    from one plan."""
    _check_x(spec, x)
    return _cdf_from_tail(x, *(_integral(spec, abs(x), "tail") if x != 0.0 else (1.0, 0.0)))


def cdf(spec: MultistableSpec, x: float, cfg: QuadratureConfig | None = None) -> float:
    """Distribution function F(x) = P(I(f) <= x) of the symmetric law."""
    cfg = cfg or QuadratureConfig()
    F, err = _cdf_with_error(spec, x)
    _certify("cdf", err, cfg)
    return F


def interval_probability(spec: MultistableSpec, lo: float, hi: float,
                         cfg: QuadratureConfig | None = None) -> float:
    """P(lo < I(f) <= hi) by difference of distribution-function values,
    certified to the sum of their bounds and the subtraction's rounding."""
    cfg = cfg or QuadratureConfig()
    if not lo <= hi:
        raise ValueError(f"need lo <= hi, got ({lo}, {hi})")
    (f_hi, err_hi), (f_lo, err_lo) = _cdfs_with_error(spec, [hi, lo])
    p = f_hi - f_lo
    _certify("interval probability", err_hi + err_lo + _EPS * abs(p), cfg)
    return _unit(p)
