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

Each call integrates one exponentially decaying, non-oscillatory function
with a fixed rule: Gauss-Kronrod panels (the 10 Gauss-Legendre nodes and
their 21-point Kronrod extension) in s = log t, each spanning at most a
factor 8 in t and a bounded change of the integrand's complex exponent,
all evaluated in one vectorized pass.  For x * t_cf >= 1 (t_cf: the
scale where the modular is 1) the density integrates e^{i x theta}(cf - 1)
instead, which drops the term int e^{i x theta} dtheta = i/x whose real
part is 0 but whose size would swamp the small density.  Where the cf
dies before the kernel (small lam), the tail integrates
(e^{i lam theta} - 1) cf(theta) / theta, whose imaginary part gives
1 - P.  The returned error bound adds closed-form parts only: the
Kronrod-minus-Gauss difference per panel, the remainder of the
first-order stub on [0, t_lo], a truncation bound beyond the last panel
and a roundoff bound.

This rule is the only inversion route; :mod:`multistable.quadrature`
contributes the shared :class:`QuadratureConfig`, :class:`AccuracyError`
and certification check, but none of its real-axis engine.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from .function_space import MultistableSpec, exp_sum_root
from .quadrature import AccuracyError, QuadratureConfig, _certify

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

# Gauss-Kronrod 10/21 pair on [-1, 1] (QUADPACK qk21); Gauss weights are 0
# at the Kronrod-only nodes.
_XK_HALF = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
])
_WK_HALF = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525614132, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
])
_WK0 = 0.149445554002916905664936468389821
_WG_HALF = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
_X21 = np.concatenate([-_XK_HALF, [0.0], _XK_HALF[::-1]])
_WK21 = np.concatenate([_WK_HALF, [_WK0], _WK_HALF[::-1]])
_WG21 = np.zeros(21)
_WG21[1:20:2] = np.concatenate([_WG_HALF, _WG_HALF[::-1]])

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_LOG_HUGE = 700.0            # e^700 is near the top of the float range
_LN8 = math.log(8.0)        # widest panel: a factor 8 in t
_TURN = math.pi             # spacing of the level edges in Phi (see _panels)
_REACH = 4.5                # largest panel width in s times Phi' at its right end
_GRID = 1.0 / 8.0           # s-spacing of the table that places the level edges
_DECAY = 45.0               # envelopes are cut where they fall below e^-45
_REL = 2.0 ** -60           # stub and truncation bounds aim below this share of the result
_MAX_PANELS = 8192          # budget of one call: about 170 000 nodes
# roundings behind one node's share of the sum: about 10 to form the value,
# 21 in its panel's dot product, the rest in the pairwise sum over panels
_ROUNDINGS = 40.0


def _log_exp1(x: float) -> float:
    """Upper bound on log E1(x), E1(x) = int_x^inf e^-v / v dv, for x > 0: A&S 5.1.20
    gives E1(x) < e^-x ln(1 + 1/x), within a factor 1 + 1/(2x) for large x."""
    return math.log(math.log1p(1.0 / x)) - x


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


def _upper_gamma(s: float, x: float) -> float:
    return math.exp(_log_upper_gamma(s, x))


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
        # rows give M(t) = sum W t^alpha >= |m|, Re m and Im m from t^alpha per group
        self.parts = np.array([self.w, self.w * np.cos(self.alph * phi),
                               self.w * np.sin(self.alph * phi)])
        self.decay = [(w * math.cos(al * phi), al) for al, w in self.groups]
        terms = [(w, al) for al, w in self.groups]
        self.t_cf = math.exp(exp_sum_root(1.0, terms))       # 1 / quasinorm
        self.s_cf = exp_sum_root(_DECAY, self.decay)         # |cf| <= e^-45 beyond
        # leading terms of the tail and density expansions, for scale only
        sin_half = np.sin(0.5 * math.pi * self.alph)
        self.tail_w = (self.w * (2.0 / math.pi) * sin_half
                       * np.array([math.gamma(al) for al in self.alph_list]))
        self.dens_w = (self.w * sin_half / math.pi
                       * np.array([math.gamma(al + 1.0) for al in self.alph_list]))
        # D(0) <= min_g Gamma(1 + 1/alpha_g) W_g^(-1/alpha_g) / pi, capped below overflow
        log_d0 = min(math.lgamma(1.0 + 1.0 / al) - math.log(w) / al for al, w in self.groups)
        self.d0 = math.exp(min(log_d0, _LOG_HUGE)) / math.pi


# The constants depend only on the immutable spec and cost about a sixth of
# a call, so they are memoized; weak keys never keep a spec alive.
_RAYS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _ray(spec: MultistableSpec) -> _Ray:
    ray = _RAYS.get(spec)
    if ray is None:
        ray = _RAYS[spec] = _Ray(spec)
    return ray


# The four integrands, as functions of t on the ray (theta = t e^{i phi}):
#
#   "density"    e^{i w theta} cf(theta) e^{i phi}          D = Re(int) / pi
#   "density-1"  e^{i w theta} (cf(theta) - 1) e^{i phi}    D = Re(int) / pi,       w t_cf >= 1
#   "tail"       e^{i w theta} (1 - cf(theta)) / t          P = 2 Im(int) / pi,     w t_cf >= 1
#   "tail-cf"    (e^{i w theta} - 1) cf(theta) / t          P = 1 - 2 Im(int) / pi, small w
#
# The "-1" and "tail" forms vanish like m(theta) near 0, so a small density
# or tail keeps its relative accuracy; "tail-cf" decays with the cf instead
# of the kernel, and serves w t_cf < 1 where the cf dies first.

def _stub(ray: _Ray, kind: str, omega: float, s: float) -> tuple[complex, float]:
    """First-order int_0^{e^s} of the integrand, and a bound on its remainder.

    With M(t) = sum W t^alpha >= |m|, |e^{i w theta} - 1| <= wt,
    |e^{i w theta} - 1 - i w theta| <= (wt)^2/2, |cf| <= 1, |cf - 1| <= M and
    |cf - 1 + m| <= M^2/2 (Im theta >= 0, Re m >= 0), the integrands are

    * density:   1 + i w theta - m,  remainder <= (wt)^2/2 + w t M + M^2/2
    * density-1: -m,                 remainder <= w t M + M^2/2
    * tail:      m / t,              remainder <= (w t M + M^2/2) / t
    * tail-cf:   i w theta / t,      remainder <= ((wt)^2/2 + w t M) / t

    (the densities times e^{i phi}).
    """
    t = math.exp(s)
    wt = [(w * math.exp(al * s), al, z) for (al, w), z in zip(ray.groups, ray.turn)]
    if kind == "tail-cf":
        rem = 0.25 * (omega * t) ** 2 + omega * t * sum(x / (al + 1.0) for x, al, _ in wt)
        return 1j * omega * ray.rot * t, rem
    shift = 0.0 if kind == "tail" else 1.0
    pairs = 0.5 * sum(x * y / (a1 + a2 + shift) for x, a1, _ in wt for y, a2, _ in wt)
    if kind == "tail":
        value = sum(x * z / al for x, al, z in wt)
        return value, omega * t * sum(x / (al + 1.0) for x, al, _ in wt) + pairs
    first = t * sum(x * z / (al + 1.0) for x, al, z in wt)
    rem = t * (omega * t * sum(x / (al + 2.0) for x, al, _ in wt) + pairs)
    if kind == "density-1":
        return -ray.rot * first, rem
    value = ray.rot * (t + 0.5j * omega * ray.rot * t * t - first)
    return value, rem + (omega * t) ** 2 * t / 6.0


def _stub_power(ray: _Ray, kind: str) -> float:
    """Smallest power of t in the stub remainder."""
    return {"density": min(3.0, 2.0 + ray.a, 1.0 + 2.0 * ray.a),
            "density-1": min(2.0 + ray.a, 1.0 + 2.0 * ray.a),
            "tail": min(1.0 + ray.a, 2.0 * ray.a),
            "tail-cf": min(2.0, 1.0 + ray.a)}[kind]


def _truncation(ray: _Ray, kind: str, omega: float, tgt: float) -> tuple[float, float]:
    """(log T, bound on int_T^inf |integrand| dt) with the bound near tgt or below.

    For t >= T the kernel gives |e^{i w theta}| = e^{-k t}, k = w sin phi, and
    |cf| <= e^{-R(t)} with R(t) = sum decay t^alpha >= R(T) (t/T)^a.
    """
    k = omega * ray.sin
    decay = _DECAY
    for _ in range(4):
        if kind == "density":
            # e^{-(k t + R(t))} with k t + R(t) >= K (t/T)^p, p = min(a, 1)
            s_hi = exp_sum_root(decay, ([(k, 1.0)] if k > 0.0 else []) + ray.decay)
            if s_hi > _LOG_HUGE:
                raise AccuracyError("the density's integrand outlives the floating-point "
                                    "range of theta", math.inf)
            kk = k * math.exp(s_hi) + sum(c * math.exp(al * s_hi) for c, al in ray.decay)
            p = min(ray.a, 1.0)
            log_bound = s_hi - math.log(p) - math.log(kk) / p + _log_upper_gamma(1.0 / p, kk)
            bound = math.exp(log_bound) if log_bound < _LOG_HUGE else math.inf
        elif kind == "tail-cf":
            # |e^{i w theta} - 1| |cf| / t <= 2 e^{-R(T) (t/T)^a} / t
            s_hi = exp_sum_root(decay, ray.decay)
            bound = 2.0 * _exp1(decay) / ray.a
        else:
            # |1 - cf| <= min(2, M(t)); the tail divides by t, the density does not
            s_hi = math.log(decay / k)
            if kind == "tail":
                bound = min(2.0 * _exp1(decay),
                            sum(w * k ** -al * _upper_gamma(al, decay) for al, w in ray.groups))
            else:
                bound = min(2.0 * math.exp(-decay) / k,
                            sum(w * k ** (-al - 1.0) * _upper_gamma(al + 1.0, decay)
                                for al, w in ray.groups))
        if bound <= tgt:
            break
        decay = 2.0 * decay if math.isinf(bound) else decay + math.log(bound / tgt) + 1.0
    if kind in ("tail", "density-1") and ray.s_cf < s_hi:
        # the cf's phase is not resolved where |cf| <= e^-45: bound what it adds,
        # once for the integral and once for the rule's sum
        t_end = math.exp(ray.s_cf)
        kernel = _exp1(k * t_end) if kind == "tail" else math.exp(-k * t_end) / k
        bound += 2.0 * math.exp(-_DECAY) * kernel
    return s_hi, bound


def _panels(ray: _Ray, lin: float, log_w0: np.ndarray, s_lo: float, s_hi: float,
            s_c: float) -> tuple[np.ndarray, np.ndarray]:
    """Panels (lo, width) covering [s_lo, s_hi] in sigma = log(t / t0).

    Phi(sigma) = lin e^sigma + sum w0 e^{alpha min(sigma, s_c)}, with
    lin = omega t0 and w0 = W t0^alpha = e^log_w0, bounds the change of the
    integrand's complex exponent; beyond s_c the cf's phase is left
    unresolved.  Edges sit near the levels Phi = j pi, read off a table of
    Phi.  Each gap is then cut into equal pieces at most log 8 wide and at
    most _REACH / Phi' wide, with Phi' = dPhi/dsigma at the gap's right
    end, its largest value on the gap.  So no panel sees Phi change by
    more than _REACH, whatever the table's accuracy, and none is so wide
    that the rule's complex neighbourhood turns theta out of the sector
    where the cf decays.
    """
    al = ray.alph
    # below start every term of Phi is under _TURN / (groups + 1)
    share = _TURN / (al.size + 1)
    start = min((math.log(share) - lw) / a for lw, a in zip(log_w0.tolist(), ray.alph_list))
    if lin > 0.0:
        start = min(start, math.log(share / lin))
    start = min(max(start, s_lo), s_hi)
    n = int((s_hi - start) / _GRID) + 1
    grid = start + (s_hi - start) / n * np.arange(n + 1)
    kern = lin * np.exp(grid)
    cf_terms = np.exp(np.multiply.outer(al, np.minimum(grid, s_c)) + log_w0[:, None])
    phi = kern + cf_terms.sum(axis=0)
    levels = np.arange(math.floor(phi[0] / _TURN) + 1, math.ceil(phi[-1] / _TURN)) * _TURN
    edges = np.concatenate(([s_lo], np.interp(levels, phi, grid), [s_c, s_hi]))
    edges.sort()
    left, right = edges[:-1], edges[1:]
    gaps = right - left
    # Phi' is convex, so interpolating its table overestimates it; past s_c only
    # the kernel term moves
    slope = np.where(left < s_c, np.interp(right, grid, kern + al @ cf_terms),
                     lin * np.exp(right))
    pieces = np.ceil(gaps * np.maximum(1.0 / _LN8, slope / _REACH)).astype(np.int64)
    if pieces.sum() > _MAX_PANELS:
        raise AccuracyError(f"rotated-contour rule needs {pieces.sum()} panels, "
                            f"more than its budget of {_MAX_PANELS}", math.inf)
    width = np.repeat(gaps / np.maximum(pieces, 1), pieces)
    k = np.arange(width.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    return np.repeat(edges[:-1], pieces) + k * width, width


def _integrand(ray: _Ray, kind: str, omega: float, t0: float, sigma: np.ndarray,
               ) -> tuple[np.ndarray, np.ndarray]:
    """The integrand's wanted part times t (the ds = dt/t weight) at t = t0 e^sigma,
    and a bound on its roundoff in units of eps.

    The roundoff covers the value's own roundings (component by component),
    the absolute errors of the exponents (kernel: 4 eps w t, from the
    roundings in t, w t and its two projections; cf: |dm| <= eps M
    (few + b|sigma|)), and the shift of the node by the rounding of sigma,
    which moves the value by |dF/ds| eps |sigma|.
    """
    t = t0 * np.exp(sigma)
    pw = np.exp(np.multiply.outer(ray.alph, sigma))               # (t/t0)^alpha per group
    big_m, m_r, m_i = (ray.parts * t0 ** ray.alph) @ pw           # M >= |m|, Re m, Im m
    wt = omega * t
    kappa, beta = ray.sin * wt, ray.cos * wt      # e^{i w theta} = e^{-kappa + i beta}
    asig = np.abs(sigma)
    dm = big_m * (_ROUNDINGS + ray.b * asig)                      # |dm| / eps
    if kind == "density":
        env = t * np.exp(-kappa - m_r)
        f = env * np.cos(ray.phi + beta - m_i)
        return f, env * (_ROUNDINGS + 4.0 * wt + dm + asig * (1.0 + wt + ray.b * big_m))
    cf = np.exp(-m_r)
    if kind == "tail-cf":
        a1 = np.exp(-kappa) * np.sin(beta - m_i)
        a2 = np.sin(m_i)
        f = cf * (a1 + a2)
        grow = cf * wt                            # |e^{i w theta} - 1| |cf| <= w t |cf|
        return f, (cf * (np.abs(a1) + np.abs(a2)) * _ROUNDINGS
                   + grow * (4.0 + dm + asig * (1.0 + ray.b * big_m)))
    # cf - 1 = q_r + i q_i without cancellation: q_r = expm1(-m_r) - 2 cf sin^2(m_i/2)
    s2, c2 = np.sin(0.5 * m_i), np.cos(0.5 * m_i)
    q_r = np.expm1(-m_r) - 2.0 * cf * s2 * s2
    q_i = -2.0 * cf * s2 * c2
    qa = np.abs(q_r) + np.abs(q_i)
    lead = 0.0
    if kind == "tail":
        kern = np.exp(-kappa)
        f = -kern * (np.sin(beta) * q_r + np.cos(beta) * q_i)
    else:
        kern = t * np.exp(-kappa)
        gam = ray.phi + beta
        f = kern * (np.cos(gam) * q_r - np.sin(gam) * q_i)
        lead = 1.0
    return f, kern * (qa * (_ROUNDINGS + 4.0 * wt + asig * (lead + wt))
                      + cf * (dm + ray.b * big_m * asig))


def _ray_integral(spec: MultistableSpec, omega: float, kind: str) -> tuple[float, float]:
    """D(omega) for kind "density" or P(|I| > omega) for kind "tail", with error bound."""
    if math.isinf(omega):
        return 0.0, 0.0
    ray = _ray(spec)
    al = ray.alph
    if kind == "density" and omega * ray.t_cf >= 1.0:
        kind = "density-1"
    elif (kind == "tail" and omega * ray.t_cf < 1.0
          and math.log(omega * ray.sin) + ray.s_cf < math.log(_DECAY)):
        kind = "tail-cf"        # the cf dies before the kernel does
    t0 = ray.t_cf if omega == 0.0 else min(1.0 / omega, ray.t_cf)
    s0 = math.log(t0)
    with np.errstate(over="ignore"):
        if kind == "tail":
            scale = min(1.0, float(np.sum(ray.tail_w * omega ** -al)))
        elif kind == "tail-cf":
            scale = 1.0
        elif omega > 0.0:
            scale = min(ray.d0, float(np.sum(ray.dens_w * omega ** (-al - 1.0))))
        else:
            scale = ray.d0
    tgt = max(_REL * scale, _TINY)

    # stub [0, t_lo]: every remainder term falls at least as fast as t^p
    _, rem0 = _stub(ray, kind, omega, s0)
    s_lo = s0
    if rem0 > tgt:
        s_lo = s0 + math.log(tgt / rem0) / _stub_power(ray, kind)
    stub, stub_rem = _stub(ray, kind, omega, s_lo)
    s_hi, trunc = _truncation(ray, kind, omega, tgt)
    # resolve the cf's phase to the end unless the kernel alone cuts the integrand
    s_c = min(ray.s_cf, s_hi) if kind in ("tail", "density-1") else s_hi
    lo, width = _panels(ray, omega * t0, np.log(ray.w) + al * s0,
                        s_lo - s0, s_hi - s0, s_c - s0)

    # nodes in sigma = s - s0, so rounding moves a node by eps |sigma| at most
    half = 0.5 * width
    sigma = (lo + half)[:, None] + half[:, None] * _X21
    f, node_err = _integrand(ray, kind, omega, t0, sigma.ravel())
    f = f.reshape(sigma.shape)
    kron = (f @ _WK21) * half
    gauss = (f @ _WG21) * half
    rounding = _EPS * float((node_err.reshape(sigma.shape) @ _WK21) @ half)
    total = float(np.sum(kron)) + (stub.real if kind.startswith("density") else stub.imag)
    err = float(np.sum(np.abs(kron - gauss))) + stub_rem + trunc + rounding
    if kind.startswith("density"):
        d = total / math.pi
        return d, err / math.pi + 2.0 * _EPS * abs(d)
    p = 2.0 / math.pi * total
    if kind == "tail-cf":
        p = 1.0 - p
    return float(np.clip(p, 0.0, 1.0)), 2.0 / math.pi * err + 2.0 * _EPS * abs(p)


# ---------------------------------------------------------------------------
# public entry points

def density_with_error(spec: MultistableSpec, x: float,
                       cfg: QuadratureConfig | None = None) -> tuple[float, float]:
    """Density at x and a bound on the absolute error.

    The rule picks its own nodes, so cfg is not read; the bound is
    returned as is and certified by :func:`density`.
    """
    _require_nonzero(spec)
    if math.isnan(x):
        raise ValueError("x is NaN")
    return _ray_integral(spec, abs(x), "density")


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


def tail_probability_with_error(spec: MultistableSpec, lam: float,
                                cfg: QuadratureConfig | None = None) -> tuple[float, float]:
    """P(|I(f)| > lam) and a bound on the absolute error; cfg is not read."""
    _require_nonzero(spec)
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return _ray_integral(spec, lam, "tail")


def tail_probability(spec: MultistableSpec, lam: float,
                     cfg: QuadratureConfig | None = None) -> float:
    """P(|I(f)| > lam), clipped to [0, 1]."""
    cfg = cfg or QuadratureConfig()
    p, err = tail_probability_with_error(spec, lam, cfg)
    _certify("tail probability", err, cfg)
    return p


def cdf(spec: MultistableSpec, x: float, cfg: QuadratureConfig | None = None) -> float:
    """Distribution function F(x) = P(I(f) <= x) of the symmetric law."""
    cfg = cfg or QuadratureConfig()
    _require_nonzero(spec)
    if math.isnan(x):
        raise ValueError("x is NaN")
    if math.isinf(x):
        return 1.0 if x > 0 else 0.0
    if x == 0.0:
        return 0.5
    p, err = _ray_integral(spec, abs(x), "tail")
    _certify("cdf", err / 2.0, cfg)
    return float(np.clip(1.0 - 0.5 * p if x > 0 else 0.5 * p, 0.0, 1.0))


def interval_probability(spec: MultistableSpec, lo: float, hi: float,
                         cfg: QuadratureConfig | None = None) -> float:
    """P(lo < I(f) <= hi) by difference of distribution-function values."""
    cfg = cfg or QuadratureConfig()
    if not lo <= hi:
        raise ValueError(f"need lo <= hi, got ({lo}, {hi})")
    p = cdf(spec, hi, cfg) - cdf(spec, lo, cfg)
    return float(np.clip(p, 0.0, 1.0))
