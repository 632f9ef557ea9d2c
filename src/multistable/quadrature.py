"""Quadrature on the panel rule every certified integral shares.

The library's one panel rule is the QUADPACK Gauss-Kronrod 10/21 pair
(``_X21``, ``_WK21``, ``_WG21``), and ``_panel_sums`` is its one application:
per panel, the Kronrod sum, the Kronrod-minus-Gauss sum and the counted
roundoff of an integrand's values and their roundoff at the panel's
``_nodes``.  So a panel's bound is its |Kronrod - Gauss| plus its roundoff.
``_add_up`` adds it up over a fixed panel layout for the inversion ray rule,
the mollifier's band integrals and rho's table; ``_adaptive`` bisects panels
until each piece meets its share of a tolerance, for the real-axis engine.

The real-axis engine, :func:`fourier_integral` behind the public
:func:`oscillatory_integral`, integrates g(theta) trig(omega theta) over the
half-line for an envelope g that need not extend off the real axis
(``exp(-t^0.7)``, say): 48 half periods with a CRVZ-accelerated tail at
omega > 0, doubling panels at omega = 0.  :mod:`multistable.inversion`
integrates the multistable density, tail and cdf with ``_add_up`` on a
rotated ray.  The module also holds what every certified result shares:
:class:`QuadratureConfig`, :class:`AccuracyError` and ``_certify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["QuadratureConfig", "AccuracyError", "oscillatory_integral"]

_EPS = float(np.finfo(float).eps)
_MAX_INTERVALS = 400  # most pieces _adaptive splits a panel into
_MAX_PANELS = 1024    # doubling panels at omega = 0: [0, 1] and [2^k, 2^(k+1)] below the float max


class AccuracyError(RuntimeError):
    """Raised when a quadrature cannot meet the requested tolerance.

    ``achieved`` carries the best error bound that was obtained.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error bound {achieved:.3e})")
        self.achieved = achieved


def _certify(what: str, err: float, cfg: QuadratureConfig | None) -> None:
    """Raise :class:`AccuracyError` unless the error bound err is at most cfg.abs_tol;
    a NaN bound is unmet.

    A cfg of None asks for no certificate.
    """
    if cfg is not None and not err <= cfg.abs_tol:
        raise AccuracyError(f"{what} did not meet abs_tol", err)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance for certified integrals, ``QuadratureConfig(abs_tol)``.

    ``abs_tol`` is the absolute error a certified result must meet.  It is the
    one setting: :func:`fourier_integral` takes 48 half periods at omega > 0
    and at most the module's ``_MAX_PANELS`` doubling panels at omega = 0, and
    the rotated-contour rule of :mod:`multistable.inversion` chooses its own
    truncation and nodes.
    """

    abs_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be finite and positive, got {self.abs_tol}")


# ---------------------------------------------------------------------------
# Gauss-Kronrod 10/21 pair on [-1, 1] (QUADPACK qk21), the library's one panel
# rule; Gauss weights are 0 at the Kronrod-only nodes

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
# columns: the Kronrod weights and the Kronrod-minus-Gauss weights
_W21 = np.stack((_WK21, _WK21 - _WG21), axis=1)


def _nodes(lo: np.ndarray, width: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The GK21 nodes of the panels (lo, width), panel after panel, and the half widths."""
    half = 0.5 * width
    return ((lo + half)[:, None] + half[:, None] * _X21).ravel(), half


def _panel_sums(y: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-panel GK21 sums of y, a (2, n) array of an integrand's values and their
    roundoff in units of eps at the _nodes of panels with these half widths, each
    panel on [-1, 1]: the Kronrod sums, the Kronrod-minus-Gauss sums and the
    roundoff sums.  One product against the two weight columns gives all three."""
    sums = y.reshape(-1, _X21.size) @ _W21
    n = half.size
    return sums[:n, 0], sums[:n, 1], sums[n:, 0]


def _add_up(y: np.ndarray, half: np.ndarray) -> tuple[float, float, float]:
    """The Gauss-Kronrod sum of y (see _panel_sums) over its panels, the sum of the
    per-panel Kronrod-minus-Gauss differences and the roundoff bound."""
    kron, diff, node_err = _panel_sums(y, half)
    kron *= half
    return (float(kron.sum()), float(np.abs(diff) @ half),
            float(_EPS * (node_err @ half)))


def _adaptive(f: Callable, lo: np.ndarray, width: np.ndarray,
              tol) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive GK21 on the panels (lo, width) -> each panel's value and error bound.

    Each round takes the _panel_sums of every unresolved piece in one call of
    f.  A piece's bound is its |Kronrod - Gauss| plus its Kronrod dot product's
    rounding on the integral of |f|.  A piece is bisected until its
    |K - G| is within its share of its panel's tol (tol times its share of the
    width), is within that rounding, or the piece is at machine resolution, and
    until its panel's whole bound is within tol; a panel takes at most
    _MAX_INTERVALS pieces.
    """
    n = lo.size
    share = tol / width
    owner, pieces = np.arange(n), np.ones(n, dtype=int)
    val, err = np.zeros(n), np.zeros(n)

    def integrand(x):
        # roundoff in units of eps: the Kronrod dot product 10.5, the half width 1/2
        y = np.asarray(f(x), dtype=float)
        return np.stack((y, 11.0 * np.abs(y)))

    while owner.size:
        x, half = _nodes(lo, width)
        kron, diff, rounding = _panel_sums(integrand(x), half)
        kron *= half
        kg, rounding = np.abs(diff) * half, _EPS * rounding * half
        bound = err + np.bincount(owner, kg + rounding, n)
        split = ((kg > share[owner] * width) & (kg > rounding) & (bound > tol)[owner]
                 & (width > 64.0 * _EPS * np.maximum(np.abs(lo) + width, 1.0)))
        new = np.bincount(owner[split], minlength=n)
        full = pieces + new > _MAX_INTERVALS
        split &= ~full[owner]
        pieces += np.where(full, 0, new)
        done = ~split
        val += np.bincount(owner[done], kron[done], n)
        err += np.bincount(owner[done], kg[done] + rounding[done], n)
        owner, lo, half = np.repeat(owner[split], 2), lo[split], half[split]
        lo, width = np.stack((lo, lo + half), axis=1).ravel(), np.repeat(half, 2)
    return val, err


def adaptive_gk(f: Callable, a: float, b: float, tol: float) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod on [a, b] (one panel of _adaptive); returns (value, error bound)."""
    val, err = _adaptive(f, np.array([a], dtype=float), np.array([b - a], dtype=float), tol)
    return float(val[0]), float(err[0])


# ---------------------------------------------------------------------------
# main engine

_N_HEAD = 8          # half periods summed directly at omega > 0
_N_TAIL = 40         # half periods after them, summed with CRVZ weights
_BATCH = 48          # doubling panels per _adaptive call at omega = 0, between stop checks


def _crvz_weights(n: int) -> tuple[np.ndarray, float]:
    """Algorithm 1 of Cohen, Rodriguez Villegas and Zagier for n alternating terms:
    the weights |c_k| / d_n, each one correctly rounded ratio of integers (d_n =
    T_n(3), and the b_k and c_k are integers), and 1 / d_n rounded up."""
    t0, d = 1, 3  # T_0(3), T_1(3); T_m+1 = 6 T_m - T_m-1
    for _ in range(n - 1):
        t0, d = d, 6 * d - t0
    b, c, w = -1, -d, []
    for k in range(n):
        c = b - c
        w.append(abs(c) / d)
        b = b * 2 * (k + n) * (k - n) // ((2 * k + 1) * (k + 1))
    return np.array(w), math.nextafter(1 / d, 1.0)


_CRVZ, _REMAINDER = _crvz_weights(_N_TAIL)
_WEIGHTS = np.concatenate((np.ones(_N_HEAD), _CRVZ))  # of each half period's value


def fourier_integral(env: Callable, omega: float, kernel: str,
                     cfg: QuadratureConfig) -> tuple[float, float]:
    """integral_0^inf env(theta) * kernel(omega * theta) dtheta -> (value, error bound).

    ``env`` must accept numpy arrays; ``kernel`` is "cos" or "sin".  An omega
    that is not finite and nonnegative, or whose 48 half periods pi/omega pass
    the largest float, raises ValueError before env is called.  The pair is
    returned whatever abs_tol; :func:`oscillatory_integral` certifies it.

    At omega > 0 one _adaptive call integrates the 48 half periods u_k between
    the kernel's zeros (tol 1e-3 abs_tol / (1 + k)^2 each).  The value is
    u_0 + ... + u_7 plus the CRVZ sum of u_8..u_47, summed with math.fsum.  If
    env(t) = int e^(-st) dmu(s), mu >= 0, then |u_8+j| = int x^j dnu(x) with
    nu >= 0, and the CRVZ sum is within |u_8| / d_40 (< 5e-31 |u_8|) of the
    whole tail (Experimental Math. 9, 2000, Prop. 1).  The bound adds that
    remainder (with u_8's bound added to |u_8|), sum w_k e_k of the half
    periods' bounds, and 2 eps sum w_k |u_k| for the rounding of each weight,
    each product and the sum.  A bound that is not finite raises AccuracyError
    with achieved inf.

    At omega = 0 a loop integrates [0, 1] and doublings, _BATCH per _adaptive
    call (tol abs_tol / 100 each), until a small panel u with decay ratio
    r < 0.9 estimates the rest as u r / (1 - r); the bound adds that, the
    panels' bounds and 8 eps (1 + sum |u|).  No stop rests on a value that is
    not finite or on a 0 panel (an underflow can hide 2^-51); with none within
    the _MAX_PANELS panels, whose last edge 2^1023 is the largest power of 2
    below the float max, AccuracyError carries achieved inf.
    """
    if kernel not in ("cos", "sin"):
        raise ValueError("kernel must be 'cos' or 'sin'")
    if not 0.0 <= omega < math.inf:
        raise ValueError(f"omega must be finite and nonnegative, got {omega}")
    if omega == 0.0 and kernel == "sin":
        return 0.0, 0.0
    trig = np.cos if kernel == "cos" else np.sin

    def f(t):
        return env(t) * trig(omega * t)

    tol = cfg.abs_tol
    if omega > 0.0:
        gap = math.pi / float(omega)
        if not math.isfinite(gap * _WEIGHTS.size):
            raise ValueError(f"the half periods of omega={omega} pass the largest float")
        k = np.arange(_WEIGHTS.size)
        edges = np.concatenate(([0.0], (0.5 if kernel == "cos" else 1.0) * gap + gap * k))
        u, e = _adaptive(f, edges[:-1], np.diff(edges), tol * 1e-3 / (1.0 + k) ** 2)
        err = float(_WEIGHTS @ (e + 2 * _EPS * np.abs(u))
                    + (abs(u[_N_HEAD]) + e[_N_HEAD]) * _REMAINDER)
        if not math.isfinite(err):
            raise AccuracyError("half-line integral has no finite error bound", math.inf)
        return math.fsum(_WEIGHTS * u), err

    lo = 0.0
    us = qerr = np.empty(0)
    for start in range(0, _MAX_PANELS, _BATCH):
        his = np.ldexp(1.0, np.arange(start, min(start + _BATCH, _MAX_PANELS)))
        edges, lo = np.concatenate(([lo], his)), his[-1]
        u, e = _adaptive(f, edges[:-1], np.diff(edges), np.full(his.size, tol * 1e-2))
        us, qerr = np.append(us, u), np.append(qerr, e)
        a = np.abs(us)
        err = np.cumsum(qerr) + 8 * _EPS * (1.0 + np.cumsum(a))
        j = np.arange(max(start, 2), us.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = a[j] / a[j - 1]
            rest = a[j] * r / (1.0 - r)
            stop = (a[j] < tol / 8) & (a[j] > 0.0) & (r < 0.9) & np.isfinite(err[j] + rest)
        if stop.any():
            i = int(np.argmax(stop))
            return float(np.sum(us[:j[i] + 1])), float(err[j[i]] + rest[i])
    raise AccuracyError(f"half-line integral did not reach abs_tol={tol:.1e} within "
                        f"{us.size} panels", math.inf)


def oscillatory_integral(integrand: Callable, frequency: float,
                         cfg: QuadratureConfig | None = None,
                         kernel: str = "cos") -> float:
    """Public entry point: integral_0^inf integrand(theta)*kernel(frequency*theta).

    Raises :class:`AccuracyError` when the tolerance cannot be certified.  At
    frequency > 0 the acceleration's remainder is proven when the integrand is
    completely monotone, integrand(t) = int_0^inf e^(-st) dmu(s) with mu >= 0
    (e^-t, 1/(1 + t), e^-t / t, e^(-t^0.7)), and not otherwise (e^(-t^2),
    1/(1 + t^2)); the caller vouches for it, nothing checks it.  At frequency 0
    the remainder is a decay-ratio estimate and no stop rests on a panel value
    of 0, so an integrand that is 0 on a whole doubling panel, such as one of
    compact support, always raises, with ``achieved`` inf.
    """
    cfg = cfg or QuadratureConfig()
    val, err = fourier_integral(integrand, frequency, kernel, cfg)
    _certify("oscillatory integral", err, cfg)
    return val
