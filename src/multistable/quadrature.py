"""Quadrature on the panel rule every certified integral shares.

The library's one panel rule is the QUADPACK Gauss-Kronrod 10/21 pair
(``_X21``, ``_WK21``, ``_WG21``), and ``_panel_sums`` is its one application:
per panel, the Kronrod sum, the Kronrod-minus-Gauss sum and the counted
roundoff of an integrand's values and their roundoff at the panel's
``_nodes``.  So there is one error model: a panel's bound is its
|Kronrod - Gauss| plus its roundoff.  ``_add_up`` adds it up over a fixed
panel layout (``_rule`` for an integrand called once on all its nodes), for
the inversion ray rule, whose batched evaluator sums each plan's share of a
block with it, and the mollifier's band integrals (h_q and the Parseval x
side); ``_adaptive`` bisects panels until each piece meets its share of a
tolerance, for the real-axis engine.

The real-axis engine, :func:`fourier_integral` behind the public
:func:`oscillatory_integral`, computes

    integral_0^inf  g(theta) * trig(omega * theta)  d(theta)

for a decaying envelope g that need not extend off the real axis
(``exp(-|t|^0.7)``, say): one loop sums panels between the kernel's zeros,
Euler-accelerated, at omega > 0 and doubling panels at omega = 0.  The
density, tail and cdf of the multistable law do not come through here:
:mod:`multistable.inversion` integrates them with ``_rule`` on a rotated ray,
where the cf's analytic continuation lets the Fourier kernel decay.  The
module also holds what every certified result shares:
:class:`QuadratureConfig`, :class:`AccuracyError` and ``_certify``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["QuadratureConfig", "AccuracyError", "oscillatory_integral"]

_EPS = float(np.finfo(float).eps)
# most pieces _adaptive splits a panel into
_MAX_INTERVALS = 400
# most panels fourier_integral sums on the half-line
_MAX_PANELS = 8192


class AccuracyError(RuntimeError):
    """Raised when a quadrature cannot meet the requested tolerance.

    ``achieved`` carries the best error bound that was obtained.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error bound {achieved:.3e})")
        self.achieved = achieved


def _certify(what: str, err: float, cfg: QuadratureConfig | None) -> None:
    """Raise :class:`AccuracyError` when the error bound err exceeds cfg.abs_tol.

    A cfg of None asks for no certificate.
    """
    if cfg is not None and err > cfg.abs_tol:
        raise AccuracyError(f"{what} did not meet abs_tol", err)


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance for certified integrals, ``QuadratureConfig(abs_tol)``.

    ``abs_tol`` is the absolute error a certified result must meet.
    :func:`fourier_integral` caps its panels at the module's ``_MAX_PANELS``;
    the density, tail and cdf use the rotated-contour rule of
    :mod:`multistable.inversion`, which chooses its own truncation and
    node set.
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


def _sums(lo: np.ndarray, width: np.ndarray, integrand) -> tuple[np.ndarray, ...]:
    """The _panel_sums of ``integrand(x)`` over the panels (lo, width), and the half widths."""
    x, half = _nodes(lo, width)
    return *_panel_sums(integrand(x), half), half


def _add_up(y: np.ndarray, half: np.ndarray) -> tuple[float, float, float]:
    """The Gauss-Kronrod sum of y (see _panel_sums) over its panels, the sum of the
    per-panel Kronrod-minus-Gauss differences and the roundoff bound."""
    kron, diff, node_err = _panel_sums(y, half)
    kron *= half
    return (float(kron.sum()), float(np.abs(diff) @ half),
            float(_EPS * (node_err @ half)))


def _rule(lo: np.ndarray, width: np.ndarray, integrand) -> tuple[float, float, float]:
    """_add_up of ``integrand(x)`` at the nodes of the panels (lo, width)."""
    x, half = _nodes(lo, width)
    return _add_up(integrand(x), half)


def _adaptive(f: Callable, lo: np.ndarray, width: np.ndarray,
              tol) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive GK21 on the panels (lo, width) -> each panel's value and error bound.

    Each round takes the _sums of every unresolved piece in one call of f.  A
    piece's bound is its |Kronrod - Gauss| plus its Kronrod dot product's
    rounding on the integral of |f|, as in _rule.  A piece is bisected until its
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
        kron, diff, rounding, half = _sums(lo, width, integrand)
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
# Euler transformation of an alternating tail

def _euler_accelerate(us: np.ndarray) -> tuple[float, float]:
    """The limit of an alternating series from its terms, and an error estimate:
    the partial sums averaged level by level, taken at the level whose
    correction was smallest, with that correction."""
    arr = np.cumsum(us)
    best, best_err = float(arr[-1]), abs(float(us[-1]))
    while arr.size > 2:
        prev, arr = float(arr[-1]), 0.5 * (arr[:-1] + arr[1:])
        d = abs(float(arr[-1]) - prev)
        if d < best_err:
            best, best_err = float(arr[-1]), d
    return best, best_err


# ---------------------------------------------------------------------------
# main engine

_N_HEAD = 8          # panels summed directly before acceleration
_BATCH = 48          # panels integrated per _adaptive call, between stop checks
_SAFETY = 8.0        # multiplier on the acceleration error estimate


def fourier_integral(env: Callable, omega: float, kernel: str,
                     cfg: QuadratureConfig) -> tuple[float, float]:
    """integral_0^inf env(theta) * kernel(omega * theta) dtheta -> (value, error bound).

    ``env`` must accept numpy arrays; ``kernel`` is "cos" or "sin" and omega
    must be nonnegative.  One loop integrates _BATCH panels per _adaptive call:
    the half periods between the kernel's zeros at omega > 0, [0, 1] and then
    doublings at omega = 0.  At omega > 0 it stops on two small terms or once
    the Euler-accelerated tail meets abs_tol; at omega = 0 once a small panel's
    decay ratio bounds the rest.  The bound adds the panels' bounds, that
    remainder and 8 eps (1 + sum |u|) for the sums' roundoff.  It covers the
    whole half-line, but three of its terms are estimates, not proofs: at
    omega = 0 the remainder u r / (1 - r) takes the rest to shrink by the last
    two panels' ratio r; the Euler term is _SAFETY times the smallest correction
    of the averaged partial sums; and the alternating remainder, the last small
    term, needs an envelope that decreases monotonically.

    No stop rests on a value that is not finite, nor at omega = 0 on a panel
    value of 0: an underflow over a doubling panel can hide up to 2^-51 (at
    omega > 0, a half period times the least subnormal).  When no stop holds
    within _MAX_PANELS panels or the finite edges, AccuracyError carries the
    best Euler bound, or inf.
    """
    if kernel not in ("cos", "sin"):
        raise ValueError("kernel must be 'cos' or 'sin'")
    if omega < 0.0:
        raise ValueError("omega must be nonnegative")
    if omega == 0.0 and kernel == "sin":
        return 0.0, 0.0
    trig = np.cos if kernel == "cos" else np.sin

    def f(t):
        return env(t) * trig(omega * t)

    tol, lo, best = cfg.abs_tol, 0.0, math.inf
    us = qerr = np.empty(0)
    for start in range(0, _MAX_PANELS, _BATCH):
        k = np.arange(start, min(start + _BATCH, _MAX_PANELS))
        with np.errstate(over="ignore", invalid="ignore"):
            if omega == 0.0:  # [0, 1] and then doublings
                his, shares = np.ldexp(1.0, k), np.full(k.size, tol * 1e-2)
            else:  # half periods between the kernel's zeros
                gap = math.pi / omega
                his = (0.5 if kernel == "cos" else 1.0) * gap + gap * k
                shares = tol * 1e-3 / (1.0 + k) ** 2
        his = his[np.isfinite(his)]
        if not his.size:
            break
        edges, lo = np.concatenate(([lo], his)), his[-1]
        u, e = _adaptive(f, edges[:-1], np.diff(edges), shares[:his.size])
        us, qerr = np.append(us, u), np.append(qerr, e)
        a = np.abs(us)
        err = np.cumsum(qerr) + 8 * _EPS * (1.0 + np.cumsum(a))
        j = np.arange(max(start, 2), us.size)
        with np.errstate(divide="ignore", invalid="ignore"):
            if omega > 0.0:
                rest = a[j]
                stop = np.maximum(a[j - 1], a[j]) < tol / 8
            else:
                r = a[j] / a[j - 1]
                rest = a[j] * r / (1.0 - r)
                stop = (a[j] < tol / 8) & (a[j] > 0.0) & (r < 0.9)
        stop &= np.isfinite(err[j] + rest)
        if stop.any():
            i = int(np.argmax(stop))
            return float(np.sum(us[:j[i] + 1])), float(err[j[i]] + rest[i])
        if omega > 0.0 and us.size >= _N_HEAD + 16:
            est, aerr = _euler_accelerate(us[_N_HEAD:])
            best = min(best, float(_SAFETY * aerr + err[-1]))
            if best < tol:
                return float(np.sum(us[:_N_HEAD]) + est), best
    raise AccuracyError(f"half-line integral did not reach abs_tol={tol:.1e} within "
                        f"{us.size} panels", best)


def oscillatory_integral(integrand: Callable, frequency: float,
                         cfg: QuadratureConfig | None = None,
                         kernel: str = "cos") -> float:
    """Public entry point: integral_0^inf integrand(theta)*kernel(frequency*theta).

    Raises :class:`AccuracyError` when the tolerance cannot be certified.  At
    frequency 0 no stop rests on a panel value of 0 (see
    :func:`fourier_integral`), so an integrand that is 0 on a whole doubling
    panel, such as one of compact support, always raises, with ``achieved``
    inf.
    """
    cfg = cfg or QuadratureConfig()
    val, err = fourier_integral(integrand, frequency, kernel, cfg)
    _certify("oscillatory integral", err, cfg)
    return val
