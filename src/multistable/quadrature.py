"""Generic real-axis oscillatory quadrature.

Semi-infinite integrals of the form

    integral_0^inf  g(theta) * trig(omega * theta)  d(theta)

with a decaying envelope g are computed by splitting the axis at the
zeros of the trigonometric factor, integrating each panel with adaptive
Gauss-Kronrod, and Euler-accelerating the resulting alternating series.
For envelopes that die before oscillation matters the panel terms reach
the tolerance directly and the alternating-series remainder bound is
used instead.

This engine serves only :func:`oscillatory_integral`, for envelopes that
need not extend off the real axis (``exp(-|t|^0.7)``, say).  The density,
tail and cdf of the multistable law do not come through here:
:mod:`multistable.inversion` integrates them with a fixed rule on a
rotated ray, where the cf's analytic continuation lets the Fourier
kernel decay.  The module also holds what every certified result shares:
:class:`QuadratureConfig`, :class:`AccuracyError` and the one panel rule
table, the QUADPACK Gauss-Kronrod 10/21 pair (``_X21``, ``_WK21``,
``_WG21``).  :func:`adaptive_gk` applies it panel by panel with QUADPACK's
error heuristic, for the real-axis engine alone; ``_rule`` sums it over a
fixed panel layout at once, with closed-form error terms, for the inversion
ray rule and for the mollifier's band integrals (h_q and the Parseval x
side).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["QuadratureConfig", "AccuracyError", "oscillatory_integral", "fourier_integral"]

_EPS = float(np.finfo(float).eps)
# most panels adaptive_gk splits [a, b] into
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
        if self.abs_tol <= 0.0:
            raise ValueError("abs_tol must be positive")


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


def _rule(lo: np.ndarray, width: np.ndarray, integrand) -> tuple[float, float, float]:
    """The Gauss-Kronrod sum over the panels (lo, width), the sum of the per-panel
    Kronrod-minus-Gauss differences and the roundoff bound.  ``integrand(x)``
    returns a (2, n) array, the values and their roundoff in units of eps; one
    product against the two weight columns gives all three per panel."""
    half = 0.5 * width
    x = (lo + half)[:, None] + half[:, None] * _X21
    sums = integrand(x.ravel()).reshape(-1, _X21.size) @ _W21
    n = half.size
    kron, diff, node_err = sums[:n, 0], sums[:n, 1], sums[n:, 0]
    kron *= half
    return (float(np.sum(kron)), float(np.abs(diff) @ half),
            float(_EPS * (node_err @ half)))


def _gk21(f: Callable, a: float, b: float) -> tuple[float, float]:
    h = 0.5 * (b - a)
    x = 0.5 * (a + b) + h * _X21
    y = np.asarray(f(x), dtype=float)
    k = h * float(_WK21 @ y)
    g = h * float(_WG21 @ y)
    err = abs(k - g)
    resasc = abs(h) * float(_WK21 @ np.abs(y - k / (b - a)))
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return k, err


def adaptive_gk(f: Callable, a: float, b: float, tol: float) -> tuple[float, float]:
    """Globally adaptive Gauss-Kronrod on [a, b]; returns (value, error bound)."""
    val, err = _gk21(f, a, b)
    heap = [(-err, a, b, val, err)]
    total, toterr = val, err
    n = 1
    while toterr > tol and n < _MAX_INTERVALS:
        negerr, lo, hi, v, e = heapq.heappop(heap)
        if hi - lo <= 64 * _EPS * max(abs(lo), abs(hi), 1.0):
            # interval exhausted at machine resolution
            heapq.heappush(heap, (0.0, lo, hi, v, e))
            if all(item[0] == 0.0 for item in heap):
                break
            continue
        mid = 0.5 * (lo + hi)
        v1, e1 = _gk21(f, lo, mid)
        v2, e2 = _gk21(f, mid, hi)
        total += v1 + v2 - v
        toterr += e1 + e2 - e
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        n += 2
    return total, toterr


# ---------------------------------------------------------------------------
# Euler transformation of an alternating tail

def _euler_accelerate(us: list[float]) -> tuple[float, float]:
    """Estimate the limit of an alternating series from its terms.

    Repeatedly averages the partial sums; returns the value at the level
    where the last correction was smallest, with that correction as the
    error estimate.
    """
    arr = np.cumsum(us)
    best = float(arr[-1])
    best_err = abs(us[-1])
    prev = arr[-1]
    while arr.size > 2:
        arr = 0.5 * (arr[:-1] + arr[1:])
        d = abs(float(arr[-1]) - prev)
        prev = float(arr[-1])
        if d < best_err:
            best_err = d
            best = prev
    return best, best_err


# ---------------------------------------------------------------------------
# main engine

_N_HEAD = 8          # panels summed directly before acceleration
_BATCH = 48          # panels collected between acceleration attempts
_SAFETY = 8.0        # multiplier on the acceleration error estimate


def _zero_split(env: Callable, omega: float, kernel: str,
                cfg: QuadratureConfig) -> tuple[float, float]:
    gap = math.pi / omega
    trig = np.cos if kernel == "cos" else np.sin
    first_hi = 0.5 * gap if kernel == "cos" else gap

    def f(t):
        return np.asarray(env(t), dtype=float) * trig(omega * t)

    us: list[float] = []
    qerr = 0.0
    sumabs = 0.0
    lo = 0.0
    k = 0
    best_err = math.inf
    best_val = 0.0
    while k < _MAX_PANELS:
        for _ in range(_BATCH):
            if k >= _MAX_PANELS:
                break
            hi = first_hi + k * gap
            u, e = adaptive_gk(f, lo, hi, cfg.abs_tol * 1e-3 / (1 + k) ** 2)
            us.append(u)
            qerr += e
            sumabs += abs(u)
            lo = hi
            k += 1
            if k > 2 and abs(us[-1]) < cfg.abs_tol / 8 and abs(us[-2]) < cfg.abs_tol / 8:
                # terms below tolerance: alternating remainder <= |u_last|
                err = qerr + abs(us[-1]) + 8 * _EPS * (1.0 + sumabs)
                return sum(us), err
        if k >= _N_HEAD + 16:
            est, aerr = _euler_accelerate(us[_N_HEAD:])
            err = _SAFETY * aerr + qerr + 8 * _EPS * (1.0 + sumabs)
            val = sum(us[:_N_HEAD]) + est
            if err < best_err:
                best_err, best_val = err, val
            if err < cfg.abs_tol:
                return val, err
    raise AccuracyError(
        f"oscillatory integral did not reach abs_tol={cfg.abs_tol:.1e} "
        f"within {_MAX_PANELS} panels", best_err)


def _nonoscillatory(env: Callable, cfg: QuadratureConfig) -> tuple[float, float]:
    """integral_0^inf env on geometric panels with a decay-ratio remainder; env must decay."""
    total, toterr = adaptive_gk(env, 0.0, 1.0, cfg.abs_tol * 1e-2)
    a, b = 1.0, 2.0
    prev = math.inf
    for _ in range(_MAX_PANELS):
        u, e = adaptive_gk(env, a, b, cfg.abs_tol * 1e-2)
        total += u
        toterr += e
        ratio = abs(u) / prev if prev > 0 else 0.0
        prev = abs(u)
        if abs(u) < cfg.abs_tol / 8 and ratio < 0.9:
            rem = abs(u) * ratio / (1.0 - ratio)
            return total, toterr + rem
        a, b = b, 2.0 * b
    raise AccuracyError("non-oscillatory tail did not decay within the panel budget",
                        toterr + prev)


def fourier_integral(env: Callable, omega: float, kernel: str,
                     cfg: QuadratureConfig) -> tuple[float, float]:
    """integral_0^inf env(theta) * kernel(omega * theta) dtheta -> (value, error bound).

    ``env`` must accept numpy arrays and should decrease monotonically for
    the alternating-series machinery to apply.  ``kernel`` is "cos" or
    "sin"; omega must be nonnegative.  The bound covers the whole
    half-line: at omega = 0 the geometric panels run until the envelope's
    decay ratio bounds the remainder.
    """
    if kernel not in ("cos", "sin"):
        raise ValueError("kernel must be 'cos' or 'sin'")
    if omega < 0.0:
        raise ValueError("omega must be nonnegative")
    if omega == 0.0:
        if kernel == "sin":
            return 0.0, 0.0
        return _nonoscillatory(env, cfg)
    return _zero_split(env, omega, kernel, cfg)


def oscillatory_integral(integrand: Callable, frequency: float,
                         cfg: QuadratureConfig | None = None,
                         kernel: str = "cos") -> float:
    """Public entry point: integral_0^inf integrand(theta)*kernel(frequency*theta).

    Raises :class:`AccuracyError` when the tolerance cannot be certified.
    """
    cfg = cfg or QuadratureConfig()
    val, err = fourier_integral(integrand, frequency, kernel, cfg)
    _certify("oscillatory integral", err, cfg)
    return val
