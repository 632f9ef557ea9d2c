"""Explicit tail asymptote of the multistable law and its scaling diagnostics.

The first-order tail constant for a symmetric stable law with exponent
gamma in (0, 2) is

    C(gamma) = (2/pi) Gamma(gamma) sin(pi gamma / 2)

(:func:`~multistable.function_space.tail_constant`, 2/pi at gamma = 1).
For step data the tail asymptote

    T(lam) = integral |f(x)/lam|^alpha(x) C(alpha(x)) dx

is an exact finite sum sum_g w_g lam^(-alpha_g) over the exponent groups.  The ratio
P(|I(f)| > lam) / T(lam) tends to 1 as lam grows, uniformly over the
unit sphere of the quasinorm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .function_space import MultistableSpec, quasinorm, tail_constant
from .inversion import _tails_with_error
from .quadrature import QuadratureConfig, _certify

__all__ = [
    "tail_constant",
    "TailAsymptote",
    "tail_asymptote",
    "ratio",
    "ratio_with_error",
    "scaling_bounds_check",
]

_ZERO = "tail asymptote undefined for f == 0"


def _tail_weights(groups) -> list[float]:
    """w_g = W_g * C(alpha_g) for each exponent group (alpha_g, W_g)."""
    return [w * tail_constant(a) for a, w in groups]


def _asymptote(lam: np.ndarray, exponents: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """T = sum_g w_g lam^(-alpha_g) at the points on lam's last axis, the
    groups on the last axis of exponents and weights, any leading axes
    stacked: the one evaluation of T, for TailAsymptote and _scaling_bounds.  A
    grid is one matrix product, which rounds 1 ulp away from one-point calls on
    about 9% of points, so the CLI rows and lemma sweeps take T a point at a time
    to keep their pinned digests."""
    return np.matmul(lam[..., None] ** -exponents[..., None, :], weights[..., None])[..., 0]


@dataclass(frozen=True, eq=False)
class TailAsymptote:
    """``TailAsymptote(spec)``: per exponent group ``weights`` w_g = W_g * C(alpha_g)
    and ``exponents`` alpha_g, derived from ``spec.groups`` (ValueError if empty)."""

    spec: MultistableSpec
    weights: np.ndarray = field(init=False)
    exponents: np.ndarray = field(init=False)

    def __post_init__(self):
        groups = self.spec.groups
        if not groups:
            raise ValueError(_ZERO)
        object.__setattr__(self, "weights", np.array(_tail_weights(groups)))
        object.__setattr__(self, "exponents", np.array([a for a, _ in groups]))

    @staticmethod
    def from_spec(spec: MultistableSpec) -> "TailAsymptote":
        return TailAsymptote(spec)

    def __call__(self, lam) -> float | np.ndarray:
        """T at each lambda of lam; ValueError for one that is not positive
        (NaN included), and T(inf) = 0."""
        lam = np.asarray(lam, dtype=float)
        flat = lam.reshape(-1)
        if flat.size and not flat.min() > 0.0:
            raise ValueError(f"lambda must be positive, got {flat[~(flat > 0.0)][0]}")
        out = _asymptote(flat, self.exponents, self.weights).reshape(lam.shape)
        return float(out) if out.shape == () else out


def tail_asymptote(spec: MultistableSpec, lam: float) -> float:
    """T(lam) = sum_g w_g lam^(-alpha_g), exact for step data."""
    return TailAsymptote(spec)(lam)


_SPHERE_TOL = 1e-6


def _require_unit_sphere(spec: MultistableSpec):
    if abs(quasinorm(spec) - 1.0) > _SPHERE_TOL:
        raise ValueError(
            "spec must be normalized to the unit sphere (quasinorm 1); "
            "use normalize_to_sphere first")


def _check_ratio_lambda(lam: float):
    if not 1.0 <= lam < math.inf:
        raise ValueError(f"ratio is defined for finite lambda >= 1, got {lam}")


def _ratio_parts(spec: MultistableSpec, lams: list[float]) -> list[tuple[float, float, float]]:
    """(T(lam), P(|I(f)| > lam), P's error bound) at each lambda, uncertified: the
    tails evaluated in blocks.  Before any is planned, each lambda is
    range-checked, in order, the unit sphere checked after the first and T
    built once; ValueError at the first check that fails."""
    for i, lam in enumerate(lams):
        _check_ratio_lambda(lam)
        if not i:   # the spec is on the unit sphere, so not 0
            _require_unit_sphere(spec)
            asymptote = TailAsymptote(spec)
    # T one lambda at a time, as a grid would move pinned digests (see _asymptote)
    tails = _tails_with_error(spec, lams)
    return [(asymptote(lam), p, perr) for lam, (p, perr) in zip(lams, tails)]


def ratio_with_error(spec: MultistableSpec, lam: float,
                     cfg: QuadratureConfig | None = None) -> tuple[float, float]:
    """(P(|I(f)| > lam) / T(lam), error bound on the ratio): the one-lambda call
    of _ratio_parts, with P's bound certified against cfg (default abs_tol 1e-10)."""
    (t, p, perr), = _ratio_parts(spec, [lam])
    _certify("tail probability inside ratio", perr, cfg or QuadratureConfig())
    return p / t, perr / t


def ratio(spec: MultistableSpec, lam: float,
          cfg: QuadratureConfig | None = None) -> float:
    return ratio_with_error(spec, lam, cfg)[0]


_SLACK = 1.0 + 1e-12  # floating-point slack on closed-form inequalities


def _check_xi(xi: float):
    if not 1.0 <= xi < math.inf:
        raise ValueError(f"xi must be a finite number >= 1, got {xi}")


def _within(lo, v, hi):
    return (lo <= v * _SLACK) & (v <= hi * _SLACK)


def _scaling_bounds(groups: list, a, b, xi, delta) -> tuple[np.ndarray, np.ndarray]:
    """scaling_bounds_check for n samples at once: sample k has the exponent
    groups ``groups[k]`` (``spec.groups``), the exponent range ``a[k]``,
    ``b[k]`` (``spec.a``, ``spec.b``, over all of alpha's values) and the point
    ``(xi[k], delta[k])``.

    Returns T at (1, xi, d_lo xi, d_hi xi), shape (n, 4), and the three
    verdicts, shape (n, 3).  An invalid sample is refused as a loop of
    scalar checks would refuse it: the first in order, its xi before its
    delta before its groups.  The groups are padded to the longest with
    weight 0 at exponent 0, whose terms are exact zeros, and T is
    :func:`_asymptote` on the stacked samples, as ``TailAsymptote``'s is on one.
    """
    xi, delta = np.asarray(xi, dtype=float), np.asarray(delta, dtype=float)
    counts = np.fromiter(map(len, groups), dtype=np.intp, count=len(groups))
    bad = ~((1.0 <= xi) & (xi < math.inf)) | ~((0.0 < delta) & (delta < math.inf))
    bad |= counts == 0
    if bad.any():
        k = int(np.argmax(bad))
        _check_xi(float(xi[k]))
        if not 0.0 < delta[k] < math.inf:
            raise ValueError(f"delta must be a finite positive number, got {float(delta[k])}")
        raise ValueError(_ZERO)
    pad = np.arange(counts.max()) < counts[:, None]  # row-major, as flat
    flat = [g for gs in groups for g in gs]
    exps, wts = np.zeros(pad.shape), np.zeros(pad.shape)
    exps[pad] = [al for al, _ in flat]
    wts[pad] = _tail_weights(flat)
    with np.errstate(over="ignore"):  # 1/delta and d_hi xi may be inf, where T is 0
        d_lo, d_hi = np.minimum(delta, 1.0 / delta), np.maximum(delta, 1.0 / delta)
        lam = np.stack([np.ones_like(xi), xi, d_lo * xi, d_hi * xi], axis=1)
    t = _asymptote(lam, exps, wts)
    t1, txi, t_lo, t_hi = t.T
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    with np.errstate(over="raise"):  # a bound past the float range is no verdict
        ok = np.stack([_within(xi ** -b * t1, txi, xi ** -a * t1),
                       _within(d_lo ** -a * txi, t_lo, d_lo ** -b * txi),
                       _within(d_hi ** -b * txi, t_hi, d_hi ** -a * txi)], axis=1)
    return t, ok


def scaling_bounds_check(spec: MultistableSpec, xi: float, delta: float,
                         ) -> tuple[bool, bool, bool]:
    """Check the three closed-form scaling sandwiches of T.

    Returns pass/fail for, in order,

    1. xi^(-b) T(1) <= T(xi) <= xi^(-a) T(1)          (xi >= 1)
    2. d^(-a) T(xi) <= T(d xi) <= d^(-b) T(xi)        at d = min(delta, 1/delta)
    3. d^(-b) T(xi) <= T(d xi) <= d^(-a) T(xi)        at d = max(delta, 1/delta)

    so a single (xi, delta) draw exercises both branches of the
    delta-scaling remark, with xi as the base point.  It is the one-sample
    call of :func:`_scaling_bounds`.
    """
    _, ok = _scaling_bounds([spec.groups], [spec.a], [spec.b], [xi], [delta])
    return tuple(ok[0].tolist())
