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
from .inversion import _tails_with_error, tail_probability_with_error
from .quadrature import QuadratureConfig, _certify

__all__ = [
    "tail_constant",
    "TailAsymptote",
    "tail_asymptote",
    "ratio",
    "ratio_with_error",
    "scaling_bounds_check",
]

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
            raise ValueError("tail asymptote undefined for f == 0")
        object.__setattr__(self, "weights", np.array([w * tail_constant(a) for a, w in groups]))
        object.__setattr__(self, "exponents", np.array([a for a, _ in groups]))

    @staticmethod
    def from_spec(spec: MultistableSpec) -> "TailAsymptote":
        return TailAsymptote(spec)

    def __call__(self, lam) -> float | np.ndarray:
        lam = np.asarray(lam, dtype=float)
        out = np.power.outer(lam, -self.exponents) @ self.weights
        return float(out) if out.shape == () else out


def tail_asymptote(spec: MultistableSpec, lam: float) -> float:
    """T(lam) = sum_g w_g lam^(-alpha_g), exact for step data."""
    if not lam > 0.0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return float(TailAsymptote.from_spec(spec)(lam))


_SPHERE_TOL = 1e-6


def _require_unit_sphere(spec: MultistableSpec):
    if abs(quasinorm(spec) - 1.0) > _SPHERE_TOL:
        raise ValueError(
            "spec must be normalized to the unit sphere (quasinorm 1); "
            "use normalize_to_sphere first")


def ratio_with_error(spec: MultistableSpec, lam: float,
                     cfg: QuadratureConfig | None = None) -> tuple[float, float]:
    """(P(|I(f)| > lam) / T(lam), error bound on the ratio)."""
    cfg = cfg or QuadratureConfig()
    _check_ratio(spec, lam)
    t = tail_asymptote(spec, lam)
    p, perr = tail_probability_with_error(spec, lam, cfg)
    _certify("tail probability inside ratio", perr, cfg)
    return p / t, perr / t


def _check_ratio(spec: MultistableSpec, lam: float):
    if not 1.0 <= lam < math.inf:
        raise ValueError(f"ratio is defined for finite lambda >= 1, got {lam}")
    _require_unit_sphere(spec)


def _ratios_with_error(spec: MultistableSpec, lams: list[float],
                       cfg: QuadratureConfig | None = None):
    """ratio_with_error at each lambda, the tails evaluated in blocks: yields in
    order and raises where a loop of scalar calls would."""
    cfg = cfg or QuadratureConfig()

    def checked():
        for lam in lams:
            _check_ratio(spec, lam)
            yield lam
    for lam, (p, perr) in zip(lams, _tails_with_error(spec, checked())):
        t = tail_asymptote(spec, lam)
        _certify("tail probability inside ratio", perr, cfg)
        yield p / t, perr / t


def ratio(spec: MultistableSpec, lam: float,
          cfg: QuadratureConfig | None = None) -> float:
    return ratio_with_error(spec, lam, cfg)[0]


_SLACK = 1.0 + 1e-12  # floating-point slack on closed-form inequalities


def scaling_bounds_check(spec: MultistableSpec, xi: float, delta: float,
                         ) -> tuple[bool, bool, bool]:
    """Check the three closed-form scaling sandwiches of T.

    Returns pass/fail for, in order,

    1. xi^(-b) T(1) <= T(xi) <= xi^(-a) T(1)          (xi >= 1)
    2. d^(-a) T(xi) <= T(d xi) <= d^(-b) T(xi)        at d = min(delta, 1/delta)
    3. d^(-b) T(xi) <= T(d xi) <= d^(-a) T(xi)        at d = max(delta, 1/delta)

    so a single (xi, delta) draw exercises both branches of the
    delta-scaling remark, with xi as the base point.
    """
    if not 1.0 <= xi < math.inf:
        raise ValueError(f"xi must be a finite number >= 1, got {xi}")
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be a finite positive number, got {delta}")
    a, b = spec.a, spec.b
    d_lo, d_hi = min(delta, 1.0 / delta), max(delta, 1.0 / delta)
    t1, txi, t_lo, t_hi = TailAsymptote(spec)([1.0, xi, d_lo * xi, d_hi * xi]).tolist()

    def within(lo, v, hi):
        return (lo <= v * _SLACK) and (v <= hi * _SLACK)

    return (within(xi ** -b * t1, txi, xi ** -a * t1),
            within(d_lo ** -a * txi, t_lo, d_lo ** -b * txi),
            within(d_hi ** -b * txi, t_hi, d_hi ** -a * txi))
