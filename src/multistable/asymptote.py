"""Explicit tail asymptote of the multistable law and its scaling diagnostics.

The first-order tail constant for a symmetric stable law with exponent
gamma in (0, 2) is

    C(gamma) = (1 - gamma) / (Gamma(2 - gamma) cos(pi gamma / 2)),

with the removable singularity at gamma = 1 equal to 2/pi.  For step
data the tail asymptote

    T(lam) = integral |f(x)/lam|^alpha(x) C(alpha(x)) dx

is an exact finite sum sum_g w_g lam^(-alpha_g) over the exponent groups.  The ratio
P(|I(f)| > lam) / T(lam) tends to 1 as lam grows, uniformly over the
unit sphere of the quasinorm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .function_space import MultistableSpec, quasinorm
from .inversion import tail_probability_with_error
from .quadrature import QuadratureConfig, _certify

__all__ = [
    "tail_constant",
    "TailAsymptote",
    "tail_asymptote",
    "ratio",
    "ratio_with_error",
    "scaling_bounds_check",
]

_GAMMA_SWITCH = 1e-8  # width of the removable-singularity switch at gamma = 1


def tail_constant(gamma: float) -> float:
    """C(gamma) for gamma in (0, 2); 2/pi at gamma = 1."""
    if not (0.0 < gamma < 2.0):
        raise ValueError(f"gamma must lie in (0, 2), got {gamma}")
    if abs(gamma - 1.0) < _GAMMA_SWITCH:
        return 2.0 / math.pi
    return (1.0 - gamma) / (math.gamma(2.0 - gamma) * math.cos(0.5 * math.pi * gamma))


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
    if lam <= 0.0:
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
    if lam < 1.0:
        raise ValueError(f"ratio is defined for lambda >= 1, got {lam}")
    _require_unit_sphere(spec)
    t = tail_asymptote(spec, lam)
    p, perr = tail_probability_with_error(spec, lam, cfg)
    _certify("tail probability inside ratio", perr, cfg)
    return p / t, perr / t


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
    if xi < 1.0:
        raise ValueError(f"xi must be >= 1, got {xi}")
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    asym = TailAsymptote.from_spec(spec)
    a, b = spec.a, spec.b
    t1 = asym(1.0)
    txi = asym(xi)

    ok1 = (xi ** -b * t1 <= txi * _SLACK) and (txi <= xi ** -a * t1 * _SLACK)

    d_lo = min(delta, 1.0 / delta)
    v = asym(d_lo * xi)
    ok2 = (d_lo ** -a * txi <= v * _SLACK) and (v <= d_lo ** -b * txi * _SLACK)

    d_hi = max(delta, 1.0 / delta)
    v = asym(d_hi * xi)
    ok3 = (d_hi ** -b * txi <= v * _SLACK) and (v <= d_hi ** -a * txi * _SLACK)

    return ok1, ok2, ok3
