"""Variable-exponent function space with piecewise-constant data.

The space consists of step functions f with bounded support, measured
through the modular integral

    M(f, lam) = integral |f(x)/lam|^alpha(x) dx,

where the exponent alpha(x) is itself piecewise constant with values in
(0, 2).  For f != 0 the modular is continuous and strictly decreasing in
lam, so the quasinorm ||f|| -- the unique lam with M(f, lam) = 1 -- is
found by monotone Newton iteration on the exponent-group sum (see
:func:`exp_sum_root`).  All integrals reduce to closed-form sums over the
cells of the common refinement of f and alpha, so nothing in this module
involves quadrature error.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "ExponentFunction",
    "StepFunction",
    "MultistableSpec",
    "refine",
    "modular_integral",
    "exp_sum_root",
    "quasinorm",
    "normalize_to_sphere",
    "combine_steps",
    "tail_constant",
]

_EPS = float(np.finfo(float).eps)


def tail_constant(gamma: float) -> float:
    """C(gamma) = (2/pi) Gamma(gamma) sin(pi gamma / 2), 0 < gamma < 2: P(|X| > lam) ~
    C(gamma) lam^-gamma for cf exp(-|theta|^gamma) (Samorodnitsky and Taqqu 1994).
    The sine takes the exact 2 - gamma above 1, where it is small."""
    if not (0.0 < gamma < 2.0):
        raise ValueError(f"gamma must lie in (0, 2), got {gamma}")
    return 2.0 / math.pi * math.gamma(gamma) * math.sin(0.5 * math.pi * min(gamma, 2.0 - gamma))


def _check_breakpoints(bp: Sequence[float], what: str) -> tuple[float, ...]:
    bp = tuple(float(b) for b in bp)
    if not all(map(math.isfinite, bp)):
        raise ValueError(f"{what} breakpoints must be finite")
    if any(b2 <= b1 for b1, b2 in zip(bp, bp[1:])):
        raise ValueError(f"{what} breakpoints must be strictly increasing")
    return bp


@dataclass(frozen=True)
class ExponentFunction:
    """Piecewise-constant exponent alpha(x) with values in (0, 2).

    ``breakpoints`` has n entries and splits the real line into n + 1
    cells (the two end cells are unbounded); ``values`` holds one
    exponent per cell.  A constant exponent is ``ExponentFunction((), (a,))``.
    The bounds ``a`` and ``b`` are derived from the supplied values, never
    asserted by the caller.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __init__(self, breakpoints: Sequence[float], values: Sequence[float]):
        bp = _check_breakpoints(breakpoints, "exponent")
        vals = tuple(float(v) for v in values)
        if len(vals) != len(bp) + 1:
            raise ValueError(
                "need one exponent value per cell: "
                f"{len(bp)} breakpoints require {len(bp) + 1} values, got {len(vals)}"
            )
        for v in vals:
            if not (0.0 < v < 2.0):
                raise ValueError(
                    f"exponent {v} outside (0, 2); the value 2 is the Gaussian "
                    "boundary and is excluded"
                )
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @property
    def a(self) -> float:
        """Smallest exponent value."""
        return min(self.values)

    @property
    def b(self) -> float:
        """Largest exponent value."""
        return max(self.values)

    def __call__(self, x):
        idx = np.searchsorted(np.asarray(self.breakpoints), np.asarray(x, dtype=float),
                              side="right")
        return np.asarray(self.values)[idx]

    @staticmethod
    def constant(alpha: float) -> "ExponentFunction":
        return ExponentFunction((), (alpha,))


@dataclass(frozen=True)
class StepFunction:
    """Compactly supported step function.

    ``breakpoints`` (m + 1 sorted points) delimit m bounded cells
    ``[b_i, b_{i+1})`` with one coefficient each; the function vanishes
    outside ``[b_0, b_m]``.  The zero function is ``StepFunction((), ())``.
    """

    breakpoints: tuple[float, ...]
    coefficients: tuple[float, ...]

    def __init__(self, breakpoints: Sequence[float], coefficients: Sequence[float]):
        bp = _check_breakpoints(breakpoints, "step-function")
        coef = tuple(float(c) for c in coefficients)
        if not all(map(math.isfinite, coef)):
            raise ValueError("coefficients must be finite")
        if len(bp) == 0:
            if coef:
                raise ValueError("coefficients given without breakpoints")
        elif len(coef) != len(bp) - 1:
            raise ValueError(
                f"{len(bp)} breakpoints delimit {len(bp) - 1} cells, "
                f"got {len(coef)} coefficients"
            )
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coefficients", coef)

    @property
    def is_zero(self) -> bool:
        return all(c == 0.0 for c in self.coefficients)

    @property
    def support(self) -> tuple[float, float] | None:
        """Smallest closed interval containing all nonzero cells."""
        nz = [i for i, c in enumerate(self.coefficients) if c != 0.0]
        if not nz:
            return None
        return (self.breakpoints[nz[0]], self.breakpoints[nz[-1] + 1])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if len(self.breakpoints) == 0:
            return np.zeros_like(x)
        bp = np.asarray(self.breakpoints)
        idx = np.searchsorted(bp, x, side="right")
        inside = (idx >= 1) & (idx <= len(self.coefficients))
        coef = np.concatenate([[0.0], np.asarray(self.coefficients), [0.0]])
        out = coef[np.where(inside, idx, 0)]
        return out

    def scaled(self, delta: float) -> "StepFunction":
        return StepFunction(self.breakpoints, tuple(delta * c for c in self.coefficients))


def combine_steps(fs: Sequence[StepFunction], weights: Sequence[float]) -> StepFunction:
    """Pointwise linear combination sum_l weights[l] * fs[l] (again a step function).

    Each cell [p, q) of the common refinement takes every fs[l] at its left
    edge p (an index lookup, as in ``MultistableSpec``), never at the rounded
    midpoint: (p + q) / 2 rounds to q when q is the float after p."""
    if len(fs) != len(weights):
        raise ValueError("need one weight per step function")
    pts = sorted({b for f in fs for b in f.breakpoints})
    if len(pts) < 2:
        return StepFunction((), ())
    coefs = sum(w * f(pts[:-1]) for f, w in zip(fs, weights))
    return StepFunction(tuple(pts), tuple(coefs))


def _cells_and_groups(bp: Sequence[float], coefs: Sequence[float],
                      a_bp: Sequence[float], a_vals: Sequence[float]):
    """``MultistableSpec``'s cells and groups from f's breakpoints and
    coefficients and alpha's breakpoints and values (sorted, as the step and
    exponent functions hold them), with no objects built around them."""
    pts = sorted(set(bp) | {b for b in a_bp if bp and bp[0] < b < bp[-1]})
    cells = tuple((p, q, coefs[bisect_right(bp, p) - 1], a_vals[bisect_right(a_bp, p)])
                  for p, q in zip(pts, pts[1:]))
    # W_g = sum |c|^alpha_g |cell| over the cells with alpha_g, so that the
    # modular is sum_g W_g s^alpha_g
    weights: dict[float, float] = {}
    for lo, hi, c, a in cells:
        if c != 0.0:
            weights[a] = weights.get(a, 0.0) + abs(c) ** a * (hi - lo)
    return cells, tuple(sorted(weights.items()))


@dataclass(frozen=True, eq=False)
class MultistableSpec:
    """A step function and an exponent function, ``MultistableSpec(f, alpha)``.

    ``cells`` and ``groups`` are derived from f and alpha, so a
    ``dataclasses.replace`` copy is recomputed from its own inputs.
    ``cells`` is a tuple of ``(lo, hi, coefficient, exponent)`` on the
    common refinement of their breakpoints, covering the breakpoint range
    of f; on each cell both f and alpha are constant, and reconstruction
    from the cells reproduces both (away from the measure-zero set of
    breakpoints).  Each cell ``[p, q)`` takes f's coefficient and alpha's
    value at its left edge p, looked up by index in the breakpoint tuples
    (``bisect_right``), so no rounded midpoint decides the cell: (p + q) / 2
    rounds to q when q is the float after p.

    ``groups`` is the derived view ``((alpha_g, W_g), ...)``, sorted by
    exponent, with ``W_g`` the sum of ``|c|^alpha_g * (hi - lo)`` over the
    nonzero cells whose exponent is ``alpha_g``.  It is the only
    representation of the data that the numerics read: the modular, the
    asymptote, the inversion constants, the sampler's mixture and every
    lemma quantity are sums over the groups.
    """

    f: StepFunction
    alpha: ExponentFunction
    cells: tuple[tuple[float, float, float, float], ...] = field(init=False)
    groups: tuple[tuple[float, float], ...] = field(init=False, repr=False)

    def __post_init__(self):
        cells, groups = _cells_and_groups(self.f.breakpoints, self.f.coefficients,
                                          self.alpha.breakpoints, self.alpha.values)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "groups", groups)

    @property
    def is_zero(self) -> bool:
        return not self.groups

    @property
    def a(self) -> float:
        return self.alpha.a

    @property
    def b(self) -> float:
        return self.alpha.b

    def scaled_modular(self, s):
        """integral |s * f(x)|^alpha(x) dx = sum_g W_g s^alpha_g for scale factor(s)
        s >= 0; vectorized."""
        alph, wgt = np.array(self.groups).reshape(-1, 2).T
        out = np.power.outer(np.asarray(s, dtype=float), alph) @ wgt
        return out if out.shape else float(out)

    def with_coefficients_scaled(self, delta: float) -> "MultistableSpec":
        return MultistableSpec(self.f.scaled(delta), self.alpha)


def refine(f: StepFunction, alpha: ExponentFunction) -> MultistableSpec:
    """The spec of f and alpha on the common refinement of their breakpoints."""
    return MultistableSpec(f, alpha)


def modular_integral(spec: MultistableSpec, scale: float) -> float:
    """integral |f(x)/scale|^alpha(x) dx, exact per cell.

    Zero iff f is the zero function; raises for nonpositive scale.
    """
    if scale <= 0.0 or not np.isfinite(scale):
        raise ValueError(f"scale must be positive, got {scale}")
    return float(spec.scaled_modular(1.0 / scale))


_NEWTON_CAP = 64  # far more steps than any start needs (the start is at most G times y)


def exp_sum_root(y: float, terms, step_tol: float = 0.0) -> float:
    """u with sum c e^(alpha u) = y > 0, for terms [(c, alpha)] with c, alpha > 0.

    The left side is convex and increasing in u.  Newton starts where one
    term alone reaches y, which lies on the root's right, so the iterates
    decrease monotonically onto the root.  It stops once a step falls to
    ``step_tol`` plus a few ulps of u (by convexity the error left is then
    about b step^2 or less, b the largest alpha), once the sum is no longer
    above y (exact iterates never cross the root, so that is rounding), or
    after a cap of steps.
    """
    u = min(math.log(y / c) / al for c, al in terms)
    for _ in range(_NEWTON_CAP):
        f, df = -y, 0.0
        for c, al in terms:
            v = c * math.exp(al * u)
            f += v
            df += al * v
        if f <= 0.0:
            break
        step = f / df
        u -= step
        if step <= step_tol + 4.0 * _EPS * (1.0 + abs(u)):
            break
    return u


def quasinorm(spec: MultistableSpec, rel_tol: float = 1e-12) -> float:
    """The unique lam > 0 with modular_integral(spec, lam) == 1 (0 for f == 0).

    With u = -log lam the modular is sum_g W_g e^(alpha_g u) over
    ``spec.groups``, whose root :func:`exp_sum_root` finds to a relative
    step of ``rel_tol / 4``.
    """
    if not rel_tol > 0.0:
        raise ValueError(f"rel_tol must be positive, got {rel_tol}")
    if spec.is_zero:
        return 0.0
    u = exp_sum_root(1.0, [(w, al) for al, w in spec.groups], 0.25 * rel_tol)
    return math.exp(-u)


def normalize_to_sphere(spec: MultistableSpec, rel_tol: float = 1e-12) -> MultistableSpec:
    """Rescale coefficients so the quasinorm is 1 (uses exact homogeneity)."""
    if spec.is_zero:
        raise ValueError("cannot normalize the zero function")
    lam = quasinorm(spec, rel_tol)
    return spec.with_coefficients_scaled(1.0 / lam)
