"""Variable-exponent function space with piecewise-constant data.

The space consists of step functions f with bounded support, measured
through the modular integral

    M(f, lam) = integral |f(x)/lam|^alpha(x) dx,

where the exponent alpha(x) is itself piecewise constant with values in
(0, 2).  For f != 0 the modular is continuous and strictly decreasing in
lam, so the quasinorm ||f|| -- the unique lam with M(f, lam) = 1 -- is
found by bracketed root finding.  All integrals reduce to closed-form
sums over the cells of the common refinement of f and alpha, so nothing
in this module involves quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "ExponentFunction",
    "StepFunction",
    "MultistableSpec",
    "refine",
    "modular_integral",
    "quasinorm",
    "normalize_to_sphere",
    "combine_steps",
]

_EPS = np.finfo(float).eps


def _check_breakpoints(bp: Sequence[float], what: str) -> tuple[float, ...]:
    bp = tuple(float(b) for b in bp)
    if any(not np.isfinite(b) for b in bp):
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
        if any(not np.isfinite(c) for c in coef):
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
    """Pointwise linear combination sum_l weights[l] * fs[l] (again a step function)."""
    if len(fs) != len(weights):
        raise ValueError("need one weight per step function")
    pts = sorted({b for f in fs for b in f.breakpoints})
    if len(pts) < 2:
        return StepFunction((), ())
    mids = [(lo + hi) / 2.0 for lo, hi in zip(pts, pts[1:])]
    coefs = np.zeros(len(mids))
    for f, w in zip(fs, weights):
        coefs += w * f(np.asarray(mids))
    return StepFunction(tuple(pts), tuple(coefs))


@dataclass(frozen=True, eq=False)
class MultistableSpec:
    """A step function paired with an exponent function on their common refinement.

    ``cells`` is a tuple of ``(lo, hi, coefficient, exponent)`` covering the
    breakpoint range of f; on each cell both f and alpha are constant, and
    reconstruction from the cells reproduces both (away from the
    measure-zero set of breakpoints).

    ``groups`` is the derived view ``((alpha_g, W_g), ...)``, sorted by
    exponent, with ``W_g`` the sum of ``|c|^alpha_g * (hi - lo)`` over the
    nonzero cells whose exponent is ``alpha_g``.
    """

    f: StepFunction
    alpha: ExponentFunction
    cells: tuple[tuple[float, float, float, float], ...]

    # cached arrays over nonzero cells, set in __post_init__
    _abs_coef: np.ndarray = field(repr=False, default=None)
    _alph: np.ndarray = field(repr=False, default=None)
    _len: np.ndarray = field(repr=False, default=None)
    groups: tuple[tuple[float, float], ...] = field(init=False, repr=False)

    def __post_init__(self):
        nz = [(lo, hi, c, a) for (lo, hi, c, a) in self.cells if c != 0.0]
        object.__setattr__(self, "_abs_coef", np.array([abs(c) for _, _, c, _ in nz]))
        object.__setattr__(self, "_alph", np.array([a for _, _, _, a in nz]))
        object.__setattr__(self, "_len", np.array([hi - lo for lo, hi, _, _ in nz]))
        # exponent groups: W_g = sum |c|^alpha_g |cell| over the cells with alpha_g,
        # so that the modular is sum_g W_g s^alpha_g
        weights: dict[float, float] = {}
        for c, a, ln in zip(self._abs_coef, self._alph, self._len):
            weights[float(a)] = weights.get(float(a), 0.0) + float(c ** a * ln)
        object.__setattr__(self, "groups", tuple(sorted(weights.items())))

    @property
    def is_zero(self) -> bool:
        return self._abs_coef.size == 0

    @property
    def a(self) -> float:
        return self.alpha.a

    @property
    def b(self) -> float:
        return self.alpha.b

    def scaled_modular(self, s):
        """integral |s * f(x)|^alpha(x) dx for scale factor(s) s >= 0; vectorized."""
        s = np.asarray(s, dtype=float)
        if self.is_zero:
            return np.zeros(s.shape) if s.shape else 0.0
        prod = np.multiply.outer(s, self._abs_coef)
        vals = np.where(prod > 0.0, prod, 1.0) ** self._alph
        vals = np.where(prod > 0.0, vals, 0.0)
        out = vals @ self._len
        return out if s.shape else float(out)

    def with_coefficients_scaled(self, delta: float) -> "MultistableSpec":
        cells = tuple((lo, hi, delta * c, a) for (lo, hi, c, a) in self.cells)
        return MultistableSpec(self.f.scaled(delta), self.alpha, cells)


def refine(f: StepFunction, alpha: ExponentFunction) -> MultistableSpec:
    """Build the common refinement of f and alpha breakpoints."""
    if len(f.breakpoints) == 0:
        return MultistableSpec(f, alpha, ())
    lo, hi = f.breakpoints[0], f.breakpoints[-1]
    pts = sorted(set(f.breakpoints) | {b for b in alpha.breakpoints if lo < b < hi})
    mids = np.array([(p + q) / 2.0 for p, q in zip(pts, pts[1:])])
    coefs = f(mids)
    alphs = alpha(mids)
    cells = tuple(
        (p, q, float(c), float(a))
        for p, q, c, a in zip(pts, pts[1:], coefs, alphs)
    )
    return MultistableSpec(f, alpha, cells)


def modular_integral(spec: MultistableSpec, scale: float) -> float:
    """integral |f(x)/scale|^alpha(x) dx, exact per cell.

    Zero iff f is the zero function; raises for nonpositive scale.
    """
    if scale <= 0.0 or not np.isfinite(scale):
        raise ValueError(f"scale must be positive, got {scale}")
    return float(spec.scaled_modular(1.0 / scale))


def quasinorm(spec: MultistableSpec, rel_tol: float = 1e-12) -> float:
    """The unique lam > 0 with modular_integral(spec, lam) == 1 (0 for f == 0).

    The modular is strictly decreasing in lam, so a doubling bracket
    around scale 1 always exists; the bracketed root is then polished to
    ``rel_tol``.
    """
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    if spec.is_zero:
        return 0.0
    m1 = modular_integral(spec, 1.0)
    if m1 == 1.0:
        return 1.0
    lo = hi = 1.0
    if m1 > 1.0:
        # modular too big: grow the scale
        while modular_integral(spec, hi) > 1.0:
            hi *= 4.0
        lo = hi / 4.0
    else:
        while modular_integral(spec, lo) < 1.0:
            lo /= 4.0
        hi = lo * 4.0
    return float(
        brentq(
            lambda lam: modular_integral(spec, lam) - 1.0,
            lo,
            hi,
            xtol=1e-300,
            rtol=max(4 * _EPS, rel_tol / 4.0),
            maxiter=300,
        )
    )


def normalize_to_sphere(spec: MultistableSpec, rel_tol: float = 1e-12) -> MultistableSpec:
    """Rescale coefficients so the quasinorm is 1 (uses exact homogeneity)."""
    if spec.is_zero:
        raise ValueError("cannot normalize the zero function")
    lam = quasinorm(spec, rel_tol)
    return spec.with_coefficients_scaled(1.0 / lam)
