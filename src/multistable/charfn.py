"""Characteristic function of the multistable stochastic integral.

For a step function f with exponent alpha the characteristic function is

    cf(theta) = exp(-integral |theta f(x)|^alpha(x) dx),

evaluated exactly cell by cell.  The multivariate version evaluates the
joint characteristic function of several integrands sharing one exponent
function; the linear combination of step functions is again a step
function, so the same closed form applies on the joint refinement.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .function_space import MultistableSpec, combine_steps, refine

__all__ = ["cf", "cf_multivariate", "cf_profile"]


def cf_profile(spec: MultistableSpec, thetas) -> np.ndarray:
    """Vectorized cf over an array of theta values; a NaN theta is refused, as by cf."""
    t = np.abs(np.asarray(thetas, dtype=float))
    if np.isnan(t).any():
        raise ValueError(f"each theta must be a number, got {np.count_nonzero(np.isnan(t))} NaN")
    return np.exp(-spec.scaled_modular(t))


def cf(spec: MultistableSpec, theta: float) -> float:
    if np.isnan(theta):
        raise ValueError(f"theta must be a number, got {theta}")
    return float(np.exp(-spec.scaled_modular(abs(theta))))


def cf_multivariate(specs: Sequence[MultistableSpec], thetas: Sequence[float]) -> float:
    """Joint characteristic function at (theta_1, ..., theta_d).

    All specs must share one exponent function; lengths must match.
    """
    if len(specs) == 0:
        raise ValueError("need at least one spec")
    if len(specs) != len(thetas):
        raise ValueError(f"{len(specs)} specs but {len(thetas)} thetas")
    if np.isnan(thetas).any():
        raise ValueError(f"each theta must be a number, got {list(thetas)}")
    alpha = specs[0].alpha
    for s in specs[1:]:
        if s.alpha != alpha:
            raise ValueError("all specs must share a common exponent function")
    g = combine_steps([s.f for s in specs], [float(t) for t in thetas])
    return float(np.exp(-refine(g, alpha).scaled_modular(1.0)))
