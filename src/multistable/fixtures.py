"""The declared unit-sphere fixture family and a random spec generator.

The uniform limit in the tail theorem ranges over the whole unit sphere
of the quasinorm; operationally the "sup" is taken over this finite,
documented family, which doubles as the corpus for the verification CLI
and the test suite.

Members (all with quasinorm 1):

* ``cauchy``      f = 1_[0,1], alpha = 1 (closed forms available)
* ``alpha06/10/14/18``  f = 1_[0,1] with constant alpha (sigma = 1 exactly)
* ``two_exp``     alpha = 0.8 left of x=1 and 1.5 right of it, f on [0,2]
* ``three_cell``  alpha in {0.5, 1.1, 1.9}, signed coefficients
* ``wide_narrow`` alpha in {1.2, 0.7}, cells of very different widths
"""

from __future__ import annotations

import numpy as np

from .function_space import (
    ExponentFunction,
    MultistableSpec,
    StepFunction,
    normalize_to_sphere,
    refine,
)

__all__ = ["fixture", "fixture_names", "random_spec", "FIXTURES"]


def _const(alpha: float) -> MultistableSpec:
    return refine(StepFunction((0.0, 1.0), (1.0,)), ExponentFunction.constant(alpha))


def _two_exp() -> MultistableSpec:
    f = StepFunction((0.0, 2.0), (1.0,))
    alpha = ExponentFunction((1.0,), (0.8, 1.5))
    return normalize_to_sphere(refine(f, alpha))


def _three_cell() -> MultistableSpec:
    f = StepFunction((-1.0, 0.0, 1.0, 2.0), (0.7, -1.2, 0.4))
    alpha = ExponentFunction((0.0, 1.0), (0.5, 1.1, 1.9))
    return normalize_to_sphere(refine(f, alpha))


def _wide_narrow() -> MultistableSpec:
    f = StepFunction((0.0, 0.5, 3.5), (2.0, -0.6))
    alpha = ExponentFunction((0.5,), (1.2, 0.7))
    return normalize_to_sphere(refine(f, alpha))


FIXTURES = {
    "cauchy": lambda: _const(1.0),
    "alpha06": lambda: _const(0.6),
    "alpha10": lambda: _const(1.0),
    "alpha14": lambda: _const(1.4),
    "alpha18": lambda: _const(1.8),
    "two_exp": _two_exp,
    "three_cell": _three_cell,
    "wide_narrow": _wide_narrow,
}


def fixture_names() -> list[str]:
    return list(FIXTURES)


def fixture(name: str) -> MultistableSpec:
    try:
        return FIXTURES[name]()
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; choose from {fixture_names()}") from None


def _crowded(bp: list[float]) -> bool:
    return any(b2 - b1 < 1e-3 for b1, b2 in zip(bp, bp[1:]))


def _spec_draws(rng: np.random.Generator, max_cells: int = 4,
                alpha_range: tuple[float, float] = (0.3, 1.9)):
    """random_spec's Generator calls: f's breakpoints and coefficients and
    alpha's breakpoints and values, as sorted Python lists."""
    n_f = int(rng.integers(1, max_cells + 1))
    f_bp = sorted(rng.uniform(-4.0, 4.0, n_f + 1).tolist())
    while _crowded(f_bp):
        f_bp = sorted(rng.uniform(-4.0, 4.0, n_f + 1).tolist())
    # the 0.05 floor keeps the function nonzero
    coefs = [0.3 if abs(c) < 0.05 else c for c in rng.uniform(-3.0, 3.0, n_f).tolist()]
    n_a = int(rng.integers(0, 3))
    a_bp = sorted(rng.uniform(-4.0, 4.0, n_a).tolist())
    while _crowded(a_bp):
        a_bp = sorted(rng.uniform(-4.0, 4.0, n_a).tolist())
    a_vals = rng.uniform(*alpha_range, n_a + 1).tolist()
    return f_bp, coefs, a_bp, a_vals


def random_spec(rng: np.random.Generator, max_cells: int = 4,
                alpha_range: tuple[float, float] = (0.3, 1.9),
                normalized: bool = False) -> MultistableSpec:
    """A random nonzero spec for property sweeps (seeded by the caller).

    The Generator calls, their order and their sizes are part of the output:
    ``verify remarks --seed`` draws its specs and its (xi, delta) pairs from
    one stream, so a changed draw changes every later sample.  The draws are
    sorted, gap-tested and floored as Python floats (:func:`_spec_draws`); a
    spec has a handful of cells, too few for numpy to pay off.
    """
    f_bp, coefs, a_bp, a_vals = _spec_draws(rng, max_cells, alpha_range)
    spec = refine(StepFunction(f_bp, coefs), ExponentFunction(a_bp, a_vals))
    return normalize_to_sphere(spec) if normalized else spec
