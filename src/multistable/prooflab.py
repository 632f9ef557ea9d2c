"""Numerical replication of the proof machinery behind the tail theorem.

For a mollifier phi_q and a spec f the quantities are

    eta(xi) = integral phi_q(theta) (1 - exp(-m(theta/xi))) dtheta
    tau(xi) = integral |f(x)/xi|^alpha(x) h_q(alpha(x)) dx      (Fubini form)
    rho(xi) = integral |phi_q(theta)| |m(theta/xi) - 1 + exp(-m(theta/xi))| dtheta

with m(s) the modular of f at scale factor s, and

    h_q(gamma) = integral |theta|^gamma phi_q(theta) dtheta,
    j0(lam, q) the unique integer with q^j0 <= lam < q^(j0+1).

Each lemma's sandwich is checked on grids with the quadrature error
budgets subtracted from the margins; the proof-internal constants are
never computed explicitly, only fitted envelopes are reported.

All theta integrals run on the mollifier table.  The modular there is
evaluated by homogeneity of each exponent group,

    m(s theta) = sum_g W_g s^alpha_g theta^alpha_g,

so theta^alpha_g is computed once per group and every further scale s
(s = 1/xi for eta and rho, s = delta for the Parseval theta side) costs
one G-row matrix-vector product.  The lemma 1 and lemma 6 sweeps share
these powers across their xi grids and evaluate each distinct xi once.
Outside the table 1 - e^-m <= m, so the untabulated mass of every such
integral is bounded group by group for any scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .asymptote import TailAsymptote, tail_asymptote
from .function_space import MultistableSpec, quasinorm
from .inversion import density, tail_probability_with_error
from .mollifier import MollifierSpec
from .quadrature import QuadratureConfig, _certify, adaptive_gk

__all__ = [
    "h_q",
    "j0",
    "eta",
    "tau",
    "rho",
    "verify_elementary_inequality",
    "verify_lemma1",
    "verify_lemma3",
    "verify_lemma5",
    "verify_lemma6",
    "verify_parseval",
    "LemmaReport",
]


@dataclass
class LemmaReport:
    """Outcome of one verification sweep: grid rows plus a verdict."""

    lemma: str
    passed: bool
    grid: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "passed": bool(self.passed),
            "grid": self.grid,
            "summary": self.summary,
        }


# ---------------------------------------------------------------------------
# core operations

def h_q(moll: MollifierSpec, gamma: float) -> float:
    """h_q(gamma); the reported error bound is available via ``moll.h``."""
    return moll.h(gamma)[0]


def j0(lam: float, q: float) -> int:
    """The unique integer j >= 1 with q^j <= lam < q^(j+1).

    Computed from the floating-point floor of log(lam)/log(q) and then
    corrected by integer search, so boundary values such as lam = q^3
    land on the lower edge exactly.
    """
    if q <= 1.0:
        raise ValueError(f"q must exceed 1, got {q}")
    if lam < q:
        raise ValueError(f"j0 requires lambda >= q, got lambda={lam}, q={q}")
    j = int(math.floor(math.log(lam) / math.log(q)))
    while q ** j > lam:
        j -= 1
    while q ** (j + 1) <= lam:
        j += 1
    return j


def _check_xi(xi: float):
    if xi < 1.0:
        raise ValueError(f"xi must be >= 1, got {xi}")


def _node_powers(spec: MultistableSpec, moll: MollifierSpec) -> np.ndarray:
    """theta^alpha_g at the table nodes, one row per exponent group."""
    powers = np.empty((len(spec.groups), moll.nodes.size))
    for row, (alph, _) in zip(powers, spec.groups):
        np.power(moll.nodes, alph, out=row)
    return powers


def _table_modular(spec: MultistableSpec, powers: np.ndarray, scale: float) -> np.ndarray:
    """m(scale * theta) at the table nodes by homogeneity of each group:
    sum_g W_g scale^alpha_g theta^alpha_g, one pass over the rows of ``powers``."""
    return np.array([wgt * scale ** alph for alph, wgt in spec.groups]) @ powers


def _group_budget(spec: MultistableSpec, moll: MollifierSpec, scale: float) -> float:
    """Bound on the one-sided integral of |phi_q(theta)| m(scale * theta) outside
    the table, i.e. over the stub [0, stub] and the tail beyond theta_max."""
    return sum(wgt * scale ** alph * (moll.tail_power_bound(alph) + moll.stub_bound(alph))
               for alph, wgt in spec.groups)


def _eta(spec: MultistableSpec, moll: MollifierSpec, powers: np.ndarray,
         xi: float) -> tuple[float, float]:
    body = 2.0 * moll.integrate(-np.expm1(-_table_modular(spec, powers, 1.0 / xi)))
    # outside the table 1 - e^-m <= m
    err = 2.0 * _group_budget(spec, moll, 1.0 / xi) + 4e-16 * (1.0 + abs(body))
    return max(body, 0.0), err


def eta_with_error(spec: MultistableSpec, moll: MollifierSpec, xi: float,
                   cfg: QuadratureConfig | None = None) -> tuple[float, float]:
    """eta(xi) with an error bound (table quadrature + decay-envelope tail)."""
    _check_xi(xi)
    val, err = _eta(spec, moll, _node_powers(spec, moll), xi)
    _certify("eta error bound", err, cfg)
    return val, err


def _eta_sweep(spec: MultistableSpec, moll: MollifierSpec, xis) -> dict:
    """eta at each distinct xi, with the node powers shared across the sweep."""
    powers = _node_powers(spec, moll)
    return {xi: _eta(spec, moll, powers, xi) for xi in set(xis)}


def eta(spec: MultistableSpec, moll: MollifierSpec, xi: float,
        cfg: QuadratureConfig | None = None) -> float:
    return eta_with_error(spec, moll, xi, cfg)[0]


def tau_with_error(spec: MultistableSpec, moll: MollifierSpec, xi: float,
                   cfg: QuadratureConfig | None = None) -> tuple[float, float]:
    """tau(xi) via the Fubini form: an exact cell sum against h_q values."""
    _check_xi(xi)
    val = 0.0
    err = 0.0
    for alph, wgt in spec.groups:
        h, he = moll.h(alph)
        val += wgt * xi ** -alph * h
        err += wgt * xi ** -alph * he
    _certify("tau error bound", err, cfg)
    return val, err


def tau(spec: MultistableSpec, moll: MollifierSpec, xi: float,
        cfg: QuadratureConfig | None = None) -> float:
    return tau_with_error(spec, moll, xi, cfg)[0]


def rho_with_error(spec: MultistableSpec, moll: MollifierSpec, xi: float,
                   cfg: QuadratureConfig | None = None) -> tuple[float, float]:
    """rho(xi): the absolute exponential remainder integrated against |phi_q|."""
    _check_xi(xi)
    m_vals = _table_modular(spec, _node_powers(spec, moll), 1.0 / xi)
    remainder = m_vals + np.expm1(-m_vals)  # m - 1 + e^-m >= 0
    body = 2.0 * moll.integrate_abs(np.abs(remainder))
    # tail: remainder <= m^2 / 2, expand the square over exponent groups
    groups = spec.groups
    tail = 0.0
    for a1, w1 in groups:
        for a2, w2 in groups:
            tail += 0.5 * w1 * w2 * xi ** -(a1 + a2) * moll.tail_power_bound(a1 + a2)
    total_w = sum(wgt for _, wgt in groups)
    err = 2.0 * tail + total_w ** 2 * moll.stub_bound(2.0 * spec.a) \
        + 4e-16 * (1.0 + abs(body))
    _certify("rho error bound", err, cfg)
    return body, err


def rho(spec: MultistableSpec, moll: MollifierSpec, xi: float,
        cfg: QuadratureConfig | None = None) -> float:
    return rho_with_error(spec, moll, xi, cfg)[0]


def verify_elementary_inequality(u_samples: Sequence[float]) -> bool:
    """0 <= u - 1 + e^-u <= u^2 / 2 for every sample (all must be >= 0)."""
    for u in u_samples:
        if u < 0.0:
            raise ValueError(f"samples must be nonnegative, got {u}")
        lhs = u + math.expm1(-u)
        if not (0.0 <= lhs <= u * u / 2.0):
            return False
    return True


# ---------------------------------------------------------------------------
# lemma sweeps

def verify_lemma3(moll: MollifierSpec, gammas: Sequence[float]) -> LemmaReport:
    """q^-gamma h_q(gamma) <= C(gamma) <= q^gamma h_q(gamma) on a gamma grid."""
    from .asymptote import tail_constant

    q = moll.q
    rows = []
    ok_all = True
    for g in gammas:
        h, he = moll.h(float(g))
        c = tail_constant(float(g))
        lo, hi = q ** -g * h, q ** g * h
        lo_budget, hi_budget = q ** -g * he, q ** g * he
        ok = (lo - lo_budget <= c) and (c <= hi + hi_budget)
        # margins with the error budget already subtracted
        rows.append({
            "gamma": float(g), "h": h, "h_err": he, "C": c,
            "lower": lo, "upper": hi,
            "margin_lower": c - lo - lo_budget,
            "margin_upper": hi - c - hi_budget,
            "ok": ok,
        })
        ok_all &= ok
    worst = min(min(r["margin_lower"], r["margin_upper"]) for r in rows)
    return LemmaReport("lemma3", ok_all, rows, {"q": q, "worst_margin": worst})


def verify_lemma1(spec: MultistableSpec, moll: MollifierSpec,
                  lambdas: Sequence[float],
                  cfg: QuadratureConfig | None = None) -> LemmaReport:
    """eta(q^(j0+1)) <= P(|I(f)| > lam) <= eta(q^(j0-1)) over a lambda grid."""
    cfg = cfg or QuadratureConfig()
    q = moll.q
    js = [j0(float(lam), q) for lam in lambdas]
    etas = _eta_sweep(spec, moll, [q ** (j + d) for j in js for d in (1, -1)])
    rows = []
    ok_all = True
    for lam, j in zip(lambdas, js):
        lo, lo_err = etas[q ** (j + 1)]
        hi, hi_err = etas[q ** (j - 1)]
        p, p_err = tail_probability_with_error(spec, float(lam), cfg)
        ok = (lo - lo_err <= p + p_err) and (p - p_err <= hi + hi_err)
        rows.append({
            "lambda": float(lam), "j0": j,
            "eta_upper_arg": lo, "tail": p, "eta_lower_arg": hi,
            "margin_lower": p - lo - lo_err - p_err,
            "margin_upper": hi - p - hi_err - p_err,
            "ok": ok,
        })
        ok_all &= ok
    worst = min(min(r["margin_lower"], r["margin_upper"]) for r in rows)
    return LemmaReport("lemma1", ok_all, rows, {"q": q, "worst_margin": worst})


def verify_lemma5(spec: MultistableSpec, moll: MollifierSpec,
                  xis: Sequence[float]) -> LemmaReport:
    """T(q xi) <= tau(xi) <= T(xi / q) on a xi grid."""
    q = moll.q
    rows = []
    ok_all = True
    for xi in xis:
        xi = float(xi)
        t, te = tau_with_error(spec, moll, xi)
        lo = tail_asymptote(spec, q * xi)
        hi = tail_asymptote(spec, xi / q)
        ok = (lo <= t + te) and (t - te <= hi)
        rows.append({
            "xi": xi, "T_qxi": lo, "tau": t, "tau_err": te, "T_xi_over_q": hi,
            "margin_lower": t - lo - te, "margin_upper": hi - t - te, "ok": ok,
        })
        ok_all &= ok
    worst = min(min(r["margin_lower"], r["margin_upper"]) for r in rows)
    return LemmaReport("lemma5", ok_all, rows, {"q": q, "worst_margin": worst})


def verify_lemma6(spec: MultistableSpec, moll: MollifierSpec,
                  lambda_grid: Sequence[float],
                  cfg: QuadratureConfig | None = None) -> LemmaReport:
    """Qualitative sandwich for eta/T with a fitted lambda^-a envelope.

    Checks q^-2b - eps(lam) <= eta(q^(j0+1))/T(lam) and
    eta(q^(j0-1))/T(lam) <= q^3b + eps(lam) with eps(lam) = c_fit lam^-a,
    plus the exact middle inequality eta(q^(j0+1)) <= eta(q^(j0-1)).
    The spec must lie on the unit sphere.
    """
    if abs(quasinorm(spec) - 1.0) > 1e-6:
        raise ValueError("lemma6 sweep requires a unit-sphere spec")
    q = moll.q
    a, b = spec.a, spec.b
    lo_edge = q ** (-2.0 * b)
    hi_edge = q ** (3.0 * b)
    lams = [float(lam) for lam in lambda_grid]
    js = [j0(lam, q) for lam in lams]
    etas = _eta_sweep(spec, moll, [q ** (j + d) for j in js for d in (1, -1)])
    rows = []
    middle_ok = True
    c_fit = 0.0
    for lam, j in zip(lams, js):
        e_lo, e_lo_err = etas[q ** (j + 1)]
        e_hi, e_hi_err = etas[q ** (j - 1)]
        t = tail_asymptote(spec, lam)
        r_lo, r_hi = e_lo / t, e_hi / t
        middle = e_lo <= e_hi + e_lo_err + e_hi_err
        middle_ok &= middle
        # smallest envelope constant making both outer inequalities hold here
        need = max(0.0, (lo_edge - r_lo) * lam ** a, (r_hi - hi_edge) * lam ** a)
        c_fit = max(c_fit, need)
        rows.append({
            "lambda": lam, "j0": j, "ratio_lower": r_lo, "ratio_upper": r_hi,
            "lower_edge": lo_edge, "upper_edge": hi_edge,
            "middle_ok": middle, "envelope_needed": need,
        })
    worst_lo = min(r["ratio_lower"] - lo_edge for r in rows)
    worst_hi = min(hi_edge - r["ratio_upper"] for r in rows)
    return LemmaReport(
        "lemma6", middle_ok, rows,
        {
            "q": q, "a": a, "b": b,
            "fitted_constant": c_fit,
            "worst_margin_lower": worst_lo,
            "worst_margin_upper": worst_hi,
        },
    )


def verify_parseval(spec: MultistableSpec, moll: MollifierSpec,
                    deltas: Sequence[float],
                    cfg: QuadratureConfig | None = None) -> LemmaReport:
    """Both sides of the transform identity

        integral (1 - bump(delta x)) D(x) dx = integral phi_q(theta) (1 - cf(delta theta)) dtheta

    computed by independent routes (x-side drives the density pointwise,
    theta-side uses the mollifier table).  The x-side band is integrated by
    :func:`~multistable.quadrature.adaptive_gk` with the density as integrand.
    """
    cfg = cfg or QuadratureConfig()
    b_edge = (1.0 + moll.q) / 2.0
    powers = _node_powers(spec, moll)
    rows = []
    ok_all = True
    for delta in deltas:
        delta = float(delta)
        if delta <= 0.0:
            raise ValueError("delta must be positive")
        # theta side on the table; outside it 1 - cf(delta theta) <= m(delta theta)
        factor = -np.expm1(-_table_modular(spec, powers, delta))
        theta_side = 2.0 * moll.integrate(factor)
        theta_err = 2.0 * _group_budget(spec, moll, delta)
        # x side: transition band + everything beyond the bump support
        lo_x, hi_x = 1.0 / delta, b_edge / delta
        band, band_err = adaptive_gk(
            lambda xs: ((1.0 - moll.bump(delta * xs))
                        * [density(spec, x, cfg) for x in xs.tolist()]),
            lo_x, hi_x, cfg.abs_tol)
        beyond, beyond_err = tail_probability_with_error(spec, hi_x, cfg)
        x_side = 2.0 * band + beyond
        x_err = 2.0 * band_err + beyond_err + 2.0 * (hi_x - lo_x) * cfg.abs_tol
        tol = theta_err + x_err + 1e-9
        ok = abs(theta_side - x_side) <= tol
        rows.append({
            "delta": delta, "theta_side": theta_side, "x_side": x_side,
            "difference": theta_side - x_side, "theta_err": theta_err, "x_err": x_err,
            "tolerance": tol, "ok": ok,
        })
        ok_all &= ok
    return LemmaReport("parseval", ok_all, rows, {"q": moll.q})
