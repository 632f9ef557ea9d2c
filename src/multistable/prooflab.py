"""Numerical replication of the proof machinery behind the tail theorem.

For a mollifier phi_q and a spec f the quantities are

    eta(xi) = integral phi_q(theta) (1 - exp(-m(theta/xi))) dtheta
    tau(xi) = integral |f(x)/xi|^alpha(x) h_q(alpha(x)) dx      (Fubini form)
    rho(xi) = integral |phi_q(theta)| |m(theta/xi) - 1 + exp(-m(theta/xi))| dtheta

with m(s) the modular of f at scale factor s, and

    h_q(gamma) = integral |theta|^gamma phi_q(theta) dtheta,
    j0(lam, q) the unique integer with q^j0 <= lam < q^(j0+1).

Each lemma's sandwich is checked on grids with the quadrature error
budgets subtracted from the margins.  Every sweep reports through
``_sandwich``, which reads each row's ok off its two margins (both >= 0),
and the verdict is that every row holds.  No constant is fitted to make a
check pass, and the proof-internal constants are never computed.

eta and the Parseval theta side are integrals of analytic functions
against phi_q.  They run on the rotated-ray rule of
:mod:`multistable.inversion` through the identity

    integral_0^inf phi_q F dtheta = (1/pi) Im integral_ray G(w theta) e^{i(1+w/2) theta} F(theta) / theta dtheta

(see :mod:`multistable.mollifier`), so each carries the rule's error
bound: Kronrod-minus-Gauss, stub, truncation and roundoff.  The Parseval
theta side at delta is eta at xi = 1/delta; its x side integrates certified
tails P(|I| > x) against the bump's slope over the bump's transition band,
on the same Gauss-Kronrod panels as h_q.  A lemma1 or lemma6 grid's
distinct etas, lemma1's tails and an x side's tails are each one batch of
the ray rule, whose values equal the one-at-a-time calls'.  h_q (so tau)
is the bump-side ``MollifierSpec.hs``, with its own bound, every exponent
of a sweep in one call.  Only rho, which integrates the non-analytic
|phi_q|, runs on the mollifier's GK21 table, with the rule's bound; there
m(theta/xi) = sum_g W_g xi^-alpha_g exp(alpha_g log theta), and beyond the
table m - 1 + e^-m <= m^2/2 bounds the mass group by group.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .asymptote import TailAsymptote, _check_xi, _require_unit_sphere
from .function_space import MultistableSpec, tail_constant
from .inversion import _eta_integrals, _pow, _tails_with_error, eta_integral
from .mollifier import MollifierSpec
from .quadrature import _EPS, QuadratureConfig, _add_up, _certify, _nodes

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
        return vars(self) | {"passed": bool(self.passed)}


# ---------------------------------------------------------------------------
# core operations

def h_q(moll: MollifierSpec, gamma: float) -> float:
    """h_q(gamma); the reported error bound is available via ``moll.h``."""
    return moll.h(gamma)[0]


def j0(lam: float, q: float) -> int:
    """The unique integer j >= 1 with q^j <= lam < q^(j+1).

    Computed from the floating-point floor of log(lam)/log(q) and then
    corrected by integer search, so boundary values such as lam = q^3
    land on the lower edge exactly; a power past the float range exceeds
    every finite lambda.
    """
    if not 1.0 < q < math.inf:
        raise ValueError(f"q must be a finite number above 1, got {q}")
    if not q <= lam < math.inf:
        raise ValueError(f"j0 requires a finite lambda >= q, got lambda={lam}, q={q}")
    j = int(math.floor(math.log(lam) / math.log(q)))
    while _pow(q, j) > lam:
        j -= 1
    while _pow(q, j + 1) <= lam:
        j += 1
    return j


def eta_with_error(spec: MultistableSpec, moll: MollifierSpec, xi: float,
                   cfg: QuadratureConfig | None = None) -> tuple[float, float]:
    """eta(xi) with the ray rule's error bound."""
    _check_xi(xi)
    val, err = eta_integral(spec, xi, moll.w)
    _certify("eta error bound", err, cfg)
    return val, err


def _eta_sweep(spec: MultistableSpec, moll: MollifierSpec, lams: list[float]) -> list:
    """(j0, eta(q^(j0+1)), eta(q^(j0-1))) per lambda, each eta with its error bound,
    every distinct xi in one batch.  eta's kernel reaches xi (1 + w), so a
    lambda whose q^(j0+1) (1 + w) passes the float range is refused (ValueError)."""
    q = moll.q
    js = [j0(lam, q) for lam in lams]
    for lam, j in zip(lams, js):
        if math.isinf(_pow(q, j + 1) * (1.0 + moll.w)):
            raise ValueError(f"lambda={lam} needs eta at xi = q^(j0+1) = {q}^{j + 1}, and "
                             f"xi (1 + w) passes the largest float {sys.float_info.max:.6g}")
    xis = list(dict.fromkeys(q ** (j + d) for j in js for d in (1, -1)))
    etas = dict(zip(xis, _eta_integrals(spec, xis, moll.w)))
    return [(j, etas[q ** (j + 1)], etas[q ** (j - 1)]) for j in js]


def eta(spec: MultistableSpec, moll: MollifierSpec, xi: float,
        cfg: QuadratureConfig | None = None) -> float:
    return eta_with_error(spec, moll, xi, cfg)[0]


def tau_with_error(spec: MultistableSpec, moll: MollifierSpec, xi: float,
                   cfg: QuadratureConfig | None = None) -> tuple[float, float]:
    """tau(xi) via the Fubini form: an exact cell sum against h_q values."""
    val, err = _tau(spec, moll.hs([alph for alph, _ in spec.groups]), xi)
    _certify("tau error bound", err, cfg)
    return val, err


def _tau(spec: MultistableSpec, hs: list[tuple[float, float]], xi: float) -> tuple[float, float]:
    """tau(xi) and its error bound, uncertified, from hs, moll.hs of the exponent
    groups' alphas in spec.groups order.

    The bound adds each h's bound and the sum's own roundings: per term the
    power (within 1 ulp, two units of eps/2) and two products, one unit of
    room for second-order terms, and one unit of the running sum."""
    _check_xi(xi)
    val = 0.0
    err = 0.0
    for (alph, wgt), (h, he) in zip(spec.groups, hs):
        scale = wgt * xi ** -alph
        term = scale * h
        val += term
        err += scale * he + _EPS * (2.5 * abs(term) + 0.5 * abs(val))
    return val, err


def tau(spec: MultistableSpec, moll: MollifierSpec, xi: float,
        cfg: QuadratureConfig | None = None) -> float:
    return tau_with_error(spec, moll, xi, cfg)[0]


def rho_with_error(spec: MultistableSpec, moll: MollifierSpec, xi: float,
                   cfg: QuadratureConfig | None = None) -> tuple[float, float]:
    """rho(xi): m - 1 + e^-m against |phi_q| on the mollifier's GK21 table.  Its
    bound adds the rule's Kronrod-minus-Gauss term and counted roundoff, and the
    envelope's bound on m^2 / 2 beyond the table and the stub's below it."""
    _check_xi(xi)
    alph, wgt = np.array(spec.groups).reshape(-1, 2).T
    scale = wgt * xi ** -alph
    # m = scale @ theta^alph rounds by eps m delta: log's ulp and the product's half of
    # alph |log theta| through exp (|log theta| <= -log(stub): the table ends far below
    # 1/stub), the node's shift 1.5 alph, exp 1, the scale 3/2 and the sum G/2.  That
    # moves m - 1 + e^-m by |e1| eps m delta, e1 = expm1(-m); expm1 adds eps |e1| and the
    # sum eps/2 of the remainder, so as m -> 0, where the sum cancels, the bound is eps m
    delta = 1.5 * spec.b * (1.0 - math.log(moll.stub)) + 3.0 + 0.5 * alph.size

    def remainder(log_theta):
        powers = np.multiply.outer(alph, log_theta)
        m = scale @ np.exp(powers, out=powers)
        e1 = np.expm1(-m)
        err = (delta * m + 1.0) * e1                # -|e1| (1 + delta m), as e1 <= 0
        m += e1
        return m, 0.5 * m - err

    body, kg, rounding = moll.abs_integral(remainder)
    # beyond the table m - 1 + e^-m <= m^2 / 2: expand the square over exponent groups
    tail = sum(w1 * w2 * xi ** -(a1 + a2) * moll.tail_power_bound(a1 + a2)
               for a1, w1 in spec.groups for a2, w2 in spec.groups)
    err = float(2.0 * (kg + rounding) + tail + sum(wgt) ** 2 * moll.stub_bound(2.0 * spec.a))
    _certify("rho error bound", err, cfg)
    return 2.0 * body, err


def rho(spec: MultistableSpec, moll: MollifierSpec, xi: float,
        cfg: QuadratureConfig | None = None) -> float:
    return rho_with_error(spec, moll, xi, cfg)[0]


def verify_elementary_inequality(u_samples: Sequence[float]) -> bool:
    """0 <= u - 1 + e^-u <= u^2 / 2 for every sample (all must be >= 0);
    False on a NaN sample."""
    u = np.asarray(u_samples, dtype=float)
    negative = u[u < 0.0]
    if negative.size:
        raise ValueError(f"samples must be nonnegative, got {negative[0]}")
    lhs = u + np.expm1(-u)
    return bool(np.all((0.0 <= lhs) & (lhs <= u * u / 2.0)))


# ---------------------------------------------------------------------------
# lemma sweeps

def _grid(points: Sequence[float], what: str) -> list[float]:
    """The grid as floats; ValueError for an empty one, before any work."""
    grid = [float(p) for p in points]
    if not grid:
        raise ValueError(f"need at least one {what}")
    return grid


def _sandwich(lemma: str, q: float, rows: list[dict]) -> LemmaReport:
    """The report of a two-sided check whose rows carry both margins, error
    bounds subtracted: each row's ok is that both are >= 0, and the row's own
    ok, if it has one (lemma6's middle inequality), as well."""
    for r in rows:
        r["ok"] = bool(r.get("ok", True) and r["margin_lower"] >= 0.0 and r["margin_upper"] >= 0.0)
    worst = min(min(r["margin_lower"], r["margin_upper"]) for r in rows)
    return LemmaReport(lemma, all(r["ok"] for r in rows), rows, {"q": q, "worst_margin": worst})


def verify_lemma3(moll: MollifierSpec, gammas: Sequence[float]) -> LemmaReport:
    """q^-gamma h_q(gamma) <= C(gamma) <= q^gamma h_q(gamma) on a gamma grid, every
    h_q from one moll.hs call."""
    q = moll.q
    rows = []
    for g, (h, he) in zip(gammas, moll.hs(_grid(gammas, "gamma"))):
        c = tail_constant(float(g))
        lo, hi = q ** -g * h, q ** g * h
        # margins with the error budget already subtracted
        rows.append({
            "gamma": float(g), "h": h, "h_err": he, "C": c,
            "lower": lo, "upper": hi,
            "margin_lower": c - lo - q ** -g * he,
            "margin_upper": hi - c - q ** g * he,
        })
    return _sandwich("lemma3", q, rows)


def verify_lemma1(spec: MultistableSpec, moll: MollifierSpec,
                  lambdas: Sequence[float],
                  cfg: QuadratureConfig | None = None) -> LemmaReport:
    """eta(q^(j0+1)) <= P(|I(f)| > lam) <= eta(q^(j0-1)) over a lambda grid; cfg is not read."""
    lams = _grid(lambdas, "lambda")
    rows = []
    for lam, (j, (lo, lo_err), (hi, hi_err)), (p, p_err) in zip(
            lams, _eta_sweep(spec, moll, lams), _tails_with_error(spec, lams)):
        rows.append({
            "lambda": lam, "j0": j,
            "eta_upper_arg": lo, "tail": p, "eta_lower_arg": hi,
            "margin_lower": p - lo - lo_err - p_err,
            "margin_upper": hi - p - hi_err - p_err,
        })
    return _sandwich("lemma1", moll.q, rows)


def verify_lemma5(spec: MultistableSpec, moll: MollifierSpec,
                  xis: Sequence[float]) -> LemmaReport:
    """T(q xi) <= tau(xi) <= T(xi / q) on a xi grid; h_q is evaluated in one
    moll.hs call for the whole grid and T built once."""
    q, xis = moll.q, _grid(xis, "xi")
    hs = moll.hs([alph for alph, _ in spec.groups])
    asymptote = TailAsymptote(spec)
    rows = []
    for xi in xis:
        t, te = _tau(spec, hs, xi)
        lo = asymptote(q * xi)
        hi = asymptote(xi / q)
        rows.append({
            "xi": xi, "T_qxi": lo, "tau": t, "tau_err": te, "T_xi_over_q": hi,
            "margin_lower": t - lo - te, "margin_upper": hi - t - te,
        })
    return _sandwich("lemma5", q, rows)


def verify_lemma6(spec: MultistableSpec, moll: MollifierSpec,
                  lambda_grid: Sequence[float],
                  cfg: QuadratureConfig | None = None) -> LemmaReport:
    """q^-2b <= eta(q^(j0+1))/T(lam), eta(q^(j0+1)) <= eta(q^(j0-1)) and
    eta(q^(j0-1))/T(lam) <= q^3b over a lambda grid.

    The outer margins have each eta's error bound subtracted, as lemma1's
    do; a row passes when both are >= 0 and the middle inequality holds
    within the two bounds.  PAPER.md holds only the paper's abstract, so
    the lemma's finite-lambda correction is not known here and the check
    keeps its asymptotic edges q^-2b and q^3b with no correction.  The
    spec must lie on the unit sphere; cfg is not read.  A lambda whose T
    underflows (below the smallest normal float, where the ratios lose
    their digits or divide by 0) is refused with ValueError.
    """
    lams = _grid(lambda_grid, "lambda")
    _require_unit_sphere(spec)
    asymptote = TailAsymptote(spec)
    q = moll.q
    lo_edge, hi_edge = q ** (-2.0 * spec.b), q ** (3.0 * spec.b)
    rows = []
    for lam, (j, (e_lo, e_lo_err), (e_hi, e_hi_err)) in zip(lams, _eta_sweep(spec, moll, lams)):
        t = asymptote(lam)
        if t < sys.float_info.min:
            raise ValueError(f"T(lambda={lam}) = {t:.6g} underflows: it is below the "
                             f"smallest normal float {sys.float_info.min:.6g}")
        rows.append({
            "lambda": lam, "j0": j, "ratio_lower": e_lo / t, "ratio_upper": e_hi / t,
            "lower_edge": lo_edge, "upper_edge": hi_edge,
            "margin_lower": (e_lo - e_lo_err) / t - lo_edge,
            "margin_upper": hi_edge - (e_hi + e_hi_err) / t,
            "ok": e_lo <= e_hi + e_lo_err + e_hi_err,     # the middle inequality
        })
    return _sandwich("lemma6", q, rows)


def _x_side(spec: MultistableSpec, moll: MollifierSpec, xi: float) -> tuple[float, float]:
    """E[1 - bump(I / xi)] and its error bound from certified tails: 1 - bump(x) =
    int_0^1 S5'(u) 1{|x| > 1 + w u} du, so with y = log1p(w u), t = expm1(y) / w and
    g = S5'(t) dt/dy, whose band integral is 1, it is, for any c,
    c + int_0^log1p(w) g (P(|I| > xi e^y) - c) dy on h_q's panels; c = P at the
    band's middle keeps the integrand, so the rule's error, small.  c and the
    tails at the panels' nodes are one batch."""
    w, (_, lo, width) = moll.w, moll.band()
    y, half = _nodes(lo, width)
    ey, t = np.exp(y), np.expm1(y) / w
    (c, _), *tails = _tails_with_error(spec, [xi * math.sqrt(1.0 + w), *(xi * ey).tolist()])
    p, p_err = np.array(tails).T
    # roundoff in units of eps.  I sums independent symmetric stable laws, so D is
    # symmetric and unimodal (Wintner) and |dP/dy| = 2 x D(x) <= 1: x's rounding 3/2
    # moves P by 3/2, a node shift of 2 y + width (MollifierSpec.h) moves g (P - c)
    # by g + |g'| |P - c| times it, |g'| <= g + |S5''(t)| (dt/dy)^2, and t's 3/2 moves
    # g by |S5''(t)| t dt/dy.  g takes 8.5 (t (1 - t) 1, power 6, 2772 1/2, dt/dy 3/2,
    # product 1/2), P - c and the product 1, the rule's assembly 21 (MollifierSpec.h)
    # of |g (P - c)|; the band's end moves by 2 eps span, where g vanishes to 5th order
    dt, tu = ey / w, t * (1.0 - t)                  # dt/dy = t + 1/w
    g, ddg = 2772.0 * tu ** 5 * dt, 13860.0 * tu ** 4 * np.abs(1.0 - 2.0 * t) * dt
    dev, shift = np.abs(p - c), 2.0 * y + width[0]
    err = (g * (p_err / _EPS + 1.5 + shift + 30.5 * dev)
           + (ddg * (dt * shift + 1.5 * t) + g * shift) * (dev + p_err))
    body, kg, rest = _add_up(np.stack((g * (p - c), err)), half)
    return c + body, kg + rest + _EPS * (c + body)


def verify_parseval(spec: MultistableSpec, moll: MollifierSpec,
                    deltas: Sequence[float],
                    cfg: QuadratureConfig | None = None) -> LemmaReport:
    """E[1 - bump(delta I)] = 2 integral_0^inf phi_q(theta) (1 - cf(delta theta)) dtheta
    at each 0 < delta < inf (ValueError otherwise, or for no deltas, before any
    work), both sides at xi = 1/delta with their error bounds: the theta side
    is eta on the ray, the x side certified tails against the bump's slope on
    h_q's band panels.
    A row passes when the sides differ by at most the sum of the bounds (both
    margins >= 0); cfg is not read."""
    deltas = _grid(deltas, "delta")
    if not all(0.0 < d < math.inf for d in deltas):
        raise ValueError(f"each delta must be a finite positive number, got {deltas}")
    rows = []
    for delta in deltas:
        theta_side, theta_err = eta_integral(spec, 1.0 / delta, moll.w)
        x_side, x_err = _x_side(spec, moll, 1.0 / delta)
        tol, diff = theta_err + x_err, theta_side - x_side
        rows.append({
            "delta": delta, "theta_side": theta_side, "x_side": x_side,
            "difference": diff, "theta_err": theta_err, "x_err": x_err, "tolerance": tol,
            "margin_lower": tol + diff, "margin_upper": tol - diff,
        })
    return _sandwich("parseval", moll.q, rows)
