"""Build ``tests/ray_oracle.json``, the 30-digit eta values that
``test_prooflab.TestRayOracle`` checks the ray kinds against.

Usage (from the repository root; takes about 20 s on one core):

    PYTHONPATH=src python3 tests/make_ray_oracle.py [--out tests/ray_oracle.json]

For each point (fixture, q, xi) of ``POINTS`` the table holds eta =
2 int phi_q(theta) (1 - cf(theta / xi)) dtheta as a 30-digit string, next
to the fixture's stable-mixture groups (alpha, weight), which the tests
compare with the fixture they evaluate.  The integral runs on the
library's ray angle; by Cauchy's theorem its value does not depend on it.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from pathlib import Path

import mpmath as mp
import numpy as np

from multistable import inversion
from multistable.fixtures import fixture

# test_eta_within_its_bound: three fixtures, four q, three xi; then the
# Parseval theta side on two_exp at q = 1.5, xi = 1/delta for delta 0.1, 1, 10
POINTS = [(name, q, xi) for name in ("cauchy", "two_exp", "three_cell")
          for q in (1.01, 1.25, 2.0, 50.0) for xi in (1.0, 10.0, 1e3)]
POINTS += [("two_exp", 1.5, 1.0 / delta) for delta in (0.1, 1.0, 10.0)]

with mp.workdps(30):
    _GL24 = mp.calculus.quadrature.GaussLegendre(mp.mp).calc_nodes(4, mp.mp.prec)


def _eta_mpmath(spec, xi, q):
    """2 int phi_q(theta) (1 - cf(theta / xi)) dtheta at 30 digits, as
    (2/pi) Im int H(xi theta) (1 - cf(theta)) ds on theta = e^{s + i psi}
    with the library's angle psi and H(z) = 0F1(; 13/2; -(w z)^2 / 16)
    e^{i (1 + w/2) z}.  Below the point where the integrand's phase reaches
    1, tanh-sinh on (-inf, s_1]; beyond it, a 24-node Gauss-Legendre rule on
    each piece over which a float bound on the phase turns by 2 pi (it
    agreed with adaptive Gauss-Legendre to 4e-28 on this test's grid).  The
    kernel is cut at e^-90."""
    psi = inversion._ray(spec).phi
    w = (q - 1.0) / 2.0
    t_hi = 90.0 / (xi * math.sin(psi))
    t_fast = min(t_hi, 90.0 / ((1.0 + w) * xi * math.sin(psi)))
    t_cf = [(90.0 / (wgt * math.cos(alph * psi))) ** (1.0 / alph) for alph, wgt in spec.groups]

    def phase(t):
        return xi * (t + w * min(t, t_fast)) + sum(
            wgt * min(t, tc) ** alph for (alph, wgt), tc in zip(spec.groups, t_cf))

    grid = np.linspace(math.log(t_hi) - 60.0, math.log(t_hi), 20001)
    turn = np.array([phase(math.exp(v)) for v in grid.tolist()])
    cuts = np.interp(np.arange(1.0, turn[-1], 2.0 * math.pi), turn, grid).tolist()
    with mp.workdps(30):
        wm, xim = mp.mpf(w), mp.mpf(xi)
        rot = mp.expj(mp.mpf(psi))
        groups = [(mp.mpf(alph), mp.mpf(wgt) * mp.expj(mp.mpf(alph) * mp.mpf(psi)))
                  for alph, wgt in spec.groups]
        k_z, y2 = 1j * xim * (1 + wm / 2) * rot, -(wm * xim * rot) ** 2 / 16
        c13 = mp.mpf(13) / 2

        def integrand(v):
            t = mp.exp(v)
            m = sum(c * mp.exp(alph * v) for alph, c in groups)
            one_cf = -mp.expm1(-m) if abs(m) < 0.01 else 1 - mp.exp(-m)
            return mp.im(mp.hyp0f1(c13, y2 * t * t) * mp.exp(k_z * t) * one_cf)

        pts = [mp.mpf(v) for v in sorted({*cuts, math.log(t_hi)})]
        total = mp.quad(integrand, [-mp.inf, pts[0]])
        for a, b in zip(pts[:-1], pts[1:]):
            mid, half = (a + b) / 2, (b - a) / 2
            total += half * mp.fsum(wk * integrand(mid + half * xk) for xk, wk in _GL24)
        return 2 / mp.pi * total


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(Path(__file__).with_name("ray_oracle.json")))
    args = ap.parse_args()
    t0 = time.perf_counter()
    rows = []
    for name, q, xi in POINTS:
        spec = fixture(name)
        with mp.workdps(30):
            value = mp.nstr(_eta_mpmath(spec, xi, q), 30)
        rows.append({"fixture": name, "groups": [list(g) for g in spec.groups],
                     "q": q, "xi": xi, "eta": value})
    with open(args.out, "w") as fh:  # one point per line
        fh.write('{"dps": 30, "points": [\n')
        fh.write(",\n".join(json.dumps(row) for row in rows))
        fh.write("\n]}\n")
    print(f"wrote {len(rows)} points to {args.out} in {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
