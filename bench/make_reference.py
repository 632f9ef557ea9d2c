"""Build ``bench/reference.json``, the oracle table the benchmark checks against.

Usage (from the repository root; takes about ten minutes on two cores):

    python3 bench/make_reference.py [--workers 2] [--out bench/reference.json]

Nothing here imports the ``multistable`` package.  The fixtures are
restated from their published definitions, normalized to the unit sphere
in mpmath, and their coefficients rounded to float64; those float64
coefficients are the inputs the benchmark hands to the program, and the
oracle evaluates the law of exactly those inputs.

For every fixture and every candidate point of the log grid the table
holds the density and the two-sided tail.  Cauchy values come from the
closed forms; the quadrature routes are still run on Cauchy and must
reproduce them.  Elsewhere the rotated-contour route gives the value, and
where the real-axis zero-split route is feasible the two must agree.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time
from pathlib import Path

import mpmath as mp

sys.path.insert(0, str(Path(__file__).resolve().parent))
import grid  # noqa: E402
from oracle import DPS, Law, tail_constant  # noqa: E402

AGREE_REL = 1e-20  # two routes, or a route and a closed form, must agree this well
REAL_PANEL_LIMIT = 150

# Published fixture definitions: f breakpoints and coefficients, alpha
# breakpoints and values, and whether the fixture is normalized to the
# unit sphere (the constant-alpha ones are there by construction).
FIXTURE_DEFS = {
    "cauchy": ((0.0, 1.0), (1.0,), (), (1.0,), False),
    "alpha06": ((0.0, 1.0), (1.0,), (), (0.6,), False),
    "alpha18": ((0.0, 1.0), (1.0,), (), (1.8,), False),
    "two_exp": ((0.0, 2.0), (1.0,), (1.0,), (0.8, 1.5), True),
    "three_cell": ((-1.0, 0.0, 1.0, 2.0), (0.7, -1.2, 0.4), (0.0, 1.0), (0.5, 1.1, 1.9), True),
    "wide_narrow": ((0.0, 0.5, 3.5), (2.0, -0.6), (0.5,), (1.2, 0.7), True),
}


def _cells(bp, coefs, abp, avals):
    """(len, coef, alpha) on the common refinement (alpha taken at cell midpoints)."""
    pts = sorted(set(bp) | {b for b in abp if bp[0] < b < bp[-1]})
    out = []
    for lo, hi in zip(pts, pts[1:]):
        mid = 0.5 * (lo + hi)
        c = next(c for a, b, c in zip(bp, bp[1:], coefs) if a <= mid < b)
        alpha = avals[sum(1 for b in abp if b <= mid)]
        out.append((hi - lo, c, alpha))
    return out


def fixture_entry(name):
    bp, coefs, abp, avals, normalize = FIXTURE_DEFS[name]
    with mp.workdps(DPS + 10):
        cells = _cells(bp, coefs, abp, avals)

        def modular(lam):
            return mp.fsum(mp.mpf(ln) * abs(mp.mpf(c) / lam) ** mp.mpf(a) for ln, c, a in cells)

        lam = mp.findroot(lambda s: modular(s) - 1, mp.mpf(1)) if normalize else mp.mpf(1)
        coefs64 = [float(mp.mpf(c) / lam) for c in coefs]
        cells64 = _cells(bp, coefs64, abp, avals)
        groups = {}
        for ln, c, a in cells64:
            if c != 0.0:
                groups[a] = groups.get(a, 0) + abs(mp.mpf(c)) ** mp.mpf(a) * mp.mpf(ln)
        modular_err = mp.fsum(
            mp.mpf(ln) * abs(mp.mpf(c)) ** mp.mpf(a) for ln, c, a in cells64) - 1
        return {
            "breakpoints": list(bp),
            "coefficients": coefs64,
            "alpha_breakpoints": list(abp),
            "alpha_values": list(avals),
            "groups": [[mp.nstr(w, DPS), a] for a, w in sorted(groups.items())],
            "modular_at_1_minus_1": float(modular_err),
        }


def _agree(a, b):
    return abs(a - b) <= AGREE_REL * abs(b) + mp.mpf(10) ** -35


def point_task(args):
    name, groups, x = args
    law = Law([(mp.mpf(w), a) for w, a in groups])
    with mp.workdps(DPS):
        xm = mp.mpf(x)
        d, d_err = law.density_ray(x)
        p, p_err = law.tail_ray(x)
        routes = ["ray"]
        if law.real_feasible(xm, REAL_PANEL_LIMIT):
            d2, _ = law.density_real(x)
            p2, _ = law.tail_real(x)
            if not (_agree(d2, d) and _agree(p2, p)):
                raise RuntimeError(f"{name} x={x}: ray and real-axis routes disagree "
                                   f"({d} vs {d2}, {p} vs {p2})")
            routes.append("real")
        if name == "cauchy":
            d_cf = 1 / (mp.pi * (1 + xm ** 2))
            p_cf = 2 / mp.pi * mp.atan(1 / xm)
            if not (_agree(d, d_cf) and _agree(p, p_cf)):
                raise RuntimeError(f"cauchy x={x}: quadrature misses the closed form")
            d, p = d_cf, p_cf
            routes.append("closed_form")
        for v, e in ((d, d_err), (p, p_err)):
            if abs(e) > AGREE_REL * abs(v):
                raise RuntimeError(f"{name} x={x}: quadrature error estimate {e} too large")
        return name, x, float(d), float(p), "+".join(routes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workers", type=int, default=2)
    ap.add_argument("--out", default=str(Path(__file__).resolve().parent / "reference.json"))
    args = ap.parse_args(argv)

    t0 = time.time()
    fixtures = {name: fixture_entry(name) for name in FIXTURE_DEFS}
    xs = grid.candidates()
    tasks = [(name, fx["groups"], x) for name, fx in fixtures.items() for x in xs]
    points = {name: {} for name in fixtures}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(args.workers) as pool:
        for i, (name, x, d, p, routes) in enumerate(pool.imap_unordered(point_task, tasks)):
            points[name][repr(x)] = {"density": d, "tail": p, "routes": routes}
            if i % 50 == 0:
                print(f"{i}/{len(tasks)} points, {time.time() - t0:.0f} s", flush=True)

    asym = {}
    for name, fx in fixtures.items():
        law = Law([(mp.mpf(w), a) for w, a in fx["groups"]])
        lams = set(xs) | {float(q * xi) for q in grid.LEMMA_QS for xi in grid.LEMMA5_XIS} \
            | {float(xi / q) for q in grid.LEMMA_QS for xi in grid.LEMMA5_XIS}
        asym[name] = {repr(lam): float(law.asymptote(lam)) for lam in sorted(lams)}
    consts = {repr(g): float(tail_constant(g)) for g in grid.LEMMA3_GAMMAS}

    doc = {
        "about": "oracle table for bench/run.py; regenerate with bench/make_reference.py",
        "dps": DPS,
        "agree_rel": AGREE_REL,
        "fixtures": fixtures,
        "points": {name: dict(sorted(pts.items(), key=lambda kv: float(kv[0])))
                   for name, pts in points.items()},
        "asymptote": asym,
        "tail_constant": consts,
        "build_seconds": round(time.time() - t0, 1),
    }
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out} in {time.time() - t0:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
