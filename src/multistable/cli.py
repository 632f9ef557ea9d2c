"""Command-line front end: spec parsing, grid sweeps, CSV/JSON emission.

Spec files are JSON documents with the fields

    {
      "breakpoints":       [x_0, ..., x_m],     # f's cell edges, sorted
      "coefficients":      [c_1, ..., c_m],     # one per bounded cell
      "alpha_breakpoints": [t_1, ..., t_k],     # may be empty
      "alpha_values":      [a_0, ..., a_k]      # one per cell, k+1 entries
    }

All exponents must lie strictly inside (0, 2).  Every emitted numeric
uses 17 significant digits and rows are sorted before writing, so a
repeated invocation (same flags, same seed) produces byte-identical
output.  Accuracy failures surface as a nonzero exit code, never as
silently degraded numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import fixtures
from .asymptote import TailAsymptote, ratio_with_error, tail_asymptote
from .charfn import cf
from .function_space import (
    ExponentFunction,
    MultistableSpec,
    StepFunction,
    normalize_to_sphere,
    quasinorm,
    refine,
)
from .inversion import _certified_density, density_with_error, tail_probability_with_error
from .mollifier import build_mollifier
from .prooflab import (
    verify_elementary_inequality,
    verify_lemma1,
    verify_lemma3,
    verify_lemma5,
    verify_lemma6,
    verify_parseval,
)
from .quadrature import AccuracyError, QuadratureConfig, _certify
from .sampler import mc_tail, sample

OUTDIR_ENV = "MULTISTABLE_OUTDIR"


class SpecFormatError(ValueError):
    """A spec file that does not satisfy the documented schema."""


def _fmt(x) -> str:
    return format(float(x), ".17g")


def parse_spec_dict(doc: dict) -> MultistableSpec:
    for key in ("breakpoints", "coefficients", "alpha_breakpoints", "alpha_values"):
        if key not in doc:
            raise SpecFormatError(f"spec file is missing the field {key!r}")
    try:
        f = StepFunction(tuple(doc["breakpoints"]), tuple(doc["coefficients"]))
    except ValueError as exc:
        raise SpecFormatError(f"invalid step function: {exc}") from exc
    try:
        alpha = ExponentFunction(tuple(doc["alpha_breakpoints"]), tuple(doc["alpha_values"]))
    except ValueError as exc:
        raise SpecFormatError(f"invalid exponent function: {exc}") from exc
    return refine(f, alpha)


def parse_spec(path: str | Path) -> MultistableSpec:
    """Load and validate a spec file; distinct diagnostics per failure mode."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecFormatError(f"cannot read spec file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"spec file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecFormatError(f"spec file {path} must contain a JSON object")
    return parse_spec_dict(doc)


def emit_spec(spec: MultistableSpec) -> dict:
    """Inverse of parse_spec_dict (round-trips exactly)."""
    return {
        "breakpoints": list(spec.f.breakpoints),
        "coefficients": list(spec.f.coefficients),
        "alpha_breakpoints": list(spec.alpha.breakpoints),
        "alpha_values": list(spec.alpha.values),
    }


def _load_spec(args) -> MultistableSpec:
    if getattr(args, "fixture", None):
        return fixtures.fixture(args.fixture)
    if getattr(args, "spec", None):
        return parse_spec(args.spec)
    raise SpecFormatError("provide --spec FILE or --fixture NAME")


def _outpath(args, default_name: str) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    outdir = Path(os.environ.get(OUTDIR_ENV, "."))
    return outdir / default_name


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


# rows per formatted block of a one-column CSV: one string operation per
# block instead of per row, with memory bounded by the block
_CSV_BLOCK = 1 << 16


def _write_column(path: Path, header: str, values: np.ndarray) -> None:
    """One float column as CSV, byte-identical to _write_csv: "%.17g" % x is
    format(x, ".17g")."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for i in range(0, values.size, _CSV_BLOCK):
            block = values[i:i + _CSV_BLOCK].tolist()
            fh.write(("%.17g\n" * len(block)) % tuple(block))


def _cfg(args) -> QuadratureConfig:
    return QuadratureConfig(abs_tol=args.abs_tol)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_quasinorm(args) -> int:
    spec = _load_spec(args)
    val = quasinorm(spec, args.rel_tol)
    print(_fmt(val))
    return 0


def _cmd_cf(args) -> int:
    spec = _load_spec(args)
    thetas = sorted(args.theta)
    rows = [[float(t), float(cf(spec, t))] for t in thetas]
    out = _outpath(args, "cf.csv")
    _write_csv(out, ["theta", "cf"], rows)
    print(f"wrote {out}")
    return 0


def _cmd_density(args) -> int:
    spec = _load_spec(args)
    cfg = _cfg(args)
    rows = []
    clamped = 0
    for x in sorted(args.x):
        raw, err = density_with_error(spec, x, cfg)
        val = _certified_density(f"density at x={x}", raw, err, cfg)
        clamped += raw < 0.0
        rows.append([float(x), val, err])
    if clamped > 0.01 * len(rows):
        print(f"error: {clamped}/{len(rows)} density values needed clamping to 0",
              file=sys.stderr)
        return 4
    out = _outpath(args, "density.csv")
    _write_csv(out, ["x_or_lambda", "value", "est_error"], rows)
    print(f"wrote {out}")
    return 0


def _cmd_tail(args) -> int:
    spec = _load_spec(args)
    cfg = _cfg(args)
    rows = []
    for lam in sorted(args.lambdas):
        val, err = tail_probability_with_error(spec, lam, cfg)
        _certify(f"tail at lambda={lam}", err, cfg)
        rows.append([float(lam), val, err])
    out = _outpath(args, "tail.csv")
    _write_csv(out, ["x_or_lambda", "value", "est_error"], rows)
    print(f"wrote {out}")
    return 0


def _cmd_asymptote(args) -> int:
    spec = _load_spec(args)
    rows = [[float(lam), tail_asymptote(spec, lam)] for lam in sorted(args.lambdas)]
    out = _outpath(args, "asymptote.csv")
    _write_csv(out, ["lambda", "T"], rows)
    print(f"wrote {out}")
    return 0


def _cmd_ratio_scan(args) -> int:
    spec = _load_spec(args)
    if args.normalize:
        spec = normalize_to_sphere(spec)
    cfg = _cfg(args)
    asym = TailAsymptote.from_spec(spec)
    rows = []
    for lam in sorted(args.lambdas):
        r, rerr = ratio_with_error(spec, lam, cfg)
        t = float(asym(lam))
        rows.append([float(lam), t, r * t, r, rerr])
    out = _outpath(args, "ratio_scan.csv")
    _write_csv(out, ["lambda", "T", "P", "ratio", "abs_err_bound"], rows)
    print(f"wrote {out}")
    return 0


def _cmd_sample(args) -> int:
    spec = _load_spec(args)
    draws = sample(spec, args.n, seed=args.seed)
    out = _outpath(args, f"sample.{'npy' if args.format == 'npy' else 'csv'}")
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.summary:
        qs = [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99]
        rows = [[float(q), float(np.quantile(draws, q))] for q in qs]
        for lam in args.tail_at:
            p, se = mc_tail(draws, lam)
            rows.append([float(lam), p])
        _write_csv(Path(str(out) + ".summary.csv"), ["quantile_or_lambda", "value"], rows)
    if args.format == "npy":
        np.save(out, draws)
    else:
        _write_column(out, "draw", draws)
    print(f"wrote {out}")
    return 0


_LEMMA_DEFAULT_LAMBDAS = [10.0, 50.0, 100.0, 1000.0]


def _cmd_verify(args) -> int:
    cfg = _cfg(args)
    which = args.lemma
    if which == "lemma2":
        rng = np.random.Generator(np.random.Philox(key=args.seed))
        us = rng.uniform(0.0, 1e3, args.samples)
        ok = verify_elementary_inequality(us)
        report = {"lemma": "lemma2", "passed": bool(ok),
                  "grid": [], "summary": {"samples": int(args.samples)}}
        rows, header = [], ["u_max", "passed"]
        rows.append([float(us.max()), int(ok)])
    elif which == "remarks":
        from .asymptote import scaling_bounds_check

        rng = np.random.Generator(np.random.Philox(key=args.seed))
        rows, header = [], ["draw", "xi", "delta", "ok1", "ok2", "ok3"]
        ok = True
        for i in range(args.samples):
            spec = fixtures.random_spec(rng)
            xi = float(rng.uniform(1.0, 50.0))
            delta = float(rng.uniform(0.05, 20.0))
            r = scaling_bounds_check(spec, xi, delta)
            ok &= all(r)
            rows.append([i, xi, delta, int(r[0]), int(r[1]), int(r[2])])
        report = {"lemma": "remarks", "passed": bool(ok), "grid": [],
                  "summary": {"samples": int(args.samples)}}
    else:
        moll = build_mollifier(args.q)
        if which == "lemma3":
            gammas = [round(g, 10) for g in np.arange(0.3, 1.95, 0.1)]
            rep = verify_lemma3(moll, gammas)
            header = ["gamma", "lower", "C", "upper", "margin_lower", "margin_upper"]
            rows = [[r["gamma"], r["lower"], r["C"], r["upper"],
                     r["margin_lower"], r["margin_upper"]] for r in rep.grid]
        else:
            spec = _load_spec(args)
            lambdas = args.lambdas or _LEMMA_DEFAULT_LAMBDAS
            if which == "lemma1":
                rep = verify_lemma1(spec, moll, lambdas, cfg)
                header = ["lambda", "eta_upper_arg", "tail", "eta_lower_arg"]
                rows = [[r["lambda"], r["eta_upper_arg"], r["tail"], r["eta_lower_arg"]]
                        for r in rep.grid]
            elif which == "lemma5":
                xis = args.lambdas or [1.0, 10.0, 100.0]
                rep = verify_lemma5(spec, moll, xis)
                header = ["xi", "T_qxi", "tau", "T_xi_over_q"]
                rows = [[r["xi"], r["T_qxi"], r["tau"], r["T_xi_over_q"]] for r in rep.grid]
            elif which == "lemma6":
                rep = verify_lemma6(spec, moll, lambdas, cfg)
                header = ["lambda", "ratio_lower", "ratio_upper", "envelope_needed"]
                rows = [[r["lambda"], r["ratio_lower"], r["ratio_upper"],
                         r["envelope_needed"]] for r in rep.grid]
            elif which == "parseval":
                rep = verify_parseval(spec, moll, args.deltas, cfg)
                header = ["delta", "theta_side", "x_side", "difference", "tolerance"]
                rows = [[r["delta"], r["theta_side"], r["x_side"], r["difference"],
                         r["tolerance"]] for r in rep.grid]
            else:
                raise SpecFormatError(f"unknown verify target {which!r}")
        report = rep.to_dict()

    out_json = _outpath(args, f"verify_{which}.json")
    out_json.parent.mkdir(parents=True, exist_ok=True)
    with open(out_json, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    out_csv = out_json.with_suffix(".csv")
    _write_csv(out_csv, header, rows)
    status = "pass" if report["passed"] else "FAIL"
    print(f"{which}: {status} ({out_json})")
    return 0 if report["passed"] else 3


# ---------------------------------------------------------------------------

def _add_spec_args(p: argparse.ArgumentParser):
    p.add_argument("--spec", help="path to a JSON spec file")
    p.add_argument("--fixture", choices=fixtures.fixture_names(),
                   help="use a built-in unit-sphere fixture instead of a file")
    p.add_argument("--out", help="output path (default: per-command name in "
                                 f"${OUTDIR_ENV} or the working directory)")


def _add_quad_args(p: argparse.ArgumentParser):
    p.add_argument("--abs-tol", type=float, default=1e-10)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="multistable",
        description="Numerics and theorem verification for multistable distributions")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quasinorm", help="quasinorm of a spec")
    _add_spec_args(p)
    p.add_argument("--rel-tol", type=float, default=1e-12)
    p.set_defaults(fn=_cmd_quasinorm)

    p = sub.add_parser("cf", help="characteristic function on a theta grid")
    _add_spec_args(p)
    p.add_argument("--theta", type=float, nargs="+", required=True)
    p.set_defaults(fn=_cmd_cf)

    p = sub.add_parser("density", help="density on an x grid (CSV)")
    _add_spec_args(p)
    _add_quad_args(p)
    p.add_argument("--x", type=float, nargs="+", required=True)
    p.set_defaults(fn=_cmd_density)

    p = sub.add_parser("tail", help="two-sided tail probabilities (CSV)")
    _add_spec_args(p)
    _add_quad_args(p)
    p.add_argument("--lambdas", type=float, nargs="+", required=True)
    p.set_defaults(fn=_cmd_tail)

    p = sub.add_parser("asymptote", help="tail asymptote T(lambda) (CSV)")
    _add_spec_args(p)
    p.add_argument("--lambdas", type=float, nargs="+", required=True)
    p.set_defaults(fn=_cmd_asymptote)

    p = sub.add_parser("ratio-scan", help="tail/asymptote ratio over lambda (CSV)")
    _add_spec_args(p)
    _add_quad_args(p)
    p.add_argument("--lambdas", type=float, nargs="+",
                   default=[100.0, 1000.0, 10000.0])
    p.add_argument("--normalize", action="store_true",
                   help="normalize the spec to the unit sphere first")
    p.set_defaults(fn=_cmd_ratio_scan)

    p = sub.add_parser("sample", help="Monte Carlo draws of I(f)")
    _add_spec_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["csv", "npy"], default="csv")
    p.add_argument("--summary", action="store_true")
    p.add_argument("--tail-at", type=float, nargs="*", default=[])
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("verify", help="lemma verification sweeps (JSON + CSV)")
    p.add_argument("lemma", choices=["lemma1", "lemma2", "lemma3", "lemma5",
                                     "lemma6", "parseval", "remarks"])
    _add_spec_args(p)
    p.add_argument("--q", type=float, default=1.5)
    _add_quad_args(p)
    p.add_argument("--lambdas", type=float, nargs="*", default=None,
                   help="lambda grid for lemma1 and lemma6 (default 10 50 100 1000); "
                        "for lemma5 the xi grid (default 1 10 100)")
    p.add_argument("--deltas", type=float, nargs="*", default=[0.1, 1.0])
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)

    return ap


def run_command(argv: list[str]) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except SpecFormatError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
