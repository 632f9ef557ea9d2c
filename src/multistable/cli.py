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
silently degraded numbers.  Exit codes: 0 success; 2 a usage, spec or value
error; 3 an unmet tolerance or a failed verify; 4 more than 1% of a density
grid needed clamping to 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import fixtures
from .asymptote import _ratio_parts, _scaling_bounds, tail_asymptote
from .charfn import cf
from .function_space import (
    ExponentFunction,
    MultistableSpec,
    StepFunction,
    _cells_and_groups,
    normalize_to_sphere,
    quasinorm,
    refine,
)
from .inversion import _certified_density, _densities_with_error, _tails_with_error
from .mollifier import build_mollifier
from .prooflab import (
    LemmaReport,
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
    if not (args.spec or args.fixture):
        raise SpecFormatError("provide --spec FILE or --fixture NAME")
    return fixtures.fixture(args.fixture) if args.fixture else parse_spec(args.spec)


def _outpath(args, default_name: str) -> Path:
    if args.out:
        return Path(args.out)
    outdir = Path(os.environ.get(OUTDIR_ENV, "."))
    return outdir / default_name


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


# rows per formatted block of a column CSV: one string operation per block
# instead of per row, with memory bounded by the block
_CSV_BLOCK = 1 << 16


def _write_column(path: Path, header: str, *columns: np.ndarray, fmt: str = "%.17g") -> None:
    """Equal-length columns as CSV rows, each row "fmt" % (its values): with
    "%.17g" for a float column and "%d" for an int or bool one, byte-identical
    to _write_csv ("%.17g" % x is format(x, ".17g"), "%d" % i is str(i) and
    "%d" % True is str(int(True)))."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for i in range(0, len(columns[0]), _CSV_BLOCK):
            block = [c[i:i + _CSV_BLOCK].tolist() for c in columns]
            values = block[0] if len(block) == 1 else [v for row in zip(*block) for v in row]
            fh.write((f"{fmt}\n" * len(block[0])) % tuple(values))


def _cfg(args) -> QuadratureConfig:
    return QuadratureConfig(abs_tol=args.abs_tol)


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_quasinorm(args) -> int:
    print(_fmt(quasinorm(_load_spec(args), args.rel_tol)))
    return 0


class _Clamped(Exception):
    """More than 1% of a density grid needed clamping to 0 (exit code 4)."""


def _density_rows(spec, args, xs):
    cfg = _cfg(args)
    pairs = _densities_with_error(spec, xs)
    rows = [[x, _certified_density(f"density at x={x}", raw, err, cfg), err]
            for x, (raw, err) in zip(xs, pairs)]
    clamped = sum(raw < 0.0 for raw, _ in pairs)
    if clamped > 0.01 * len(rows):
        raise _Clamped(f"{clamped}/{len(rows)} density values needed clamping to 0")
    return rows


def _tail_rows(spec, args, lams):
    cfg = _cfg(args)
    pairs = _tails_with_error(spec, lams)
    for lam, (_, err) in zip(lams, pairs):
        _certify(f"tail at lambda={lam}", err, cfg)
    return [[lam, val, err] for lam, (val, err) in zip(lams, pairs)]


def _ratio_scan_rows(spec, args, lams):
    spec = normalize_to_sphere(spec) if args.normalize else spec
    cfg, parts = _cfg(args), _ratio_parts(spec, lams)
    for _, _, perr in parts:
        _certify("tail probability inside ratio", perr, cfg)
    return [[lam, t, p, p / t, perr / t] for lam, (t, p, perr) in zip(lams, parts)]


class _Grid(NamedTuple):
    """A subcommand that writes one CSV row per point of its sorted grid
    --<grid>.  rows(spec, args, points) takes the whole sorted grid and returns
    its rows, so the densities or tails of a grid are one batch."""

    help: str
    grid: str
    header: list[str]
    rows: Callable
    default: list[float] | None = None  # None makes --<grid> required
    abs_tol: bool = False


_GRIDS = {
    "cf": _Grid("characteristic function on a theta grid", "theta", ["theta", "cf"],
                lambda spec, args, ts: [[t, float(cf(spec, t))] for t in ts]),
    "density": _Grid("density on an x grid (CSV)", "x", ["x_or_lambda", "value", "est_error"],
                     _density_rows, abs_tol=True),
    "tail": _Grid("two-sided tail probabilities (CSV)", "lambdas",
                  ["x_or_lambda", "value", "est_error"], _tail_rows, abs_tol=True),
    # T one lambda at a time, as a grid would move pinned digests (asymptote._asymptote)
    "asymptote": _Grid("tail asymptote T(lambda) (CSV)", "lambdas", ["lambda", "T"],
                       lambda spec, args, lams: [[x, tail_asymptote(spec, x)] for x in lams]),
    "ratio-scan": _Grid("tail/asymptote ratio over lambda (CSV)", "lambdas",
                        ["lambda", "T", "P", "ratio", "abs_err_bound"], _ratio_scan_rows,
                        [100.0, 1000.0, 10000.0], abs_tol=True),
}


def _cmd_grid(args) -> int:
    grid = _GRIDS[args.command]
    rows = grid.rows(_load_spec(args), args, sorted(getattr(args, grid.grid)))
    out = _outpath(args, f"{args.command.replace('-', '_')}.csv")
    _write_csv(out, grid.header, rows)
    print(f"wrote {out}")
    return 0


def _cmd_sample(args) -> int:
    if args.tail_at and not args.summary:     # the tails are written to the summary
        raise ValueError("--tail-at needs --summary")
    for lam in args.tail_at:                  # refused before drawing, not after
        if not lam >= 0.0:
            raise ValueError(f"lambda must be nonnegative, got {lam}")
    spec = _load_spec(args)
    draws = sample(spec, args.n, seed=args.seed)
    out = _outpath(args, f"sample.{'npy' if args.format == 'npy' else 'csv'}")
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.summary:
        qs = [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99]
        rows = [[q, float(v)] for q, v in zip(qs, np.quantile(draws, qs))]
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


# samples per block of the remarks sweep, so that T's (n, 4, groups) powers
# stay bounded on any --samples
_REMARKS_BLOCK = 1 << 14
_REMARKS_HEADER, _REMARKS_FORMAT = "draw,xi,delta,ok1,ok2,ok3", "%d,%.17g,%.17g,%d,%d,%d"


def _remarks(rng: np.random.Generator, samples: int):
    """xi, delta and the (samples, 3) verdicts of the remarks sweep: sample i is
    a random_spec draw, then its xi and delta from the same stream, checked by
    scaling_bounds_check.  Per sample only the draws and the spec's groups are
    computed; the checks run a block of samples at a time."""
    xi, delta = np.empty(samples), np.empty(samples)
    ok = np.empty((samples, 3), dtype=bool)
    for start in range(0, samples, _REMARKS_BLOCK):
        stop = min(start + _REMARKS_BLOCK, samples)
        groups, a, b = [], [], []
        for i in range(start, stop):
            f_bp, coefs, a_bp, a_vals = fixtures._spec_draws(rng)
            xi[i] = rng.uniform(1.0, 50.0)
            delta[i] = rng.uniform(0.05, 20.0)
            groups.append(_cells_and_groups(f_bp, coefs, a_bp, a_vals)[1])
            a.append(min(a_vals))
            b.append(max(a_vals))
        ok[start:stop] = _scaling_bounds(groups, a, b, xi[start:stop], delta[start:stop])[1]
    return xi, delta, ok


_LEMMA_DEFAULT_LAMBDAS = [10.0, 50.0, 100.0, 1000.0]
_LEMMA3_GAMMAS = [round(g, 10) for g in np.arange(0.3, 1.95, 0.1)]


class _Target(NamedTuple):  # run(args) -> (LemmaReport, its CSV writer); flags it reads
    run: Callable
    flags: tuple[str, ...]  # "spec" (--spec or --fixture) and keys of _VERIFY_FLAGS


def _sweep(flags, header, sweep) -> _Target:
    """The target whose sweep(args, moll) returns a LemmaReport, its CSV the grid
    keys header; --q's mollifier is built first, so a bad q is reported first."""
    def run(args):
        rep = sweep(args, build_mollifier(args.q))
        return rep, lambda out: _write_csv(out, header, [[r[k] for k in header] for r in rep.grid])
    return _Target(run, flags)


def _run_lemma2(args):
    us = np.random.Generator(np.random.Philox(key=args.seed)).uniform(0.0, 1e3, args.samples)
    ok = verify_elementary_inequality(us)
    return (LemmaReport("lemma2", ok, [], {"samples": args.samples}),
            lambda out: _write_csv(out, ["u_max", "passed"], [[float(us.max()), int(ok)]]))


def _run_remarks(args):
    xi, delta, ok = _remarks(np.random.Generator(np.random.Philox(key=args.seed)), args.samples)
    columns = (np.arange(args.samples), xi, delta, *ok.T)
    return (LemmaReport("remarks", bool(ok.all()), [], {"samples": args.samples}),
            lambda out: _write_column(out, _REMARKS_HEADER, *columns, fmt=_REMARKS_FORMAT))


# every verify target, each a subparser of verify that takes only its flags
_TARGETS = {
    "lemma1": _sweep(("spec", "q", "lambdas"), ["lambda", "eta_upper_arg", "tail", "eta_lower_arg"],
                     lambda args, moll: verify_lemma1(
                         _load_spec(args), moll, args.lambdas or _LEMMA_DEFAULT_LAMBDAS)),
    "lemma2": _Target(_run_lemma2, ("samples", "seed")),
    "lemma3": _sweep(("q",), ["gamma", "lower", "C", "upper", "margin_lower", "margin_upper"],
                     lambda args, moll: verify_lemma3(moll, _LEMMA3_GAMMAS)),
    "lemma5": _sweep(("spec", "q", "lambdas"), ["xi", "T_qxi", "tau", "T_xi_over_q"],
                     lambda args, moll: verify_lemma5(
                         _load_spec(args), moll, args.lambdas or [1.0, 10.0, 100.0])),
    "lemma6": _sweep(("spec", "q", "lambdas"),
                     ["lambda", "ratio_lower", "ratio_upper", "margin_lower", "margin_upper"],
                     lambda args, moll: verify_lemma6(
                         _load_spec(args), moll, args.lambdas or _LEMMA_DEFAULT_LAMBDAS)),
    "parseval": _sweep(("spec", "q", "deltas"),
                       ["delta", "theta_side", "x_side", "difference", "tolerance"],
                       lambda args, moll: verify_parseval(_load_spec(args), moll, args.deltas)),
    "remarks": _Target(_run_remarks, ("samples", "seed")),
}


def _cmd_verify(args) -> int:
    rep, write_csv = _TARGETS[args.lemma].run(args)
    out_json = _outpath(args, f"verify_{args.lemma}.json")
    out_json.parent.mkdir(parents=True, exist_ok=True)
    with open(out_json, "w") as fh:
        json.dump(rep.to_dict(), fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    write_csv(out_json.with_suffix(".csv"))
    print(f"{args.lemma}: {'pass' if rep.passed else 'FAIL'} ({out_json})")
    return 0 if rep.passed else 3


# ---------------------------------------------------------------------------

def _count(text: str) -> int:
    """argparse type for a number of draws or samples: a whole number >= 1,
    also written with an exponent (1e7)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 1.0 and value.is_integer()):
        raise argparse.ArgumentTypeError(f"expected a whole number >= 1 such as 1000000 "
                                         f"or 1e7, got {text!r}")
    return int(value)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every token float() accepts as a value:
    argparse itself takes -1e-6 and -inf for options, as its own test for a
    negative number matches only -1 and -.5 forms.  No option of this CLI
    parses as a number, so -h and the real flags stay options."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _add_spec_args(p: argparse.ArgumentParser, spec: bool = True, out: bool = True):
    if spec:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--spec", help="path to a JSON spec file")
        group.add_argument("--fixture", choices=fixtures.fixture_names(),
                           help="use a built-in unit-sphere fixture instead of a file")
    if out:
        p.add_argument("--out", help="output path (default: per-command name in "
                                     f"${OUTDIR_ENV} or the working directory)")


# the verify flags but --spec, --fixture and --out, in the order they are registered
_VERIFY_FLAGS = {
    "q": dict(type=float, default=1.5),
    "lambdas": dict(type=float, nargs="+", default=None,
                    help="lambda grid, default 10 50 100 1000 (lemma5: xi grid, default 1 10 100)"),
    "deltas": dict(type=float, nargs="*", default=[0.1, 1.0]),
    "samples": dict(type=_count, default=1000),
    "seed": dict(type=int, default=0),
}


@functools.cache  # one parser per process: no handler may mutate its list defaults
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(  # its subparsers are _Parser too
        prog="multistable",
        description="Numerics and theorem verification for multistable distributions")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quasinorm", help="quasinorm of a spec (printed, no file)")
    _add_spec_args(p, out=False)
    p.add_argument("--rel-tol", type=float, default=1e-12)
    p.set_defaults(fn=_cmd_quasinorm)

    for name, grid in _GRIDS.items():
        p = sub.add_parser(name, help=grid.help)
        _add_spec_args(p)
        if grid.abs_tol:
            p.add_argument("--abs-tol", type=float, default=1e-10)
        p.add_argument(f"--{grid.grid}", type=float, nargs="+",
                       required=grid.default is None, default=grid.default)
        p.set_defaults(fn=_cmd_grid)
    sub.choices["ratio-scan"].add_argument(
        "--normalize", action="store_true", help="normalize the spec to the unit sphere first")

    p = sub.add_parser("sample", help="Monte Carlo draws of I(f)")
    _add_spec_args(p)
    p.add_argument("--n", type=_count, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["csv", "npy"], default="csv")
    p.add_argument("--summary", action="store_true")
    p.add_argument("--tail-at", type=float, nargs="*", default=[])
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("verify", help="lemma verification sweeps (JSON + CSV)")
    p.set_defaults(fn=_cmd_verify)
    targets = p.add_subparsers(dest="lemma", required=True)
    for name, target in _TARGETS.items():
        t = targets.add_parser(name)
        _add_spec_args(t, spec="spec" in target.flags)
        for flag in [f for f in _VERIFY_FLAGS if f in target.flags]:
            t.add_argument(f"--{flag}", **_VERIFY_FLAGS[flag])

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
    except _Clamped as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
