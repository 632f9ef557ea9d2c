"""The three benchmark workloads and their oracle checks.

A workload is built from the reference table and a seed.  ``prepare`` does
the untimed set-up (spec files, the shared mollifier, certified reference
tails); ``pass_ops`` returns the operations of one pass in a seeded order.
An operation is one public call or one CLI command; its ``check`` compares
the result with the oracle table and never runs inside the timed region.

Failure kinds (each counted against the operations attempted):

* the call raised (``AccuracyError`` or anything else);
* a CLI command exited nonzero or wrote ``"passed": false``;
* ``|oracle - value| > err``: the value breaks its own error bound;
* a Monte Carlo tail lies more than 5 standard errors from the certified tail.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import grid

INVERSION_FIXTURES = ("cauchy", "alpha06", "alpha18", "two_exp", "three_cell", "wide_narrow")
INVERSION_TOLS = (1e-10, 1e-13)
# ROADMAP item 1: below this |x| the seed returns wrong values with tiny
# error bounds.  Failures there are counted but do not make a run incorrect.
KNOWN_DEFECT_BELOW = 1e-2
MC_FIXTURES = ("two_exp", "three_cell")
# One Philox chunk per call, the scale of `multistable sample --n 1000000`.
# At 1e7 draws per call the halves of one run differed by 14-27% in median
# time on a shared 2-core box (fresh 80 MB arrays page-fault on every call).
MC_DRAWS = 1 << 20
MC_SIGMAS = 5.0
SWEEP_FIXTURES = ("two_exp", "three_cell", "wide_narrow")


def digits(value: float, oracle: float) -> float:
    """-log10 of the relative error, clipped to [0, 16]."""
    if value == oracle:
        return 16.0
    if oracle == 0.0 or not math.isfinite(value):
        return 0.0
    rel = abs(value - oracle) / abs(oracle)
    return min(16.0, max(0.0, -math.log10(rel)))


@dataclass
class Outcome:
    failed: bool = False
    reason: str = ""
    digits: list[float] = field(default_factory=list)
    violation: bool = False         # broke its own error bound
    known_defect: bool = False      # inside the documented near-origin region
    bytes_written: int = 0


COMPUTE = {"compute": 1.0}
MEMORY = {"memory": 1.0}
MIXED = {"compute": 0.5, "memory": 0.5}


@dataclass
class Op:
    key: str
    fn: Callable[[], object]
    check: Callable[[object], Outcome]
    kernel: dict[str, float] | None = None  # calibration weights; None: the workload's


def raised(exc: BaseException) -> Outcome:
    return Outcome(failed=True, reason=f"{type(exc).__name__}: {exc}")


class Context:
    """What every workload needs: the program, the oracle table, seed, scratch dir."""

    def __init__(self, ms, ref: dict, seed: int, tmpdir: Path):
        self.ms = ms
        self.ref = ref
        self.seed = seed
        self.rng = np.random.Generator(np.random.Philox(key=seed))
        self.tmpdir = tmpdir

    def spec(self, name: str):
        fx = self.ref["fixtures"][name]
        fs = self.ms.function_space
        return fs.refine(fs.StepFunction(fx["breakpoints"], fx["coefficients"]),
                         fs.ExponentFunction(fx["alpha_breakpoints"], fx["alpha_values"]))

    def point(self, name: str, x: float) -> dict:
        return self.ref["points"][name][repr(x)]

    def fixture_check_ops(self, names) -> list[Op]:
        """The library's own fixtures must match the table's specs."""
        ops = []
        for name in names:
            fx = self.ref["fixtures"][name]

            def check(spec, fx=fx):
                got = spec.f.coefficients
                want = fx["coefficients"]
                ok = (len(got) == len(want)
                      and all(abs(g - w) <= 1e-11 * abs(w) for g, w in zip(got, want))
                      and tuple(spec.alpha.values) == tuple(fx["alpha_values"]))
                return Outcome(failed=not ok, reason="" if ok else f"fixture {got} != {want}")

            ops.append(Op(f"fixture:{name}", lambda name=name: self.ms.fixtures.fixture(name),
                          check))
        return ops


class Workload:
    name = ""
    tail_percentile = 99.0
    # calibration kernels measured, and the weights of an operation that
    # names none, shaped like the bottleneck (see calibration.py)
    kernels: tuple[str, ...] = ("compute",)
    kernel_weights = COMPUTE
    fixtures: tuple[str, ...] = ()
    # None: passes repeat until --seconds is up.  A number: the nominal
    # seconds of one pass, and the run makes a pass count fixed by
    # --seconds alone, so its attempted and failed counts never vary.
    nominal_pass_s: float | None = None

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def reference_ops(self) -> list[Op]:
        """Checked once per run, outside the timed passes."""
        return self.ctx.fixture_check_ops(self.fixtures)

    def prepare(self) -> None:
        pass

    def pass_ops(self, pass_index: int) -> list[Op]:
        return self._shuffled(self.ops, pass_index)

    def _shuffled(self, items: list, pass_index: int) -> list:
        """The seed's order of ``items`` for one pass."""
        rng = np.random.Generator(np.random.Philox(key=self.ctx.seed, counter=pass_index + 1))
        return [items[i] for i in rng.permutation(len(items))]


# ---------------------------------------------------------------------------

class InversionGrid(Workload):
    """density_with_error, tail_probability_with_error and cdf on log grids.

    Every pass covers every candidate point of the grid, in the seed's
    order.  The near-origin points break their bounds (ROADMAP item 1), so
    this workload has failures; with the whole grid in every pass and a
    fixed pass count they are the same in every run, whatever the seed.
    """

    name = "inversion-grid"
    tail_percentile = 99.0
    fixtures = INVERSION_FIXTURES
    nominal_pass_s = 6.0  # 2628 calls, 5.5-7.3 s on a shared 2-core box

    def prepare(self):
        ctx, inv = self.ctx, self.ctx.ms.inversion
        cfgs = {tol: ctx.ms.quadrature.QuadratureConfig(abs_tol=tol) for tol in INVERSION_TOLS}
        self.ops = []
        for name in self.fixtures:
            spec = ctx.spec(name)
            for tol, cfg in cfgs.items():
                for kind in ("density", "tail", "cdf"):
                    for x in grid.candidates():
                        o = ctx.point(name, x)
                        key = f"{kind}:{name}:{tol:g}:{x!r}"
                        if kind == "density":
                            fn = (lambda s=spec, x=x, c=cfg: inv.density_with_error(s, x, c))
                            check = self._with_error(o["density"], x)
                        elif kind == "tail":
                            fn = (lambda s=spec, x=x, c=cfg:
                                  inv.tail_probability_with_error(s, x, c))
                            check = self._with_error(o["tail"], x)
                        else:
                            fn = (lambda s=spec, x=x, c=cfg: inv.cdf(s, x, c))
                            check = self._cdf(1.0 - 0.5 * o["tail"], x, tol)
                        self.ops.append(Op(key, fn, check))

    @staticmethod
    def _with_error(oracle: float, x: float):
        def check(result):
            value, err = result
            out = Outcome(digits=[digits(value, oracle)], known_defect=x < KNOWN_DEFECT_BELOW)
            if not abs(oracle - value) <= err:
                out.failed = out.violation = True
                out.reason = f"|{oracle!r} - {value!r}| > err {err:.3e}"
            return out
        return check

    @staticmethod
    def _cdf(oracle: float, x: float, tol: float):
        def check(value):
            out = Outcome(digits=[digits(value, oracle)], known_defect=x < KNOWN_DEFECT_BELOW)
            if not abs(oracle - value) <= tol:  # cdf certifies abs_tol
                out.failed = out.violation = True
                out.reason = f"|{oracle!r} - {value!r}| > abs_tol {tol:g}"
            return out
        return check


# ---------------------------------------------------------------------------

class TheoremCli(Workload):
    """The theorem sweeps users run, through cli.run_command, plus eta/tau/rho."""

    name = "theorem-cli"
    tail_percentile = 95.0
    kernels = ("compute", "memory")
    kernel_weights = MIXED
    fixtures = INVERSION_FIXTURES

    def prepare(self):
        ctx = self.ctx
        self.specdir = ctx.tmpdir / "specs"
        self.outdir = ctx.tmpdir / "out"
        self.specdir.mkdir(parents=True, exist_ok=True)
        self.outdir.mkdir(parents=True, exist_ok=True)
        keys = ("breakpoints", "coefficients", "alpha_breakpoints", "alpha_values")
        for name in self.fixtures:
            fx = ctx.ref["fixtures"][name]
            (self.specdir / f"{name}.json").write_text(json.dumps({k: fx[k] for k in keys}))
        scan = grid.pick(ctx.rng, 10.0, 1e6)
        lemma = grid.pick(ctx.rng, 10.0, 1e4)
        self.ops = []
        for name in self.fixtures:
            spec = str(self.specdir / f"{name}.json")
            self.ops.append(self._cli(
                f"ratio-scan:{name}",
                ["ratio-scan", "--spec", spec, "--abs-tol", "1e-13",
                 "--lambdas", *map(repr, scan)], ".csv", self._check_ratio_scan(name)))
            for q in grid.LEMMA_QS:
                for lem in ("lemma1", "lemma5", "lemma6"):
                    argv = ["verify", lem, "--spec", spec, "--q", repr(q)]
                    if lem != "lemma5":  # lemma5 keeps the CLI's default xi grid
                        argv += ["--lambdas", *map(repr, lemma)]
                    self.ops.append(self._cli(f"{lem}:{name}:{q}", argv, ".json",
                                              self._check_verify(name, lem, q)))
        for q in grid.LEMMA_QS:
            self.ops.append(self._cli(f"lemma3:{q}", ["verify", "lemma3", "--q", repr(q)],
                                      ".json", self._check_verify(None, "lemma3", q)))
        self.ops.append(self._cli(
            "parseval:two_exp",
            ["verify", "parseval", "--spec", str(self.specdir / "two_exp.json")],
            ".json", self._check_verify("two_exp", "parseval", 1.5)))
        self.ops.append(self._cli(
            "remarks", ["verify", "remarks", "--samples", "1000", "--seed", str(ctx.seed)],
            ".json", self._check_verify(None, "remarks", None)))

        # rho has no CLI command: sweep eta, tau and rho through the library
        pl = ctx.ms.prooflab
        moll = ctx.ms.mollifier.build_mollifier(1.5)
        xis = [float(x) for x in ctx.rng.choice(grid.pick(ctx.rng, 1.0, 1e4), 3, replace=False)]
        for name in SWEEP_FIXTURES:
            spec = ctx.spec(name)
            for fname in ("eta_with_error", "tau_with_error", "rho_with_error"):
                for xi in xis:
                    self.ops.append(Op(f"{fname}:{name}:{xi!r}",
                                       lambda f=fname, s=spec, xi=xi:
                                       getattr(pl, f)(s, moll, xi), self._check_sweep))

    def _cli(self, key, argv, suffix, check) -> Op:
        out = self.outdir / (key.replace(":", "_") + suffix)
        argv = argv + ["--out", str(out)]
        cli = self.ctx.ms.cli

        def fn():
            for stale in (out, out.with_suffix(".csv")):  # never check a previous pass
                stale.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.run_command(argv)  # looked up per call, so a tracer can wrap it
            return rc, stderr.getvalue(), out

        return Op(key, fn, check)

    @staticmethod
    def _written(out: Path) -> int:
        return sum(p.stat().st_size for p in {out, out.with_suffix(".csv")} if p.exists())

    def _check_ratio_scan(self, name):
        asym, points = self.ctx.ref["asymptote"][name], self.ctx.ref["points"][name]

        def check(result):
            rc, err, out = result
            res = Outcome(bytes_written=self._written(out))
            if rc != 0:
                res.failed, res.reason = True, f"exit {rc}: {err.strip()}"
                return res
            with open(out, newline="") as fh:
                for row in csv.DictReader(fh):
                    lam = float(row["lambda"])
                    t, p, bound = float(row["T"]), float(row["P"]), float(row["abs_err_bound"])
                    t_o, p_o = asym[repr(lam)], points[repr(lam)]["tail"]
                    res.digits += [digits(t, t_o), digits(p, p_o)]
                    # P is written as ratio * T: allow its rounding (4 ulp) on top of the bound
                    if not abs(p - p_o) <= bound * t + 4 * np.spacing(abs(p)):
                        res.failed = res.violation = True
                        res.reason = f"lambda={lam!r}: |{p_o!r} - {p!r}| > {bound * t:.3e}"
            return res
        return check

    def _check_verify(self, name, lemma, q):
        ref = self.ctx.ref

        def check(result):
            rc, err, out = result
            res = Outcome(bytes_written=self._written(out))
            if rc != 0:
                res.failed, res.reason = True, f"exit {rc}: {err.strip()}"
                return res
            report = json.loads(out.read_text())
            if report.get("passed") is not True:
                res.failed, res.reason = True, f"{lemma} wrote passed={report.get('passed')}"
            for row in report.get("grid", []):
                if lemma == "lemma1":
                    res.digits.append(digits(row["tail"],
                                             ref["points"][name][repr(row["lambda"])]["tail"]))
                elif lemma == "lemma5":
                    asym = ref["asymptote"][name]
                    res.digits.append(digits(row["T_qxi"], asym[repr(float(q * row["xi"]))]))
                    res.digits.append(digits(row["T_xi_over_q"], asym[repr(float(row["xi"] / q))]))
                elif lemma == "lemma3":
                    c = ref["tail_constant"].get(repr(row["gamma"]))
                    if c is not None:
                        res.digits.append(digits(row["C"], c))
            return res
        return check

    @staticmethod
    def _check_sweep(result):
        value, err = result
        if not (math.isfinite(value) and math.isfinite(err) and value >= 0.0 and err >= 0.0):
            return Outcome(failed=True, reason=f"sweep returned ({value!r}, {err!r})")
        return Outcome()


# ---------------------------------------------------------------------------

class McOracle(Workload):
    """Monte Carlo draws checked against certified tails."""

    name = "mc-oracle"
    tail_percentile = 95.0
    kernels = ("compute", "memory")  # sample follows the mix, mc_tail memory
    fixtures = MC_FIXTURES

    def prepare(self):
        ctx = self.ctx
        self.specs = {name: ctx.spec(name) for name in self.fixtures}
        self.lams = {name: grid.pick(ctx.rng, 1e-2, 1e4) for name in self.fixtures}
        self.certified: dict[tuple[str, float], float] = {}
        self._draws = None

    def reference_ops(self):
        """Certified tails from the library, themselves checked against the oracle."""
        ops = super().reference_ops()
        inv = self.ctx.ms.inversion
        cfg = self.ctx.ms.quadrature.QuadratureConfig(abs_tol=1e-10)
        for name, lams in self.lams.items():
            for lam in lams:
                oracle = self.ctx.point(name, lam)["tail"]

                def check(p, name=name, lam=lam, oracle=oracle):
                    self.certified[(name, lam)] = p
                    out = Outcome(digits=[digits(p, oracle)])
                    if not abs(p - oracle) <= cfg.abs_tol:
                        out.failed = out.violation = True
                        out.reason = f"certified tail {p!r} vs oracle {oracle!r}"
                    return out

                ops.append(Op(f"certify:{name}:{lam!r}",
                              lambda s=self.specs[name], lam=lam: inv.tail_probability(s, lam, cfg),
                              check))
        return ops

    def pass_ops(self, pass_index):
        sampler = self.ctx.ms.sampler
        ops = []
        for gi, name in enumerate(self._shuffled(list(self.fixtures), pass_index)):
            # a fresh Philox key per pass and fixture, derived from the seed
            key = (self.ctx.seed * 1_000_003 + pass_index) * len(self.fixtures) + gi

            def draw(spec=self.specs[name], key=key):
                self._draws = None  # keep one draw array alive at a time
                self._draws = sampler.sample(spec, MC_DRAWS, seed=key)
                return self._draws.size

            ops.append(Op(f"sample:{name}", draw,
                          lambda n: Outcome(failed=n != MC_DRAWS, reason=f"{n} draws"),
                          MIXED))
            lam_ops = [Op(f"mc_tail:{name}:{lam!r}",
                          lambda lam=lam: sampler.mc_tail(self._draws, lam),
                          self._check_mc(name, lam), MEMORY) for lam in self.lams[name]]
            ops += self._shuffled(lam_ops, pass_index)
        return ops

    def _check_mc(self, name, lam):
        def check(result):
            p_hat, _ = result
            p = self.certified.get((name, lam), self.ctx.point(name, lam)["tail"])
            se = math.sqrt(p * (1.0 - p) / MC_DRAWS)
            if abs(p_hat - p) > MC_SIGMAS * se:
                return Outcome(failed=True, reason=f"mc tail {p_hat!r} vs {p!r} (se {se:.2e})")
            return Outcome()
        return check

WORKLOADS = {w.name: w for w in (InversionGrid, TheoremCli, McOracle)}
