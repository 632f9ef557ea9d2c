"""The repository benchmark: one workload, timed or traced, checked against an oracle.

Usage, from the root of a checkout:

    python3 bench/run.py --workload inversion-grid --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` wraps each layer's public functions (see ``tracer.py``) and
reports the per-layer metrics instead.  Metric names, units and bounds are
read from ``BENCHMARK.json``.  Every output line but the last is
information; the last is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout, never from an
installed copy; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
MIN_PASSES = 4          # per-operation medians and a steady tail need four repeats
MIN_BEYOND_TAIL = 10    # operations the tail percentile must leave above it
SETUP_PROBES = {0: 5, 1: 3}
PROBE_TIMEOUT_S = 120


class BenchError(RuntimeError):
    pass


def _pin_environment() -> None:
    """One BLAS/OpenMP thread, and the checkout's src/ first on the path."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ.pop("PYTHONHOME", None)
    sys.path[:0] = [str(SRC), str(HERE)]


def _import_program():
    if not (SRC / "multistable" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'multistable'} is missing")
    import multistable
    import multistable.cli  # noqa: F401  (the submodules the workloads call)
    import multistable.fixtures  # noqa: F401
    import multistable.mollifier  # noqa: F401

    if Path(multistable.__file__).resolve().parent != SRC / "multistable":
        raise BenchError(f"imported {multistable.__file__}, not the checkout's src/")
    return multistable


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def measure_setup(fixture_names, probes: int) -> dict:
    """Median over fresh interpreters of import plus fixture building.

    ``setup_s`` is at the reference speed of ``setup_probe.py``; the per-layer
    ``setup.*`` numbers are raw.
    """
    runs = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *fixture_names],
            cwd=ROOT, env=os.environ.copy(), capture_output=True, text=True,
            timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(rec["module"]).resolve().parent != SRC / "multistable":
            raise BenchError(f"setup probe imported {rec['module']}")
        runs.append(rec)
    return {
        "setup_s": statistics.median(r["setup_ref_s"] for r in runs),
        "raw_setup_s": statistics.median(r["import_s"] + r["fixtures_s"] for r in runs),
        "setup.import_s": statistics.median(r["import_s"] for r in runs),
        "setup.fixtures_ms": statistics.median(r["fixtures_s"] for r in runs) * 1e3,
    }


class Tally:
    """Failure accounting over every operation attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexplained = 0       # failures outside the documented defect region
        self.violations = 0
        self.digits: list[float] = []
        self.reasons: list[str] = []

    def add(self, key, outcome) -> None:
        self.attempted += 1
        self.digits += outcome.digits
        self.violations += outcome.violation
        if outcome.failed:
            self.failed += 1
            self.unexplained += not outcome.known_defect
            if len(self.reasons) < 12:
                self.reasons.append(f"{key}: {outcome.reason}"[:300])


def execute(op):
    """Run one operation, timing only the call; a raised exception is a failure."""
    from workloads import raised

    t0 = time.perf_counter()
    try:
        result = op.fn()
    except Exception as exc:  # counted as a failed operation; the run goes on
        return time.perf_counter() - t0, raised(exc)
    dt = time.perf_counter() - t0
    try:
        return dt, op.check(result)
    except Exception as exc:  # output the check could not read
        return dt, raised(exc)


def nearest_rank(sorted_values, pct):
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1], len(sorted_values) - k


def fixed_passes(wl, seconds, per_unit=1):
    """The pass count of a workload with ``nominal_pass_s``, else None.

    It depends on ``seconds`` alone, never on how fast the machine ran, so
    every run of such a workload attempts the same operations.
    ``per_unit`` is the number of passes that make up one unit of work.
    """
    if wl.nominal_pass_s is None:
        return None
    return max(1, round(seconds / (per_unit * wl.nominal_pass_s)))


def run_timed(wl, seconds, tally) -> dict:
    from calibration import Clock

    clock = Clock(wl.kernels)
    entries = []            # (op key, clock index)
    keys = None
    passes = 0
    fixed = fixed_passes(wl, seconds)
    if fixed is not None:
        fixed = max(MIN_PASSES, fixed)
    start = time.perf_counter()
    while (passes < fixed if fixed is not None else
           (passes < MIN_PASSES or time.perf_counter() - start < seconds
            or len(entries) * (1.0 - wl.tail_percentile / 100.0) < MIN_BEYOND_TAIL)):
        ops = wl.pass_ops(passes)
        if keys is None:
            keys = [op.key for op in ops]
        for op in ops:
            clock.before()
            dt, outcome = execute(op)
            entries.append((op.key, clock.record(dt, op.kernel or wl.kernel_weights)))
            tally.add(op.key, outcome)
        passes += 1
    wall = time.perf_counter() - start
    if len(entries) * (1.0 - wl.tail_percentile / 100.0) < MIN_BEYOND_TAIL:
        raise BenchError(f"{len(entries)} operations leave fewer than {MIN_BEYOND_TAIL} "
                         f"beyond the p{wl.tail_percentile:g} tail")
    ref = clock.finish()
    raw = clock.raw()
    by_key = defaultdict(list)
    for key, i in entries:
        by_key[key].append(ref[i])
    robust_pass_s = sum(statistics.median(by_key[k]) for k in keys)
    ref_sorted = sorted(ref)
    tail, beyond = nearest_rank(ref_sorted, wl.tail_percentile)
    return {
        "ops_per_s": len(keys) / robust_pass_s,
        "op_ms_p50": statistics.median(ref_sorted) * 1e3,
        "op_ms_tail": tail * 1e3,
        "_info": {"passes": passes, "ops_per_pass": len(keys), "timed_ops": len(ref),
                  "tail_percentile": wl.tail_percentile, "ops_beyond_tail": beyond,
                  "measured_s": wall, "kernel_slowness_median": clock.slowness_median(),
                  "raw_op_ms_p50": statistics.median(raw) * 1e3,
                  "raw_op_ms_tail": nearest_rank(sorted(raw), wl.tail_percentile)[0] * 1e3},
    }


def run_traced(wl, seconds, tally) -> dict:
    from calibration import Clock
    from tracer import Tracer

    tr = Tracer()
    clock = Clock(wl.kernels)
    op_counter = 0

    def one_pass(index, traced):
        nonlocal op_counter
        first = None
        for op in wl.pass_ops(index):
            tr.op_id = op_counter
            op_counter += 1
            clock.before()
            dt, outcome = execute(op)
            i = clock.record(dt, op.kernel or wl.kernel_weights)
            first = i if first is None else first
            tally.add(op.key, outcome)
            if traced:
                tr.count("inversion.bound_violations", outcome.violation)
                tr.count("cli.bytes_written", outcome.bytes_written)
        return first, i + 1

    one_pass(0, False)  # warm-up: lazy imports and first-call costs
    plain, traced = [], []
    index = 1
    # a pair is one plain and one traced pass, the latter about twice as long
    pairs = fixed_passes(wl, seconds, per_unit=3)
    start = time.perf_counter()
    while (len(traced) < pairs if pairs is not None else
           (not traced or time.perf_counter() - start < seconds)):
        plain.append(one_pass(index, False))
        tr.install()
        try:
            traced.append(one_pass(index + 1, True))
        finally:
            tr.uninstall()
        index += 2
    ref = clock.finish()
    plain_s = [sum(ref[a:b]) for a, b in plain]
    traced_s = [sum(ref[a:b]) for a, b in traced]
    metrics = tr.summary(len(traced))
    # both sides at the reference speed, so machine drift between passes cancels
    metrics["tracing.overhead_pct"] = 100.0 * (statistics.median(traced_s)
                                               / statistics.median(plain_s) - 1.0)
    metrics["_info"] = {"traced_passes": len(traced), "untraced_passes": len(plain),
                        "traced_ref_s": traced_s, "untraced_ref_s": plain_s}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="multistable benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec_doc["per_layer" if args.trace else "end_to_end"]

    _pin_environment()
    ms = _import_program()
    import numpy as np

    import workloads as W

    if args.workload not in W.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {list(W.WORKLOADS)}")
    if args.seed < 0:
        raise BenchError("seed must be nonnegative")
    ref = json.loads((HERE / "reference.json").read_text())

    tmpdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = W.WORKLOADS[args.workload](W.Context(ms, ref, args.seed, tmpdir))
        setup = measure_setup(wl.fixtures, SETUP_PROBES[args.trace])
        tally = Tally()
        wl.prepare()
        for op in wl.reference_ops():
            _, outcome = execute(op)
            tally.add(op.key, outcome)
        if args.trace:
            metrics = run_traced(wl, args.seconds, tally)
            metrics["setup.import_s"] = setup["setup.import_s"]
            metrics["setup.fixtures_ms"] = setup["setup.fixtures_ms"]
        else:
            metrics = run_timed(wl, args.seconds, tally)
            d = np.asarray(tally.digits)
            metrics.update({
                "setup_s": setup["setup_s"],
                "pass_frac": 1.0 - tally.failed / tally.attempted,
                "correct_digits_p50": float(np.percentile(d, 50)) if d.size else 0.0,
                "correct_digits_p10": float(np.percentile(d, 10)) if d.size else 0.0,
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            })
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            tmpdir.parent.rmdir()
        except OSError:
            pass

    info = metrics.pop("_info")
    info.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                 "raw_setup_s": setup["raw_setup_s"], "violations": tally.violations,
                 "unexplained_failures": tally.unexplained,
                 "failure_examples": tally.reasons, "machine": machine_record()})
    print(json.dumps({"info": info}))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    print(json.dumps({
        "correct": tally.unexplained == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError, ImportError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
