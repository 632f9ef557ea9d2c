"""Steadiness self-check: rerun workloads over several seeds, report spread vs bound.

Usage, from the root of a checkout:

    python3 bench/steadiness.py --workloads inversion-grid,mc-oracle --seeds 1-10
    python3 bench/steadiness.py --workloads theorem-cli --seeds 3,3 --trace 1

For every end-to-end metric the spread is the distance between the first
and third quartile of the runs (``statistics.quantiles(values, n=4)``) as
a share of their median; it must stay within the metric's bound, and a
benchmark is called steady when it stays below a third of it.  With
``--trace 1`` the per-layer counts that later changes may cite as counts
must repeat exactly across runs of one seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_COUNTS = ("charfn.cf_profile.calls", "quadrature.adaptive_gk.calls",
                "mollifier.build_mollifier.calls")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        results = []
        for seed in _seeds(args.seeds):
            res = run_once(workload, seed, seconds, args.trace)
            results.append(res)
            print(json.dumps({"workload": workload, "seed": seed, **res}), flush=True)
        if any(not r["correct"] for r in results):
            ok = False
            print(f"{workload}: a run reported correct=false")
        if args.trace:
            for name in EXACT_COUNTS:
                vals = {r["metrics"][name]["value"] for r in results}
                same = len(vals) == 1 or len(set(_seeds(args.seeds))) > 1
                print(f"{workload:15s} {name:40s} values {sorted(vals)}"
                      f"{'' if same else '  NOT EXACT'}")
                ok &= same
            continue
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            verdict = "steady" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
            if name != "setup_s":
                ok &= spread <= bound
            print(f"{workload:15s} {name:20s} median {med:12.6g} spread {spread:7.4f} "
                  f"bound {bound:5.3f} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
