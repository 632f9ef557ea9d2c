"""Span and count recorder for the traced benchmark run.

The recorder wraps the public functions of each ``multistable`` layer by
rebinding, in this process only, every module attribute through which a
caller looks them up.  Nothing under ``src/`` changes, and an untraced run
never calls :meth:`Tracer.install`.

Each span holds a name, start, end, parent span and operation id; counts
(nodes, draws, table sizes) are taken from the arguments or the result at
the same boundary.  Spans stay in memory until :meth:`summary` reduces
them after the run.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

import numpy as np

# layer -> public functions wrapped in that layer's module
LAYER_FUNCTIONS = {
    "function_space": ("quasinorm", "normalize_to_sphere"),
    "charfn": ("cf_profile", "cf"),
    "quadrature": ("fourier_integral", "adaptive_gk", "oscillatory_integral"),
    "inversion": ("density_with_error", "tail_probability_with_error", "cdf",
                  "density", "tail_probability", "interval_probability"),
    "asymptote": ("ratio_with_error", "ratio", "tail_asymptote", "scaling_bounds_check"),
    "mollifier": ("build_mollifier",),
    "prooflab": ("eta_with_error", "tau_with_error", "rho_with_error",
                 "verify_lemma1", "verify_lemma3", "verify_lemma5", "verify_lemma6",
                 "verify_parseval", "verify_elementary_inequality"),
    "sampler": ("sample", "mc_tail", "mixture_decompose"),
    "cli": ("run_command",),
    "fixtures": ("fixture", "random_spec"),
}

# (layer.function) -> count taken at the boundary from (args, kwargs, result)
_COUNTERS = {
    "charfn.cf_profile": lambda a, k, r: int(np.size(a[1] if len(a) > 1 else k["thetas"])),
    "mollifier.build_mollifier": lambda a, k, r: int(r.nodes.size),
    "prooflab.eta_with_error": lambda a, k, r: int(a[1].nodes.size),
    "prooflab.rho_with_error": lambda a, k, r: int(a[1].nodes.size),
    "sampler.sample": lambda a, k, r: int(np.size(r)),
    "sampler.mc_tail": lambda a, k, r: int(np.size(a[0] if a else k["draws"])),
    "sampler.mixture_decompose": lambda a, k, r: len(r),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        # one row per span: [name index, start, end, parent, op id, count]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.op_id = -1
        self._bindings: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        idx = self._name_index.setdefault(qualname, len(self.names))
        if idx == len(self.names):
            self.names.append(qualname)
        counter = _COUNTERS.get(qualname)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            row = [idx, clock(), 0.0, stack[-1] if stack else -1, self.op_id, 0]
            me = len(spans)
            spans.append(row)
            stack.append(me)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                row[2] = clock()
            if counter is not None:
                row[5] = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", qualname)
        return traced

    def install(self) -> None:
        """Rebind every module attribute that refers to a wrapped function."""
        if self._bindings:
            self._rebind()
            return
        pkg = importlib.import_module("multistable")
        modules = [pkg] + [importlib.import_module(f"multistable.{m}") for m in LAYER_FUNCTIONS]
        for layer, funcs in LAYER_FUNCTIONS.items():
            home = importlib.import_module(f"multistable.{layer}")
            for fname in funcs:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._bindings.append((mod, attr, orig, wrapper))
        moll_cls = importlib.import_module("multistable.mollifier").MollifierSpec
        self._bindings.append((moll_cls, "h", moll_cls.h, self._wrap("mollifier.h", moll_cls.h)))
        self._rebind()

    def _rebind(self) -> None:
        for obj, attr, _, wrapper in self._bindings:
            setattr(obj, attr, wrapper)

    def uninstall(self) -> None:
        for obj, attr, orig, _ in self._bindings:
            setattr(obj, attr, orig)

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    # -- reduction -----------------------------------------------------------------

    def summary(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per traced pass (counts exact, times in ms)."""
        names, spans = self.names, self.spans
        layer_of = [n.split(".")[0] for n in names]
        n = len(spans)
        dur = np.array([s[2] - s[1] for s in spans]) if n else np.zeros(0)
        child = np.zeros(n)
        entry = [0] * n  # name index of the outermost same-layer ancestor
        for i, s in enumerate(spans):
            p = s[3]
            if p >= 0:
                child[p] += dur[i]
            entry[i] = entry[p] if p >= 0 and layer_of[spans[p][0]] == layer_of[s[0]] else s[0]
        self_t = dur - child

        by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            by_name[names[s[0]]].append(i)

        def calls(name):
            return len(by_name.get(name, ())) / passes

        def total_ms(name):
            return float(sum(dur[i] for i in by_name.get(name, ()))) * 1e3 / passes

        def median_ms(name):
            ix = by_name.get(name, ())
            return float(statistics.median(dur[i] for i in ix)) * 1e3 if ix else 0.0

        def counted(name):
            return float(sum(spans[i][5] for i in by_name.get(name, ()))) / passes

        def entry_self_ms(name):
            """Self time of the layer's spans entered through ``name``."""
            if name not in self._name_index:
                return 0.0
            k = self._name_index[name]
            return float(sum(self_t[i] for i in range(n) if entry[i] == k)) * 1e3 / passes

        def layer_self_ms(layer, prefix=""):
            return float(sum(self_t[i] for i in range(n)
                             if layer_of[spans[i][0]] == layer
                             and names[entry[i]].startswith(prefix))) * 1e3 / passes

        def ratio(num, den, scale=1.0):
            return num * scale / den if den else 0.0

        # panels: cf_profile calls beneath a fourier_integral span, per operation
        fi = self._name_index.get("quadrature.fourier_integral")
        cfp = self._name_index.get("charfn.cf_profile")
        under_fi = np.zeros(n, dtype=bool)
        for i, s in enumerate(spans):
            p = s[3]
            under_fi[i] = s[0] == fi or (p >= 0 and under_fi[p])
        panels_per_op: dict[int, int] = defaultdict(int)
        for i, s in enumerate(spans):
            if s[0] == fi:
                panels_per_op.setdefault(s[4], 0)
            elif s[0] == cfp and under_fi[i]:
                panels_per_op[s[4]] += 1
        panels = sum(panels_per_op.values())
        fi_ms = total_ms("quadrature.fourier_integral") * passes

        groups_per_sample = []
        for i, s in enumerate(spans):
            if names[s[0]] == "sampler.mixture_decompose" and s[3] >= 0 \
                    and names[spans[s[3]][0]] == "sampler.sample":
                groups_per_sample.append((s[3], s[5]))
        draws_ms = total_ms("sampler.sample")
        draws = counted("sampler.sample")
        bytes_computed = sum(8.0 * spans[p][5] * (2 + 3 * g) for p, g in groups_per_sample)

        eta_rho = ("prooflab.eta_with_error", "prooflab.rho_with_error")
        table_nodes = sum(counted(k) for k in eta_rho)
        table_ms = sum(total_ms(k) for k in eta_rho)
        verify_self = sum(entry_self_ms(f"prooflab.{f}") for f in LAYER_FUNCTIONS["prooflab"]
                          if f.startswith("verify"))

        return {
            "function_space.quasinorm.calls": calls("function_space.quasinorm"),
            "function_space.quasinorm.ms": total_ms("function_space.quasinorm"),
            "charfn.cf_profile.calls": calls("charfn.cf_profile"),
            "charfn.cf_profile.nodes": counted("charfn.cf_profile"),
            "charfn.cf_profile.ms": total_ms("charfn.cf_profile"),
            "charfn.cf_profile.ns_per_node": ratio(total_ms("charfn.cf_profile"),
                                                   counted("charfn.cf_profile"), 1e6),
            "quadrature.fourier_integral.calls": calls("quadrature.fourier_integral"),
            "quadrature.fourier_integral.self_ms": entry_self_ms("quadrature.fourier_integral"),
            "quadrature.adaptive_gk.calls": calls("quadrature.adaptive_gk"),
            "quadrature.panels_per_op_p50": float(statistics.median(panels_per_op.values()))
            if panels_per_op else 0.0,
            "quadrature.panels_per_op_max": float(max(panels_per_op.values(), default=0)),
            "quadrature.us_per_panel": ratio(fi_ms, panels, 1e3),
            "inversion.density_with_error.ms_p50": median_ms("inversion.density_with_error"),
            "inversion.tail_probability_with_error.ms_p50":
                median_ms("inversion.tail_probability_with_error"),
            "inversion.cdf.ms_p50": median_ms("inversion.cdf"),
            "inversion.self_ms": layer_self_ms("inversion"),
            "inversion.bound_violations": self.counts["inversion.bound_violations"] / passes,
            "asymptote.ratio_with_error.calls": calls("asymptote.ratio_with_error"),
            "asymptote.ratio_with_error.self_ms": entry_self_ms("asymptote.ratio_with_error"),
            "mollifier.build_mollifier.calls": calls("mollifier.build_mollifier"),
            "mollifier.build_mollifier.ms_p50": median_ms("mollifier.build_mollifier"),
            "mollifier.table_nodes": counted("mollifier.build_mollifier"),
            "mollifier.h.calls": calls("mollifier.h"),
            "prooflab.eta_with_error.calls": calls("prooflab.eta_with_error"),
            "prooflab.eta_with_error.ms_p50": median_ms("prooflab.eta_with_error"),
            "prooflab.tau_with_error.calls": calls("prooflab.tau_with_error"),
            "prooflab.rho_with_error.ms_p50": median_ms("prooflab.rho_with_error"),
            "prooflab.verify.self_ms": verify_self,
            "prooflab.table_nodes_per_s": ratio(table_nodes, table_ms, 1e3),
            "sampler.sample.ns_per_draw": ratio(draws_ms, draws, 1e6),
            "sampler.sample.groups": float(sum(g for _, g in groups_per_sample)) / passes,
            "sampler.sample.bytes_computed": bytes_computed / passes,
            "sampler.mc_tail.ns_per_draw": ratio(total_ms("sampler.mc_tail"),
                                                 counted("sampler.mc_tail"), 1e6),
            "cli.run_command.calls": calls("cli.run_command"),
            "cli.run_command.self_ms": entry_self_ms("cli.run_command"),
            "cli.bytes_written": self.counts["cli.bytes_written"] / passes,
            "tracing.spans": n / passes,
        }
