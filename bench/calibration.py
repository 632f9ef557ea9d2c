"""Calibration kernels that track how fast this machine runs right now.

Shared machines change speed by up to a factor of two over tens of
seconds (co-tenants, frequency, cache and memory contention).  The
benchmark measures a fixed kernel between operations and reports times at
a fixed reference speed:

    t_ref = t_measured / f,   f = sum_k w_k * t_kernel_k / REFERENCE_S[k],

where ``f`` is the mean of the speed factors measured just before and just
after the operation and the weights ``w_k`` belong to the operation.  Two
kernels cover what the program spends its time on:

* ``compute``: interpreter-bound calls on small arrays plus one vectorized
  pass over a 256 KiB array;
* ``memory``: a comparison-and-count pass over an 8 MiB array (larger than
  the L2 cache, so it competes for L3 and memory like the program's large
  arrays), the shape of ``mc_tail`` on 2^20 draws.

The weights were chosen by how well they tracked each kind of operation
over 80-95 s on a shared 2-core box, where raw times drift by 15-20%:
Fourier-inversion calls follow ``compute`` (pass times to 2%), ``mc_tail``
follows ``memory`` (to 2%), and ``sample`` and the CLI sweeps, which mix
interpreter work with passes over large arrays, follow an even mix (20-s
medians to 2%).  The memory kernel was widened from 2 MiB to 8 MiB after a
period of L3 contention slowed ``mc_tail`` by 40% more than the smaller
kernel.  The kernels do not touch the program, so a change to the program
cannot move them.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

# kernel times that define the reference speed
REFERENCE_S = {"compute": 0.6e-3, "memory": 2.0e-3}
_X = np.linspace(0.1, 3.0, 15)
_W = np.linspace(0.2, 1.0, 15)
_BIG = np.linspace(0.01, 6.0, 1 << 15)
_WIDE = np.linspace(-3.0, 3.0, 1 << 20)


def _compute_kernel() -> float:
    s = 0.0
    heap: list[tuple[float, int]] = []
    for i in range(40):
        y = np.exp(-(_X * (1.0 + 0.01 * i)) ** 0.8)
        s += float(_W @ y)
        heapq.heappush(heap, (-s, i))
        if len(heap) > 8:
            heapq.heappop(heap)
    s += float(np.sum(np.sin(_BIG) * np.exp(-_BIG)))
    return s


def _memory_kernel() -> float:
    return float(np.count_nonzero(np.abs(_WIDE) > 0.5))


_KERNELS = {"compute": _compute_kernel, "memory": _memory_kernel}


def measure(kind: str = "compute") -> float:
    """Seconds the kernel takes now, with warm caches.

    The first call refills the caches the preceding operation evicted, so
    the timed second call does not depend on what the program just did.
    """
    kernel = _KERNELS[kind]
    kernel()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Clock:
    """Per-operation reference-speed timing.

    ``before()`` measures every kernel in ``kinds`` when ``every_s`` has
    passed since the last measurement.  Each operation is recorded with its
    kernel weights and scaled by the weighted speed factor, averaged over
    the measurements just before and just after it.
    """

    def __init__(self, kinds, every_s: float = 0.02):
        # machine speed moves within a second; the kernels cost 5-10% at 0.02 s
        self.kinds = tuple(kinds)
        self.every_s = every_s
        self._last_at = -1.0
        self._slowness: list[dict[str, float]] = []  # kernel time / reference, per kind
        self._ops: list[tuple[float, int, dict[str, float]]] = []

    def _measure(self) -> None:
        self._slowness.append({k: measure(k) / REFERENCE_S[k] for k in self.kinds})
        self._last_at = time.perf_counter()

    def before(self) -> None:
        if time.perf_counter() - self._last_at >= self.every_s:
            self._measure()

    def record(self, raw_s: float, weights: dict[str, float]) -> int:
        self._ops.append((raw_s, len(self._slowness) - 1, weights))
        return len(self._ops) - 1

    def raw(self) -> list[float]:
        return [r for r, _, _ in self._ops]

    def finish(self) -> list[float]:
        """Reference-speed seconds for every recorded operation, in order."""
        self._measure()
        out = []
        for raw, k, weights in self._ops:
            a, b = self._slowness[k], self._slowness[k + 1]
            out.append(raw / sum(w * (a[kind] + b[kind]) / 2.0 for kind, w in weights.items()))
        return out

    def slowness_median(self) -> dict[str, float]:
        return {k: sorted(m[k] for m in self._slowness)[len(self._slowness) // 2]
                for k in self.kinds}
