"""The reference grid shared by the oracle table and the benchmark.

The grid covers x (or lambda) from 1e-6 to 1e6 in half-decade slots.
Each slot holds three candidate points, at 0, 1/3 and 2/3 of the slot in
log scale, and the last slot is the single point 1e6.  ``inversion-grid``
runs every candidate; the other workloads' seed picks one candidate per
slot, so every seed exercises every half decade with the same mix of work.
"""

from __future__ import annotations

import numpy as np

SLOT_LO, SLOT_HI = -12, 12          # slots k cover [10^(k/2), 10^((k+1)/2))
FRACTIONS = (0.0, 1.0 / 3.0, 2.0 / 3.0)

LEMMA_QS = (1.25, 1.5, 2.0)
LEMMA5_XIS = (1.0, 10.0, 100.0)     # the CLI's default xi grid for lemma5
# the CLI's gamma grid for lemma3
LEMMA3_GAMMAS = tuple(round(float(g), 10) for g in np.arange(0.3, 1.95, 0.1))


def slots() -> list[list[float]]:
    """Candidate points per slot, ascending."""
    out = [[float(10.0 ** ((k + f) / 2.0)) for f in FRACTIONS] for k in range(SLOT_LO, SLOT_HI)]
    out.append([1e6])
    return out


def candidates() -> list[float]:
    return [x for slot in slots() for x in slot]


def pick(rng: np.random.Generator, lo: float = 0.0, hi: float = float("inf")) -> list[float]:
    """One candidate per slot whose candidates all lie in [lo, hi]."""
    chosen = []
    for slot in slots():
        if slot[0] >= lo and slot[-1] <= hi:
            chosen.append(slot[int(rng.integers(len(slot)))])
    return chosen
