"""Time one fresh interpreter's set-up: ``import multistable`` plus the fixtures.

Run by ``bench/run.py`` in a child process; prints one JSON line with
the raw ``import_s`` and ``fixtures_s`` and their sum at the reference
speed, ``setup_ref_s``.  Arguments: the fixture names the workload
uses.  Each is built twice, as users get it: the library's normalized
fixture by name, and the benchmark's input spec from the reference table.
"""

import json
import sys
import time
from pathlib import Path

# Reference speed for set-up: the pure-Python kernel below takes this long.
# Set-up is scaled by the kernel measured just before and just after it,
# because the machine's speed drifts by 15-20% over tens of seconds; over
# 120 probes that cut the drift of 16-s block medians from 15% to 5%.
PYTHON_REFERENCE_S = 8e-3


def _python_kernel() -> float:
    """Pure-Python work (numpy is not imported yet): dict updates, formatting."""
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    n = 0
    for i in range(20000):
        table[i % 97] = table.get(i % 97, 0.0) + i * 0.5
        n += len(str(i))
    return time.perf_counter() - t0


def _kernel_s() -> float:
    return sorted(_python_kernel() for _ in range(3))[1]


names = sys.argv[1:]
ref = json.loads((Path(__file__).resolve().parent / "reference.json").read_text())["fixtures"]

before = _kernel_s()
t0 = time.perf_counter()
import multistable  # noqa: E402
from multistable import fixtures, function_space as fs  # noqa: E402

t1 = time.perf_counter()
for name in names:
    fixtures.fixture(name)
    fx = ref[name]
    fs.refine(fs.StepFunction(fx["breakpoints"], fx["coefficients"]),
              fs.ExponentFunction(fx["alpha_breakpoints"], fx["alpha_values"]))
t2 = time.perf_counter()
kernel_s = (before + _kernel_s()) / 2.0
print(json.dumps({"import_s": t1 - t0, "fixtures_s": t2 - t1,
                  "setup_ref_s": (t2 - t0) * PYTHON_REFERENCE_S / kernel_s,
                  "module": multistable.__file__}))
