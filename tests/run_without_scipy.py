"""Run the CLI through its module entry point with scipy blocked.

    python tests/run_without_scipy.py ARGS...

takes the arguments of ``python -m multistable.cli``.  scipy is a test
oracle only: with ``sys.modules['scipy'] = None`` every import of it raises
ImportError.  Exits with the command's code, or 1 if any scipy module was
loaded after the command and a plain ``import multistable.cli``.
"""

import runpy
import sys

sys.modules["scipy"] = None
sys.argv = ["multistable", *sys.argv[1:]]
try:
    runpy.run_module("multistable.cli", run_name="__main__", alter_sys=True)
    code = 0
except SystemExit as exc:
    code = exc.code
import multistable.cli  # noqa: E402,F401  (the module itself imports too)

loaded = sorted(name for name, mod in sys.modules.items()
                if name.partition(".")[0] == "scipy" and mod is not None)
if loaded:
    print(f"scipy modules loaded: {loaded}", file=sys.stderr)
    sys.exit(1)
sys.exit(code)
