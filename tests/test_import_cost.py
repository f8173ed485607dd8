"""``import blockdiag`` loads no module that only some calls need.

The set-up time of every benchmark workload starts with a fresh
``import blockdiag``; sparse graphs, optimizers, special functions,
statistics, multiprecision and property testing are imported where they
are used (or only by the tests), never at import time.
"""

import os
import pathlib
import subprocess
import sys

HEAVY = ("scipy.sparse", "scipy.optimize", "scipy.special", "scipy.stats", "mpmath", "hypothesis")

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def test_import_blockdiag_loads_no_heavy_module():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    listing = "import sys, blockdiag; print(blockdiag.__file__); print(*sorted(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", listing], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert pathlib.Path(out[0]).is_relative_to(SRC)
    loaded = {m for m in out[1:] for h in HEAVY if m == h or m.startswith(h + ".")}
    assert loaded == set()
