"""
Importing the CLI must stay cheap: every command pays for it before any
work starts. driftfield needs numpy alone. scipy 1.17's `scipy.linalg`
took 185-310 ms of a 280-450 ms import (2-core Xeon), most of it in the
array-API shim, which imports numpy's f2py, testing, random and ma.

`numpy.random` must load, though: numpy imports it on first use, and the
montecarlo pool's forked workers would each import it again.
"""

import os
import subprocess
import sys
from pathlib import Path

import driftfield


def test_cli_import_loads_numpy_random_and_no_scipy():
    src = str(Path(driftfield.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, driftfield.cli; print(' '.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = out.stdout.split()
    assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
    assert "numpy.random" in loaded
