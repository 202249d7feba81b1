"""
Importing the CLI must stay cheap: every command pays for it before any
work starts. numpy and scipy.linalg are needed; the scipy subpackages
below are not, and `scipy.spatial` alone adds about 0.1 s to the import
(after scipy.linalg, measured 60-140 ms on a 2-core Xeon).
"""

import os
import subprocess
import sys
from pathlib import Path

import driftfield

HEAVY = ("scipy.spatial", "scipy.sparse", "scipy.optimize", "scipy.stats", "scipy.interpolate")


def test_cli_import_loads_no_heavy_scipy_subpackage():
    src = str(Path(driftfield.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import sys, driftfield.cli; "
        f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == []
