"""
Every public function has a caller in the package or the benchmark: a
function named in a module's `__all__` that nothing calls is dead code.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["cli", "estimator", "flowfield", "gp", "harness", "kernels", "simulator"]
# Public for the tests, which check the package against them.
ORACLES = {
    "eval_scalar_kernel": "the scalar kernel the matrix kernel's finite differences are taken of",
    "divergence_fd": "finite-difference divergence that checks incompressible fields",
}
SOURCES = "\n".join(
    p.read_text() for d in ("src/driftfield", "perfbench") for p in sorted((ROOT / d).glob("*.py"))
)


@pytest.mark.parametrize("module", MODULES)
def test_every_public_function_is_called(module):
    mod = importlib.import_module(f"driftfield.{module}")
    functions = [n for n in mod.__all__ if inspect.isfunction(getattr(mod, n))]
    uncalled = [
        n for n in functions
        if n not in ORACLES and not re.search(rf"(?<!def )\b{n}\(", SOURCES)
    ]
    assert uncalled == []
