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
SOURCES = "\n".join(
    p.read_text() for d in ("src/driftfield", "perfbench") for p in sorted((ROOT / d).glob("*.py"))
)


@pytest.mark.parametrize("module", MODULES)
def test_every_public_function_is_called(module):
    mod = importlib.import_module(f"driftfield.{module}")
    functions = [n for n in mod.__all__ if inspect.isfunction(getattr(mod, n))]
    uncalled = [n for n in functions if not re.search(rf"(?<!def )\b{n}\(", SOURCES)]
    assert uncalled == []
