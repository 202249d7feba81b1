"""
Every public function has a caller in the package or the benchmark: a
function named in a module's `__all__` that nothing calls is dead code.
Every public exception is a ValueError or is caught by name in the
package; any other only renames the error it wraps.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["cli", "estimator", "flowfield", "gp", "harness", "kernels", "simulator"]
PACKAGE = "\n".join(p.read_text() for p in sorted((ROOT / "src/driftfield").glob("*.py")))
SOURCES = "\n".join([PACKAGE] + [p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py"))])
# the names in the package's `except` clauses, tuples across lines included
CAUGHT = "\n".join(re.findall(r"^\s*except\b([^:]*):", PACKAGE, re.M))


@pytest.mark.parametrize("module", MODULES)
def test_every_public_function_is_called(module):
    mod = importlib.import_module(f"driftfield.{module}")
    functions = [n for n in mod.__all__ if inspect.isfunction(getattr(mod, n))]
    uncalled = [n for n in functions if not re.search(rf"(?<!def )\b{n}\(", SOURCES)]
    assert uncalled == []


@pytest.mark.parametrize("module", MODULES)
def test_every_public_exception_is_a_value_error_or_caught_by_name(module):
    mod = importlib.import_module(f"driftfield.{module}")
    exceptions = [n for n in mod.__all__
                  if inspect.isclass(getattr(mod, n)) and issubclass(getattr(mod, n), Exception)]
    renames = [n for n in exceptions
               if not issubclass(getattr(mod, n), ValueError) and not re.search(rf"\b{n}\b", CAUGHT)]
    assert renames == []
