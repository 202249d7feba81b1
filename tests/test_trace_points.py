"""
The benchmark's trace points must name callables the package still has.

`perfbench/tracing.py` wraps every `TRACE_POINTS` entry at
`owner.__dict__[name]`, so a renamed or deleted name breaks every traced
benchmark run.
"""

import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402  (stdlib only)


@pytest.mark.parametrize(
    "module, attribute, attrs",
    [(module, attribute, attrs) for module, attribute, _span, attrs in tracing.TRACE_POINTS],
    ids=[f"{module}:{attribute}" for module, attribute, *_ in tracing.TRACE_POINTS],
)
def test_trace_point_resolves(module, attribute, attrs):
    owner, name = tracing._resolve(module, attribute)
    target = owner.__dict__[name]
    assert callable(target)
    if attrs is tracing._query_attrs:
        # the span attributes read the query argument by name
        assert "query_points" in inspect.signature(target).parameters
