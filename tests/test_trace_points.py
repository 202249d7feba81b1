"""
The benchmark's trace points, and the CLI functions its workloads call,
must name callables the package still has.

`perfbench/tracing.py` wraps every `TRACE_POINTS` entry at
`owner.__dict__[name]`, so a renamed or deleted name breaks every traced
benchmark run; a missing `cli.<name>` breaks its workload.
"""

import inspect
import re
import sys
from pathlib import Path

import pytest

import driftfield.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
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


def test_workloads_call_the_cli_functions():
    names = set(re.findall(r"\bcli\.(\w+)\(", (PERFBENCH / "workloads.py").read_text()))
    # workloads.py imports driftfield.cli as `cli`; under another name this
    # would check nothing
    assert "parse_config" in names
    for name in sorted(names):
        assert callable(getattr(driftfield.cli, name, None)), name
