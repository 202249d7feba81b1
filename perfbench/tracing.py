"""
Span tracing of driftfield from outside the package.

`Tracer.install()` replaces public driftfield callables with wrappers
that record one span per call. Each wrapper sits at the name the package
looks the callable up by; a wrapper placed anywhere else is bypassed.
For example `driftfield.cli` binds its own `monte_carlo`, so a wrapper on
`driftfield.harness.monte_carlo` would miss the call that
`driftfield montecarlo` makes.

A span is the list [name, start, end, parent index, attrs]. The parent
index points into the same process's span list (-1 for a root span);
attrs holds call sizes such as query points n, targets N or the A x B
of a block matrix. Spans stay in memory until the run ends.

Pool workers forked while a tracer is installed start with an empty
span list. Each writes its spans and its own peak RSS to a JSON file
when it exits, and `collect_workers()` reads those files back in the
parent. This relies on
the `fork` start method, which the harness pool uses on Linux.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import resource
from contextlib import contextmanager
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter


def _mission_attrs(a, log):
    return {"steps": sum(c.num_steps for c in log.cycles)}


def _file_bytes(a, _result):
    return {"bytes": os.path.getsize(a["path"])}


def _query_attrs(a, _result):
    return {"n": len(a["query_points"]), "N": a["self"].num_targets}


# (module, attribute, span name, attrs(bound arguments, result) or None).
# A None attrs keeps the wrapper cheap for calls made once per dive step.
TRACE_POINTS = (
    ("driftfield.cli", "main", "cli.main", None),
    ("driftfield.cli", "monte_carlo", "harness.monte_carlo",
     lambda a, r: {"trials": a["cfg"].trials, "workers": a["workers"],
                   "kept": len(r.kept_trial_indices)}),
    ("driftfield.cli", "emit_report", "harness.emit_report",
     lambda a, r: {"bytes": sum(os.path.getsize(p) for p in r)}),
    ("driftfield.cli", "run_mission", "simulator.run_mission", _mission_attrs),
    ("driftfield.cli", "write_cycles", "simulator.write_cycles", _file_bytes),
    ("driftfield.cli", "ingest_cycles", "simulator.ingest_cycles", _file_bytes),
    ("driftfield.harness", "run_mission", "simulator.run_mission", _mission_attrs),
    ("driftfield.harness", "iter_process_mission", "estimator.cycle", "generator"),
    ("driftfield.harness", "write_field_csv", "flowfield.write_field_csv", None),
    ("driftfield.simulator", "ingest_cycles", "simulator.ingest_cycles", _file_bytes),
    ("driftfield.simulator", "eval_field", "flowfield.eval_field", None),
    ("driftfield.flowfield", "write_field_csv", "flowfield.write_field_csv", None),
    ("driftfield.estimator", "iter_process_mission", "estimator.cycle", "generator"),
    ("driftfield.estimator", "m_step", "estimator.m_step",
     lambda a, r: {"n": len(a["trajectory"]) - 1, "N": a["model"].num_targets}),
    ("driftfield.estimator", "e_step", "estimator.e_step",
     lambda a, r: {"n": len(a["currents"])}),
    ("driftfield.estimator", "downsample_targets", "gp.downsample_targets",
     lambda a, r: {"in": len(a["positions"]), "out": len(r[0])}),
    ("driftfield.estimator", "to_vec2_list", "flowfield.to_vec2_list", None),
    ("driftfield.gp", "build_block_matrix", "kernels.build_block_matrix",
     lambda a, r: {"A": len(a["pts_a"]), "B": len(a["pts_b"])}),
    ("driftfield.gp", "GpModel.predict", "gp.predict", _query_attrs),
    ("driftfield.gp", "GpModel.predict_mean", "gp.predict_mean", _query_attrs),
    ("driftfield.gp", "GpModel.add_targets", "gp.add_targets",
     lambda a, r: {"N": a["self"].num_targets,
                   "k": r.num_targets - a["self"].num_targets}),
    ("driftfield.gp", "GpModel.to_json", "gp.to_json", lambda a, r: {"bytes": len(r)}),
)


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans around the given trace points while installed."""

    def __init__(self, spool_dir, points=TRACE_POINTS):
        self.points = points
        self.spool_dir = Path(spool_dir)
        self.spans = []
        self._stack = []
        self._saved = []
        self._fork_hook = False

    # -- installation -------------------------------------------------

    def install(self):
        if self._saved:
            return
        for module, attribute, span, attrs in self.points:
            owner, name = _resolve(module, attribute)
            original = owner.__dict__[name]
            if attrs == "generator":
                wrapper = self._wrap_generator(original, span)
            else:
                wrapper = self._wrap_call(original, span, attrs)
            setattr(owner, name, wrapper)
            self._saved.append((owner, name, original))
        if not self._fork_hook:
            mp_util.register_after_fork(self, Tracer._after_fork)
            self._fork_hook = True

    def uninstall(self):
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved = []

    @contextmanager
    def suspended(self):
        """Leave the calls made inside the block (output checks) untraced."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans, self._stack = self.spans, [], []
        return spans

    # -- wrappers -----------------------------------------------------

    def _open(self, name):
        spans = self.spans
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
        stack.append(len(spans))
        spans.append(rec)
        return rec, stack

    def _wrap_call(self, fn, name, attrs):
        sig = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec, stack = self._open(name)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if attrs is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[4] = attrs(bound.arguments, result)
            return result

        return wrapper

    def _wrap_generator(self, fn, name):
        """One span per resumption: from the caller's next() to the yield."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            seq = 0
            while True:
                rec, stack = self._open(name)
                rec[1] = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    rec[2] = perf_counter()
                    stack.pop()
                model, state = item
                rec[4] = {
                    "seq": seq,
                    "n": len(state.currents),
                    "N": model.num_targets,
                    "iters": state.iteration,
                    "converged": bool(state.converged),
                    "failed": state.error is not None,
                }
                seq += 1
                yield item

        return wrapper

    # -- pool workers -------------------------------------------------

    def _after_fork(self):
        if not self._saved:
            return
        self.take()
        mp_util.Finalize(None, self._spool, exitpriority=10)

    def _spool(self):
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        path = self.spool_dir / f"{os.getpid()}.json"
        maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        path.write_text(json.dumps({"spans": self.spans, "maxrss_kb": maxrss_kb}))

    def collect_workers(self) -> list:
        """What each pool worker that has exited wrote: its spans and peak RSS."""
        out = []
        if not self.spool_dir.is_dir():
            return out
        for path in sorted(self.spool_dir.glob("*.json")):
            out.append(json.loads(path.read_text()))
            path.unlink()
        return out


def cycle_latencies(spans) -> list:
    """
    Yield-to-yield seconds of each `estimator.cycle` span: from the previous
    yield of the same generator (or its first resumption) to this yield.
    """
    out = []
    prev_end = None
    for name, start, end, _parent, attrs in spans:
        if name != "estimator.cycle" or attrs is None:
            continue
        out.append(end - (start if attrs["seq"] == 0 else prev_end))
        prev_end = end
    return out


class SpanTotals:
    """
    Per span name: calls, total seconds, self seconds and the
    (attrs, seconds, scale) of each span that has attrs. `add` weights a
    span list by `scale`, so totals over several passes become per pass.
    """

    def __init__(self):
        self.calls = {}
        self.seconds = {}
        self.self_seconds = {}
        self.attrs = {}
        self.root_seconds = 0.0

    def add(self, spans, scale: float = 1.0):
        child = [0.0] * len(spans)
        for name, start, end, parent, _attrs in spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                self.root_seconds += scale * (end - start)
        for i, (name, start, end, _parent, attrs) in enumerate(spans):
            dur = end - start
            self.calls[name] = self.calls.get(name, 0.0) + scale
            self.seconds[name] = self.seconds.get(name, 0.0) + scale * dur
            self.self_seconds[name] = self.self_seconds.get(name, 0.0) + scale * (dur - child[i])
            if attrs is not None:
                self.attrs.setdefault(name, []).append((attrs, dur, scale))
