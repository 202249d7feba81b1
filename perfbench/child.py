"""
One benchmark process; run.py starts it with BLAS and OpenMP pinned to
one thread and PYTHONPATH set to the checkout's src/.

  --role prepare   make the workload's inputs from the seed
  --role setup     import driftfield and load the inputs, then report the time
  --role run       set up, run timed passes, check their outputs and report

The report is JSON, written to --report.
"""

import time

import hostspeed
import pinning

# Set-up time is scaled to the reference host speed by calibration chunks
# timed just before the import and just after the inputs are loaded.
SETUP_CALIBRATION_CHUNKS = 8

_SETUP_METER = hostspeed.Meter()
_SETUP_METER.tick(SETUP_CALIBRATION_CHUNKS)
_T0 = time.perf_counter()
import driftfield.cli  # noqa: E402,F401  (pulls in every driftfield module, numpy and scipy)

_IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

# The latency percentiles need at least 10 samples beyond p90.
MIN_CYCLE_SAMPLES = 100

# The study's per-cycle latency is only visible inside the pool workers;
# this one wrapper timestamps each yield there, also in untraced runs.
PROBE_POINTS = tuple(p for p in tracing.TRACE_POINTS
                     if p[:2] == ("driftfield.harness", "iter_process_mission"))

# Targets held by the model (N) at which the cost-curve buckets split.
N_BUCKETS = ((0, 200), (200, 400), (400, None))


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in pinning.THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "start_method": multiprocessing.get_start_method(),
    }


def peak_rss_mb(passes) -> float:
    """
    Peak RSS of this process plus the pool workers' own peaks, summed over
    the workers of the pass where that sum is largest, MB. Pages shared
    after fork count once per process, so this bounds the combined peak
    from above.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = max(sum(p.worker_maxrss_kb) for p in passes)
    return (own + workers) / 1024.0


def one_pass(wl, st, tracer):
    """Run and check one pass; returns (Pass, Checked, worker span lists)."""
    p = wl.run_pass(st)
    worker_spans = []
    if tracer is not None:
        workers = tracer.collect_workers()
        worker_spans = [w["spans"] for w in workers]
        p.worker_maxrss_kb = [w["maxrss_kb"] for w in workers]
        p.latencies += [lat for spans in worker_spans for lat in tracing.cycle_latencies(spans)]
    with tracer.suspended() if tracer is not None else nullcontext():
        checked = wl.check(st, p)
    p.outputs = None  # a later pass must not find this one's outputs in memory
    return p, checked, worker_spans


def timed_passes(wl, st, seconds, probe):
    """Whole passes until `seconds` have gone and the latency tail has enough samples."""
    passes, checks = [], []
    start = time.perf_counter()
    while (not passes or time.perf_counter() - start < seconds
           or sum(len(p.latencies) for p in passes) < MIN_CYCLE_SAMPLES):
        p, checked, _ = one_pass(wl, st, probe)
        passes.append(p)
        checks.append(checked)
    return passes, checks


def alternating_passes(wl, st, seconds, probe, tracer):
    """Untraced and traced passes in turn, so drift in machine speed hits both alike."""
    plain, traced, checks, worker_spans = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for active, passes in ((probe, plain), (tracer, traced)):
            if active is not None:
                active.install()
            p, checked, spans = one_pass(wl, st, active)
            if active is not None:
                active.uninstall()
            passes.append(p)
            checks.append(checked)
            if active is tracer:
                worker_spans += spans
    return plain, traced, checks, worker_spans


def scaled_walls(passes) -> list:
    """Each pass's time at the reference host speed, by its own calibration chunks."""
    return [p.meter.scale(p.wall) for p in passes]


def end_to_end(passes) -> dict:
    walls = scaled_walls(passes)
    lat_ms = [1000.0 * p.meter.scale(lat) for p in passes for lat in p.latencies]
    return {
        "wall_s": statistics.median(walls),
        "cycles_per_s": statistics.median(p.cycles / w for p, w in zip(passes, walls)),
        "cycle_ms_p50": float(np.percentile(lat_ms, 50)),
        "cycle_ms_p90": float(np.percentile(lat_ms, 90)),
    }


def _bucket_ms(samples, lo, hi):
    ms = [1000.0 * dur for a, dur, _ in samples if a["N"] >= lo and (hi is None or a["N"] < hi)]
    return sum(ms) / len(ms) if ms else 0.0


def layer_metrics(t: tracing.SpanTotals, workers: tracing.SpanTotals, passes: int) -> dict:
    """Per-layer numbers for one execution of the workload: set-up once plus one pass."""

    def attrs(name):
        return t.attrs.get(name, [])

    def total(name, key):
        return sum(scale * a[key] for a, _, scale in attrs(name))

    def mean(name, key):
        values = [a[key] for a, _, _ in attrs(name)]
        return sum(values) / len(values) if values else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    entries = sum(scale * 4 * a["A"] * a["B"] for a, _, scale in attrs("kernels.build_block_matrix"))
    steps = total("simulator.run_mission", "steps")
    cycles = [a for a, _, _ in attrs("estimator.cycle")]
    mc = attrs("harness.monte_carlo")
    mc_worker_s = sum(scale * a["workers"] * dur for a, dur, scale in mc)
    m = {
        "flowfield.eval_field.calls": t.calls.get("flowfield.eval_field", 0.0),
        "flowfield.eval_field.s": t.seconds.get("flowfield.eval_field", 0.0),
        "flowfield.to_vec2_list.s": t.seconds.get("flowfield.to_vec2_list", 0.0),
        "flowfield.write_field_csv.s": t.seconds.get("flowfield.write_field_csv", 0.0),
        "kernels.build_block_matrix.calls": t.calls.get("kernels.build_block_matrix", 0.0),
        "kernels.build_block_matrix.s": t.seconds.get("kernels.build_block_matrix", 0.0),
        "kernels.build_block_matrix.entries": entries,
        "kernels.build_block_matrix.bytes_computed": 8.0 * entries,
        "gp.add_targets.calls": t.calls.get("gp.add_targets", 0.0),
        "gp.add_targets.s": t.seconds.get("gp.add_targets", 0.0),
        "gp.targets": max((a["N"] + a["k"] for a, _, _ in attrs("gp.add_targets")), default=0),
        "gp.predict.calls": t.calls.get("gp.predict", 0.0),
        "gp.predict.s": t.seconds.get("gp.predict", 0.0),
        "gp.predict.self_s": t.self_seconds.get("gp.predict", 0.0),
        "gp.predict.query_points": mean("gp.predict", "n"),
        "gp.predict_mean.calls": t.calls.get("gp.predict_mean", 0.0),
        "gp.predict_mean.s": t.seconds.get("gp.predict_mean", 0.0),
        "gp.downsample_targets.s": t.seconds.get("gp.downsample_targets", 0.0),
        "gp.downsample_targets.kept_ratio":
            ratio(total("gp.downsample_targets", "out"), total("gp.downsample_targets", "in")),
        "gp.to_json.s": t.seconds.get("gp.to_json", 0.0),
        "estimator.m_step.calls": t.calls.get("estimator.m_step", 0.0),
        "estimator.m_step.self_s": t.self_seconds.get("estimator.m_step", 0.0),
        "estimator.e_step.s": t.seconds.get("estimator.e_step", 0.0),
        "estimator.em_iters_per_cycle": ratio(sum(a["iters"] for a in cycles), len(cycles)),
        "estimator.converged_ratio": ratio(sum(a["converged"] for a in cycles), len(cycles)),
        "estimator.failed_cycles": total("estimator.cycle", "failed"),
        "simulator.run_mission.calls": t.calls.get("simulator.run_mission", 0.0),
        "simulator.run_mission.s": t.seconds.get("simulator.run_mission", 0.0),
        "simulator.run_mission.self_s": t.self_seconds.get("simulator.run_mission", 0.0),
        "simulator.steps": steps,
        "simulator.steps_per_s": ratio(steps, t.seconds.get("simulator.run_mission", 0.0)),
        "simulator.write_cycles.s": t.seconds.get("simulator.write_cycles", 0.0),
        "simulator.ingest_cycles.s": t.seconds.get("simulator.ingest_cycles", 0.0),
        "simulator.log_bytes":
            total("simulator.write_cycles", "bytes") + total("simulator.ingest_cycles", "bytes"),
        "harness.monte_carlo.s": t.seconds.get("harness.monte_carlo", 0.0),
        "harness.emit_report.s": t.seconds.get("harness.emit_report", 0.0),
        "harness.report_bytes": total("harness.emit_report", "bytes"),
        "harness.kept_ratio": ratio(total("harness.monte_carlo", "kept"),
                                    total("harness.monte_carlo", "trials")),
        "harness.worker_busy_ratio": ratio(workers.root_seconds / passes, mc_worker_s),
        "cli.main.s": t.seconds.get("cli.main", 0.0),
    }
    for name in ("gp.predict", "gp.add_targets"):
        for lo, hi in N_BUCKETS:
            label = f"N{lo}-{hi}" if hi is not None else f"N{lo}-up"
            m[f"{name}.ms_per_call.{label}"] = _bucket_ms(attrs(name), lo, hi)
    return m


def write_trace(path: Path, setup_spans, pass_spans, worker_spans):
    with gzip.open(path, "wt") as fh:
        for phase, pid, spans in ([("setup", "main", setup_spans), ("passes", "main", pass_spans)]
                                  + [("passes", f"worker{i}", s) for i, s in enumerate(worker_spans)]):
            for i, (name, start, end, parent, attrs) in enumerate(spans):
                fh.write(json.dumps({"phase": phase, "process": pid, "id": i, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "attrs": attrs}) + "\n")


def role_run(wl, args, work: Path) -> dict:
    tracer = tracing.Tracer(work / "spool") if args.trace else None
    probe = tracing.Tracer(work / "spool", PROBE_POINTS) if wl.uses_pool else None
    if tracer is not None:
        tracer.install()
    st = wl.setup(work, args.seed)
    setup_s = timed_setup()
    setup_spans = []
    if tracer is not None:
        setup_spans = tracer.take()
        tracer.uninstall()
    wl.warm_up(st)

    if not args.trace:
        if probe is not None:
            probe.install()
        passes, checks = timed_passes(wl, st, args.seconds, probe)
        metrics = end_to_end(passes)
        metrics["peak_rss_mb"] = peak_rss_mb(passes)
    else:
        plain, traced, checks, worker_spans = alternating_passes(wl, st, args.seconds, probe, tracer)
        pass_spans = tracer.take()
        totals, worker_totals = tracing.SpanTotals(), tracing.SpanTotals()
        totals.add(setup_spans)
        totals.add(pass_spans, 1.0 / len(traced))
        for spans in worker_spans:
            totals.add(spans, 1.0 / len(traced))
            worker_totals.add(spans)
        metrics = layer_metrics(totals, worker_totals, len(traced))
        metrics["cli.import_s"] = _IMPORT_S
        metrics["trace.overhead_s"] = (statistics.median(scaled_walls(traced))
                                       - statistics.median(scaled_walls(plain)))
        write_trace(work / "trace.jsonl.gz", setup_spans, pass_spans, worker_spans)
        passes = plain + traced
    errors = [c.field_error for c in checks if c.field_error is not None]
    field_err = statistics.median(errors) if errors else None
    if args.trace:
        metrics["harness.field_error"] = field_err or 0.0
    return {
        "setup_s": setup_s,
        "metrics": metrics,
        "attempted": sum(c.attempted for c in checks),
        "failed": sum(c.failed for c in checks),
        "problems": sorted({p for c in checks for p in c.problems}),
        "field_error": field_err,
        "passes": len(passes),
        "cycle_samples": sum(len(p.latencies) for p in passes),
        "pass_walls": [p.wall for p in passes],
        "pass_factors": [p.meter.factor() for p in passes],
        "env": environment(),
    }


def timed_setup() -> dict:
    """Seconds from before the import to now, raw and at the reference host speed."""
    raw = time.perf_counter() - _T0
    _SETUP_METER.tick(SETUP_CALIBRATION_CHUNKS)
    return {"raw": raw, "scaled": _SETUP_METER.scale(raw)}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", required=True, choices=["prepare", "setup", "run"])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--report", required=True)
    args = parser.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    work = Path(args.work)
    if args.role == "prepare":
        wl.prepare(args.seed, work)
        report = {}
    elif args.role == "setup":
        wl.setup(work, args.seed)
        report = {"setup_s": timed_setup()}
    else:
        report = role_run(wl, args, work)
    Path(args.report).write_text(json.dumps(report))


if __name__ == "__main__":
    main()
