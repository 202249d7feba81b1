"""
driftfield benchmark: four closed-loop workloads over the package's
public API and CLI, with output checks and a separately traced run.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 20 --trace 0

`--workload all` (the default) runs every workload in turn. With
`--trace 0` each run reports the end-to-end metrics; with `--trace 1` it
reports the per-module metrics of a traced run instead. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Run it from the root of a checkout; it imports driftfield from src/ and
writes only under .bench_work/.

Every process the benchmark starts runs with BLAS and OpenMP pinned to
one thread, set before numpy is imported. perfbench/README.md describes
the workloads, the metrics and what each module should move.
"""

import pinning  # noqa: F401  (before anything can import numpy)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("simulate", "survey", "long_mission", "study")

# Fresh processes timed for setup_s; the reported value is the median of
# their set-up times at the reference host speed.
SETUP_SAMPLES = 11
# A run of one workload must end within this many seconds.
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def metric_units(trace: int) -> dict:
    """Name -> unit of every metric a run must report, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child(role: str, workload: str, args, work: Path, seconds: float = 0.0) -> dict:
    report = work / f"{role}.report.json"
    report.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "child.py"), "--role", role, "--workload", workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
           "--work", str(work), "--report", str(report)]
    # Its own session, so that a timeout also ends the study's pool workers.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=max(1.0, args.deadline - time.monotonic()))
    except BaseException as err:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(err, subprocess.TimeoutExpired):
            raise BenchError(f"{workload} {role} process overran the "
                             f"{RUN_DEADLINE_S:g} s deadline") from err
        raise
    if proc.returncode != 0:
        raise BenchError(f"{workload} {role} process failed (exit {proc.returncode}):\n"
                         f"{stderr.strip()}")
    return json.loads(report.read_text())


def run_workload(workload: str, args) -> dict:
    args.deadline = time.monotonic() + RUN_DEADLINE_S
    work = ROOT / ".bench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    child("prepare", workload, args, work)
    res = child("run", workload, args, work, seconds=args.seconds)
    metrics = dict(res["metrics"])
    if not args.trace:
        setups = [res["setup_s"]] + [child("setup", workload, args, work)["setup_s"]
                                     for _ in range(SETUP_SAMPLES - 1)]
        metrics["setup_s"] = statistics.median(s["scaled"] for s in setups)
        res["setup_raw"] = [s["raw"] for s in setups]
    if metrics.keys() != args.units.keys():
        raise BenchError(f"{workload} reported {sorted(metrics)}, expected {sorted(args.units)}")
    res["metrics"] = metrics
    return res


def print_report(workload: str, res: dict, args):
    print(f"== {workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}): "
          f"{res['passes']} passes, {res['cycle_samples']} cycle latency samples, "
          f"{res['failed']}/{res['attempted']} checks failed")
    for name in sorted(res["metrics"]):
        print(f"  {name:48s} {res['metrics'][name]:14.6g} {args.units[name]}")
    print("  pass seconds, raw: " + " ".join(f"{w:.3f}" for w in res["pass_walls"]))
    print("  host speed factor: " + " ".join(f"{f:.3f}" for f in res["pass_factors"]))
    if "setup_raw" in res:
        print("  set-up seconds, raw: " + " ".join(f"{s:.3f}" for s in res["setup_raw"]))
    if res["field_error"] is not None:
        print(f"  field_error (checked against perfbench/reference.json): {res['field_error']:.6f}")
    for problem in res["problems"]:
        print(f"  FAILED CHECK: {problem}")
    print("env: " + json.dumps(res["env"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="driftfield benchmark")
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    # SIGTERM unwinds through child(), which then ends the running child's session.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "driftfield" / "__init__.py").is_file():
        print(f"error: no driftfield sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args.units = metric_units(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args)
            print_report(name, results[name], args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(names) == 1:
        metrics = {k: {"value": v, "unit": args.units[k]} for k, v in results[names[0]]["metrics"].items()}
    else:
        metrics = {f"{w}.{k}": {"value": v, "unit": args.units[k]}
                   for w, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
