"""
The four benchmark workloads.

Each workload makes its inputs from the seed (`prepare`), loads them the
way a user's process would (`setup`), runs one closed-loop pass of the
user path (`run_pass`) and checks that pass's outputs (`check`). The
caller times passes and set-up; `run_pass` times only the work a user
waits for, never the checks. Between its units of work (each mission,
each surfacing cycle) `run_pass` times a calibration chunk, which the
caller uses to take the host's speed out of the pass's times (see
hostspeed.py).

Every workload keeps its current fields fixed and draws only the GPS
noise of its missions from the seed. The work per pass and the field
error then barely move between seeds, so runs with different seeds stay
comparable. `study` runs the acceptance study, whose seeds live in its
own config; the benchmark seed does not change it.

driftfield is called through module attributes (`estimator.m_step`,
never a name imported into this module) so that the tracer's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import driftfield.cli as cli
import hostspeed
from driftfield import estimator, flowfield, simulator
from driftfield.flowfield import Grid, Vec2, as_xy, random_gyre
from driftfield.gp import GpModel
from driftfield.harness import SPEED_MASK_EPS
from driftfield.kernels import KernelKind
from driftfield.simulator import VehicleConfig

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

# The acceptance test's tour, study grid and hyperparameters.
TOUR = (
    (5000.0, 0.0), (10000.0, 5000.0), (5000.0, 10000.0), (10000.0, 15000.0),
    (5000.0, 20000.0), (0.0, 15000.0), (5000.0, 10000.0), (0.0, 5000.0),
)
STUDY_GRID = ((-1000.0, -1000.0), 22000.0 / 19.0, 20, 20)
HYPER = {"lengthscale_m": 35000.0, "current_variance_m2s2": 0.5, "gps_noise_std_m": 3.0}

# Drift residual bound of acceptance criterion 6, metres: |drift - dt*sum(W)|
# may not exceed 3 GPS noise standard deviations plus 1 m.
RESIDUAL_SIGMAS = 3.0
RESIDUAL_SLACK_M = 1.0
# A model reloaded from model.json refactorises from scratch, which may
# round differently from an incrementally built one; m/s.
RELOAD_ATOL_MPS = 1e-9


def _config_text(values: dict) -> str:
    def fmt(v):
        if isinstance(v, str):
            return v
        if isinstance(v, tuple):
            return "; ".join(f"{x!r},{y!r}" for x, y in v)
        return repr(v)

    return "".join(f"{k} = {fmt(v)}\n" for k, v in values.items())


def normalized_field_error(est_uv, truth_uv) -> float:
    """Misfit speed summed over the grid over true speed summed over the grid,
    both without the points whose true speed is below SPEED_MASK_EPS."""
    speed = np.linalg.norm(truth_uv, axis=1)
    mask = speed > SPEED_MASK_EPS
    misfit = np.linalg.norm(np.asarray(est_uv)[mask] - truth_uv[mask], axis=1)
    return float(misfit.sum() / speed[mask].sum())


def _reference_ok(workload: str, case: int, value: float) -> bool:
    ref = REFERENCE["field_error"][workload]
    expected = ref["cases"][case]
    return abs(value - expected) <= ref["rel_tol"] * expected


@dataclass
class Pass:
    """
    One timed pass: the timed seconds, per-cycle latencies, the outputs
    and the calibration chunks timed between its units of work.
    """

    wall: float
    cycles: int
    latencies: list
    outputs: dict = field(default_factory=dict)
    meter: hostspeed.Meter = field(default_factory=hostspeed.Meter)
    # Peak RSS each pool worker of the pass reported for itself, KiB.
    worker_maxrss_kb: list = field(default_factory=list)


@dataclass
class Checked:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    field_error: float | None = None

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


# -- survey and long_mission: one mission replayed through the EM loop --------


@dataclass(frozen=True)
class MissionWorkload:
    name: str
    waypoints: tuple
    gyre_seed: int
    grid: tuple  # (origin, spacing, nx, ny)
    em: dict  # extra config keys for the hyperparameter file
    uses_pool: bool = False
    # GPS-noise realisations: `--seed n` runs case n mod cases, whose
    # field_error reference.json stores.
    cases: int = 16

    def prepare(self, seed: int, work: Path):
        vehicle = VehicleConfig(waypoints=tuple(Vec2(x, y) for x, y in self.waypoints),
                                gps_noise_std=HYPER["gps_noise_std_m"])
        log = simulator.run_mission(vehicle, random_gyre(self.gyre_seed), seed % self.cases)
        simulator.write_cycles(log, work / "cycles.jsonl")
        (work / "hyper.conf").write_text(_config_text({**HYPER, **self.em}))

    def setup(self, work: Path, seed: int):
        cfg = cli.parse_config(work / "hyper.conf")
        (ox, oy), spacing, nx, ny = self.grid
        grid = Grid(Vec2(ox, oy), spacing, nx, ny)
        return {
            "log": simulator.ingest_cycles(work / "cycles.jsonl"),
            "hp": cli.hyper_from_config(cfg),
            "em": cli.em_from_config(cfg),
            "grid": grid,
            "case": seed % self.cases,
            "out": work / "out",
        }

    def warm_up(self, st):
        first = simulator.MissionLog(st["log"].cycles[:3])
        for _ in estimator.iter_process_mission(first, st["hp"], KernelKind.INCOMPRESSIBLE, st["em"]):
            pass

    def run_pass(self, st) -> Pass:
        out = st["out"]
        out.mkdir(exist_ok=True)
        meter = hostspeed.Meter()
        states = []
        latencies = []
        meter.tick()
        last = perf_counter()
        for model, state in estimator.iter_process_mission(
            st["log"], st["hp"], KernelKind.INCOMPRESSIBLE, st["em"]
        ):
            latencies.append(perf_counter() - last)
            states.append(state)
            meter.tick()
            last = perf_counter()
        model_json = model.to_json()
        (out / "model.json").write_text(model_json + "\n")
        grid_uv = model.predict_mean(st["grid"].points())
        flowfield.write_field_csv(out / "field.csv", st["grid"], grid_uv)
        wall = sum(latencies) + perf_counter() - last
        return Pass(wall, len(states), latencies,
                    {"states": states, "model_json": model_json, "grid_uv": grid_uv}, meter)

    def field_error(self, st, p: Pass) -> float:
        truth_uv = flowfield.eval_field_many(random_gyre(self.gyre_seed), st["grid"].points())
        return normalized_field_error(p.outputs["grid_uv"], truth_uv)

    def check(self, st, p: Pass) -> Checked:
        c = Checked()
        bound = RESIDUAL_SIGMAS * st["hp"].gps_noise_std + RESIDUAL_SLACK_M
        for cycle, state in zip(st["log"].cycles, p.outputs["states"], strict=True):
            if state.error is not None:
                c.expect(False, f"cycle ended in error state: {state.error}")
                continue
            w = as_xy(state.currents)
            residual = np.linalg.norm(as_xy([cycle.drift])[0] - cycle.dt * w.sum(axis=0))
            c.expect(residual <= bound, f"drift residual {residual:.3f} m > {bound} m")
        grid_uv = p.outputs["grid_uv"]
        reloaded = GpModel.from_json(p.outputs["model_json"]).predict_mean(st["grid"].points())
        c.expect(np.allclose(reloaded, grid_uv, rtol=0.0, atol=RELOAD_ATOL_MPS),
                 "model.json reloads to a different predict_mean")
        pts, uv = flowfield.read_field_csv(st["out"] / "field.csv")
        c.expect(np.array_equal(pts, st["grid"].points()) and np.array_equal(uv, grid_uv),
                 "field.csv does not hold the predicted grid")
        c.field_error = self.field_error(st, p)
        c.expect(_reference_ok(self.name, st["case"], c.field_error),
                 f"field_error {c.field_error!r} off its reference")
        return c


# -- simulate: the `driftfield simulate` path, then ingestion ------------------


# Twenty gyres; in gyre 2003 the current outruns the vehicle on one leg,
# so that dive exhausts its step budget and never reaches its waypoint.
SIM_GYRE_SEEDS = tuple(s for s in range(2000, 2021) if s != 2003)


@dataclass(frozen=True)
class SimulateWorkload:
    name: str = "simulate"
    waypoints: tuple = TOUR * 2 + TOUR[:4]
    uses_pool: bool = False

    def prepare(self, seed: int, work: Path):
        for i, gyre in enumerate(SIM_GYRE_SEEDS):
            conf = {"field": "random_gyre", "field_seed": gyre,
                    "waypoints_m": self.waypoints, "gps_noise_std_m": HYPER["gps_noise_std_m"]}
            (work / f"mission{i:02d}.conf").write_text(_config_text(conf))

    def setup(self, work: Path, seed: int):
        missions = []
        for i in range(len(SIM_GYRE_SEEDS)):
            conf = work / f"mission{i:02d}.conf"
            vehicle = cli.vehicle_from_config(cli.parse_config(conf))
            missions.append((str(conf), seed * len(SIM_GYRE_SEEDS) + i, vehicle))
        return {"missions": missions, "out": work / "out"}

    def _simulate(self, conf, seed, path):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = cli.main(["simulate", "--config", conf, "--seed", str(seed), "--out", str(path)])
        return code, simulator.ingest_cycles(path)

    def warm_up(self, st):
        st["out"].mkdir(exist_ok=True)
        conf, seed, _ = st["missions"][0]
        self._simulate(conf, seed, st["out"] / "warm_up.jsonl")

    def run_pass(self, st) -> Pass:
        out = st["out"]
        out.mkdir(exist_ok=True)
        meter = hostspeed.Meter()
        wall = 0.0
        cycles = 0
        latencies = []
        results = []
        for i, (conf, seed, _vehicle) in enumerate(st["missions"]):
            path = out / f"cycles{i:02d}.jsonl"
            meter.tick()
            start = perf_counter()
            code, log = self._simulate(conf, seed, path)
            took = perf_counter() - start
            wall += took
            cycles += len(log.cycles)
            latencies.append(took / len(log.cycles))
            results.append((code, path, log))
        return Pass(wall, cycles, latencies, {"results": results}, meter)

    def check(self, st, p: Pass) -> Checked:
        c = Checked()
        for (_conf, _seed, vehicle), (code, path, log) in zip(st["missions"], p.outputs["results"], strict=True):
            c.expect(code == 0, f"simulate exited {code}")
            c.expect(len(log.cycles) == len(vehicle.waypoints), f"{path.name}: wrong cycle count")
            for cycle, wp in zip(log.cycles, vehicle.waypoints):
                end = as_xy(cycle.dead_reckoned)[-1]
                c.expect(np.hypot(*(end - as_xy([wp])[0])) <= vehicle.surface_tolerance,
                         f"{path.name}: a dive surfaced away from its waypoint")
            again = path.with_suffix(".again")
            simulator.write_cycles(log, again)
            c.expect(again.read_bytes() == path.read_bytes(),
                     f"{path.name}: write -> ingest -> write changed the log")
        return c


# -- study: `driftfield montecarlo` with a process pool ------------------------


STUDY_TRIALS = 2
STUDY_WORKERS = 2
STUDY_KERNELS = 2
REPORT_FILES = ("convergence.csv", "summary.json")
# The pool workers' cycles are out of the caller's reach, so the caller
# times this many calibration chunks just before and just after each pass.
STUDY_CALIBRATION_CHUNKS = 16


@dataclass(frozen=True)
class StudyWorkload:
    name: str = "study"
    uses_pool: bool = True
    cases: int = 1

    def _argv(self, work: Path, out: Path, workers: int):
        return ["montecarlo", "--config", str(work / "study.conf"), "--out", str(out),
                "--workers", str(workers), "--fields"]

    def _montecarlo(self, argv):
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            return cli.main(argv)

    def prepare(self, seed: int, work: Path):
        (ox, oy), spacing, nx, ny = STUDY_GRID
        conf = {**HYPER, "waypoints_m": TOUR, "trials": STUDY_TRIALS, "base_seed": 1000,
                "grid_origin_m": ((ox, oy),), "grid_spacing_m": spacing,
                "grid_nx": nx, "grid_ny": ny}
        (work / "study.conf").write_text(_config_text(conf))
        # The serial reference the parallel reports must match byte for byte.
        code = self._montecarlo(self._argv(work, work / "reference", 1))
        if code != 0:
            raise RuntimeError(f"reference montecarlo run exited {code}")

    def setup(self, work: Path, seed: int):
        cli.parse_config(work / "study.conf")
        return {"work": work, "case": 0, "out": work / "out"}

    def warm_up(self, st):
        pass

    def run_pass(self, st) -> Pass:
        out = st["out"]
        shutil.rmtree(out, ignore_errors=True)
        meter = hostspeed.Meter()
        meter.tick(STUDY_CALIBRATION_CHUNKS)
        start = perf_counter()
        code = self._montecarlo(self._argv(st["work"], out, STUDY_WORKERS))
        wall = perf_counter() - start
        meter.tick(STUDY_CALIBRATION_CHUNKS)
        rows = (out / "convergence.csv").read_text().count("\n") - 1 if code == 0 else 0
        return Pass(wall, rows, [], {"code": code}, meter)

    def field_error(self, st, p: Pass) -> float:
        summary = json.loads((st["out"] / "summary.json").read_text())
        return summary[KernelKind.INCOMPRESSIBLE.value]["median"][-1]

    def check(self, st, p: Pass) -> Checked:
        c = Checked()
        out = st["out"]
        c.expect(p.outputs["code"] == 0, f"montecarlo exited {p.outputs['code']}")
        for name in REPORT_FILES:
            same = (out / name).read_bytes() == (st["work"] / "reference" / name).read_bytes()
            c.expect(same, f"{name} differs from the --workers 1 reference")
        summary = json.loads((out / "summary.json").read_text())
        c.expect(summary["kept_trials"] == STUDY_TRIALS and not summary["excluded"],
                 "a trial was excluded")
        c.expect(len(list((out / "fields").glob("*.csv"))) == STUDY_TRIALS * STUDY_KERNELS,
                 "missing field CSVs")
        c.expect(p.cycles == STUDY_TRIALS * STUDY_KERNELS * len(TOUR), "wrong convergence row count")
        c.field_error = self.field_error(st, p)
        c.expect(_reference_ok(self.name, st["case"], c.field_error),
                 f"field_error {c.field_error!r} off its reference")
        return c


LAWNMOWER = tuple((3000.0 * ((i + 1) % 2), 300.0 * (i + 1)) for i in range(100))

WORKLOADS = {
    "simulate": SimulateWorkload(),
    "survey": MissionWorkload(
        name="survey",
        waypoints=TOUR * 2 + TOUR[:4],
        gyre_seed=1001,
        grid=STUDY_GRID,
        em={},
    ),
    "long_mission": MissionWorkload(
        name="long_mission",
        waypoints=LAWNMOWER,
        gyre_seed=1001,
        grid=((-1000.0, -1000.0), 1000.0, 6, 33),
        em={"pseudo_target_spacing_m": 500.0},
    ),
    "study": StudyWorkload(),
}
