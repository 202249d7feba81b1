"""
Command line front end.

Three subcommands: `simulate` runs a waypoint mission in an analytic
field and writes the cycle log, `estimate` replays a cycle log through
the EM estimator and writes the model and a predicted field grid, and
`montecarlo` runs the two-kernel convergence study.

Configuration files are flat `key = value` text (SI units throughout:
metres, seconds, m/s). `#` starts a comment line. Each subcommand
rejects a key it does not read and a key given twice. The README
documents every key.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from driftfield.estimator import EmConfig, process_mission
from driftfield.flowfield import (
    AnalyticField,
    Grid,
    Vec2,
    random_gyre,
    write_field_csv,
)
from driftfield.harness import RunConfig, default_grid, emit_report, monte_carlo
from driftfield.kernels import HyperParams, KernelKind
from driftfield.simulator import MissionAborted, VehicleConfig, ingest_cycles, run_mission, write_cycles

__all__ = ["main", "parse_config"]


def _point(value: str) -> Vec2:
    x, y = (float(v) for v in value.split(","))
    return Vec2(x, y)


def _points(value: str) -> tuple:
    return tuple(_point(chunk) for chunk in value.split(";") if chunk.strip())


def _pair(value: str) -> tuple:
    p = _point(value)
    return (p.x, p.y)


def _seed(value: str) -> int:
    seed = int(value)
    if seed < 0:
        raise ValueError("expected a non-negative integer")
    return seed


# One table per config section: each key maps to the constructor argument
# it sets and the parser of its value. A key the file leaves out takes the
# constructor's default.
HYPER_ARGS = {
    "lengthscale_m": ("lengthscale", float),
    "current_variance_m2s2": ("current_variance", float),
    "gps_noise_std_m": ("gps_noise_std", float),
}
VEHICLE_ARGS = {
    "speed_mps": ("speed_through_water", float),
    "dt_s": ("dt", float),
    "surface_tolerance_m": ("surface_tolerance", float),
    "gps_noise_std_m": ("gps_noise_std", float),
    "waypoints_m": ("waypoints", _points),
    "max_steps_per_cycle": ("max_steps_per_cycle", int),
}
EM_ARGS = {
    "em_max_iters": ("max_iters", int),
    "em_tol_m": ("convergence_tol", float),
    "pseudo_target_spacing_m": ("pseudo_target_spacing", float),
}
GRID_ARGS = {
    "grid_origin_m": ("origin", _point),
    "grid_spacing_m": ("spacing", float),
    "grid_nx": ("nx", int),
    "grid_ny": ("ny", int),
}
RUN_ARGS = {"trials": ("trials", int), "base_seed": ("base_seed", _seed)}
# The keys each `field` value reads: `random_gyre` passes its one to
# `random_gyre`, `analytic` its four to `AnalyticField`.
FIELD_ARGS = {
    "random_gyre": {"field_seed": ("seed", _seed)},
    "analytic": {
        "field_current_mps": ("current", _pair),
        "field_amplitude": ("amplitude", float),
        "field_extent_m": ("domain_extent", _pair),
        "field_phase_rad": ("phase", _pair),
    },
}

FIELD_KEYS = {"field"}.union(*FIELD_ARGS.values())
ALL_KEYS = FIELD_KEYS.union(HYPER_ARGS, VEHICLE_ARGS, EM_ARGS, GRID_ARGS, RUN_ARGS)


def parse_config(path, keys=ALL_KEYS) -> dict:
    """
    Read a flat key = value file; values stay strings. A key outside
    `keys`, or one given twice, raises ValueError naming its line.
    """
    out = {}
    lines = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            why = "unknown key" if key not in ALL_KEYS else "this command does not read key"
            raise ValueError(f"{path}:{lineno}: {why} {key!r}")
        if key in lines:
            raise ValueError(f"{path}:{lineno}: key {key!r} repeats line {lines[key]}")
        lines[key] = lineno
        out[key] = value.strip()
    return out


def _args(cfg: dict, table: dict) -> dict:
    """
    Constructor arguments for the keys of `table` that `cfg` sets. A value
    that does not parse raises ValueError naming its key.
    """
    args = {}
    for key, (arg, parse) in table.items():
        if key in cfg:
            try:
                args[arg] = parse(cfg[key])
            except ValueError as err:
                raise ValueError(f"{key} = {cfg[key]}: {err}") from err
    return args


def hyper_from_config(cfg: dict) -> HyperParams:
    return HyperParams(**_args(cfg, HYPER_ARGS))


def vehicle_from_config(cfg: dict) -> VehicleConfig:
    if "waypoints_m" not in cfg:
        raise ValueError("config needs waypoints_m (format: 'x,y; x,y; ...')")
    return VehicleConfig(**_args(cfg, VEHICLE_ARGS))


def em_from_config(cfg: dict) -> EmConfig:
    return EmConfig(**_args(cfg, EM_ARGS))


def grid_from_config(cfg: dict) -> Grid | None:
    present = GRID_ARGS.keys() & cfg.keys()
    if not present:
        return None
    if present != GRID_ARGS.keys():
        raise ValueError(f"grid needs all of {sorted(GRID_ARGS)}, got {sorted(present)}")
    return Grid(**_args(cfg, GRID_ARGS))


def field_from_config(cfg: dict) -> AnalyticField:
    kind = cfg.get("field", "random_gyre")
    if kind not in FIELD_ARGS:
        raise ValueError(f"unknown field {kind!r}, expected one of {list(FIELD_ARGS)}")
    foreign = sorted((FIELD_KEYS - {"field"} - FIELD_ARGS[kind].keys()) & cfg.keys())
    if foreign:
        raise ValueError(f"a {kind} field does not read key {foreign[0]!r}")
    make = random_gyre if kind == "random_gyre" else AnalyticField
    return make(**_args(cfg, FIELD_ARGS[kind]))


def _cmd_simulate(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed {args.seed}: expected a non-negative integer")
    cfg = parse_config(args.config, FIELD_KEYS.union(VEHICLE_ARGS))
    vehicle = vehicle_from_config(cfg)
    fld = field_from_config(cfg)
    try:
        log = run_mission(vehicle, fld, args.seed)
    except MissionAborted as err:
        write_cycles(err.log, args.out)
        raise ValueError(f"mission aborted: {err}; partial log written to {args.out}") from err
    write_cycles(log, args.out)
    print(f"wrote {len(log.cycles)} cycles to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    cfg = parse_config(args.hyper, set().union(HYPER_ARGS, EM_ARGS, GRID_ARGS))
    hp = hyper_from_config(cfg)
    kind = KernelKind(args.kernel)
    emcfg = em_from_config(cfg)
    log = ingest_cycles(args.cycles)
    if not log.cycles:
        raise ValueError(f"cycle log {args.cycles} is empty")
    # without grid keys, over everywhere the vehicle reported
    grid = grid_from_config(cfg) or default_grid(
        np.vstack([c.dead_reckoned for c in log.cycles]), hp.lengthscale)
    model, states = process_mission(log, hp, kind, emcfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    diagnostics = [
        {
            "cycle": i,
            "iterations": s.iteration,
            "converged": s.converged,
            "delta_m": s.delta,
            "error": s.error,
        }
        for i, s in enumerate(states)
    ]
    (out / "em_states.json").write_text(json.dumps(diagnostics, indent=2) + "\n")
    if all(s.error is not None for s in states):
        raise ValueError(f"all {len(states)} cycles failed, the first with {states[0].error}; "
                         f"see {out / 'em_states.json'}")
    (out / "model.json").write_text(model.to_json() + "\n")
    write_field_csv(out / "field.csv", grid, model.predict_mean(grid.points()))
    print(f"wrote em_states.json, model.json, field.csv to {out}")
    return 0


def _cmd_montecarlo(args) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    cfg = parse_config(args.config, set().union(HYPER_ARGS, VEHICLE_ARGS, EM_ARGS, GRID_ARGS, RUN_ARGS))
    hp = hyper_from_config(cfg)
    vehicle = vehicle_from_config(cfg)
    # without grid keys, over the tour and its start at the origin
    tour = (Vec2(0.0, 0.0),) + vehicle.waypoints
    grid = grid_from_config(cfg) or default_grid(tour, hp.lengthscale)
    run = RunConfig(hp, vehicle, em_from_config(cfg), grid, **_args(cfg, RUN_ARGS))
    report = monte_carlo(run, workers=args.workers)
    emit_report(report, args.out, include_fields=args.fields)
    kept = len(report.kept_trial_indices)
    print(f"{kept}/{run.trials} trials kept; report written to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="driftfield",
        description="Estimate ocean currents from underwater vehicle drift.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a mission and write its cycle log")
    p_sim.add_argument("--config", required=True, help="mission config file")
    p_sim.add_argument("--seed", type=int, required=True, help="mission noise seed")
    p_sim.add_argument("--out", required=True, help="output cycle log (JSON Lines)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_est = sub.add_parser("estimate", help="fit the current field to a cycle log")
    p_est.add_argument("--cycles", required=True, help="cycle log (JSON Lines)")
    p_est.add_argument("--hyper", required=True, help="hyperparameter config file")
    p_est.add_argument("--kernel", default="incompressible", choices=[k.value for k in KernelKind])
    p_est.add_argument("--out", required=True, help="output directory")
    p_est.set_defaults(func=_cmd_estimate)

    p_mc = sub.add_parser("montecarlo", help="two-kernel convergence study")
    p_mc.add_argument("--config", required=True, help="study config file")
    p_mc.add_argument("--out", required=True, help="output directory")
    p_mc.add_argument("--workers", type=int, default=1, help="processes, at most one per trial")
    p_mc.add_argument("--fields", action="store_true", help="also write per-trial field CSVs")
    p_mc.set_defaults(func=_cmd_montecarlo)

    args = parser.parse_args(argv)
    # every failure a command reports is an OSError or a ValueError
    # (ParseError and ValidationError included), printed here as one line
    try:
        return args.func(args)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
