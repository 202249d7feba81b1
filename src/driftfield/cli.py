"""
Command line front end.

Four subcommands: `simulate` runs a waypoint mission in an analytic
field and writes the cycle log, `estimate` replays a cycle log through
the EM estimator and writes the model and a predicted field grid,
`montecarlo` runs the two-kernel convergence study, and `kernel-check`
prints kernel self-diagnostics as JSON.

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
from driftfield.kernels import (
    HyperParams,
    KernelKind,
    build_block_matrix,
    eval_kernel,
    fd_consistency_report,
)
from driftfield.simulator import (
    MissionAborted,
    ParseError,
    ValidationError,
    VehicleConfig,
    ingest_cycles,
    run_mission,
    write_cycles,
)

__all__ = ["main", "parse_config"]


class ConfigError(Exception):
    pass


HYPER_KEYS = {"lengthscale_m", "current_variance_m2s2", "gps_noise_std_m"}
VEHICLE_KEYS = {
    "speed_mps", "dt_s", "surface_tolerance_m", "gps_noise_std_m", "waypoints_m", "max_steps_per_cycle",
}
EM_KEYS = {"em_max_iters", "em_tol_m", "pseudo_target_spacing_m"}
GRID_KEYS = {"grid_origin_m", "grid_spacing_m", "grid_nx", "grid_ny"}
# The keys each `field` value reads.
FIELD_KIND_KEYS = {
    "random_gyre": {"field_seed"},
    "zero": set(),
    "uniform": {"field_current_mps"},
    "double_gyre": {"field_amplitude", "field_extent_m", "field_phase_rad"},
}
FIELD_KEYS = {"field"}.union(*FIELD_KIND_KEYS.values())
RUN_KEYS = {"trials", "base_seed"}
ALL_KEYS = HYPER_KEYS | VEHICLE_KEYS | EM_KEYS | GRID_KEYS | FIELD_KEYS | RUN_KEYS

# `estimate --kernel` values
KERNELS = {"incompressible": KernelKind.INCOMPRESSIBLE, "standard": KernelKind.STANDARD_DIAGONAL}


def parse_config(path, keys=ALL_KEYS) -> dict:
    """
    Read a flat key = value file; values stay strings. A key outside
    `keys`, or one given twice, raises ConfigError naming its line.
    """
    out = {}
    lines = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            why = "unknown key" if key not in ALL_KEYS else "this command does not read key"
            raise ConfigError(f"{path}:{lineno}: {why} {key!r}")
        if key in lines:
            raise ConfigError(f"{path}:{lineno}: key {key!r} repeats line {lines[key]}")
        lines[key] = lineno
        out[key] = value.strip()
    return out


def _point(value: str) -> Vec2:
    x, y = (float(v) for v in value.split(","))
    return Vec2(x, y)


def _points(value: str) -> tuple:
    return tuple(_point(chunk) for chunk in value.split(";") if chunk.strip())


def _seed(value: str) -> int:
    seed = int(value)
    if seed < 0:
        raise ValueError("expected a non-negative integer")
    return seed


def _value(cfg: dict, key: str, parse, default=None):
    """
    `parse(cfg[key])`, or `default` when the key is absent. A value that
    does not parse raises ConfigError naming the key.
    """
    if key not in cfg:
        return default
    try:
        return parse(cfg[key])
    except ValueError as err:
        raise ConfigError(f"{key} = {cfg[key]}: {err}") from err


def hyper_from_config(cfg: dict) -> HyperParams:
    return HyperParams(
        lengthscale=_value(cfg, "lengthscale_m", float, 35000.0),
        current_variance=_value(cfg, "current_variance_m2s2", float, 0.5),
        gps_noise_std=_value(cfg, "gps_noise_std_m", float, 3.0),
    )


def vehicle_from_config(cfg: dict) -> VehicleConfig:
    if "waypoints_m" not in cfg:
        raise ConfigError("config needs waypoints_m (format: 'x,y; x,y; ...')")
    return VehicleConfig(
        speed_through_water=_value(cfg, "speed_mps", float, 0.35),
        dt=_value(cfg, "dt_s", float, 60.0),
        surface_tolerance=_value(cfg, "surface_tolerance_m", float, 100.0),
        gps_noise_std=_value(cfg, "gps_noise_std_m", float, 3.0),
        waypoints=_value(cfg, "waypoints_m", _points),
        max_steps_per_cycle=_value(cfg, "max_steps_per_cycle", int, 1500),
    )


def em_from_config(cfg: dict) -> EmConfig:
    return EmConfig(
        max_iters=_value(cfg, "em_max_iters", int, 10),
        convergence_tol=_value(cfg, "em_tol_m", float, 1.0),
        pseudo_target_spacing=_value(cfg, "pseudo_target_spacing_m", float),
    )


def grid_from_config(cfg: dict) -> Grid | None:
    present = GRID_KEYS & cfg.keys()
    if not present:
        return None
    if present != GRID_KEYS:
        raise ConfigError(f"grid needs all of {sorted(GRID_KEYS)}, got {sorted(present)}")
    return Grid(
        _value(cfg, "grid_origin_m", _point),
        _value(cfg, "grid_spacing_m", float),
        _value(cfg, "grid_nx", int),
        _value(cfg, "grid_ny", int),
    )


def field_from_config(cfg: dict) -> AnalyticField:
    kind = cfg.get("field", "random_gyre")
    if kind not in FIELD_KIND_KEYS:
        raise ConfigError(f"unknown field {kind!r}")
    foreign = sorted((FIELD_KEYS - {"field"} - FIELD_KIND_KEYS[kind]) & cfg.keys())
    if foreign:
        raise ConfigError(f"a {kind} field does not read key {foreign[0]!r}")
    if kind == "random_gyre":
        return random_gyre(_value(cfg, "field_seed", _seed, 0))
    if kind == "zero":
        return AnalyticField.zero()
    if kind == "uniform":
        if "field_current_mps" not in cfg:
            raise ConfigError("uniform field needs field_current_mps (format: 'u,v')")
        return AnalyticField.uniform(_value(cfg, "field_current_mps", _point))
    if "field_amplitude" not in cfg:
        raise ConfigError("double_gyre field needs field_amplitude (m^2/s)")
    extent = _value(cfg, "field_extent_m", _point, Vec2(50000.0, 50000.0))
    phase = _value(cfg, "field_phase_rad", _point, Vec2(0.0, 0.0))
    return AnalyticField.double_gyre(
        _value(cfg, "field_amplitude", float),
        extent=(extent.x, extent.y),
        phase=(phase.x, phase.y),
    )


def _cmd_simulate(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed {args.seed}: expected a non-negative integer")
    cfg = parse_config(args.config, VEHICLE_KEYS | FIELD_KEYS)
    vehicle = vehicle_from_config(cfg)
    fld = field_from_config(cfg)
    try:
        log = run_mission(vehicle, fld, args.seed)
    except MissionAborted as err:
        write_cycles(err.log, args.out)
        print(f"mission aborted: {err}; partial log written to {args.out}", file=sys.stderr)
        return 2
    write_cycles(log, args.out)
    print(f"wrote {len(log.cycles)} cycles to {args.out}")
    return 0


def _grid_for_log(log, hp: HyperParams) -> Grid:
    # same 20 x 20 rule as missions, over everywhere the vehicle reported
    pts = np.vstack([c.dead_reckoned for c in log.cycles])
    return default_grid(pts, hp.lengthscale, include_origin=False)


def _cmd_estimate(args) -> int:
    cfg = parse_config(args.hyper, HYPER_KEYS | EM_KEYS | GRID_KEYS)
    hp = hyper_from_config(cfg)
    kind = KERNELS[args.kernel]
    emcfg = em_from_config(cfg)
    log = ingest_cycles(args.cycles)
    if not log.cycles:
        print("cycle log is empty", file=sys.stderr)
        return 2
    grid = grid_from_config(cfg) or _grid_for_log(log, hp)
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
        print(f"error: all {len(states)} cycles failed, the first with {states[0].error}; "
              f"see {out / 'em_states.json'}", file=sys.stderr)
        return 2
    (out / "model.json").write_text(model.to_json() + "\n")
    write_field_csv(out / "field.csv", grid, model.predict_mean(grid.points()))
    print(f"wrote em_states.json, model.json, field.csv to {out}")
    return 0


def _cmd_montecarlo(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {args.workers}")
    cfg = parse_config(args.config, HYPER_KEYS | VEHICLE_KEYS | EM_KEYS | GRID_KEYS | RUN_KEYS)
    hp = hyper_from_config(cfg)
    vehicle = vehicle_from_config(cfg)
    grid = grid_from_config(cfg) or default_grid(vehicle.waypoints, hp.lengthscale)
    run = RunConfig(
        hp=hp,
        vehicle=vehicle,
        em=em_from_config(cfg),
        grid=grid,
        trials=_value(cfg, "trials", int, 20),
        base_seed=_value(cfg, "base_seed", _seed, 0),
    )
    report = monte_carlo(run, workers=args.workers)
    emit_report(report, args.out, include_fields=args.fields)
    kept = len(report.kept_trial_indices)
    print(f"{kept}/{run.trials} trials kept; report written to {args.out}")
    return 0


def _cmd_kernel_check(args) -> int:
    cfg = parse_config(args.config, HYPER_KEYS) if args.config else {}
    hp = hyper_from_config(cfg)
    zero_lag = eval_kernel(hp, KernelKind.INCOMPRESSIBLE, Vec2(0, 0), Vec2(0, 0))
    rng = np.random.default_rng(0)
    pts = rng.uniform(-4.0 * hp.lengthscale, 4.0 * hp.lengthscale, size=(40, 2))
    gram = build_block_matrix(hp, KernelKind.INCOMPRESSIBLE, pts, pts)
    result = {
        "zero_lag": zero_lag.tolist(),
        "psd_min_eigenvalue": float(np.linalg.eigvalsh(gram).min()),
        "fd_consistency": fd_consistency_report(hp),
    }
    print(json.dumps(result, indent=2))
    return 0 if result["fd_consistency"]["passed"] else 1


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
    p_est.add_argument("--kernel", default="incompressible", choices=KERNELS)
    p_est.add_argument("--out", required=True, help="output directory")
    p_est.set_defaults(func=_cmd_estimate)

    p_mc = sub.add_parser("montecarlo", help="two-kernel convergence study")
    p_mc.add_argument("--config", required=True, help="study config file")
    p_mc.add_argument("--out", required=True, help="output directory")
    p_mc.add_argument("--workers", type=int, default=1, help="parallel trial processes")
    p_mc.add_argument("--fields", action="store_true", help="also write per-trial field CSVs")
    p_mc.set_defaults(func=_cmd_montecarlo)

    p_kc = sub.add_parser("kernel-check", help="print kernel self-diagnostics as JSON")
    p_kc.add_argument("--config", help="optional hyperparameter config file")
    p_kc.set_defaults(func=_cmd_kernel_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError, ValueError, ParseError, ValidationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
