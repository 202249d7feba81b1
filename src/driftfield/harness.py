"""
Monte Carlo convergence study and result emission.

Each trial draws a random gyre field and a mission through the
configured waypoints, then replays the cycle log through the estimator
twice: once with the incompressible kernel and once with the standard
diagonal kernel, identical hyperparameters. After every cycle the
estimated field is scored on a fixed grid against the true field, so
the report traces how fast each kernel converges as surfacings
accumulate.

The error metric is the total misfit speed over the grid normalised by
the total true speed, with near-stagnant grid points (below 1 mm/s)
masked out of both sums.

Everything is a pure function of the run configuration: trial t uses
field seed base_seed + 2t and mission seed base_seed + 2t + 1, and
parallel execution reduces results in trial order, so reports are
byte-identical across runs and worker counts.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from driftfield.estimator import EmConfig, iter_process_mission
from driftfield.flowfield import Grid, Vec2, as_xy, eval_field_many, random_gyre, write_field_csv
from driftfield.kernels import HyperParams, KernelKind
from driftfield.simulator import MissionAborted, VehicleConfig, run_mission

__all__ = [
    "RunConfig",
    "ConvergenceReport",
    "DegenerateTruth",
    "SPEED_MASK_EPS",
    "normalized_error",
    "default_grid",
    "monte_carlo",
    "emit_report",
]

# Grid points where the true current is slower than this are excluded
# from the error metric; at gyre stagnation points the normalisation
# would otherwise blow up.
SPEED_MASK_EPS = 1e-3


class DegenerateTruth(Exception):
    """True field is below the speed mask on the whole grid."""


@dataclass(frozen=True)
class RunConfig:
    hp: HyperParams
    vehicle: VehicleConfig
    em: EmConfig
    grid: Grid
    trials: int = 20
    base_seed: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


DEFAULT_GRID_N = 20  # points per side of a default grid


def default_grid(points, lengthscale: float) -> Grid:
    """
    Square DEFAULT_GRID_N x DEFAULT_GRID_N grid over the bounding box of
    the (N, 2) `points`, padded by half a lengthscale on every side. A
    grid that leaves the float range raises ValueError naming the grid keys.
    """
    xy = as_xy(points)
    (x0, y0), (x1, y1) = xy.min(axis=0).tolist(), xy.max(axis=0).tolist()
    # Python floats, which overflow to inf without a numpy warning
    span = max(x1 - x0, y1 - y0) + lengthscale
    cx, cy = 0.5 * x0 + 0.5 * x1, 0.5 * y0 + 0.5 * y1
    try:
        return Grid(Vec2(cx - span / 2.0, cy - span / 2.0), span / (DEFAULT_GRID_N - 1),
                    DEFAULT_GRID_N, DEFAULT_GRID_N)
    except ValueError as err:
        raise ValueError(f"the default grid, padded by {0.5 * lengthscale!r} m, leaves the float "
                         "range; set grid_origin_m, grid_spacing_m, grid_nx and grid_ny") from err


def normalized_error(est_uv: np.ndarray, truth_uv: np.ndarray) -> float:
    """
    Field error of the estimated currents `est_uv` against the true
    currents `truth_uv`, both (G, 2) on the same grid points: the misfit
    speed summed over the grid, normalised by the total true speed.
    Points where the true speed is below SPEED_MASK_EPS leave both sums.
    Raises DegenerateTruth when the truth is effectively still.
    """
    speeds = np.linalg.norm(truth_uv, axis=1)
    mask = speeds > SPEED_MASK_EPS
    if not mask.any():
        raise DegenerateTruth(
            f"no grid point exceeds {SPEED_MASK_EPS} m/s true speed"
        )
    misfit = np.linalg.norm(est_uv[mask] - truth_uv[mask], axis=1)
    return float(misfit.sum() / speeds[mask].sum())


@dataclass(frozen=True)
class TrialResult:
    index: int
    errors: dict  # kernel value -> per-cycle error list
    final_fields: dict  # kernel value -> (G, 2) predicted currents on the grid
    excluded: str | None = None


KERNEL_ORDER = (KernelKind.INCOMPRESSIBLE, KernelKind.STANDARD_DIAGONAL)


def _run_trial(cfg: RunConfig, t: int) -> TrialResult:
    fld = random_gyre(cfg.base_seed + 2 * t)
    try:
        log = run_mission(cfg.vehicle, fld, cfg.base_seed + 2 * t + 1)
    except MissionAborted as err:
        return TrialResult(t, {}, {}, excluded=f"MissionAborted: {err}")
    pts = cfg.grid.points()
    truth_uv = eval_field_many(fld, pts)
    errors = {}
    finals = {}
    try:
        for kind in KERNEL_ORDER:
            per_cycle = []
            est_uv = np.zeros_like(pts)
            for model, _state in iter_process_mission(log, cfg.hp, kind, cfg.em):
                est_uv = model.predict_mean(pts)
                per_cycle.append(normalized_error(est_uv, truth_uv))
            errors[kind.value] = per_cycle
            finals[kind.value] = est_uv
    except DegenerateTruth as err:
        return TrialResult(t, {}, {}, excluded=f"DegenerateTruth: {err}")
    return TrialResult(t, errors, finals)


@dataclass
class ConvergenceReport:
    """Per-cycle error matrices (kept trials x cycles) for each kernel."""

    errors: dict  # kernel value -> (T, C) array
    kept_trial_indices: list
    excluded: list  # (trial index, reason)
    grid: Grid
    final_fields: dict  # kernel value -> list of (G, 2) arrays, kept-trial order

    def __post_init__(self):
        for kernel, mat in self.errors.items():
            mat = np.asarray(mat, dtype=float)
            if mat.size and mat.min() < 0:
                raise ValueError(f"negative error for kernel {kernel}")
            self.errors[kernel] = mat

    @property
    def num_cycles(self) -> int:
        for mat in self.errors.values():
            return mat.shape[1]
        return 0

    def summary(self) -> dict:
        """Median and 0.5 to 99.5 percentile band per cycle per kernel."""
        out = {"excluded_trials": len(self.excluded), "kept_trials": len(self.kept_trial_indices)}
        for kernel, mat in self.errors.items():
            if mat.size == 0:
                out[kernel] = {"median": [], "p00_5": [], "p99_5": []}
                continue
            out[kernel] = {
                "median": np.median(mat, axis=0).tolist(),
                "p00_5": np.percentile(mat, 0.5, axis=0).tolist(),
                "p99_5": np.percentile(mat, 99.5, axis=0).tolist(),
            }
        return out


def monte_carlo(cfg: RunConfig, workers: int = 1) -> ConvergenceReport:
    """
    Run the full study. `workers` > 1 distributes trials over at most
    that many processes, one per trial; results are identical either way.
    Trials whose mission aborts or whose truth field is degenerate are
    excluded from the matrices and listed with their reason.
    """
    run = partial(_run_trial, cfg)
    workers = min(workers, cfg.trials)  # a pool starts all its processes up front
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, range(cfg.trials)))
    else:
        results = [run(t) for t in range(cfg.trials)]
    kept = [r for r in results if r.excluded is None]
    excluded = [(r.index, r.excluded) for r in results if r.excluded is not None]
    errors = {}
    finals = {}
    for kind in KERNEL_ORDER:
        if kept:
            errors[kind.value] = np.array([r.errors[kind.value] for r in kept], dtype=float)
        else:
            errors[kind.value] = np.zeros((0, 0))
        finals[kind.value] = [r.final_fields[kind.value] for r in kept]
    return ConvergenceReport(
        errors=errors,
        kept_trial_indices=[r.index for r in kept],
        excluded=excluded,
        grid=cfg.grid,
        final_fields=finals,
    )


CONVERGENCE_HEADER = "trial,cycle,kernel,normalized_error"


def emit_report(report: ConvergenceReport, out_dir, include_fields: bool = False) -> list:
    """
    Write convergence.csv and summary.json under out_dir; with
    include_fields, also one predicted-field CSV per kept trial and
    kernel. Returns the written paths.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    csv_path = out / "convergence.csv"
    lines = [CONVERGENCE_HEADER]
    for row, trial in enumerate(report.kept_trial_indices):
        for cycle in range(report.num_cycles):
            for kernel in report.errors:
                err = report.errors[kernel][row, cycle]
                lines.append(f"{trial},{cycle + 1},{kernel},{repr(float(err))}")
    csv_path.write_text("\n".join(lines) + "\n")
    written.append(csv_path)

    summary = report.summary()
    summary["excluded"] = [{"trial": t, "reason": r} for t, r in report.excluded]
    summary_path = out / "summary.json"
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    written.append(summary_path)

    if include_fields:
        fields_dir = out / "fields"
        fields_dir.mkdir(exist_ok=True)
        for kernel, mats in report.final_fields.items():
            for row, trial in enumerate(report.kept_trial_indices):
                p = fields_dir / f"trial{trial:03d}_{kernel}.csv"
                write_field_csv(p, report.grid, mats[row])
                written.append(p)
    return written
