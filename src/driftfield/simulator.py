"""
Waypoint mission simulator and cycle-log ingestion.

The vehicle alternates dives and surfacings. While submerged it has no
position reference: it integrates only its commanded velocity (dead
reckoning), so the ocean current silently advects the true position
away from the estimate. Each surfacing takes a GPS fix; the gap between
the fix and the dead-reckoned endpoint is the accumulated drift, which
is the estimator's only measurement of the current field.

Discrete-time model, step dt:

    truth:          p_{t+1} = p_t + (v_t + w(p_t)) * dt
    dead reckoning: e_{t+1} = e_t + v_t * dt

with w the current field and v_t the commanded velocity (constant speed
along the dead-reckoned bearing to the active waypoint). Dead reckoning
restarts from each GPS fix, so consecutive cycles chain: the next
dive-in point is the previous fix.

Cycle logs are JSON Lines, one cycle per line:

    {"dt_s": 60.0, "dead_reckoned_m": [[x, y], ...], "gps_fix_m": [x, y]}

with an optional "drift_m" field (validated against fix minus last
dead-reckoned point when present). Logs recorded in latitude/longitude
use "dead_reckoned_latlon" / "gps_fix_latlon" keys ([lat, lon] pairs in
degrees, |lat| <= 90 and |lon| <= 360) plus an optional header line
{"origin_latlon": [lat, lon]}, which must come first; they are converted
to local metres on ingestion (see `latlon_to_local`). A record with any
other key is a ParseError.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from driftfield.flowfield import (_NUMBER_TYPES, AnalyticField, Vec2, as_xy, eval_field,
                                  frozen_xy, non_negative, positive)

__all__ = [
    "VehicleConfig",
    "Cycle",
    "MissionLog",
    "MissionAborted",
    "ParseError",
    "ValidationError",
    "run_mission",
    "write_cycles",
    "ingest_cycles",
    "latlon_to_local",
    "EARTH_RADIUS_M",
]

logger = logging.getLogger(__name__)

# Mean Earth radius for the equirectangular lat/long projection.
EARTH_RADIUS_M = 6371000.0


class MissionAborted(Exception):
    """Step budget ran out on every remaining waypoint. Carries the partial log."""

    def __init__(self, message: str, log: "MissionLog"):
        super().__init__(message)
        self.log = log


class ParseError(ValueError):
    """Cycle-log line is not valid JSON or misses required fields."""


class ValidationError(ValueError):
    """Cycle-log contents violate a cycle invariant."""


@dataclass(frozen=True)
class VehicleConfig:
    speed_through_water: float = 0.35
    dt: float = 60.0
    surface_tolerance: float = 100.0
    gps_noise_std: float = 3.0
    waypoints: tuple = ()
    max_steps_per_cycle: int = 1500

    def __post_init__(self):
        positive("speed_through_water", self.speed_through_water)
        positive("dt", self.dt)
        positive("surface_tolerance", self.surface_tolerance)
        non_negative("gps_noise_std", self.gps_noise_std)
        if len(self.waypoints) < 1:
            raise ValueError("at least one waypoint is required")
        if self.max_steps_per_cycle < 1:
            raise ValueError("max_steps_per_cycle must be >= 1")
        object.__setattr__(self, "waypoints", tuple(self.waypoints))


@dataclass(frozen=True)
class Cycle:
    """
    One dive: dead-reckoned track, a read-only (n + 1, 2) array in metres
    (row 0 is the dive-in fix, n further steps), plus the surfacing GPS
    fix. `drift` is derived, never stored independently: fix minus last
    dead-reckoned point.
    """

    dt: float
    dead_reckoned: np.ndarray
    gps_fix: Vec2
    drift: Vec2 = field(init=False)

    def __post_init__(self):
        positive("dt", self.dt)
        dr = frozen_xy(self.dead_reckoned)
        if len(dr) < 2:
            raise ValueError("a cycle needs the dive-in fix plus at least one step")
        if not np.isfinite(dr).all():
            raise ValueError("dead-reckoned positions must be finite")
        object.__setattr__(self, "dead_reckoned", dr)
        ex, ey = dr[-1].tolist()
        object.__setattr__(self, "drift", Vec2(self.gps_fix.x - ex, self.gps_fix.y - ey))

    @property
    def num_steps(self) -> int:
        return len(self.dead_reckoned) - 1


@dataclass
class MissionLog:
    cycles: list
    truth_trajectories: list | None = None

    def __post_init__(self):
        if self.truth_trajectories is not None and len(self.truth_trajectories) != len(self.cycles):
            raise ValueError("one truth trajectory per cycle")


def run_mission(cfg: VehicleConfig, fld: AnalyticField, seed: int) -> MissionLog:
    """
    Simulate one mission from the origin through cfg.waypoints.

    Per cycle the vehicle steers at the active waypoint along the
    dead-reckoned bearing, surfaces once the dead-reckoned position is
    within surface_tolerance (taking at least one step), and fixes with
    GPS noise N(0, gps_noise_std^2 I). A cycle that runs out of steps is
    still logged; if every waypoint from the first missed one onward is
    missed, MissionAborted is raised with the partial log attached. A
    current strong enough to carry the true position out of the float
    range raises ValueError naming the waypoint of that dive.
    """
    rng = np.random.default_rng(seed)
    speed, dt = cfg.speed_through_water, cfg.dt

    def gps(x: float, y: float) -> tuple:
        nx, ny = rng.normal(0.0, cfg.gps_noise_std, size=2).tolist()
        return x + nx, y + ny

    # Plain floats in the step loop. The order of the operations fixes the
    # rounding and so the bytes of every log; keep it when editing.
    tx, ty = 0.0, 0.0
    fx, fy = gps(tx, ty)
    cycles = []
    truths = []
    reached_flags = []
    for i, wp in enumerate(cfg.waypoints):
        ex, ey = fx, fy
        dr = [(ex, ey)]
        truth_path = [(tx, ty)]
        reached = False
        # checked once per dive: an overflowed position fails sin() or shows in the fix
        try:
            for _ in range(cfg.max_steps_per_cycle):
                # command: constant speed along the dead-reckoned bearing
                dx, dy = wp.x - ex, wp.y - ey
                dist = math.hypot(dx, dy)
                vx, vy = (0.0, 0.0) if dist == 0.0 else (dx / dist * speed, dy / dist * speed)
                wx, wy = eval_field(fld, tx, ty)
                tx, ty = tx + (vx + wx) * dt, ty + (vy + wy) * dt
                ex, ey = ex + vx * dt, ey + vy * dt
                dr.append((ex, ey))
                truth_path.append((tx, ty))
                if math.hypot(wp.x - ex, wp.y - ey) <= cfg.surface_tolerance:
                    reached = True
                    break
        except ValueError:
            tx = math.inf
        fx, fy = gps(tx, ty)
        if not (math.isfinite(fx) and math.isfinite(fy)):
            raise ValueError(f"dive to waypoint {i}: the current carried the true position "
                             "out of the float range")
        cycles.append(Cycle(dt, dr, Vec2(fx, fy)))
        truths.append(frozen_xy(truth_path))
        reached_flags.append(reached)

    log = MissionLog(cycles, truth_trajectories=truths)
    if not all(reached_flags):
        first_bad = reached_flags.index(False)
        if not any(reached_flags[first_bad:]):
            raise MissionAborted(
                f"step budget exhausted from waypoint {first_bad} onward", log
            )
    return log


def write_cycles(log: MissionLog, path) -> None:
    """Write the cycle log as JSON Lines (metric keys, drift included)."""
    with open(path, "w") as fh:
        for c in log.cycles:
            fh.write(
                json.dumps(
                    {
                        "dt_s": c.dt,
                        "dead_reckoned_m": c.dead_reckoned.tolist(),
                        "gps_fix_m": [c.gps_fix.x, c.gps_fix.y],
                        "drift_m": [c.drift.x, c.drift.y],
                    }
                )
                + "\n"
            )


def latlon_to_local(latlon, origin_lat: float, origin_lon: float) -> np.ndarray:
    """
    Equirectangular projection of the [lat, lon] rows (degrees) of an
    (N, 2) array to a local tangent plane: an (N, 2) array of metres.

    x is east, y is north; accurate to first order near the origin,
    which is all short-range surfacing tracks need.
    """
    latlon = as_xy(latlon)
    x = EARTH_RADIUS_M * np.radians(latlon[:, 1] - origin_lon) * math.cos(math.radians(origin_lat))
    y = EARTH_RADIUS_M * np.radians(latlon[:, 0] - origin_lat)
    return np.column_stack([x, y])


# Wrong types, shapes or lengths, and integers too large for a float.
_CONVERSION_ERRORS = (TypeError, ValueError, LookupError, OverflowError)


def _coords(rec: dict, key: str, lineno: int) -> np.ndarray:
    """
    `rec[key]` as floats: an (N, 2) track for a 'dead_reckoned' key, one
    (2,) pair for any other. Raises ParseError for a value of another
    shape, ValidationError for a string, boolean or null coordinate, for
    a non-finite one and, for a '_latlon' key, for |lat| > 90 or
    |lon| > 360 degrees.
    """
    track = key.startswith("dead_reckoned")
    try:
        xy = frozen_xy(rec[key] if track else [rec[key]])
        value = xy if track else xy[0]
    except _CONVERSION_ERRORS as err:
        shape = "a list of coordinate pairs" if track else "one coordinate pair"
        raise ParseError(f"line {lineno}: '{key}' must be {shape} "
                         f"({type(err).__name__}: {err})") from err
    # the conversion passed, so the value is a list of pairs, or one pair
    if not _NUMBER_TYPES.issuperset(map(type, chain.from_iterable(rec[key]) if track else rec[key])):
        raise ValidationError(f"line {lineno}: '{key}' must hold numbers, "
                              "not strings, booleans or null")
    if not np.isfinite(xy).all():
        raise ValidationError(f"line {lineno}: '{key}' must be finite")
    if key.endswith("_latlon") and not (np.abs(xy) <= (90.0, 360.0)).all():
        raise ValidationError(f"line {lineno}: '{key}' must hold [lat, lon] pairs with "
                              "|lat| <= 90 and |lon| <= 360 degrees")
    return value


# A cycle record is "dt_s", an optional "drift_m" and exactly one of these
# (track, fix) key pairs: positions in metres, or [lat, lon] in degrees.
_POSITION_KEYS = (("dead_reckoned_m", "gps_fix_m"), ("dead_reckoned_latlon", "gps_fix_latlon"))


def _cycle_from_record(rec: dict, lineno: int, origin: tuple | None):
    keys = set(rec)
    # judge the record by the pair it shares more keys with (metric on a tie)
    track_key, fix_key = max(_POSITION_KEYS, key=lambda pair: len(keys.intersection(pair)))
    unexpected = sorted(keys - {"dt_s", "drift_m", track_key, fix_key})
    missing = sorted({"dt_s", track_key, fix_key} - keys)
    if unexpected or missing:
        raise ParseError(
            f"line {lineno}: unexpected keys {unexpected}, missing keys {missing}; a cycle "
            f"record is 'dt_s', an optional 'drift_m' and one pair of {list(_POSITION_KEYS)}, "
            'a header exactly {"origin_latlon": [lat, lon]}'
        )
    if type(rec["dt_s"]) not in _NUMBER_TYPES:
        raise ValidationError(f"line {lineno}: 'dt_s' must be a number, got {rec['dt_s']!r}")
    dr = _coords(rec, track_key, lineno)
    fix = _coords(rec, fix_key, lineno)
    stated = _coords(rec, "drift_m", lineno) if "drift_m" in rec else None
    # an empty track has no first point to project about; Cycle rejects it below
    if fix_key == "gps_fix_latlon" and len(dr):
        if origin is None:
            # project about the first fix when no header named an origin
            origin = (float(dr[0, 0]), float(dr[0, 1]))
        dr = latlon_to_local(dr, *origin)
        fix = latlon_to_local(fix[None], *origin)[0]
    try:
        cycle = Cycle(float(rec["dt_s"]), dr, Vec2(*fix.tolist()))
        stated = Vec2(*stated.tolist()) if stated is not None else None
    except (TypeError, ValueError, OverflowError) as err:
        raise ValidationError(f"line {lineno}: {err}") from err
    if stated is not None and math.dist((stated.x, stated.y), (cycle.drift.x, cycle.drift.y)) > 1e-6:
        raise ValidationError(
            f"line {lineno}: stated drift {stated} disagrees with "
            f"fix minus last dead-reckoned point {cycle.drift}"
        )
    return cycle, origin


def ingest_cycles(path) -> MissionLog:
    """
    Parse a JSON Lines cycle log into a MissionLog (no truth data).

    Raises ParseError for malformed lines, ValidationError for invariant
    violations and non-finite values. Cycles that do not chain (dive-in
    fix != previous GPS fix) are accepted with a warning.
    """
    cycles = []
    origin = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as err:
                raise ParseError(f"line {lineno}: invalid JSON ({err.msg})") from err
            if not isinstance(rec, dict):
                raise ParseError(f"line {lineno}: expected a JSON object")
            if rec.keys() == {"origin_latlon"}:
                if cycles or origin is not None:
                    # a later origin would silently re-project the rest of the log
                    raise ParseError(
                        f"line {lineno}: 'origin_latlon' must be the log's one header, "
                        "before every cycle"
                    )
                origin = tuple(_coords(rec, "origin_latlon", lineno).tolist())
                continue
            cycle, origin = _cycle_from_record(rec, lineno, origin)
            cycles.append(cycle)
    for prev, nxt in zip(cycles, cycles[1:]):
        if math.dist(nxt.dead_reckoned[0].tolist(), (prev.gps_fix.x, prev.gps_fix.y)) > 1e-6:
            logger.warning(
                "cycles do not chain: dive-in %s vs previous fix %s",
                nxt.dead_reckoned[0],
                prev.gps_fix,
            )
    return MissionLog(cycles)
