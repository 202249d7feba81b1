"""
Analytic 2D incompressible flow fields.

A planar incompressible flow is the rotated gradient of a scalar
streamfunction phi:

    w(x, y) = (d(phi)/dy, -d(phi)/dx)

Every field is a uniform current c plus a double gyre of amplitude A:

    phi = c_x*y - c_y*x + A sin(pi*x/Lx - px) sin(pi*y/Ly - py)

The gyre is a steady checkerboard of counter-rotating cells of size
Lx x Ly. `AnalyticField` builds every field from c, A, the cell size
and a phase shift; c and A default to zero, the still field.

All fields are exactly divergence-free by construction.
Positions are metres, velocities m/s, streamfunction m^2/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# numpy imports its random module on first use. Import it here, so that
# the montecarlo pool's forked workers inherit it instead of each paying
# about 14 ms to import it again.
import numpy.random  # noqa: F401

__all__ = [
    "Vec2",
    "AnalyticField",
    "Grid",
    "eval_field",
    "eval_field_many",
    "random_gyre",
    "write_field_csv",
    "read_field_csv",
]


@dataclass(frozen=True)
class Vec2:
    """2D vector: a position in metres or a velocity/current in m/s."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"Vec2 components must be finite, got ({self.x}, {self.y})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


def as_xy(points) -> np.ndarray:
    """Coerce a sequence of Vec2 (or an (N, 2) array-like) to an (N, 2) float array."""
    if isinstance(points, np.ndarray):
        out = np.asarray(points, dtype=float)
    else:
        out = np.array([(p.x, p.y) if isinstance(p, Vec2) else tuple(p) for p in points], dtype=float)
    if out.size == 0:
        return out.reshape(0, 2)
    if out.ndim != 2 or out.shape[1] != 2:
        raise ValueError(f"expected (N, 2) points, got shape {out.shape}")
    return out


# The types a JSON number parses to. np.array(..., dtype=float) also takes
# numeric strings, booleans and null, and float() the first two, so each
# value's type is compared exactly (bool is a subclass of int).
_NUMBER_TYPES = frozenset({int, float})


def positive(name: str, value) -> None:
    """Raise a ValueError naming `name` unless `value` is positive and finite."""
    if not (0 < value < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def non_negative(name: str, value) -> None:
    """Raise a ValueError naming `name` unless `value` is >= 0 and finite."""
    if not (0 <= value < math.inf):
        raise ValueError(f"{name} must be >= 0 and finite, got {value}")


def to_vec2_list(xy: np.ndarray) -> list[Vec2]:
    return [Vec2(float(x), float(y)) for x, y in np.asarray(xy, dtype=float).reshape(-1, 2)]


def frozen_xy(points) -> np.ndarray:
    """Read-only (N, 2) float64 copy of an (N, 2) array-like: how tracks are stored."""
    out = as_xy(np.array(points, dtype=float))
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class AnalyticField:
    """
    Closed-form streamfunction field: a uniform `current` (m/s) plus a
    double gyre. `amplitude` scales the gyre streamfunction (m^2/s),
    `domain_extent` is the gyre cell size (Lx, Ly) and `phase` shifts
    the cell pattern.
    """

    current: tuple[float, float] = (0.0, 0.0)
    amplitude: float = 0.0
    domain_extent: tuple[float, float] = (5.0e4, 5.0e4)
    phase: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if not all(math.isfinite(c) for c in self.current):
            raise ValueError(f"current must be finite, got {self.current}")
        non_negative("amplitude", self.amplitude)
        for extent in self.domain_extent:
            positive("domain extents", extent)
        if not all(math.isfinite(p) for p in self.phase):
            raise ValueError(f"phase must be finite, got {self.phase}")
        if not math.isfinite(self.amplitude * (math.pi / min(self.domain_extent))):
            raise ValueError(f"amplitude {self.amplitude!r} over extents {self.domain_extent}: "
                             "the gyre speed amplitude*pi/min(extent) overflows")


def eval_field(f: AnalyticField, x: float, y: float) -> tuple[float, float]:
    """Current (u, v) = (d(phi)/dy, -d(phi)/dx) at (x, y), evaluated analytically."""
    cx, cy = f.current
    lx, ly = f.domain_extent
    px, py = f.phase
    ax = math.pi * x / lx - px
    ay = math.pi * y / ly - py
    u = f.amplitude * (math.pi / ly) * math.sin(ax) * math.cos(ay)
    v = -f.amplitude * (math.pi / lx) * math.cos(ax) * math.sin(ay)
    return cx + u, cy + v


def eval_field_many(f: AnalyticField, points) -> np.ndarray:
    """`eval_field` over an (N, 2) array (or sequence of Vec2) of finite points; returns (N, 2)."""
    xy = as_xy(points)
    if not np.isfinite(xy).all():
        raise ValueError("query points must be finite")
    return as_xy([eval_field(f, x, y) for x, y in xy.tolist()])


# Sampling ranges for random gyres. Cell extents are drawn uniformly per
# axis, phases uniformly over a full period, and the peak current speed
# log-uniformly over [PEAK_SPEED_MIN, PEAK_SPEED_MAX]; the streamfunction
# amplitude is then solved from the closed-form peak speed.
GYRE_EXTENT_RANGE = (3.0e4, 7.0e4)
PEAK_SPEED_MIN = 0.1
PEAK_SPEED_MAX = 0.5


def random_gyre(seed: int = 0) -> AnalyticField:
    """Deterministic random double gyre with peak current speed in [0.1, 0.5] m/s."""
    rng = np.random.default_rng(seed)
    lo, hi = GYRE_EXTENT_RANGE
    lx = float(rng.uniform(lo, hi))
    ly = float(rng.uniform(lo, hi))
    px = float(rng.uniform(0.0, 2.0 * np.pi))
    py = float(rng.uniform(0.0, 2.0 * np.pi))
    speed = float(np.exp(rng.uniform(np.log(PEAK_SPEED_MIN), np.log(PEAK_SPEED_MAX))))
    amplitude = speed * min(lx, ly) / math.pi
    return AnalyticField(amplitude=amplitude, domain_extent=(lx, ly), phase=(px, py))


@dataclass(frozen=True)
class Grid:
    """Regular evaluation raster; points are laid out row-major (y-outer, x-inner)."""

    origin: Vec2
    spacing: float
    nx: int
    ny: int

    def __post_init__(self):
        positive("grid spacing", self.spacing)
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid must contain at least one point")
        last_x = self.origin.x + self.spacing * (self.nx - 1)
        last_y = self.origin.y + self.spacing * (self.ny - 1)
        if not (math.isfinite(last_x) and math.isfinite(last_y)):
            raise ValueError(f"grid of {self.nx}x{self.ny} points spaced {self.spacing} m from "
                             f"({self.origin.x}, {self.origin.y}) leaves the float range")

    def points(self) -> np.ndarray:
        """All grid points as an (nx*ny, 2) array in row-major order."""
        xs = self.origin.x + self.spacing * np.arange(self.nx)
        ys = self.origin.y + self.spacing * np.arange(self.ny)
        gx, gy = np.meshgrid(xs, ys)  # shape (ny, nx); C-order ravel is y-outer
        return np.column_stack([gx.ravel(), gy.ravel()])


FIELD_CSV_HEADER = ["x_m", "y_m", "u_mps", "v_mps"]


def write_field_csv(path, grid: Grid, velocities) -> None:
    """Write grid velocities as CSV rows `x_m,y_m,u_mps,v_mps` (CRLF) in grid row-major order."""
    uv = as_xy(velocities)
    pts = grid.points()
    if uv.shape != pts.shape:
        raise ValueError(f"expected {pts.shape[0]} velocity rows, got {uv.shape[0]}")
    rows = np.hstack([pts, uv]).tolist()
    lines = [",".join(FIELD_CSV_HEADER)] + [f"{x!r},{y!r},{u!r},{v!r}" for x, y, u, v in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


def read_field_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a field CSV back as (positions, velocities), both (N, 2) arrays."""
    with open(path) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    if rows[:1] != [FIELD_CSV_HEADER]:
        raise ValueError(f"{path}: expected the field CSV header {FIELD_CSV_HEADER}, got {rows[:1]}")
    for lineno, row in enumerate(rows[1:], start=2):
        if row != [""] and len(row) != len(FIELD_CSV_HEADER):
            raise ValueError(f"{path}:{lineno}: expected {len(FIELD_CSV_HEADER)} values, got {len(row)}")
    data = np.array([[float(c) for c in row] for row in rows[1:] if row != [""]]).reshape(-1, 4)
    return data[:, :2], data[:, 2:]
