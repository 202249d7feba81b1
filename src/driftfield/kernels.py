"""
Covariance kernels over 2D currents.

The incompressible kernel is built by pushing a squared-exponential
covariance on the scalar streamfunction through the rotated-gradient
map w = (d(phi)/dy, -d(phi)/dx). Differentiating the scalar kernel
twice yields a matrix-valued covariance whose sample fields are exactly
divergence-free. With g(d) = sigma_phi^2 exp(-|d|^2 / (2 l^2)) and
sigma_phi^2 = sigma_w^2 l^2, the blocks reduce to

    K11 = sigma_w^2 (1 - dy^2/l^2) exp(-|d|^2 / 2l^2)
    K22 = sigma_w^2 (1 - dx^2/l^2) exp(-|d|^2 / 2l^2)
    K12 = K21 = sigma_w^2 (dx dy / l^2) exp(-|d|^2 / 2l^2)

where d = p - q is the lag in metres. The zero-lag covariance is exactly
sigma_w^2 * I. A standard diagonal kernel (independent squared-exponential
on each velocity component, no divergence constraint) is provided for
comparison runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from driftfield.flowfield import Vec2, as_xy

__all__ = [
    "HyperParams",
    "KernelKind",
    "eval_scalar_kernel",
    "eval_kernel",
    "build_block_matrix",
    "block_row_sums",
]

# Entries of the pairwise exponential that `block_row_sums` holds at once
# (256 KiB of float64), against 2.8 MB for the whole (M, M) array of a
# 587-point dive; temporaries that large get fresh pages from the OS on
# every call (about 1300 page faults each). These blocks still exceed
# glibc's default 128 KiB mmap threshold, so they come from the heap only
# once freeing a larger mmapped chunk has raised the dynamic threshold.
ROW_SUM_BLOCK_ENTRIES = 32768


@dataclass(frozen=True)
class HyperParams:
    """
    Fixed model hyperparameters.

    lengthscale: spatial correlation scale of the current field, metres.
    current_variance: prior marginal variance of each velocity component,
        m^2/s^2. The implied streamfunction variance is
        current_variance * lengthscale^2.
    gps_noise_std: GPS fix noise standard deviation per axis, metres.
    """

    lengthscale: float
    current_variance: float
    gps_noise_std: float

    def __post_init__(self):
        if not (self.lengthscale > 0 and math.isfinite(self.lengthscale)):
            raise ValueError("lengthscale must be positive and finite")
        if not (self.current_variance > 0 and math.isfinite(self.current_variance)):
            raise ValueError("current_variance must be positive and finite")
        if self.gps_noise_std < 0 or not math.isfinite(self.gps_noise_std):
            raise ValueError("gps_noise_std must be >= 0 and finite")
        l2 = self.lengthscale * self.lengthscale  # the kernels divide by it
        if not (l2 >= sys.float_info.min and math.isfinite(self.current_variance * l2)):
            raise ValueError(f"lengthscale {self.lengthscale!r} out of range: lengthscale^2 "
                             "must be normal and current_variance * lengthscale^2 finite")

    @property
    def streamfunction_variance(self) -> float:
        return self.current_variance * self.lengthscale**2


class KernelKind(Enum):
    INCOMPRESSIBLE = "incompressible"
    STANDARD_DIAGONAL = "standard_diagonal"


def eval_scalar_kernel(hp: HyperParams, p: Vec2, q: Vec2) -> float:
    """Squared-exponential streamfunction covariance g(p - q), in m^4/s^2."""
    dx = p.x - q.x
    dy = p.y - q.y
    l2 = hp.lengthscale**2
    return hp.streamfunction_variance * math.exp(-(dx * dx + dy * dy) / (2.0 * l2))


def eval_kernel(hp: HyperParams, kind: KernelKind, p: Vec2, q: Vec2) -> np.ndarray:
    """2x2 cross-covariance of the currents at p and q."""
    return build_block_matrix(hp, kind, [p], [q])


def _kernel_blocks(hp: HyperParams, kind: KernelKind, a: np.ndarray, b: np.ndarray):
    """
    The k11, k12 and k22 covariance blocks between (A, 2) and (B, 2)
    points, as one (3, A, B) array. They are formed in place, so the lags
    and e are the only temporaries: arrays this large can come as fresh
    pages from the OS, each of which faults on first touch. Lags are
    clipped to +-40 lengthscales, so a far pair's squares stay finite and
    its e, at most exp(-800), is still exactly 0.
    """
    k = np.empty((3, a.shape[0], b.shape[0]))
    k11, k12, k22 = k
    far = 40.0 * hp.lengthscale
    dx = np.subtract.outer(a[:, 0], b[:, 0])
    np.clip(dx, -far, far, out=dx)
    dy = np.subtract.outer(a[:, 1], b[:, 1])
    np.clip(dy, -far, far, out=dy)
    np.multiply(dy, dy, out=k11)
    np.multiply(dx, dx, out=k22)
    np.multiply(dx, dy, out=k12)
    l2 = hp.lengthscale**2
    e = k11 + k22
    np.negative(e, out=e)
    e /= 2.0 * l2
    np.exp(e, out=e)
    s = hp.current_variance
    if kind is KernelKind.STANDARD_DIAGONAL:
        k[0::2] = s * e
        k12[...] = 0.0
        return k
    # s * (1 - dy^2 / l2) * e, s * (dx dy / l2) * e and s * (1 - dx^2 / l2) * e
    k /= l2
    np.subtract(1.0, k[0::2], out=k[0::2])
    k *= s
    k *= e
    return k


def build_block_matrix(hp: HyperParams, kind: KernelKind, pts_a, pts_b) -> np.ndarray:
    """
    Dense block covariance between two point sets.

    Returns a (2A, 2B) matrix of 2x2 blocks in interleaved component
    order [u0, v0, u1, v1, ...] on both axes.
    """
    a = as_xy(pts_a)
    b = as_xy(pts_b)
    k11, k12, k22 = _kernel_blocks(hp, kind, a, b)
    out = np.empty((2 * a.shape[0], 2 * b.shape[0]))
    out[0::2, 0::2] = k11
    out[0::2, 1::2] = k12
    out[1::2, 0::2] = k12
    out[1::2, 1::2] = k22
    return out


def block_row_sums(hp: HyperParams, kind: KernelKind, pts) -> np.ndarray:
    """
    Block row sums of the covariance of (M, 2) points with themselves.

    Returns an (M, 2, 2) array whose block i is sum_j K(p_i, p_j), the
    covariance of the current at p_i with the sum of all M currents,
    without forming the (2M, 2M) `build_block_matrix(hp, kind, pts, pts)`.

    Each incompressible block is a quadratic in the lag times one
    Gaussian, so one exponential per pair, e_ij = exp(-|p_i - p_j|^2 / 2l^2),
    and one product of e with the moments [1, x, y, x^2, y^2, xy] of
    the points give every sum; for example

        sum_j e_ij (y_i - y_j)^2 = y_i^2 m0_i - 2 y_i my_i + myy_i,

    with m0 = e @ 1, my = e @ y and myy = e @ y^2. The points are first
    centred on their centroid and scaled to lengthscale units. The
    expansion still cancels: against the dense sum, the error scaled by
    each row's magnitude is about eps * (extent / l)^2, measured below
    2e-15 over 1 lengthscale of extent, 1e-13 over 10, 6e-12 over 100
    and 3e-10 over 1000. A dive spans about one lengthscale or less. e
    is formed a block of whole rows at a time, about
    ROW_SUM_BLOCK_ENTRIES entries, so its temporaries stay small.
    """
    p = as_xy(pts)
    m = p.shape[0]
    x, y = (p - p.sum(axis=0) / max(m, 1)).T / hp.lengthscale
    if kind is KernelKind.STANDARD_DIAGONAL:
        moments = np.ones((m, 1))
    else:
        moments = np.column_stack([np.ones_like(x), x, y, x * x, y * y, x * y])
    sums = np.empty((m, moments.shape[1]))
    rows = max(1, ROW_SUM_BLOCK_ENTRIES // max(m, 1))
    for i in range(0, m, rows):
        e = np.subtract.outer(x[i : i + rows], x)
        e *= e
        d = np.subtract.outer(y[i : i + rows], y)
        d *= d
        e += d
        e *= -0.5
        np.exp(e, out=e)
        np.matmul(e, moments, out=sums[i : i + rows])
    s = hp.current_variance
    if kind is KernelKind.STANDARD_DIAGONAL:
        return s * sums[:, 0, None, None] * np.eye(2)
    m0, mx, my, mxx, myy, mxy = sums.T
    k11 = m0 - (y * y * m0 - 2.0 * y * my + myy)
    k22 = m0 - (x * x * m0 - 2.0 * x * mx + mxx)
    k12 = x * y * m0 - x * my - y * mx + mxy
    return s * np.stack([k11, k12, k12, k22], axis=1).reshape(-1, 2, 2)
