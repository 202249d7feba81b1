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
# (256 KiB of float64). The whole (M, M) array of a 587-point dive is
# 2.8 MB, and temporaries that large get fresh pages from the OS on every
# call (about 1300 page faults each), so the call's time would follow
# the host's memory load; blocks this size are reused from the heap.
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
    pages from the OS, each of which faults on first touch.
    """
    k = np.empty((3, a.shape[0], b.shape[0]))
    k11, k12, k22 = k
    dx = np.subtract.outer(a[:, 0], b[:, 0])
    dy = np.subtract.outer(a[:, 1], b[:, 1])
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


def block_row_sums(hp: HyperParams, kind: KernelKind, pts_a, pts_b) -> np.ndarray:
    """
    Sum of the 2x2 blocks along each block row of the covariance.

    Returns a (2A, 2) array equal to
    `build_block_matrix(hp, kind, pts_a, pts_b) @ np.tile(np.eye(2), (B, 1))`,
    the covariance of each current in `pts_a` with the sum of the
    currents in `pts_b`, without forming the (2A, 2B) matrix.

    Each incompressible block is a quadratic in the lag times one
    Gaussian, so one exponential per pair, e_ij = exp(-|a_i - b_j|^2 / 2l^2),
    and one product of e with the moments [1, x, y, x^2, y^2, xy] of
    `pts_b` give every sum; for example

        sum_j e_ij (y_i - y_j)^2 = y_i^2 m0_i - 2 y_i my_i + myy_i,

    with m0 = e @ 1, my = e @ y and myy = e @ y^2. Both point sets are
    first centred on the centroid of `pts_b` and scaled to lengthscale
    units. The expansion still cancels: against the dense sum, the
    error scaled by each row's magnitude is about eps * (extent / l)^2,
    measured below 2e-15 over 1 lengthscale of extent, 1e-13 over 10,
    6e-12 over 100 and 3e-10 over 1000. A dive spans about one
    lengthscale or less. e is formed a block of whole rows at a time,
    about ROW_SUM_BLOCK_ENTRIES entries, so its temporaries stay small.
    """
    a = as_xy(pts_a)
    b = as_xy(pts_b)
    l = hp.lengthscale
    centre = b.sum(axis=0) / max(b.shape[0], 1)
    x_a, y_a = (a - centre).T / l
    x_b, y_b = (b - centre).T / l
    if kind is KernelKind.STANDARD_DIAGONAL:
        moments = np.ones((b.shape[0], 1))
    else:
        moments = np.column_stack([np.ones_like(x_b), x_b, y_b, x_b * x_b, y_b * y_b, x_b * y_b])
    sums = np.empty((a.shape[0], moments.shape[1]))
    rows = max(1, ROW_SUM_BLOCK_ENTRIES // max(b.shape[0], 1))
    for i in range(0, a.shape[0], rows):
        e = np.subtract.outer(x_a[i : i + rows], x_b)
        e *= e
        d = np.subtract.outer(y_a[i : i + rows], y_b)
        d *= d
        e += d
        e *= -0.5
        np.exp(e, out=e)
        np.matmul(e, moments, out=sums[i : i + rows])
    s = hp.current_variance
    if kind is KernelKind.STANDARD_DIAGONAL:
        k11 = k22 = s * sums[:, 0]
        k12 = 0.0
    else:
        m0, mx, my, mxx, myy, mxy = sums.T
        k11 = s * (m0 - (y_a * y_a * m0 - 2.0 * y_a * my + myy))
        k22 = s * (m0 - (x_a * x_a * m0 - 2.0 * x_a * mx + mxx))
        k12 = s * (x_a * y_a * m0 - x_a * my - y_a * mx + mxy)
    out = np.empty((2 * a.shape[0], 2))
    out[0::2, 0] = k11
    out[0::2, 1] = k12
    out[1::2, 0] = k12
    out[1::2, 1] = k22
    return out
