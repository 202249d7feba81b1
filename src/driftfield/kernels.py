"""
Covariance kernels over 2D currents.

The incompressible kernel is built by pushing a squared-exponential
covariance on the scalar streamfunction through the rotated-gradient
map w = (d(phi)/dy, -d(phi)/dx). Differentiating the scalar kernel
twice yields a matrix-valued covariance whose sample fields are exactly
divergence-free. With g(d) = sigma_phi^2 exp(-|d|^2 / (2 l^2)) and
sigma_phi^2 = sigma_w^2 l^2, the blocks reduce to

    K11 = sigma_w^2 (1 - ry^2) exp(-|r|^2 / 2)
    K22 = sigma_w^2 (1 - rx^2) exp(-|r|^2 / 2)
    K12 = K21 = sigma_w^2 rx ry exp(-|r|^2 / 2)

where d = p - q is the lag in metres and r = d / l the lag in
lengthscales, the unit the code computes in. The zero-lag covariance is
exactly sigma_w^2 * I. A standard diagonal kernel (independent
squared-exponential on each velocity component, no divergence
constraint) is provided for comparison runs.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from driftfield.flowfield import as_xy, non_negative, positive

__all__ = [
    "HyperParams",
    "KernelKind",
    "build_block_matrix",
    "block_row_sums",
    "cross_sums",
]

# Pairs per row block when `block_row_sums` sums `_kernel_blocks` (a set
# too wide for its series), which bounds that path's temporaries: six
# arrays of this many float64 (64 KiB each), against 2.8 MB for one (M, M)
# array of a 587-point set. Below glibc's default 128 KiB mmap threshold
# they come from the heap: at M = 389 on 1 BLAS thread a call faulted no
# pages and took 2.0-2.8 ms, against 1404 minor faults and 3.9-4.5 ms
# at 32768 entries.
ROW_SUM_BLOCK_ENTRIES = 8192


@dataclass(frozen=True)
class HyperParams:
    """
    Fixed model hyperparameters.

    lengthscale: spatial correlation scale of the current field, metres.
    current_variance: prior marginal variance of each velocity component,
        m^2/s^2.
    gps_noise_std: GPS fix noise standard deviation per axis, metres.
    """

    lengthscale: float = 35000.0
    current_variance: float = 0.5
    gps_noise_std: float = 3.0

    def __post_init__(self):
        positive("lengthscale", self.lengthscale)
        positive("current_variance", self.current_variance)
        non_negative("gps_noise_std", self.gps_noise_std)
        # Input validation only: lags are clipped, so the kernel and its row
        # sums stay finite below this bound too, but a lengthscale whose
        # square is subnormal is no sensible model of a current field.
        if self.lengthscale * self.lengthscale < sys.float_info.min:
            raise ValueError(f"lengthscale {self.lengthscale!r} out of range: "
                             "its square must be a normal float")


class KernelKind(Enum):
    INCOMPRESSIBLE = "incompressible"
    STANDARD_DIAGONAL = "standard_diagonal"


def _kernel_blocks(hp: HyperParams, kind: KernelKind, a: np.ndarray, b: np.ndarray):
    """
    The k11, k12 and k22 covariance blocks between (A, 2) and (B, 2)
    points, as one (3, A, B) array. They are formed in place, so the lags
    and e are the only temporaries: arrays this large can come as fresh
    pages from the OS, each of which faults on first touch. Lags are taken
    in lengthscale units and clipped to +-40, so a far pair's squares stay
    finite and its e, at most exp(-800), is still exactly 0. Each block is
    multiplied by e, which bounds it by 1, before the variance, so the
    product cannot overflow.
    """
    k = np.empty((3, a.shape[0], b.shape[0]))
    k11, k12, k22 = k
    # a lag that overflows to inf clips to 40 like any other far one
    with np.errstate(over="ignore"):
        dx = np.subtract.outer(a[:, 0], b[:, 0])
        dx /= hp.lengthscale
        dy = np.subtract.outer(a[:, 1], b[:, 1])
        dy /= hp.lengthscale
    np.clip(dx, -40.0, 40.0, out=dx)
    np.clip(dy, -40.0, 40.0, out=dy)
    np.multiply(dy, dy, out=k11)
    np.multiply(dx, dx, out=k22)
    np.multiply(dx, dy, out=k12)
    e = k11 + k22
    e *= -0.5
    np.exp(e, out=e)
    s = hp.current_variance
    if kind is KernelKind.STANDARD_DIAGONAL:
        np.multiply(e, s, out=k11)
        k22[...] = k11
        k12[...] = 0.0
        return k
    # s (1 - dy^2) e, s dx dy e and s (1 - dx^2) e
    np.subtract(1.0, k[0::2], out=k[0::2])
    k *= e
    k *= s
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


@functools.cache
def _monomials(order: int):
    """
    The exponents a and b of the F = (K+1)(K+2)/2 monomials x^a y^b with
    a + b <= K = `order`, as two (F,) arrays, and the column (K, 1) of
    sqrt(1), ..., sqrt(K). Each order's tables are built on its first use
    and shared, read-only, by every later call.
    """
    a, b = np.array([(a, n - a) for n in range(order + 1) for a in range(n, -1, -1)]).T
    tables = (a, b, np.sqrt(np.arange(1.0, order + 1))[:, None])
    for table in tables:
        table.flags.writeable = False
    return tables


def _series_order(r2, budget):
    """
    The smallest order K whose remainder bound r2^(K+1) e^r2 / (K+1)! is
    below 2^-53, or None if its F = (K+1)(K+2)/2 monomials are not fewer
    than `budget`. The caller sets the budget by cost: the series forms F
    rows per point where the dense blocks form one entry per pair. A
    non-finite r2, or one whose e^r2 overflows, never meets the bound.
    """
    k, bound = 0, r2 * np.exp(r2)
    while (k + 1) * (k + 2) // 2 < budget:
        if bound < 2.0**-53:
            return k
        k += 1
        bound *= r2 / (k + 1)
    return None


def _centred(p: np.ndarray, centre: np.ndarray, lengthscale: float):
    """The x and y of (n, 2) points about `centre`, in lengthscale units."""
    x, y = (p - centre).T / lengthscale
    return x, y


def _series_rows(x: np.ndarray, y: np.ndarray, order: int) -> np.ndarray:
    """
    The (F, n) rows w x^a y^b / sqrt(a! b!), a + b <= K = `order`, at the
    points (x, y), with w = e^(-(x^2 + y^2) / 2). The w is the y^0 row,
    so every row of a point whose w underflows is exactly 0.
    """
    a, b, scale = _monomials(order)
    xs = np.cumprod(np.vstack([np.ones_like(x), x / scale]), axis=0)
    ys = np.cumprod(np.vstack([np.exp(-0.5 * (x * x + y * y)), y / scale]), axis=0)
    rows = xs[a]
    rows *= ys[b]
    return rows


def _moments(kind: KernelKind, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The moments [1, x, y, x^2, y^2, xy] of the points, or [1] for the diagonal kernel."""
    one = np.ones_like(x)
    if kind is KernelKind.STANDARD_DIAGONAL:
        return one[:, None]
    return np.column_stack([one, x, y, x * x, y * y, x * y])


def _moment_blocks(hp: HyperParams, kind: KernelKind, x, y, sums) -> np.ndarray:
    """
    The (n, 2, 2) block sums sum_j K(p_i, q_j) at the points p_i = (x_i,
    y_i), from the rows of `sums`, sum_j e_ij times the `_moments` of q_j.
    Each incompressible block is a quadratic in the lag times e_ij, so

        sum_j e_ij (y_i - y_j)^2 = y_i^2 m0_i - 2 y_i my_i + myy_i

    and likewise for the other blocks.
    """
    s = hp.current_variance
    if kind is KernelKind.STANDARD_DIAGONAL:
        return s * sums[:, 0, None, None] * np.eye(2)
    m0, mx, my, mxx, myy, mxy = sums.T
    k11 = m0 - (y * y * m0 - 2.0 * y * my + myy)
    k22 = m0 - (x * x * m0 - 2.0 * x * mx + mxx)
    k12 = x * y * m0 - x * my - y * mx + mxy
    return s * np.stack([k11, k12, k12, k22], axis=1).reshape(-1, 2, 2)


@np.errstate(over="ignore", invalid="ignore")
def block_row_sums(hp: HyperParams, kind: KernelKind, pts) -> np.ndarray:
    """
    Block row sums of the covariance of (M, 2) points with themselves.

    Returns an (M, 2, 2) array whose block i is sum_j K(p_i, p_j), the
    covariance of the current at p_i with the sum of all M currents,
    without forming the (2M, 2M) `build_block_matrix(hp, kind, pts, pts)`.

    The points are centred on their centroid and scaled to lengthscale
    units, where e_ij = exp(-|p_i - p_j|^2 / 2) factors as

        e_ij = w_i w_j exp(p_i . p_j),   w = exp(-|p|^2 / 2).

    With r the largest |p|, the series of exp(p_i . p_j) to order K is
    sum_{a+b<=K} x_i^a y_i^b x_j^a y_j^b / (a! b!), and its remainder is
    at most r^(2(K+1)) e^(r^2) / (K+1)!, times w_i w_j <= 1 (the Taylor
    expansion behind the fast Gauss transform, Greengard & Strain 1991).
    K is the smallest order whose bound is below 2^-53. Over the
    F = (K+1)(K+2)/2 rows phi_k = w x^a y^b / sqrt(a! b!), every block
    sum is a quadratic in the point times the e-weighted moments
    phi^T @ (phi @ moments) (`_moment_blocks`): two thin products and no
    (M, M) array. The series runs only when F < M: r = 0.1 needs K = 6
    and F = 28, r = 1 needs K = 18 and F = 190, and r = 2 needs K = 33
    and F = 595. Against the dense sum, each error scaled by its row's
    absolute sum was 1.5e-15 to 6.0e-15 over r = 0.01 to 2 (600 points).
    `cross_sums` runs the same series between a dive and a GP's targets.

    Otherwise, and for a non-finite r, the sums are those of the
    `_kernel_blocks` blocks themselves, taken over row blocks of about
    ROW_SUM_BLOCK_ENTRIES pairs: O(M^2) work, but with the dense kernel's
    one rule for lags, so a coincident pair's e is exactly 1, a far pair's
    exactly 0, and a NaN point makes every row's sums NaN (but for the
    diagonal kernel's cross blocks, which are 0 at any lag).

    At M = 389 on a 7 km leg (r = 0.1) on one BLAS thread (2-core Xeon),
    the incompressible sums took 0.20 ms by the series. The row blocks of
    `_kernel_blocks` took 2.8 ms at that size and 6.4 ms at M = 587.
    """
    p = as_xy(pts)
    return _row_sums(hp, kind, p, *_centred(p, p.sum(axis=0) / max(len(p), 1), hp.lengthscale))


def _row_sums(hp: HyperParams, kind: KernelKind, p: np.ndarray, x, y) -> np.ndarray:
    """`block_row_sums` of the points p, given their centred coordinates x and y."""
    m = p.shape[0]
    order = _series_order((x * x + y * y).max(initial=0.0), m)
    if order is None:
        k = np.empty((3, m))
        rows = max(1, ROW_SUM_BLOCK_ENTRIES // max(m, 1))
        for i in range(0, m, rows):
            k[:, i : i + rows] = _kernel_blocks(hp, kind, p[i : i + rows], p).sum(axis=2)
        k11, k12, k22 = k
        return np.stack([k11, k12, k12, k22], axis=1).reshape(-1, 2, 2)
    phi = _series_rows(x, y, order)
    return _moment_blocks(hp, kind, x, y, phi.T @ (phi @ _moments(kind, x, y)))


@np.errstate(over="ignore", invalid="ignore")
def cross_sums(hp: HyperParams, kind: KernelKind, pts, targets):
    """
    The kernel sums a GP needs for the covariance of each of (M, 2)
    points with the sum of their currents, given (N, 2) targets t.

    Returns (prior, sums, times_t): prior is `block_row_sums(hp, kind,
    pts)`, sums the (N, 2, 2) blocks sum_j K(t_i, p_j), and times_t(rhs)
    maps an (N, 2, c) array to the (M, 2, c) array sum_i K(p_j, t_i) rhs_i.

    The series of `block_row_sums`, centred on the points' centroid, also
    serves the pairs of a point and a target: exp(t_i . p_j) has the same
    expansion, and with r_p and r_t the largest centred |p| and |t| in
    lengthscale units, the order K comes from the bound on
    r_p max(r_p, r_t), which covers both. It runs when its F monomials
    number fewer than N M / (N + M), so that F (N + M) rows cost less than
    the N M pairs of the dense blocks. Then every sum goes through thin
    products with the two sets' rows and no (N, M) array is formed: the
    prior and `sums` from the points' moments (`_moment_blocks`), and
    times_t from the target-side columns (1 - b^2) u + ab v,
    ab u + (1 - a^2) v, u, au, bu, v, av and bv at each target (a, b),
    recombined with the points' x and y. Otherwise, for a non-finite
    point, and for no targets, the sums come from the `_kernel_blocks`
    blocks.
    """
    p, t = as_xy(pts), as_xy(targets)
    m, n = p.shape[0], t.shape[0]
    centre = p.sum(axis=0) / max(m, 1)
    x, y = _centred(p, centre, hp.lengthscale)
    rp2 = (x * x + y * y).max(initial=0.0)
    budget = n * m / max(n + m, 1)
    # r_p^2 <= r_p max(r_p, r_t), so the points' own order is a lower bound
    order = _series_order(rp2, budget)
    if order is not None:
        # Clipped as `_kernel_blocks` clips lags: past 38.6 units w is
        # exactly 0, clipped or not, and clipped coordinates keep every
        # monomial of the target rows and columns finite.
        a, b = np.clip(_centred(t, centre, hp.lengthscale), -40.0, 40.0)
        order = _series_order(np.sqrt(rp2 * np.maximum(rp2, (a * a + b * b).max(initial=0.0))), budget)
    if order is None:
        # The prior first, before the (N, M) blocks exist: with both alive
        # the heap outgrew glibc's trim threshold, and at N = 13, M = 587
        # every later prior faulted 86 pages instead of none.
        prior = _row_sums(hp, kind, p, x, y)
        k11, k12, k22 = k = _kernel_blocks(hp, kind, t, p)  # each (N, M)
        s11, s12, s22 = k.sum(axis=2)

        def times_t(rhs):
            u, v = rhs[:, 0], rhs[:, 1]
            return np.stack([k11.T @ u + k12.T @ v, k12.T @ u + k22.T @ v], axis=1)

        return prior, np.stack([s11, s12, s12, s22], axis=1).reshape(-1, 2, 2), times_t
    phi_p, phi_t = _series_rows(x, y, order), _series_rows(a, b, order)
    inner = phi_p @ _moments(kind, x, y)
    prior = _moment_blocks(hp, kind, x, y, phi_p.T @ inner)
    sums = _moment_blocks(hp, kind, a, b, phi_t.T @ inner)

    def times_t(rhs):
        u, v = rhs[:, 0], rhs[:, 1]  # each (N, c)
        if kind is KernelKind.STANDARD_DIAGONAL:
            cols = [u, v]
        else:
            ta, tb = a[:, None], b[:, None]
            cols = [(1.0 - tb * tb) * u + ta * tb * v, ta * tb * u + (1.0 - ta * ta) * v,
                    u, ta * u, tb * u, v, ta * v, tb * v]
        g = np.stack(cols, axis=1).reshape(n, -1)
        s = (phi_p.T @ (phi_t @ g)).reshape(m, len(cols), -1)
        s *= hp.current_variance
        if kind is KernelKind.STANDARD_DIAGONAL:
            return s
        c0, c1, su, sau, sbu, sv, sav, sbv = s.transpose(1, 0, 2)
        px, py = x[:, None], y[:, None]
        out0 = c0 + py * (2.0 * sbu - py * su - sav) - px * (sbv - py * sv)
        out1 = c1 - py * sau + px * (py * su - sbu + 2.0 * sav - px * sv)
        return np.stack([out0, out1], axis=1)

    return prior, sums, times_t
