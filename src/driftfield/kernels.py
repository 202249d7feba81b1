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

# The cost of one (target, point) pair of the dense blocks in units of one
# point's monomial row of the series, as `cross_sums` compares its paths.
# A pair takes an exp and six passes over (N, M) arrays. Timed on both
# paths (1 BLAS thread, 2-core Xeon) over 100 geometries per kernel, N 1
# to 300, M 20 to 400 and F 21 to 595: at 3 the chosen path's total was
# 2.5% (incompressible) and 1.0% (diagonal) above the faster path's, at 2
# 3.5% and 4.8%, at 4 5.8% and 1.7%.
SERIES_COST_RATIO = 3.0


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
    rows per point where the dense blocks form one entry per pair.
    `block_row_sums` takes it when F < M; `cross_sums` when F (N + M) is
    below what the dense fallback costs in the same units (see there). A
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
    m = p.shape[0]
    x, y = _centred(p, p.sum(axis=0) / max(m, 1), hp.lengthscale)
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
    The kernel sums behind the posterior of the summed currents at (M, 2)
    points P, given a GP's (N, 2) targets T.

    Returns (total, ksum, apply): total is the 2x2 prior covariance of the
    sum, 1^T K(P, P) 1 with 1 the (2M, 2) stack of identities; ksum is the
    (2N, 2) K(T, P) 1, whose rows 2i and 2i + 1 are sum_j K(t_i, p_j); and
    apply(c, v) maps a (2N,) vector c and a 2-vector v to the (M, 2) array
    K(P, T) c + K(P, P) (1 v), whose row j is
    sum_i K(p_j, t_i) c_i + sum_i K(p_j, p_i) v.

    The series of `block_row_sums`, centred on the points' centroid, also
    serves the pairs of a point and a target: exp(t_i . p_j) has the same
    expansion, and with r_p and r_t the largest centred |p| and |t| in
    lengthscale units, the order K comes from the bound on
    r_p max(r_p, r_t), which covers both. Its F monomial rows over N + M
    points are priced against the dense fallback, whose N M pairs cost
    SERIES_COST_RATIO = 3 rows each and whose `block_row_sums` of the
    points costs F_p M rows by their own series, or 3 M^2 without it:

        F (N + M) < 3 N M + F_p M   (or 3 N M + 3 M^2).

    A dive then takes the series unless its targets lie far enough out to
    raise F well above F_p. Against the rule F (N + M) < N M it replaced,
    the M-steps on the dense path fell from 35 to 2 of survey's 59 (the
    two with no targets yet), from 12 to 2 of long_mission's 296 and from
    100 to 10 of study's 100, one pass each.

    On the series path nothing is formed per pair: ksum comes from the
    points' moments (`_moment_blocks`), total from their 6x6 moment Gram
    matrix, and apply from one product of the points' rows with F rows of
    8 columns. Those are the target rows times the target-side columns
    (1 - b^2) u + ab v, ab u + (1 - a^2) v, u, au, bu, v, av and bv of
    c = (u, v) at each target (a, b), plus the points' moments times the
    same columns of the constant weight v, recombined with the points' x
    and y. Otherwise, for a non-finite point, and for no targets, the
    sums come from the `_kernel_blocks` blocks and the points'
    `block_row_sums`.
    """
    p, t = as_xy(pts), as_xy(targets)
    m, n = p.shape[0], t.shape[0]
    centre = p.sum(axis=0) / max(m, 1)
    x, y = _centred(p, centre, hp.lengthscale)
    rp2 = (x * x + y * y).max(initial=0.0)
    order = None
    if n:
        # the fallback's `block_row_sums`: F_p rows per point, or M pairs
        k = _series_order(rp2, m)
        prior_cost = SERIES_COST_RATIO * m * m if k is None else (k + 1) * (k + 2) // 2 * m
        # Clipped as `_kernel_blocks` clips lags: past 38.6 units w is
        # exactly 0, clipped or not, and clipped coordinates keep every
        # monomial of the target rows and columns finite.
        a, b = np.clip(_centred(t, centre, hp.lengthscale), -40.0, 40.0)
        order = _series_order(np.sqrt(rp2 * np.maximum(rp2, (a * a + b * b).max())),
                              (SERIES_COST_RATIO * n * m + prior_cost) / (n + m))
    if order is None:
        # The prior first, before the (N, M) blocks exist: with both alive
        # the heap outgrew glibc's trim threshold, and at N = 13, M = 587
        # every later prior faulted 86 pages instead of none.
        prior = block_row_sums(hp, kind, p)
        k11, k12, k22 = k = _kernel_blocks(hp, kind, t, p)  # each (N, M)
        s11, s12, s22 = k.sum(axis=2)

        def apply(c, v):
            u, w = c[0::2], c[1::2]
            out = np.column_stack([u @ k11 + w @ k12, u @ k12 + w @ k22])
            out += prior @ v
            return out

        return prior.sum(axis=0), np.stack([s11, s12, s12, s22], axis=1).reshape(-1, 2), apply
    s = hp.current_variance
    phi_p, phi_t = _series_rows(x, y, order), _series_rows(a, b, order)
    inner = phi_p @ _moments(kind, x, y)
    ksum = _moment_blocks(hp, kind, a, b, phi_t.T @ inner).reshape(-1, 2)
    g = inner.T @ inner  # sum_i of the moments of p_i times sum_j e_ij moments of p_j
    if kind is KernelKind.STANDARD_DIAGONAL:

        def apply(c, v):
            return s * (phi_p.T @ (phi_t @ c.reshape(-1, 2) + inner @ v[None]))

        return s * g[0, 0] * np.eye(2), ksum, apply
    # `_moment_blocks` summed over the points: with the moments indexed
    # 1, x, y, x^2, y^2, xy as 0-5, sum_i y_i^2 m0_i is g[4, 0], and so on
    t12 = 2.0 * (g[0, 5] - g[1, 2])
    total = s * np.array([[g[0, 0] + 2.0 * (g[2, 2] - g[0, 4]), t12],
                          [t12, g[0, 0] + 2.0 * (g[1, 1] - g[0, 3])]])

    def apply(c, v):
        u, w = c[0::2], c[1::2]
        cols = np.column_stack([(1.0 - b * b) * u + a * b * w, a * b * u + (1.0 - a * a) * w,
                                u, a * u, b * u, w, a * w, b * w])
        # The same eight columns of the constant weight v at every point,
        # as combinations of the point's moments 1, x, y, x^2, y^2 and xy.
        v0, v1 = v
        moment_cols = np.array([
            [v0, v1, v0, 0.0, 0.0, v1, 0.0, 0.0],
            [0.0, 0.0, 0.0, v0, 0.0, 0.0, v1, 0.0],
            [0.0, 0.0, 0.0, 0.0, v0, 0.0, 0.0, v1],
            [0.0, -v1, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [-v0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [v1, v0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        ])
        c0, c1, su, sau, sbu, sv, sav, sbv = s * (phi_p.T @ (phi_t @ cols + inner @ moment_cols)).T
        out0 = c0 + y * (2.0 * sbu - sav - y * su) - x * (sbv - y * sv)
        out1 = c1 - y * sau + x * (y * su - sbu + 2.0 * sav - x * sv)
        return np.column_stack([out0, out1])

    return total, ksum, apply
