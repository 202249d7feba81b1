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

import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from driftfield.flowfield import as_xy, non_negative, positive

__all__ = [
    "HyperParams",
    "KernelKind",
    "build_block_matrix",
    "cross_sums",
]

# Pairs per row block when `cross_sums` sums a dive's own `_kernel_blocks`
# (a dive too wide for its own series), which bounds those temporaries: six
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
# to 300, M 20 to 400 and F 21 to 595, with each row product on
# positive strides (see `_series_rows`), the chosen path's total was
# above the faster path's by 2.9-3.0% (incompressible) and 8.6-8.9%
# (diagonal) at 3, 0.6-0.8% and 2.8-3.0% at 4, and 0.2-0.3% and
# 0.9-1.1% at 5 and at 6 (two runs). With the cumulative-product rows,
# whose rows cost more, the best was 3-4 (0.9%) and 5-6 (0.2%). On the
# M-steps of one pass of each GP benchmark workload, 5 chose within 0.1%
# of the faster path's total and 3 within 1.1%.
SERIES_COST_RATIO = 5.0


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


def _series_order(r2, budget):
    """
    The smallest order K whose remainder bound r2^(K+1) e^r2 / (K+1)! is
    below 2^-53, or None if its F = (K+1)(K+2)/2 monomials exceed
    `budget`. The caller sets the budget by cost: the series forms F rows
    per point where the dense blocks form one entry per pair. `cross_sums`
    asks twice: for a dive's own series, with budget M, and for the joint
    series of the dive and the targets, with F (N + M) at most what the
    dense fallback costs in the same units (see there). A non-finite r2,
    or one whose e^r2 overflows, never meets the bound.
    """
    k, bound = 0, r2 * np.exp(r2)
    while (k + 1) * (k + 2) // 2 <= budget:
        if bound < 2.0**-53:
            return k
        k += 1
        bound *= r2 / (k + 1)
    return None


def _series_rows(x: np.ndarray, y: np.ndarray, order: int) -> np.ndarray:
    """
    The (F, n) rows w x^a y^b / sqrt(a! b!), a + b <= K = `order`, at the
    points (x, y), with w = e^(-(x^2 + y^2) / 2), in degree order: row
    d (d + 1) / 2 + j is the one with a = d - j and b = j. The power
    tables fill one preallocated (2, K + 1, n) array: x^k / sqrt(k!) in
    row K - k of the first, from the top down, and w y^k / sqrt(k!) in row
    k of the second. Each power row starts as x / sqrt(k) (y / sqrt(k))
    and is multiplied in place by the power k - 1 row, as rounded as a
    cumulative product's. The d + 1 rows of degree d are then one product
    of the first table's last d + 1 rows with the second's first d + 1,
    both with positive strides (a reversed slice took about 30% longer),
    written into the output. w is the y^0 row, so every row of a point
    whose w underflows is exactly 0.
    """
    scale = np.sqrt(np.arange(1.0, order + 1))
    tx, ty = np.empty((2, order + 1, x.shape[0]))
    tx[order], ty[0] = 1.0, np.exp(-0.5 * (x * x + y * y))
    np.divide(x, scale[::-1, None], out=tx[:order])
    np.divide(y, scale[:, None], out=ty[1:])
    rows = np.empty(((order + 1) * (order + 2) // 2, x.shape[0]))
    rows[0] = ty[0]
    for d in range(1, order + 1):
        tx[order - d] *= tx[order - d + 1]
        ty[d] *= ty[d - 1]
        np.multiply(tx[order - d :], ty[: d + 1], out=rows[d * (d + 1) // 2 : (d + 1) * (d + 2) // 2])
    return rows


def _columns(moments: np.ndarray, w: np.ndarray) -> np.ndarray:
    """
    The (8, n) columns of the (2, n) weights w = (u, v) at n points (a, b)
    with the (6, n) `moments` [1, a, b, a^2, b^2, ab], in pairs:
    ((1 - b^2) u + ab v, (1 - a^2) v + ab u), (2bu - av, 2av - bu),
    (bv, au) and (u, v). Each is linear in the moments, so the moments
    summed over points against a constant w give the columns summed too.
    """
    w0, w_r, p_r = w * moments[0], w[::-1], moments[2:0:-1]
    bu = w * p_r  # (bu, av)
    return np.concatenate([w0 - w * moments[4:2:-1] + w_r * moments[5], 2.0 * bu - bu[::-1], w_r * p_r, w0])


def _moment_blocks(hp: HyperParams, kind: KernelKind, moments, sums) -> np.ndarray:
    """
    The (2n, 2) block sums sum_j K(p_i, q_j) at the points p_i = (x_i,
    y_i), rows 2i and 2i + 1 for p_i, from their (6, n) `moments` [1, x,
    y, x^2, y^2, xy] and the rows of `sums`, sum_j e_ij times the same
    moments of q_j. Each incompressible block is a quadratic in the lag
    times e_ij, so

        sum_j e_ij (y_i - y_j)^2 = y_i^2 m0_i - 2 y_i my_i + myy_i

    and likewise for the other blocks.
    """
    s = hp.current_variance
    if kind is KernelKind.STANDARD_DIAGONAL:
        return (s * sums[:, 0, None, None] * np.eye(2)).reshape(-1, 2)
    m0, mx, my, mxx, myy, mxy = sums.T
    _, x, y, xx, yy, xy = moments
    k11 = m0 - (yy * m0 - 2.0 * y * my + myy)
    k22 = m0 - (xx * m0 - 2.0 * x * mx + mxx)
    k12 = xy * m0 - x * my - y * mx + mxy
    return (s * np.array([k11, k12, k12, k22])).T.reshape(-1, 2)


def _series_sums(hp: HyperParams, kind: KernelKind, q: np.ndarray, m: int, order: int):
    """
    `cross_sums`' (total, ksum, apply) for the centred coordinates q, a
    (2, M + N) array whose first m columns are the points (x, y) and the
    rest the targets, by the series of order `order`. One `_series_rows`
    call builds the rows of both, and the points' and the targets' rows
    are its first M and last N columns. Nothing is formed per pair: ksum
    comes from the points' moments (`_moment_blocks`), total from their
    6x6 moment Gram matrix, and apply from one product of the points' rows
    with F rows of the 8 `_columns`: those of c at the targets times the
    target rows, plus those of the constant weight v at the points, from
    the points' moment sums. Expanding each incompressible block in the
    point's x and y, with S_k the product for column k, a point's two
    outputs are

        S_0 + y S_2 - x S_4 - y^2 S_6 + xy S_7
        S_1 + x S_3 - y S_5 - x^2 S_7 + xy S_6,

    one (2, M) operation per pair of columns.
    """
    s = hp.current_variance
    rows = _series_rows(*q, order)
    phi_p, phi_t = rows[:, :m], rows[:, m:]
    moments = np.concatenate([np.ones((1, q.shape[1])), q, q * q, q[:1] * q[1:]])
    mp, mt = moments[:, :m], moments[:, m:]
    inner = phi_p @ mp[: 1 if kind is KernelKind.STANDARD_DIAGONAL else 6].T
    ksum = _moment_blocks(hp, kind, mt, phi_t.T @ inner)
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
        # one `_columns` call: v at the points' F moment sums, c at the targets
        f = len(inner)
        cols = _columns(np.concatenate([inner.T, mt], axis=1),
                        np.concatenate([np.repeat(v[:, None], f, axis=1), c.reshape(-1, 2).T], axis=1))
        sums = (s * (cols[:, :f].T + phi_t @ cols[:, f:].T)).T @ phi_p
        out = mp[5] * sums[7:5:-1] - mp[4:2:-1] * sums[6:] + mp[2:0:-1] * sums[2:4] - mp[1:3] * sums[4:6]
        out += sums[:2]
        return out.T

    return total, ksum, apply


@np.errstate(over="ignore", invalid="ignore")
def cross_sums(hp: HyperParams, kind: KernelKind, pts, targets):
    """
    The kernel sums behind the posterior of the summed currents at (M, 2)
    points P, given a GP's (N, 2) targets T, N >= 0.

    Returns (total, ksum, apply): total is the 2x2 prior covariance of the
    sum, 1^T K(P, P) 1 with 1 the (2M, 2) stack of identities; ksum is the
    (2N, 2) K(T, P) 1, whose rows 2i and 2i + 1 are sum_j K(t_i, p_j); and
    apply(c, v) maps a (2N,) vector c and a 2-vector v to the (M, 2) array
    K(P, T) c + K(P, P) (1 v), whose row j is
    sum_i K(p_j, t_i) c_i + sum_i K(p_j, p_i) v.

    Points and targets are centred on the points' centroid and scaled to
    lengthscale units, where e_ij = exp(-|q_i - p_j|^2 / 2) factors as

        e_ij = w_i w_j exp(q_i . p_j),   w = exp(-|q|^2 / 2),

    for q_i a point or a target. With r_p and r_t the largest |p| and |t|
    and r^2 = r_p max(r_p, r_t), the series of exp(q_i . p_j) to order K is
    sum_{a+b<=K} x_i^a y_i^b x_j^a y_j^b / (a! b!), and its remainder is at
    most r^(2(K+1)) e^(r^2) / (K+1)!, times w_i w_j <= 1 (the Taylor
    expansion behind the fast Gauss transform, Greengard & Strain 1991).
    K is the smallest order whose bound is below 2^-53, over F =
    (K+1)(K+2)/2 rows phi_k = w x^a y^b / sqrt(a! b!): r = 0.1 needs K = 6
    and F = 28, r = 1 needs K = 18 and F = 190, and r = 2 needs K = 33 and
    F = 595. Against the dense sums of 600 points with themselves, each
    error scaled by its row's absolute sum was 1.5e-15 to 6.0e-15 over
    r = 0.01 to 2. The points' and the targets' coordinates are one
    (2, M + N) array, and one `_series_rows` call builds the rows of both,
    by in-place products of preallocated power tables; the points' and the
    targets' rows are column slices of that one (F, M + N) array.

    The series' F rows over N + M points are priced against the dense
    fallback, whose N M pairs cost SERIES_COST_RATIO = 5 rows each and
    whose sums of the points with themselves cost P = F_p M rows by the
    points' own series (order K_p from r_p alone, taken when F_p <= M),
    or 5 M^2 without it. `_series_sums` runs iff

        F (N + M) <= 5 N M + P.

    With no targets that is the points' own series whenever F_p <= M,
    and the series of a wider set when F <= 5 M. A dive with targets takes
    the series unless they lie far enough out to raise F well above F_p.

    Otherwise, and for a non-finite point, ksum and apply's K(P, T) c come
    from the (N, M) `_kernel_blocks`, and the points' own sums from
    `_series_sums` with no targets at order K_p or, too wide for that,
    from their `_kernel_blocks` with themselves over row blocks of about
    ROW_SUM_BLOCK_ENTRIES pairs: O(M^2) work, but with the dense kernel's
    one rule for lags, so a coincident pair's e is exactly 1, a far pair's
    exactly 0, and a NaN point makes every sum NaN (but for the diagonal
    kernel's cross terms, which are 0 at any lag).
    """
    p, t = as_xy(pts), as_xy(targets)
    m, n = p.shape[0], t.shape[0]
    # the points' and then the targets' x and y about the points'
    # centroid, in lengthscale units
    q = np.concatenate([p.T, t.T], axis=1)
    q -= q[:, :m].sum(axis=1, keepdims=True) / max(m, 1)
    q /= hp.lengthscale
    # Clipped as `_kernel_blocks` clips lags: past 38.6 units w is exactly
    # 0, clipped or not, and clipped coordinates keep every monomial of the
    # target rows and columns finite.
    np.clip(q[:, m:], -40.0, 40.0, out=q[:, m:])
    r2 = q[0] * q[0] + q[1] * q[1]
    rp2 = r2[:m].max(initial=0.0)
    own = _series_order(rp2, m)
    own_cost = SERIES_COST_RATIO * m * m if own is None else (own + 1) * (own + 2) // 2 * m
    order = _series_order(np.sqrt(rp2 * np.maximum(rp2, r2[m:].max(initial=0.0))),
                          (SERIES_COST_RATIO * n * m + own_cost) / max(n + m, 1))
    if order is not None:
        return _series_sums(hp, kind, q, m, order)
    # The points' own sums first, before the (N, M) blocks exist: with both
    # alive the heap outgrew glibc's trim threshold, and at N = 13, M = 587
    # every later prior faulted 86 pages instead of none.
    if own is None:
        r = np.empty((3, m))
        rows = max(1, ROW_SUM_BLOCK_ENTRIES // max(m, 1))
        for i in range(0, m, rows):
            r[:, i : i + rows] = _kernel_blocks(hp, kind, p[i : i + rows], p).sum(axis=2)
        r11, r12, r22 = r
        t11, t12, t22 = r.sum(axis=1)
        total = np.array([[t11, t12], [t12, t22]])

        def own_apply(c, v):
            return np.column_stack([r11 * v[0] + r12 * v[1], r12 * v[0] + r22 * v[1]])
    else:
        total, _, own_apply = _series_sums(hp, kind, q[:, :m], m, own)

    k11, k12, k22 = k = _kernel_blocks(hp, kind, t, p)  # each (N, M)
    s11, s12, s22 = k.sum(axis=2)

    def apply(c, v):
        u, w = c[0::2], c[1::2]
        out = np.column_stack([u @ k11 + w @ k12, u @ k12 + w @ k22])
        out += own_apply(c[:0], v)  # K(P, P) (1 v), with no targets
        return out

    return total, np.array([s11, s12, s12, s22]).T.reshape(-1, 2), apply
