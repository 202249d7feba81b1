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

Both kernels are also covariances of explicit features: about a centre,
the Taylor series of the Gaussian makes g a sum of products of the rows
w x^a y^b / sqrt(a! b!) (`_series_rows`), and the incompressible
features are their rotated gradients (`_curl_maps`), to the order that
`_feature_order` sets for a radius. A dive's kernel sums (`cross_sums`)
and the GP's weight-space form (`gp._WeightSpace`) use these same
features.
"""

from __future__ import annotations

import functools
import math
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
# point's row of the series, as `cross_sums` compares its paths. A pair
# takes an exp and six passes over (N, M) arrays. Timed on both paths (1
# BLAS thread, 2-core Xeon) over 100 geometries per kernel, N 1 to 300, M
# 20 to 400 and F 21 to 595 rows, the chosen path's total was above the
# faster path's by 1.5-3.0% (incompressible) and 2.2-12% (diagonal) at 4,
# 1.5-4.4% and 1.5-2.7% at 5, and 1.3-7.1% and 0.2-2.3% at 6 (four runs).
# The incompressible kernel alone would take 4: its series also applies
# the (2, F, F1) `_curl_maps`, F F1 work per product that the rule leaves
# out and that tells from a few hundred rows on. The 259 M-steps of one
# pass of each GP benchmark workload all take the series at 5 (orders 4
# to 10), within 0.1% of the faster path's total, and 3 chose within 0.8%.
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


def _feature_order(kind: KernelKind, r2: float, budget: float):
    """
    The smallest order K whose F = (K+1)(K+2)/2 features reproduce `kind`'s
    kernel within 2^-53 sigma^2 between points p and q within r_p and r_q
    lengthscales of the centre, r_p <= r_q, with r2 = r_p r_q (r_p^2 for
    a disc, where r_p = r_q), or None if F exceeds `budget`. With
    t = p . q, |t| <= r2, and R_n(t) the remainder of exp(t) beyond degree
    n, at most B_n = r2^(n+1) e^r2 / (n+1)!, the diagonal kernel is off by
    w_p w_q R_K(t) <= B_K. The incompressible blocks are second derivatives
    of w_p w_q R_K(t), and since R_n' = R_(n-1),

        d2/dy_p dy_q = w_p w_q (y_p y_q R_K - (y_p^2 + y_q^2 - 1) R_(K-1) + y_p y_q R_(K-2)),
        d2/dx_p dy_q = w_p w_q (x_p y_q R_K - (x_p y_p + x_q y_q) R_(K-1) + y_p x_q R_(K-2)),

    and likewise for the rest. A product of a p and a q coordinate is at
    most r2. The factors of R_(K-1) hold q's own squares, which may reach
    r_q^2 > r2, but w_q y_q^2 <= 2/e, w_q |x_q y_q| <= 1/e and
    r_p^2 <= r2, so |y_p^2 + y_q^2 - 1| w_q <= 1 + r2 and
    |x_p y_p + x_q y_q| w_q <= r2 / 2 + 1/e. Every block is then off by at
    most r2 B_K + (1 + 2 r2) B_(K-1) + r2 B_(K-2), with B_n = e^r2 for
    n < 0: the bound a disc gives too, where |y_p^2 + y_q^2 - 1| <= 1 + 2 r2
    without w_q. Python floats, which overflow to inf silently; a
    non-finite r2 never meets the bound.
    """
    r2 = float(r2)
    e = math.exp(r2) if r2 < 700.0 else math.inf
    b = [e, e]  # B_(k-2) and B_(k-1)
    k = 0
    while (k + 1) * (k + 2) // 2 <= budget:
        b.append(b[-1] * r2 / (k + 1) if k else r2 * e)  # B_k
        if kind is KernelKind.STANDARD_DIAGONAL:
            bound = b[-1]
        else:
            bound = r2 * (b[-1] + b[-3]) + (1.0 + 2.0 * r2) * b[-2]
        if bound < 2.0**-53:
            return k
        k += 1
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


@functools.lru_cache(maxsize=None)
def _curl_maps(order: int) -> np.ndarray:
    """
    The (2, F, F1) maps from the F1 rows of `_series_rows` at order K + 1
    to the unit incompressible features of order K: d(psi_k)/dy and
    -d(psi_k)/dx for each of the F rows psi_k = psi_(a,b) of order K.
    With psi_(a,b) = w x^a y^b / sqrt(a! b!) and w = e^(-(x^2 + y^2) / 2),

        d(psi_(a,b))/dx = sqrt(a) psi_(a-1,b) - sqrt(a+1) psi_(a+1,b),

    and likewise in y, so each feature is two rows of one degree more.
    Each order's maps are built once and kept, 16 F F1 bytes (58 KB at
    order 9, 8.3 MB at order 36), read-only since every caller shares
    them: building them takes about 27 us at order 8, and building them
    afresh at every call made survey's and long_mission's `cross_sums`
    calls 20-35% slower (1 BLAS thread).
    """
    d = np.repeat(np.arange(order + 1), np.arange(1, order + 2))  # each row's degree
    k = np.arange(len(d))
    b = k - d * (d + 1) // 2
    a = d - b
    # the rows of psi_(a-1,b) and psi_(a+1,b); psi_(a,b-1) and psi_(a,b+1) are at down - 1 and up + 1
    down, up = k - d, k + d + 1
    maps = np.zeros((2, len(k), (order + 2) * (order + 3) // 2))
    maps[0, k, up + 1] = -np.sqrt(b + 1)
    maps[1, k, up] = np.sqrt(a + 1)
    maps[0, k[b > 0], down[b > 0] - 1] = np.sqrt(b[b > 0])
    maps[1, k[a > 0], down[a > 0]] = -np.sqrt(a[a > 0])
    maps.flags.writeable = False
    return maps


def _series_sums(hp: HyperParams, kind: KernelKind, q: np.ndarray, m: int, order: int):
    """
    `cross_sums`' (total, ksum, apply) for the centred coordinates q, a
    (2, M + N) array whose first m columns are the points (x, y) and the
    rest the targets, on the kernel's features of order `order` about the
    centre, those of `gp._WeightSpace`. One `_series_rows` call builds the
    rows of both, and the points' and the targets' rows phi_p and phi_t
    are its first M and last N columns. The incompressible kernel's
    features are D phi, with phi the rows of order K + 1 and D the two
    unit `_curl_maps` D_u and D_v. With a_u and a_v the points' summed
    features D_u phi_p 1 and D_v phi_p 1, and s the current variance,
    nothing is formed per pair or per point:

        total = s [a_u, a_v]^T [a_u, a_v],
        ksum's rows at a target: s phi_t^T [D_u^T a_u, D_u^T a_v; D_v^T a_u, D_v^T a_v],
        apply(c, v) = s phi_p^T [D_u^T z, D_v^T z],
        z = D_u phi_t c_u + D_v phi_t c_v + a_u v_u + a_v v_v,

    so K(P, T) c + K(P, P) (1 v) is applied through one F-vector z of
    streamfunction weights. The diagonal kernel's features are the rows
    of order K themselves, for u and for v, so its sums are the same
    products with the identity for D and separate u and v weights.
    """
    s = hp.current_variance
    curl = kind is KernelKind.INCOMPRESSIBLE
    rows = _series_rows(q[0], q[1], order + curl)
    phi_p, phi_t = rows[:, :m], rows[:, m:]
    a = phi_p.sum(axis=1)
    if not curl:

        def apply(c, v):
            return s * (phi_p.T @ (phi_t @ c.reshape(-1, 2) + np.multiply.outer(a, v)))

        ksum = s * (phi_t.T @ a)[:, None, None] * np.eye(2)
        return s * (a @ a) * np.eye(2), ksum.reshape(-1, 2), apply
    maps = _curl_maps(order)
    a = maps @ a  # (2, F): a_u and a_v
    ta = a @ maps  # (2, 2, F1): D_c^T a_d in [c, d]
    ksum = s * (phi_t.T @ ta.reshape(4, -1).T).reshape(-1, 2)

    def apply(c, v):
        w = phi_t @ c.reshape(-1, 2)
        z = maps[0] @ w[:, 0] + maps[1] @ w[:, 1] + v @ a
        return s * (phi_p.T @ (z @ maps).T)

    return s * (a @ a.T), ksum, apply


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

    for q_i a point or a target. The series of exp(q_i . p_j) to order K
    makes e_ij the sum over the (K+1)(K+2)/2 rows psi_(a,b) = w x^a y^b /
    sqrt(a! b!), a + b <= K, of psi(q_i) psi(p_j) (the Taylor expansion
    behind the fast Gauss transform, Greengard & Strain 1991, taken as
    explicit features by Cotter, Keshet & Srebro 2011). So each kernel is
    a covariance of features, those of `gp._WeightSpace`: the rows
    themselves for the diagonal kernel, and their rotated gradients for
    the incompressible one, each two rows of order K + 1 (`_curl_maps`).
    With r_p and r_t the largest |p| and |t|, K is `_feature_order` at
    r^2 = r_p max(r_p, r_t), the smallest order whose bound on the error
    is below 2^-53 sigma^2. F counts the rows built, (K+1)(K+2)/2 for the
    diagonal kernel and (K+2)(K+3)/2 for the incompressible one: r = 0.1
    needs F = 28 and 45 (K = 6 and 7), r = 1 needs 190 and 253 (K = 18
    and 20), and r = 2 needs 595 and 741 (K = 33 and 36). Against the
    dense sums of 600 points with themselves, each error scaled by its
    row's absolute sum was 8e-16 to 3.5e-15 over r = 0.01 to 2, for both
    kernels. The points' and the targets' coordinates are one (2, M + N)
    array, and one `_series_rows` call builds the rows of both, by
    in-place products of preallocated power tables; the points' and the
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
    A single point is its own centroid, but the incompressible features
    exact there are of order 1, six rows against its one pair's 5, so it
    takes the dense path, where the diagonal kernel's one row of order 0
    takes the series.

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
    curl = kind is KernelKind.INCOMPRESSIBLE

    def series(r2, budget):
        # the features' order at r2 and the rows it builds per point; the
        # order is None if those exceed the budget
        k = _feature_order(kind, r2, budget)
        f = math.inf if k is None else (k + 1 + curl) * (k + 2 + curl) // 2
        return (k, f) if f <= budget else (None, f)

    own, f_p = series(rp2, m)
    own_cost = SERIES_COST_RATIO * m * m if own is None else f_p * m
    order, _ = series(np.sqrt(rp2 * np.maximum(rp2, r2[m:].max(initial=0.0))),
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
