"""
Gaussian process regression on current observations.

A `GpModel` holds pseudo-targets (position, current) pairs and the fixed
hyperparameters, and predicts the posterior current at query points.
Targets carry a small fixed noise floor so repeated conditioning at the
same location stays well posed. Each model keeps R = L^-1, the inverse
of the lower Cholesky factor L of its training covariance K, and reuses
it across predictions: L^-1 b = R b and K^-1 b = R^T (R b) are matrix
products, so numpy alone serves, with no triangular solve. Models are
immutable: conditioning on new targets returns a new model whose R is
the parent's grown block by block (block Cholesky, Golub & Van Loan,
*Matrix Computations*, section 4.2), so appending n targets to N costs
O(N^2 n) instead of a fresh O(N^3) factorisation. For the old targets
(1) and a block of new ones (2):

    R = [R11   0 ]    Z = R11 K12,   G = R11^T Z = K11^-1 K12,
        [R21  R22]    L22 L22^T = K22 - Z^T Z,
                      R22 = L22^-1,  R21 = -R22 G^T.

An append leaves R11 as it is and only adds rows below it, so R is
stored as a tuple of read-only row blocks R[i:j, :j], each holding the
non-zero prefix of its rows, and a child shares every full block of its
parent. Only the last block may hold fewer than GROW_BLOCK_TARGETS
targets; an append extends it into a new array with the new rows and
leaves the parent's block as it was, so a parent may be appended to any
number of times and no append copies the whole factor.

The weights alpha = K^-1 y = R^T z, z = R y, grow with R. The old rows
of R never change, so neither does the old part of z, and the new rows
R2 = R[2N_old:, :] extend both: z2 = R2 y, and alpha, padded with
zeros, gains R2^T z2. An append then reads only its new rows of R,
O(N n) work, where a fresh solve reads all of them.

R is stored rather than K^-1 = R^T R. R's condition number is the
square root of K's, and products with it stay within the cond(K) * eps
tolerances the dense-factor tests set for triangular solves. An explicit
K^-1 updated by Schur complements did not: it missed the mission
oracle's tolerance (3e-7 against 100 cond(K) eps) and two estimator
tests.

A mission's model has a second form, the same GP in weight space
(`_WeightSpace`): a Bayesian linear model on the F Taylor features of
the Gaussian about one centre, exact to rounding within a radius; the
features, their order rule and their derivative maps are those
`kernels.cross_sums` sums a dive's kernel on, about the dive. There
an M-step costs O(F M) and an append O(n F^2), a square-root update of
the weights' factor by the new targets' rows, whatever N is, where the
exact form walks its (2N)^2 factor twice a cycle. The mission loop
gives its model a region, the disc that holds the log's dead-reckoned
tracks and fixes padded by the largest drift, about their bounding
box's centre. The model keeps the exact form until the cost rule
(FEATURES_PER_ROOT_TARGET: F^2 <= 100 N) prefers the weight space at its
N and the region's F, then forms the weights once from the stored
targets; timed on both paths with a 400-point dive, the weight space
became the cheaper form at N = 60-100 for F = 91-105 and at N = 115-190
for F = 136-171 (see FEATURES_PER_ROOT_TARGET). A
target beyond the region widens it to cover them in the appended model,
which forms the weights afresh, O(N F^2), or goes back to a fresh exact
factor if the rule finds the wider region too costly. A query beyond the
region is answered the same way by a form built for it alone, so a query
never changes the model, every prediction is the exact posterior
anywhere, and the targets alone (`to_json`) rebuild the model.
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np
from numpy.linalg import cholesky, inv, solve

from driftfield.flowfield import as_xy, json_floats
from driftfield.kernels import (
    HyperParams,
    KernelKind,
    _curl_maps,
    _feature_order,
    _kernel_blocks,
    _series_rows,
    build_block_matrix,
    cross_sums,
)

__all__ = [
    "GpModel",
    "downsample_targets",
    "DEFAULT_TARGET_NOISE_VAR",
]

# Noise floor on pseudo-target currents, m^2/s^2. Small relative to any
# plausible current variance but large enough to keep the Gram matrix
# factorisable with near-duplicate target positions.
DEFAULT_TARGET_NOISE_VAR = 1e-4

# Targets per row block of R. numpy inverts each block's L22 through a
# pivoted LU, about 6 times the work of its Cholesky, so a large append
# goes in small blocks: a model built with 560 targets at once took
# 190 ms in one block and 58 ms in blocks of 32 (1 BLAS thread), and its
# temporaries peaked at 14 MB instead of 21 MB. Appends of a few targets
# fill the last block up to this size instead of adding a block each: a
# mission's 100 appends of about 6 targets as 100 tiny blocks gave back
# all the time saved by not copying the factor.
GROW_BLOCK_TARGETS = 32

# The cost rule between a mission model's two forms: it takes the weight
# space iff its F features number at most this many times the root of its
# N targets, F^2 <= 100 N. Timed on both paths (1 BLAS thread, 2-core
# Xeon) by a cycle of three M-steps on a 150- or 400-point dive and a
# 6-target append, targets within 0.25-0.8 lengthscales, the weight space
# first cost no more than the exact model at these N (N of 5 is the least
# timed):
#
#     incompressible F     66   78   91  105  120  136  153  171
#         150-point dive    5    5   20   25   30   80  100  130
#         400-point dive    5   10   60  100  115  115  175  190
#         F^2 / 100        44   61   83  110  144  185  234  292
#     diagonal F           55   66   78   91  105  120  136
#         150-point dive    5    5    5    5   20   30   25
#         400-point dive    5    5    5   25   80   30   90
#         F^2 / 100        30   44   61   83  110  144  185
#
# The exact model's cost grows with N through its factor's walks, the
# weight space's with F through the dive's rows and the append's F^2 k
# update. The acceptance study's missions (F >= 66, N <= 37) stay exact: the
# weight space from the first cycle made each kernel's study 30-50%
# slower.
FEATURES_PER_ROOT_TARGET = 10.0


def _solve(blocks, b: np.ndarray):
    """
    (R b, R^T R b) = (L^-1 b, K^-1 b) for the lower triangular R = L^-1
    stored as row blocks R[i:j, :j] (see the module docstring) and b of
    shape (n,) or (n, k). Each block is read once for R b and once for
    R^T z while it sits in cache.
    """
    z = np.empty_like(b)
    x = np.zeros_like(b)
    for block in blocks:
        rows, j = block.shape
        i = j - rows
        z[i:j] = block @ b[:j]
        x[:j] += block.T @ z[i:j]
    return z, x


def _inverse_factor(lam: np.ndarray) -> np.ndarray:
    """
    np.tril(inv(cholesky(lam))) by one block step of the module docstring's
    identity, R21 = -R22 L21 R11: two half-size inverses and two products
    took 0.20-0.24 ms against 0.37-0.39 ms for the whole at F = 91-105 (1
    BLAS thread), with the same rounding. lam >= I here, so its Cholesky
    factor exists for any finite rows.
    """
    l = cholesky(lam)
    h = len(l) // 2
    r = np.zeros_like(l)
    r[:h, :h] = np.tril(inv(l[:h, :h]))
    r[h:, h:] = np.tril(inv(l[h:, h:]))
    r[h:, :h] = -r[h:, h:] @ (l[h:, :h] @ r[:h, :h])
    return r


def _centred(centre, lengthscale: float, pts: np.ndarray):
    """
    The (2, M) coordinates of the points about the centre in lengthscale
    units, and the largest square of their distance from it (inf or NaN
    if that overflows).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q = (pts - centre).T / lengthscale
        return q, (q[0] * q[0] + q[1] * q[1]).max(initial=0.0)


class _WeightSpace:
    """
    The GP as a Bayesian linear model on F Taylor features about a centre
    (Rasmussen & Williams 2006, *GPML*, section 2.1). In lengthscale units
    about the centre, exp(-|p - q|^2 / 2) = w_p w_q exp(p . q), and the
    series of exp(p . q) to order K makes it sum_k psi_k(p) psi_k(q) with
    the F rows psi_k of `kernels._series_rows` (Cotter, Keshet & Srebro
    2011, "Explicit approximations of the Gaussian kernel"). So the
    streamfunction s psi . z, z ~ N(0, I) and s^2 the current variance,
    has the incompressible kernel as the covariance of its rotated
    gradient: a current is A(q) z, with the two rows of A(q) s times the
    unit maps of `kernels._curl_maps` applied to q's rows of order K + 1.
    Every mean it gives is divergence-free exactly. The diagonal kernel
    gives u and v independent weights on the features s psi_k, which
    share one factor.

    With A the feature rows at the targets, y their currents and tau^2 the
    noise floor, the posterior of the weights has precision
    Lambda = I + A^T A / tau^2 and mean mu = Lambda^-1 b, b = A^T y / tau^2.
    As in `GpModel`, a factor R of P = Lambda^-1 = R^T R is kept rather
    than Lambda, so the covariance a P a^T = (R a^T)^T (R a^T) is
    symmetric by construction. The prior's first `add` forms R by
    `_inverse_factor` of Lambda, O(N F^2 + F^3). A later append of n
    targets, whose (F, k) feature columns B are the u and v rows for the
    incompressible kernel (k = 2n) or the rows for the diagonal one
    (k = n), updates R in O(k F^2) whatever N is, by Andrews's square-root
    covariance update (A. Andrews 1968, "A square root formulation of the
    Kalman covariance equations", *AIAA J.* 6(6)):

        C = R B / tau,   M = I + C^T C = L L^T,
        R' = R - C (L + M)^-1 C^T R,   (L + M)^-1 = (I + L^T)^-1 L^-1,

    so R'^T R' = R^T (I + C C^T)^-1 R = (Lambda + B B^T / tau^2)^-1.
    M >= I, so L and the solve exist for any finite rows, and k may exceed
    F. R' is not triangular, which nothing needs. mu = R'^T (R' b) comes
    from the accumulated b, so the updates' rounding does not build up in
    the mean. Forming from the prior by the update instead moved the
    final grids of survey and long_mission by up to 3.3e-10 of max |mean|,
    against 5e-13 by `_inverse_factor`: in well-determined directions the
    update's rows come out as 1 minus nearly 1. `order` comes from
    `kernels._feature_order` at the radius, so within it the features'
    kernel is the exact one to rounding.
    """

    def __init__(self, hp: HyperParams, kind: KernelKind, centre, reach2, order: int):
        self.hp, self.kind = hp, kind
        self.centre, self.reach2, self.order = centre, reach2, order
        f = (order + 1) * (order + 2) // 2
        s = np.sqrt(hp.current_variance)
        self.curl = kind is KernelKind.INCOMPRESSIBLE
        # the diagonal kernel's features are s psi itself
        self.maps = s * _curl_maps(order) if self.curl else s
        self.rhs = np.zeros(f if self.curl else (f, 2))
        self.factor = self.mean = None  # the prior's; the first add forms them

    def rows(self, pts: np.ndarray):
        """The (F1, M) rows at the points, or None if any lies beyond the region."""
        q, reach2 = _centred(self.centre, self.hp.lengthscale, pts)
        if not reach2 <= self.reach2:
            return None
        return _series_rows(q[0], q[1], self.order + self.curl)

    def features(self, rows: np.ndarray) -> np.ndarray:
        """(2, F, M) for the incompressible kernel, the u and v rows; (F, M) for the diagonal one."""
        return self.maps @ rows if self.curl else self.maps * rows

    def add(self, rows: np.ndarray, currents: np.ndarray) -> "_WeightSpace":
        """A new form conditioned also on targets with these rows and (n, 2) currents."""
        a, y = self.features(rows), currents
        if self.curl:  # the u rows, then the v rows, against the u and v currents
            a, y = np.concatenate(a, axis=1), currents.T.reshape(-1)
        tau2 = DEFAULT_TARGET_NOISE_VAR
        child = copy.copy(self)
        child.rhs = self.rhs + (a @ y) / tau2
        r = self.factor
        if r is None:  # forming: the prior's Lambda = I plus the targets' share
            child.factor = _inverse_factor(np.eye(len(a)) + (a @ a.T) / tau2)
        else:  # the square-root update of the class docstring
            c = r @ a / math.sqrt(tau2)
            m = c.T @ c
            m.flat[:: len(m) + 1] += 1.0
            child.factor = r - c @ solve(cholesky(m) + m, c.T @ r)
        child.mean = child.factor.T @ (child.factor @ child.rhs)
        return child

    def mean_at(self, rows: np.ndarray) -> np.ndarray:
        """The (M, 2) posterior mean at the points with these rows."""
        if self.curl:
            return (self.mean @ self.maps @ rows).T
        return self.maps * (rows.T @ self.mean)

    def predict_sum(self, rows: np.ndarray):
        """`GpModel.predict_sum` at the points with these rows."""
        total = rows.sum(axis=1)
        mean, r = self.mean, self.factor
        if self.curl:
            a = self.maps @ total  # (2, F): the summed u and v rows
            ra = r @ a.T
            cov = ra.T @ ra

            def update(v):
                return ((mean + r.T @ (ra @ v)) @ self.maps @ rows).T
        else:
            a = self.maps * total
            ra = r @ a
            cov = (ra @ ra) * np.eye(2)

            def update(v):
                return self.maps * (rows.T @ (mean + np.multiply.outer(r.T @ ra, v)))

        return a @ mean, cov, update


class GpModel:
    """
    Immutable GP over the 2D current field.

    Zero-mean prior; the posterior is conditioned on the stored targets.
    Construct empty via `GpModel(hp, kind)` and grow with
    `add_targets`, which returns a new model. A model built with targets
    grows the empty model's 0x0 factor by all of them, as one append,
    so an empty model predicts the prior by the same formulas. Only a
    mission's model, given a region by `_in_region`, may take the
    weight-space form (see the module docstring).
    """

    target_noise_var = DEFAULT_TARGET_NOISE_VAR
    # The weight-space form, or None on the exact one, and the region it
    # may take: the centre and the squared radius in lengthscales.
    _space = None
    _region = None

    def __init__(
        self,
        hp: HyperParams,
        kind: KernelKind = KernelKind.INCOMPRESSIBLE,
        positions=None,
        currents=None,
    ):
        self.hp = hp
        self.kind = kind
        self.positions = as_xy(positions if positions is not None else [])
        self.currents = as_xy(currents if currents is not None else [])
        self._blocks = ()
        self._z = self._alpha = np.zeros(0)
        self._grow(0)

    @property
    def num_targets(self) -> int:
        return self.positions.shape[0]

    def _grow(self, n_old: int):
        """
        Condition the model's form on the targets from `n_old` on. The
        weight space adds their rows if they lie in its region. Otherwise
        a model with a region takes the weight space afresh if the cost
        rule prefers it, and failing that the exact factor grows, from
        scratch if the model leaves the weight space.
        """
        if self.positions.shape != self.currents.shape:
            raise ValueError(f"positions {self.positions.shape} vs currents {self.currents.shape}")
        # checked before any kernel is formed, where inf - inf would warn
        if not np.isfinite(self.positions[n_old:]).all():
            raise ValueError("positions must be finite")
        # Only the currents can be non-finite here; scanning R too would
        # cost as much as a solve.
        np.asarray_chkfinite(self.currents[n_old:])
        space = self._space
        if space is not None:
            rows = space.rows(self.positions[n_old:])
            if rows is not None:
                self._space = space.add(rows, self.currents[n_old:])
                return
        # the region's own order first: a cheap test at every exact append
        if self._region is not None and self._order(self._region[1]) is not None:
            centre, reach2 = self._region
            # widened to cover every target; they are finite, so its square is not NaN
            self._region = centre, max(reach2, _centred(centre, self.hp.lengthscale, self.positions)[1])
            self._space = self._weights(*self._region)
            if self._space is not None:
                self._blocks, self._z, self._alpha = (), np.zeros(0), np.zeros(0)  # no stale factor
                return
        # the weight space keeps no factor, so leaving it factors every target afresh
        self._factor(0 if space is not None else n_old)

    def _factor(self, n_old: int):
        """
        Extend `_blocks`, the row blocks of the inverse lower factor of
        Gram + noise at the first `n_old` targets, by the rest, and
        `_z` = R y and `_alpha` = R^T R y by the new rows of R. Every
        full block is shared with the parent; a last block of fewer than
        GROW_BLOCK_TARGETS targets is extended into a new array. The
        noise floor keeps each Schur complement positive definite
        (Rasmussen & Williams 2006, *GPML*, Algorithm 2.1); one that is
        not raises `cholesky`'s `LinAlgError`, and the parent model is
        untouched.
        """
        y = self.currents.reshape(-1)
        z = np.empty_like(y)
        z[: 2 * n_old] = self._z
        alpha = np.zeros_like(y)
        alpha[: 2 * n_old] = self._alpha
        blocks = list(self._blocks)
        start = n_old
        while start < self.num_targets:
            i = 2 * start
            head = np.zeros((0, i))
            if blocks and blocks[-1].shape[0] < 2 * GROW_BLOCK_TARGETS:
                head = blocks.pop()
            stop = min(start - len(head) // 2 + GROW_BLOCK_TARGETS, self.num_targets)
            j = 2 * stop
            # K12 = k2[:i] is C-contiguous rows, as `_solve`'s products want
            k2 = build_block_matrix(self.hp, self.kind, self.positions[:stop], self.positions[start:stop])
            zk, g = _solve(blocks + [head], k2[:i])  # L11^-1 K12 and K11^-1 K12
            schur = k2[i:]
            schur -= zk.T @ zk
            schur.flat[:: len(schur) + 1] += self.target_noise_var
            # R11 and the kernels are finite; an overflowing product still makes
            # the Schur complement non-finite, which cholesky would not reject.
            # inv works through a pivoted LU, which leaves rounding above the
            # diagonal of L22^-1; tril sets it to 0.
            r22 = np.tril(inv(cholesky(np.asarray_chkfinite(schur))))
            # filled in place: np.block copies the new rows twice, which took
            # about as long as the solve the alpha update below saves
            block = np.empty((len(head) + j - i, j))
            block[: len(head), :i] = head
            block[: len(head), i:] = 0.0
            new = block[len(head) :]  # rows i:j of R
            np.matmul(r22, -g.T, out=new[:, :i])
            new[:, i:] = r22
            block.flags.writeable = False
            # the old rows of R are unchanged, so their share of R^T z is too
            z[i:j] = new @ y[:j]
            alpha[:j] += new.T @ z[i:j]
            blocks.append(block)
            start = stop
        self._blocks = tuple(blocks)
        self._z, self._alpha = z, alpha

    def _in_region(self, centre, radius: float) -> "GpModel":
        """
        This model, free to take the weight-space form about the disc of
        this centre and radius in metres once the cost rule prefers it.
        """
        child = copy.copy(self)
        with np.errstate(over="ignore"):  # an infinite radius never meets the order's bound
            child._region = (np.asarray(centre, dtype=float), np.square(radius / self.hp.lengthscale))
        return child

    def _order(self, reach2):
        """
        The weight space's order over a region of this squared radius if
        the cost rule prefers it to the exact form at N targets (F at most
        FEATURES_PER_ROOT_TARGET times the root of N), else None.
        """
        return _feature_order(self.kind, reach2, FEATURES_PER_ROOT_TARGET * math.sqrt(self.num_targets))

    def _weights(self, centre, reach2):
        """
        The weight space formed afresh from every target about this region,
        or None if the cost rule declines it there. O(N F^2 + F^3).
        """
        order = self._order(reach2)
        if order is None:
            return None
        space = _WeightSpace(self.hp, self.kind, centre, reach2, order)
        return space.add(space.rows(self.positions), self.currents)

    def _form_at(self, q: np.ndarray):
        """
        The form that answers a query at these points, with its rows there:
        (weight space, rows), or (exact model, None), whose factor and
        weights serve this model's targets. Beyond the region a
        wider weight space formed from the stored targets answers, or, if
        the cost rule declines it, a fresh exact factor of them; either is
        dropped after the query, so a query never changes the model.
        """
        space = self._space
        if space is None:
            return self, None
        rows = space.rows(q)
        if rows is None:
            # the targets lie within the region, so only the queries widen it;
            # a non-finite point gives a NaN or infinite radius, which the rule declines
            space = self._weights(space.centre, _centred(space.centre, self.hp.lengthscale, q)[1])
            if space is None:
                return GpModel(self.hp, self.kind, self.positions, self.currents), None
            rows = space.rows(q)
        return space, rows

    def predict(self, query_points):
        """
        Posterior (mean (M, 2), joint covariance (2M, 2M) over [u0, v0, u1,
        v1, ...]). On the weight-space form it factors the targets afresh.
        """
        q = as_xy(query_points)
        if self._space is not None:
            return GpModel(self.hp, self.kind, self.positions, self.currents).predict(q)
        k_qq = build_block_matrix(self.hp, self.kind, q, q)
        k_dq = build_block_matrix(self.hp, self.kind, self.positions, q)
        mean = k_dq.T @ self._alpha
        v = np.empty_like(k_dq)  # L^-1 k_dq, one walk over R's row blocks
        for block in self._blocks:
            rows, j = block.shape
            v[j - rows : j] = block @ k_dq[:j]
        cov = k_qq - v.T @ v  # symmetric by construction (GPML, Algorithm 2.1)
        return mean.reshape(-1, 2), cov

    def predict_sum(self, query_points):
        """
        The posterior of the sum of the currents f_i at M query points.

        Returns (mean_sum, cov_sum, update): the posterior mean of
        sum_i f_i as a 2-vector, its 2x2 posterior covariance, and
        update(v), which maps a 2-vector v to the (M, 2) array
        mean_i + Cov(f_i, sum_j f_j) v. With P the queries, T the targets,
        1 the (2M, 2) stack of identities, ksum = K(T, P) 1 and
        beta = K^-1 ksum (one solve against 2 right-hand sides):

            mean_sum = ksum^T alpha
            cov_sum  = 1^T K(P, P) 1 - ksum^T beta
            update(v) = K(P, T) (alpha - beta v) + K(P, P) (1 v)

        so an update applies the query-to-target kernel to one vector.
        `kernels.cross_sums` gives the kernel sums and that application;
        neither the (2M, 2M) covariance nor any per-query 2x2 block of it
        is formed. For a dive, whose queries lie within a small fraction
        of a lengthscale of their centroid, it sums them by a Taylor
        series about that centroid, with no (N, M) array, whenever its F
        monomial rows cost no more than the dense blocks by the measured
        rule in `cross_sums`. On the weight-space form, with a the summed
        feature rows of the queries, they are a mu, a P a^T and
        A(q) (mu + P a^T v).
        """
        q = as_xy(query_points)
        form, rows = self._form_at(q)
        if rows is not None:
            return form.predict_sum(rows)
        total, ksum, apply = cross_sums(self.hp, self.kind, q, self.positions)
        # R is finite by construction; a non-finite query point comes out
        # as NaN in cov_sum, as it does for an empty model.
        beta = _solve(form._blocks, ksum)[1]
        alpha = form._alpha
        return ksum.T @ alpha, total - ksum.T @ beta, lambda v: apply(alpha - beta @ v, v)

    def predict_mean(self, query_points) -> np.ndarray:
        """
        Posterior mean only, skipping the query covariance. Shape (M, 2).
        On the weight-space form it is the queries' feature rows times mu,
        with no (N, M) array.
        """
        q = as_xy(query_points)
        form, rows = self._form_at(q)
        if rows is not None:
            return form.mean_at(rows)
        k11, k12, k22 = _kernel_blocks(self.hp, self.kind, self.positions, q)
        a_u, a_v = form._alpha[0::2], form._alpha[1::2]
        return np.column_stack([k11.T @ a_u + k12.T @ a_v, k12.T @ a_u + k22.T @ a_v])

    def add_targets(self, positions, currents) -> "GpModel":
        """New model conditioned on the union of old and new targets."""
        child = copy.copy(self)
        child.positions = np.vstack([self.positions, as_xy(positions)])
        child.currents = np.vstack([self.currents, as_xy(currents)])
        child._grow(self.num_targets)
        return child

    def to_json(self) -> str:
        """Serialise hyperparameters and targets (never the factorisation)."""
        return json.dumps(
            {
                "kernel": self.kind.value,
                "lengthscale_m": self.hp.lengthscale,
                "current_variance_m2s2": self.hp.current_variance,
                "gps_noise_std_m": self.hp.gps_noise_std,
                "target_noise_var_m2s2": self.target_noise_var,
                "positions_m": self.positions.tolist(),
                "currents_mps": self.currents.tolist(),
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "GpModel":
        """
        Load a `to_json` snapshot: a JSON object with exactly its keys, the
        kernel a `KernelKind` value and the rest read by `json_floats`, as a
        cycle log's numbers are. Anything else raises a ValueError naming the key.
        """
        d = json.loads(text)
        keys = {"kernel", "lengthscale_m", "current_variance_m2s2", "gps_noise_std_m",
                "target_noise_var_m2s2", "positions_m", "currents_mps"}
        if not isinstance(d, dict) or d.keys() != keys:
            got = sorted(d) if isinstance(d, dict) else f"a JSON {type(d).__name__}"
            raise ValueError(f"a model snapshot is a JSON object with the keys {sorted(keys)}, got {got}")
        if d["kernel"] not in [k.value for k in KernelKind]:
            raise ValueError(f"'kernel' must be a KernelKind value, got {d['kernel']!r}")
        pairs = ("positions_m", "currents_mps")
        v = {key: json_floats(d[key], (-1, 2) if key in pairs else (), repr(key))
             for key in sorted(keys - {"kernel"})}
        if v["target_noise_var_m2s2"] != DEFAULT_TARGET_NOISE_VAR:
            raise ValueError(f"target_noise_var_m2s2 must be {DEFAULT_TARGET_NOISE_VAR}, "
                             f"got {d['target_noise_var_m2s2']!r}")
        hp = HyperParams(v["lengthscale_m"], v["current_variance_m2s2"], v["gps_noise_std_m"])
        return GpModel(hp, KernelKind(d["kernel"]), v["positions_m"], v["currents_mps"])


def downsample_targets(positions, currents, min_spacing: float):
    """
    Thin targets greedily: walk in order, keep a point only if it is at
    least `min_spacing` metres from every point already kept. Returns
    (positions, currents) arrays of the survivors.
    """
    p = as_xy(positions)
    c = as_xy(currents)
    if p.shape != c.shape:
        raise ValueError(f"positions {p.shape} vs currents {c.shape}")
    if min_spacing <= 0:
        return p, c
    # x + iy, read in place: the modulus of a complex difference is the
    # hypot of its parts
    z = np.ascontiguousarray(p).view(complex)[:, 0]
    free = np.ones(len(p), dtype=bool)
    kept = []
    # an overflowing or infinite lag compares as a plain float would
    with np.errstate(over="ignore", invalid="ignore"):
        while free.any():
            i = int(free.argmax())
            kept.append(i)
            free &= abs(z - z[i]) >= min_spacing
    return p[kept], c[kept]
