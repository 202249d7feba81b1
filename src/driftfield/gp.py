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
"""

from __future__ import annotations

import copy
import json

import numpy as np
from numpy.linalg import cholesky, inv

from driftfield.flowfield import as_xy, json_floats
from driftfield.kernels import (
    HyperParams,
    KernelKind,
    _kernel_blocks,
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


class GpModel:
    """
    Immutable GP over the 2D current field.

    Zero-mean prior; the posterior is conditioned on the stored targets.
    Construct empty via `GpModel(hp, kind)` and grow with
    `add_targets`, which returns a new model. A model built with targets
    grows the empty model's 0x0 factor by all of them, as one append,
    so an empty model predicts the prior by the same formulas.
    """

    target_noise_var = DEFAULT_TARGET_NOISE_VAR

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
        if self.positions.shape != self.currents.shape:
            raise ValueError(f"positions {self.positions.shape} vs currents {self.currents.shape}")
        # checked before any kernel is formed, where inf - inf would warn
        if not np.isfinite(self.positions[n_old:]).all():
            raise ValueError("positions must be finite")
        # Only the currents can be non-finite here; scanning R too would
        # cost as much as a solve.
        y = np.asarray_chkfinite(self.currents.reshape(-1))
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

    def predict(self, query_points):
        """Posterior (mean (M, 2), joint covariance (2M, 2M) over [u0, v0, u1, v1, ...])."""
        q = as_xy(query_points)
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
        rule in `cross_sums`.
        """
        q = as_xy(query_points)
        total, ksum, apply = cross_sums(self.hp, self.kind, q, self.positions)
        # R is finite by construction; a non-finite query point comes out
        # as NaN in cov_sum, as it does for an empty model.
        beta = _solve(self._blocks, ksum)[1]
        alpha = self._alpha
        return ksum.T @ alpha, total - ksum.T @ beta, lambda v: apply(alpha - beta @ v, v)

    def predict_mean(self, query_points) -> np.ndarray:
        """Posterior mean only, skipping the query covariance. Shape (M, 2)."""
        k11, k12, k22 = _kernel_blocks(self.hp, self.kind, self.positions, as_xy(query_points))
        a_u, a_v = self._alpha[0::2], self._alpha[1::2]
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
