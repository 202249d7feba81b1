"""
Gaussian process regression on current observations.

A `GpModel` holds pseudo-targets (position, current) pairs and the fixed
hyperparameters, and predicts the posterior current at query points.
Targets carry a small fixed noise floor so repeated conditioning at the
same location stays well posed. Each model keeps the lower Cholesky
factor L of its training covariance and reuses it across predictions.
Models are immutable: conditioning on new targets returns a new model
whose factor is the parent's grown by one block (block Cholesky, Golub &
Van Loan, *Matrix Computations*, section 4.2), so appending n targets to
N costs O(N^2 n) instead of a fresh O(N^3) factorisation:

    L = [L11   0 ]    L21 = K21 L11^-T,    L22 L22^T = K22 - L21 L21^T.
        [L21  L22]
"""

from __future__ import annotations

import copy
import json

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from driftfield.flowfield import as_xy
from driftfield.kernels import (
    HyperParams,
    KernelKind,
    _kernel_blocks,
    block_row_sums,
    build_block_matrix,
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


class GpModel:
    """
    Immutable GP over the 2D current field.

    Zero-mean prior; the posterior is conditioned on the stored targets.
    Construct empty via `GpModel(hp, kind)` and grow with
    `add_targets`, which returns a new model. A model built with targets
    grows the empty model's 0x0 factor by all of them at once, so an
    empty model predicts the prior by the same formulas.
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
        if self.positions.shape != self.currents.shape:
            raise ValueError(f"positions {self.positions.shape} vs currents {self.currents.shape}")
        self._l = np.zeros((0, 0))
        self._grow(0)

    @property
    def num_targets(self) -> int:
        return self.positions.shape[0]

    def _grow(self, n_old: int):
        """
        Extend `_l`, the lower factor of Gram + noise at the first `n_old`
        targets, by the block of the rest, then solve for `_alpha` against
        `self.currents`. The old factor is reused exactly. The noise
        floor keeps the Schur complement positive definite (Rasmussen &
        Williams 2006, *GPML*, Algorithm 2.1); one that is not raises
        `cho_factor`'s `LinAlgError`, and the parent model is untouched.
        """
        n1, n2 = 2 * n_old, 2 * (self.num_targets - n_old)
        k2 = build_block_matrix(self.hp, self.kind, self.positions[n_old:], self.positions)
        # L11 is finite by construction; a non-finite position makes
        # the Schur complement non-finite, which cho_factor rejects.
        l21 = solve_triangular(self._l, k2[:, :n1].T, lower=True, check_finite=False).T
        schur = k2[:, n1:]
        schur -= l21 @ l21.T
        schur[np.diag_indices_from(schur)] += self.target_noise_var
        l22 = cho_factor(schur, lower=True)[0]
        # Free the Gram block before the new factor is allocated: when a
        # model is built with all its targets, each is (2N, 2N).
        del k2, schur
        # Fortran order, as LAPACK takes it, so no solve copies the factor.
        l = np.zeros((n1 + n2, n1 + n2), order="F")
        l[:n1, :n1] = self._l
        l[n1:, :n1] = l21
        # cho_factor leaves the strict upper triangle of l22 unspecified.
        np.copyto(l[n1:, n1:], l22, where=np.tri(n2, dtype=bool))
        self._l = l
        # Only the currents can be non-finite here; scanning the factor too
        # would cost as much as the solve.
        y = np.asarray_chkfinite(self.currents.reshape(-1))
        self._alpha = cho_solve((l, True), y, check_finite=False)

    def predict(self, query_points):
        """Posterior (mean (M, 2), joint covariance (2M, 2M) over [u0, v0, u1, v1, ...])."""
        q = as_xy(query_points)
        k_qq = build_block_matrix(self.hp, self.kind, q, q)
        k_dq = build_block_matrix(self.hp, self.kind, self.positions, q)
        mean = k_dq.T @ self._alpha
        v = solve_triangular(self._l, k_dq, lower=True)
        cov = k_qq - v.T @ v
        cov = 0.5 * (cov + cov.T)
        return mean.reshape(-1, 2), cov

    def predict_sum(self, query_points):
        """
        Posterior mean at the query points and the posterior covariance
        of each query current with the sum of all of them.

        Returns (mean, cross) with shapes (M, 2) and (M, 2, 2); block i
        of `cross` is the posterior covariance of query current i with
        the sum, the block row sum of `predict(q)[1]`. Neither the
        (2M, 2M) covariance nor the interleaved (2N, 2M) kernel is
        formed, and the training factor is solved against 2 right-hand
        sides instead of 2M.
        """
        q = as_xy(query_points)
        prior = block_row_sums(self.hp, self.kind, q)
        k11, k12, k22 = _kernel_blocks(self.hp, self.kind, self.positions, q)  # each (N, M)
        s11, s12, s22 = k11.sum(axis=1), k12.sum(axis=1), k22.sum(axis=1)
        k_dsum = np.stack([s11, s12, s12, s22], axis=1).reshape(-1, 2)  # (2N, 2)
        # The factor is finite by construction; a non-finite query point
        # comes out as NaN in `cross`, as it does for an empty model.
        rhs = np.column_stack(
            [self._alpha, cho_solve((self._l, True), k_dsum, check_finite=False)]
        )
        even, odd = rhs[0::2], rhs[1::2]  # rows of the u and v target components
        out = np.stack([k11.T @ even + k12.T @ odd, k12.T @ even + k22.T @ odd], axis=1)
        return out[:, :, 0], prior - out[:, :, 1:]

    def predict_mean(self, query_points) -> np.ndarray:
        """Posterior mean only, skipping the query covariance. Shape (M, 2)."""
        k11, k12, k22 = _kernel_blocks(self.hp, self.kind, self.positions, as_xy(query_points))
        a_u, a_v = self._alpha[0::2], self._alpha[1::2]
        return np.column_stack([k11.T @ a_u + k12.T @ a_v, k12.T @ a_u + k22.T @ a_v])

    def add_targets(self, positions, currents) -> "GpModel":
        """New model conditioned on the union of old and new targets."""
        new_p, new_c = as_xy(positions), as_xy(currents)
        if new_p.shape != new_c.shape:
            raise ValueError(f"positions {new_p.shape} vs currents {new_c.shape}")
        child = copy.copy(self)
        child.positions = np.vstack([self.positions, new_p])
        child.currents = np.vstack([self.currents, new_c])
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
        d = json.loads(text)
        if d["target_noise_var_m2s2"] != DEFAULT_TARGET_NOISE_VAR:
            raise ValueError(f"target_noise_var_m2s2 must be {DEFAULT_TARGET_NOISE_VAR}, "
                             f"got {d['target_noise_var_m2s2']!r}")
        hp = HyperParams(
            lengthscale=d["lengthscale_m"],
            current_variance=d["current_variance_m2s2"],
            gps_noise_std=d["gps_noise_std_m"],
        )
        return GpModel(
            hp,
            KernelKind(d["kernel"]),
            np.array(d["positions_m"], dtype=float).reshape(-1, 2),
            np.array(d["currents_mps"], dtype=float).reshape(-1, 2),
        )


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
    x, y = p.T
    free = np.ones(len(p), dtype=bool)
    kept = []
    # an overflowing or infinite lag compares as a plain float would
    with np.errstate(over="ignore", invalid="ignore"):
        while free.any():
            i = int(free.argmax())
            kept.append(i)
            free &= np.hypot(x - x[i], y - y[i]) >= min_spacing
    return p[kept], c[kept]
