"""
Gaussian process regression on current observations.

A `GpModel` holds pseudo-targets (position, current) pairs and the fixed
hyperparameters, and predicts the posterior current at query points.
Targets carry a small fixed noise floor so repeated conditioning at the
same location stays well posed. The training covariance is factorised
once (Cholesky) when the model is built and reused across predictions;
models are immutable, and conditioning on new targets returns a new
model.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from driftfield.flowfield import as_xy
from driftfield.kernels import HyperParams, KernelKind, block_row_sums, build_block_matrix

__all__ = [
    "GpModel",
    "FactorizationFailure",
    "DimensionMismatch",
    "downsample_targets",
    "DEFAULT_TARGET_NOISE_VAR",
]

# Noise floor on pseudo-target currents, m^2/s^2. Small relative to any
# plausible current variance but large enough to keep the Gram matrix
# factorisable with near-duplicate target positions.
DEFAULT_TARGET_NOISE_VAR = 1e-4

# Jitter escalation when the Cholesky fails: start at JITTER_START
# (relative to the current variance) and multiply by 10 up to
# JITTER_ATTEMPTS times before giving up.
JITTER_START = 1e-10
JITTER_ATTEMPTS = 7


class FactorizationFailure(Exception):
    """Training covariance could not be factorised even with jitter."""


class DimensionMismatch(Exception):
    """Positions and currents arrays disagree in length or width."""


class GpModel:
    """
    Immutable GP over the 2D current field.

    Zero-mean prior; the posterior is conditioned on the stored targets.
    Construct empty via `GpModel(hp, kind)` and grow with
    `add_targets`, which returns a new model. An empty model factorises
    its 0x0 Gram matrix, so it predicts the prior by the same formulas.
    """

    def __init__(
        self,
        hp: HyperParams,
        kind: KernelKind = KernelKind.INCOMPRESSIBLE,
        positions=None,
        currents=None,
        target_noise_var: float = DEFAULT_TARGET_NOISE_VAR,
    ):
        self.hp = hp
        self.kind = kind
        self.positions = as_xy(positions if positions is not None else [])
        self.currents = as_xy(currents if currents is not None else [])
        if self.positions.shape != self.currents.shape:
            raise DimensionMismatch(
                f"positions {self.positions.shape} vs currents {self.currents.shape}"
            )
        if not (0 < target_noise_var < math.inf):
            raise ValueError(
                f"target_noise_var must be positive and finite, got {target_noise_var}"
            )
        self.target_noise_var = float(target_noise_var)
        self._factorize()

    @property
    def num_targets(self) -> int:
        return self.positions.shape[0]

    def _factorize(self):
        k = build_block_matrix(self.hp, self.kind, self.positions, self.positions)
        k[np.diag_indices_from(k)] += self.target_noise_var
        jitter = JITTER_START * self.hp.current_variance
        last_err = None
        for _ in range(JITTER_ATTEMPTS):
            try:
                self._factor = cho_factor(k, lower=True)
                break
            except np.linalg.LinAlgError as err:
                last_err = err
                k[np.diag_indices_from(k)] += jitter
                jitter *= 10.0
        else:
            raise FactorizationFailure(
                f"Cholesky failed for {self.num_targets} targets after "
                f"{JITTER_ATTEMPTS} jitter escalations"
            ) from last_err
        self._alpha = cho_solve(self._factor, self.currents.reshape(-1))

    def predict(self, query_points):
        """Posterior (mean (M, 2), joint covariance (2M, 2M) over [u0, v0, u1, v1, ...])."""
        q = as_xy(query_points)
        k_qq = build_block_matrix(self.hp, self.kind, q, q)
        k_dq = build_block_matrix(self.hp, self.kind, self.positions, q)
        mean = k_dq.T @ self._alpha
        v = solve_triangular(self._factor[0], k_dq, lower=True)
        cov = k_qq - v.T @ v
        cov = 0.5 * (cov + cov.T)
        return mean.reshape(-1, 2), cov

    def predict_sum(self, query_points):
        """
        Posterior mean at the query points and the posterior covariance
        of each query current with the sum of all of them.

        Returns (mean, cross) with shapes (M, 2) and (2M, 2); `cross`
        equals `predict(q)[1] @ np.tile(np.eye(2), (M, 1))`, but
        no (2M, 2M) matrix is formed and the training factor is solved
        against 2 right-hand sides instead of 2M.
        """
        q = as_xy(query_points)
        prior = block_row_sums(self.hp, self.kind, q, q)
        k_dq = build_block_matrix(self.hp, self.kind, self.positions, q)
        mean = k_dq.T @ self._alpha
        k_dsum = k_dq.reshape(k_dq.shape[0], q.shape[0], 2).sum(axis=1)  # (2N, 2)
        cross = prior - k_dq.T @ cho_solve(self._factor, k_dsum)
        return mean.reshape(-1, 2), cross

    def predict_mean(self, query_points) -> np.ndarray:
        """Posterior mean only, skipping the query covariance. Shape (M, 2)."""
        q = as_xy(query_points)
        k_dq = build_block_matrix(self.hp, self.kind, self.positions, q)
        return (k_dq.T @ self._alpha).reshape(-1, 2)

    def add_targets(self, positions, currents) -> "GpModel":
        """New model conditioned on the union of old and new targets."""
        return GpModel(
            self.hp,
            self.kind,
            np.vstack([self.positions, as_xy(positions)]),
            np.vstack([self.currents, as_xy(currents)]),
            target_noise_var=self.target_noise_var,
        )

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
            target_noise_var=d["target_noise_var_m2s2"],
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
        raise DimensionMismatch(f"positions {p.shape} vs currents {c.shape}")
    if min_spacing <= 0 or p.shape[0] == 0:
        return p, c
    kept = []
    for i in range(p.shape[0]):
        if not kept:
            kept.append(i)
            continue
        d2 = np.sum((p[kept] - p[i]) ** 2, axis=1)
        if np.min(d2) >= min_spacing**2:
            kept.append(i)
    idx = np.array(kept, dtype=int)
    return p[idx], c[idx]
