"""
Current-field inversion from drift measurements by expectation
maximisation.

Each surfacing gives one drift vector: the time-integral of the unknown
current along a trajectory that is itself unknown (dead reckoning only
approximates it). EM untangles the two:

    E-step  rebuild the trajectory from the dead-reckoned track and the
            current estimates: X[m] = dr[m] + dt * sum_{j<m} W[j].
    M-step  hold the trajectory fixed and update the currents. The GP
            prior at the trajectory points (mean mu, covariance Sigma) is
            conditioned on the single linear measurement
            drift = C W + gps noise, C = dt * [I2 I2 ... I2]:

                S = C Sigma C^T + sy^2 I
                W = mu + Sigma C^T S^(-1) (drift - C mu)

            With m and V the posterior mean and covariance of the summed
            currents sum_j W_j, C mu = dt m and C Sigma C^T = dt^2 V, and
            row i of Sigma C^T S^(-1) (drift - C mu) is Cov(W_i, sum_j W_j) v
            for the one 2-vector v = dt S^(-1) (drift - C mu). With the
            trajectory points P and the GP's targets T and weights alpha,
            that is one weight vector on the targets:

                W = K(P, T) (alpha - beta v) + K(P, P) (1 v)

            where beta = K^(-1) K(T, P) 1 is one solve against two
            right-hand sides and 1 stacks n identities. Each M-step
            applies the trajectory-to-target kernel to one column; the
            (2n, 2n) trajectory covariance and its n 2x2 block row sums
            are never formed (the linear-observation case of Jidling et
            al. 2017, "Linearly constrained Gaussian processes").

Cycles are processed in order and past cycles are never revisited: the
converged currents of each cycle become fixed pseudo-targets in the GP
(thinned to a minimum spacing first, or the Gram matrix would fill with
nearly coincident rows).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from driftfield.flowfield import Vec2, as_xy, frozen_xy, non_negative, positive

# Unused, but perfbench/tracing.py wraps this name and fails without it;
# drop the import together with that trace point.
from driftfield.flowfield import to_vec2_list  # noqa: F401
from driftfield.gp import GpModel, downsample_targets
from driftfield.kernels import HyperParams, KernelKind
from driftfield.simulator import Cycle, MissionLog

__all__ = [
    "EmConfig",
    "EmState",
    "e_step",
    "m_step",
    "run_em_cycle",
    "iter_process_mission",
    "process_mission",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class EmConfig:
    """
    max_iters: EM iteration cap per cycle.
    convergence_tol: stop when no trajectory point moved more than this
        many metres in an iteration.
    pseudo_target_spacing: minimum spacing of stored targets, metres;
        None selects lengthscale / 20.
    """

    max_iters: int = 10
    convergence_tol: float = 1.0
    pseudo_target_spacing: float | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        positive("convergence_tol", self.convergence_tol)
        if self.pseudo_target_spacing is not None:
            non_negative("pseudo_target_spacing", self.pseudo_target_spacing)

    def spacing_for(self, hp: HyperParams) -> float:
        if self.pseudo_target_spacing is None:
            return hp.lengthscale / 20.0
        return self.pseudo_target_spacing


@dataclass(frozen=True)
class EmState:
    """
    Result of running EM on one cycle: read-only (n + 1, 2) trajectory (m)
    and (n, 2) currents (m/s). `error` is set when the cycle failed.
    """

    iteration: int
    trajectory: np.ndarray
    currents: np.ndarray
    converged: bool
    delta: float
    error: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "trajectory", frozen_xy(self.trajectory))
        object.__setattr__(self, "currents", frozen_xy(self.currents))
        if len(self.trajectory) != len(self.currents) + 1:
            raise ValueError("trajectory must have one more point than currents")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")


def e_step(dead_reckoned, currents, dt: float) -> np.ndarray:
    """
    Reconstruct the trajectory implied by the current estimates.

    Returns an (n+1, 2) array: the dead-reckoned track plus the
    accumulated current displacement, X[m] = dr[m] + dt * sum_{j<m} W[j].
    """
    dr = as_xy(dead_reckoned)
    w = as_xy(currents)
    if dr.shape[0] != w.shape[0] + 1:
        raise ValueError(f"{dr.shape[0]} track points need {dr.shape[0] - 1} currents, got {w.shape[0]}")
    x = dr.copy()
    x[1:] += dt * np.cumsum(w, axis=0)
    return x


def m_step(model: GpModel, trajectory, drift: Vec2, dt: float):
    """
    Closed-form current update given a fixed trajectory.

    Conditions the GP prior at the trajectory's left endpoints on the
    drift measurement. Returns (W, S): the updated currents as an (n, 2)
    array and the symmetric 2x2 innovation covariance
    C Sigma C^T + sy^2 I, in m^2. Raises `FloatingPointError` when S is
    not finite and `np.linalg.LinAlgError` when it is singular, which
    takes zero GPS noise and a degenerate predictive covariance.
    """
    x = as_xy(trajectory)
    if x.shape[0] < 2:
        raise ValueError("trajectory needs at least two points")
    # An overflow to inf or NaN in predict_sum's sums, the dt products or
    # np.square (where float ** would raise) is reported just below.
    with np.errstate(over="ignore", invalid="ignore"):
        mean_sum, cov_sum, update = model.predict_sum(x[:-1])
        c_sigma_ct = dt * (dt * cov_sum)
        s_mat = 0.5 * (c_sigma_ct + c_sigma_ct.T)
        s_mat.flat[::3] += np.square(model.hp.gps_noise_std)  # S's diagonal
    if not np.isfinite(s_mat).all():
        raise FloatingPointError(
            f"innovation covariance is not finite (dt = {dt} s, "
            f"GPS noise {model.hp.gps_noise_std} m, lengthscale {model.hp.lengthscale} m, "
            f"current variance {model.hp.current_variance} m^2/s^2)"
        )
    innov = drift.as_array() - dt * mean_sum
    try:
        v = dt * np.linalg.solve(s_mat, innov)
    except np.linalg.LinAlgError as err:
        raise np.linalg.LinAlgError(
            "innovation covariance is singular; zero GPS noise with a "
            "degenerate predictive covariance"
        ) from err
    # Sigma C^T S^-1 innov = Cov(W_i, sum_j W_j) v
    return update(v), s_mat


def run_em_cycle(model: GpModel, cycle: Cycle, cfg: EmConfig) -> EmState:
    """
    Alternate M and E steps on one cycle, starting from the dead-reckoned
    track, until the trajectory stops moving or the iteration cap hits.
    """
    dr = cycle.dead_reckoned
    x = dr.copy()
    converged = False
    for iteration in range(1, cfg.max_iters + 1):
        w, _ = m_step(model, x, cycle.drift, cycle.dt)
        # An overflow to inf or NaN in the trajectory is reported after
        # the loop; in the delta it only keeps the cycle iterating.
        with np.errstate(over="ignore", invalid="ignore"):
            x_new = e_step(dr, w, cycle.dt)
            # the largest step length, as the root of the largest square
            d = x_new - x
            d *= d
            delta = math.sqrt((d[:, 0] + d[:, 1]).max())
        x = x_new
        if delta < cfg.convergence_tol:
            converged = True
            break
    if not (np.isfinite(x).all() and np.isfinite(w).all()):
        raise FloatingPointError("EM produced non-finite currents or trajectory")
    return EmState(
        iteration=iteration,
        trajectory=x,
        currents=w,
        converged=converged,
        delta=delta,
    )


# Failures that stay isolated to their cycle; anything else is a bug and
# propagates. LinAlgError is a ValueError, but a plain ValueError (a bad
# shape, say) is a bug.
_NUMERICAL_FAILURES = (np.linalg.LinAlgError, FloatingPointError)


def _failed_state(cycle: Cycle, err: Exception) -> EmState:
    return EmState(
        iteration=0,
        trajectory=cycle.dead_reckoned,
        currents=np.zeros((cycle.num_steps, 2)),
        converged=False,
        delta=0.0,
        error=f"{type(err).__name__}: {err}",
    )


def iter_process_mission(
    log: MissionLog,
    hp: HyperParams,
    kind: KernelKind = KernelKind.INCOMPRESSIBLE,
    cfg: EmConfig = EmConfig(),
):
    """
    Process cycles in order, yielding (model, state) after each one.

    The model grows by the cycle's converged currents, placed at the
    reconstructed trajectory points and thinned to the configured
    spacing. A cycle that fails numerically (a `LinAlgError`, such as a
    singular innovation or a Cholesky factor that will not grow, or a
    `FloatingPointError`) yields an error state and leaves the model
    unchanged; later cycles still run. Any other exception
    propagates. A failed cycle, and one that reaches the iteration cap
    without converging, each log a warning naming the cycle's index.
    """
    model = GpModel(hp, kind)
    spacing = cfg.spacing_for(hp)
    for index, cycle in enumerate(log.cycles):
        try:
            state = run_em_cycle(model, cycle, cfg)
            kept_p, kept_w = downsample_targets(state.trajectory[:-1], state.currents, spacing)
            model = model.add_targets(kept_p, kept_w)
        except _NUMERICAL_FAILURES as err:
            state = _failed_state(cycle, err)
            logger.warning("cycle %d failed: %s", index, state.error)
        if state.error is None and not state.converged:
            logger.warning("cycle %d stopped at the iteration cap (max_iters = %d), last delta %.3g m",
                           index, state.iteration, state.delta)
        yield model, state


def process_mission(
    log: MissionLog,
    hp: HyperParams,
    kind: KernelKind = KernelKind.INCOMPRESSIBLE,
    cfg: EmConfig = EmConfig(),
):
    """Run the full mission; returns (final model, list of per-cycle states)."""
    model = GpModel(hp, kind)
    states = []
    for model, state in iter_process_mission(log, hp, kind, cfg):
        states.append(state)
    return model, states
