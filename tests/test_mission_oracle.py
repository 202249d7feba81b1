"""
The whole mission loop against its dense reference: the order targets
enter the factor, each cycle's EM against the model grown so far, and
thinning, over chained dives.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfield import gp
from driftfield.flowfield import Vec2
from driftfield.gp import DEFAULT_TARGET_NOISE_VAR
from driftfield.kernels import HyperParams, KernelKind, build_block_matrix
from driftfield.simulator import Cycle, MissionLog
from driftfield.estimator import EmConfig, iter_process_mission, process_mission
from oracles import dense_process_mission

HP = HyperParams(lengthscale=35000.0, current_variance=0.5, gps_noise_std=3.0)


def chained_dives(rng, step_counts):
    """Dives of the given step counts, 100-1000 m a step, each starting at the last fix."""
    cycles, start = [], np.zeros(2)
    for n in step_counts:
        dt = rng.uniform(60.0, 600.0)
        heading = rng.uniform(0.0, 2.0 * np.pi, n)
        steps = rng.uniform(100.0, 1000.0, (n, 1)) * np.column_stack([np.cos(heading), np.sin(heading)])
        dr = start + np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
        fix = dr[-1] + n * dt * rng.uniform(-0.3, 0.3, 2)
        cycles.append(Cycle(dt, dr, Vec2(*fix.tolist())))
        start = fix
    return MissionLog(cycles)


@st.composite
def missions(draw):
    """2-5 chained dives of 3-12 steps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return chained_dives(rng, draw(st.lists(st.integers(3, 12), min_size=2, max_size=5)))


@given(
    missions(),
    st.sampled_from(list(KernelKind)),
    st.floats(0.0, HP.lengthscale / 5),
    st.integers(1, 4),
)
@settings(max_examples=60, deadline=None)
def test_matches_dense_mission(log, kind, spacing, max_iters):
    # No delta but an exact 0 falls below this tolerance, so both sides run
    # max_iters iterations unless one lands on an exact fixed point.
    cfg = EmConfig(max_iters=max_iters, convergence_tol=5e-324, pseudo_target_spacing=spacing)
    assert_matches_dense_mission(log, kind, cfg)


@pytest.mark.parametrize("kind", list(KernelKind))
def test_matches_dense_mission_in_small_blocks(kind, monkeypatch):
    # Every step becomes a target, so the factor grows by 12, 7, 12 and 9
    # targets in blocks of 3: the second append leaves a last block of one
    # target, which the third and fourth appends extend.
    monkeypatch.setattr(gp, "GROW_BLOCK_TARGETS", 3)
    log = chained_dives(np.random.default_rng(19), [12, 7, 12, 9])
    cfg = EmConfig(max_iters=3, convergence_tol=5e-324, pseudo_target_spacing=0.0)
    assert_matches_dense_mission(log, kind, cfg)


# Eight dives of 12 steps, every step a target: with N at 12 after the
# first cycle the model is exact, and by the second or third it passes the
# cost rule's threshold (F^2 <= 100 N, F 36-66 here) and takes the weight
# space, so one mission runs both forms.
SWITCH_SEEDS = (20, 21, 22)
SWITCH_CFG = EmConfig(max_iters=3, convergence_tol=5e-324, pseudo_target_spacing=0.0)


def switching_mission(seed, kind):
    """A mission from SWITCH_SEEDS, after checking that it switches form."""
    log = chained_dives(np.random.default_rng(seed), [12] * 8)
    exact = [model._space is None for model, _ in iter_process_mission(log, HP, kind, SWITCH_CFG)]
    assert exact[0] and not exact[-1] and exact == sorted(exact, reverse=True)
    return log


@pytest.mark.parametrize("kind", list(KernelKind))
@pytest.mark.parametrize("seed", SWITCH_SEEDS)
def test_matches_dense_mission_across_the_switch(seed, kind):
    assert_matches_dense_mission(switching_mission(seed, kind), kind, SWITCH_CFG)


def assert_matches_dense_mission(log, kind, cfg):
    model, states = process_mission(log, HP, kind, cfg)
    pos, cur, dense_states = dense_process_mission(log, HP, kind, cfg)
    # Both sides are backward stable, so they agree to about cond * eps
    # relative to each array's scale, as in test_gp.py's
    # assert_matches_dense_factor, where the noisy Gram matrix has
    # cond <= 1 + 2N var / noise. Each EM iteration and cycle carries the
    # last one's error forward: the worst of 1500 examples was 5.4 cond * eps.
    cond = 1.0 + 2 * len(pos) * HP.current_variance / DEFAULT_TARGET_NOISE_VAR
    tol = 100 * cond * np.finfo(float).eps
    for state, (x, w), cycle in zip(states, dense_states, log.cycles):
        assert state.error is None
        moved = x - cycle.dead_reckoned
        np.testing.assert_allclose(state.trajectory - cycle.dead_reckoned, moved, rtol=tol,
                                   atol=tol * np.abs(moved).max())
        np.testing.assert_allclose(state.currents, w, rtol=tol, atol=tol * np.abs(w).max())
    assert model.num_targets == len(pos)
    query = np.array([[0.0, 0.0], [5e3, -2e3], [-8e3, 1.1e4]])
    gram = build_block_matrix(HP, kind, pos, pos) + DEFAULT_TARGET_NOISE_VAR * np.eye(2 * len(pos))
    want = (build_block_matrix(HP, kind, pos, query).T @ np.linalg.solve(gram, cur.reshape(-1))).reshape(-1, 2)
    np.testing.assert_allclose(model.predict_mean(query), want, rtol=tol, atol=tol * np.abs(cur).max())
