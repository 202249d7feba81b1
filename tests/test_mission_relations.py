"""
Whole-mission metamorphic relations. Both kernels are stationary and
isotropic, so moving every dead-reckoned point, fix and query point by a
rotation by 90 degrees, a mirror in x or a translation must move the
estimate the same way and keep the same targets. These need no oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfield.estimator import EmConfig, process_mission
from driftfield.flowfield import Vec2
from driftfield.gp import DEFAULT_TARGET_NOISE_VAR
from driftfield.kernels import KernelKind
from driftfield.simulator import Cycle, MissionLog
from test_mission_oracle import HP, SWITCH_CFG, SWITCH_SEEDS, missions, switching_mission

QUERY = np.array([[0.0, 0.0], [5e3, -2e3], [-8e3, 1.1e4]])
ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])
MIRROR_X = np.array([[-1.0, 0.0], [0.0, 1.0]])


def moved_log(log, move):
    return MissionLog([Cycle(c.dt, move(c.dead_reckoned), Vec2(*move(c.gps_fix.as_array()).tolist()))
                       for c in log.cycles])


def run(log, kind, spacing, max_iters):
    # No delta but an exact 0 falls below this tolerance, so both runs take
    # max_iters iterations, as in the mission oracle.
    cfg = EmConfig(max_iters=max_iters, convergence_tol=5e-324, pseudo_target_spacing=spacing)
    model, states = process_mission(log, HP, kind, cfg)
    assert all(state.error is None for state in states)
    return model, states


def assert_relation(log, kind, spacing, max_iters, move, turn, exact=False):
    """
    The mission on `move`d points against `move` of the mission's
    estimate: trajectories move with the points, and currents turn by the
    linear part `turn`.
    """
    model, states = run(log, kind, spacing, max_iters)
    got_model, got_states = run(moved_log(log, move), kind, spacing, max_iters)
    assert got_model.num_targets == model.num_targets
    want_mean = model.predict_mean(QUERY) @ turn.T
    got_mean = got_model.predict_mean(move(QUERY))
    if exact:
        for state, got in zip(states, got_states):
            np.testing.assert_array_equal(got.trajectory, move(state.trajectory))
            np.testing.assert_array_equal(got.currents, state.currents @ turn.T)
        np.testing.assert_array_equal(got_mean, want_mean)
        return
    # The moved Gram matrix rounds differently, so the two runs agree to
    # about cond * eps relative to each array's scale, the mission
    # oracle's tolerance.
    cond = 1.0 + 2 * model.num_targets * HP.current_variance / DEFAULT_TARGET_NOISE_VAR
    tol = 100 * cond * np.finfo(float).eps
    for state, got, cycle in zip(states, got_states, log.cycles):
        moved = state.trajectory - cycle.dead_reckoned
        got_moved = got.trajectory - move(cycle.dead_reckoned)
        np.testing.assert_allclose(got_moved, moved @ turn.T, rtol=tol, atol=tol * np.abs(moved).max())
        np.testing.assert_allclose(got.currents, state.currents @ turn.T, rtol=tol,
                                   atol=tol * np.abs(state.currents).max())
    scale = np.abs(model.currents).max(initial=0.0)
    np.testing.assert_allclose(got_mean, want_mean, rtol=tol, atol=tol * scale)


mission_args = (missions(), st.sampled_from(list(KernelKind)), st.floats(0.0, HP.lengthscale / 5),
                st.integers(1, 3))


@given(*mission_args)
@settings(max_examples=25, deadline=None)
def test_rotation_by_90_degrees(log, kind, spacing, max_iters):
    assert_relation(log, kind, spacing, max_iters, lambda p: p @ ROT90.T, ROT90)


@given(*mission_args)
@settings(max_examples=25, deadline=None)
def test_mirror_in_x_is_exact(log, kind, spacing, max_iters):
    # Negating x negates the off-diagonal kernel blocks exactly, and a sign
    # change commutes with every rounding, so the runs agree bit for bit.
    assert_relation(log, kind, spacing, max_iters, lambda p: p @ MIRROR_X.T, MIRROR_X, exact=True)


MOVES = {
    "rotation_by_90_degrees": (lambda p: p @ ROT90.T, ROT90, False),
    "mirror_in_x_is_exact": (lambda p: p @ MIRROR_X.T, MIRROR_X, True),
    "translation": (lambda p: p + [3.1e5, -7.7e4], np.eye(2), False),
}


@pytest.mark.parametrize("kind", list(KernelKind))
@pytest.mark.parametrize("seed", SWITCH_SEEDS)
@pytest.mark.parametrize("relation", sorted(MOVES))
def test_across_the_switch(relation, seed, kind):
    # The moved mission switches form at the same cycle: its region is the
    # moved one, and a mirror or a quarter turn moves the bounding box's
    # centre exactly and keeps every distance from it. Mirrored rows psi_(a,b)
    # only change sign, so the mirror still holds bit for bit.
    move, turn, exact = MOVES[relation]
    cfg = SWITCH_CFG
    assert_relation(switching_mission(seed, kind), kind, cfg.pseudo_target_spacing, cfg.max_iters,
                    move, turn, exact=exact)


@given(*mission_args, st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
@settings(max_examples=25, deadline=None)
def test_translation(log, kind, spacing, max_iters, dx, dy):
    offset = np.array([dx, dy])
    assert_relation(log, kind, spacing, max_iters, lambda p: p + offset, np.eye(2))
