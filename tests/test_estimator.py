import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftfield import kernels
from driftfield.flowfield import AnalyticField, Vec2, eval_field_many, random_gyre
from driftfield.gp import DEFAULT_TARGET_NOISE_VAR, GpModel
from driftfield.kernels import HyperParams, KernelKind
from driftfield.simulator import Cycle, MissionLog, VehicleConfig, run_mission
from driftfield.estimator import (
    EmConfig,
    EmState,
    e_step,
    iter_process_mission,
    m_step,
    process_mission,
    run_em_cycle,
)
from oracles import dense_m_step

HP = HyperParams(lengthscale=35000.0, current_variance=0.5, gps_noise_std=3.0)
HP_EXACT = HyperParams(lengthscale=35000.0, current_variance=0.5, gps_noise_std=0.0)


def steps_matrix(n: int, dt: float) -> np.ndarray:
    # the drift measurement matrix: drift = dt * (W[0] + ... + W[n-1])
    return dt * np.tile(np.eye(2), n)


def uniform_cycle(current=Vec2(0.08, -0.05), leg=Vec2(5000.0, 0.0)):
    cfg = VehicleConfig(waypoints=(leg,), gps_noise_std=0.0)
    return run_mission(cfg, AnalyticField(current=(current.x, current.y)), seed=0).cycles[0]


class TestEStep:
    def test_zero_currents_identity(self):
        dr = [Vec2(0.0, 0.0), Vec2(21.0, 0.0), Vec2(42.0, 0.0)]
        x = e_step(dr, np.zeros((2, 2)), dt=60.0)
        np.testing.assert_array_equal(x, [[0, 0], [21, 0], [42, 0]])

    def test_constant_current_accumulates_linearly(self):
        dr = [Vec2(0.0, 0.0), Vec2(21.0, 0.0), Vec2(42.0, 0.0), Vec2(63.0, 0.0)]
        c = np.array([0.1, -0.2])
        x = e_step(dr, np.tile(c, (3, 1)), dt=60.0)
        for m in range(4):
            np.testing.assert_allclose(x[m], [21.0 * m, 0.0] + m * 60.0 * c, atol=1e-12)

    def test_true_currents_recover_truth_trajectory(self):
        # with exact fixes and the true currents along the true path, the
        # reconstruction telescopes back to the truth
        fld = random_gyre(17)
        cfg = VehicleConfig(waypoints=(Vec2(5000.0, 0.0), Vec2(5000.0, 5000.0)), gps_noise_std=0.0)
        log = run_mission(cfg, fld, seed=2)
        for cycle, path in zip(log.cycles, log.truth_trajectories):
            w_true = eval_field_many(fld, path[:-1])
            x = e_step(cycle.dead_reckoned, w_true, cycle.dt)
            assert np.abs(x - path).max() < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="2 track points need 1 currents, got 2"):
            e_step([Vec2(0, 0), Vec2(1, 0)], np.zeros((2, 2)), dt=60.0)


class _DegenerateModel:
    # predictive covariance identically zero and no GPS noise: the
    # innovation covariance cannot be inverted
    hp = HyperParams(35000.0, 0.5, 0.0)

    def predict_sum(self, pts):
        n = np.asarray(pts, dtype=float).shape[0]
        return np.zeros(2), np.zeros((2, 2)), lambda v: np.zeros((n, 2))


class TestMStep:
    def test_single_step_recovers_average_current(self):
        # n = 1, empty prior, nearly exact GPS: drift / dt
        hp = HyperParams(35000.0, 0.5, 1e-6)
        drift = Vec2(30.0, -12.0)
        w, _ = m_step(GpModel(hp), [Vec2(0, 0), Vec2(21, 0)], drift, dt=60.0)
        assert abs(w[0, 0] - 0.5) < 1e-6
        assert abs(w[0, 1] - (-0.2)) < 1e-6

    def test_zero_innovation_returns_prior_mean(self):
        model = GpModel(HP).add_targets([[0.0, 0.0], [3000.0, 1000.0]], [[0.2, 0.1], [0.15, 0.12]])
        traj = np.array([[500.0, 0.0], [1500.0, 200.0], [2500.0, 400.0], [3500.0, 600.0]])
        mu = model.predict_mean(traj[:3]).reshape(-1)
        c = steps_matrix(3, 60.0)
        drift = Vec2(*(c @ mu))
        w, _ = m_step(model, traj, drift, dt=60.0)
        np.testing.assert_allclose(w.reshape(-1), mu, atol=1e-12)

    def test_huge_gps_noise_ignores_measurement(self):
        hp = HyperParams(35000.0, 0.5, 1e9)
        model = GpModel(hp).add_targets([[0.0, 0.0]], [[0.3, -0.1]])
        traj = np.array([[100.0, 0.0], [200.0, 0.0], [300.0, 0.0]])
        mu = model.predict_mean(traj[:2])
        w, _ = m_step(model, traj, Vec2(5000.0, 5000.0), dt=60.0)
        np.testing.assert_allclose(w, mu, atol=1e-9)

    def test_result_maximises_the_posterior(self):
        # independent oracle: the returned W must be a stationary point of
        # log p(W) + log p(drift | W); check the gradient and that random
        # perturbations only lower the objective
        rng = np.random.default_rng(4)
        # spacing comparable to the lengthscale keeps the prior covariance
        # well conditioned, so the gradient check is numerically meaningful
        traj = np.array([[0.0, 0.0], [30e3, -10e3], [60e3, 5e3], [90e3, -20e3], [120e3, 0.0]])
        drift = Vec2(400.0, 150.0)
        dt = 60.0
        model = GpModel(HP)
        w, _ = m_step(model, traj, drift, dt)
        w_flat = w.reshape(-1)
        mu, sigma = model.predict(traj[:4])
        mu = mu.reshape(-1)
        c = steps_matrix(4, dt)
        sy2 = HP.gps_noise_std**2

        def objective(vec):
            misfit = drift.as_array() - c @ vec
            return -0.5 * (vec - mu) @ np.linalg.solve(sigma, vec - mu) - 0.5 * misfit @ misfit / sy2

        grad = -np.linalg.solve(sigma, w_flat - mu) + c.T @ (drift.as_array() - c @ w_flat) / sy2
        assert np.abs(grad).max() < 1e-9
        best = objective(w_flat)
        for _ in range(20):
            step = rng.normal(0, 1e-3, size=w_flat.shape)
            assert objective(w_flat + step) < best

    def test_posterior_covariance_symmetric_psd(self):
        # S must be C Sigma C^T + sy^2 I for the full predictive covariance
        # Sigma at the trajectory points, symmetric and positive definite
        cycle = uniform_cycle()
        traj = cycle.dead_reckoned
        model = GpModel(HP).add_targets([[0.0, 0.0], [3000.0, 1000.0]], [[0.2, 0.1], [0.15, 0.12]])
        _, s_mat = m_step(model, traj, cycle.drift, cycle.dt)
        assert s_mat.shape == (2, 2)
        np.testing.assert_array_equal(s_mat, s_mat.T)
        n = cycle.num_steps
        _, sigma = model.predict(traj[:n])
        c = steps_matrix(n, cycle.dt)
        dense = c @ sigma @ c.T + HP.gps_noise_std**2 * np.eye(2)
        np.testing.assert_allclose(s_mat, dense, rtol=1e-10)
        # the GP term dominates the noise floor, so positive definiteness
        # is not inherited from sy^2 I alone
        assert np.linalg.eigvalsh(s_mat - HP.gps_noise_std**2 * np.eye(2)).min() > 1e3
        assert np.linalg.eigvalsh(s_mat).min() > 0

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_matches_dense_update(self, kind):
        # oracle: the dense Kalman update over the full (2n, 2n) predictive
        # covariance, on a gyre cycle with a trained model
        fld = random_gyre(5)
        cfg = VehicleConfig(waypoints=(Vec2(5000.0, 0.0), Vec2(5000.0, 5000.0)), gps_noise_std=3.0)
        log = run_mission(cfg, fld, seed=4)
        model, _ = process_mission(MissionLog(log.cycles[:1]), HP, kind)
        assert model.num_targets > 0
        cycle = log.cycles[1]
        traj = cycle.dead_reckoned
        n = cycle.num_steps
        mu, sigma = model.predict(traj[:n])
        mu = mu.reshape(-1)
        c = steps_matrix(n, cycle.dt)
        s_mat = c @ sigma @ c.T + HP.gps_noise_std**2 * np.eye(2)
        gain = sigma @ c.T @ np.linalg.inv(s_mat)
        w_dense = (mu + gain @ (cycle.drift.as_array() - c @ mu)).reshape(-1, 2)
        w, _ = m_step(model, traj, cycle.drift, cycle.dt)
        np.testing.assert_allclose(w, w_dense, rtol=1e-10, atol=1e-10 * np.abs(w_dense).max())

    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize(
        ("path", "targets"),
        [
            # 150 targets over 30 km about the leg: the series
            ("series", np.random.default_rng(31).uniform(-1.5e4, 1.5e4, size=(150, 2))),
            # 6 targets over 3.4 lengthscales: the series' 55 monomial rows
            # a point cost more than the 6 pairs and the dive's own series
            ("dense", np.random.default_rng(32).uniform(-6e4, 6e4, size=(6, 2))),
            # no targets: the dive's own series
            ("series", np.empty((0, 2))),
        ],
        ids=["series", "dense", "empty"],
    )
    def test_matches_dense_oracle(self, kind, path, targets, monkeypatch):
        # a 120-step dive on a 4 km leg, as `test_gp.py`'s paths
        rng = np.random.default_rng(33)
        cur = eval_field_many(random_gyre(3), targets)
        model = GpModel(HP, kind, targets, cur)
        traj = np.linspace(0.0, 1.0, 121)[:, None] * [3200.0, 2400.0] + [2e3, -4e3]
        traj[1:-1] += rng.normal(0.0, 30.0, size=(119, 2))
        drift, dt = Vec2(150.0, -90.0), 60.0
        want_w, want_s = dense_m_step(HP, kind, targets, cur, traj, drift, dt)
        calls, blocks = [], kernels._kernel_blocks

        def recording(hp, kind, a, b):
            calls.append((len(a), len(b)))
            return blocks(hp, kind, a, b)

        monkeypatch.setattr(kernels, "_kernel_blocks", recording)
        w, s_mat = m_step(model, traj, drift, dt)
        assert calls == ([] if path == "series" else [(len(targets), 120)])
        # Both sides are backward stable, so they agree to about cond * eps
        # relative to each array's scale, as in the mission oracle.
        cond = 1.0 + 2 * len(targets) * HP.current_variance / DEFAULT_TARGET_NOISE_VAR
        tol = 100 * cond * np.finfo(float).eps
        np.testing.assert_allclose(w, want_w, rtol=tol, atol=tol * np.abs(want_w).max())
        np.testing.assert_allclose(s_mat, want_s, rtol=tol, atol=tol * np.abs(want_s).max())

    def test_non_finite_innovation_covariance_raises(self):
        # dt^2 times the prior variance, or the squared GPS noise, overflows
        # the 2x2 innovation covariance; the update must fail, not return
        # the prior mean, and the message names the variance
        traj = [Vec2(0, 0), Vec2(21, 0), Vec2(42, 0)]
        huge_noise = HyperParams(35000.0, 0.5, 1e200)
        huge_variance = HyperParams(35000.0, 1e306, 3.0)
        for hp, dt in ((HP, 1e300), (huge_noise, 60.0), (huge_variance, 60.0)):
            match = re.escape(
                "innovation covariance is not finite "
                f"(dt = {dt} s, GPS noise {hp.gps_noise_std} m, lengthscale {hp.lengthscale} m, "
                f"current variance {hp.current_variance} m^2/s^2)"
            )
            with pytest.raises(FloatingPointError, match=match):
                m_step(GpModel(hp), traj, Vec2(2.0, 1.0), dt=dt)

    @pytest.mark.parametrize("num_targets", [0, 20])
    def test_non_finite_trajectory_point_is_a_floating_point_error(self, num_targets):
        # the same isolated numerical failure with or without targets
        rng = np.random.default_rng(7)
        pts = rng.uniform(-4e4, 4e4, size=(num_targets, 2))
        model = GpModel(HP, KernelKind.INCOMPRESSIBLE, pts, eval_field_many(random_gyre(3), pts))
        traj = np.array([[0.0, 0.0], [np.nan, 0.0], [42.0, 0.0]])
        with pytest.raises(FloatingPointError, match="innovation covariance is not finite"):
            m_step(model, traj, Vec2(2.0, 1.0), dt=60.0)

    def test_singular_innovation(self):
        with pytest.raises(np.linalg.LinAlgError, match="innovation covariance is singular"):
            m_step(_DegenerateModel(), [Vec2(0, 0), Vec2(21, 0)], Vec2(1.0, 0.0), dt=60.0)

    def test_short_trajectory_rejected(self):
        with pytest.raises(ValueError):
            m_step(GpModel(HP), [Vec2(0, 0)], Vec2(0, 0), dt=60.0)


@st.composite
def em_problems(draw, gps_noise_std=3.0):
    """A model with 0-10 targets, a random-walk trajectory of 1-25 steps, dt and a drift."""
    hp = HyperParams(35000.0, 0.5, gps_noise_std)
    coord = st.floats(-4e4, 4e4)
    current = st.floats(-0.5, 0.5)
    num_targets = draw(st.integers(0, 10))
    pts = np.array([[draw(coord), draw(coord)] for _ in range(num_targets)]).reshape(-1, 2)
    uv = np.array([[draw(current), draw(current)] for _ in range(num_targets)]).reshape(-1, 2)
    model = GpModel(hp, draw(st.sampled_from(list(KernelKind))), pts, uv)
    step = st.floats(-600.0, 600.0)
    moves = [[draw(step), draw(step)] for _ in range(draw(st.integers(1, 25)))]
    traj = np.cumsum([[draw(coord), draw(coord)]] + moves, axis=0)
    drift = Vec2(draw(st.floats(10.0, 500.0)), draw(st.floats(-500.0, 500.0)))
    return model, traj, drift, draw(st.floats(10.0, 120.0))


class TestEmInvariants:
    @given(em_problems(gps_noise_std=0.0))
    @settings(max_examples=100, deadline=None)
    def test_exact_fix_reproduces_the_drift(self, problem):
        model, traj, drift, dt = problem
        w, _ = m_step(model, traj, drift, dt)
        residual = np.linalg.norm(dt * w.sum(axis=0) - drift.as_array())
        assert residual <= 1e-9 * math.hypot(drift.x, drift.y)

    @given(em_problems(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    # five targets within 3 m of each other and a 12-point dive 11 km away:
    # reordering the dive changes the kernel sums by summation order alone,
    # and the solve against the nearly singular Gram matrix amplifies that
    # to 1.6e-12 in a current of 0.036 m/s
    @example(problem=(GpModel(HP, KernelKind.STANDARD_DIAGONAL,
                              [[-11528.9, -21641.7], [-11526.9, -21643.5], [-11527.0, -21644.1],
                               [-11527.7, -21642.0], [-11529.2, -21642.4], [-22249.3, -10467.6],
                               [25323.6, 33753.1], [36179.7, -25361.3], [-34394.2, -10170.3]],
                              [[0.5, -0.5], [-0.5, -0.5], [0.25, 0.25], [0.5, 0.5], [0.0, -0.5],
                               [0.25, 0.5], [-0.5, 0.0], [-0.5, -0.5], [0.5, -0.5]]),
                      np.array([[-15220.0, -32005.0], [-15736.0, -31562.0], [-15867.0, -31845.0],
                                [-15388.0, -31779.0], [-15853.0, -31869.0], [-15777.0, -31579.0],
                                [-15318.0, -31396.0], [-15810.0, -31616.0], [-15630.0, -31651.0],
                                [-15202.0, -31515.0], [-15597.0, -31541.0], [-15696.0, -32016.0],
                                [-15534.0, -32410.0]]),
                      Vec2(36.0, 0.0), 98.0),
             rnd=random.Random(19))
    def test_m_step_is_permutation_equivariant(self, problem, rnd):
        # the drift sums the currents, so reordering the left endpoints
        # reorders the currents and changes nothing else
        model, traj, drift, dt = problem
        n = traj.shape[0] - 1
        perm = list(range(n))
        rnd.shuffle(perm)
        w, _ = m_step(model, traj, drift, dt)
        w_perm, _ = m_step(model, np.vstack([traj[perm], traj[-1:]]), drift, dt)
        # Both orders round to about cond * eps relative to the currents'
        # scale, as in the mission oracle, where the noisy Gram matrix has
        # cond <= 1 + 2N var / noise: a current near 0 is not covered by rtol.
        cond = 1.0 + 2 * model.num_targets * model.hp.current_variance / DEFAULT_TARGET_NOISE_VAR
        tol = 100 * cond * np.finfo(float).eps
        np.testing.assert_allclose(w_perm, w[perm], rtol=1e-9, atol=tol * np.abs(w).max())

    @given(em_problems())
    @settings(max_examples=100, deadline=None)
    def test_e_step_endpoint_adds_the_summed_currents(self, problem):
        model, dr, drift, dt = problem
        w, _ = m_step(model, dr, drift, dt)
        x = e_step(dr, w, dt)
        np.testing.assert_allclose(x[-1], dr[-1] + dt * w.sum(axis=0), rtol=1e-12, atol=1e-9)
        np.testing.assert_array_equal(x[0], dr[0])


class TestRunEmCycle:
    def test_uniform_current_recovered_pointwise(self):
        cycle = uniform_cycle()
        state = run_em_cycle(GpModel(HP_EXACT), cycle, EmConfig())
        assert state.converged
        w = state.currents
        np.testing.assert_allclose(w, np.tile([0.08, -0.05], (cycle.num_steps, 1)), atol=5e-3)
        # reconstructed endpoint lands on the (exact) fix
        assert np.linalg.norm(state.trajectory[-1] - cycle.gps_fix.as_array()) < 1e-9

    def test_zero_drift_keeps_track_and_zero_currents(self):
        cfg = VehicleConfig(waypoints=(Vec2(3000.0, 0.0),), gps_noise_std=0.0)
        cycle = run_mission(cfg, AnalyticField(), seed=0).cycles[0]
        state = run_em_cycle(GpModel(HP_EXACT), cycle, EmConfig())
        assert state.converged
        w = state.currents
        np.testing.assert_array_equal(w, np.zeros_like(w))
        np.testing.assert_array_equal(state.trajectory, cycle.dead_reckoned)

    def test_gyre_cycle_drift_residual_small(self):
        fld = random_gyre(3)
        cfg = VehicleConfig(waypoints=(Vec2(5000.0, 0.0),), gps_noise_std=3.0)
        cycle = run_mission(cfg, fld, seed=11).cycles[0]
        state = run_em_cycle(GpModel(HP), cycle, EmConfig())
        w = state.currents
        resid = np.linalg.norm(cycle.dt * w.sum(axis=0) - cycle.drift.as_array())
        assert resid <= max(HP.gps_noise_std, 1e-3)

    def test_residual_descends_across_iterations(self):
        fld = random_gyre(19)
        cfg = VehicleConfig(waypoints=(Vec2(6000.0, 2000.0),), gps_noise_std=3.0)
        cycle = run_mission(cfg, fld, seed=6).cycles[0]
        model = GpModel(HP)
        dr = cycle.dead_reckoned
        c = steps_matrix(cycle.num_steps, cycle.dt)
        x = dr.copy()
        residuals = []
        for _ in range(6):
            w, _ = m_step(model, x, cycle.drift, cycle.dt)
            residuals.append(np.linalg.norm(cycle.drift.as_array() - c @ w.reshape(-1)))
            x = e_step(dr, w, cycle.dt)
        for earlier, later in zip(residuals, residuals[1:]):
            assert later <= earlier + 1e-9

    def test_pure_function_of_inputs(self):
        cycle = uniform_cycle()
        model = GpModel(HP)
        a = run_em_cycle(model, cycle, EmConfig())
        b = run_em_cycle(model, cycle, EmConfig())
        # field by field: dataclass equality is ambiguous on array fields
        assert (a.iteration, a.converged, a.delta, a.error) == (b.iteration, b.converged, b.delta, b.error)
        np.testing.assert_array_equal(a.trajectory, b.trajectory)
        np.testing.assert_array_equal(a.currents, b.currents)

    def test_non_finite_result_is_a_numerical_failure(self):
        # finite inputs whose E-step overflows: the failure must be raised
        # as a numerical one, not stored as NaN currents
        cycle = Cycle(60.0, [[0.0, 0.0], [1e308, 0.0], [-7e307, 0.0]], Vec2(1e308, 0.0))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(FloatingPointError):
            run_em_cycle(GpModel(HP), cycle, EmConfig())

    def test_overflowing_lag_is_a_far_pair(self):
        # the first two points lie 2e308 m apart, a lag that overflows to
        # inf and clips to 40 lengthscales like any far one; the 4 m drift
        # over 120 s gives a finite current in v
        cycle = Cycle(60.0, [[-1e308, 0.0], [1e308, 0.0], [1e308, 1.0]], Vec2(1e308, 5.0))
        state = run_em_cycle(GpModel(HP), cycle, EmConfig())
        assert state.converged and state.error is None
        np.testing.assert_allclose(state.currents, [[0.0, 0.0333], [0.0, 0.0333]], rtol=0, atol=5e-4)

    def test_iteration_cap_respected(self):
        cycle = uniform_cycle()
        state = run_em_cycle(GpModel(HP_EXACT), cycle, EmConfig(max_iters=1, convergence_tol=1e-12))
        assert state.iteration == 1
        assert not state.converged


class TestEmState:
    def test_length_invariant(self):
        with pytest.raises(ValueError):
            EmState(1, np.zeros((2, 2)), np.zeros((0, 2)), True, 0.0)

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            EmState(1, np.zeros((2, 2)), np.zeros((1, 2)), True, -1.0)


class TestEmConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EmConfig(max_iters=0)
        with pytest.raises(ValueError):
            EmConfig(convergence_tol=0.0)
        with pytest.raises(ValueError):
            EmConfig(pseudo_target_spacing=-1.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="convergence_tol must be positive and finite"):
                EmConfig(convergence_tol=bad)
            with pytest.raises(ValueError, match="pseudo_target_spacing must be >= 0 and finite"):
                EmConfig(pseudo_target_spacing=bad)

    def test_default_spacing_tracks_lengthscale(self):
        assert EmConfig().spacing_for(HP) == pytest.approx(1750.0)
        assert EmConfig(pseudo_target_spacing=500.0).spacing_for(HP) == 500.0


class TestProcessMission:
    def test_empty_log(self):
        model, states = process_mission(MissionLog([]), HP)
        assert model.num_targets == 0
        assert states == []

    def test_single_uniform_cycle_predicts_current_nearby(self):
        c = Vec2(0.08, -0.05)
        cfg = VehicleConfig(waypoints=(Vec2(5000.0, 0.0),), gps_noise_std=0.0)
        log = run_mission(cfg, AnalyticField(current=(c.x, c.y)), seed=0)
        model, states = process_mission(log, HP_EXACT)
        assert states[0].converged
        assert model.num_targets >= 2
        pred = model.predict_mean([[2500.0, 0.0], [1000.0, 500.0]])
        np.testing.assert_allclose(pred, np.tile([c.x, c.y], (2, 1)), atol=5e-3)

    def test_drift_consistency_every_cycle(self):
        fld = random_gyre(29)
        cfg = VehicleConfig(
            waypoints=(Vec2(5000.0, 0.0), Vec2(5000.0, 5000.0), Vec2(0.0, 5000.0), Vec2(0.0, 0.0)),
            gps_noise_std=3.0,
        )
        log = run_mission(cfg, fld, seed=8)
        _, states = process_mission(log, HP, cfg=EmConfig())
        assert len(states) == 4
        for cycle, state in zip(log.cycles, states):
            assert state.error is None
            w = state.currents
            resid = np.linalg.norm(cycle.dt * w.sum(axis=0) - cycle.drift.as_array())
            assert resid <= 3.0 * HP.gps_noise_std + EmConfig().convergence_tol

    def test_targets_thinned_to_spacing(self):
        cfg = VehicleConfig(waypoints=(Vec2(5000.0, 0.0),), gps_noise_std=0.0)
        log = run_mission(cfg, AnalyticField(current=(0.05, 0.02)), seed=0)
        spacing = 800.0
        model, _ = process_mission(log, HP_EXACT, cfg=EmConfig(pseudo_target_spacing=spacing))
        pts = model.positions
        assert pts.shape[0] > 1
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        d[np.diag_indices_from(d)] = np.inf
        assert d.min() >= spacing

    def test_failed_cycle_recorded_and_skipped(self, monkeypatch):
        import driftfield.estimator as est_mod

        fld = AnalyticField(current=(0.05, 0.0))
        cfg = VehicleConfig(waypoints=(Vec2(3000.0, 0.0), Vec2(6000.0, 0.0)), gps_noise_std=0.0)
        log = run_mission(cfg, fld, seed=0)
        real = est_mod.run_em_cycle
        calls = []

        def flaky(model, cycle, emcfg):
            calls.append(cycle)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("forced")
            return real(model, cycle, emcfg)

        monkeypatch.setattr(est_mod, "run_em_cycle", flaky)
        model, states = process_mission(log, HP_EXACT)
        assert states[0].error is not None and "LinAlgError" in states[0].error
        assert not states[0].converged
        assert states[1].error is None
        assert model.num_targets > 0  # second cycle still contributed

    def test_failed_factorisation_isolated_to_cycle(self, monkeypatch):
        # appending the cycle's targets is part of the cycle: a Cholesky
        # failure there yields an error state and keeps the old model
        import driftfield.gp as gp_mod

        real = gp_mod.cholesky

        def fail_nonempty(a, *args, **kwargs):
            if a.size:
                raise np.linalg.LinAlgError("forced")
            return real(a, *args, **kwargs)

        cfg = VehicleConfig(waypoints=(Vec2(3000.0, 0.0), Vec2(6000.0, 0.0)), gps_noise_std=0.0)
        log = run_mission(cfg, AnalyticField(current=(0.05, 0.0)), seed=0)
        monkeypatch.setattr(gp_mod, "cholesky", fail_nonempty)
        steps = iter_process_mission(log, HP_EXACT)
        model, state = next(steps)
        assert state.error is not None and "LinAlgError" in state.error
        assert model.num_targets == 0
        monkeypatch.setattr(gp_mod, "cholesky", real)
        model, state = next(steps)
        assert state.error is None and model.num_targets > 0

    @pytest.mark.parametrize("bug", [RuntimeError, ValueError])
    def test_programming_error_propagates(self, monkeypatch, bug):
        # only numerical failures are isolated to their cycle; a bug must
        # not turn into an error state. LinAlgError is a ValueError, so a
        # plain one must still propagate.
        import driftfield.estimator as est_mod

        def broken(model, cycle, emcfg):
            raise bug("bug")

        monkeypatch.setattr(est_mod, "run_em_cycle", broken)
        cfg = VehicleConfig(waypoints=(Vec2(3000.0, 0.0),), gps_noise_std=0.0)
        log = run_mission(cfg, AnalyticField(current=(0.05, 0.0)), seed=0)
        with pytest.raises(bug, match="bug"):
            process_mission(log, HP_EXACT)

    def test_failed_cycle_logs_a_warning(self, monkeypatch, caplog):
        import driftfield.estimator as est_mod

        def overflow(*args, **kwargs):
            raise FloatingPointError("forced")

        monkeypatch.setattr(est_mod, "m_step", overflow)
        cfg = VehicleConfig(waypoints=(Vec2(3000.0, 0.0), Vec2(6000.0, 0.0)), gps_noise_std=0.0)
        log = run_mission(cfg, AnalyticField(current=(0.05, 0.0)), seed=0)
        with caplog.at_level("WARNING", logger="driftfield.estimator"):
            _, states = process_mission(log, HP_EXACT)
        assert all(s.error is not None for s in states)
        assert [r.getMessage() for r in caplog.records] == [
            f"cycle {i} failed: FloatingPointError: forced" for i in range(len(states))
        ]

    def test_cycle_at_iteration_cap_logs_a_warning(self, caplog):
        cfg = VehicleConfig(waypoints=(Vec2(3000.0, 0.0),), gps_noise_std=0.0)
        log = run_mission(cfg, AnalyticField(current=(0.05, 0.0)), seed=0)
        emcfg = EmConfig(max_iters=1, convergence_tol=1e-9)
        with caplog.at_level("WARNING", logger="driftfield.estimator"):
            _, states = process_mission(log, HP_EXACT, cfg=emcfg)
        assert not states[0].converged and states[0].delta > 0
        assert [r.getMessage() for r in caplog.records] == [
            f"cycle 0 stopped at the iteration cap (max_iters = 1), last delta {states[0].delta:.3g} m"
        ]

    def test_converged_cycles_log_nothing(self, caplog):
        cfg = VehicleConfig(waypoints=(Vec2(3000.0, 0.0),), gps_noise_std=0.0)
        log = run_mission(cfg, AnalyticField(current=(0.05, 0.0)), seed=0)
        with caplog.at_level("WARNING", logger="driftfield.estimator"):
            _, states = process_mission(log, HP_EXACT)
        assert states[0].converged
        assert caplog.records == []

    def test_iter_yields_growing_models(self):
        fld = random_gyre(31)
        cfg = VehicleConfig(waypoints=(Vec2(5000.0, 0.0), Vec2(5000.0, 5000.0)), gps_noise_std=3.0)
        log = run_mission(cfg, fld, seed=1)
        counts = [m.num_targets for m, _ in iter_process_mission(log, HP)]
        assert len(counts) == 2
        assert counts[0] >= 1
        assert counts[1] >= counts[0]


class TestIngestedFixture:
    def test_hand_built_constant_current_log_recovers_current(self, tmp_path):
        # two hand-written cycles with drift consistent with a 0.1 m/s
        # eastward current over 10 steps of 60 s each
        import json

        dt, n, u = 60.0, 10, 0.1
        drift = u * n * dt
        lines = []
        x0 = 0.0
        for _ in range(2):
            track = [[x0 + 21.0 * m, 0.0] for m in range(n + 1)]
            fix = [track[-1][0] + drift, 0.0]
            lines.append(json.dumps({"dt_s": dt, "dead_reckoned_m": track, "gps_fix_m": fix}))
            x0 = fix[0]
        path = tmp_path / "constant.jsonl"
        path.write_text("\n".join(lines) + "\n")

        from driftfield.simulator import ingest_cycles

        log = ingest_cycles(path)
        model, states = process_mission(log, HP_EXACT, cfg=EmConfig(pseudo_target_spacing=50.0))
        assert all(s.error is None for s in states)
        pred = model.predict_mean([[300.0, 0.0]])
        np.testing.assert_allclose(pred[0], [u, 0.0], atol=5e-3)
