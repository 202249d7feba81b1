import numpy as np
import pytest

from driftfield.flowfield import AnalyticField, Vec2, divergence_fd, eval_field_many, random_gyre
from driftfield.gp import (
    DEFAULT_TARGET_NOISE_VAR,
    DimensionMismatch,
    FactorizationFailure,
    GpModel,
    downsample_targets,
)
from driftfield.kernels import HyperParams, KernelKind, build_block_matrix

HP = HyperParams(lengthscale=35000.0, current_variance=0.5, gps_noise_std=3.0)


def dense_posterior(model: GpModel, query: np.ndarray):
    # independent oracle: explicit inverse of the noisy Gram matrix
    k_dd = build_block_matrix(model.hp, model.kind, model.positions, model.positions)
    k_dd += model.target_noise_var * np.eye(k_dd.shape[0])
    k_dq = build_block_matrix(model.hp, model.kind, model.positions, query)
    k_qq = build_block_matrix(model.hp, model.kind, query, query)
    inv = np.linalg.inv(k_dd)
    y = model.currents.reshape(-1)
    mean = (k_dq.T @ inv @ y).reshape(-1, 2)
    cov = k_qq - k_dq.T @ inv @ k_dq
    return mean, cov


@pytest.fixture
def trained_model():
    rng = np.random.default_rng(11)
    field = random_gyre(3)
    pts = rng.uniform(-4e4, 4e4, size=(15, 2))
    return GpModel(HP, KernelKind.INCOMPRESSIBLE, pts, eval_field_many(field, pts))


class TestEmptyModel:
    def test_prior_prediction(self):
        m = GpModel(HP)
        mean, cov = m.predict([[0.0, 0.0], [1e4, -2e4]])
        np.testing.assert_array_equal(mean, np.zeros((2, 2)))
        expected_prior = build_block_matrix(HP, KernelKind.INCOMPRESSIBLE,
                                            [[0.0, 0.0], [1e4, -2e4]], [[0.0, 0.0], [1e4, -2e4]])
        np.testing.assert_allclose(cov, expected_prior, atol=0)
        np.testing.assert_array_equal(m.predict_mean([[5.0, 5.0]]), np.zeros((1, 2)))


class TestPosterior:
    def test_matches_dense_solve(self, trained_model):
        rng = np.random.default_rng(12)
        query = rng.uniform(-5e4, 5e4, size=(6, 2))
        mean, cov = trained_model.predict(query)
        mean_o, cov_o = dense_posterior(trained_model, query)
        np.testing.assert_allclose(mean, mean_o, atol=1e-8)
        np.testing.assert_allclose(cov, cov_o, atol=1e-6)

    def test_predict_mean_matches_full_predict(self, trained_model):
        query = np.array([[100.0, 200.0], [-3e4, 2.5e4]])
        np.testing.assert_allclose(
            trained_model.predict_mean(query), trained_model.predict(query)[0], atol=0
        )

    def test_near_interpolation_at_targets(self, trained_model):
        mean, _ = trained_model.predict(trained_model.positions)
        # the noise floor keeps this from being exact; relative shrinkage
        # is about target_noise_var / current_variance
        np.testing.assert_allclose(mean, trained_model.currents, atol=1e-2)

    def test_posterior_variance_shrinks_at_targets(self, trained_model):
        _, cov = trained_model.predict(trained_model.positions[:3])
        stds = np.sqrt(np.diag(cov)).reshape(-1, 2)
        assert stds.max() < 0.05 * np.sqrt(HP.current_variance)
        _, far_cov = trained_model.predict([[4e5, 4e5]])
        np.testing.assert_allclose(
            np.sqrt(np.diag(far_cov)).reshape(-1, 2), np.sqrt(HP.current_variance), rtol=1e-6
        )

    def test_duplicate_targets_average(self):
        # four noisy repeats at one point: posterior mean is the shrunk average
        ys = np.array([[0.30, -0.10], [0.34, -0.06], [0.28, -0.14], [0.32, -0.10]])
        m = GpModel(HP, KernelKind.INCOMPRESSIBLE, np.zeros((4, 2)), ys)
        mean, _ = m.predict([[0.0, 0.0]])
        s = DEFAULT_TARGET_NOISE_VAR
        shrink = HP.current_variance / (HP.current_variance + s / 4)
        np.testing.assert_allclose(mean[0], shrink * ys.mean(axis=0), rtol=1e-9)

    def test_posterior_mean_is_divergence_free(self):
        # the constraint is baked into the kernel, so the trained mean
        # field inherits it; the diagonal kernel does not
        field = random_gyre(9)
        rng = np.random.default_rng(13)
        pts = rng.uniform(-3e4, 3e4, size=(20, 2))
        targets = eval_field_many(field, pts)
        h = HP.lengthscale / 200.0
        probes = [Vec2(0.0, 0.0), Vec2(1.5e4, -9e3), Vec2(-2.2e4, 2.7e4)]

        def mean_field(model):
            return lambda p: Vec2(*model.predict_mean([[p.x, p.y]])[0])

        m_inc = GpModel(HP, KernelKind.INCOMPRESSIBLE, pts, targets)
        m_diag = GpModel(HP, KernelKind.STANDARD_DIAGONAL, pts, targets)
        speed_scale = np.linalg.norm(targets, axis=1).mean()
        for p in probes:
            div_inc = abs(divergence_fd(mean_field(m_inc), p, h=h))
            assert div_inc < 1e-9 * speed_scale / h * HP.lengthscale  # effectively zero
        worst_diag = max(abs(divergence_fd(mean_field(m_diag), p, h=h)) for p in probes)
        assert worst_diag > 100 * max(
            abs(divergence_fd(mean_field(m_inc), p, h=h)) for p in probes
        )


class TestPredictSum:
    # cross-covariance of each query current with the sum of all of them
    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize("num_targets", [0, 15])
    def test_matches_full_predict(self, kind, num_targets):
        rng = np.random.default_rng(15)
        pts = rng.uniform(-4e4, 4e4, size=(num_targets, 2))
        model = GpModel(HP, kind, pts, eval_field_many(random_gyre(3), pts))
        query = rng.uniform(-5e4, 5e4, size=(9, 2))
        mean, cross = model.predict_sum(query)
        full_mean, full_cov = model.predict(query)
        assert mean.shape == (9, 2) and cross.shape == (18, 2)
        np.testing.assert_allclose(mean, full_mean, rtol=1e-12, atol=1e-15)
        dense = full_cov @ np.tile(np.eye(2), (9, 1))
        np.testing.assert_allclose(cross, dense, rtol=1e-9, atol=1e-12 * HP.current_variance)


class TestModelGrowth:
    def test_add_targets_returns_new_model(self):
        m0 = GpModel(HP)
        m1 = m0.add_targets([[0.0, 0.0]], [[0.3, 0.1]])
        assert m0.num_targets == 0
        assert m1.num_targets == 1
        m2 = m1.add_targets([[1e4, 0.0]], [[0.2, 0.0]])
        assert m1.num_targets == 1
        assert m2.num_targets == 2

    def test_incremental_matches_batch(self):
        rng = np.random.default_rng(14)
        pts = rng.uniform(-4e4, 4e4, size=(8, 2))
        ys = rng.normal(0.0, 0.3, size=(8, 2))
        inc = GpModel(HP)
        for i in range(8):
            inc = inc.add_targets(pts[i:i + 1], ys[i:i + 1])
        batch = GpModel(HP, KernelKind.INCOMPRESSIBLE, pts, ys)
        q = np.array([[500.0, -700.0], [2e4, 2e4]])
        np.testing.assert_allclose(inc.predict_mean(q), batch.predict_mean(q), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            GpModel(HP, positions=np.zeros((3, 2)), currents=np.zeros((2, 2)))
        with pytest.raises(DimensionMismatch):
            GpModel(HP).add_targets([[0.0, 0.0]], [[1.0, 2.0], [3.0, 4.0]])


class TestNumericalRobustness:
    def test_near_duplicate_points_still_factorise(self):
        # 60 points inside a 1 mm box: the noise floor carries the Cholesky
        rng = np.random.default_rng(15)
        pts = rng.uniform(0.0, 1e-3, size=(60, 2))
        ys = rng.normal(0.0, 0.3, size=(60, 2))
        m = GpModel(HP, KernelKind.INCOMPRESSIBLE, pts, ys)
        mean, cov = m.predict([[0.0, 0.0]])
        assert np.all(np.isfinite(mean))
        assert np.all(np.isfinite(cov))

    def test_target_noise_var_must_be_positive_and_finite(self):
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="target_noise_var"):
                GpModel(HP, target_noise_var=bad)

    def test_factorization_failure_after_jitter_attempts(self, monkeypatch):
        import driftfield.gp as gp_mod

        def always_fail(*args, **kwargs):
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(gp_mod, "cho_factor", always_fail)
        with pytest.raises(FactorizationFailure):
            GpModel(HP, positions=[[0.0, 0.0]], currents=[[0.1, 0.1]])


class TestSerialization:
    def test_round_trip_preserves_predictions(self, trained_model):
        clone = GpModel.from_json(trained_model.to_json())
        q = np.array([[123.0, 456.0], [-2e4, 3e4]])
        np.testing.assert_array_equal(clone.predict_mean(q), trained_model.predict_mean(q))
        assert clone.kind is trained_model.kind
        assert clone.hp == trained_model.hp

    def test_snapshot_contains_no_factorisation(self, trained_model):
        import json

        d = json.loads(trained_model.to_json())
        assert set(d) == {
            "kernel", "lengthscale_m", "current_variance_m2s2", "gps_noise_std_m",
            "target_noise_var_m2s2", "positions_m", "currents_mps",
        }


class TestDownsample:
    def test_greedy_keep_first(self):
        pts = np.array([[0.0, 0.0], [50.0, 0.0], [150.0, 0.0], [160.0, 0.0], [300.0, 0.0]])
        ys = np.arange(10.0).reshape(5, 2)
        kept_p, kept_y = downsample_targets(pts, ys, min_spacing=100.0)
        np.testing.assert_array_equal(kept_p, [[0.0, 0.0], [150.0, 0.0], [300.0, 0.0]])
        np.testing.assert_array_equal(kept_y, [[0.0, 1.0], [4.0, 5.0], [8.0, 9.0]])

    def test_zero_spacing_keeps_all(self):
        pts = np.zeros((4, 2))
        ys = np.ones((4, 2))
        kept_p, _ = downsample_targets(pts, ys, min_spacing=0.0)
        assert kept_p.shape == (4, 2)
