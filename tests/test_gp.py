import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftfield import gp, kernels
from driftfield.flowfield import AnalyticField, Vec2, eval_field_many, random_gyre
from driftfield.gp import (
    DEFAULT_TARGET_NOISE_VAR,
    GpModel,
    downsample_targets,
)
from driftfield.kernels import HyperParams, KernelKind, build_block_matrix
from oracles import dense_inverse_factor, divergence_fd

HP = HyperParams(lengthscale=35000.0, current_variance=0.5, gps_noise_std=3.0)


def noisy_gram(model: GpModel) -> np.ndarray:
    k = build_block_matrix(model.hp, model.kind, model.positions, model.positions)
    return k + model.target_noise_var * np.eye(k.shape[0])


def dense_posterior(model: GpModel, query: np.ndarray):
    # independent oracle: explicit inverse of the noisy Gram matrix
    k_dd = noisy_gram(model)
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

    def test_covariance_is_exactly_symmetric(self, trained_model):
        rng = np.random.default_rng(14)
        _, cov = trained_model.predict(rng.uniform(-5e4, 5e4, size=(30, 2)))
        assert cov.shape == (60, 60)
        np.testing.assert_array_equal(cov, cov.T)

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_predict_mean_matches_full_predict(self, trained_model, kind):
        model = GpModel(HP, kind, trained_model.positions, trained_model.currents)
        query = np.array([[100.0, 200.0], [-3e4, 2.5e4]])
        np.testing.assert_allclose(
            model.predict_mean(query), model.predict(query)[0], rtol=1e-10, atol=0
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
    # the posterior of the sum of the query currents, and each query
    # current updated by its covariance with that sum
    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize("num_targets", [0, 15])
    def test_matches_full_predict(self, kind, num_targets):
        rng = np.random.default_rng(15)
        pts = rng.uniform(-4e4, 4e4, size=(num_targets, 2))
        model = GpModel(HP, kind, pts, eval_field_many(random_gyre(3), pts))
        query = rng.uniform(-5e4, 5e4, size=(9, 2))
        v = rng.normal(size=2)
        mean_sum, cov_sum, update = got = model.predict_sum(query)
        assert mean_sum.shape == (2,) and cov_sum.shape == (2, 2) and update(v).shape == (9, 2)
        assert_matches_oracle(model, got, predict_sum_oracle(model, query, v), v)


def predict_sum_oracle(model: GpModel, query: np.ndarray, v: np.ndarray):
    # the sums of the mean and of the full (2M, 2M) covariance, and the
    # mean plus the covariance's block row sums times v
    mean, cov = model.predict(query)
    one = np.tile(np.eye(2), (len(query), 1))
    return mean.sum(axis=0), one.T @ cov @ one, mean + (cov @ one @ v).reshape(-1, 2)


def assert_matches_oracle(model: GpModel, got, want, v):
    mean_sum, cov_sum, update = got
    want_mean_sum, want_cov_sum, want_update = want
    # Each mean is sum_i k_i alpha_i, which cancels: both paths, dense blocks
    # or series, round to about eps * var * |alpha|_1 from `predict`'s
    # product (at most 7e-17 times it on the 300-target dives below).
    mean_atol = max(1e-15 * model.hp.current_variance * np.abs(model._alpha).sum(), 1e-15)
    cross_atol = 1e-12 * model.hp.current_variance
    # the sums over M queries carry M times each query's rounding
    m = len(want_update)
    np.testing.assert_allclose(mean_sum, want_mean_sum, rtol=1e-12, atol=m * mean_atol)
    np.testing.assert_allclose(cov_sum, want_cov_sum, rtol=1e-9, atol=m * cross_atol)
    np.testing.assert_allclose(update(v), want_update, rtol=1e-9,
                               atol=mean_atol + cross_atol * np.abs(v).sum())


def assert_predict_sum_matches_predict(model: GpModel, query: np.ndarray, seed: int = 0):
    v = np.random.default_rng(seed).normal(size=2)
    got = model.predict_sum(query)
    assert_matches_oracle(model, got, predict_sum_oracle(model, query, v), v)
    return got


def dive_leg(num_points: int = 150, length: float = 3000.0) -> np.ndarray:
    """A straight leg of `num_points` points, `length` metres long, off the origin."""
    return np.linspace(0.0, 1.0, num_points)[:, None] * np.array([0.8, 0.6]) * length + [2e3, -4e3]


def model_with_targets(kind, targets):
    return GpModel(HP, kind, targets, eval_field_many(random_gyre(3), targets))


def spy_on_kernel_blocks(monkeypatch):
    """Record the sizes of the point sets each `_kernel_blocks` call pairs."""
    calls, blocks = [], kernels._kernel_blocks

    def recording(hp, kind, a, b):
        calls.append((len(a), len(b)))
        return blocks(hp, kind, a, b)

    monkeypatch.setattr(kernels, "_kernel_blocks", recording)
    return calls


def assert_takes_the_series(model: GpModel, query: np.ndarray, monkeypatch):
    v = np.random.default_rng(0).normal(size=2)
    want = predict_sum_oracle(model, query, v)

    def no_dense_blocks(*args):
        raise AssertionError("the dense kernel blocks were formed")

    monkeypatch.setattr(kernels, "_kernel_blocks", no_dense_blocks)
    got = model.predict_sum(query)
    assert_matches_oracle(model, got, want, v)
    return got


class TestPredictSumPaths:
    # A dive's query points lie well within a lengthscale of their
    # centroid, so its sums go through the dive-centred series whenever
    # the F rows it builds over N + M points cost no more than the dense
    # fallback: SERIES_COST_RATIO = 5 rows per (target, point) pair, plus
    # the F_p rows a point of the dive's own series, which the fallback
    # also forms (the 150-point dives below need F_p = 36 rows for the
    # incompressible kernel's features, 21 for the diagonal one's). With
    # no targets the joint series is the dive's own, so an empty model
    # takes it.
    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_dive_takes_the_series(self, kind, monkeypatch):
        # a 150-point, 3 km leg against 300 targets over 30 km
        rng = np.random.default_rng(21)
        model = model_with_targets(kind, rng.uniform(-1.5e4, 1.5e4, size=(300, 2)))
        assert_takes_the_series(model, dive_leg(), monkeypatch)

    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize(
        ("num_targets", "spread"),
        [
            # The orders are 9 and 8, F = 66 and 45 rows (incompressible,
            # diagonal), above N M / (N + M) = 44.3, so a rule that priced
            # a row as one pair would form the dense blocks.
            (50, 0.54),
            # F = 55 and 28 rows over 390 points against 5 x 2 x 388
            # pairs: only the dive's own 55 x 388 and 28 x 388 rows, which
            # the dense path also forms, tip it to the series.
            (2, 0.2),
        ],
        ids=["fifty_targets", "two_targets"],
    )
    def test_survey_dive_takes_the_series(self, kind, num_targets, spread, monkeypatch):
        # A survey dive: 388 points 0.12 lengthscales from their centroid,
        # against targets spread over `spread` lengthscales about it.
        rng = np.random.default_rng(26)
        targets = [2e3, -4e3] + spread * HP.lengthscale * rng.uniform(-0.5, 0.5, size=(num_targets, 2))
        model = model_with_targets(kind, targets)
        query = dive_leg(388, 0.24 * HP.lengthscale)
        query += [2e3, -4e3] - query.mean(axis=0)
        assert_takes_the_series(model, query, monkeypatch)

    @pytest.mark.parametrize("kind", [KernelKind.STANDARD_DIAGONAL])
    def test_one_query_takes_order_zero(self, kind, monkeypatch):
        # a single point is its own centroid, so the diagonal kernel's
        # series is exact at order 0, whose one row per point costs less
        # than the N pairs
        rng = np.random.default_rng(24)
        model = model_with_targets(kind, rng.uniform(-1.5e4, 1.5e4, size=(300, 2)))
        assert_takes_the_series(model, dive_leg(1), monkeypatch)

    def test_one_incompressible_query_forms_the_dense_blocks(self, monkeypatch):
        # the incompressible features exact at a single point are of order
        # 1, whose six rows per point over N + 1 points cost more than the
        # N + 1 pairs at 5 rows each, whatever N is
        rng = np.random.default_rng(24)
        model = model_with_targets(KernelKind.INCOMPRESSIBLE, rng.uniform(-1.5e4, 1.5e4, size=(300, 2)))
        v = np.random.default_rng(0).normal(size=2)
        want = predict_sum_oracle(model, dive_leg(1), v)
        calls = spy_on_kernel_blocks(monkeypatch)
        assert_matches_oracle(model, model.predict_sum(dive_leg(1)), want, v)
        assert (300, 1) in calls

    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize(
        ("targets", "queries"),
        [
            # 41 lengthscales away: 378 and 300 rows over 360 points
            # against 5 x 300 x 60 pairs and the dive's 36 x 60 and 21 x 60
            # rows
            (np.random.default_rng(22).uniform(1e6, 1.03e6, size=(300, 2)), 60),
            # 5 targets over 3.4 lengthscales: 78 and 55 rows over 155
            # points against 5 x 5 x 150 pairs and the dive's 36 x 150 and
            # 21 x 150 rows
            (np.random.default_rng(23).uniform(-6e4, 6e4, size=(5, 2)), 150),
        ],
        ids=["far_targets", "few_targets"],
    )
    def test_fallback_forms_the_dense_blocks(self, kind, targets, queries, monkeypatch):
        model = model_with_targets(kind, targets)
        query = dive_leg(queries)
        v = np.random.default_rng(0).normal(size=2)
        want = predict_sum_oracle(model, query, v)
        calls = spy_on_kernel_blocks(monkeypatch)
        assert_matches_oracle(model, model.predict_sum(query), want, v)
        assert (len(targets), queries) in calls

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_empty_model_gives_the_prior(self, kind, monkeypatch):
        mean_sum, _, _ = assert_takes_the_series(GpModel(HP, kind), dive_leg(), monkeypatch)
        np.testing.assert_array_equal(mean_sum, np.zeros(2))

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_nan_query_point_gives_nan_cross(self, kind, monkeypatch):
        # a NaN centroid never meets the series bound, and the dense
        # blocks' NaN column reaches every target's sum and so every solve
        rng = np.random.default_rng(25)
        model = model_with_targets(kind, rng.uniform(-1.5e4, 1.5e4, size=(300, 2)))
        query = dive_leg()
        query[17] = np.nan
        calls = spy_on_kernel_blocks(monkeypatch)
        _, cov_sum, _ = model.predict_sum(query)
        assert (300, 150) in calls
        assert np.isnan(cov_sum).all()


@st.composite
def dives_and_targets(draw):
    """
    A kernel, a dive of 1-150 points whose farthest point lies 0 to 0.15
    lengthscales from its centroid (a straight leg or a random walk), and
    0-150 targets spread over 0 to 1.5 lengthscales about a point within
    0.5 lengthscales of the dive, all at an offset. Most such draws take
    the series (273 of 300 in a derandomized count).
    """
    kind = draw(st.sampled_from(list(KernelKind)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 150))
    if draw(st.booleans()):
        q = np.cumsum(rng.normal(size=(m, 2)), axis=0)
    else:
        q = np.linspace(0.0, 1.0, m)[:, None] * rng.normal(size=2) + 1e-3 * rng.normal(size=(m, 2))
    q -= q.mean(axis=0)
    radius = np.sqrt((q * q).sum(axis=1)).max()
    if radius > 0.0:
        q *= draw(st.floats(0.0, 0.15)) * HP.lengthscale / radius
    centre = rng.uniform(-0.5, 0.5, size=2) * HP.lengthscale
    spread = draw(st.floats(0.0, 1.5)) * HP.lengthscale
    t = centre + spread * rng.uniform(-0.5, 0.5, size=(draw(st.integers(0, 150)), 2))
    offset = np.array([draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))])
    return kind, q + offset, t + offset


class TestPredictSumProperties:
    @given(dives_and_targets())
    @settings(max_examples=60, deadline=None)
    def test_matches_full_predict(self, problem):
        kind, query, targets = problem
        assert_predict_sum_matches_predict(model_with_targets(kind, targets), query)


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

    @given(st.integers(0, 8), st.integers(0, 8), st.sampled_from(list(KernelKind)),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_two_appends_match_one(self, num_a, num_b, kind, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-4e4, 4e4, size=(num_a + num_b, 2))
        ys = rng.normal(0.0, 0.3, size=(num_a + num_b, 2))
        empty = GpModel(HP, kind)
        twice = empty.add_targets(pts[:num_a], ys[:num_a]).add_targets(pts[num_a:], ys[num_a:])
        once = empty.add_targets(pts, ys)
        np.testing.assert_array_equal(twice.positions, once.positions)
        np.testing.assert_array_equal(twice.currents, once.currents)
        q = rng.uniform(-5e4, 5e4, size=(5, 2))
        # the two factors round differently, so a mean near 0 differs by
        # about cond * eps relative to the currents, as in
        # assert_matches_dense_factor
        scale = np.abs(ys).max(initial=0.0)
        np.testing.assert_allclose(twice.predict_mean(q), once.predict_mean(q), rtol=1e-9, atol=1e-9 * scale)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"positions \(3, 2\) vs currents \(2, 2\)"):
            GpModel(HP, positions=np.zeros((3, 2)), currents=np.zeros((2, 2)))
        with pytest.raises(ValueError, match=r"positions \(1, 2\) vs currents \(2, 2\)"):
            GpModel(HP).add_targets([[0.0, 0.0]], [[1.0, 2.0], [3.0, 4.0]])


def assert_matches_dense_factor(model: GpModel, query: np.ndarray):
    # independent oracle: one dense Cholesky of the whole noisy Gram matrix
    l_dense = np.linalg.cholesky(noisy_gram(model))
    alpha = np.linalg.solve(l_dense.T, np.linalg.solve(l_dense, model.currents.reshape(-1)))
    k_dq = build_block_matrix(model.hp, model.kind, model.positions, query)
    v = np.linalg.solve(l_dense, k_dq)
    r_dense = np.linalg.inv(l_dense)
    mean = (k_dq.T @ alpha).reshape(-1, 2)
    cov = build_block_matrix(model.hp, model.kind, query, query) - v.T @ v
    got_mean, got_cov = model.predict(query)
    r = dense_inverse_factor(model)
    assert np.array_equal(r, np.tril(r))
    # Both sides are backward stable, so they agree to about cond * eps
    # relative to each array's scale (cond <= 1 + 2N var / noise < 3e5
    # here), not entry by entry: small entries come from cancellation.
    for got, want, scale in [
        (r, r_dense, np.abs(r_dense).max(initial=0.0)),
        (model._alpha, alpha, np.abs(alpha).max(initial=0.0)),
        (got_mean, mean, np.abs(model.currents).max(initial=0.0)),
        (got_cov, cov, model.hp.current_variance),
    ]:
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * scale)
    return mean, cov


@st.composite
def append_chains(draw):
    """1-4 blocks of 0-6 targets; a block may repeat earlier points exactly."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks, seen = [], np.empty((0, 2))
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.integers(0, 6))
        if draw(st.booleans()) and len(seen):
            pts = seen[rng.integers(0, len(seen), size)]
        else:
            pts = rng.uniform(-4e4, 4e4, size=(size, 2))
        blocks.append((pts, rng.normal(0.0, 0.3, size=(size, 2))))
        seen = np.vstack([seen, pts])
    return blocks


class TestFactorGrowth:
    @given(append_chains(), st.sampled_from(list(KernelKind)))
    @settings(max_examples=60, deadline=None)
    def test_append_chain_matches_dense_factor(self, blocks, kind):
        query = np.array([[0.0, 0.0], [1.2e4, -3.1e4], [-4.4e4, 2e3]])
        model = GpModel(HP, kind)
        for pts, ys in blocks:
            model = model.add_targets(pts, ys)
            assert_matches_dense_factor(model, query)

    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize("grow", [1, 2, 3, 5])
    def test_small_blocks_match_dense_factor(self, kind, grow, monkeypatch):
        # Appends of 3, 5 and 4 targets end at targets 3, 8 and 12. Blocks
        # of 2, 3 and 5 targets split appends and leave a part-filled last
        # block that the next append extends; blocks of 1 never do.
        monkeypatch.setattr(gp, "GROW_BLOCK_TARGETS", grow)
        rng = np.random.default_rng(18)
        query = rng.uniform(-5e4, 5e4, size=(4, 2))
        model = GpModel(HP, kind)
        for size in (3, 5, 4):
            model = model.add_targets(rng.uniform(-4e4, 4e4, size=(size, 2)),
                                      rng.normal(0.0, 0.3, size=(size, 2)))
            mean, cov = assert_matches_dense_factor(model, query)
            mean_sum, cov_sum, update = model.predict_sum(query)
            # block i of the cross-covariance is the sum of cov's blocks (i, j)
            cross = cov.reshape(4, 2, 4, 2).sum(axis=2)
            v = rng.normal(size=2)
            scale = np.abs(model.currents).max()
            np.testing.assert_allclose(mean_sum, mean.sum(axis=0), rtol=1e-9, atol=1e-9 * 4 * scale)
            np.testing.assert_allclose(cov_sum, cross.sum(axis=0), rtol=1e-9,
                                       atol=1e-9 * 16 * HP.current_variance)
            np.testing.assert_allclose(update(v), mean + cross @ v, rtol=1e-9,
                                       atol=1e-9 * (scale + 4 * HP.current_variance * np.abs(v).sum()))

    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize("grow", [1, 3, 32])
    def test_alpha_extends_by_the_new_rows(self, kind, grow, monkeypatch):
        # each append adds R_new^T (R_new y) to the parent's alpha instead of
        # solving again; it agrees with a full solve to about cond * eps, and
        # the parent's alpha stays as it was
        monkeypatch.setattr(gp, "GROW_BLOCK_TARGETS", grow)
        rng = np.random.default_rng(19)
        model = GpModel(HP, kind)
        for size in (3, 5, 4, 1, 7):
            parent, before = model, model._alpha.copy()
            model = model.add_targets(rng.uniform(-4e4, 4e4, size=(size, 2)),
                                      rng.normal(0.0, 0.3, size=(size, 2)))
            alpha = gp._solve(model._blocks, model.currents.reshape(-1))[1]
            np.testing.assert_allclose(model._alpha, alpha, rtol=1e-9, atol=1e-9 * np.abs(alpha).max())
            np.testing.assert_array_equal(parent._alpha, before)

    def test_two_children_of_one_parent(self):
        rng = np.random.default_rng(16)
        pts = rng.uniform(-4e4, 4e4, size=(10, 2))
        ys = rng.normal(0.0, 0.3, size=(10, 2))
        query = rng.uniform(-5e4, 5e4, size=(4, 2))
        parent = GpModel(HP, KernelKind.INCOMPRESSIBLE, pts[:6], ys[:6])
        before = parent.predict(query)
        left = parent.add_targets(pts[6:8], ys[6:8])
        right = parent.add_targets(pts[8:], ys[8:])
        for want, got in zip(before, parent.predict(query)):
            np.testing.assert_array_equal(got, want)
        for model in (parent, left, right):
            assert_matches_dense_factor(model, query)
        np.testing.assert_array_equal(left.positions, pts[:8])
        np.testing.assert_array_equal(right.positions, np.vstack([pts[:6], pts[8:]]))

    def test_append_shares_the_parent_blocks(self):
        # 560 targets fill 17 blocks of 32 and leave 16 in the last one. An
        # append of 8 extends that block into a new array of 24 and shares
        # the 17 full ones: the (2N)^2 factor alone would be 10 MB.
        rng = np.random.default_rng(20)
        pts = rng.uniform(-4e5, 4e5, size=(568, 2))
        ys = rng.normal(0.0, 0.3, size=(568, 2))
        parent = GpModel(HP, KernelKind.INCOMPRESSIBLE, pts[:560], ys[:560])
        before = [block.copy() for block in parent._blocks]
        tracemalloc.start()
        try:
            child = parent.add_targets(pts[560:], ys[560:])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(block) // 2 for block in parent._blocks] == [32] * 17 + [16]
        assert [len(block) // 2 for block in child._blocks] == [32] * 17 + [24]
        assert all(got is want for got, want in zip(child._blocks, parent._blocks[:17]))
        np.testing.assert_array_equal(child._blocks[17][:32, :1120], parent._blocks[17])
        for block, want in zip(parent._blocks, before):
            assert not block.flags.writeable
            np.testing.assert_array_equal(block, want)
        assert peak < 2e6

    def test_failed_factor_propagates_and_leaves_the_parent(self, monkeypatch):
        # one Cholesky attempt per append: a Schur complement that will not
        # factor raises numpy's LinAlgError, and the parent is untouched
        rng = np.random.default_rng(17)
        pts = rng.uniform(-4e4, 4e4, size=(7, 2))
        ys = rng.normal(0.0, 0.3, size=(7, 2))
        query = rng.uniform(-5e4, 5e4, size=(3, 2))
        parent = GpModel(HP).add_targets(pts[:4], ys[:4])
        r_before = dense_inverse_factor(parent)
        before = parent.predict(query)
        calls = []

        def always_fail(*args, **kwargs):
            calls.append(args)
            raise np.linalg.LinAlgError("forced")

        monkeypatch.setattr(gp, "cholesky", always_fail)
        with pytest.raises(np.linalg.LinAlgError, match="forced"):
            parent.add_targets(pts[4:], ys[4:])
        assert len(calls) == 1
        np.testing.assert_array_equal(dense_inverse_factor(parent), r_before)
        for want, got in zip(before, parent.predict(query)):
            np.testing.assert_array_equal(got, want)


def disc_points(rng, num_points, centre, radius):
    """Points uniform over the disc of this centre and radius, metres."""
    angle = rng.uniform(0.0, 2.0 * np.pi, num_points)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, num_points))
    return centre + np.column_stack([r * np.cos(angle), r * np.sin(angle)])


CENTRE = np.array([3e3, -2e3])


def cond_eps(num_targets, noise_var=DEFAULT_TARGET_NOISE_VAR):
    """cond * eps for the noisy Gram matrix, cond <= 1 + 2N var / noise, as in assert_matches_dense_factor."""
    return (1.0 + 2 * num_targets * HP.current_variance / noise_var) * np.finfo(float).eps


def weight_space_pair(kind, num_targets=120, radius=0.3, seed=21):
    """
    A mission's model in the weight-space form, over `num_targets` targets
    within `radius` lengthscales of CENTRE, with the exact model on the
    same targets and the tolerance cond * eps between them.
    """
    rng = np.random.default_rng(seed)
    pts = disc_points(rng, num_targets, CENTRE, radius * HP.lengthscale)
    ys = eval_field_many(random_gyre(3), pts)
    model = GpModel(HP, kind)._in_region(CENTRE, radius * HP.lengthscale).add_targets(pts, ys)
    assert model._space is not None
    return model, GpModel(HP, kind, pts, ys), cond_eps(num_targets)


def assert_matches_the_exact_model(model, exact, tol, query, v):
    """
    A weight-space model's predict_sum (its mean, covariance and update at
    v) and predict_mean at the query against the exact model's, to tol =
    cond * eps relative to each one's scale.
    """
    scale, m = np.abs(exact.currents).max(), len(query)
    got, want = model.predict_sum(query), exact.predict_sum(query)
    np.testing.assert_allclose(got[0], want[0], rtol=tol, atol=tol * m * scale)
    np.testing.assert_allclose(got[1], want[1], rtol=tol, atol=tol * m * m * HP.current_variance)
    np.testing.assert_array_equal(got[1], got[1].T)
    np.testing.assert_allclose(got[2](v), want[2](v), rtol=tol,
                               atol=tol * (scale + m * HP.current_variance * np.abs(v).sum()))
    np.testing.assert_allclose(model.predict_mean(query), exact.predict_mean(query), rtol=tol,
                               atol=tol * scale)
    assert model._space is not None


def no_refactor(lam):
    raise AssertionError("an append refactored the precision")


class TestWeightSpace:
    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize("radius", [0.05, 0.3, 0.5, 1.0])
    def test_features_reproduce_the_kernel(self, kind, radius):
        # A A^T against the dense kernel inside the radius, points on its
        # edge included: the truncation is below 2^-53 sigma^2, so only
        # the rounding of either side is left
        rng = np.random.default_rng(22)
        reach = radius * HP.lengthscale
        pts = np.vstack([disc_points(rng, 40, CENTRE, reach), CENTRE + reach * np.array(
            [[1.0, 0.0], [0.0, -1.0], [0.6, 0.8], [-0.8, 0.6]])])
        order = kernels._feature_order(kind, radius * radius, np.inf)
        space = gp._WeightSpace(HP, kind, DEFAULT_TARGET_NOISE_VAR, CENTRE, radius * radius, order)
        a = space.features(space.rows(pts))
        if kind is KernelKind.INCOMPRESSIBLE:
            a = a.transpose(2, 0, 1).reshape(-1, a.shape[1])  # rows u0, v0, u1, ...
            gram = a @ a.T
        else:
            gram = np.kron(a.T @ a, np.eye(2))
        want = build_block_matrix(HP, kind, pts, pts)
        np.testing.assert_allclose(gram, want, rtol=0, atol=3e-15 * HP.current_variance)

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_matches_the_exact_model(self, kind):
        model, exact, tol = weight_space_pair(kind)
        rng = np.random.default_rng(23)
        assert_matches_the_exact_model(model, exact, tol, disc_points(rng, 50, CENTRE, 0.3 * HP.lengthscale),
                                       rng.normal(size=2))

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_predict_refactors_the_targets(self, kind):
        # the joint covariance comes from a fresh exact factor of the stored
        # targets, which the model neither keeps nor lets replace its form
        model, _, tol = weight_space_pair(kind)
        state = (model._space, model._region, model._blocks, model._alpha)
        query = disc_points(np.random.default_rng(31), 12, CENTRE, 0.3 * HP.lengthscale)
        (mean, cov), (want_mean, want_cov) = model.predict(query), dense_posterior(model, query)
        np.testing.assert_allclose(mean, want_mean, rtol=tol, atol=tol * np.abs(model.currents).max())
        np.testing.assert_allclose(cov, want_cov, rtol=tol, atol=tol * HP.current_variance)
        assert all(a is b for a, b in zip((model._space, model._region, model._blocks, model._alpha), state))

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_both_forms_take_the_model_noise_floor(self, kind):
        # a model with another floor conditions its weight space on that
        # floor too, so both forms give one posterior
        class FloorModel(GpModel):
            target_noise_var = 4e-4

        rng = np.random.default_rng(32)
        pts = disc_points(rng, 120, CENTRE, 0.3 * HP.lengthscale)
        ys = eval_field_many(random_gyre(3), pts)
        model = FloorModel(HP, kind)._in_region(CENTRE, 0.3 * HP.lengthscale).add_targets(pts, ys)
        exact = FloorModel(HP, kind, pts, ys)
        assert model._space is not None
        query = disc_points(rng, 30, CENTRE, 0.3 * HP.lengthscale)
        assert_matches_the_exact_model(model, exact, cond_eps(120, 4e-4), query, rng.normal(size=2))
        # predict re-factors the targets as the model's own class
        np.testing.assert_array_equal(model.predict(query)[1], exact.predict(query)[1])

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_appends_match_the_exact_model(self, kind):
        # appends inside the region update the formed factor by their rows
        model, _, _ = weight_space_pair(kind)
        rng = np.random.default_rng(24)
        for size in (1, 6, 13):
            pts = disc_points(rng, size, CENTRE, 0.3 * HP.lengthscale)
            model = model.add_targets(pts, eval_field_many(random_gyre(3), pts))
        assert model._space is not None and model.num_targets == 140
        exact = GpModel(HP, kind, model.positions, model.currents)
        query = disc_points(rng, 20, CENTRE, 0.3 * HP.lengthscale)
        tol = cond_eps(140)
        np.testing.assert_allclose(model.predict_mean(query), exact.predict_mean(query), rtol=tol,
                                   atol=tol * np.abs(model.currents).max())

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_a_long_append_chain_matches_the_exact_model(self, kind, monkeypatch):
        # 200 appends of 1-13 targets after the 120-target formation, as a
        # long mission makes: each updates the factor without refactoring
        # the precision, and the updates' rounding stays within cond * eps
        model, _, _ = weight_space_pair(kind)
        monkeypatch.setattr(gp, "_inverse_factor", no_refactor)
        rng = np.random.default_rng(28)
        field = random_gyre(3)
        for size in rng.integers(1, 14, 200):
            pts = disc_points(rng, size, CENTRE, 0.3 * HP.lengthscale)
            model = model.add_targets(pts, eval_field_many(field, pts))
        monkeypatch.undo()  # the exact factor's Schur blocks take _inverse_factor
        exact = GpModel(HP, kind, model.positions, model.currents)
        assert_matches_the_exact_model(model, exact, cond_eps(model.num_targets),
                                       disc_points(rng, 30, CENTRE, 0.3 * HP.lengthscale), rng.normal(size=2))

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_the_factor_matches_the_dense_precision(self, kind):
        # R^T R against the inverse of Lambda = I + A A^T / tau^2 formed
        # densely from every target's feature columns, after each of 12
        # appends, to cond(Lambda) * eps: P <= I, so that is P's scale
        model, _, _ = weight_space_pair(kind)
        rng = np.random.default_rng(29)
        for size in rng.integers(1, 14, 12):
            pts = disc_points(rng, size, CENTRE, 0.3 * HP.lengthscale)
            model = model.add_targets(pts, eval_field_many(random_gyre(3), pts))
            space = model._space
            a = space.features(space.rows(model.positions))
            if kind is KernelKind.INCOMPRESSIBLE:
                a = np.concatenate(a, axis=1)
            lam = np.eye(len(a)) + a @ a.T / DEFAULT_TARGET_NOISE_VAR
            tol = np.linalg.cond(lam) * np.finfo(float).eps
            np.testing.assert_allclose(space.factor.T @ space.factor, np.linalg.inv(lam), rtol=tol, atol=tol)

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_an_append_of_more_targets_than_features(self, kind, monkeypatch):
        # 120 targets give 240 incompressible or 120 diagonal columns
        # against F = 105 or 91 features at 0.5 lengthscales: the append
        # takes the update all the same
        model, _, _ = weight_space_pair(kind, radius=0.5)
        monkeypatch.setattr(gp, "_inverse_factor", no_refactor)
        rng = np.random.default_rng(30)
        pts = disc_points(rng, 120, CENTRE, 0.5 * HP.lengthscale)
        model = model.add_targets(pts, eval_field_many(random_gyre(3), pts))
        assert len(model._space.factor) < 120
        monkeypatch.undo()  # the exact factor's Schur blocks take _inverse_factor
        exact = GpModel(HP, kind, model.positions, model.currents)
        assert_matches_the_exact_model(model, exact, cond_eps(240),
                                       disc_points(rng, 30, CENTRE, 0.5 * HP.lengthscale), rng.normal(size=2))

    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize("reach, widens", [(0.5, True), (3.0, False)])
    def test_a_query_beyond_the_region_stays_exact(self, kind, reach, widens):
        # a near query is answered by a wider weight space formed from the
        # stored targets; one too far for the cost rule by a fresh exact
        # factor. Neither changes the model.
        model, exact, tol = weight_space_pair(kind)
        state = (model._space, model._region, model._blocks, model._alpha)
        rng = np.random.default_rng(25)
        query = disc_points(rng, 30, CENTRE, reach * HP.lengthscale)
        query[0] = CENTRE + [0.0, reach * HP.lengthscale]
        form, rows = model._form_at(query)
        assert (rows is not None) == widens
        if widens:
            assert form.reach2 == pytest.approx(reach * reach)
        scale = np.abs(exact.currents).max()
        np.testing.assert_allclose(model.predict_mean(query), exact.predict_mean(query), rtol=tol,
                                   atol=tol * scale)
        v = rng.normal(size=2)
        got, want = model.predict_sum(query), exact.predict_sum(query)
        np.testing.assert_allclose(got[2](v), want[2](v), rtol=tol,
                                   atol=tol * (scale + len(query) * HP.current_variance * np.abs(v).sum()))
        assert all(a is b for a, b in zip((model._space, model._region, model._blocks, model._alpha), state))

    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_query_leaves_the_model_alone(self, kind, bad):
        # as on the exact form, the covariance comes out non-finite, which
        # m_step reports; the model keeps its form and region
        model, exact, _ = weight_space_pair(kind)
        state = (model._space, model._region, model._blocks, model._alpha)
        query = np.array([[CENTRE[0], CENTRE[1]], [bad, CENTRE[1]]])
        with np.errstate(all="ignore"):
            got, want = model.predict_sum(query)[1], exact.predict_sum(query)[1]
        assert not np.isfinite(got).all() and not np.isfinite(want).all()
        assert all(a is b for a, b in zip((model._space, model._region, model._blocks, model._alpha), state))
        assert model._space is not None

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_a_target_beyond_the_region_widens_it(self, kind):
        model, _, _ = weight_space_pair(kind)
        far = CENTRE + np.array([[0.4 * HP.lengthscale, 0.0]])
        child = model.add_targets(far, [[0.1, -0.2]])
        assert child._space is not None and child._space.reach2 == pytest.approx(0.16)
        assert model._space.reach2 == pytest.approx(0.09)
        exact = GpModel(HP, kind, child.positions, child.currents)
        query = far + [[0.0, 1e3]]
        tol = cond_eps(121)
        np.testing.assert_allclose(child.predict_mean(query), exact.predict_mean(query), rtol=tol,
                                   atol=tol * np.abs(child.currents).max())

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_too_few_targets_stay_exact(self, kind):
        # the cost rule takes the weight space only at F <= 10 sqrt(N)
        rng = np.random.default_rng(26)
        pts = disc_points(rng, 20, CENTRE, 0.3 * HP.lengthscale)
        model = GpModel(HP, kind)._in_region(CENTRE, 0.3 * HP.lengthscale).add_targets(
            pts, eval_field_many(random_gyre(3), pts))
        assert model._space is None

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_round_trip_reproduces_the_mean(self, kind):
        # model.json holds the targets alone, and reloads to the exact form
        model, _, _ = weight_space_pair(kind)
        clone = GpModel.from_json(model.to_json())
        assert clone._space is None
        query = disc_points(np.random.default_rng(27), 40, CENTRE, 0.3 * HP.lengthscale)
        np.testing.assert_allclose(clone.predict_mean(query), model.predict_mean(query), rtol=0, atol=1e-9)


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

    def test_non_finite_currents_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="infs or NaNs"):
                GpModel(HP, positions=[[0.0, 0.0]], currents=[[bad, 0.1]])
            with pytest.raises(ValueError, match="infs or NaNs"):
                GpModel(HP).add_targets([[0.0, 0.0]], [[0.1, bad]])

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_position_named_before_any_kernel(self, bad):
        # an infinite lag would warn in the kernel, and a NaN one surface
        # only as an unnamed non-finite Schur complement
        with pytest.raises(ValueError, match="^positions must be finite$"):
            GpModel(HP, positions=[[bad, 0.0]], currents=[[0.1, 0.0]])
        parent = GpModel(HP, positions=[[0.0, 0.0]], currents=[[0.1, 0.0]])
        with pytest.raises(ValueError, match="^positions must be finite$"):
            parent.add_targets([[1.0, 2.0], [0.0, bad]], [[0.1, 0.0], [0.1, 0.0]])
        assert parent.num_targets == 1


class TestSerialization:
    def test_round_trip_preserves_predictions(self, trained_model):
        clone = GpModel.from_json(trained_model.to_json())
        q = np.array([[123.0, 456.0], [-2e4, 3e4]])
        np.testing.assert_array_equal(clone.predict_mean(q), trained_model.predict_mean(q))
        assert clone.kind is trained_model.kind
        assert clone.hp == trained_model.hp

    def test_from_json_rejects_another_noise_floor(self, trained_model):
        import json

        d = json.loads(trained_model.to_json())
        for bad in (0.0, 2 * DEFAULT_TARGET_NOISE_VAR, None):
            d["target_noise_var_m2s2"] = bad
            with pytest.raises(ValueError, match="target_noise_var_m2s2"):
                GpModel.from_json(json.dumps(d))

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda d: {}, "lengthscale_m"),
            (lambda d: [], "JSON list"),
            (lambda d: {**d, "extra": 1}, "extra"),
            (lambda d: {**d, "lengthscale_m": "35000"}, "lengthscale_m"),
            (lambda d: {**d, "lengthscale_m": True}, "lengthscale_m"),
            (lambda d: {**d, "gps_noise_std_m": None}, "gps_noise_std_m"),
            (lambda d: {**d, "positions_m": [[True, 0.0]] + d["positions_m"][1:]}, "positions_m"),
            (lambda d: {**d, "currents_mps": [[0.1, 0.2, 0.3]]}, "currents_mps"),
            (lambda d: {**d, "currents_mps": [[10**400, 0.0]]}, "currents_mps"),
            (lambda d: {**d, "positions_m": [[], []], "currents_mps": [[]]}, "currents_mps"),
            (lambda d: {**d, "kernel": "standard"}, "kernel"),
        ],
        ids=["empty_object", "list", "extra_key", "string_number", "boolean", "null",
             "boolean_coordinate", "triple", "huge_integer", "empty_pairs", "unknown_kernel"],
    )
    def test_from_json_rejects_a_malformed_snapshot(self, trained_model, edit, key):
        import json

        text = json.dumps(edit(json.loads(trained_model.to_json())))
        with pytest.raises(ValueError, match=key):
            GpModel.from_json(text)

    def test_snapshot_contains_no_factorisation(self, trained_model):
        import json

        d = json.loads(trained_model.to_json())
        assert set(d) == {
            "kernel", "lengthscale_m", "current_variance_m2s2", "gps_noise_std_m",
            "target_noise_var_m2s2", "positions_m", "currents_mps",
        }


def reference_downsample(positions, currents, min_spacing):
    # The per-point loop `downsample_targets` replaced, kept as the oracle:
    # a point survives when its distance to every earlier survivor is at
    # least the spacing, the rule of the mission oracle's thinning.
    p = np.asarray(positions, dtype=float).reshape(-1, 2)
    c = np.asarray(currents, dtype=float).reshape(-1, 2)
    if min_spacing <= 0 or p.shape[0] == 0:
        return p, c
    kept = []
    for i in range(p.shape[0]):
        if all(np.hypot(*(p[i] - p[k])) >= min_spacing for k in kept):
            kept.append(i)
    idx = np.array(kept, dtype=int)
    return p[idx], c[idx]


@st.composite
def tracks(draw):
    """A wandering track that also revisits earlier points, nearly or exactly."""
    offset = st.floats(-300.0, 300.0)
    pts = [(0.0, 0.0)]
    for _ in range(draw(st.integers(0, 80))):
        move = draw(st.sampled_from(["step", "revisit", "duplicate"]))
        x, y = pts[-1] if move == "step" else pts[draw(st.integers(0, len(pts) - 1))]
        if move != "duplicate":
            x, y = x + draw(offset), y + draw(offset)
        pts.append((x, y))
    return np.array(pts)


class TestDownsample:
    @settings(max_examples=200, deadline=None)
    @given(
        pts=tracks(),
        spacing=st.one_of(st.just(0.0), st.floats(1e-3, 5.0), st.floats(50.0, 2000.0)),
    )
    @example(pts=np.empty((0, 2)), spacing=100.0)
    @example(pts=np.empty((0, 2)), spacing=0.0)
    @example(pts=np.array([[0.0, 0.0], [100.0, 0.0], [50.0, 0.0]]), spacing=100.0)
    def test_matches_reference_loop(self, pts, spacing):
        # currents carry the point index, so the survivors name themselves
        ys = np.column_stack([np.arange(len(pts), dtype=float), np.zeros(len(pts))])
        kept_p, kept_y = downsample_targets(pts, ys, spacing)
        ref_p, ref_y = reference_downsample(pts, ys, spacing)
        assert np.array_equal(kept_p, ref_p) and np.array_equal(kept_y, ref_y)

        def dist(a, b):
            return np.hypot(*np.moveaxis(a - b, -1, 0))

        pair = dist(kept_p[:, None, :], kept_p[None, :, :])
        assert (pair[~np.eye(len(kept_p), dtype=bool)] >= spacing).all()
        kept = set(kept_y[:, 0].astype(int).tolist())
        for i in range(len(pts)):
            if i not in kept:
                earlier = pts[sorted(k for k in kept if k < i)]
                assert (dist(earlier, pts[i]) < spacing).any()

    def test_mismatched_shapes_raise(self):
        with pytest.raises(ValueError, match=r"positions \(3, 2\) vs currents \(2, 2\)"):
            downsample_targets(np.zeros((3, 2)), np.zeros((2, 2)), 100.0)

    def test_greedy_keep_first(self):
        pts = np.array([[0.0, 0.0], [50.0, 0.0], [150.0, 0.0], [160.0, 0.0], [300.0, 0.0]])
        ys = np.arange(10.0).reshape(5, 2)
        kept_p, kept_y = downsample_targets(pts, ys, min_spacing=100.0)
        np.testing.assert_array_equal(kept_p, [[0.0, 0.0], [150.0, 0.0], [300.0, 0.0]])
        np.testing.assert_array_equal(kept_y, [[0.0, 1.0], [4.0, 5.0], [8.0, 9.0]])

    def test_overflowing_lags_match_the_plain_float_loop(self):
        # inf - inf is NaN, which compares false, as in a loop over Python
        # floats; no warning is raised
        pts = np.array([[0.0, 0.0], [1e200, 0.0], [1e200, 5.0], [np.inf, 0.0], [np.inf, 1.0], [10.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kept_p, _ = downsample_targets(pts, pts, 100.0)
            # a spacing below every distance keeps every point but inf - inf
            tiny_p, _ = downsample_targets(pts, pts, 1e-170)
            # a spacing whose square overflows: 1e200 from the origin is far enough
            huge_p, _ = downsample_targets(pts, pts, 1e200)
        np.testing.assert_array_equal(kept_p, [[0.0, 0.0], [1e200, 0.0], [np.inf, 0.0]])
        np.testing.assert_array_equal(huge_p, kept_p)
        np.testing.assert_array_equal(tiny_p, np.delete(pts, 4, axis=0))

    def test_zero_spacing_keeps_all(self):
        pts = np.zeros((4, 2))
        ys = np.ones((4, 2))
        kept_p, _ = downsample_targets(pts, ys, min_spacing=0.0)
        assert kept_p.shape == (4, 2)
