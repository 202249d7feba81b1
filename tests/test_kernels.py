import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfield import kernels
from driftfield.flowfield import Vec2
from driftfield.kernels import (
    HyperParams,
    KernelKind,
    build_block_matrix,
    cross_sums,
)
from oracles import eval_scalar_kernel

HP = HyperParams(lengthscale=35000.0, current_variance=0.5, gps_noise_std=3.0)


def fd_second_derivatives(hp: HyperParams, d: Vec2, h: float):
    # independent oracle: the matrix kernel is a second derivative of the
    # scalar kernel in lag space, K11 = -g_yy, K22 = -g_xx, K12 = g_xy
    o = Vec2(0.0, 0.0)

    def g(dx, dy):
        return eval_scalar_kernel(hp, Vec2(dx, dy), o)

    k11 = -(g(d.x, d.y + h) - 2 * g(d.x, d.y) + g(d.x, d.y - h)) / h**2
    k22 = -(g(d.x + h, d.y) - 2 * g(d.x, d.y) + g(d.x - h, d.y)) / h**2
    k12 = (g(d.x + h, d.y + h) - g(d.x + h, d.y - h) - g(d.x - h, d.y + h) + g(d.x - h, d.y - h)) / (4 * h**2)
    return np.array([[k11, k12], [k12, k22]])


class TestHyperParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            HyperParams(0.0, 0.5, 3.0)
        with pytest.raises(ValueError):
            HyperParams(35000.0, -1.0, 3.0)
        with pytest.raises(ValueError):
            HyperParams(35000.0, 0.5, -0.1)
        HyperParams(35000.0, 0.5, 0.0)  # zero GPS noise is legal
        HyperParams(35000.0, 1e300, 3.0)  # so is a variance whose product with l^2 overflows


class TestScalarKernel:
    def test_zero_lag(self):
        v = eval_scalar_kernel(HP, Vec2(5.0, 5.0), Vec2(5.0, 5.0))
        assert v == pytest.approx(6.125e8)

    def test_isotropic_decay(self):
        near = eval_scalar_kernel(HP, Vec2(0.0, 0.0), Vec2(35000.0, 0.0))
        same_radius = eval_scalar_kernel(HP, Vec2(0.0, 0.0), Vec2(0.0, -35000.0))
        assert near == pytest.approx(6.125e8 * math.exp(-0.5), rel=1e-12)
        assert near == pytest.approx(same_radius, rel=1e-12)


class TestMatrixKernel:
    def test_zero_lag_is_exactly_variance_times_identity(self):
        k = build_block_matrix(HP, KernelKind.INCOMPRESSIBLE, [Vec2(7.0, -3.0)], [Vec2(7.0, -3.0)])
        assert k[0, 0] == 0.5 and k[1, 1] == 0.5
        assert k[0, 1] == 0.0 and k[1, 0] == 0.0

    @pytest.mark.parametrize("hp", [HP, HyperParams(500.0, 0.25, 1.0)], ids=["35km", "500m"])
    def test_matches_fd_of_scalar_kernel(self, hp):
        l = hp.lengthscale
        h = 1e-4 * l
        lags = [(0.0, 0.0), (0.3, 0.0), (0.0, -0.7), (0.5, 0.5), (-1.2, 0.4), (2.0, -1.5)]
        for x, y in lags:
            d = Vec2(x * l, y * l)
            k = build_block_matrix(hp, KernelKind.INCOMPRESSIBLE, [d], [Vec2(0.0, 0.0)])
            k_fd = fd_second_derivatives(hp, d, h)
            np.testing.assert_allclose(k, k_fd, atol=1e-6 * hp.current_variance)

    def test_transpose_symmetry(self):
        p, q = Vec2(1000.0, -2000.0), Vec2(-500.0, 4000.0)
        k_pq = build_block_matrix(HP, KernelKind.INCOMPRESSIBLE, [p], [q])
        k_qp = build_block_matrix(HP, KernelKind.INCOMPRESSIBLE, [q], [p])
        np.testing.assert_allclose(k_pq, k_qp.T, atol=0)

    def test_far_field_decay(self):
        d = 8.0 * HP.lengthscale
        k = build_block_matrix(HP, KernelKind.INCOMPRESSIBLE, [Vec2(d, 0.0)], [Vec2(0.0, 0.0)])
        assert np.abs(k).max() <= 1e-12 * HP.current_variance

    def test_standard_diagonal(self):
        p, q = Vec2(0.0, 0.0), Vec2(20000.0, -10000.0)
        k = build_block_matrix(HP, KernelKind.STANDARD_DIAGONAL, [p], [q])
        se = 0.5 * math.exp(-(20000.0**2 + 10000.0**2) / (2 * 35000.0**2))
        assert k[0, 0] == pytest.approx(se, rel=1e-12)
        assert k[1, 1] == pytest.approx(se, rel=1e-12)
        assert k[0, 1] == 0.0 and k[1, 0] == 0.0

    @given(
        st.floats(-1e5, 1e5), st.floats(-1e5, 1e5),
        st.floats(-1e5, 1e5), st.floats(-1e5, 1e5),
    )
    @settings(max_examples=50, deadline=None)
    def test_stationarity(self, px, py, qx, qy):
        # kernel depends on the lag only
        sx, sy = 1234.5, -6789.0
        k = build_block_matrix(HP, KernelKind.INCOMPRESSIBLE, [Vec2(px, py)], [Vec2(qx, qy)])
        k_shifted = build_block_matrix(
            HP, KernelKind.INCOMPRESSIBLE, [Vec2(px + sx, py + sy)], [Vec2(qx + sx, qy + sy)]
        )
        np.testing.assert_allclose(k, k_shifted, atol=1e-12)


class TestBlockMatrix:
    def test_matches_pointwise_blocks(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-5e4, 5e4, size=(4, 2))
        b = rng.uniform(-5e4, 5e4, size=(3, 2))
        for kind in KernelKind:
            m = build_block_matrix(HP, kind, a, b)
            assert m.shape == (8, 6)
            for i in range(4):
                for j in range(3):
                    block = build_block_matrix(HP, kind, [Vec2(*a[i])], [Vec2(*b[j])])
                    np.testing.assert_allclose(m[2 * i:2 * i + 2, 2 * j:2 * j + 2], block, atol=1e-15)

    def test_gram_is_symmetric_psd(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-8e4, 8e4, size=(12, 2))
        for kind in KernelKind:
            m = build_block_matrix(HP, kind, pts, pts)
            np.testing.assert_allclose(m, m.T, atol=1e-10)
            eigs = np.linalg.eigvalsh(m)
            assert eigs.min() >= -1e-8 * HP.current_variance

    def test_empty_inputs(self):
        m = build_block_matrix(HP, KernelKind.INCOMPRESSIBLE, np.zeros((0, 2)), np.zeros((2, 2)))
        assert m.shape == (0, 4)

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_far_point_gives_exact_zeros(self, kind):
        # a lag of 1e200 m squares to inf unless it is clipped first; in
        # units of 3e-151 m it overflows before it is squared, and 40 units
        # of 1e153 m would overflow once squared
        for hp in [HP, HyperParams(1e153, 0.5, 3.0), HyperParams(3e-151, 0.5, 3.0)]:
            near = build_block_matrix(hp, kind, [[0.0, 0.0]], [[0.0, 0.0]])
            m = build_block_matrix(hp, kind, [[0.0, 0.0], [1e200, -1e200]], [[0.0, 0.0]])
            np.testing.assert_array_equal(m[:2], near)
            np.testing.assert_array_equal(m[2:], np.zeros((2, 2)))


class TestBlockRowSums:
    # the block row sums sum_j K(p_i, p_j) of a dive, as `cross_sums`
    # gives them for no targets
    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_matches_dense_block_sum(self, kind):
        rng = np.random.default_rng(3)
        q = rng.uniform(-5e4, 5e4, size=(7, 2))
        total, sums = own_sums(HP, kind, q)
        assert sums.shape == (7, 2, 2)
        dense = dense_row_sums(kind, q)
        np.testing.assert_allclose(sums, dense, rtol=1e-12)
        np.testing.assert_allclose(total, dense.sum(axis=0), rtol=1e-12)

    def test_empty_inputs(self):
        total, ksum, apply = cross_sums(HP, KernelKind.INCOMPRESSIBLE, np.zeros((0, 2)), np.zeros((0, 2)))
        np.testing.assert_array_equal(total, np.zeros((2, 2)))
        assert ksum.shape == (0, 2)
        assert apply(np.zeros(0), np.ones(2)).shape == (0, 2)

    @pytest.mark.parametrize("step", [40.0, 8000.0], ids=["dive", "several_lengthscales"])
    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_dive_sized_prior_spans_several_row_blocks(self, kind, step, monkeypatch):
        # a 587-point dive, the longest in the acceptance study; with 8 km
        # steps the walk spans 5.4 lengthscales, too wide for any series
        # within 3 M rows, and its sums come from row blocks of
        # `_kernel_blocks`
        q = _walk(step)
        assert 587 * 587 > 2 * kernels.ROW_SUM_BLOCK_ENTRIES
        dense = dense_row_sums(kind, q)
        calls = spy_on_kernel_blocks(monkeypatch)
        total, sums = own_sums(HP, kind, q)
        if step == 40.0:
            assert calls == []
        else:
            # row blocks that cover the dive once, then the empty cross blocks
            rows = kernels.ROW_SUM_BLOCK_ENTRIES // 587
            assert calls == [(min(rows, 587 - i), 587) for i in range(0, 587, rows)] + [(0, 587)]
        np.testing.assert_allclose(sums, dense, rtol=0, atol=_sum_tolerance(587))
        np.testing.assert_allclose(total, dense.sum(axis=0), rtol=0, atol=587 * _sum_tolerance(587))

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_dive_sized_prior_takes_the_series(self, kind, monkeypatch):
        # the same 587-point dive, a few km across, never forms (M, M)
        # exponentials: a later change must not fall back to them unseen
        q = _walk(40.0)
        dense = dense_row_sums(kind, q)
        monkeypatch.setattr(kernels, "_kernel_blocks", no_dense_blocks)
        total, sums = own_sums(HP, kind, q)
        np.testing.assert_allclose(sums, dense, rtol=0, atol=_sum_tolerance(587))
        np.testing.assert_allclose(total, dense.sum(axis=0), rtol=0, atol=587 * _sum_tolerance(587))

    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize(
        ("num_points", "radius"),
        [
            # one point is its own centroid: the exact order-0 series
            (1, 0.0),
            # order 12, F = 91 rows, too many for the dive's own series
            # (F_p <= M) but within the 3 M rows of its dense sums
            (60, 0.5),
        ],
        ids=["one_point", "short_wide_dive"],
    )
    def test_empty_model_takes_the_series(self, kind, num_points, radius, monkeypatch):
        q = np.linspace(-1.0, 1.0, num_points)[:, None] * [0.6, 0.8] * radius * HP.lengthscale + [2e3, -4e3]
        dense = dense_row_sums(kind, q)
        monkeypatch.setattr(kernels, "_kernel_blocks", no_dense_blocks)
        total, sums = own_sums(HP, kind, q)
        np.testing.assert_allclose(sums, dense, rtol=0, atol=_sum_tolerance(num_points))
        np.testing.assert_allclose(total, dense.sum(axis=0), rtol=0, atol=num_points * _sum_tolerance(num_points))

    def test_nan_point_makes_every_sum_nan(self):
        # a NaN point makes r^2 NaN, which never meets the series' bound,
        # and its NaN lags reach every row of the dense blocks' sums; the
        # diagonal kernel's cross blocks are 0 whatever the lag
        q = np.cumsum(np.full((50, 2), 100.0), axis=0)
        q[17] = np.nan
        for kind in KernelKind:
            total, _, apply = cross_sums(HP, kind, q, np.empty((0, 2)))
            assert np.isnan(np.diag(total)).all()
            for v in np.eye(2):
                assert np.isnan(apply(np.zeros(0), v)).all()
            if kind is KernelKind.STANDARD_DIAGONAL:
                assert total[0, 1] == total[1, 0] == 0.0

    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize("entries", [1, 5, 33, 60])
    def test_row_blocks_do_not_change_the_sums(self, kind, entries, monkeypatch):
        rng = np.random.default_rng(5)
        q = rng.uniform(-5e4, 5e4, size=(6, 2))
        whole_total, whole = own_sums(HP, kind, q)
        monkeypatch.setattr(kernels, "ROW_SUM_BLOCK_ENTRIES", entries)
        total, sums = own_sums(HP, kind, q)
        np.testing.assert_allclose(sums, whole, rtol=1e-13, atol=1e-16)
        np.testing.assert_allclose(total, whole_total, rtol=1e-13, atol=1e-16)

    @pytest.mark.parametrize(
        ("kind", "lengthscale"),
        [(kind, lengthscale) for kind in KernelKind for lengthscale in (1e-6, 1e-30)]
        + [(kind, 1.5e-154) for kind in KernelKind],
    )
    def test_far_apart_points_leave_only_their_own_variance(self, kind, lengthscale):
        # every lag but a point's own clips to 40 lengthscales, and at
        # 1.5e-154 m |p|^2 / 2 overflows to inf
        q = _points_apart(6)
        hp = HyperParams(lengthscale, 0.5, 3.0)
        total, sums = own_sums(hp, kind, q)
        np.testing.assert_array_equal(sums, np.broadcast_to(0.5 * np.eye(2), (300, 2, 2)))
        np.testing.assert_array_equal(total, 150.0 * np.eye(2))

    @pytest.mark.parametrize("lengthscale", [1e-6, 1e-30])
    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_coincident_points_keep_each_exponential_at_most_1(self, kind, lengthscale):
        # each point doubled: a pair at the same place has lag exactly 0 and
        # e exactly 1, so every row is its own variance twice
        q = _points_apart(7)
        hp = HyperParams(lengthscale, 0.5, 3.0)
        total, sums = own_sums(hp, kind, np.concatenate([q, q]))
        np.testing.assert_array_equal(sums, np.broadcast_to(1.0 * np.eye(2), (600, 2, 2)))
        np.testing.assert_array_equal(total, 600.0 * np.eye(2))


def own_sums(hp, kind, q):
    """
    `cross_sums` of (M, 2) points with no targets: the total, and the
    (M, 2, 2) block row sums sum_j K(p_i, p_j), whose column k is
    apply(0, e_k).
    """
    total, ksum, apply = cross_sums(hp, kind, q, np.empty((0, 2)))
    assert ksum.shape == (0, 2)
    return total, np.stack([apply(np.zeros(0), e) for e in np.eye(2)], axis=-1)


def no_dense_blocks(*args):
    raise AssertionError("the dense kernel blocks were formed")


def spy_on_kernel_blocks(monkeypatch):
    """Record the sizes of the point sets each `_kernel_blocks` call pairs."""
    calls, blocks = [], kernels._kernel_blocks

    def recording(hp, kind, a, b):
        calls.append((len(a), len(b)))
        return blocks(hp, kind, a, b)

    monkeypatch.setattr(kernels, "_kernel_blocks", recording)
    return calls


def dense_row_sums(kind, q):
    # oracle: the dense (2M, 2M) block matrix times M stacked identities,
    # its interleaved rows regrouped into 2x2 blocks
    dense = build_block_matrix(HP, kind, q, q) @ np.tile(np.eye(2), (len(q), 1))
    return dense.reshape(-1, 2, 2)


def _walk(step: float) -> np.ndarray:
    """A 587-point random walk of normal steps with standard deviation `step` metres."""
    rng = np.random.default_rng(4)
    return np.cumsum(rng.normal(0.0, step, size=(587, 2)), axis=0)


def _points_apart(seed: int) -> np.ndarray:
    """300 points of a 25 m grid, each moved by up to 2 m: at least 21 m apart."""
    rng = np.random.default_rng(seed)
    grid = np.stack(np.meshgrid(np.arange(20.0), np.arange(15.0)), axis=-1).reshape(-1, 2)
    return 25.0 * grid + rng.uniform(-2.0, 2.0, size=grid.shape)


def _sum_tolerance(num_points: int) -> float:
    return 1e-10 * HP.current_variance * max(num_points, 1)


@st.composite
def row_sum_problems(draw):
    """A kernel and an (M, 2) point set, M up to 60, at an offset."""
    kind = draw(st.sampled_from(list(KernelKind)))
    seed = draw(st.integers(0, 2**32 - 1))
    offset = np.array([draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))])
    extent = draw(st.floats(0.0, 100.0)) * HP.lengthscale
    rng = np.random.default_rng(seed)
    q = offset + extent * rng.uniform(-0.5, 0.5, size=(draw(st.integers(0, 60)), 2))
    return kind, q


@st.composite
def dive_problems(draw):
    """
    A kernel and an (M, 2) dive, M up to 600: a random walk or a straight
    leg at an offset, scaled so that its farthest point lies 0 to 2.5
    lengthscales from its centroid. With no targets the series reaches 2
    lengthscales only at about 200 points, so wide or short dives sum
    `_kernel_blocks`.
    """
    kind = draw(st.sampled_from(list(KernelKind)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(0, 600))
    if draw(st.booleans()):
        q = np.cumsum(rng.normal(size=(m, 2)), axis=0)
    else:
        q = np.linspace(0.0, 1.0, m)[:, None] * rng.normal(size=2) + 1e-3 * rng.normal(size=(m, 2))
    q -= q.sum(axis=0) / max(m, 1)
    radius = np.sqrt((q * q).sum(axis=1)).max(initial=0.0)
    if radius > 0.0:
        q *= draw(st.floats(0.0, 2.5)) * HP.lengthscale / radius
    offset = np.array([draw(st.floats(-1e6, 1e6)), draw(st.floats(-1e6, 1e6))])
    return kind, offset + q


class TestBlockRowSumsProperties:
    @given(dive_problems())
    @settings(max_examples=100, deadline=None)
    def test_dives_match_dense_oracle(self, problem):
        kind, q = problem
        total, sums = own_sums(HP, kind, q)
        dense = dense_row_sums(kind, q)
        np.testing.assert_allclose(sums, dense, rtol=0, atol=_sum_tolerance(len(q)))
        np.testing.assert_allclose(total, dense.sum(axis=0), rtol=0, atol=len(q) * _sum_tolerance(len(q)))

    @given(row_sum_problems())
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_oracle(self, problem):
        kind, q = problem
        total, sums = own_sums(HP, kind, q)
        dense = dense_row_sums(kind, q)
        np.testing.assert_allclose(sums, dense, rtol=0, atol=_sum_tolerance(len(q)))
        np.testing.assert_allclose(total, dense.sum(axis=0), rtol=0, atol=len(q) * _sum_tolerance(len(q)))

    @given(row_sum_problems())
    @settings(max_examples=100, deadline=None)
    def test_translation_invariant(self, problem):
        # the kernel depends on the lag only
        kind, q = problem
        shift = np.array([1e6, -1e6])
        total, sums = own_sums(HP, kind, q)
        shifted_total, shifted = own_sums(HP, kind, q + shift)
        np.testing.assert_allclose(shifted, sums, rtol=0, atol=_sum_tolerance(len(q)))
        np.testing.assert_allclose(shifted_total, total, rtol=0, atol=len(q) * _sum_tolerance(len(q)))
