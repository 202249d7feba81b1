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
    block_row_sums,
    build_block_matrix,
    eval_kernel,
    eval_scalar_kernel,
)

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

    def test_streamfunction_variance(self):
        assert HP.streamfunction_variance == pytest.approx(0.5 * 35000.0**2)


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
        k = eval_kernel(HP, KernelKind.INCOMPRESSIBLE, Vec2(7.0, -3.0), Vec2(7.0, -3.0))
        assert k[0, 0] == 0.5 and k[1, 1] == 0.5
        assert k[0, 1] == 0.0 and k[1, 0] == 0.0

    @pytest.mark.parametrize("hp", [HP, HyperParams(500.0, 0.25, 1.0)], ids=["35km", "500m"])
    def test_matches_fd_of_scalar_kernel(self, hp):
        l = hp.lengthscale
        h = 1e-4 * l
        lags = [(0.0, 0.0), (0.3, 0.0), (0.0, -0.7), (0.5, 0.5), (-1.2, 0.4), (2.0, -1.5)]
        for x, y in lags:
            d = Vec2(x * l, y * l)
            k = eval_kernel(hp, KernelKind.INCOMPRESSIBLE, d, Vec2(0.0, 0.0))
            k_fd = fd_second_derivatives(hp, d, h)
            np.testing.assert_allclose(k, k_fd, atol=1e-6 * hp.current_variance)

    def test_transpose_symmetry(self):
        p, q = Vec2(1000.0, -2000.0), Vec2(-500.0, 4000.0)
        k_pq = eval_kernel(HP, KernelKind.INCOMPRESSIBLE, p, q)
        k_qp = eval_kernel(HP, KernelKind.INCOMPRESSIBLE, q, p)
        np.testing.assert_allclose(k_pq, k_qp.T, atol=0)

    def test_far_field_decay(self):
        d = 8.0 * HP.lengthscale
        k = eval_kernel(HP, KernelKind.INCOMPRESSIBLE, Vec2(d, 0.0), Vec2(0.0, 0.0))
        assert np.abs(k).max() <= 1e-12 * HP.current_variance

    def test_standard_diagonal(self):
        p, q = Vec2(0.0, 0.0), Vec2(20000.0, -10000.0)
        k = eval_kernel(HP, KernelKind.STANDARD_DIAGONAL, p, q)
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
        k = eval_kernel(HP, KernelKind.INCOMPRESSIBLE, Vec2(px, py), Vec2(qx, qy))
        k_shifted = eval_kernel(
            HP, KernelKind.INCOMPRESSIBLE, Vec2(px + sx, py + sy), Vec2(qx + sx, qy + sy)
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
                    block = eval_kernel(HP, kind, Vec2(*a[i]), Vec2(*b[j]))
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
    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_matches_dense_block_sum(self, kind):
        rng = np.random.default_rng(3)
        q = rng.uniform(-5e4, 5e4, size=(7, 2))
        sums = block_row_sums(HP, kind, q)
        assert sums.shape == (7, 2, 2)
        np.testing.assert_allclose(sums, dense_row_sums(kind, q), rtol=1e-12)

    def test_empty_inputs(self):
        sums = block_row_sums(HP, KernelKind.INCOMPRESSIBLE, np.zeros((0, 2)))
        assert sums.shape == (0, 2, 2)

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_dive_sized_prior_spans_several_row_blocks(self, kind):
        # a 587-point dive, the longest in the acceptance study
        rng = np.random.default_rng(4)
        q = np.cumsum(rng.normal(0.0, 40.0, size=(587, 2)), axis=0)
        assert 587 * 587 > 2 * kernels.ROW_SUM_BLOCK_ENTRIES
        sums = block_row_sums(HP, kind, q)
        np.testing.assert_allclose(sums, dense_row_sums(kind, q), rtol=0, atol=_sum_tolerance(587))

    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize("entries", [1, 5, 33, 60])
    def test_row_blocks_do_not_change_the_sums(self, kind, entries, monkeypatch):
        rng = np.random.default_rng(5)
        q = rng.uniform(-5e4, 5e4, size=(6, 2))
        whole = block_row_sums(HP, kind, q)
        monkeypatch.setattr(kernels, "ROW_SUM_BLOCK_ENTRIES", entries)
        np.testing.assert_allclose(block_row_sums(HP, kind, q), whole, rtol=1e-13, atol=1e-16)


def dense_row_sums(kind, q):
    # oracle: the dense (2M, 2M) block matrix times M stacked identities,
    # its interleaved rows regrouped into 2x2 blocks
    dense = build_block_matrix(HP, kind, q, q) @ np.tile(np.eye(2), (len(q), 1))
    return dense.reshape(-1, 2, 2)


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


class TestBlockRowSumsProperties:
    @given(row_sum_problems())
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_oracle(self, problem):
        kind, q = problem
        sums = block_row_sums(HP, kind, q)
        assert sums.shape == (len(q), 2, 2)
        np.testing.assert_allclose(sums, dense_row_sums(kind, q), rtol=0, atol=_sum_tolerance(len(q)))

    @given(row_sum_problems())
    @settings(max_examples=100, deadline=None)
    def test_translation_invariant(self, problem):
        # the kernel depends on the lag only
        kind, q = problem
        shift = np.array([1e6, -1e6])
        sums = block_row_sums(HP, kind, q)
        shifted = block_row_sums(HP, kind, q + shift)
        np.testing.assert_allclose(shifted, sums, rtol=0, atol=_sum_tolerance(len(q)))
