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
from oracles import cumprod_series_rows, eval_scalar_kernel, series_rows

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


class TestSeriesRows:
    # `_series_rows` against the formula, entry by entry with `math`
    @pytest.mark.parametrize(("order", "radius"), [(0, 0.3), (6, 0.3), (18, 1.0), (47, 3.0)])
    def test_matches_formula(self, order, radius):
        rng = np.random.default_rng(order)
        x, y = rng.uniform(-radius, radius, size=(2, 40))
        rows = kernels._series_rows(x, y, order)
        assert rows.shape == ((order + 1) * (order + 2) // 2, 40)
        np.testing.assert_allclose(rows, series_rows(x, y, order), rtol=1e-13, atol=0)

    def test_clipped_coordinates_stay_finite_at_order_47(self):
        # `cross_sums` clips target coordinates to +-40 lengthscales: every
        # power of 40 up to the 47th over its factorial's root is finite, and
        # w, e^-800 at most, is exactly 0, so such a point's rows are 0, never
        # NaN; the points inside match the formula
        rng = np.random.default_rng(47)
        edge = rng.uniform(-40.0, 40.0, size=6)
        x = np.concatenate([[40.0, -40.0, 40.0, -40.0], edge, rng.uniform(-2.0, 2.0, size=10)])
        y = np.concatenate([[40.0, -40.0, -40.0, 40.0], np.sign(edge) * 40.0, rng.uniform(-2.0, 2.0, size=10)])
        rows = kernels._series_rows(x, y, 47)
        assert np.isfinite(rows).all()
        assert not rows[:, :10].any()
        np.testing.assert_allclose(rows[:, 10:], series_rows(x[10:], y[10:], 47), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("order", [0, 6, 18, 47])
    def test_underflowing_weight_zeroes_every_row(self, order):
        # w = e^-900 underflows to 0, and so does every row of that point
        rows = kernels._series_rows(np.array([30.0, 0.1]), np.array([-30.0, 0.2]), order)
        assert not rows[:, 0].any()
        assert rows[0, 1] > 0.0

    @pytest.mark.parametrize("order", [0, 6, 18, 47])
    def test_empty_point_set(self, order):
        rows = kernels._series_rows(np.empty(0), np.empty(0), order)
        assert rows.shape == ((order + 1) * (order + 2) // 2, 0)

    @pytest.mark.parametrize("order", [5, 6, 7, 8])
    def test_bit_for_bit_the_cumulative_product_form(self, order):
        # survey's dives take orders 5 to 8; each row is the same product of
        # the same table rows as the cumulative-product form's
        rng = np.random.default_rng(order)
        x, y = rng.uniform(-0.4, 0.4, size=(2, 389))
        np.testing.assert_array_equal(kernels._series_rows(x, y, order), cumprod_series_rows(x, y, order))


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
        # within 5 M rows, and its sums come from row blocks of
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

    @pytest.mark.parametrize(
        ("num_points", "radius", "kind"),
        [
            # one point is its own centroid: the diagonal kernel's exact
            # order-0 series, one row against the 5 of its one pair
            # (the incompressible kernel's takes its dense block, below)
            pytest.param(1, 0.0, KernelKind.STANDARD_DIAGONAL, id=f"one_point-{KernelKind.STANDARD_DIAGONAL}"),
            # orders 13 and 12, F = 120 and 91 rows (incompressible,
            # diagonal), too many for the dive's own series (F_p <= M) but
            # within the 5 M rows of its dense sums
            *[pytest.param(60, 0.5, kind, id=f"short_wide_dive-{kind}") for kind in KernelKind],
        ],
    )
    def test_empty_model_takes_the_series(self, kind, num_points, radius, monkeypatch):
        q = np.linspace(-1.0, 1.0, num_points)[:, None] * [0.6, 0.8] * radius * HP.lengthscale + [2e3, -4e3]
        dense = dense_row_sums(kind, q)
        monkeypatch.setattr(kernels, "_kernel_blocks", no_dense_blocks)
        total, sums = own_sums(HP, kind, q)
        np.testing.assert_allclose(sums, dense, rtol=0, atol=_sum_tolerance(num_points))
        np.testing.assert_allclose(total, dense.sum(axis=0), rtol=0, atol=num_points * _sum_tolerance(num_points))

    def test_one_incompressible_point_forms_its_own_block(self, monkeypatch):
        # the incompressible features exact at one point are of order 1, six
        # rows against the 5 of its one pair with itself, so the dense block
        # gives its own variance, exactly
        calls = spy_on_kernel_blocks(monkeypatch)
        total, sums = own_sums(HP, KernelKind.INCOMPRESSIBLE, np.array([[2e3, -4e3]]))
        assert calls == [(1, 1), (0, 1)]
        np.testing.assert_array_equal(sums, [HP.current_variance * np.eye(2)])
        np.testing.assert_array_equal(total, HP.current_variance * np.eye(2))

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


# (r_p, r_t) in lengthscales: the benchmark's smallest and widest dive
# against its targets, a wider dive, and a far target set that still
# takes the series
RADIUS_PAIRS = [(0.05, 0.16), (0.12, 0.55), (0.18, 0.55), (0.05, 3.0)]


class TestFeatureSums:
    # the series' sums about the dive's centroid when the targets reach
    # farther than the dive, r_t > r_p, where the order comes from
    # r^2 = r_p r_t
    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize(("r_p", "r_t"), RADIUS_PAIRS)
    def test_matches_dense_sums(self, kind, r_p, r_t, monkeypatch):
        rng = np.random.default_rng(31)
        p = disc_and_circle(rng, 120, r_p)
        t = disc_and_circle(rng, 80, r_t)
        offset = np.array([2e4, -3e4])
        p, t = p - p.mean(axis=0) + offset, t + offset
        c, v = rng.normal(size=160), rng.normal(size=2)
        k_pp, k_pt = build_block_matrix(HP, kind, p, p), build_block_matrix(HP, kind, p, t)
        ones = np.tile(np.eye(2), (len(p), 1))
        monkeypatch.setattr(kernels, "_kernel_blocks", no_dense_blocks)
        total, ksum, apply = cross_sums(HP, kind, p, t)
        # each error against a few eps of the absolute sum of its row's terms
        eps = 3e-15
        assert_within(total, ones.T @ k_pp @ ones, eps * np.abs(ones.T) @ np.abs(k_pp) @ np.abs(ones))
        assert_within(ksum, k_pt.T @ ones, eps * np.abs(k_pt.T).sum(axis=1, keepdims=True))
        assert_within(apply(c, v).reshape(-1), k_pt @ c + k_pp @ ones @ v,
                      eps * (np.abs(k_pt) @ np.abs(c) + np.abs(k_pp) @ np.abs(ones @ v)))

    @pytest.mark.parametrize("kind", list(KernelKind))
    @pytest.mark.parametrize(("r_p", "r_t"), RADIUS_PAIRS)
    def test_remainder_stays_below_the_bound(self, kind, r_p, r_t):
        # `_feature_order`'s bound at each order K up to the chosen one,
        # against the features' kernel of order K on the two circles and
        # within them, by brute force over angles
        angles = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
        ring = np.column_stack([np.cos(angles), np.sin(angles)])
        p = np.vstack([r_p * ring, 0.5 * r_p * ring])
        q = np.vstack([r_t * ring, 0.5 * r_t * ring])
        want = build_block_matrix(HP, kind, p * HP.lengthscale, q * HP.lengthscale)
        r2 = r_p * r_t
        chosen = kernels._feature_order(kind, r2, np.inf)
        for order in range(chosen + 1):
            got = feature_kernel(kind, p, q, order)
            error = np.abs(got - want).max() / HP.current_variance
            # plus a few eps of rounding on either side
            assert error <= remainder_bound(kind, r2, order) + 2e-15

    @pytest.mark.parametrize("kind", list(KernelKind))
    def test_order_is_the_first_to_meet_the_bound(self, kind):
        for r2 in np.geomspace(1e-4, 10.0, 400):
            order = kernels._feature_order(kind, r2, np.inf)
            assert remainder_bound(kind, r2, order) < 2.0**-53 <= remainder_bound(kind, r2, order - 1)


def assert_within(got, want, tolerance):
    error = np.abs(got - want)
    worst = error.argmax()
    assert (error <= tolerance).all(), f"error {error.flat[worst]:.3g} against {tolerance.flat[worst]:.3g}"


def disc_and_circle(rng, num_points: int, radius: float) -> np.ndarray:
    """Points in metres: a quarter on the circle of `radius` lengthscales about 0, the rest within it."""
    edge = num_points // 4
    angles = rng.uniform(0.0, 2.0 * np.pi, num_points)
    radii = radius * np.concatenate([np.ones(edge), np.sqrt(rng.uniform(0.0, 1.0, num_points - edge))])
    return HP.lengthscale * radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])


def feature_kernel(kind, p, q, order: int) -> np.ndarray:
    """The (2P, 2Q) kernel of the order-K features between points in lengthscales about the centre."""
    if kind is KernelKind.STANDARD_DIAGONAL:
        phi_p, phi_q = kernels._series_rows(*p.T, order), kernels._series_rows(*q.T, order)
        return HP.current_variance * np.kron(phi_p.T @ phi_q, np.eye(2))
    maps = kernels._curl_maps(order)
    a_p, a_q = maps @ kernels._series_rows(*p.T, order + 1), maps @ kernels._series_rows(*q.T, order + 1)
    # rows u0, v0, u1, ... of each point's features
    a_p = a_p.transpose(2, 0, 1).reshape(-1, a_p.shape[1])
    a_q = a_q.transpose(2, 0, 1).reshape(-1, a_q.shape[1])
    return HP.current_variance * a_p @ a_q.T


def remainder_bound(kind, r2: float, order: int) -> float:
    """`_feature_order`'s documented bound on the order-K error, in units of sigma^2."""

    def b(n):  # B_n, the bound on the remainder of exp(t), |t| <= r2, beyond degree n
        return math.exp(r2) * (r2 ** (n + 1) / math.factorial(n + 1) if n >= 0 else 1.0)

    if kind is KernelKind.STANDARD_DIAGONAL:
        return b(order)
    return r2 * (b(order) + b(order - 2)) + (1.0 + 2.0 * r2) * b(order - 1)


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
