import math

import numpy as np
import pytest

from driftfield.flowfield import (
    AnalyticField,
    FieldKind,
    Grid,
    Vec2,
    divergence_fd,
    eval_field,
    eval_field_many,
    eval_streamfunction,
    peak_speed,
    random_gyre,
    read_field_csv,
    write_field_csv,
)


def fd_rotated_gradient(f: AnalyticField, p: Vec2, h: float = 1.0) -> Vec2:
    # independent oracle: central differences of the streamfunction
    dphidy = (eval_streamfunction(f, Vec2(p.x, p.y + h)) - eval_streamfunction(f, Vec2(p.x, p.y - h))) / (2 * h)
    dphidx = (eval_streamfunction(f, Vec2(p.x + h, p.y)) - eval_streamfunction(f, Vec2(p.x - h, p.y))) / (2 * h)
    return Vec2(dphidy, -dphidx)


class TestVec2:
    def test_arithmetic(self):
        a = Vec2(1.0, 2.0)
        b = Vec2(-0.5, 4.0)
        assert (a + b) == Vec2(0.5, 6.0)
        assert (a - b) == Vec2(1.5, -2.0)
        assert 2.0 * a == Vec2(2.0, 4.0)
        assert a.norm() == pytest.approx(math.sqrt(5.0))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Vec2(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Vec2(0.0, float("inf"))


class TestDoubleGyre:
    def test_quarter_cell_value(self):
        # A=1e4, L=5e4 at the cell quarter point: u = A*(pi/L)*sin(pi/4)*cos(pi/4) = pi/10
        f = AnalyticField.double_gyre(1e4, extent=(5e4, 5e4))
        w = eval_field(f, Vec2(12500.0, 12500.0))
        assert w.x == pytest.approx(math.pi / 10.0, rel=1e-12)
        assert w.y == pytest.approx(-math.pi / 10.0, rel=1e-12)

    def test_matches_streamfunction_gradient(self):
        f = AnalyticField.double_gyre(1e4, extent=(5e4, 3e4), phase=(0.7, -1.2))
        for p in [Vec2(0.0, 0.0), Vec2(12500.0, 12500.0), Vec2(-31000.0, 8000.0), Vec2(3.3e4, -4.1e4)]:
            w = eval_field(f, p)
            w_fd = fd_rotated_gradient(f, p, h=1.0)
            assert w.x == pytest.approx(w_fd.x, abs=1e-8)
            assert w.y == pytest.approx(w_fd.y, abs=1e-8)

    def test_peak_speed_closed_form(self):
        f = AnalyticField.double_gyre(1e4, extent=(6e4, 4e4))
        assert peak_speed(f) == pytest.approx(1e4 * math.pi / 4e4)
        # sample a dense grid: observed speeds stay below the peak and approach it
        pts = Grid(Vec2(0.0, 0.0), 500.0, 240, 160).points()
        speeds = np.linalg.norm(eval_field_many(f, pts), axis=1)
        assert speeds.max() <= peak_speed(f) + 1e-12
        assert speeds.max() >= 0.999 * peak_speed(f)

    def test_square_cell_divergence_cancels(self):
        # symmetric cells: the central-difference terms cancel analytically,
        # leaving only round-off
        f = AnalyticField.double_gyre(1e4, extent=(5e4, 5e4), phase=(0.3, 1.1))
        for p in [Vec2(12500.0, 12500.0), Vec2(-8000.0, 30000.0), Vec2(41000.0, -2500.0)]:
            div = divergence_fd(lambda q: eval_field(f, q), p, h=10.0)
            assert abs(div) < 1e-12

    def test_rectangular_cell_divergence_is_second_order(self):
        # leading FD error: (A pi^4 h^2 / 6) cos(ax) cos(ay) (Lx^2 - Ly^2) / (Lx^3 Ly^3)
        a, lx, ly = 1e4, 6e4, 4e4
        f = AnalyticField.double_gyre(a, extent=(lx, ly))
        p = Vec2(0.0, 0.0)
        g = lambda q: eval_field(f, q)
        d1 = divergence_fd(g, p, h=2000.0)
        d2 = divergence_fd(g, p, h=1000.0)
        predicted = (a * math.pi**4 * 2000.0**2 / 6.0) * (lx**2 - ly**2) / (lx**3 * ly**3)
        assert d1 == pytest.approx(predicted, rel=0.02)
        assert d1 / d2 == pytest.approx(4.0, rel=0.05)


class TestUniformAndZero:
    def test_uniform_field_constant(self):
        f = AnalyticField.uniform(Vec2(0.2, -0.1))
        for p in [Vec2(0.0, 0.0), Vec2(1e5, -3e4)]:
            w = eval_field(f, p)
            assert w.x == pytest.approx(0.2)
            assert w.y == pytest.approx(-0.1)
        w_fd = fd_rotated_gradient(f, Vec2(500.0, 700.0))
        assert w_fd.x == pytest.approx(0.2, abs=1e-9)
        assert w_fd.y == pytest.approx(-0.1, abs=1e-9)

    def test_uniform_zero_current_collapses_to_zero_field(self):
        f = AnalyticField.uniform(Vec2(0.0, 0.0))
        assert f.kind is FieldKind.UNIFORM and f.amplitude == 0.0

    def test_rejects_bad_parameters(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="amplitude"):
                AnalyticField.double_gyre(bad)
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="domain extents"):
                AnalyticField.double_gyre(1e4, extent=(5e4, bad))
        with pytest.raises(ValueError, match="phase"):
            AnalyticField.double_gyre(1e4, phase=(math.nan, 0.0))

    def test_zero_field(self):
        f = AnalyticField.zero()
        assert eval_field(f, Vec2(123.0, -456.0)) == Vec2(0.0, 0.0)
        assert eval_streamfunction(f, Vec2(123.0, -456.0)) == 0.0
        assert peak_speed(f) == 0.0

    def test_vectorised_matches_scalar(self):
        fields = [
            AnalyticField.double_gyre(2e4, extent=(4.5e4, 6.2e4), phase=(2.0, 0.4)),
            AnalyticField.uniform(Vec2(-0.3, 0.05)),
            AnalyticField.zero(),
        ]
        pts = np.array([[0.0, 0.0], [1.2e4, -3.4e4], [-5e4, 5e4], [777.0, 888.0]])
        for f in fields:
            many = eval_field_many(f, pts)
            for row, (x, y) in zip(many, pts):
                w = eval_field(f, Vec2(x, y))
                assert row[0] == pytest.approx(w.x, abs=1e-15)
                assert row[1] == pytest.approx(w.y, abs=1e-15)


class TestRandomGyre:
    def test_deterministic(self):
        a = random_gyre(7)
        b = random_gyre(7)
        assert a == b
        assert random_gyre(8) != a

    def test_peak_speed_band_and_extents(self):
        for seed in range(50):
            f = random_gyre(seed)
            s = peak_speed(f)
            assert 0.1 <= s <= 0.5
            lx, ly = f.domain_extent
            assert 3e4 <= lx <= 7e4
            assert 3e4 <= ly <= 7e4

    def test_divergence_free(self):
        f = random_gyre(123)
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = Vec2(*rng.uniform(-1e5, 1e5, size=2))
            div = divergence_fd(lambda q: eval_field(f, q), p, h=5.0)
            assert abs(div) < 1e-10


class TestGrid:
    def test_row_major_layout(self):
        g = Grid(Vec2(10.0, 20.0), 5.0, nx=3, ny=2)
        pts = g.points()
        expected = np.array(
            [[10, 20], [15, 20], [20, 20], [10, 25], [15, 25], [20, 25]], dtype=float
        )
        np.testing.assert_array_equal(pts, expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(Vec2(0, 0), 0.0, 2, 2)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="grid spacing must be positive and finite"):
                Grid(Vec2(0, 0), bad, 2, 2)
        with pytest.raises(ValueError):
            Grid(Vec2(0, 0), 1.0, 0, 2)


class TestFieldCsv:
    def test_round_trip_exact(self, tmp_path):
        f = random_gyre(5)
        g = Grid(Vec2(-1000.0, 2000.0), 333.25, nx=7, ny=5)
        uv = eval_field_many(f, g.points())
        path = tmp_path / "field.csv"
        write_field_csv(path, g, uv)
        pts_back, uv_back = read_field_csv(path)
        # repr-based floats survive the text round trip bit for bit
        np.testing.assert_array_equal(pts_back, g.points())
        np.testing.assert_array_equal(uv_back, uv)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n1,2,3,4\n")
        with pytest.raises(ValueError):
            read_field_csv(path)

    def test_length_mismatch_rejected(self, tmp_path):
        g = Grid(Vec2(0.0, 0.0), 1.0, 2, 2)
        with pytest.raises(ValueError):
            write_field_csv(tmp_path / "x.csv", g, np.zeros((3, 2)))
