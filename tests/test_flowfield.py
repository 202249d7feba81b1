import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftfield.flowfield import (
    AnalyticField,
    Grid,
    Vec2,
    eval_field,
    eval_field_many,
    random_gyre,
    read_field_csv,
    write_field_csv,
)
from oracles import divergence_fd


def eval_streamfunction(f: AnalyticField, p: Vec2) -> float:
    # oracle: phi = c_x*y - c_y*x + A sin(pi*x/Lx - px) sin(pi*y/Ly - py), in m^2/s
    cx, cy = f.current
    lx, ly = f.domain_extent
    px, py = f.phase
    gyre = f.amplitude * math.sin(math.pi * p.x / lx - px) * math.sin(math.pi * p.y / ly - py)
    return cx * p.y - cy * p.x + gyre


def gyre_peak_speed(f: AnalyticField) -> float:
    # closed-form maximum of |w| over the plane for a field with no uniform current
    lx, ly = f.domain_extent
    return f.amplitude * math.pi / min(lx, ly)


def fd_rotated_gradient(f: AnalyticField, p: Vec2, h: float = 1.0) -> Vec2:
    # independent oracle: central differences of the streamfunction
    dphidy = (eval_streamfunction(f, Vec2(p.x, p.y + h)) - eval_streamfunction(f, Vec2(p.x, p.y - h))) / (2 * h)
    dphidx = (eval_streamfunction(f, Vec2(p.x + h, p.y)) - eval_streamfunction(f, Vec2(p.x - h, p.y))) / (2 * h)
    return Vec2(dphidy, -dphidx)


class TestVec2:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Vec2(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Vec2(0.0, float("inf"))


class TestDoubleGyre:
    def test_quarter_cell_value(self):
        # A=1e4, L=5e4 at the cell quarter point: u = A*(pi/L)*sin(pi/4)*cos(pi/4) = pi/10
        f = AnalyticField(amplitude=1e4, domain_extent=(5e4, 5e4))
        u, v = eval_field(f, 12500.0, 12500.0)
        assert u == pytest.approx(math.pi / 10.0, rel=1e-12)
        assert v == pytest.approx(-math.pi / 10.0, rel=1e-12)

    def test_matches_streamfunction_gradient(self):
        f = AnalyticField(amplitude=1e4, domain_extent=(5e4, 3e4), phase=(0.7, -1.2))
        for p in [Vec2(0.0, 0.0), Vec2(12500.0, 12500.0), Vec2(-31000.0, 8000.0), Vec2(3.3e4, -4.1e4)]:
            u, v = eval_field(f, p.x, p.y)
            w_fd = fd_rotated_gradient(f, p, h=1.0)
            assert u == pytest.approx(w_fd.x, abs=1e-8)
            assert v == pytest.approx(w_fd.y, abs=1e-8)

    def test_current_adds_to_the_gyre(self):
        gyre = AnalyticField(amplitude=1e4, domain_extent=(5e4, 3e4), phase=(0.7, -1.2))
        f = AnalyticField(current=(0.2, -0.1), amplitude=1e4, domain_extent=(5e4, 3e4), phase=(0.7, -1.2))
        for p in [Vec2(0.0, 0.0), Vec2(-31000.0, 8000.0), Vec2(3.3e4, -4.1e4)]:
            (u, v), (gu, gv) = eval_field(f, p.x, p.y), eval_field(gyre, p.x, p.y)
            assert (u, v) == (0.2 + gu, -0.1 + gv)
            w_fd = fd_rotated_gradient(f, p, h=1.0)
            assert u == pytest.approx(w_fd.x, abs=1e-8)
            assert v == pytest.approx(w_fd.y, abs=1e-8)

    def test_peak_speed_closed_form(self):
        f = AnalyticField(amplitude=1e4, domain_extent=(6e4, 4e4))
        assert gyre_peak_speed(f) == pytest.approx(1e4 * math.pi / 4e4)
        # sample a dense grid: observed speeds stay below the peak and approach it
        pts = Grid(Vec2(0.0, 0.0), 500.0, 240, 160).points()
        speeds = np.linalg.norm(eval_field_many(f, pts), axis=1)
        assert speeds.max() <= gyre_peak_speed(f) + 1e-12
        assert speeds.max() >= 0.999 * gyre_peak_speed(f)

    def test_square_cell_divergence_cancels(self):
        # symmetric cells: the central-difference terms cancel analytically,
        # leaving only round-off
        f = AnalyticField(amplitude=1e4, domain_extent=(5e4, 5e4), phase=(0.3, 1.1))
        for p in [Vec2(12500.0, 12500.0), Vec2(-8000.0, 30000.0), Vec2(41000.0, -2500.0)]:
            div = divergence_fd(lambda q: Vec2(*eval_field(f, q.x, q.y)), p, h=10.0)
            assert abs(div) < 1e-12

    def test_rectangular_cell_divergence_is_second_order(self):
        # leading FD error: (A pi^4 h^2 / 6) cos(ax) cos(ay) (Lx^2 - Ly^2) / (Lx^3 Ly^3)
        a, lx, ly = 1e4, 6e4, 4e4
        f = AnalyticField(amplitude=a, domain_extent=(lx, ly))
        p = Vec2(0.0, 0.0)
        g = lambda q: Vec2(*eval_field(f, q.x, q.y))
        d1 = divergence_fd(g, p, h=2000.0)
        d2 = divergence_fd(g, p, h=1000.0)
        predicted = (a * math.pi**4 * 2000.0**2 / 6.0) * (lx**2 - ly**2) / (lx**3 * ly**3)
        assert d1 == pytest.approx(predicted, rel=0.02)
        assert d1 / d2 == pytest.approx(4.0, rel=0.05)

    @pytest.mark.parametrize("h", [0.0, -1.0])
    def test_divergence_step_must_be_positive(self, h):
        with pytest.raises(ValueError, match="step h must be positive"):
            divergence_fd(lambda q: q, Vec2(0.0, 0.0), h)


class TestUniformAndZero:
    def test_uniform_field_constant(self):
        f = AnalyticField(current=(0.2, -0.1))
        for p in [Vec2(0.0, 0.0), Vec2(1e5, -3e4)]:
            u, v = eval_field(f, p.x, p.y)
            assert u == pytest.approx(0.2)
            assert v == pytest.approx(-0.1)
        w_fd = fd_rotated_gradient(f, Vec2(500.0, 700.0))
        assert w_fd.x == pytest.approx(0.2, abs=1e-9)
        assert w_fd.y == pytest.approx(-0.1, abs=1e-9)

    @given(
        st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
        st.floats(-1e6, 1e6), st.floats(-1e6, 1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_uniform_returns_its_exact_current(self, u, v, x, y):
        assert eval_field(AnalyticField(current=(u, v)), x, y) == (u, v)

    def test_uniform_zero_current_collapses_to_zero_field(self):
        assert AnalyticField(current=(0.0, 0.0)) == AnalyticField()

    def test_rejects_bad_parameters(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="amplitude"):
                AnalyticField(amplitude=bad)
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="domain extents"):
                AnalyticField(amplitude=1e4, domain_extent=(5e4, bad))
        with pytest.raises(ValueError, match="phase"):
            AnalyticField(amplitude=1e4, phase=(math.nan, 0.0))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="current"):
                AnalyticField(current=(0.1, bad))

    def test_rejects_overflowing_gyre_speed(self):
        for amplitude, extent in ((1e10, (1e-300, 1e-300)), (0.0, (5e4, 1e-310))):
            with pytest.raises(ValueError, match="amplitude.*overflows"):
                AnalyticField(amplitude=amplitude, domain_extent=extent)
        # the largest gyre speed that stays finite is accepted
        AnalyticField(amplitude=1e5, domain_extent=(1e-300, 1e-300))

    def test_zero_field(self):
        f = AnalyticField()
        assert eval_field(f, 123.0, -456.0) == (0.0, 0.0)
        assert eval_streamfunction(f, Vec2(123.0, -456.0)) == 0.0

    def test_vectorised_matches_scalar(self):
        fields = [
            AnalyticField(amplitude=2e4, domain_extent=(4.5e4, 6.2e4), phase=(2.0, 0.4)),
            AnalyticField(current=(-0.3, 0.05)),
            AnalyticField(),
        ]
        pts = np.array([[0.0, 0.0], [1.2e4, -3.4e4], [-5e4, 5e4], [777.0, 888.0]])
        for f in fields:
            many = eval_field_many(f, pts)
            for row, (x, y) in zip(many, pts):
                u, v = eval_field(f, x, y)
                assert row[0] == pytest.approx(u, abs=1e-15)
                assert row[1] == pytest.approx(v, abs=1e-15)

    def test_vectorised_rejects_non_finite_points(self):
        pts = np.array([[0.0, 0.0], [math.nan, 1.0], [2.0, 3.0]])
        with pytest.raises(ValueError, match="finite"):
            eval_field_many(random_gyre(1), pts)


class TestRandomGyre:
    def test_deterministic(self):
        a = random_gyre(7)
        b = random_gyre(7)
        assert a == b
        assert random_gyre(8) != a

    def test_peak_speed_band_and_extents(self):
        for seed in range(50):
            f = random_gyre(seed)
            s = gyre_peak_speed(f)
            assert 0.1 <= s <= 0.5
            lx, ly = f.domain_extent
            assert 3e4 <= lx <= 7e4
            assert 3e4 <= ly <= 7e4

    def test_divergence_free(self):
        f = random_gyre(123)
        rng = np.random.default_rng(0)
        for _ in range(10):
            p = Vec2(*rng.uniform(-1e5, 1e5, size=2))
            div = divergence_fd(lambda q: Vec2(*eval_field(f, q.x, q.y)), p, h=5.0)
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
        # the last point on either axis must stay finite
        for nx, ny in ((20, 2), (2, 20)):
            with pytest.raises(ValueError, match="grid of .* leaves the float range"):
                Grid(Vec2(0, 0), 1e307, nx, ny)
        with pytest.raises(ValueError, match="leaves the float range"):
            Grid(Vec2(-1e308, 1.7e308), 1e307, 1, 2)
        Grid(Vec2(0, 0), 1e307, 17, 17)  # 1.6e308 is still finite


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

    def test_exact_bytes(self, tmp_path):
        # a header, then each value's repr; CRLF ends every line
        g = Grid(Vec2(0.0, -1.5), 0.5, nx=2, ny=1)
        path = tmp_path / "field.csv"
        write_field_csv(path, g, np.array([[0.1, -0.2], [1e-05, 3.0]]))
        assert path.read_bytes() == (
            b"x_m,y_m,u_mps,v_mps\r\n0.0,-1.5,0.1,-0.2\r\n0.5,-1.5,1e-05,3.0\r\n"
        )

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n1,2,3,4\n")
        with pytest.raises(ValueError):
            read_field_csv(path)

    def test_row_of_wrong_width_names_its_line(self, tmp_path):
        # two short rows must not read back as one point
        path = tmp_path / "short.csv"
        path.write_text("x_m,y_m,u_mps,v_mps\n1,2\n3,4\n")
        with pytest.raises(ValueError, match=r"short\.csv:2: expected 4 values, got 2"):
            read_field_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            read_field_csv(path)

    def test_length_mismatch_rejected(self, tmp_path):
        g = Grid(Vec2(0.0, 0.0), 1.0, 2, 2)
        with pytest.raises(ValueError):
            write_field_csv(tmp_path / "x.csv", g, np.zeros((3, 2)))
