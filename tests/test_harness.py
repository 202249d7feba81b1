import json
import math

import numpy as np
import pytest

from driftfield.flowfield import AnalyticField, Grid, Vec2, eval_field, eval_field_many, random_gyre
from driftfield.kernels import HyperParams
from driftfield.simulator import VehicleConfig
from driftfield.estimator import EmConfig
from driftfield.harness import (
    ConvergenceReport,
    DegenerateTruth,
    RunConfig,
    default_grid,
    emit_report,
    monte_carlo,
    normalized_error,
    read_convergence_csv,
)

HP = HyperParams(lengthscale=35000.0, current_variance=0.5, gps_noise_std=3.0)
GRID = Grid(Vec2(-5000.0, -5000.0), 1000.0, 11, 11)


def small_config(trials=2, base_seed=500):
    waypoints = (Vec2(1500.0, 0.0), Vec2(1500.0, 1500.0))
    return RunConfig(
        hp=HP,
        vehicle=VehicleConfig(waypoints=waypoints, gps_noise_std=3.0),
        em=EmConfig(),
        grid=Grid(Vec2(-500.0, -500.0), 300.0, 10, 10),
        trials=trials,
        base_seed=base_seed,
    )


class TestNormalizedError:
    def test_perfect_estimate_scores_zero(self):
        truth = eval_field_many(random_gyre(1), GRID.points())
        assert normalized_error(truth.copy(), truth) == 0.0

    def test_zero_estimate_scores_one(self):
        truth = eval_field_many(random_gyre(1), GRID.points())
        err = normalized_error(np.zeros_like(truth), truth)
        assert err == pytest.approx(1.0)

    def test_doubled_estimate_scores_one(self):
        truth = eval_field_many(random_gyre(1), GRID.points())
        err = normalized_error(2.0 * truth, truth)
        assert err == pytest.approx(1.0)

    def test_degenerate_truth(self):
        truth = eval_field_many(AnalyticField(), GRID.points())
        with pytest.raises(DegenerateTruth):
            normalized_error(np.tile([1.0, 0.0], (len(truth), 1)), truth)

    def test_stagnation_points_masked(self):
        # the cell-corner stagnation point at the origin is excluded, so a
        # wild estimate there cannot poison the score
        truth = AnalyticField(amplitude=1e4, domain_extent=(5e4, 5e4))
        grid = Grid(Vec2(0.0, 0.0), 12500.0, 3, 3)
        assert math.hypot(*eval_field(truth, 0.0, 0.0)) == 0.0

        def est(p):
            if p.x == 0.0 and p.y == 0.0:
                return Vec2(1e6, 1e6)
            return Vec2(*eval_field(truth, p.x, p.y))

        est_uv = np.array([est(Vec2(x, y)).as_array() for x, y in grid.points()])
        assert normalized_error(est_uv, eval_field_many(truth, grid.points())) == 0.0


class TestDefaultGrid:
    def test_covers_padded_mission_box(self):
        # the tour and its start at the origin
        wps = np.array([[0.0, 0.0], [5000.0, 0.0], [10000.0, 20000.0]])
        g = default_grid(wps, lengthscale=35000.0)
        pts = g.points()
        assert g.nx == 20 and g.ny == 20
        pad = 17500.0
        assert pts[:, 0].min() <= 0.0 - pad + 1e-6
        assert pts[:, 0].max() >= 10000.0 + pad - g.spacing
        assert pts[:, 1].min() <= 0.0 - pad + 1e-6
        assert pts[:, 1].max() >= 20000.0 + pad - g.spacing

    def test_square_cells(self):
        g = default_grid([[1000.0, 0.0]], lengthscale=10000.0)
        pts = g.points()
        assert pts.shape == (400, 2)
        xs = np.unique(pts[:, 0])
        ys = np.unique(pts[:, 1])
        np.testing.assert_allclose(np.diff(xs), g.spacing)
        np.testing.assert_allclose(np.diff(ys), g.spacing)


class TestMonteCarlo:
    def test_deterministic(self):
        cfg = small_config()
        a = monte_carlo(cfg)
        b = monte_carlo(cfg)
        for kernel in a.errors:
            np.testing.assert_array_equal(a.errors[kernel], b.errors[kernel])
        assert a.kept_trial_indices == b.kept_trial_indices

    def test_parallel_matches_serial(self):
        cfg = small_config()
        serial = monte_carlo(cfg, workers=1)
        parallel = monte_carlo(cfg, workers=2)
        for kernel in serial.errors:
            np.testing.assert_array_equal(serial.errors[kernel], parallel.errors[kernel])

    def test_shapes_and_both_kernels(self):
        cfg = small_config(trials=3)
        rep = monte_carlo(cfg)
        assert set(rep.errors) == {"incompressible", "standard_diagonal"}
        for mat in rep.errors.values():
            assert mat.shape == (3, 2)
            assert (mat >= 0).all()
        assert rep.num_cycles == 2
        s = rep.summary()
        assert s["kept_trials"] == 3
        assert len(s["incompressible"]["median"]) == 2
        assert len(s["incompressible"]["p00_5"]) == 2
        assert len(s["incompressible"]["p99_5"]) == 2

    def test_aborted_trials_excluded_with_reason(self):
        cfg = small_config(trials=2)
        crippled = RunConfig(
            hp=cfg.hp,
            vehicle=VehicleConfig(waypoints=(Vec2(5e4, 0.0),), max_steps_per_cycle=5),
            em=cfg.em,
            grid=cfg.grid,
            trials=2,
            base_seed=cfg.base_seed,
        )
        rep = monte_carlo(crippled)
        assert rep.kept_trial_indices == []
        assert len(rep.excluded) == 2
        assert all("MissionAborted" in reason for _, reason in rep.excluded)

    def test_degenerate_field_excluded_per_trial(self, monkeypatch):
        # a still truth field in every (serial) trial
        monkeypatch.setattr("driftfield.harness.random_gyre", lambda seed: AnalyticField())
        cfg = small_config(trials=2)
        rep = monte_carlo(cfg)
        assert rep.kept_trial_indices == []
        assert all("DegenerateTruth" in reason for _, reason in rep.excluded)

    def test_pool_never_exceeds_the_trials(self, monkeypatch):
        # a stand-in pool that records its size and starts no process
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("driftfield.harness.ProcessPoolExecutor", SerialPool)
        rep = monte_carlo(small_config(trials=2), workers=10_000)
        assert sizes == [2]
        assert rep.kept_trial_indices == [0, 1]

    def test_trials_validated(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            RunConfig(
                hp=cfg.hp, vehicle=cfg.vehicle, em=cfg.em,
                grid=cfg.grid, trials=0, base_seed=0,
            )


class TestReportEmission:
    def test_row_count_and_round_trip(self, tmp_path):
        cfg = small_config(trials=2)
        rep = monte_carlo(cfg)
        emit_report(rep, tmp_path)
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        # 2 trials x 2 cycles x 2 kernels
        assert len(lines) == 1 + 8
        parsed = read_convergence_csv(tmp_path / "convergence.csv")
        for kernel, mat in rep.errors.items():
            for row, trial in enumerate(rep.kept_trial_indices):
                assert parsed[kernel][trial] == list(mat[row])

    def test_summary_json(self, tmp_path):
        rep = monte_carlo(small_config(trials=2))
        emit_report(rep, tmp_path)
        s = json.loads((tmp_path / "summary.json").read_text())
        assert s["kept_trials"] == 2
        assert s["excluded"] == []
        assert "incompressible" in s and "standard_diagonal" in s

    def test_empty_report_writes_header_only(self, tmp_path):
        rep = ConvergenceReport(
            errors={"incompressible": np.zeros((0, 0))},
            kept_trial_indices=[],
            excluded=[(0, "MissionAborted: testing")],
            grid=GRID,
            final_fields={"incompressible": []},
        )
        emit_report(rep, tmp_path)
        assert (tmp_path / "convergence.csv").read_text() == "trial,cycle,kernel,normalized_error\n"
        s = json.loads((tmp_path / "summary.json").read_text())
        assert s["excluded_trials"] == 1

    def test_field_csvs_on_request(self, tmp_path):
        from driftfield.flowfield import read_field_csv

        cfg = small_config(trials=2)
        rep = monte_carlo(cfg)
        written = emit_report(rep, tmp_path, include_fields=True)
        field_files = sorted(p for p in written if "fields" in str(p))
        assert len(field_files) == 4  # 2 trials x 2 kernels
        pts, uv = read_field_csv(field_files[0])
        assert pts.shape == (100, 2)
        assert uv.shape == (100, 2)

    def test_negative_errors_rejected(self):
        with pytest.raises(ValueError):
            ConvergenceReport(
                errors={"incompressible": np.array([[-0.1]])},
                kept_trial_indices=[0],
                excluded=[],
                grid=GRID,
                final_fields={"incompressible": [np.zeros((121, 2))]},
            )

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a,b\n")
        with pytest.raises(ValueError):
            read_convergence_csv(p)
