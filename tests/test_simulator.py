import json
import logging
import math

import numpy as np
import pytest

from driftfield.flowfield import AnalyticField, Vec2, eval_field, random_gyre
from driftfield.simulator import (
    EARTH_RADIUS_M,
    Cycle,
    MissionAborted,
    MissionLog,
    ParseError,
    ValidationError,
    VehicleConfig,
    ingest_cycles,
    latlon_to_local,
    run_mission,
    step_dead_reckoned,
    step_truth,
    write_cycles,
)

WAYPOINTS = (Vec2(5000.0, 0.0), Vec2(5000.0, 5000.0), Vec2(0.0, 5000.0), Vec2(0.0, 0.0))


def quiet_config(**overrides):
    kw = dict(waypoints=WAYPOINTS, gps_noise_std=0.0)
    kw.update(overrides)
    return VehicleConfig(**kw)


def rk4_endpoint(fld: AnalyticField, p0: Vec2, total_t: float, dt: float) -> Vec2:
    # independent oracle: classical RK4 on the drifting-particle ODE dp/dt = w(p)
    def f(q):
        w = eval_field(fld, Vec2(q[0], q[1]))
        return np.array([w.x, w.y])

    p = np.array([p0.x, p0.y])
    for _ in range(int(round(total_t / dt))):
        k1 = f(p)
        k2 = f(p + 0.5 * dt * k1)
        k3 = f(p + 0.5 * dt * k2)
        k4 = f(p + dt * k3)
        p = p + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return Vec2(p[0], p[1])


class TestSteppers:
    def test_truth_step(self):
        assert step_truth(Vec2(0, 0), Vec2(1.0, 0.0), Vec2(0.0, 0.0), 60.0) == Vec2(60.0, 0.0)

    def test_command_cancels_current(self):
        p = Vec2(10.0, -20.0)
        assert step_truth(p, Vec2(0.2, -0.1), Vec2(-0.2, 0.1), 60.0) == p

    def test_dead_reckoned_step(self):
        assert step_dead_reckoned(Vec2(0, 0), Vec2(0.3, 0.4), 10.0) == Vec2(3.0, 4.0)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            step_truth(Vec2(0, 0), Vec2(0, 0), Vec2(0, 0), 0.0)
        with pytest.raises(ValueError):
            step_dead_reckoned(Vec2(0, 0), Vec2(0, 0), -1.0)

    def test_euler_close_to_rk4_for_drifting_particle(self):
        # 500 steps at dt = 60 with peak speed 0.45 m/s: explicit Euler
        # endpoint within 1% of a tenth-step RK4 integration
        fld = AnalyticField.double_gyre(0.45 * 5e4 / math.pi, extent=(5e4, 5e4))
        p = Vec2(12500.0, 5000.0)
        start = p
        for _ in range(500):
            p = step_truth(p, Vec2(0.0, 0.0), eval_field(fld, p), 60.0)
        oracle = rk4_endpoint(fld, start, 500 * 60.0, 6.0)
        assert (p - oracle).norm() <= 0.01 * (oracle - start).norm()


class TestCycle:
    def test_drift_is_fix_minus_last_point(self):
        c = Cycle(60.0, [Vec2(0, 0), Vec2(21, 0)], Vec2(25.0, -4.0))
        assert c.drift == Vec2(4.0, -4.0)
        assert c.num_steps == 1

    def test_requires_at_least_one_step(self):
        with pytest.raises(ValueError):
            Cycle(60.0, [Vec2(0, 0)], Vec2(0, 0))

    def test_requires_positive_dt(self):
        with pytest.raises(ValueError):
            Cycle(0.0, [Vec2(0, 0), Vec2(1, 0)], Vec2(1, 0))


class TestVehicleConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            VehicleConfig(speed_through_water=0.0, waypoints=WAYPOINTS)
        with pytest.raises(ValueError):
            VehicleConfig(waypoints=())
        with pytest.raises(ValueError):
            VehicleConfig(waypoints=WAYPOINTS, max_steps_per_cycle=0)

    def test_defaults(self):
        cfg = VehicleConfig(waypoints=WAYPOINTS)
        assert cfg.speed_through_water == 0.35
        assert cfg.dt == 60.0
        assert cfg.surface_tolerance == 100.0
        assert cfg.gps_noise_std == 3.0


class TestRunMission:
    def test_zero_field_zero_noise_gives_zero_drift(self):
        log = run_mission(quiet_config(), AnalyticField.zero(), seed=0)
        assert len(log.cycles) == 4
        for c in log.cycles:
            assert c.drift == Vec2(0.0, 0.0)

    def test_zero_current_dead_reckoning_equals_truth(self):
        log = run_mission(quiet_config(), AnalyticField.zero(), seed=0)
        for c, path in zip(log.cycles, log.truth_trajectories):
            for est, tru in zip(c.dead_reckoned, path):
                assert est == tru

    def test_zero_current_reaches_every_waypoint(self):
        cfg = quiet_config()
        log = run_mission(cfg, AnalyticField.zero(), seed=0)
        for c, wp in zip(log.cycles, cfg.waypoints):
            assert (c.dead_reckoned[-1] - wp).norm() <= cfg.surface_tolerance

    def test_uniform_current_drift_telescopes(self):
        current = Vec2(0.08, -0.05)
        log = run_mission(quiet_config(), AnalyticField.uniform(current), seed=0)
        for c in log.cycles:
            expected = c.num_steps * c.dt * np.array([current.x, current.y])
            # per-step float rounding only
            assert abs(c.drift.x - expected[0]) < 1e-6
            assert abs(c.drift.y - expected[1]) < 1e-6

    def test_drift_identity_against_truth_trajectory(self):
        # with exact fixes, drift is dt times the summed current sampled
        # along the true path (left endpoints)
        fld = random_gyre(21)
        log = run_mission(quiet_config(), fld, seed=5)
        for c, path in zip(log.cycles, log.truth_trajectories):
            w_sum = np.sum(
                [eval_field(fld, p).as_array() for p in path[:-1]], axis=0
            )
            expected = c.dt * w_sum
            assert abs(c.drift.x - expected[0]) < 1e-6
            assert abs(c.drift.y - expected[1]) < 1e-6

    def test_cycles_chain_exactly(self):
        log = run_mission(
            VehicleConfig(waypoints=WAYPOINTS, gps_noise_std=3.0), random_gyre(2), seed=9
        )
        for prev, nxt in zip(log.cycles, log.cycles[1:]):
            assert nxt.dead_reckoned[0] == prev.gps_fix

    def test_deterministic(self):
        cfg = VehicleConfig(waypoints=WAYPOINTS, gps_noise_std=3.0)
        a = run_mission(cfg, random_gyre(4), seed=77)
        b = run_mission(cfg, random_gyre(4), seed=77)
        assert len(a.cycles) == len(b.cycles)
        for ca, cb in zip(a.cycles, b.cycles):
            assert ca.gps_fix == cb.gps_fix
            assert ca.dead_reckoned == cb.dead_reckoned
        c = run_mission(cfg, random_gyre(4), seed=78)
        assert any(ca.gps_fix != cc.gps_fix for ca, cc in zip(a.cycles, c.cycles))

    def test_every_cycle_has_at_least_one_step(self):
        # second waypoint sits inside the surfacing tolerance of the first
        cfg = quiet_config(waypoints=(Vec2(500.0, 0.0), Vec2(520.0, 0.0)))
        log = run_mission(cfg, AnalyticField.zero(), seed=0)
        assert all(c.num_steps >= 1 for c in log.cycles)

    def test_abort_when_no_waypoint_reachable(self):
        cfg = quiet_config(waypoints=(Vec2(5e4, 0.0), Vec2(6e4, 0.0)), max_steps_per_cycle=10)
        with pytest.raises(MissionAborted) as exc:
            run_mission(cfg, AnalyticField.zero(), seed=0)
        assert len(exc.value.log.cycles) == 2  # partial log still delivered

    def test_no_abort_when_vehicle_recovers(self):
        # first waypoint is out of step budget, second is reachable from
        # where the vehicle ends up
        cfg = quiet_config(waypoints=(Vec2(500.0, 0.0), Vec2(250.0, 0.0)), max_steps_per_cycle=10)
        log = run_mission(cfg, AnalyticField.zero(), seed=0)
        assert len(log.cycles) == 2

    def test_abort_on_final_waypoint_failure(self):
        cfg = quiet_config(waypoints=(Vec2(150.0, 0.0), Vec2(5e4, 0.0)), max_steps_per_cycle=10)
        with pytest.raises(MissionAborted):
            run_mission(cfg, AnalyticField.zero(), seed=0)


class TestMissionLog:
    def test_truth_length_checked(self):
        c = Cycle(60.0, [Vec2(0, 0), Vec2(21, 0)], Vec2(21, 0))
        with pytest.raises(ValueError):
            MissionLog([c], truth_trajectories=[])


class TestCycleLogIO:
    def test_round_trip_is_exact(self, tmp_path):
        log = run_mission(
            VehicleConfig(waypoints=WAYPOINTS, gps_noise_std=3.0), random_gyre(6), seed=3
        )
        path = tmp_path / "cycles.jsonl"
        write_cycles(log, path)
        back = ingest_cycles(path)
        assert back.truth_trajectories is None
        assert len(back.cycles) == len(log.cycles)
        for ca, cb in zip(log.cycles, back.cycles):
            assert ca.dt == cb.dt
            assert ca.dead_reckoned == cb.dead_reckoned
            assert ca.gps_fix == cb.gps_fix
            assert ca.drift == cb.drift

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"dt_s": 60.0, "dead_reckoned_m": [[0, 0], [21, 0]], "gps_fix_m": [22, 1]})
        path.write_text(good + "\n{not json\n")
        with pytest.raises(ParseError, match="line 2"):
            ingest_cycles(path)

    def test_missing_fix_field_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"dt_s": 60.0, "dead_reckoned_m": [[0, 0], [21, 0]]}) + "\n")
        with pytest.raises(ParseError, match="line 1"):
            ingest_cycles(path)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"gps_fix_m": [1]},
            {"gps_fix_m": 5},
            {"gps_fix_m": {"x": 1}},
            {"dead_reckoned_m": 5},
            {"dead_reckoned_m": [[0, 0, 0], [21, 0, 0]]},
            {"dead_reckoned_m": [[0, 0], ["a", 0]]},
            {"drift_m": [1]},
            {"dead_reckoned_latlon": [[0, 0], [0, 1e-3]], "gps_fix_latlon": [1]},
            {"dead_reckoned_latlon": 7, "gps_fix_latlon": [0, 0]},
        ],
    )
    def test_malformed_positions_raise_parse_error(self, tmp_path, overrides):
        rec = {"dt_s": 60.0, "dead_reckoned_m": [[0, 0], [21, 0]], "gps_fix_m": [22, 1]}
        if "dead_reckoned_latlon" in overrides:
            del rec["dead_reckoned_m"], rec["gps_fix_m"]
        rec.update(overrides)
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match="line 1"):
            ingest_cycles(path)

    @pytest.mark.parametrize("origin", [5, [1], [1, 2, 3], ["a", 0]])
    def test_malformed_origin_header_raises_parse_error(self, tmp_path, origin):
        rec = {"dt_s": 60.0, "dead_reckoned_latlon": [[0, 0], [0, 1e-3]], "gps_fix_latlon": [0, 1e-3]}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"origin_latlon": origin}) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match="line 1"):
            ingest_cycles(path)

    def test_drift_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        rec = {
            "dt_s": 60.0,
            "dead_reckoned_m": [[0, 0], [21, 0]],
            "gps_fix_m": [22.0, 1.0],
            "drift_m": [5.0, 5.0],
        }
        path.write_text(json.dumps(rec) + "\n")
        with pytest.raises(ValidationError, match="drift"):
            ingest_cycles(path)

    def test_single_point_track_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"dt_s": 60.0, "dead_reckoned_m": [[0, 0]], "gps_fix_m": [0, 0]}) + "\n")
        with pytest.raises(ValidationError, match="line 1"):
            ingest_cycles(path)

    def test_non_chaining_cycles_warn_but_load(self, tmp_path, caplog):
        recs = [
            {"dt_s": 60.0, "dead_reckoned_m": [[0, 0], [21, 0]], "gps_fix_m": [22.0, 1.0]},
            {"dt_s": 60.0, "dead_reckoned_m": [[500.0, 500.0], [521.0, 500.0]], "gps_fix_m": [520.0, 499.0]},
        ]
        path = tmp_path / "gap.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in recs) + "\n")
        with caplog.at_level(logging.WARNING):
            log = ingest_cycles(path)
        assert len(log.cycles) == 2
        assert any("chain" in rec.message for rec in caplog.records)

    def test_blank_lines_skipped(self, tmp_path):
        rec = {"dt_s": 60.0, "dead_reckoned_m": [[0, 0], [21, 0]], "gps_fix_m": [22.0, 1.0]}
        path = tmp_path / "gaps.jsonl"
        path.write_text("\n" + json.dumps(rec) + "\n\n")
        assert len(ingest_cycles(path).cycles) == 1


class TestLatLonIngestion:
    def test_projection_reference_values(self):
        # one degree of latitude is R * pi/180 metres north
        p = latlon_to_local(1.0, 0.0, 0.0, 0.0)
        assert p.y == pytest.approx(EARTH_RADIUS_M * math.pi / 180.0)
        assert p.x == pytest.approx(0.0)
        # longitude shrinks with cos(latitude)
        q = latlon_to_local(60.0, 1.0, 60.0, 0.0)
        assert q.x == pytest.approx(EARTH_RADIUS_M * math.pi / 180.0 * 0.5, rel=1e-9)
        assert q.y == pytest.approx(0.0)

    def test_geographic_log_matches_metric_log(self, tmp_path):
        lat0, lon0 = 41.0, -70.5

        def inverse(p: Vec2):
            lat = lat0 + math.degrees(p.y / EARTH_RADIUS_M)
            lon = lon0 + math.degrees(p.x / (EARTH_RADIUS_M * math.cos(math.radians(lat0))))
            return [lat, lon]

        log = run_mission(quiet_config(waypoints=WAYPOINTS[:2]), random_gyre(8), seed=1)
        path = tmp_path / "geo.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"origin_latlon": [lat0, lon0]}) + "\n")
            for c in log.cycles:
                fh.write(
                    json.dumps(
                        {
                            "dt_s": c.dt,
                            "dead_reckoned_latlon": [inverse(p) for p in c.dead_reckoned],
                            "gps_fix_latlon": inverse(c.gps_fix),
                        }
                    )
                    + "\n"
                )
        back = ingest_cycles(path)
        for ca, cb in zip(log.cycles, back.cycles):
            assert (ca.gps_fix - cb.gps_fix).norm() < 1e-6
            for pa, pb in zip(ca.dead_reckoned, cb.dead_reckoned):
                assert (pa - pb).norm() < 1e-6
