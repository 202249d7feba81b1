import json
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from driftfield.flowfield import AnalyticField, Vec2, eval_field, eval_field_many, random_gyre
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
    write_cycles,
)

WAYPOINTS = (Vec2(5000.0, 0.0), Vec2(5000.0, 5000.0), Vec2(0.0, 5000.0), Vec2(0.0, 0.0))


def quiet_config(**overrides):
    kw = dict(waypoints=WAYPOINTS, gps_noise_std=0.0)
    kw.update(overrides)
    return VehicleConfig(**kw)


def rk4_endpoint(fld: AnalyticField, p0, commands, dt: float, substeps: int = 10) -> np.ndarray:
    # independent oracle: classical RK4 on dp/dt = v + w(p), the command v
    # held over each step, at `substeps` RK4 steps per simulator step
    def f(q, v):
        return v + np.array(eval_field(fld, q[0], q[1]))

    h = dt / substeps
    p = np.array(p0, dtype=float)
    for v in commands:
        for _ in range(substeps):
            k1 = f(p, v)
            k2 = f(p + 0.5 * h * k1, v)
            k3 = f(p + 0.5 * h * k2, v)
            k4 = f(p + h * k3, v)
            p = p + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return p


class TestSteppers:
    # the step equations of run_mission, read off its truth path and its
    # dead-reckoned track
    def test_truth_step(self):
        # p_1 = p_0 + (v + w) dt with v = 1 m/s east and a uniform current w
        current = Vec2(0.25, -0.5)
        cfg = quiet_config(waypoints=(Vec2(60.0, 0.0),), speed_through_water=1.0)
        fld = AnalyticField(current=(current.x, current.y))
        path = run_mission(cfg, fld, seed=0).truth_trajectories[0]
        np.testing.assert_array_equal(path[0], [0.0, 0.0])
        np.testing.assert_allclose(path[1], [(1.0 + 0.25) * 60.0, -0.5 * 60.0], rtol=1e-12)

    def test_command_cancels_current(self):
        # a current straight against the command at the same speed holds
        # the vehicle in place while dead reckoning believes it moves
        cfg = quiet_config(waypoints=(Vec2(500.0, 0.0),))
        log = run_mission(cfg, AnalyticField(current=(-0.35, 0.0)), seed=0)
        np.testing.assert_array_equal(log.truth_trajectories[0], 0.0)
        assert log.cycles[0].num_steps > 1

    def test_dead_reckoned_step(self):
        # e_1 = e_0 + v dt, blind to the current: 0.5 m/s toward (3, 4) km
        cfg = quiet_config(waypoints=(Vec2(3000.0, 4000.0),), speed_through_water=0.5, dt=10.0)
        log = run_mission(cfg, AnalyticField(current=(0.2, -0.1)), seed=0)
        np.testing.assert_allclose(log.cycles[0].dead_reckoned[1], [3.0, 4.0], rtol=1e-12)

    def test_euler_close_to_rk4_for_drifting_particle(self):
        # 637 steps at dt = 60 with peak current 0.45 m/s: the explicit
        # Euler truth path ends within 1% of a tenth-step RK4 integration
        # under the same command, read off the dead-reckoned track
        fld = AnalyticField(amplitude=0.45 * 5e4 / math.pi, domain_extent=(5e4, 5e4))
        log = run_mission(quiet_config(waypoints=(Vec2(12500.0, 5000.0),)), fld, seed=0)
        cycle, path = log.cycles[0], log.truth_trajectories[0]
        commands = np.diff(cycle.dead_reckoned, axis=0) / cycle.dt
        oracle = rk4_endpoint(fld, path[0], commands, cycle.dt)
        assert np.linalg.norm(path[-1] - oracle) <= 0.01 * np.linalg.norm(oracle - path[0])


class TestCycle:
    def test_drift_is_fix_minus_last_point(self):
        c = Cycle(60.0, [[0, 0], [21, 0]], Vec2(25.0, -4.0))
        assert c.drift == Vec2(4.0, -4.0)
        assert c.num_steps == 1

    def test_requires_at_least_one_step(self):
        with pytest.raises(ValueError):
            Cycle(60.0, [[0, 0]], Vec2(0, 0))

    def test_requires_positive_dt(self):
        for dt in (0.0, -1e-300, math.nan, math.inf):
            with pytest.raises(ValueError, match="dt must be positive"):
                Cycle(dt, [[0, 0], [1, 0]], Vec2(1, 0))

    def test_track_is_a_finite_read_only_copy(self):
        track = np.array([[0.0, 0.0], [21.0, 0.0]])
        c = Cycle(60.0, track, Vec2(25.0, -4.0))
        track[1, 0] = 99.0
        assert c.dead_reckoned[1, 0] == 21.0
        with pytest.raises(ValueError):
            c.dead_reckoned[0, 0] = 1.0
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                Cycle(60.0, [[0, 0], [bad, 0]], Vec2(1, 0))
        with pytest.raises(ValueError):
            Cycle(60.0, [[0, 0, 0], [21, 0, 0]], Vec2(1, 0))


class TestVehicleConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            VehicleConfig(speed_through_water=0.0, waypoints=WAYPOINTS)
        with pytest.raises(ValueError):
            VehicleConfig(waypoints=())
        with pytest.raises(ValueError):
            VehicleConfig(waypoints=WAYPOINTS, max_steps_per_cycle=0)
        for dt in (0.0, -1.0):
            with pytest.raises(ValueError):
                VehicleConfig(waypoints=WAYPOINTS, dt=dt)
        for name in ("speed_through_water", "dt", "surface_tolerance", "gps_noise_std"):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"{name} must be .* finite"):
                    VehicleConfig(waypoints=WAYPOINTS, **{name: bad})

    def test_defaults(self):
        cfg = VehicleConfig(waypoints=WAYPOINTS)
        assert cfg.speed_through_water == 0.35
        assert cfg.dt == 60.0
        assert cfg.surface_tolerance == 100.0
        assert cfg.gps_noise_std == 3.0


class TestRunMission:
    def test_zero_field_zero_noise_gives_zero_drift(self):
        log = run_mission(quiet_config(), AnalyticField(), seed=0)
        assert len(log.cycles) == 4
        for c in log.cycles:
            assert c.drift == Vec2(0.0, 0.0)

    def test_zero_current_dead_reckoning_equals_truth(self):
        log = run_mission(quiet_config(), AnalyticField(), seed=0)
        for c, path in zip(log.cycles, log.truth_trajectories):
            np.testing.assert_array_equal(c.dead_reckoned, path)
            assert not path.flags.writeable

    def test_zero_current_reaches_every_waypoint(self):
        cfg = quiet_config()
        log = run_mission(cfg, AnalyticField(), seed=0)
        for c, wp in zip(log.cycles, cfg.waypoints):
            assert np.linalg.norm(c.dead_reckoned[-1] - wp.as_array()) <= cfg.surface_tolerance

    def test_uniform_current_drift_telescopes(self):
        current = Vec2(0.08, -0.05)
        log = run_mission(quiet_config(), AnalyticField(current=(current.x, current.y)), seed=0)
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
            w_sum = eval_field_many(fld, path[:-1]).sum(axis=0)
            expected = c.dt * w_sum
            assert abs(c.drift.x - expected[0]) < 1e-6
            assert abs(c.drift.y - expected[1]) < 1e-6

    def test_cycles_chain_exactly(self):
        log = run_mission(
            VehicleConfig(waypoints=WAYPOINTS, gps_noise_std=3.0), random_gyre(2), seed=9
        )
        for prev, nxt in zip(log.cycles, log.cycles[1:]):
            np.testing.assert_array_equal(nxt.dead_reckoned[0], prev.gps_fix.as_array())

    def test_deterministic(self):
        cfg = VehicleConfig(waypoints=WAYPOINTS, gps_noise_std=3.0)
        a = run_mission(cfg, random_gyre(4), seed=77)
        b = run_mission(cfg, random_gyre(4), seed=77)
        assert len(a.cycles) == len(b.cycles)
        for ca, cb in zip(a.cycles, b.cycles):
            assert ca.gps_fix == cb.gps_fix
            np.testing.assert_array_equal(ca.dead_reckoned, cb.dead_reckoned)
        c = run_mission(cfg, random_gyre(4), seed=78)
        assert any(ca.gps_fix != cc.gps_fix for ca, cc in zip(a.cycles, c.cycles))

    def test_every_cycle_has_at_least_one_step(self):
        # second waypoint sits inside the surfacing tolerance of the first
        cfg = quiet_config(waypoints=(Vec2(500.0, 0.0), Vec2(520.0, 0.0)))
        log = run_mission(cfg, AnalyticField(), seed=0)
        assert all(c.num_steps >= 1 for c in log.cycles)

    def test_abort_when_no_waypoint_reachable(self):
        cfg = quiet_config(waypoints=(Vec2(5e4, 0.0), Vec2(6e4, 0.0)), max_steps_per_cycle=10)
        with pytest.raises(MissionAborted) as exc:
            run_mission(cfg, AnalyticField(), seed=0)
        assert len(exc.value.log.cycles) == 2  # partial log still delivered

    def test_no_abort_when_vehicle_recovers(self):
        # first waypoint is out of step budget, second is reachable from
        # where the vehicle ends up
        cfg = quiet_config(waypoints=(Vec2(500.0, 0.0), Vec2(250.0, 0.0)), max_steps_per_cycle=10)
        log = run_mission(cfg, AnalyticField(), seed=0)
        assert len(log.cycles) == 2

    def test_abort_on_final_waypoint_failure(self):
        cfg = quiet_config(waypoints=(Vec2(150.0, 0.0), Vec2(5e4, 0.0)), max_steps_per_cycle=10)
        with pytest.raises(MissionAborted):
            run_mission(cfg, AnalyticField(), seed=0)

    def test_no_abort_when_a_later_waypoint_is_missed_after_a_reached_one(self):
        # the abort rule looks from the first missed waypoint onward: here
        # waypoint 0 is missed, 1 is reached, and the last one is missed
        # again; the mission is returned, not aborted
        cfg = quiet_config(waypoints=(Vec2(1000.0, 0.0), Vec2(150.0, 0.0), Vec2(2000.0, 0.0)),
                           max_steps_per_cycle=5)
        log = run_mission(cfg, AnalyticField(), seed=0)
        assert len(log.cycles) == 3
        missed = [
            np.linalg.norm(c.dead_reckoned[-1] - wp.as_array()) > cfg.surface_tolerance
            for c, wp in zip(log.cycles, cfg.waypoints)
        ]
        assert missed == [True, False, True]

    def test_fixes_and_drifts_are_python_floats(self):
        # the step loop runs on plain floats; a numpy scalar leaking into it
        # would reach the fixes and drifts of the log
        log = run_mission(VehicleConfig(waypoints=WAYPOINTS, gps_noise_std=3.0), random_gyre(4), seed=5)
        for c in log.cycles:
            for value in (c.gps_fix.x, c.gps_fix.y, c.drift.x, c.drift.y):
                assert type(value) is float


class TestMissionLog:
    def test_truth_length_checked(self):
        c = Cycle(60.0, [[0, 0], [21, 0]], Vec2(21, 0))
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
            np.testing.assert_array_equal(ca.dead_reckoned, cb.dead_reckoned)
            assert ca.gps_fix == cb.gps_fix
            assert ca.drift == cb.drift

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"dt_s": 60.0, "dead_reckoned_m": [[0, 0], [21, 0]], "gps_fix_m": [22, 1]})
        path.write_text(good + "\n{not json\n")
        with pytest.raises(ParseError, match="line 2"):
            ingest_cycles(path)

    @pytest.mark.parametrize("line", ["[1, 2]", "7", '"dt_s"', "null"])
    def test_non_object_line_names_line(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        good = json.dumps({"dt_s": 60.0, "dead_reckoned_m": [[0, 0], [21, 0]], "gps_fix_m": [22, 1]})
        path.write_text(f"{good}\n{line}\n")
        with pytest.raises(ParseError, match="line 2: expected a JSON object"):
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
            {"dead_reckoned_m": [[0, 0], [10**400, 0]]},
            {"gps_fix_m": [22, 10**400]},
            {"drift_m": [10**400, 1]},
            {"dead_reckoned_latlon": [[0, 0], [10**400, 1e-3]], "gps_fix_latlon": [0, 1e-3]},
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

    @pytest.mark.parametrize("origin", [5, [1], [1, 2, 3], ["a", 0], [10**400, 0]])
    def test_malformed_origin_header_raises_parse_error(self, tmp_path, origin):
        rec = {"dt_s": 60.0, "dead_reckoned_latlon": [[0, 0], [0, 1e-3]], "gps_fix_latlon": [0, 1e-3]}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"origin_latlon": origin}) + "\n" + json.dumps(rec) + "\n")
        with pytest.raises(ParseError, match="line 1"):
            ingest_cycles(path)

    @pytest.mark.parametrize("first", ["cycle", "header"])
    def test_origin_header_after_first_line_raises_parse_error(self, tmp_path, first):
        # a late header would re-project every later cycle about a new origin
        rec = {"dt_s": 60.0, "dead_reckoned_latlon": [[49.4, -5.0], [49.4, -4.999]],
               "gps_fix_latlon": [49.4, -4.999]}
        lines = [rec if first == "cycle" else {"origin_latlon": [49.4, -5.0]},
                 {"origin_latlon": [49.0, -5.0]}, rec]
        path = tmp_path / "late.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(ParseError, match="line 2: 'origin_latlon' must be the log's one header"):
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

    GEO = {"dt_s": 60.0, "dead_reckoned_latlon": [[49.4, -5.0], [49.4, -4.999]],
           "gps_fix_latlon": [49.4, -4.999]}

    @pytest.mark.parametrize(
        "lines, unexpected",
        [
            # a typo beside valid keys
            ([{"dt_s": 60.0, "dead_reckoned_m": [[0, 0], [21, 0]], "gps_fix_m": [22.0, 1.0],
               "gps_fix_mm": [22.0, 1.0]}], "['gps_fix_mm']"),
            # the origin is a header of its own; inside a cycle it would be
            # ignored and the cycle projected about its first dive-in point
            ([{**GEO, "origin_latlon": [49.0, -5.0]}], "['origin_latlon']"),
            # a header with more than its origin
            ([{"origin_latlon": [49.0, -5.0], "datum": "WGS84"}, GEO], "['datum', 'origin_latlon']"),
        ],
        ids=["typo", "origin_in_cycle", "header_extra_key"],
    )
    def test_unread_key_rejected(self, tmp_path, lines, unexpected):
        path = tmp_path / "keys.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(ParseError, match=re.escape(f"line 1: unexpected keys {unexpected}")):
            ingest_cycles(path)

    def test_blank_lines_skipped(self, tmp_path):
        rec = {"dt_s": 60.0, "dead_reckoned_m": [[0, 0], [21, 0]], "gps_fix_m": [22.0, 1.0]}
        path = tmp_path / "gaps.jsonl"
        path.write_text("\n" + json.dumps(rec) + "\n\n")
        assert len(ingest_cycles(path).cycles) == 1


class TestLatLonIngestion:
    def test_projection_reference_values(self):
        # one degree of latitude is R * pi/180 metres north; the origin maps to 0
        p, o = latlon_to_local([[1.0, 0.0], [0.0, 0.0]], 0.0, 0.0)
        assert p[1] == pytest.approx(EARTH_RADIUS_M * math.pi / 180.0)
        assert p[0] == pytest.approx(0.0)
        np.testing.assert_array_equal(o, [0.0, 0.0])
        # longitude shrinks with cos(latitude)
        (qx, qy), = latlon_to_local([[60.0, 1.0]], 60.0, 0.0)
        assert qx == pytest.approx(EARTH_RADIUS_M * math.pi / 180.0 * 0.5, rel=1e-9)
        assert qy == pytest.approx(0.0)

    def test_geographic_log_matches_metric_log(self, tmp_path):
        lat0, lon0 = 41.0, -70.5

        def inverse(x, y):
            lat = lat0 + math.degrees(y / EARTH_RADIUS_M)
            lon = lon0 + math.degrees(x / (EARTH_RADIUS_M * math.cos(math.radians(lat0))))
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
                            "dead_reckoned_latlon": [inverse(x, y) for x, y in c.dead_reckoned],
                            "gps_fix_latlon": inverse(c.gps_fix.x, c.gps_fix.y),
                        }
                    )
                    + "\n"
                )
        back = ingest_cycles(path)
        for ca, cb in zip(log.cycles, back.cycles):
            assert math.hypot(ca.gps_fix.x - cb.gps_fix.x, ca.gps_fix.y - cb.gps_fix.y) < 1e-6
            assert np.linalg.norm(ca.dead_reckoned - cb.dead_reckoned, axis=1).max() < 1e-6


# Any JSON value, NaN, the infinities and integers too large for a float
# included (Python's json reads and writes all of them).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=2), children, max_size=2),
    max_leaves=8,
)
NUMBERS = st.floats() | st.integers() | st.just(10**400)
PAIRS = st.lists(NUMBERS, min_size=2, max_size=2)
TRACKS = st.lists(PAIRS, min_size=0, max_size=4)
GOOD = {"dt_s": 60.0, "dead_reckoned_m": [[0, 0], [21, 0]], "gps_fix_m": [22, 1]}


class TestIngestFuzz:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        header=st.none() | JSON_VALUES | PAIRS,
        rec=st.fixed_dictionaries(
            {"dt_s": NUMBERS | JSON_VALUES},
            optional={
                "dead_reckoned_m": TRACKS | JSON_VALUES,
                "gps_fix_m": PAIRS | JSON_VALUES,
                "drift_m": PAIRS | JSON_VALUES,
                "dead_reckoned_latlon": TRACKS | JSON_VALUES,
                "gps_fix_latlon": PAIRS | JSON_VALUES,
            },
        ),
    )
    @example(header=None, rec={**GOOD, "dt_s": math.nan})
    @example(header=None, rec={**GOOD, "dt_s": math.inf})
    @example(header=None, rec={**GOOD, "dt_s": 10**400})
    @example(header=None, rec={**GOOD, "dead_reckoned_m": [[0, 0], [10**400, 0]]})
    @example(header=None, rec={**GOOD, "dead_reckoned_m": [[0, 0], [math.nan, 0]]})
    @example(header=[10**400, 0], rec={"dt_s": 60.0, "dead_reckoned_latlon": [[0, 0], [0, 1e-3]],
                                       "gps_fix_latlon": [0, 1e-3]})
    def test_only_ingestion_errors_escape(self, tmp_path, header, rec):
        # a log either loads into finite cycles or fails with an error
        # naming the line; nothing else escapes
        path = tmp_path / "fuzz.jsonl"
        lines = [] if header is None else [json.dumps({"origin_latlon": header})]
        path.write_text("\n".join(lines + [json.dumps(rec)]) + "\n")
        try:
            log = ingest_cycles(path)
        except (ParseError, ValidationError) as err:
            assert "line " in str(err)
            return
        for c in log.cycles:
            assert 0 < c.dt < math.inf
            assert np.isfinite(c.dead_reckoned).all()
