import contextlib
import io
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftfield.cli import main, parse_config
from driftfield.flowfield import AnalyticField, Vec2, read_field_csv
from driftfield.gp import GpModel
from driftfield.simulator import VehicleConfig, ingest_cycles, run_mission, write_cycles

MISSION_CONF = """
# small uniform-current mission
field = analytic
field_current_mps = 0.08,-0.05
waypoints_m = 2000,0; 2000,2000
gps_noise_std_m = 0
speed_mps = 0.35
dt_s = 60
"""

HYPER_CONF = """
lengthscale_m = 35000
current_variance_m2s2 = 0.5
gps_noise_std_m = 0
pseudo_target_spacing_m = 400
"""

MC_CONF = """
waypoints_m = 1500,0; 1500,1500
trials = 2
base_seed = 500
grid_origin_m = -500,-500
grid_spacing_m = 300
grid_nx = 10
grid_ny = 10
"""

# the last x, 0 + 1e307 * 19, is not a finite float
OVERFLOWING_GRID = "grid_origin_m = 0,0\ngrid_spacing_m = 1e307\ngrid_nx = 20\ngrid_ny = 2\n"


@pytest.fixture
def mission_conf(tmp_path):
    p = tmp_path / "mission.conf"
    p.write_text(MISSION_CONF)
    return p


@pytest.fixture
def hyper_conf(tmp_path):
    p = tmp_path / "hyper.conf"
    p.write_text(HYPER_CONF)
    return p


class TestConfigParsing:
    def test_values_comments_blanks(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("# comment\n\nlengthscale_m = 1000\ntrials=3\n")
        cfg = parse_config(p)
        assert cfg == {"lengthscale_m": "1000", "trials": "3"}

    def test_unknown_key_rejected_with_location(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("lengthscale_m = 1000\nbogus_key = 1\n")
        with pytest.raises(ValueError, match="2"):
            parse_config(p)

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "c.conf"
        p.write_text("lengthscale_m\n")
        with pytest.raises(ValueError):
            parse_config(p)


class TestSimulate:
    def test_writes_ingestable_log(self, tmp_path, mission_conf, capsys):
        out = tmp_path / "cycles.jsonl"
        rc = main(["simulate", "--config", str(mission_conf), "--seed", "3", "--out", str(out)])
        assert rc == 0
        assert "2 cycles" in capsys.readouterr().out
        log = ingest_cycles(out)
        assert len(log.cycles) == 2

    def test_deterministic_output(self, tmp_path, mission_conf):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        main(["simulate", "--config", str(mission_conf), "--seed", "3", "--out", str(a)])
        main(["simulate", "--config", str(mission_conf), "--seed", "3", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_aborted_mission_writes_partial_log(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("field = analytic\nwaypoints_m = 90000,0\nmax_steps_per_cycle = 5\n")
        out = tmp_path / "cycles.jsonl"
        rc = main(["simulate", "--config", str(conf), "--seed", "0", "--out", str(out)])
        assert rc == 2
        _one_line_error(capsys, "mission aborted", "partial log written to")
        assert len(ingest_cycles(out).cycles) == 1

    @pytest.mark.parametrize(
        "lines, args",
        [
            ("", {}),
            ("field_current_mps = 0.1,0\n", {"current": (0.1, 0.0)}),
            ("field_amplitude = 4000\n", {"amplitude": 4000.0}),
            ("field_current_mps = 0.1,0\nfield_amplitude = 4000\nfield_extent_m = 3e4,4e4\n"
             "field_phase_rad = 0.3,1.1\n",
             {"current": (0.1, 0.0), "amplitude": 4000.0, "domain_extent": (3e4, 4e4),
              "phase": (0.3, 1.1)}),
        ],
        ids=["still", "current", "gyre", "current_and_gyre"],
    )
    def test_analytic_field_is_the_library_field(self, tmp_path, lines, args):
        # each key is optional and takes the AnalyticField default
        conf = tmp_path / "m.conf"
        conf.write_text("field = analytic\nwaypoints_m = 3000,0; 3000,3000\n" + lines)
        out = tmp_path / "cli.jsonl"
        assert main(["simulate", "--config", str(conf), "--seed", "5", "--out", str(out)]) == 0
        vehicle = VehicleConfig(waypoints=(Vec2(3000.0, 0.0), Vec2(3000.0, 3000.0)))
        write_cycles(run_mission(vehicle, AnalyticField(**args), 5), tmp_path / "lib.jsonl")
        assert out.read_bytes() == (tmp_path / "lib.jsonl").read_bytes()

    @pytest.mark.parametrize(
        "conf, words",
        [
            ("field = analytic\nfield_current_mps = 0,0\n", ["waypoints_m"]),
            ("field = foo\nwaypoints_m = 1000,0\n", ["field", "'foo'"]),
            ("field = zero\nwaypoints_m = 1000,0\n", ["field", "'zero'"]),
            ("field = uniform\nfield_current_mps = 0.1,0\nwaypoints_m = 1000,0\n",
             ["field", "'uniform'"]),
            ("field = double_gyre\nfield_amplitude = 4000\nwaypoints_m = 1000,0\n",
             ["field", "'double_gyre'"]),
        ],
        ids=["no_waypoints", "unknown_field", "retired_zero", "retired_uniform",
             "retired_double_gyre"],
    )
    def test_missing_or_unknown_value_exits_2_naming_it(self, tmp_path, capsys, conf, words):
        path = tmp_path / "bad.conf"
        path.write_text(conf)
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(path), "--seed", "0", "--out", str(out)]) == 2
        _one_line_error(capsys, *words)
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("waypoints_m", "nan,0"),
            ("waypoints_m", "1,2,3"),
            ("speed_mps", "abc"),
            ("max_steps_per_cycle", "inf"),
            ("max_steps_per_cycle", "2.5"),
            ("field_current_mps", "nan,0"),
        ],
    )
    def test_bad_value_names_its_key(self, tmp_path, capsys, key, value):
        conf = tmp_path / "bad.conf"
        lines = [line for line in MISSION_CONF.splitlines() if not line.startswith(key)]
        conf.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        rc = main(["simulate", "--config", str(conf), "--seed", "0", "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err

    def test_overflowing_gyre_exits_2_with_one_line(self, tmp_path, capsys):
        # cells 1e-300 m wide: an early step overflows the truth position
        # to inf, and the next field evaluation fails; no numpy warning
        # may print (or, under pytest, escape) before the error line
        conf = tmp_path / "hostile.conf"
        conf.write_text("field = analytic\nfield_amplitude = 1e5\n"
                        "field_extent_m = 1e-300,1e-300\nwaypoints_m = 5000,0\n")
        rc = main(["simulate", "--config", str(conf), "--seed", "0", "--out", str(tmp_path / "x")])
        assert rc == 2
        _one_line_error(capsys, "waypoint 0")

    def test_overflowing_gyre_speed_names_amplitude(self, tmp_path, capsys):
        # amplitude*pi/L itself overflows: the field is rejected before the mission
        conf = tmp_path / "hostile.conf"
        conf.write_text("field = analytic\nfield_amplitude = 1e10\n"
                        "field_extent_m = 1e-300,1e-300\nwaypoints_m = 5000,0\n")
        out = tmp_path / "x"
        rc = main(["simulate", "--config", str(conf), "--seed", "0", "--out", str(out)])
        assert rc == 2
        _one_line_error(capsys, "amplitude", "extent")
        assert not out.exists()


class TestEstimate:
    def test_full_pipeline_recovers_uniform_current(self, tmp_path, mission_conf, hyper_conf):
        cycles = tmp_path / "cycles.jsonl"
        main(["simulate", "--config", str(mission_conf), "--seed", "3", "--out", str(cycles)])
        out = tmp_path / "fit"
        rc = main(["estimate", "--cycles", str(cycles), "--hyper", str(hyper_conf),
                   "--kernel", "incompressible", "--out", str(out)])
        assert rc == 0

        states = json.loads((out / "em_states.json").read_text())
        assert len(states) == 2
        assert all(s["converged"] for s in states)
        assert all(s["error"] is None for s in states)

        model = GpModel.from_json((out / "model.json").read_text())
        pred = model.predict_mean([[1000.0, 500.0]])
        np.testing.assert_allclose(pred[0], [0.08, -0.05], atol=5e-3)

        pts, uv = read_field_csv(out / "field.csv")
        assert pts.shape == (400, 2)  # default 20 x 20 grid
        assert np.isfinite(uv).all()

    def test_standard_kernel_selected(self, tmp_path, mission_conf, hyper_conf):
        cycles = tmp_path / "cycles.jsonl"
        main(["simulate", "--config", str(mission_conf), "--seed", "3", "--out", str(cycles)])
        out = tmp_path / "fit_std"
        rc = main(["estimate", "--cycles", str(cycles), "--hyper", str(hyper_conf),
                   "--kernel", "standard_diagonal", "--out", str(out)])
        assert rc == 0
        model = json.loads((out / "model.json").read_text())
        assert model["kernel"] == "standard_diagonal"

    def test_grid_far_beyond_lengthscale_predicts_prior_mean(self, tmp_path, mission_conf):
        cycles = tmp_path / "cycles.jsonl"
        main(["simulate", "--config", str(mission_conf), "--seed", "3", "--out", str(cycles)])
        hyper = tmp_path / "far.conf"
        hyper.write_text(HYPER_CONF + "grid_origin_m = 0,0\ngrid_spacing_m = 1e200\n"
                         "grid_nx = 3\ngrid_ny = 2\n")
        out = tmp_path / "far"
        rc = main(["estimate", "--cycles", str(cycles), "--hyper", str(hyper), "--out", str(out)])
        assert rc == 0
        pts, uv = read_field_csv(out / "field.csv")
        origin = (pts == 0.0).all(axis=1)
        assert origin.sum() == 1
        np.testing.assert_allclose(uv[origin][0], [0.08, -0.05], atol=5e-3)
        np.testing.assert_array_equal(uv[~origin], np.zeros((5, 2)))

    def test_empty_log_rejected(self, tmp_path, hyper_conf, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(["estimate", "--cycles", str(empty), "--hyper", str(hyper_conf),
                   "--kernel", "incompressible", "--out", str(tmp_path / "out")])
        assert rc == 2
        _one_line_error(capsys, "empty")


    @pytest.mark.parametrize(
        "overrides, expected",
        [
            ({"gps_fix_m": [1]}, "line 1"),
            ({"dead_reckoned_m": 5}, "line 1"),
            ({"dt_s": -1e-300}, "dt must be positive"),
            ({"dt_s": float("nan")}, "'dt_s' must be finite"),
            ({"dt_s": float("inf")}, "'dt_s' must be finite"),
            ({"dt_s": 10**400}, "line 1"),
            ({"dead_reckoned_m": [[0.0, 0.0], [10**400, 0.0]]}, "line 1"),
            # strings and booleans are not numbers
            ({"dt_s": True, "dead_reckoned_m": [[0, 0], ["21", False]], "gps_fix_m": ["44", 1]},
             "'dt_s' must hold numbers"),
            ({"dead_reckoned_m": [[0, 0], ["21", False]]}, "'dead_reckoned_m' must hold numbers"),
        ],
    )
    def test_malformed_log_exits_2_with_one_line(self, tmp_path, hyper_conf, capsys,
                                                 overrides, expected):
        rec = {"dt_s": 60.0, "dead_reckoned_m": [[0.0, 0.0], [21.0, 0.0]], "gps_fix_m": [22.0, 1.0]}
        rec.update(overrides)
        log = tmp_path / "bad.jsonl"
        log.write_text(json.dumps(rec) + "\n")
        rc = main(["estimate", "--cycles", str(log), "--hyper", str(hyper_conf),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: ")
        assert expected in err
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_all_cycles_failed_exits_2(self, tmp_path, capsys):
        # zero GPS noise and a vanishing dt: the innovation covariance of the
        # only cycle is singular
        hyper = tmp_path / "exact.conf"
        hyper.write_text("gps_noise_std_m = 0\n")
        log = tmp_path / "cycles.jsonl"
        rec = {"dt_s": 1e-300, "dead_reckoned_m": [[0, 0], [21, 0], [42, 0]], "gps_fix_m": [44, 1]}
        log.write_text(json.dumps(rec) + "\n")
        out = tmp_path / "out"
        rc = main(["estimate", "--cycles", str(log), "--hyper", str(hyper), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "wrote" not in captured.out
        assert captured.err.startswith("error: all 1 cycles failed")
        assert "LinAlgError: innovation covariance is singular" in captured.err
        assert captured.err.count("\n") == 1
        states = json.loads((out / "em_states.json").read_text())
        assert states[0]["error"].startswith("LinAlgError: innovation covariance is singular")
        assert not (out / "model.json").exists()


    @pytest.mark.parametrize(
        "conf, expected",
        [
            ("em_tol_m = nan\n", "convergence_tol must be positive and finite"),
            ("em_tol_m = inf\n", "convergence_tol must be positive and finite"),
            ("grid_origin_m = 0,0\ngrid_spacing_m = nan\ngrid_nx = 3\ngrid_ny = 3\n",
             "grid spacing must be positive and finite"),
            ("grid_origin_m = nan,0\ngrid_spacing_m = 10\ngrid_nx = 3\ngrid_ny = 3\n",
             "grid_origin_m"),
            (OVERFLOWING_GRID, "grid of 20x2 points spaced 1e+307 m from (0.0, 0.0) leaves"),
            ("grid_nx = 3\ngrid_ny = 3\n", "got ['grid_nx', 'grid_ny']"),
        ],
        ids=["em_tol_nan", "em_tol_inf", "grid_spacing_nan", "grid_origin_nan", "grid_overflow",
             "partial_grid"],
    )
    def test_non_finite_config_exits_2(self, tmp_path, capsys, conf, expected):
        hyper = tmp_path / "hyper.conf"
        hyper.write_text(conf)
        log = tmp_path / "cycles.jsonl"
        rec = {"dt_s": 60.0, "dead_reckoned_m": [[0, 0], [21, 0], [42, 0]], "gps_fix_m": [44, 1]}
        log.write_text(json.dumps(rec) + "\n")
        out = tmp_path / "out"
        rc = main(["estimate", "--cycles", str(log), "--hyper", str(hyper), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expected in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_huge_spacing_keeps_one_target_per_cycle(self, tmp_path, capsys):
        # thinning compares distances, so a spacing whose square overflows
        # still thins each cycle to its first point
        hyper = tmp_path / "hyper.conf"
        hyper.write_text("pseudo_target_spacing_m = 1e200\n")
        _small_log(tmp_path / "cycles.jsonl")
        out = tmp_path / "out"
        rc = main(["estimate", "--cycles", str(tmp_path / "cycles.jsonl"), "--hyper", str(hyper),
                   "--out", str(out)])
        assert rc == 0 and capsys.readouterr().err == ""
        assert GpModel.from_json((out / "model.json").read_text()).num_targets == 3

    def test_far_track_exits_2_naming_the_grid_keys(self, tmp_path, capsys):
        # the default grid's box, 2e308 m wide, leaves the float range
        hyper = tmp_path / "hyper.conf"
        hyper.write_text("lengthscale_m = 35000\n")
        log = tmp_path / "cycles.jsonl"
        rec = {"dt_s": 60.0, "dead_reckoned_m": [[-1e308, 0.0], [1e308, 0.0]], "gps_fix_m": [1e308, 1.0]}
        log.write_text(json.dumps(rec) + "\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["estimate", "--cycles", str(log), "--hyper", str(hyper), "--out", str(out)])
        assert rc == 2
        _one_line_error(capsys, "default grid", *GRID_KEY_NAMES)
        assert not out.exists()

    def test_overflowing_innovation_exits_2(self, tmp_path, capsys):
        # dt so large that the innovation covariance of the only cycle
        # overflows to inf
        hyper = tmp_path / "hyper.conf"
        hyper.write_text("gps_noise_std_m = 3\n")
        log = tmp_path / "cycles.jsonl"
        rec = {"dt_s": 1e300, "dead_reckoned_m": [[0, 0], [21, 0], [42, 0]], "gps_fix_m": [44, 1]}
        log.write_text(json.dumps(rec) + "\n")
        out = tmp_path / "out"
        rc = main(["estimate", "--cycles", str(log), "--hyper", str(hyper), "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert "wrote" not in captured.out
        assert captured.err.startswith("error: all 1 cycles failed")
        assert "FloatingPointError: innovation covariance is not finite" in captured.err
        assert captured.err.count("\n") == 1
        states = json.loads((out / "em_states.json").read_text())
        assert states[0]["error"].startswith("FloatingPointError")
        assert not (out / "model.json").exists()

    def test_overflowing_trajectory_exits_2_without_warning(self, tmp_path, capsys):
        # the E-step's running sum overflows to inf and NaN, and the next
        # M-step's prior carries them into its innovation covariance; only
        # the named failure may report it, not a numpy RuntimeWarning
        hyper = tmp_path / "hyper.conf"
        hyper.write_text("lengthscale_m = 35000\n")
        log = tmp_path / "cycles.jsonl"
        rec = {"dt_s": 60.0, "dead_reckoned_m": [[0.0, 0.0], [1e308, 0.0], [-7e307, 0.0]],
               "gps_fix_m": [1e308, 0.0]}
        log.write_text(json.dumps(rec) + "\n")
        out = tmp_path / "out"
        rc = main(["estimate", "--cycles", str(log), "--hyper", str(hyper),
                   "--kernel", "standard_diagonal", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: all 1 cycles failed")
        assert "FloatingPointError: innovation covariance is not finite" in err
        assert err.count("\n") == 1


class TestLengthscaleRange:
    """Lengthscales at the ends of the accepted range and beyond."""

    @staticmethod
    def _argv(tmp_path, command, line):
        conf = tmp_path / "c.conf"
        out = tmp_path / "out"
        if command == "estimate":
            conf.write_text(line)
            log = tmp_path / "cycles.jsonl"
            rec = {"dt_s": 60.0, "dead_reckoned_m": [[0, 0], [21, 0], [42, 0]], "gps_fix_m": [44, 1]}
            log.write_text(json.dumps(rec) + "\n")
            return ["estimate", "--cycles", str(log), "--hyper", str(conf), "--out", str(out)]
        conf.write_text(MC_CONF + line)
        return ["montecarlo", "--config", str(conf), "--out", str(out), "--fields"]

    @pytest.mark.parametrize("value", ["1e-160"])
    @pytest.mark.parametrize("command", ["estimate", "montecarlo"])
    def test_exits_2_with_one_line(self, tmp_path, capsys, command, value):
        # its square is below the normal floats
        assert main(self._argv(tmp_path, command, f"lengthscale_m = {value}\n")) == 2
        _one_line_error(capsys, "lengthscale")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", ["1e160"])
    @pytest.mark.parametrize("command", ["estimate", "montecarlo"])
    def test_fits_a_finite_field(self, tmp_path, capsys, command, value):
        # its square is beyond the float range
        assert main(self._argv(tmp_path, command, f"lengthscale_m = {value}\n")) == 0
        assert capsys.readouterr().err == ""
        fields = [tmp_path / "out" / "field.csv"] if command == "estimate" else \
            sorted((tmp_path / "out" / "fields").glob("*.csv"))
        assert fields
        for path in fields:
            assert np.isfinite(read_field_csv(path)[1]).all()

    def test_float_max_needs_grid_keys(self, tmp_path, capsys):
        # the default grid pads by half of it, and its last point overflows
        line = f"lengthscale_m = {sys.float_info.max!r}\n"
        argv = self._argv(tmp_path, "estimate", line)
        assert main(argv) == 2
        _one_line_error(capsys, "default grid", *GRID_KEY_NAMES)
        (tmp_path / "c.conf").write_text(line + "grid_origin_m = 0,0\ngrid_spacing_m = 20\n"
                                         "grid_nx = 3\ngrid_ny = 2\n")
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert np.isfinite(read_field_csv(tmp_path / "out" / "field.csv")[1]).all()


GRID_KEY_NAMES = ("grid_origin_m", "grid_spacing_m", "grid_nx", "grid_ny")

# The lengthscales HyperParams accepts: lengthscale^2 a normal float or above
ACCEPTED_LENGTHSCALES = (math.sqrt(sys.float_info.min), sys.float_info.max)


def _small_log(path):
    """Three chained 8-step dives, each about 4.8 km long."""
    lines = []
    start = (0.0, 0.0)
    for _ in range(3):
        track = [[start[0] + 600.0 * i, start[1] + 60.0 * i] for i in range(9)]
        fix = [track[-1][0] + 5.0, track[-1][1] + 3.0]
        lines.append(json.dumps({"dt_s": 60.0, "dead_reckoned_m": track, "gps_fix_m": fix}))
        start = fix
    path.write_text("\n".join(lines) + "\n")


class TestEveryAcceptedLengthscale:
    @settings(max_examples=100, deadline=None)
    @given(log_l=st.floats(*(math.log(v) for v in ACCEPTED_LENGTHSCALES)))
    @example(log_l=math.log(ACCEPTED_LENGTHSCALES[0]))
    @example(log_l=math.log(3e-151))
    @example(log_l=math.log(1e153))
    @example(log_l=math.log(ACCEPTED_LENGTHSCALES[1]))
    def test_estimate_fits_without_warning(self, tmp_path_factory, log_l):
        # log-uniform over the accepted range: a finite field, and never a
        # numpy warning on the way
        work = tmp_path_factory.mktemp("lengthscale")
        _small_log(work / "cycles.jsonl")
        (work / "hyper.conf").write_text(f"lengthscale_m = {math.exp(log_l)!r}\n")
        out = work / "out"
        argv = ["estimate", "--cycles", str(work / "cycles.jsonl"),
                "--hyper", str(work / "hyper.conf"), "--out", str(out)]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(argv)
        assert (rc, err.getvalue()) == (0, "")
        _, uv = read_field_csv(out / "field.csv")
        assert np.isfinite(uv).all()

    @settings(max_examples=50, deadline=None)
    @given(log_l=st.floats(*(math.log(v) for v in ACCEPTED_LENGTHSCALES)))
    @example(log_l=math.log(ACCEPTED_LENGTHSCALES[0]))
    @example(log_l=math.log(3e-151))
    @example(log_l=math.log(ACCEPTED_LENGTHSCALES[1]))
    def test_montecarlo_reports_without_warning(self, tmp_path_factory, log_l):
        # NaN and Infinity are not JSON, so a report must hold neither
        work = tmp_path_factory.mktemp("lengthscale")
        conf = work / "mc.conf"
        conf.write_text(MC_CONF.replace("trials = 2", "trials = 1") + f"lengthscale_m = {math.exp(log_l)!r}\n")
        out = work / "out"
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["montecarlo", "--config", str(conf), "--out", str(out)])
        assert (rc, err.getvalue()) == (0, "")
        summary = (out / "summary.json").read_text()
        assert "NaN" not in summary and "Infinity" not in summary


class TestMonteCarlo:
    def test_writes_report(self, tmp_path, capsys):
        conf = tmp_path / "mc.conf"
        conf.write_text(MC_CONF)
        out = tmp_path / "report"
        rc = main(["montecarlo", "--config", str(conf), "--out", str(out)])
        assert rc == 0
        assert "2/2 trials kept" in capsys.readouterr().out
        rows = [line.split(",") for line in (out / "convergence.csv").read_text().splitlines()[1:]]
        assert {kernel for _, _, kernel, _ in rows} == {"incompressible", "standard_diagonal"}
        summary = json.loads((out / "summary.json").read_text())
        assert summary["kept_trials"] == 2

    def test_kernel_key_rejected(self, tmp_path, capsys):
        # the study always runs both kernels, so a kernel key is unknown
        conf = tmp_path / "mc.conf"
        conf.write_text(MC_CONF + "kernel = standard_diagonal\n")
        rc = main(["montecarlo", "--config", str(conf), "--out", str(tmp_path / "report")])
        assert rc == 2
        assert "unknown key 'kernel'" in capsys.readouterr().err

    def test_overflowing_grid_exits_2_with_one_line(self, tmp_path, capsys):
        conf = tmp_path / "mc.conf"
        conf.write_text("".join(l for l in MC_CONF.splitlines(True) if "grid_" not in l)
                        + OVERFLOWING_GRID)
        out = tmp_path / "report"
        assert main(["montecarlo", "--config", str(conf), "--out", str(out)]) == 2
        _one_line_error(capsys, "grid of 20x2 points", "float range")
        assert not out.exists()

    def test_fields_flag(self, tmp_path):
        conf = tmp_path / "mc.conf"
        conf.write_text(MC_CONF)
        out = tmp_path / "report"
        rc = main(["montecarlo", "--config", str(conf), "--out", str(out), "--fields"])
        assert rc == 0
        field_files = sorted((out / "fields").glob("*.csv"))
        assert len(field_files) == 4


def _one_line_error(capsys, *words):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for word in words:
        assert word in err
    return err


class TestKeysPerCommand:
    """Each subcommand rejects a key it does not read, naming the key."""

    def test_montecarlo_rejects_field_keys(self, tmp_path, capsys):
        conf = tmp_path / "mc.conf"
        conf.write_text(MC_CONF + "field = analytic\nfield_current_mps = 0.1,0\n")
        rc = main(["montecarlo", "--config", str(conf), "--out", str(tmp_path / "report")])
        assert rc == 2
        _one_line_error(capsys, "'field'", ":9:")
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("line", ["waypoints_m = 0,0; 100,0", "trials = 3", "field = nonsense"])
    def test_estimate_rejects_foreign_keys(self, tmp_path, capsys, line):
        hyper = tmp_path / "hyper.conf"
        hyper.write_text(HYPER_CONF + line + "\n")
        log = tmp_path / "cycles.jsonl"
        rec = {"dt_s": 60.0, "dead_reckoned_m": [[0, 0], [21, 0], [42, 0]], "gps_fix_m": [44, 1]}
        log.write_text(json.dumps(rec) + "\n")
        out = tmp_path / "out"
        rc = main(["estimate", "--cycles", str(log), "--hyper", str(hyper), "--out", str(out)])
        assert rc == 2
        _one_line_error(capsys, repr(line.split(" =")[0]))
        assert not out.exists()

    @pytest.mark.parametrize("line", ["field_amplitude = 5000", "field_extent_m = 4e4,4e4"])
    def test_simulate_rejects_keys_of_another_field(self, tmp_path, capsys, line):
        conf = tmp_path / "m.conf"
        conf.write_text(f"field = random_gyre\nwaypoints_m = 1000,0\n{line}\n")
        out = tmp_path / "cycles.jsonl"
        rc = main(["simulate", "--config", str(conf), "--seed", "0", "--out", str(out)])
        assert rc == 2
        _one_line_error(capsys, repr(line.split(" =")[0]))
        assert not out.exists()

    def test_repeated_key_names_both_lines(self, tmp_path, capsys):
        conf = tmp_path / "m.conf"
        conf.write_text("field = analytic\nspeed_mps = 0.5\nwaypoints_m = 1000,0\nspeed_mps = 0.1\n")
        rc = main(["simulate", "--config", str(conf), "--seed", "0", "--out", str(tmp_path / "x")])
        assert rc == 2
        _one_line_error(capsys, "'speed_mps'", ":4:", "line 2")

    def test_negative_field_seed_names_its_key(self, tmp_path, capsys):
        conf = tmp_path / "m.conf"
        conf.write_text("field_seed = -1\nwaypoints_m = 1000,0\n")
        rc = main(["simulate", "--config", str(conf), "--seed", "0", "--out", str(tmp_path / "x")])
        assert rc == 2
        _one_line_error(capsys, "field_seed = -1", "non-negative")

    def test_negative_base_seed_names_its_key(self, tmp_path, capsys):
        conf = tmp_path / "mc.conf"
        conf.write_text(MC_CONF.replace("base_seed = 500", "base_seed = -1"))
        rc = main(["montecarlo", "--config", str(conf), "--out", str(tmp_path / "report")])
        assert rc == 2
        _one_line_error(capsys, "base_seed = -1", "non-negative")

    def test_negative_simulate_seed_names_its_option(self, tmp_path, capsys):
        conf = tmp_path / "m.conf"
        conf.write_text("field = analytic\nwaypoints_m = 1000,0\n")
        out = tmp_path / "cycles.jsonl"
        rc = main(["simulate", "--config", str(conf), "--seed", "-1", "--out", str(out)])
        assert rc == 2
        _one_line_error(capsys, "--seed -1", "non-negative")
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["-3", "0"])
    def test_workers_must_be_positive(self, tmp_path, capsys, workers):
        conf = tmp_path / "mc.conf"
        conf.write_text(MC_CONF)
        out = tmp_path / "report"
        rc = main(["montecarlo", "--config", str(conf), "--out", str(out), "--workers", workers])
        assert rc == 2
        _one_line_error(capsys, "--workers", workers)
        assert not out.exists()
