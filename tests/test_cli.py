import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from fxtqp.cli import _split_values, build_parser, main
from fxtqp.scenarios import AccConfig, TwoRobotConfig, scenario_from_id
from fxtqp.simulation import monitor, trace_from_csv


def run_cli(*argv):
    return main(list(argv))


# a JSON integer that float() cannot hold
BEYOND_FLOAT = "1" + "0" * 400


class TestRun:
    def test_synthetic_run_writes_outputs(self, tmp_path):
        code = run_cli("--scenario", "synthetic:int1d", "--out", str(tmp_path))
        assert code == 0
        run_dir = tmp_path / "synthetic_int1d"
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["outcome"]["kind"] == "all_phases_met"
        assert (run_dir / "trace.csv").exists()

    def test_scenario_defaults_to_acc(self, tmp_path):
        assert run_cli("--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "acc" / "summary.json").read_text())
        assert summary["scenario"] == "acc"

    def test_summary_solver_block(self, tmp_path):
        assert run_cli("--scenario", "synthetic:int2d", "--out", str(tmp_path)) == 0
        run_dir = tmp_path / "synthetic_int2d"
        solver = json.loads((run_dir / "summary.json").read_text())["solver"]
        trace = trace_from_csv(run_dir / "trace.csv")
        assert set(solver) == {"iterations_mean", "iterations_max", "nonstrict_steps",
                               "max_box_overshoot"}
        assert 0.0 <= solver["iterations_mean"] <= solver["iterations_max"]
        assert solver["nonstrict_steps"] == int((~trace.strict_cs).sum())
        assert 0.0 <= solver["max_box_overshoot"] <= 1e-8
        # the counters stay out of trace.csv
        header = (run_dir / "trace.csv").read_text().splitlines()[0]
        assert header == ("t,x0,x1,u0,u1,h_goal,hs_obstacle_disk,delta1,delta2,"
                          "strict_cs,active_set_size,phase")

    def test_unknown_field_is_config_error(self, tmp_path):
        assert run_cli("--scenario", "acc", "--set", "bogus=1",
                       "--out", str(tmp_path)) == 2

    def test_malformed_set_is_config_error(self, tmp_path):
        assert run_cli("--scenario", "acc", "--set", "novalue",
                       "--out", str(tmp_path)) == 2

    # JSON's Infinity and the bare word inf reach the config by different parses
    @pytest.mark.parametrize("flags", [("--set", "dt=Infinity"), ("--set", "dt=inf")])
    def test_infinite_dt_is_config_error(self, tmp_path, flags):
        # an infinite step reaches a non-finite state at once; that is a bad
        # setting, not a solver failure (exit 3)
        assert run_cli("--scenario", "acc", *flags, "--out", str(tmp_path)) == 2
        assert not (tmp_path / "acc").exists()

    def test_deadline_whose_gains_overflow_is_config_error(self, tmp_path, capsys):
        # T_ud = 1e-320 is positive, but alpha = mu*pi/(2*T_ud) is infinite:
        # refused with the scenario, not left to fail the first step (exit 3)
        assert run_cli("--scenario", "acc", "--set", "T_ud=1e-320",
                       "--out", str(tmp_path)) == 2
        assert "alpha gains must be positive" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("scenario, name, value", [
        *(("acc", name, value) for name, value in (
            ("M", 1650.0), ("grav", 9.81), ("v_d", 22.0), ("v_l0", 10.0), ("D0", 150.0),
            ("f0", 0.1), ("f1", 5.0), ("f2", 0.25), ("tau_d", 1.8), ("mu", 5.0),
            ("reach_band", 0.5), ("w1", 0.01), ("w2", 10.0), ("q1", 4.5))),
        *(("two-robot", name, value) for name, value in (
            ("d_m", 0.1), ("component_bound", 7.0), ("mu", 5.0), ("phase_budget", 1.0),
            ("arena", 2.0), ("hub_radius", 1.5), ("circle_radius", 0.5),
            ("ellipse_major", 1.2), ("ellipse_minor", 0.5), ("w1", 1.0), ("w2", 10.0),
            ("q1", 100.0)))])
    def test_class_constant_is_not_settable(self, tmp_path, capsys, scenario, name, value):
        # the case studies fix these: each reads as before from the config
        # class and its instances, and --set refuses it as an unknown field
        config = {"acc": AccConfig, "two-robot": TwoRobotConfig}[scenario]
        assert name not in {f.name for f in dataclasses.fields(config)}
        assert getattr(config, name) == getattr(config(), name) == value
        assert run_cli("--scenario", scenario, "--set", f"{name}={value}",
                       "--out", str(tmp_path)) == 2
        assert f"unknown config fields: ['{name}']" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("scenario", ["acc", "two-robot"])
    def test_step_whose_euler_rows_overflow_is_config_error(self, tmp_path, capsys, scenario):
        # dt = 1e-320 is positive, but the Euler rows' 1/dt is infinite:
        # refused with the scenario, not left to fail the first step (exit 3)
        assert run_cli("--scenario", scenario, "--set", "dt=1e-320",
                       "--out", str(tmp_path)) == 2
        assert "finite 1/dt" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("setting", ["horizon=inf", "horizon=nan", "d_delta=nan",
                                         "d_delta=inf"])
    def test_non_finite_number_is_config_error(self, tmp_path, setting):
        # in a child with a timeout: an infinite horizon would otherwise never end
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        out = subprocess.run([sys.executable, "-m", "fxtqp.cli", "--scenario", "acc",
                              "--set", setting, "--out", str(tmp_path)],
                             env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == 2
        assert "finite" in out.stderr
        assert not (tmp_path / "acc").exists()

    @pytest.mark.parametrize("start", ["[0.1]", "[1, 2, 3]"])
    def test_start_must_be_a_pair(self, tmp_path, start):
        assert run_cli("--scenario", "two-robot", "--set", f"x0_agent1={start}",
                       "--out", str(tmp_path)) == 2
        assert not (tmp_path / "two-robot").exists()

    @pytest.mark.parametrize("scenario, setting", [
        ("acc", "v_f0=true"), ("acc", "d_delta=false"),
        ("two-robot", "x0_agent2=[1.5, true]")])
    def test_boolean_for_a_number_is_config_error(self, tmp_path, scenario, setting):
        # float(True) == 1.0 would otherwise run from a start nobody asked for
        assert run_cli("--scenario", scenario, "--set", setting,
                       "--out", str(tmp_path)) == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("scenario, setting", [
        ("two-robot", "x0_agent1=3"), ("two-robot", 'x0_agent1="ab"'),
        ("acc", "v_f0=[1,2]"), ("acc", "v_f0=null"), ("acc", "v_f0=abc"),
        ("acc", 'v_f0="21"'), ("two-robot", 'x0_agent1=["a",1]')])
    def test_wrong_shape_or_type_is_config_error(self, tmp_path, capsys, scenario, setting):
        # a number for a list, or a list, null or string for a number, is refused
        # where the config is typed, as a ValueError naming the field
        assert run_cli("--scenario", scenario, "--set", setting,
                       "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and setting.partition("=")[0] in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flags", [("--scenario", "synthetic:int1d"),
                                       ("--scenario", "acc", "--sweep", "horizon=0.1")])
    def test_type_error_inside_a_run_surfaces(self, tmp_path, monkeypatch, flags):
        # a fault in the program is not a configuration error: it is raised
        from fxtqp.scenarios import Scenario

        def faulty(self):
            raise TypeError("bug inside the run")

        monkeypatch.setattr(Scenario, "simulate", faulty)
        with pytest.raises(TypeError, match="bug inside the run"):
            run_cli(*flags, "--out", str(tmp_path))

    @pytest.mark.parametrize("setting, what", [
        ("v_f0=1e150", "overflows the reach row's power terms"),
        ("v_f0=1e200", "overflows the speed error itself")])
    def test_overflowing_start_is_a_solver_failure(self, tmp_path, capsys, setting, what):
        # a finite start whose QP rows are not finite fails as a run (exit 3),
        # with its summary written, rather than as a traceback or a config error
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli("--scenario", "acc", "--set", setting, "--out", str(tmp_path))
        assert code == 3, what
        assert "Traceback" not in capsys.readouterr().err
        summary = json.loads((tmp_path / "acc" / "summary.json").read_text())
        assert summary["outcome"]["kind"] == "solver_failure"
        assert "not finite" in summary["outcome"]["message"]
        assert summary["steps"] == 0

    @pytest.mark.parametrize("setting", ["v_f0=1e150", "v_f0=1e200"])
    def test_overflowing_start_warns_nothing(self, tmp_path, setting):
        # the outcome names the non-finite rows; numpy's overflow warnings
        # would only repeat it on stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("--scenario", "acc", "--set", setting, "--out", str(tmp_path))
        assert code == 3
        assert [str(w.message) for w in caught if w.category is RuntimeWarning] == []

    @pytest.mark.parametrize("scenario, setting", [
        ("two-robot", "dt=0"), ("acc", "T_ud=-1"), ("acc", "dt=-0.1")])
    def test_non_positive_number_is_config_error(self, tmp_path, capsys, scenario, setting):
        # refused with the scenario, so no run directory is made
        assert run_cli("--scenario", scenario, "--set", setting,
                       "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        field = setting.partition("=")[0]
        assert f"configuration error: config numbers must be positive: {field}" in err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_integer_beyond_float_range_is_config_error(self, tmp_path, capsys):
        assert run_cli("--scenario", "acc", "--set", f"v_f0={BEYOND_FLOAT}",
                       "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "configuration error: v_f0 is beyond float range" in err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_repeated_set_key_is_config_error(self, tmp_path, capsys):
        # the later value would silently replace the earlier one
        assert run_cli("--scenario", "acc", "--set", "v_f0=20", "--set", "v_f0=25",
                       "--out", str(tmp_path)) == 2
        assert "'v_f0' twice" in capsys.readouterr().err
        assert not (tmp_path / "acc").exists()

    def test_deadline_miss_exits_4(self, tmp_path):
        # full thrust needs about 1.9 s to climb from 17 m/s into the band,
        # so a 1 s deadline is out of reach
        code = run_cli("--scenario", "acc", "--set", "v_f0=17",
                       "--set", "T_ud=1.0",
                       "--set", "horizon=11.0", "--out", str(tmp_path))
        assert code == 4
        summary = json.loads((tmp_path / "acc" / "summary.json").read_text())
        assert summary["outcome"]["kind"] == "deadline_missed"

    def test_solver_failure_exits_3(self, tmp_path):
        # aggressive reach pressure behind a braking lead makes the
        # disturbed-mode slack pin infeasible once the barrier crosses the
        # freeze level; a braking lead is outside the premise under which
        # full braking keeps the pinned QP feasible
        code = run_cli("--scenario", "acc", "--set", "v_f0=27",
                       "--set", "d_delta=100", "--set", "q1_disturbed=50",
                       "--set", "a_lead=-2.0",
                       "--out", str(tmp_path))
        assert code == 3
        summary = json.loads((tmp_path / "acc" / "summary.json").read_text())
        assert summary["outcome"]["kind"] == "solver_failure"

    def test_frozen_acc_run_is_strictly_complementary(self, tmp_path):
        # the freeze takes delta2 out of the invariance row, so no dependent
        # pin pair is left to report non-strict complementarity at the
        # frozen steps (about a third of this run)
        assert run_cli("--scenario", "acc", "--set", "v_f0=27", "--set", "d_delta=100",
                       "--out", str(tmp_path)) == 0
        summary = json.loads((tmp_path / "acc" / "summary.json").read_text())
        assert summary["solver"]["nonstrict_steps"] == 0
        trace = trace_from_csv(tmp_path / "acc" / "trace.csv")
        frozen = trace.h_safe[:, 0] > -20.0
        assert frozen.sum() >= 600
        assert np.max(np.abs(trace.delta2[frozen])) <= 1e-8

    def test_acc_run_summary_reports_band_and_safety(self, tmp_path):
        code = run_cli("--scenario", "acc", "--set", "v_f0=21",
                       "--out", str(tmp_path))
        assert code == 0
        summary = json.loads((tmp_path / "acc" / "summary.json").read_text())
        assert summary["reach_times"][0] <= 10.0
        assert summary["max_h_per_safe_set"]["headway"] <= 0.0
        trace = trace_from_csv(tmp_path / "acc" / "trace.csv")
        stats = monitor(trace)
        assert stats["max_h_per_safe_set"] == summary["max_h_per_safe_set"]
        assert stats["max_abs_u"] == summary["max_abs_u"]
        cert = summary["fixed_time_certificate"]
        assert cert["delta1_sup"] == stats["max_delta1"]
        assert cert["regime"] in ("global_within_deadline", "global_fixed_time",
                                  "local_fixed_time")
        assert cert["bound_T"] is None or cert["bound_T"] > 0
        # one reach phase plus its post-reach hold: a single goal segment
        [segment] = summary["segments"]
        assert segment["v_entry"] == trace.h_goal[0]
        assert {k: segment[k] for k in cert} == cert

    def test_certificate_run_level_bound(self, tmp_path):
        # the synthetic 1-D case keeps the slack nonpositive, so the
        # run-level certificate is the deadline itself
        code = run_cli("--scenario", "synthetic:int1d", "--out", str(tmp_path))
        assert code == 0
        summary = json.loads(
            (tmp_path / "synthetic_int1d" / "summary.json").read_text())
        cert = summary["fixed_time_certificate"]
        assert cert["within_deadline"] is True
        assert cert["bound_T"] == pytest.approx(2.0)
        assert summary["reach_times"][0] <= cert["bound_T"]


@pytest.mark.parametrize("scenario_id, tag", [("acc", "acc"),
                                              ("synthetic:int2d", "synthetic_int2d")])
def test_monitor_is_the_summary(tmp_path, scenario_id, tag):
    # the library builds every summary field; the CLI adds only the scenario
    # id and the exit code
    assert run_cli("--scenario", scenario_id, "--out", str(tmp_path)) == 0
    written = json.loads((tmp_path / tag / "summary.json").read_text())
    scenario = scenario_from_id(scenario_id, {})
    body = json.loads(json.dumps(monitor(scenario.simulate(), d_min=scenario.d_min,
                                         bounds=scenario.bounds)))
    assert list(written) == ["scenario", *body, "exit_code"]
    assert {k: v for k, v in written.items() if k not in ("scenario", "exit_code")} == body


class TestSweep:
    def test_empty_value_list_is_noop(self, tmp_path):
        assert run_cli("--scenario", "acc", "--sweep", "v_f0=",
                       "--out", str(tmp_path)) == 0
        assert not (tmp_path / "sweep.csv").exists()
        # nor does it make an output directory that is not there yet
        fresh = tmp_path / "new" / "dir"
        assert run_cli("--scenario", "acc", "--sweep", "v_f0=",
                       "--out", str(fresh)) == 0
        assert not (tmp_path / "new").exists()

    def test_sweep_aggregates_and_exit_code(self, tmp_path):
        code = run_cli("--scenario", "acc", "--sweep", "v_f0=21,24",
                       "--set", "horizon=12.0",
                       "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].startswith("v_f0,")
        assert len(lines) == 3
        for sub in ("v_f0=21", "v_f0=24"):
            assert (tmp_path / sub / "trace.csv").exists()

    def test_key_without_values_is_config_error(self, tmp_path):
        # like --set without '=', unlike the empty list of 'v_f0='
        assert run_cli("--scenario", "acc", "--sweep", "v_f0",
                       "--out", str(tmp_path)) == 2
        assert not any(tmp_path.iterdir())

    def test_sweep_and_verify_bounds_exclude_each_other(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("--verify-bounds", "--sweep", "v_f0=1", "--out", str(tmp_path))
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("raw, values", [
        ("17,21", ["17", "21"]),
        ("[1.5, 0.5],[1.2, 0.4]", ["[1.5, 0.5]", "[1.2, 0.4]"]),
        ("[1.5, 0.5]", ["[1.5, 0.5]"]),
        ("[1, 2],3,", ["[1, 2]", "3"]),
        ("", [])])
    def test_values_split_on_commas_outside_brackets(self, raw, values):
        assert _split_values(raw) == values

    @pytest.mark.parametrize("start", ["[0.1]", "[0.1, 0.2, 0.3]"])
    def test_list_value_reaches_the_config_whole(self, tmp_path, capsys, start):
        # the config, not the split, refuses a start that is not a pair; split
        # on every comma, the second would reach it as the strings '[0.1' ...
        assert run_cli("--scenario", "two-robot", "--sweep", f"x0_agent1={start}",
                       "--out", str(tmp_path)) == 2
        assert "x0_agent1 must be two finite numbers" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_list_value_is_one_sweep_field(self, tmp_path):
        # the default start, given as a list: one tour run
        assert run_cli("--scenario", "two-robot", "--sweep", "x0_agent1=[-1.5, 1.5]",
                       "--out", str(tmp_path)) == 0
        with open(tmp_path / "sweep.csv", newline="") as fh:
            header, row = list(csv.reader(fh))
        assert header[0] == "x0_agent1" and len(row) == len(header)
        assert row[0] == "[-1.5, 1.5]" and row[1] == "all_phases_met"
        assert (tmp_path / "x0_agent1=[-1.5, 1.5]" / "trace.csv").exists()

    def test_set_value_for_the_sweep_axis_is_config_error(self, tmp_path, capsys):
        # the swept value would overwrite the --set one, so 18 would never run
        assert run_cli("--scenario", "acc", "--set", "horizon=1", "--set", "v_f0=18",
                       "--sweep", "v_f0=20,21", "--out", str(tmp_path)) == 2
        assert "v_f0" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_integer_beyond_float_range_is_config_error(self, tmp_path, capsys):
        assert run_cli("--scenario", "acc", "--sweep", f"v_f0={BEYOND_FLOAT}",
                       "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "configuration error: v_f0 is beyond float range" in err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_repeated_sweep_value_is_config_error(self, tmp_path, capsys):
        # a repeated value would rewrite the first run's directory
        assert run_cli("--scenario", "acc", "--set", "horizon=1",
                       "--sweep", "v_f0=20,21,20", "--out", str(tmp_path)) == 2
        assert "v_f0=20" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("sweep", ["v_f0=20,1e400", "dt=0.01,-0.01", "T_ud=10,0"])
    def test_bad_value_is_refused_before_any_run(self, tmp_path, capsys, sweep):
        # every value's scenario is built first: a bad last value costs no run
        # and leaves no directory of the good ones
        assert run_cli("--scenario", "acc", "--set", "horizon=0.5", "--sweep", sweep,
                       "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_sweep_propagates_failures(self, tmp_path):
        # with a 1 s deadline the 17 m/s start misses and the 21 m/s one meets it
        code = run_cli("--scenario", "acc", "--sweep", "v_f0=17,21",
                       "--set", "T_ud=1.0",
                       "--set", "horizon=11.0", "--out", str(tmp_path))
        assert code == 4


class TestFlagCombinations:
    # a flag the chosen mode would ignore is refused before any run
    @pytest.mark.parametrize("flags", [
        ("--verify-bounds", "--scenario", "acc"),
        ("--verify-bounds", "--set", "bogus=1"),
        ("--verify-bounds", "--scenario", "acc", "--set", "bogus=1"),
        ("--grid-json", "missing.json"),
        ("--scenario", "synthetic:int1d", "--grid-json", "missing.json")])
    def test_ignored_flag_is_config_error(self, tmp_path, capsys, flags):
        assert run_cli(*flags, "--out", str(tmp_path)) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


    # one case per mode: run, sweep and bound check
    @pytest.mark.parametrize("flags", [
        ("--scenario", "synthetic:int1d"),
        ("--scenario", "synthetic:int1d", "--sweep", "horizon=5.0"),
        ("--verify-bounds",)])
    def test_out_naming_a_file_is_config_error(self, tmp_path, capsys, flags):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert run_cli(*flags, "--out", str(taken)) == 2
        assert "configuration error" in capsys.readouterr().err
        assert taken.read_text() == "not a directory"

    # the run directory is made before the simulation, so a bad one costs no run
    @pytest.mark.parametrize("flags, taken, runs", [
        (("--scenario", "synthetic:int1d"), "synthetic_int1d", 0),
        (("--scenario", "acc", "--sweep", "horizon=0.05,0.1"), "horizon=0.05", 0),
        (("--scenario", "acc", "--sweep", "horizon=0.05,0.1"), "horizon=0.1", 1)])
    def test_run_directory_naming_a_file_is_config_error_before_the_run(
            self, tmp_path, capsys, monkeypatch, flags, taken, runs):
        from fxtqp.scenarios import Scenario
        simulate, calls = Scenario.simulate, []
        monkeypatch.setattr(Scenario, "simulate",
                            lambda self: calls.append(1) or simulate(self))
        (tmp_path / taken).write_text("not a directory")
        assert run_cli(*flags, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert len(calls) == runs
        assert (tmp_path / taken).read_text() == "not a directory"

class TestVerifyBounds:
    def test_small_grid_passes(self, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({
            "alpha": [1.0], "mu": [2.0],
            "delta1": [0.0, 2.5], "V0": [0.01, 1.0], "dt": 5e-4,
        }))
        code = run_cli("--verify-bounds", "--grid-json", str(grid),
                       "--out", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "bounds.csv").read_text().strip().splitlines()
        assert rows[0].startswith("alpha1,")
        assert len(rows) == 5
        # the out-of-domain point is reported, not failed
        out_of_domain = [r for r in rows[1:] if ",False," in r]
        assert len(out_of_domain) == 1 and out_of_domain[0].endswith("True")

    # an empty axis verifies no point, which must not read as a pass; None
    # writes no grid file, and "alpha: [1]" is not JSON
    @pytest.mark.parametrize("grid", ['[1, 2]', '{"dt": 0}', '{"alpha": [-1.0]}',
                                      '{"alpha": 1.0}', '{"alpha": []}', '{"mu": []}',
                                      '{"delta1": []}', '{"V0": []}', None, 'alpha: [1]'])
    def test_malformed_grid_is_config_error(self, tmp_path, capsys, grid):
        path = tmp_path / "grid.json"
        if grid is not None:
            path.write_text(grid)
        assert run_cli("--verify-bounds", "--grid-json", str(path),
                       "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.count("configuration error:") == 1 and len(err.splitlines()) == 1
        assert "Traceback" not in err
        assert not (tmp_path / "bounds.csv").exists()

    def test_integer_beyond_float_range_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(f'{{"V0": [{BEYOND_FLOAT}]}}')
        assert run_cli("--verify-bounds", "--grid-json", str(path),
                       "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "configuration error: grid 'V0' must be a nonempty list of finite numbers" in err
        assert "Traceback" not in err
        assert not (tmp_path / "bounds.csv").exists()

    def test_overflowing_start_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"alpha": [1.0], "mu": [2.0], "delta1": [0.0],
                                    "V0": [1e300], "dt": 1e-3}))
        assert run_cli("--verify-bounds", "--grid-json", str(path),
                       "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "V0=1e+300" in err
        assert "Traceback" not in err
        assert not (tmp_path / "bounds.csv").exists()


def test_readme_lists_every_summary_key(tmp_path):
    # README's summary.json field list and the written summary name the same
    # top-level keys: each key appears in a bullet, each bullet opens with a key
    assert run_cli("--scenario", "synthetic:int1d", "--out", str(tmp_path)) == 0
    keys = set(json.loads((tmp_path / "synthetic_int1d" / "summary.json").read_text()))
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("`summary.json` fields:\n\n", 1)[1].split("\n\n", 1)[0]
    bullets = [b for b in section.split("\n- ") if b.strip()]
    assert bullets and section.startswith("- ")
    missing = {k for k in keys if f"`{k}`" not in section}
    assert not missing, f"summary keys absent from README: {sorted(missing)}"
    openers = [re.match(r"-? ?`(\w+)`", b) for b in bullets]
    assert all(openers), bullets
    stale = {o.group(1) for o in openers} - keys
    assert not stale, f"README bullets for keys the summary lacks: {sorted(stale)}"


def test_readme_lists_every_flag():
    # README's Flags paragraph and the parser name the same options
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme.split("\nFlags: ", 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"`(--[\w-]+)", paragraph))
    options = {opt for action in build_parser()._actions if action.dest != "help"
               for opt in action.option_strings}
    assert options - documented == set(), "flags absent from README"
    assert documented - options == set(), "README flags the parser lacks"


def test_import_leaves_scipy_optimize_unloaded():
    # only the QP oracle uses scipy.optimize and imports it when called, so
    # importing the CLI must not load it and one oracle call must
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, fxtqp.cli; from fxtqp.qp import QpProblem, brute_force_solve; "
            "print('scipy.optimize' in sys.modules); "
            "brute_force_solve(QpProblem(H=[[1.0]], F=[0.0], A=[[1.0]], b=[1.0])); "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["False", "True"]
