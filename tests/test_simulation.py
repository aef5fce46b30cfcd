import ast
import csv
import dataclasses
import inspect
import io
import math
import re
import textwrap
import warnings

import numpy as np
import pytest

from fxtqp.constraints import ControlAffineSystem, InputBounds, SetFunction
from fxtqp.controller import SolverFailure, SynthesisParams
from fxtqp.fxts import settling_time_bound, worst_case
from fxtqp.simulation import (
    OutcomeKind,
    Phase,
    Schedule,
    Trace,
    _goal_sum,
    monitor,
    run,
    step_euler,
    trace_from_csv,
    trace_to_csv,
)
from fxtqp.scenarios import AccConfig, _acc_system, acc_scenario, scenario_from_id


def integrator(n):
    return ControlAffineSystem(f=lambda x: np.zeros(n),
                               g=lambda x: np.eye(n))


def goal_ball(radius, center=None, name="goal"):
    c = np.zeros(2) if center is None else np.asarray(center, float)
    return SetFunction(name=name,
                       fn=lambda x: (float((x - c) @ (x - c) - radius ** 2),
                                     2.0 * (np.asarray(x, float) - c)))


def half_line(name, bound, upper):
    """1-D set x <= bound when ``upper``, x >= bound otherwise."""
    sign = 1.0 if upper else -1.0
    return SetFunction(name=name,
                       fn=lambda x: (float(sign * (x[0] - bound)), np.array([sign])))


def simple_setup(deadline=2.0, horizon=None, dt=1e-3):
    sched = Schedule(
        tracks=((Phase(goal=goal_ball(0.1), deadline=deadline),),),
        horizon=horizon,
    )
    bounds = InputBounds(lower=-2.0 * np.ones(2), upper=2.0 * np.ones(2))
    params = SynthesisParams(T_ud=2.0, mu=2.0, dt=dt)
    return integrator(2), sched, bounds, params


def model_rate(sys, x, u):
    """The rate a decision hands the Euler step: f(x) + g(x) u."""
    return sys.f(x) + sys.g(x) @ u


class TestStepEuler:
    def test_single_integrator(self):
        sys, x0 = integrator(2), np.zeros(2)
        x = step_euler(sys, x0, model_rate(sys, x0, np.array([1.0, 2.0])), 0.1)
        assert np.allclose(x, [0.1, 0.2])

    def test_acc_drift_hand_values(self):
        sys, x0 = _acc_system(AccConfig()), np.array([20.0, 10.0, 150.0])
        x = step_euler(sys, x0, model_rate(sys, x0, np.array([0.0])), 0.01)
        assert 20.0 - x[0] == pytest.approx(0.01 * 200.1 / 1650.0, rel=1e-12)
        assert x[2] - 150.0 == pytest.approx(-0.1, rel=1e-12)
        assert x[1] == 10.0

    def test_disturbance_is_added_to_the_rate(self):
        # the controller never sees the disturbance; the plant adds it
        sys = ControlAffineSystem(f=lambda x: np.zeros(2), g=lambda x: np.eye(2),
                                  disturbance=lambda x: np.array([0.5, -1.0]))
        x0 = np.array([1.0, 1.0])
        x = step_euler(sys, x0, np.array([1.0, 2.0]), 0.1)
        assert np.array_equal(x, x0 + 0.1 * (np.array([1.0, 2.0]) + np.array([0.5, -1.0])))

    def test_zero_dynamics_is_identity(self):
        frozen = ControlAffineSystem(f=lambda x: np.zeros(2),
                                     g=lambda x: np.zeros((2, 1)))
        x0 = np.array([0.3, -0.7])
        assert np.array_equal(step_euler(frozen, x0, model_rate(frozen, x0, np.array([5.0])),
                                         0.1), x0)

    def test_nonfinite_raises(self):
        bad = ControlAffineSystem(f=lambda x: np.array([np.inf]),
                                  g=lambda x: np.ones((1, 1)))
        with pytest.raises(SolverFailure, match="non-finite state"):
            step_euler(bad, np.zeros(1), model_rate(bad, np.zeros(1), np.zeros(1)), 0.1)

    def test_column_drift_is_refused(self):
        # an (n, 1) drift plus an (n,) input term would broadcast to (n, n)
        column = ControlAffineSystem(f=lambda x: np.zeros((2, 1)),
                                     g=lambda x: np.eye(2))
        with pytest.raises(ValueError, match="shape"):
            step_euler(column, np.zeros(2), model_rate(column, np.zeros(2), np.ones(2)), 0.1)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            step_euler(integrator(1), np.zeros(1), np.zeros(1), 0.0)


class TestRun:
    def test_reaches_goal_within_deadline(self):
        sys, sched, bounds, params = simple_setup()
        trace = run(sys, sched, bounds, params, np.array([1.0, 1.0]))
        assert trace.outcome.kind is OutcomeKind.ALL_PHASES_MET
        assert trace.reach_times[0] is not None
        assert trace.reach_times[0] < 2.0

    def test_impossible_deadline_missed(self):
        sys, sched, bounds, params = simple_setup(deadline=1e-4)
        trace = run(sys, sched, bounds, params, np.array([1.0, 1.0]))
        assert trace.outcome.kind is OutcomeKind.DEADLINE_MISSED
        assert trace.outcome.phase == 0

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.inf, np.nan])
    def test_rejects_dt_that_is_not_finite_and_positive(self, dt):
        # the run's step is its params' dt, refused where it is given
        with pytest.raises(ValueError, match="^dt must be a finite number > 0"):
            simple_setup(dt=dt)

    def test_overflowing_step_is_a_solver_failure(self):
        # a finite state whose Euler step overflows ends the run at that
        # step, and numpy does not warn of the overflow
        sys = ControlAffineSystem(f=lambda x: np.array([1e308, 0.0]),
                                  g=lambda x: np.array([[0.0], [1.0]]))
        goal = SetFunction("x1", lambda x: (float(x[1] ** 2 - 0.01), np.array([0.0, 2.0 * x[1]])))
        sched = Schedule(tracks=((Phase(goal=goal, deadline=5.0),),))
        bounds = InputBounds(lower=-np.ones(1), upper=np.ones(1))
        params = SynthesisParams(T_ud=2.0, mu=2.0, dt=1.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trace = run(sys, sched, bounds, params, np.array([1e308, 1.0]))
        assert [w for w in caught if w.category is RuntimeWarning] == []
        assert trace.outcome.kind is OutcomeKind.SOLVER_FAILURE
        assert trace.outcome.message.startswith("non-finite state")
        assert len(trace) == 1

    def test_nan_goal_value_is_not_a_reach(self):
        # NaN fails every comparison: the reach test must not read it as met,
        # so the NaN reaches the QP's rows, which fail the run
        sys, _, bounds, params = simple_setup(dt=1e-2)
        nan_goal = SetFunction("nan_goal", lambda x: (math.nan, np.zeros(2)))
        sched = Schedule(tracks=((Phase(goal=nan_goal, deadline=1.0),),))
        trace = run(sys, sched, bounds, params, np.array([1.0, 1.0]))
        assert trace.outcome.kind is OutcomeKind.SOLVER_FAILURE
        assert "not finite" in trace.outcome.message
        assert trace.reach_times == (None,) and len(trace) == 0

    def test_safe_set_turning_nan_ends_the_run_with_its_steps(self):
        # a safe set that leaves its model mid-run fails the run as a solver
        # failure; the steps before it stay in the trace
        sys, _, bounds, params = simple_setup(dt=1e-2)
        flaky = SetFunction("flaky", lambda x: (math.nan if x[0] < 0.5 else -1.0,
                                                np.zeros(2)))
        sched = Schedule(tracks=((Phase(goal=goal_ball(0.1), deadline=2.0),),),
                         global_safes=(flaky,))
        trace = run(sys, sched, bounds, params, np.array([1.0, 0.0]))
        assert trace.outcome.kind is OutcomeKind.SOLVER_FAILURE
        assert "not finite" in trace.outcome.message
        assert len(trace) > 0 and np.all(trace.x[:, 0] >= 0.5)
        assert np.all(trace.h_safe == -1.0)
        assert trace.outcome.t == pytest.approx(trace.t[-1] + 1e-2)

    def test_start_inside_goal_completes_at_zero(self):
        sys, sched, bounds, params = simple_setup()
        trace = run(sys, sched, bounds, params, np.array([0.01, 0.0]))
        assert trace.outcome.kind is OutcomeKind.ALL_PHASES_MET
        assert trace.reach_times == (0.0,)
        assert len(trace) == 0
        assert trace.segments == () and worst_case(trace.segments) is None

    def test_phase_index_monotone(self):
        goal1 = goal_ball(0.1, center=(1.0, 0.0), name="g1")
        goal2 = goal_ball(0.1, center=(0.0, 0.0), name="g2")
        sched = Schedule(tracks=((Phase(goal=goal1, deadline=3.0),
                                  Phase(goal=goal2, deadline=3.0)),))
        bounds = InputBounds(lower=-2.0 * np.ones(2), upper=2.0 * np.ones(2))
        params = SynthesisParams(T_ud=3.0, mu=2.0, dt=1e-3)
        trace = run(integrator(2), sched, bounds, params, np.array([2.0, 0.5]))
        assert trace.outcome.kind is OutcomeKind.ALL_PHASES_MET
        assert np.all(np.diff(trace.phase) >= 0)
        assert trace.reach_times[0] < trace.reach_times[1]

    def test_goal_invariant_after_reach(self):
        # the reach-rate row keeps the goal set invariant once entered
        sys, sched, bounds, params = simple_setup(horizon=1.5)
        trace = run(sys, sched, bounds, params, np.array([0.5, -0.2]))
        assert trace.outcome.kind is OutcomeKind.ALL_PHASES_MET
        reached = trace.t >= trace.reach_times[0]
        assert np.all(trace.h_goal[reached] <= 1e-6)
        # the one segment ends on the step before the reach: the run-on after
        # the last reach makes no reach claim, so no certificate covers it
        reach_row = int(np.argmax(reached))
        assert reach_row > 0 and len(trace.segments) == 1
        assert trace.segments[0]["t_end"] == trace.t[reach_row - 1]

    def test_deterministic_bitwise(self):
        sys, sched, bounds, params = simple_setup()
        t1 = run(sys, sched, bounds, params, np.array([1.0, -0.4]))
        t2 = run(sys, sched, bounds, params, np.array([1.0, -0.4]))
        for field in ("t", "x", "u", "h_goal", "delta1", "delta2"):
            assert np.array_equal(getattr(t1, field), getattr(t2, field))
        assert t1.reach_times == t2.reach_times

    def test_solver_counters_per_step(self):
        sys, sched, bounds, params = simple_setup()
        trace = run(sys, sched, bounds, params, np.array([1.0, -0.4]))
        assert trace.qp_iters.shape == trace.box_overshoot.shape == (len(trace),)
        assert trace.qp_iters.dtype.kind == "i" and np.all(trace.qp_iters >= 0)
        assert trace.qp_iters[0] >= 1          # the first solve starts cold
        assert np.all((trace.box_overshoot >= 0.0) & (trace.box_overshoot <= 1e-8))

    def test_time_grid_is_uniform(self):
        sys, sched, bounds, params = simple_setup()
        trace = run(sys, sched, bounds, params, np.array([1.0, 1.0]))
        assert np.allclose(np.diff(trace.t), 1e-3, atol=1e-12)


def line_run(goal_at, deadline, dt, horizon=None):
    """x' = u, |u| <= 1, from x0 = 1 toward the goal x <= goal_at, whose one
    leg has ``deadline`` (T_ud too)."""
    goal = SetFunction("goal", lambda x: (float(x[0] - goal_at), np.array([1.0])))
    sched = Schedule(tracks=((Phase(goal=goal, deadline=deadline),),), horizon=horizon)
    bounds = InputBounds(lower=-np.ones(1), upper=np.ones(1))
    params = SynthesisParams(T_ud=deadline, mu=2.0, dt=dt)
    return run(integrator(1), sched, bounds, params, np.array([1.0]))


class TestDeadlineRule:
    def test_a_goal_first_met_after_the_deadline_is_a_miss(self):
        # x = 0.6 at t = 0.4, the deadline, and 0.5 (met) one step later:
        # that late reach is no reach, the step past the deadline ends the run
        trace = line_run(0.55, deadline=0.4, dt=0.1)
        assert trace.outcome.kind is OutcomeKind.DEADLINE_MISSED
        assert trace.outcome.t == 0.5 and trace.reach_times == (None,)
        # with a deadline one step earlier the same goal misses a step earlier
        trace = line_run(0.55, deadline=0.3, dt=0.1)
        assert trace.outcome.kind is OutcomeKind.DEADLINE_MISSED
        assert trace.outcome.t == 0.4

    def test_a_step_time_rounded_up_is_still_on_the_deadline(self):
        # 3 * 0.1 is 0.30000000000000004: without the round-off allowance the
        # step at the deadline would already count as past it
        trace = line_run(-100.0, deadline=0.3, dt=0.1)
        assert trace.outcome.kind is OutcomeKind.DEADLINE_MISSED
        assert trace.outcome.t == 0.4 and len(trace) == 4

    @pytest.mark.parametrize("bounds_0, deadlines, steps, track", [
        ((-100.0, -100.0), (0.5, 0.3), 4, 1),   # the later track misses first
        ((-100.0, -100.0), (0.3, 0.3), 4, 0),   # on a tie, the first track
        ((2.0, -100.0), (0.3, 0.5), 6, 1)])     # a finished track has no deadline
    def test_the_first_track_past_its_deadline_ends_the_run(self, bounds_0, deadlines,
                                                           steps, track):
        # track j sends x_j toward x_j <= bounds_0[j], from x0 = (1, 1)
        tracks = tuple((Phase(goal=SetFunction(f"g{j}", lambda x, j=j, b=b: (
            float(x[j] - b), np.eye(2)[j])), deadline=d),)
            for j, (b, d) in enumerate(zip(bounds_0, deadlines)))
        params = SynthesisParams(T_ud=1.0, mu=2.0, dt=0.1)
        trace = run(integrator(2), Schedule(tracks=tracks),
                    InputBounds(lower=-np.ones(2), upper=np.ones(2)), params, np.ones(2))
        assert trace.outcome.kind is OutcomeKind.DEADLINE_MISSED
        assert trace.outcome.t == steps * 0.1 and len(trace) == steps
        assert trace.outcome.phase == 0
        assert trace.outcome.message == (f"track {track} leg 0 still unmet after "
                                         f"{deadlines[track]} s")

    def test_a_step_time_rounded_down_is_already_at_the_horizon(self):
        # met at x0; 3 * 0.3 is 0.8999999999999999, which the allowance
        # reads as the horizon 0.9, so the run records three steps, not four
        trace = line_run(2.0, deadline=2.0, dt=0.3, horizon=0.9)
        assert trace.outcome.kind is OutcomeKind.ALL_PHASES_MET
        assert trace.reach_times == (0.0,) and len(trace) == 3


class TestSchedule:
    @pytest.mark.parametrize("tracks", [(), ((),)])
    def test_a_schedule_needs_phases_on_every_track(self, tracks):
        with pytest.raises(ValueError, match="at least one phase"):
            Schedule(tracks=tracks)

    @pytest.mark.parametrize("deadline", [0.0, -1.0, math.nan])
    def test_phase_deadline_must_be_positive(self, deadline):
        with pytest.raises(ValueError, match="deadline must be positive"):
            Phase(goal=goal_ball(0.1), deadline=deadline)

    def test_phase_deadline_must_be_finite(self):
        # a goal that is never reached would run forever
        with pytest.raises(ValueError, match="phase deadline must be finite"):
            Phase(goal=goal_ball(0.1), deadline=math.inf)

    @pytest.mark.parametrize("reach_tol", [math.nan, math.inf, -0.01])
    def test_phase_reach_tol_must_be_finite_and_not_negative(self, reach_tol):
        # a NaN tolerance is never met and an infinite one is met at t = 0; a
        # pending goal lies above its reach_tol, so a tolerance >= 0 keeps
        # every term of the goal sum positive
        with pytest.raises(ValueError, match=f"phase reach_tol must be finite and >= 0, "
                                             f"got {re.escape(str(reach_tol))}$"):
            Phase(goal=goal_ball(0.1), deadline=1.0, reach_tol=reach_tol)

    @pytest.mark.parametrize("horizon", [math.inf, -math.inf, math.nan])
    def test_schedule_horizon_must_be_finite(self, horizon):
        # an infinite or NaN horizon is never reached: a met schedule would run forever
        phase = Phase(goal=goal_ball(0.1), deadline=1.0)
        with pytest.raises(ValueError, match="horizon must be finite or None"):
            Schedule(tracks=((phase,),), horizon=horizon)
        assert Schedule(tracks=((phase,),), horizon=None).horizon is None

    def test_phases_is_the_only_track(self):
        sys, sched, bounds, params = simple_setup()
        assert sched.phases is sched.tracks[0]
        two = Schedule(tracks=(sched.tracks[0], sched.tracks[0]))
        with pytest.raises(ValueError):
            two.phases

    def test_phases_of_a_track_carry_equally_many_safe_sets(self):
        # the trace has one column per safe set, so a track whose phases
        # differ in safe_extra count is refused before any run
        goal = goal_ball(0.1)
        wall = half_line("wall", 3.0, upper=True)
        plain = (Phase(goal=goal, deadline=1.0),)
        ragged = (Phase(goal=goal, deadline=1.0),
                  Phase(goal=goal, deadline=1.0, safe_extra=(wall,)))
        with pytest.raises(ValueError, match="track 1"):
            Schedule(tracks=(plain, ragged))
        Schedule(tracks=(plain, ragged[1:]))

    def test_safe_sets_with_one_column_name_are_refused(self):
        # two global sets named "wall" would write two hs_wall columns, and
        # max_h_per_safe_set would keep only the second one's maximum
        goal = (Phase(goal=goal_ball(0.1), deadline=1.0),)
        walls = (half_line("wall", 4.0, upper=True), half_line("wall", 0.6, upper=True))
        with pytest.raises(ValueError, match="wall"):
            Schedule(tracks=(goal,), global_safes=walls)
        # a global set may not take the name of a phase's extra-set column
        extra = (Phase(goal=goal_ball(0.1), deadline=1.0, safe_extra=(walls[0],)),)
        with pytest.raises(ValueError, match="phase_extra_0_0"):
            Schedule(tracks=(extra,), global_safes=(half_line("phase_extra_0_0", 1.0, True),))
        Schedule(tracks=(extra,), global_safes=(half_line("wall", 1.0, True),))


def two_track_schedule():
    """Two tracks of two legs, each leg with its own goal and one extra safe set."""
    def leg(j, k):
        return Phase(goal=goal_ball(0.1, center=(j, k), name=f"g{j}{k}"), deadline=1.0,
                     safe_extra=(half_line(f"s{j}{k}", 3.0 + k, upper=True),))
    return Schedule(tracks=((leg(0, 0), leg(0, 1)), (leg(1, 0), leg(1, 1))),
                    global_safes=(half_line("wall", -3.0, upper=False),))


class TestInForce:
    def test_every_track_on_its_first_leg(self):
        sched = two_track_schedule()
        (a0, a1), (b0, b1) = sched.tracks
        goals, safes = sched.in_force([0, 0])
        assert goals == [a0.goal, b0.goal]
        # global sets first, then each track's extra sets in track order
        assert safes == (*sched.global_safes, *a0.safe_extra, *b0.safe_extra)

    def test_a_finished_track_keeps_its_last_safe_sets_but_no_goal(self):
        sched = two_track_schedule()
        (a0, a1), (b0, b1) = sched.tracks
        goals, safes = sched.in_force([2, 1])
        assert goals == [b1.goal]
        assert safes == (*sched.global_safes, *a1.safe_extra, *b1.safe_extra)
        goals, safes = sched.in_force([0, 2])
        assert goals == [a0.goal]
        assert safes == (*sched.global_safes, *a0.safe_extra, *b1.safe_extra)

    def test_all_tracks_met_keeps_every_last_goal(self):
        sched = two_track_schedule()
        (a0, a1), (b0, b1) = sched.tracks
        goals, safes = sched.in_force([2, 2])
        assert goals == [a1.goal, b1.goal]
        assert safes == (*sched.global_safes, *a1.safe_extra, *b1.safe_extra)

    def test_one_count_per_track(self):
        with pytest.raises(ValueError):
            two_track_schedule().in_force([0])

    @pytest.mark.parametrize("sid", ["acc", "two-robot", "synthetic:int2d"])
    def test_reproduces_the_sets_of_every_recorded_step(self, sid):
        # a track's leg counts as met from its recorded reach time on
        sc = scenario_from_id(sid)
        trace = sc.simulate()
        assert trace.outcome.ok and len(trace) > 1
        for k, t in enumerate(trace.t.tolist()):
            done = [sum(r is not None and r <= t for r in reached)
                    for reached in trace.track_reach_times]
            goals, safes = sc.schedule.in_force(done)
            x = trace.x[k]
            pairs = [g.value_and_gradient(x) for g in goals]
            h_goal = _goal_sum(pairs)[0]
            h_safe = np.array([s.value_and_gradient(x)[0] for s in safes], dtype=float)
            assert h_goal.hex() == trace.h_goal[k].hex(), k
            assert h_safe.tobytes() == trace.h_safe[k].tobytes(), k


def constant_goal(name, value):
    """A goal set of the same value at every state."""
    return SetFunction(name, lambda x: (value, np.zeros(1)))


def constant_track(*values, deadline=1.0):
    return tuple(Phase(goal=constant_goal(f"g{k}", v), deadline=deadline)
                 for k, v in enumerate(values))


class TestAdvance:
    """The reach and deadline rule on its own, with no QP."""

    X = np.zeros(1)

    def test_legs_met_at_one_state_all_take_its_time(self):
        sched = Schedule(tracks=(constant_track(0.0, -1.0, 1.0),))
        met = [[]]
        pairs, miss = sched.advance(self.X, 0.25, met)
        assert met == [[0.25, 0.25]] and miss is None
        assert [v for v, _ in pairs] == [1.0]

    @pytest.mark.parametrize("before", [[], [2.0]])
    @pytest.mark.parametrize("over, counts", [(5e-13, True), (1e-9, False)])
    def test_a_reach_past_the_deadline_by_more_than_round_off_is_none(self, before, over,
                                                                      counts):
        # the deadline runs from the track's previous reach, or from t = 0;
        # the leg after the one at stake is never met
        sched = Schedule(tracks=(constant_track(*[0.0] * len(before), 0.0, 1.0),))
        met = [list(before)]
        t = (before[-1] if before else 0.0) + 1.0 + over
        pairs, miss = sched.advance(self.X, t, met)
        if counts:
            assert met == [[*before, t]] and miss is None
            assert [v for v, _ in pairs] == [1.0]
        else:
            assert met == [before] and miss == 0
            assert [v for v, _ in pairs] == [0.0]

    def test_with_both_tracks_late_the_first_is_reported(self):
        sched = Schedule(tracks=(constant_track(1.0), constant_track(1.0)))
        met = [[], []]
        pairs, miss = sched.advance(self.X, 5.0, met)
        assert miss == 0 and met == [[], []]
        assert [v for v, _ in pairs] == [1.0, 1.0]

    def test_a_finished_track_adds_no_pair(self):
        # track 0 met its one leg at 0.1, long past its deadline since
        sched = Schedule(tracks=(constant_track(1.0), constant_track(2.0, deadline=10.0)))
        met = [[0.1], []]
        pairs, miss = sched.advance(self.X, 5.0, met)
        assert miss is None and met == [[0.1], []]
        assert [v for v, _ in pairs] == [2.0]

    def test_one_list_of_reach_times_per_track(self):
        with pytest.raises(ValueError):
            Schedule(tracks=(constant_track(1.0), constant_track(1.0))).advance(
                self.X, 0.0, [[]])


class TestSegments:
    def test_two_phase_segments_partition_the_steps(self):
        goal1 = goal_ball(0.1, center=(1.0, 0.0), name="g1")
        goal2 = goal_ball(0.1, center=(0.0, 0.0), name="g2")
        sched = Schedule(tracks=((Phase(goal=goal1, deadline=3.0),
                                  Phase(goal=goal2, deadline=3.0)),))
        bounds = InputBounds(lower=-2.0 * np.ones(2), upper=2.0 * np.ones(2))
        params = SynthesisParams(T_ud=3.0, mu=2.0, dt=1e-3)
        trace = run(integrator(2), sched, bounds, params, np.array([2.0, 0.5]))
        assert trace.outcome.kind is OutcomeKind.ALL_PHASES_MET
        segs = trace.segments
        assert len(segs) == 2
        assert segs[1]["t_start"] == trace.reach_times[0]
        first = [int(np.searchsorted(trace.t, s["t_start"])) for s in segs]
        last = [int(np.searchsorted(trace.t, s["t_end"])) for s in segs]
        assert first[0] == 0 and last[-1] == len(trace) - 1
        assert all(b == a + 1 for a, b in zip(last, first[1:]))
        for s, i, j in zip(segs, first, last):
            assert (trace.t[i], trace.t[j]) == (s["t_start"], s["t_end"])
            assert s["v_entry"] == trace.h_goal[i]
            assert s["delta1_sup"] == np.max(trace.delta1[i:j + 1])
            bound = settling_time_bound(params.gains, max(0.0, s["delta1_sup"]))
            assert s["regime"] == bound.kind.value
            assert s["domain_ok"] == (s["v_entry"] <= bound.v_max)
            assert s["bound_T"] == (bound.T if s["domain_ok"] else None)
        cert = worst_case(segs)
        assert cert["delta1_sup"] == max(s["delta1_sup"] for s in segs)
        bound = settling_time_bound(params.gains, max(0.0, cert["delta1_sup"]))
        assert cert["regime"] == bound.kind.value
        assert cert["domain_ok"] == all(s["domain_ok"] for s in segs)
        assert cert["bound_T"] == (bound.T if cert["domain_ok"] else None)

    @pytest.mark.parametrize("v_f0", range(17, 28))
    def test_a_nominal_acc_segment_stops_at_its_reach(self, v_f0):
        # the steps before the reach do not depend on the horizon
        trace = acc_scenario(AccConfig(v_f0=float(v_f0), horizon=3.0)).simulate()
        reach_time = trace.reach_times[0]
        reach_row = int(np.searchsorted(trace.t, reach_time))
        assert trace.t[reach_row] == reach_time
        assert (reach_row == 0) == (v_f0 == 22)   # 22 m/s starts in the band
        if reach_row == 0:
            assert trace.segments == () and worst_case(trace.segments) is None
            return
        [seg] = trace.segments
        rows = np.searchsorted(trace.t, [seg["t_start"], seg["t_end"]])
        assert rows.tolist() == [0, reach_row - 1]
        assert trace.t[rows].tolist() == [seg["t_start"], seg["t_end"]]
        assert seg["domain_ok"] and seg["bound_T"] >= reach_time

    @pytest.mark.parametrize("sid", ["two-robot", "synthetic:int1d", "synthetic:int2d",
                                     "synthetic:fullact2d"])
    def test_every_certified_bound_covers_its_segment(self, sid):
        # a segment's goal is met one step after its last row
        trace = scenario_from_id(sid).simulate()
        certified = [s for s in trace.segments if s["domain_ok"]]
        assert certified
        for s in certified:
            assert s["bound_T"] >= s["t_end"] - s["t_start"] + trace.dt


def decay_excess(trace: Trace, name: str) -> np.ndarray:
    """h[k+1] - (1 - delta2[k] dt) h[k] of the safe set ``name`` at every
    recorded step k that has a successor."""
    h = trace.h_safe[:, trace.safe_names.index(name)]
    return h[1:] - (1.0 - trace.delta2[:-1] * trace.dt) * h[:-1]


class TestEulerDecay:
    # One Euler step gives h[k+1] = h[k] + dt grad(h).xdot + (dt^2/2) xdot' hess(h) xdot.
    # On a linear or concave set the last term is at most 0, so the
    # invariance row alone gives h[k+1] <= (1 - delta2 dt) h[k]; a convex set
    # can exceed it by its curvature term.
    LINEAR_OR_CONCAVE = {
        "two-robot": ("square_a1_00", "square_a1_01", "square_a1_10", "square_a1_11",
                      "square_a2_00", "square_a2_01", "square_a2_10", "square_a2_11",
                      "hub_a1", "hub_a2", "separation"),
        "synthetic:int2d": ("obstacle_disk",),
    }

    @pytest.mark.parametrize("sid", sorted(LINEAR_OR_CONCAVE))
    def test_linear_and_concave_sets_keep_the_discrete_decay(self, sid):
        trace = scenario_from_id(sid).simulate()
        assert len(trace) > 1
        for name in self.LINEAR_OR_CONCAVE[sid]:
            assert decay_excess(trace, name).max() <= 1e-12, name

    def test_the_convex_disk_exceeds_the_discrete_decay(self):
        # the check tells the two kinds of set apart
        trace = scenario_from_id("synthetic:fullact2d").simulate()
        assert np.count_nonzero(decay_excess(trace, "disk4") > 1e-12) > 0


class TestSafetyMonitor:
    def test_set_violated_at_leg_switch_is_flagged(self):
        # the first leg ends at x = 0.9, where the second leg's extra set
        # x <= 0.4 is violated by 0.5: the run ends at the switch step
        line = ControlAffineSystem(f=lambda x: np.zeros(1),
                                   g=lambda x: np.eye(1))
        out = Phase(goal=half_line("x_ge_0.9", 0.9, upper=False),
                    deadline=2.0,
                    safe_extra=(half_line("x_le_2", 2.0, upper=True),))
        back = Phase(goal=goal_ball(0.1, center=(0.0,), name="origin"), deadline=2.0,
                     safe_extra=(half_line("x_le_0.4", 0.4, upper=True),))
        trace = run(line, Schedule(tracks=((out, back),)),
                    InputBounds(lower=np.array([-2.0]), upper=np.array([2.0])),
                    SynthesisParams(T_ud=2.0, mu=2.0, dt=1e-3), np.array([0.0]))
        assert trace.outcome.kind is OutcomeKind.SAFETY_VIOLATED
        assert trace.outcome.safe_set == "phase_extra_0_0"
        assert trace.outcome.phase == 1
        assert trace.outcome.t == trace.reach_times[0]
        assert trace.h_safe[-1, 0] == pytest.approx(0.5, abs=1e-3)


    def test_forced_collision_is_flagged(self):
        # two points on a line; the plant pushes the first one right at 5,
        # more than its input (|u| <= 1) and the second one's escape can
        # offset, so the separation 0.1 is lost however the QP decides
        sep = SetFunction(name="separation",
                          fn=lambda x: (float(0.01 - (x[0] - x[1]) ** 2),
                                        np.array([-2.0, 2.0]) * (x[0] - x[1])))
        goal = SetFunction(name="x1_at_5",
                           fn=lambda x: (float((x[1] - 5.0) ** 2 - 0.01),
                                         np.array([0.0, 2.0 * (x[1] - 5.0)])))
        pushed = ControlAffineSystem(f=lambda x: np.zeros(2),
                                     g=lambda x: np.eye(2),
                                     disturbance=lambda x: np.array([5.0, 0.0]))
        trace = run(pushed, Schedule(tracks=((Phase(goal=goal, deadline=10.0),),),
                                     global_safes=(sep,)),
                    InputBounds(lower=-np.ones(2), upper=np.ones(2)),
                    SynthesisParams(T_ud=10.0, mu=2.0, dt=1e-3),
                    np.array([0.0, 1.0]))
        assert trace.outcome.kind is OutcomeKind.SAFETY_VIOLATED
        assert trace.outcome.safe_set == "separation"
        # the run ends at the first step closer than 0.1 (up to round-off)
        distance = np.abs(trace.x[:, 0] - trace.x[:, 1])
        assert distance[-1] < 0.1 and np.all(distance[:-1] >= 0.1 - 1e-12)
        assert np.all(trace.h_safe[:-1, 0] <= 1e-12) and trace.h_safe[-1, 0] > 1e-12
        assert trace.outcome.t == trace.t[-1] == pytest.approx(0.226, abs=0.02)


class TestMonitor:
    def test_empty_trace_gives_none_stats(self):
        sys, sched, bounds, params = simple_setup()
        trace = run(sys, sched, bounds, params, np.array([0.01, 0.0]))
        stats = monitor(trace)
        assert stats["max_abs_u"] is None
        assert stats["max_h_per_safe_set"] is None

    def test_summary_fields(self):
        sys, sched, bounds, params = simple_setup()
        trace = run(sys, sched, bounds, params, np.array([1.0, 1.0]))
        stats = monitor(trace)
        assert stats["max_abs_u"] == [pytest.approx(2.0, abs=1e-9)] * 2
        assert stats["reach_times"] == [trace.reach_times[0]]
        assert stats["max_delta1"] == pytest.approx(np.max(trace.delta1))

    def test_chatter_steps_on_a_hand_built_trace(self):
        # box half-widths 1 and 2; steps 3, 4, 8, 9 (input 0) and 6, 7
        # (input 1) reverse by more than that twice running.  Step 10 jumps
        # exactly the half-width, step 12 twice the same way: not counted.
        u = np.array([[0.0, 0.9, -0.9, 0.9, -0.9, -0.9, -0.9, 0.2, -0.85, 0.2, 1.2, 2.4, 3.6],
                      [0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.5, 3.0, 4.0, 4.0, 4.0, 4.0, 4.0]]).T
        k = len(u)
        trace = Trace(t=0.1 * np.arange(k), x=np.zeros((k, 1)), u=u, h_goal=np.ones(k),
                      h_safe=np.zeros((k, 0)), delta1=np.zeros(k), delta2=np.zeros(k),
                      strict_cs=np.ones(k, dtype=bool), active_set_size=np.zeros(k, dtype=int),
                      phase=np.zeros(k, dtype=int), safe_names=(), dt=0.1)
        bounds = InputBounds(lower=np.array([-1.0, 0.0]), upper=np.array([1.0, 4.0]))
        assert monitor(trace, bounds=bounds)["chatter_steps"] == 6
        assert monitor(trace)["chatter_steps"] is None

    def test_reach_times_are_the_later_of_the_tracks(self):
        # leg 1 of track 1 is unmet, and only track 0 has a leg 2
        trace = Trace(t=np.zeros(0), x=np.zeros((0, 1)), u=np.zeros((0, 1)),
                      h_goal=np.zeros(0), h_safe=np.zeros((0, 0)), delta1=np.zeros(0),
                      delta2=np.zeros(0), strict_cs=np.zeros(0, dtype=bool),
                      active_set_size=np.zeros(0, dtype=int), phase=np.zeros(0, dtype=int),
                      safe_names=(), dt=0.1, track_reach_times=((0.5, 1.0, 2.0), (0.7, None)))
        assert trace.reach_times == (0.7, None, 2.0)

    def test_a_trace_read_back_from_csv_has_no_reach_times(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,x0,u0,h_goal,delta1,delta2,strict_cs,active_set_size,phase\n"
                        "0,1,0,1,0,0,1,2,0\n")
        trace = trace_from_csv(path)
        assert trace.reach_times == () and monitor(trace)["reach_times"] is None

    # criterion 5's nominal starts and their reach times, the same with and
    # without the Euler rows; without the delta1 floor these runs flip their
    # input on 400-631 of their 2000 steps
    NOMINAL_REACH_TIMES = {17: 1.93, 18: 1.5, 19: 1.08, 20: 0.65, 21: 0.22, 22: 0.0,
                           23: 0.2, 24: 0.58, 25: 0.96, 26: 1.34, 27: 1.72}

    @pytest.mark.parametrize("v_f0", sorted(NOMINAL_REACH_TIMES))
    def test_no_chatter_on_the_nominal_acc_runs(self, v_f0):
        sc = acc_scenario(AccConfig(v_f0=float(v_f0)))
        trace = sc.simulate()
        assert monitor(trace, bounds=sc.bounds)["chatter_steps"] == 0
        assert trace.delta1.min() >= -(1.0 + 1e-12) / sc.params.dt
        assert trace.delta2.max() <= (0.5 + 1e-12) / sc.params.dt
        assert trace.reach_times == (self.NOMINAL_REACH_TIMES[v_f0],)


class TestStepPath:
    def test_makes_no_numpy_wrapper_call(self, monkeypatch):
        # numpy's Python-level any/all/append/delete/argmin cost more than
        # their work at these sizes; the step path uses array methods instead.
        # The scenarios are built first: only the runs are guarded
        from fxtqp.scenarios import two_robot_scenario
        scenarios = [acc_scenario(AccConfig()), two_robot_scenario()]

        def forbidden(*args, **kwargs):
            raise AssertionError("numpy wrapper called on the step path")

        for name in ("any", "all", "append", "delete", "argmin"):
            monkeypatch.setattr(np, name, forbidden)
        for sc in scenarios:
            assert sc.simulate().outcome.ok

    def test_makes_no_matmul_operator(self):
        # @ goes through the matmul gufunc's dispatch, ndarray.dot straight
        # to the same BLAS kernel at about half the call cost; test_qp holds
        # the two bit for bit on the step's shapes
        from fxtqp import controller, qp, scenarios, simulation
        step_path = [
            qp.solve_qp, qp._solve, qp._hot_start, qp._ratio_test, qp._equality_solve,
            qp._slack_verdicts, qp._thin_qr, qp._tri_solve,
            controller.synthesize, controller._clip_to_box,
            controller.qp_rows, controller._clamped_power_sum, controller.CompiledQp.__post_init__,
            simulation.run, simulation.step_euler, simulation._goal_sum,
            scenarios._constant, scenarios._square, scenarios._acc_system, scenarios.acc_goal,
            scenarios.acc_headway, scenarios._lifted, scenarios._circle, scenarios._ellipse,
            scenarios._square_walls, scenarios._separation,
        ]
        for fn in step_path:
            source = textwrap.dedent(inspect.getsource(fn))
            lines = [node.lineno for node in ast.walk(ast.parse(source))
                     if isinstance(node, (ast.BinOp, ast.AugAssign))
                     and isinstance(node.op, ast.MatMult)]
            assert not lines, f"{fn.__qualname__} applies @ on its source lines {lines}"


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        sys, sched, bounds, params = simple_setup()
        trace = run(sys, sched, bounds, params, np.array([1.0, 1.0]))
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        back = trace_from_csv(path)
        for name in ("t", "x", "u", "h_goal", "h_safe", "delta1", "delta2",
                     "strict_cs", "active_set_size", "phase"):
            a, b = getattr(back, name), getattr(trace, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert back.safe_names == trace.safe_names
        assert back.dt == trace.dt

    def test_writer_gives_the_csv_writer_bytes_and_reads_back(self, tmp_path):
        # edge doubles in every float column kind, and a safe-set name that
        # csv must quote; the reference is csv.writer with per-value formatting
        edge = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
        k = len(edge)
        trace = Trace(t=np.arange(k) * 0.1, x=np.array([edge, edge[::-1]]).T,
                      u=np.array([edge[2:] + edge[:2]]).T, h_goal=np.array(edge[::-1]),
                      h_safe=np.array([edge[1:] + edge[:1], edge]).T,
                      delta1=np.array(edge), delta2=np.array(edge[3:] + edge[:3]),
                      strict_cs=np.array([True, False] * 3),
                      active_set_size=np.arange(k), phase=np.array([0, 0, 1, 1, 2, 12]),
                      safe_names=('wall,"east"', "sep"), dt=0.1)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)

        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow(["t", "x0", "x1", "u0", "h_goal", 'hs_wall,"east"', "hs_sep",
                         "delta1", "delta2", "strict_cs", "active_set_size", "phase"])
        for i in range(k):
            floats = [trace.t[i], *trace.x[i], *trace.u[i], trace.h_goal[i],
                      *trace.h_safe[i], trace.delta1[i], trace.delta2[i]]
            writer.writerow([f"{float(v):.17g}" for v in floats]
                            + [int(trace.strict_cs[i]), int(trace.active_set_size[i]),
                               int(trace.phase[i])])
        assert path.read_bytes() == ref.getvalue().encode()

        back = trace_from_csv(path)
        for name in ("t", "x", "u", "h_goal", "h_safe", "delta1", "delta2",
                     "strict_cs", "active_set_size", "phase"):
            a, b = getattr(back, name), getattr(trace, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert back.safe_names == trace.safe_names

    @pytest.mark.parametrize("header", ["", "t,x0,u0,h_goal,delta1",
                                        "t,x0,u0,h_goal,hs_a,delta1,delta2,strict_cs,phase",
                                        "t,y0,u0,h_goal,delta1,delta2,strict_cs,"
                                        "active_set_size,phase",
                                        "t,x1,x0,u0,h_goal,delta1,delta2,strict_cs,"
                                        "active_set_size,phase",
                                        "t,x0,u0,h_goal,delta1,delta2,strict_cs,"
                                        "active_set_size,phase,qp_iters",
                                        "t,x0,u0,h_goal,delta1,hs_a,delta2,strict_cs,"
                                        "active_set_size,phase"])
    def test_foreign_header_is_rejected(self, tmp_path, header):
        path = tmp_path / "trace.csv"
        path.write_text(header + "\n")
        with pytest.raises(ValueError):
            trace_from_csv(path)

    def test_repeated_safe_set_columns_are_rejected(self, tmp_path):
        # read as safe_names ('a', 'a'), monitor would keep the last column
        # and report max h_s = -0.5, hiding the positive value of the first
        path = tmp_path / "trace.csv"
        path.write_text("t,x0,u0,h_goal,hs_a,hs_a,delta1,delta2,strict_cs,"
                        "active_set_size,phase\n0,0,0,1,0.5,-0.5,0,0,1,2,0\n")
        with pytest.raises(ValueError, match="repeat"):
            trace_from_csv(path)

    @pytest.mark.parametrize("body, line, cells", [
        # a reshape of all cells to the header's width would read this row as
        # two steps at t = 0 and 0.5, and the third case as three steps
        (["0,1,0,1,0,0,1,2,0,0.5,1,0,1,0,0,1,2,0"], 2, 18),
        (["0,1,0,1,0,0,1,2"], 2, 8),
        (["0,1,0,1,0,0,1,2,0", "0.5,1,0,1,0,0,1,2,0,0", "1,0,1,0,0,1,2,0"], 3, 10),
        (["0,1,0,1,0,0,1,2,0", "", "0.5,1,0,1,0,0,1,2,0"], 3, 0)])
    def test_a_row_must_have_as_many_cells_as_the_header(self, tmp_path, body, line, cells):
        path = tmp_path / "trace.csv"
        path.write_text("\n".join(["t,x0,u0,h_goal,delta1,delta2,strict_cs,"
                                   "active_set_size,phase", *body]) + "\n")
        with pytest.raises(ValueError, match=f"line {line} has {cells} cells, the header 9"):
            trace_from_csv(path)

    def test_a_cell_that_is_not_a_number_names_its_line(self, tmp_path):
        # float() alone says only "could not convert string to float: 'abc'"
        path = tmp_path / "trace.csv"
        path.write_text("t,x0,u0,h_goal,delta1,delta2,strict_cs,active_set_size,phase\n"
                        "0,1,0,1,0,0,1,2,abc\n")
        with pytest.raises(ValueError, match=r"trace\.csv: line 2: .*'abc'"):
            trace_from_csv(path)

    @pytest.mark.parametrize("column, value", [
        ("strict_cs", "nan"), ("strict_cs", "2"), ("strict_cs", "-1"), ("strict_cs", "0.5"),
        ("active_set_size", "inf"), ("active_set_size", "nan"), ("active_set_size", "2.5"),
        ("active_set_size", "-1"), ("active_set_size", "1e19"), ("phase", "0.7")])
    def test_integer_and_bool_cells_must_hold_their_values(self, tmp_path, column, value):
        # a plain cast reads nan and 2 as True, inf as int64's minimum (with
        # a RuntimeWarning), 2.5 as 2 and 0.7 as 0
        cells = dict(t="0", x0="1", u0="0", h_goal="1", delta1="0", delta2="0",
                     strict_cs="1", active_set_size="2", phase="0")
        path = tmp_path / "trace.csv"
        path.write_text("\n".join([",".join(cells), ",".join(cells.values()),
                                   ",".join({**cells, column: value}.values())]))
        with pytest.raises(ValueError, match=column):
            trace_from_csv(path)

    def test_monitor_stats_survive_round_trip(self, tmp_path):
        from fxtqp.scenarios import two_robot_scenario
        sc = two_robot_scenario()
        trace = sc.simulate()
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        back = trace_from_csv(path)
        s1 = monitor(trace, d_min=sc.d_min)
        s2 = monitor(back, d_min=sc.d_min)
        assert s1["max_h_per_safe_set"] == s2["max_h_per_safe_set"]
        assert s1["max_abs_u"] == s2["max_abs_u"]
        assert s1["min_separation"] == s2["min_separation"]
        assert s1["max_delta1"] == s2["max_delta1"]


# each step field's width per step (1 for a 1-D array, else n states, m
# inputs or k safe sets) and dtype, in table order
STEP_LAYOUT = {"t": (1, float), "x": ("n", float), "u": ("m", float), "h_goal": (1, float),
               "h_safe": ("k", float), "delta1": (1, float), "delta2": (1, float),
               "strict_cs": (1, bool), "active_set_size": (1, int), "phase": (1, int),
               "qp_iters": (1, int), "box_overshoot": (1, float)}


def declared_steps():
    return {f.name: f.metadata["step"][:2] for f in dataclasses.fields(Trace)
            if "step" in f.metadata}


class TestStepLayout:
    def test_trace_declares_the_step_fields(self):
        assert list(declared_steps().items()) == list(STEP_LAYOUT.items())

    @pytest.mark.parametrize("sid", ["acc", "two-robot", "synthetic:int1d",
                                     "synthetic:int2d", "synthetic:fullact2d"])
    def test_every_step_field_has_its_declared_width_and_dtype(self, sid):
        sc = scenario_from_id(sid)
        trace = sc.simulate()
        assert len(trace) > 1
        sizes = {1: (), "n": (sc.x0.size,), "m": (sc.bounds.m,), "k": (len(trace.safe_names),)}
        for name, (width, dtype) in declared_steps().items():
            a = getattr(trace, name)
            assert a.shape == (len(trace), *sizes[width]) and a.dtype == np.dtype(dtype), name
