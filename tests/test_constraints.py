import dataclasses
import math

import numpy as np
import pytest

from fxtqp.constraints import (
    ControlAffineSystem,
    InputBounds,
    SetFunction,
)
from fxtqp.controller import CompiledQp, SynthesisParams, assemble
from fxtqp.fxts import alpha_from_deadline
from fxtqp.scenarios import (
    AccConfig,
    TwoRobotConfig,
    acc_goal,
    acc_scenario,
    acc_headway,
    _acc_system,
    scenario_from_id,
    synthetic_suite,
    two_robot_scenario,
    waypoint_sets,
)
from fxtqp.simulation import OutcomeKind, _goal_sum, _joint_goal
from reference_checks import finite_diff_gradient_check, rows_at


def integrator(n):
    return ControlAffineSystem(f=lambda x: np.zeros(n),
                               g=lambda x: np.eye(n))


def ball(radius=1.0, name="ball"):
    return SetFunction(name=name,
                       fn=lambda x: (float(x @ x - radius ** 2), 2.0 * np.asarray(x, float)))


DT = 1e-3   # the Euler step of the rows built here


def unit_box(m):
    # scale 1, so the input columns of the rows are the Lie derivatives
    return InputBounds(lower=-np.ones(m), upper=np.ones(m))


def compiled(bounds, n_safe, deadline=(2.0, 2.0), dt=DT):
    """The QP compiled for ``bounds``, ``n_safe`` safe sets, unit input
    weights and the gains alpha_from_deadline(*deadline)."""
    params = SynthesisParams(T_ud=deadline[0], mu=deadline[1], w_u=np.ones(bounds.m), dt=dt)
    return CompiledQp(bounds, params, n_safe)


def box_rows(bounds):
    """The input box's rows (A, b) of the compiled QP, over the scaled input
    alone: A of shape (2m, m) and b of shape (2m,)."""
    m = bounds.m
    rows = compiled(bounds, 0).rows
    return rows[:2 * m, :m], rows[:2 * m, -1]


def reach_row(sys, goal, x, deadline=(2.0, 2.0)):
    """The reach-rate row over z = (v, delta1, delta2) and its right side."""
    m = sys.g(x).shape[1]
    A, b, _, _ = rows_at(sys, goal, (), compiled(unit_box(m), 0, deadline), x)
    return A[2 * m], b[2 * m]


def safety_rows(sys, safe, x):
    """The invariance row of one safe set and its right side."""
    m = sys.g(x).shape[1]
    A, b, _, _ = rows_at(sys, ball(), (safe,), compiled(unit_box(m), 1), x)
    return A[2 * m + 1:-2], b[2 * m + 1:-2]


ACC_STATE = np.array([20.0, 10.0, 150.0])


class TestLieDerivatives:
    def test_single_integrator_ball(self):
        row, rhs = reach_row(integrator(2), ball(), np.array([1.0, 0.0]))
        assert rhs == 0.0     # Lf = 0 and h = 0
        assert np.allclose(row[:2], [2.0, 0.0])

    def test_acc_goal_hand_values(self):
        # grad = (2(v_f - 22), 0, 0), drag at v_f = 20 is 0.1 + 100 + 100
        cfg = AccConfig()
        gains = alpha_from_deadline(10.0, 5.0)
        row, rhs = reach_row(_acc_system(cfg), acc_goal(cfg), ACC_STATE, (10.0, 5.0))
        power = gains.alpha1 * 4.0 ** gains.gamma1 + gains.alpha2 * 4.0 ** gains.gamma2
        assert -(rhs + power) == pytest.approx((-4.0) * (-200.1 / 1650.0), rel=1e-12)
        assert row[0] == pytest.approx(-4.0 / 1650.0, rel=1e-12)

    def test_pair_is_handed_on_unconverted(self):
        # the contract is fn's own (float, 1-D float array): no copy, no view
        grad = np.array([0.5, -1.0])
        h, g = SetFunction(name="c", fn=lambda x: (0.25, grad)).value_and_gradient(np.ones(2))
        assert h == 0.25 and g is grad

    def test_constant_function_vanishes(self):
        const = SetFunction(name="c", fn=lambda x: (1.0, np.zeros(2)))
        rows, rhs = safety_rows(integrator(2), const, np.ones(2))
        assert rhs[0] == 0.0 and np.all(rows[0, :2] == 0.0)


class TestConvergenceRow:
    def test_on_goal_boundary_power_terms_vanish(self):
        sys = integrator(2)
        x = np.array([1.0, 0.0])  # exactly on the unit circle
        row, rhs = reach_row(sys, ball(), x, (2.0, 2.0))
        assert row[-2] == pytest.approx(0.0)      # delta1 coefficient is -h = 0
        assert rhs == pytest.approx(0.0)          # -Lf with Lf = 0

    def test_unit_level_powers_sum_to_alphas(self):
        gains = alpha_from_deadline(3.0, 5.0)
        sys = integrator(2)
        x = np.array([math.sqrt(2.0), 0.0])  # h = 1
        _, rhs = reach_row(sys, ball(), x, (3.0, 5.0))
        assert rhs == pytest.approx(-(gains.alpha1 + gains.alpha2), rel=1e-12)

    def test_acc_hand_arithmetic(self):
        cfg = AccConfig()
        row, rhs = reach_row(_acc_system(cfg), acc_goal(cfg), ACC_STATE, (10.0, 5.0))
        lf = (-4.0) * (-200.1 / 1650.0)
        expected = -lf - math.pi / 4.0 * (4.0 ** 1.2 + 4.0 ** 0.8)
        assert rhs == pytest.approx(expected, rel=1e-12)
        assert rhs == pytest.approx(-7.01133, abs=5e-5)
        assert row[-2] == pytest.approx(-4.0)     # -h_g

    def test_rhs_monotone_in_goal_value(self):
        # larger positive goal value demands a faster decrease (Lf = 0 here)
        sys = integrator(1)
        s = SetFunction(name="sq",
                        fn=lambda x: (float(x[0] ** 2), np.array([2.0 * x[0]])))
        rhs_prev = math.inf
        for xv in np.linspace(0.5, 4.0, 12):
            _, rhs = reach_row(sys, s, np.array([xv]), (2.0, 2.0))
            assert rhs <= rhs_prev
            rhs_prev = rhs

    def test_one_set_serves_as_goal_and_as_safe_set(self):
        # a set's role is where it is passed: the same object gives the
        # reach-rate row and an invariance row with the same Lie derivative
        sys, s, x = integrator(2), ball(), np.array([0.6, -0.3])
        A, b, h_goal, h_safe = rows_at(sys, s, (s,), compiled(unit_box(2), 1), x)
        assert h_goal == h_safe[0] == s.value(x)
        assert np.array_equal(A[4, :2], A[5, :2])
        assert (A[4, 2], A[5, 3]) == (-h_goal, h_goal)


class TestSafetyRow:
    def test_boundary_reduces_to_tangency(self):
        sys = integrator(2)
        s = ball(radius=2.0)
        x = np.array([2.0, 0.0])
        rows, rhs = safety_rows(sys, s, x)
        assert rows[0, -1] == pytest.approx(0.0)
        assert rhs[0] == pytest.approx(0.0)

    def test_interior_example(self):
        rows, rhs = safety_rows(integrator(2), ball(2.0),
                                np.array([1.0, 0.0]))
        assert np.allclose(rows[0, :2], [2.0, 0.0])
        assert rows[0, -1] == pytest.approx(-3.0)
        assert rhs[0] == pytest.approx(0.0)

    def test_set_values_are_reported(self):
        # one value per safe set, in the order the sets were passed
        b1 = ball(1.0, "b1")
        b2 = SetFunction(name="b2",
                         fn=lambda x: (float(x[0] - 1.0), np.array([1.0, 0.0])))
        goal = ball(0.5)
        x = np.array([0.2, 0.1])
        A, _, h_goal, h_safe = rows_at(integrator(2), goal, (b1, b2), compiled(unit_box(2), 2), x)
        assert h_goal == goal.value(x)
        assert list(h_safe) == [b1.value(x), b2.value(x)]
        assert list(A[-4:-2, -1]) == list(h_safe)

    def test_acc_row_keeps_delta2_at_every_barrier_value(self):
        # the disturbed acc row is the paper's row far inside the barrier's
        # boundary (-91), near it (-1.3) and past it (+19) alike: delta2's
        # entry is the barrier value
        cfg = AccConfig(d_delta=50.0)
        params = acc_scenario(cfg).params
        barrier = acc_headway(cfg)
        args = (_acc_system(cfg), acc_goal(cfg), (barrier,))
        cqp = CompiledQp(acc_scenario(cfg).bounds, params, 1)
        for D in (150.0, 60.0, 40.0):
            x = np.array([20.0, 10.0, D])
            A, _, _, h_safe = rows_at(*args, cqp, x)
            assert A.shape == (6, 3)
            assert A[3, 2] == h_safe[0] == barrier.value(x)
        assert barrier.value(np.array([20.0, 10.0, 40.0])) > 0.0


class TestEulerRows:
    @pytest.mark.parametrize("scenario_id", ["acc", "two-robot", "synthetic:int1d",
                                             "synthetic:int2d", "synthetic:fullact2d"])
    def test_rows_come_last(self, scenario_id):
        sc = scenario_from_id(scenario_id)
        firsts = [track[0] for track in sc.schedule.tracks]
        safes = sc.schedule.global_safes + tuple(s for ph in firsts for s in ph.safe_extra)
        goal, x, m, dt = firsts[0].goal, sc.x0, sc.bounds.m, sc.params.dt
        problem = assemble(sc.sys, goal, safes, sc.bounds, sc.params, x)
        # -delta1 <= 1/dt and delta2 <= 0.5/dt, unscaled
        assert problem.A.shape == (2 * m + 1 + len(safes) + 2, m + 2)
        assert list(problem.A[-2]) == [0.0] * m + [-1.0, 0.0]
        assert list(problem.A[-1]) == [0.0] * m + [0.0, 1.0]
        assert problem.b[-2] == 1.0 / dt and problem.b[-1] == 0.5 / dt
        # every invariance row keeps its delta2 entry, the safe-set value
        inv = slice(2 * m + 1, 2 * m + 1 + len(safes))
        assert np.all(problem.A[inv, -1] != 0.0)


class TestCompositeSemantics:
    def test_rows_affine_in_decision(self):
        # evaluating a row at 2z doubles the left side exactly
        row, _ = reach_row(integrator(2), ball(), np.array([1.5, -0.3]))
        rng = np.random.default_rng(0)
        z = rng.normal(size=row.size)
        assert row @ (2.0 * z) == pytest.approx(2.0 * (row @ z), rel=1e-15)


class TestInputRows:
    def test_symmetric_two_inputs(self):
        bounds = InputBounds(lower=-7.0 * np.ones(2), upper=7.0 * np.ones(2))
        A, b = box_rows(bounds)
        # over the scaled input alone: the box knows nothing of the slacks
        assert A.shape == (4, 2)
        assert np.array_equal(A, [[7.0, 0.0], [-7.0, 0.0], [0.0, 7.0], [0.0, -7.0]])
        assert np.allclose(b, 7.0)

    def test_qp_rows_put_the_box_in_the_input_columns_only(self):
        # the box rows of the synthesis QP are the input box's rows in the
        # input columns and zero in both slack columns
        bounds = InputBounds(lower=np.array([-1.0, 0.5]), upper=np.array([2.0, 3.0]))
        safe = ball(4.0, name="room")
        A, b, _, _ = rows_at(integrator(2), ball(), (safe,), compiled(bounds, 1),
                             np.array([1.5, -0.3]))
        box_A, box_b = box_rows(bounds)
        assert np.array_equal(A[:4, :2], box_A) and np.array_equal(b[:4], box_b)
        assert np.all(A[:4, 2:] == 0.0)

    def test_acc_quarter_weight_bound(self):
        u_max = 0.25 * 1650.0 * 9.81
        assert u_max == pytest.approx(4046.625)
        _, b = box_rows(InputBounds(lower=np.array([-u_max]), upper=np.array([u_max])))
        assert np.allclose(b, [4046.625, 4046.625])

    def test_asymmetric_bounds(self):
        bounds = InputBounds(lower=np.array([-1.0]), upper=np.array([2.0]))
        assert np.allclose(box_rows(bounds)[1], [2.0, 1.0])
        assert np.allclose(bounds.scale(), [2.0])

    def test_feasible_iff_inside_box(self):
        # the rows are over the scaled input v_s = v / scale
        rng = np.random.default_rng(1)
        bounds = InputBounds(lower=np.array([-1.0, 0.5]), upper=np.array([2.0, 3.0]))
        A, b = box_rows(bounds)
        for _ in range(500):
            v = rng.uniform(-2, 4, size=2)
            inside = np.all((bounds.lower - 1e-9 <= v) & (v <= bounds.upper + 1e-9))
            assert np.all(A @ (v / bounds.scale()) <= b + 1e-12) == inside

    def test_built_once_and_read_only(self):
        bounds = InputBounds(lower=-np.ones(2), upper=np.ones(2))
        cqp = compiled(bounds, 1)
        assert bounds.scale() is bounds.scale() is cqp.scale
        for arr in (bounds.scale(), *box_rows(bounds)):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        # the clip's Python floats are tuples, so read-only by type
        assert cqp.box_floats == ((1.0, 1.0), (-1.0, -1.0), (1.0, 1.0))
        assert all(type(v) is float for part in cqp.box_floats for v in part)

    @pytest.mark.parametrize("lower, upper", [([], []), (np.zeros(0), np.zeros(0))])
    def test_rejects_an_empty_box(self, lower, upper):
        # with no input there is nothing to clip or scale: refused by name
        # here, not left to fail inside the first decision
        with pytest.raises(ValueError, match="input box is empty"):
            InputBounds(lower=lower, upper=upper)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            InputBounds(lower=np.array([1.0]), upper=np.array([1.0]))

    @pytest.mark.parametrize("lower", [-np.ones(3), -np.ones((2, 1))])
    def test_rejects_bounds_of_unequal_shape(self, lower):
        with pytest.raises(ValueError, match="equal-length vectors"):
            InputBounds(lower=lower, upper=np.ones(2))

    @pytest.mark.parametrize("field", ["lower", "upper"])
    @pytest.mark.parametrize("value", [-math.inf, math.inf])
    def test_rejects_infinite_bounds_by_name(self, field, value):
        given = {"lower": -np.ones(2), "upper": np.ones(2)}
        given[field] = np.array([given[field][0], value])
        with pytest.raises(ValueError, match=f"^{field} bounds must be finite"):
            InputBounds(**given)


class TestGradientCheck:
    def test_quadratic_is_second_order_exact(self):
        rng = np.random.default_rng(2)
        xs = rng.normal(size=(100, 2))
        assert finite_diff_gradient_check(ball(), xs) <= 1e-8

    def test_linear_is_exact(self):
        cfg = AccConfig()
        rng = np.random.default_rng(3)
        xs = rng.uniform([10, 5, 50], [30, 15, 200], size=(50, 3))
        # mathematically exact; the tolerance covers float cancellation at
        # state magnitudes of O(100)
        assert finite_diff_gradient_check(acc_headway(cfg), xs) <= 1e-7

    def test_anisotropic_ellipse(self):
        ell = SetFunction(
            name="p1",
            fn=lambda x: (float(x[0] ** 2 / 1.2 ** 2 + (x[1] - 1.5) ** 2 / 0.5 ** 2 - 1.0),
                          np.array([2.0 * x[0] / 1.44, 2.0 * (x[1] - 1.5) / 0.25])),
        )
        rng = np.random.default_rng(4)
        xs = rng.uniform([-1, 1], [1, 2], size=(100, 2))
        assert finite_diff_gradient_check(ell, xs) <= 1e-5

    @pytest.mark.parametrize("name", ["ball1d", "goal_disk", "obstacle_disk", "goal_nl",
                                      "disk4"])
    def test_synthetic_sets(self, name):
        sets = {s.name: s for sc in synthetic_suite()
                for s in (sc.schedule.phases[0].goal, *sc.schedule.global_safes)}
        s = sets[name]
        dim = 1 if name == "ball1d" else 2
        xs = np.random.default_rng(5).uniform(-2.5, 2.5, size=(100, dim))
        assert finite_diff_gradient_check(s, xs) <= 1e-5

    def test_joint_goal_of_two_waypoints(self):
        # the tour's first joint goal: agent 1 heads for S2, agent 2 for S4
        cfg = TwoRobotConfig()
        a, b = waypoint_sets(cfg, 0)[1], waypoint_sets(cfg, 1)[3]
        xs = np.random.default_rng(6).uniform(-2.0, 2.0, size=(400, 4))
        assert finite_diff_gradient_check(_joint_goal([a, b]), xs) <= 1e-5


def counting(s, calls):
    """``s`` with every call of its function counted under its name."""
    def fn(x):
        calls[s.name] = calls.get(s.name, 0) + 1
        return s.fn(x)
    return SetFunction(s.name, fn)


class TestOneCallPerSet:
    def test_qp_rows_calls_each_set_once(self):
        # qp_rows takes the goal's pair; assembling from the goal set calls
        # it once, and qp_rows each safe set once
        sc = two_robot_scenario()
        calls = {}
        goal = counting(sc.schedule.tracks[0][0].goal, calls)
        safes = tuple(counting(s, calls) for s in sc.schedule.global_safes)
        for k, x in enumerate((sc.x0, sc.x0 + 0.1), start=1):
            assemble(sc.sys, goal, safes, sc.bounds, sc.params, x)
            assert calls == {s.name: k for s in (goal, *safes)}

    @pytest.mark.parametrize("build", [
        acc_scenario,
        lambda: acc_scenario(AccConfig(v_f0=27.0, d_delta=100.0)),
        two_robot_scenario], ids=["acc", "acc-27-d100", "tour"])
    def test_run_evaluates_the_model_once_per_step(self, build):
        # the decision's f(x) and g(x) give the rows and the Euler step's
        # rate; the plant adds the disturbance once per step
        sc = build()
        calls = {}

        def counted(name, fn):
            def wrapped(x):
                calls[name] = calls.get(name, 0) + 1
                return fn(x)
            return wrapped

        model = {name: counted(name, getattr(sc.sys, name))
                 for name in ("f", "g", "disturbance") if getattr(sc.sys, name) is not None}
        sc = dataclasses.replace(sc, sys=dataclasses.replace(sc.sys, **model))
        trace = sc.simulate()
        assert trace.outcome.kind is not OutcomeKind.SOLVER_FAILURE and len(trace) > 0
        assert calls == {name: len(trace) for name in model}

    def test_joint_goal_calls_each_goal_once(self):
        # the run builds the joint goal from pairs it has evaluated, and
        # _joint_goal from its own call of each goal; either way once each
        cfg = TwoRobotConfig()
        calls = {}
        goals = [counting(waypoint_sets(cfg, 0)[1], calls),
                 counting(waypoint_sets(cfg, 1)[3], calls)]
        x = np.array([-1.5, 1.5, 1.5, -1.5])
        h, grad = _goal_sum([g.value_and_gradient(x) for g in goals])
        assert calls == {"S2_a1": 1, "S4_a2": 1}
        h_joint, grad_joint = _joint_goal(goals).value_and_gradient(x)
        assert calls == {"S2_a1": 2, "S4_a2": 2}
        assert h == h_joint and np.array_equal(grad, grad_joint)

    @pytest.mark.parametrize("build", [acc_scenario, two_robot_scenario])
    def test_run_evaluates_each_examined_goal_once_per_step(self, build):
        # the reach test's call gives the reach row too: per step one call
        # per unfinished track, plus one per leg met and, once all are met,
        # one per track while the run goes on to its horizon
        sc = build()
        calls, counted = {}, {}

        def count(goal):
            return counted.setdefault(id(goal), counting(goal, calls))

        tracks = tuple(tuple(dataclasses.replace(ph, goal=count(ph.goal)) for ph in track)
                       for track in sc.schedule.tracks)
        sc = dataclasses.replace(sc, schedule=dataclasses.replace(sc.schedule, tracks=tracks))
        trace = sc.simulate()
        assert trace.outcome.ok
        n_tracks = len(tracks)
        legs = sum(r is not None for times in trace.track_reach_times for r in times)
        assert sum(calls.values()) <= len(trace) * n_tracks + legs + n_tracks