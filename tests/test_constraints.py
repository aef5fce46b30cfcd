import dataclasses
import math

import numpy as np
import pytest

from fxtqp.constraints import (
    ControlAffineSystem,
    InputBounds,
    SetFunction,
    qp_rows,
)
from fxtqp.fxts import alpha_from_deadline
from fxtqp.scenarios import (
    AccConfig,
    TwoRobotConfig,
    acc_goal,
    acc_scenario,
    acc_headway,
    _acc_system,
    synthetic_suite,
    two_robot_scenario,
    waypoint_sets,
)
from fxtqp.simulation import _joint_goal, _positive_part_sum
from reference_checks import finite_diff_gradient_check


def integrator(n):
    return ControlAffineSystem(f=lambda x: np.zeros(n),
                               g=lambda x: np.eye(n))


def ball(radius=1.0, name="ball"):
    return SetFunction(name=name,
                       fn=lambda x: (float(x @ x - radius ** 2), 2.0 * np.asarray(x, float)))


def unit_box(m):
    # scale 1, so the input columns of the rows are the Lie derivatives
    return InputBounds(lower=-np.ones(m), upper=np.ones(m))


def reach_row(sys, goal, x, gains=None):
    """The reach-rate row over z = (v, delta1, delta2) and its right side."""
    m = sys.g(x).shape[1]
    A, b, _, _ = qp_rows(sys, goal, (), unit_box(m), gains or alpha_from_deadline(2.0, 2.0), x)
    return A[2 * m], b[2 * m]


def safety_rows(sys, safe, x):
    """The invariance row of one safe set and its right side."""
    m = sys.g(x).shape[1]
    A, b, _, _ = qp_rows(sys, ball(), (safe,), unit_box(m), alpha_from_deadline(2.0, 2.0), x)
    return A[2 * m + 1:], b[2 * m + 1:]


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
        row, rhs = reach_row(_acc_system(cfg), acc_goal(cfg), ACC_STATE, gains)
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
        gains = alpha_from_deadline(2.0, 2.0)
        sys = integrator(2)
        x = np.array([1.0, 0.0])  # exactly on the unit circle
        row, rhs = reach_row(sys, ball(), x, gains)
        assert row[-2] == pytest.approx(0.0)      # delta1 coefficient is -h = 0
        assert rhs == pytest.approx(0.0)          # -Lf with Lf = 0

    def test_unit_level_powers_sum_to_alphas(self):
        gains = alpha_from_deadline(3.0, 5.0)
        sys = integrator(2)
        x = np.array([math.sqrt(2.0), 0.0])  # h = 1
        _, rhs = reach_row(sys, ball(), x, gains)
        assert rhs == pytest.approx(-(gains.alpha1 + gains.alpha2), rel=1e-12)

    def test_acc_hand_arithmetic(self):
        cfg = AccConfig()
        gains = alpha_from_deadline(10.0, 5.0)
        row, rhs = reach_row(_acc_system(cfg), acc_goal(cfg), ACC_STATE, gains)
        lf = (-4.0) * (-200.1 / 1650.0)
        expected = -lf - math.pi / 4.0 * (4.0 ** 1.2 + 4.0 ** 0.8)
        assert rhs == pytest.approx(expected, rel=1e-12)
        assert rhs == pytest.approx(-7.01133, abs=5e-5)
        assert row[-2] == pytest.approx(-4.0)     # -h_g

    def test_rhs_monotone_in_goal_value(self):
        # larger positive goal value demands a faster decrease (Lf = 0 here)
        gains = alpha_from_deadline(2.0, 2.0)
        sys = integrator(1)
        s = SetFunction(name="sq",
                        fn=lambda x: (float(x[0] ** 2), np.array([2.0 * x[0]])))
        rhs_prev = math.inf
        for xv in np.linspace(0.5, 4.0, 12):
            _, rhs = reach_row(sys, s, np.array([xv]), gains)
            assert rhs <= rhs_prev
            rhs_prev = rhs

    def test_one_set_serves_as_goal_and_as_safe_set(self):
        # a set's role is where it is passed: the same object gives the
        # reach-rate row and an invariance row with the same Lie derivative
        sys, s, x = integrator(2), ball(), np.array([0.6, -0.3])
        A, b, h_goal, h_safe = qp_rows(sys, s, (s,), unit_box(2),
                                       alpha_from_deadline(2.0, 2.0), x)
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
        A, _, h_goal, h_safe = qp_rows(integrator(2), goal, (b1, b2), unit_box(2),
                                       alpha_from_deadline(2.0, 2.0), x)
        assert h_goal == goal.value(x)
        assert list(h_safe) == [b1.value(x), b2.value(x)]
        assert list(A[-2:, -1]) == list(h_safe)


class TestFreezePins:
    def test_pins_only_above_the_level(self):
        cfg = AccConfig()
        args = (_acc_system(cfg), acc_goal(cfg), (acc_headway(cfg),), unit_box(1),
                alpha_from_deadline(10.0, 5.0))
        far, near = np.array([20.0, 10.0, 150.0]), np.array([20.0, 10.0, 40.0])
        far_A, far_b, _, _ = qp_rows(*args, far, freeze_level=-20.0)
        near_A, near_b, _, _ = qp_rows(*args, near, freeze_level=-20.0)
        unset_far_A, unset_far_b, _, _ = qp_rows(*args, far)
        unset_A, unset_b, _, _ = qp_rows(*args, near)
        # the same rows frozen or not; below the level nothing changes
        assert far_A.shape == near_A.shape == unset_A.shape == (4, 3)
        assert np.array_equal(far_A, unset_far_A) and np.array_equal(far_b, unset_far_b)
        assert far_A[3, 2] != 0.0
        # above it delta2 leaves the invariance row and nothing else changes
        assert unset_A[3, 2] != 0.0 and not near_A[:, 2].any()
        assert np.array_equal(near_A[:, :2], unset_A[:, :2]) and np.array_equal(near_b, unset_b)


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
        A, b = bounds.box_rows
        assert A.shape == (4, 4)
        assert np.array_equal(A[:, :2], [[7.0, 0.0], [-7.0, 0.0], [0.0, 7.0], [0.0, -7.0]])
        assert np.allclose(b, 7.0)
        assert np.all(A[:, 2:] == 0.0)

    def test_acc_quarter_weight_bound(self):
        u_max = 0.25 * 1650.0 * 9.81
        assert u_max == pytest.approx(4046.625)
        _, b = InputBounds(lower=np.array([-u_max]), upper=np.array([u_max])).box_rows
        assert np.allclose(b, [4046.625, 4046.625])

    def test_asymmetric_bounds(self):
        bounds = InputBounds(lower=np.array([-1.0]), upper=np.array([2.0]))
        assert np.allclose(bounds.box_rows[1], [2.0, 1.0])
        assert np.allclose(bounds.scale(), [2.0])

    def test_feasible_iff_inside_box(self):
        # the rows are over the scaled input v_s = v / scale
        rng = np.random.default_rng(1)
        bounds = InputBounds(lower=np.array([-1.0, 0.5]), upper=np.array([2.0, 3.0]))
        A, b = bounds.box_rows
        for _ in range(500):
            v = rng.uniform(-2, 4, size=2)
            z = np.concatenate([v / bounds.scale(), rng.normal(size=2)])
            inside = np.all((bounds.lower - 1e-9 <= v) & (v <= bounds.upper + 1e-9))
            assert np.all(A @ z <= b + 1e-12) == inside

    def test_built_once_and_read_only(self):
        bounds = InputBounds(lower=-np.ones(2), upper=np.ones(2))
        assert bounds.scale() is bounds.scale()
        for arr in (bounds.scale(), *bounds.box_rows):
            with pytest.raises(ValueError):
                arr[0] = 0.0

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

    def test_joint_goal_of_two_waypoints_away_from_its_kinks(self):
        # the tour's first joint goal: agent 1 heads for S2, agent 2 for S4
        cfg = TwoRobotConfig()
        a, b = waypoint_sets(cfg, 0)[1], waypoint_sets(cfg, 1)[3]
        xs = np.random.default_rng(6).uniform(-2.0, 2.0, size=(400, 4))
        values = np.array([[a.value(x), b.value(x)] for x in xs])
        away = np.all(np.abs(values) > 1e-3, axis=1)
        xs, values = xs[away], values[away]
        # every sign pattern, so each branch of the positive parts is checked
        assert len(xs) >= 100 and len({tuple(v) for v in values > 0}) == 4
        assert finite_diff_gradient_check(_joint_goal([a, b]), xs) <= 1e-5


def counting(s, calls):
    """``s`` with every call of its function counted under its name."""
    def fn(x):
        calls[s.name] = calls.get(s.name, 0) + 1
        return s.fn(x)
    return SetFunction(s.name, fn)


class TestOneCallPerSet:
    def test_qp_rows_calls_each_set_once(self):
        sc = two_robot_scenario()
        calls = {}
        goal = counting(sc.schedule.tracks[0][0].goal, calls)
        safes = tuple(counting(s, calls) for s in sc.schedule.global_safes)
        for k, x in enumerate((sc.x0, sc.x0 + 0.1), start=1):
            qp_rows(sc.sys, goal, safes, sc.bounds, sc.params.gains, x)
            assert calls == {s.name: k for s in (goal, *safes)}

    def test_joint_goal_calls_each_goal_once(self):
        # the run builds the joint goal from pairs it has evaluated, and
        # _joint_goal from its own call of each goal; either way once each
        cfg = TwoRobotConfig()
        calls = {}
        goals = [counting(waypoint_sets(cfg, 0)[1], calls),
                 counting(waypoint_sets(cfg, 1)[3], calls)]
        x = np.array([-1.5, 1.5, 1.5, -1.5])
        h, grad = _positive_part_sum([g.value_and_gradient(x) for g in goals], x.size)
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