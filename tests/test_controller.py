import math

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from fxtqp import qp
from fxtqp.constraints import ControlAffineSystem, InputBounds, SetFunction
from fxtqp.controller import (
    SolverFailure,
    SynthesisParams,
    _clip_to_box,
    assemble,
    synthesize,
)
from fxtqp.fxts import RegimeKind, settling_time_bound
from fxtqp.scenarios import (ACC_FREEZE_LEVEL, AccConfig, acc_goal, acc_headway, acc_scenario,
                             _acc_system, synthetic_suite, two_robot_scenario)
from fxtqp.simulation import OutcomeKind, Phase, Schedule, _joint_goal, run
from reference_checks import (continuity_probe, numpy_clip, rows_at, scaled_z,
                              strictly_complementary)


def integrator(n):
    return ControlAffineSystem(f=lambda x: np.zeros(n),
                               g=lambda x: np.eye(n))


def goal_ball(radius, center=None, name="goal"):
    c = np.zeros(2) if center is None else np.asarray(center, float)
    return SetFunction(name=name,
                       fn=lambda x: (float((x - c) @ (x - c) - radius ** 2),
                                     2.0 * (np.asarray(x, float) - c)))


def safe_ball(radius, name="safe"):
    return SetFunction(name=name,
                       fn=lambda x: (float(x @ x - radius ** 2), 2.0 * np.asarray(x, float)))


def acc_pieces(cfg=None):
    cfg = cfg or AccConfig()
    sc_params = SynthesisParams(T_ud=cfg.T_ud, mu=cfg.mu,
                                w_u=np.ones(1), w1=cfg.w1,
                                w2=cfg.w2, q1=cfg.q1, dt=cfg.dt)
    bounds = InputBounds(lower=np.array([-cfg.u_max]), upper=np.array([cfg.u_max]))
    return _acc_system(cfg), acc_goal(cfg), (acc_headway(cfg),), bounds, sc_params


def equality_qp(problem, W):
    """Minimizer and multipliers of the QP with the rows W held as equalities."""
    chol = cho_factor(problem.H, lower=True)
    A_w = problem.A[W]
    S = A_w @ cho_solve(chol, A_w.T)
    lam = np.linalg.solve(S, -(A_w @ cho_solve(chol, problem.F)) - problem.b[W])
    return cho_solve(chol, -(problem.F + A_w.T @ lam)), lam


def reference_rows(sys, goal, safes, bounds, params, x):
    """The synthesis QP's rows built one at a time, each with its own Lie
    derivatives and set value, stacked, frozen and input-scaled, then the
    Euler step's delta1 and delta2 rows."""
    m = bounds.m
    mag = np.maximum(np.abs(bounds.lower), np.abs(bounds.upper))
    scale = np.where(mag > 0, mag, 1.0)
    rows, rhs = [], []
    for i in range(m):
        e = np.zeros(m + 2)
        e[i] = 1.0
        rows += [e, np.where(e > 0, -1.0, 0.0)]
        rhs += [bounds.upper[i], -bounds.lower[i]]
    hv, grad = goal.value_and_gradient(x)
    g = params.gains
    power = (g.alpha1 * math.pow(hv, g.gamma1) + g.alpha2 * math.pow(hv, g.gamma2)
             if hv > 0.0 else 0.0)
    rows.append(np.concatenate([grad @ sys.g(x), [-hv, 0.0]]))
    rhs.append(-float(grad @ sys.f(x)) - power)
    for s in safes:
        grad = s.value_and_gradient(x)[1]
        rows.append(np.concatenate([grad @ sys.g(x), [0.0, s.value(x)]]))
        rhs.append(-float(grad @ sys.f(x)))
    A = np.vstack(rows)
    level = params.delta2_freeze_level
    if level is not None and safes and max(s.value(x) for s in safes) > level:
        A[:, m + 1] = 0.0
    A[:, :m] = A[:, :m] * scale
    A = np.vstack([A, np.concatenate([np.zeros(m), [-1.0, 0.0]]),
                   np.concatenate([np.zeros(m), [0.0, 1.0]])])
    rhs += [1.0 / params.dt, 0.5 / params.dt]
    return A, np.asarray(rhs, dtype=float)


def assembly_samples():
    """(label, sys, goal, safes, bounds, params, x) at states where assembly
    has something to get wrong: frozen acc states (delta2 column zeroed), square
    corners and diagonals of the tour (tied wall sets), joint goals, and the
    synthetic cases."""
    rng = np.random.default_rng(21)
    out = []
    cfg = AccConfig(d_delta=100.0)
    sys, goal, safes, bounds, _ = acc_pieces(cfg)
    frozen = acc_scenario(cfg).params
    nominal = acc_scenario().params
    for _ in range(40):
        out.append(("acc", sys, goal, safes, bounds, nominal,
                    rng.uniform([12, 8, 30], [28, 12, 200])))
    for _ in range(40):
        # D near 1.8 v_f puts the barrier above the freeze level -20
        v = rng.uniform(15, 28)
        out.append(("acc-frozen", sys, goal, safes, bounds, frozen,
                    np.array([v, rng.uniform(8, 12), 1.8 * v + rng.uniform(-5, 25)])))
    sc = two_robot_scenario()
    t1, t2 = sc.schedule.tracks
    for _ in range(80):
        k1, k2 = rng.integers(8), rng.integers(8)
        goal = _joint_goal([t1[k1].goal, t2[k2].goal])
        safes = sc.schedule.global_safes + t1[k1].safe_extra + t2[k2].safe_extra
        x = rng.uniform(-2.0, 2.0, size=4)
        if len(out) % 2:
            # agent 1 on a square corner or a diagonal, where two walls tie
            x[:2] = rng.choice([-2.0, 2.0], size=2) * (1.0 if len(out) % 4 == 1
                                                       else rng.uniform(0, 1))
        out.append(("tour", sc.sys, goal, safes, sc.bounds, sc.params, x))
    for c in synthetic_suite():
        phase = c.schedule.phases[0]
        for _ in range(15):
            out.append((c.scenario_id, c.sys, phase.goal, c.schedule.global_safes + phase.safe_extra,
                        c.bounds, c.params, rng.uniform(-2.0, 2.0, size=c.x0.size)))
    return out


class TestParams:
    def test_deadline_builds_consistent_gains(self):
        p = SynthesisParams(T_ud=10.0, mu=5.0, w_u=np.ones(2), dt=1e-3)
        assert p.gains.alpha1 == pytest.approx(np.pi / 4)
        assert p.w_u.shape == (2,)

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            SynthesisParams(T_ud=1.0, mu=2.0, w_u=np.ones(1), w2=0.0, dt=1e-3)

    @pytest.mark.parametrize("T_ud, mu", [(0.0, 2.0), (-1.0, 2.0), (1.0, 1.0), (1.0, math.nan)])
    def test_rejects_deadline_and_exponent_out_of_range(self, T_ud, mu):
        with pytest.raises(ValueError, match="T_ud > 0 and mu > 1"):
            SynthesisParams(T_ud=T_ud, mu=mu, w_u=np.ones(1), dt=1e-3)

    @pytest.mark.parametrize("field", ["w_u", "w1", "w2", "q1"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_weights_by_name(self, field, value):
        # NaN passes the positivity test and infinity passes it too
        weights = {"w_u": np.ones(2), field: np.array([1.0, value]) if field == "w_u" else value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SynthesisParams(T_ud=1.0, mu=2.0, **weights, dt=1e-3)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-2, 1e-320])
    def test_rejects_an_euler_step_that_is_not_a_step(self, value):
        # 1/1e-320 is infinite: the Euler rows could never be finite
        with pytest.raises(ValueError, match="^dt must be a finite number > 0"):
            SynthesisParams(T_ud=1.0, mu=2.0, w_u=np.ones(1), dt=value)


class TestAssemble:
    def test_objective_built_once(self):
        sys, goal, safes, bounds, params = acc_pieces()
        p1 = assemble(sys, goal, safes, bounds, params, np.array([20.0, 10.0, 150.0]))
        p2 = assemble(sys, goal, safes, bounds, params, np.array([24.0, 10.0, 80.0]))
        objective = params.objective
        assert p1.H is objective.H and np.shares_memory(p2.F, objective.F)
        assert (np.array_equal(p1.L_inv, objective.L_inv)
                and np.array_equal(p2.L_inv, objective.L_inv))
        with pytest.raises(ValueError):
            objective.H[0, 0] = 2.0

    def test_acc_dimensions(self):
        sys, goal, safes, bounds, params = acc_pieces()
        p = assemble(sys, goal, safes, bounds, params, np.array([20.0, 10.0, 150.0]))
        assert p.F.size == 3
        assert p.m_c == 6     # 2 input rows + convergence + safety + 2 Euler rows

    def test_freeze_drops_delta2_near_boundary(self):
        cfg = AccConfig(d_delta=50.0)
        sys, goal, safes, bounds, _ = acc_pieces(cfg)
        params = SynthesisParams(
            T_ud=cfg.T_ud, mu=cfg.mu, w_u=np.ones(1), w1=cfg.w1, w2=cfg.w2,
            q1=cfg.q1_disturbed, delta2_freeze_level=ACC_FREEZE_LEVEL, dt=cfg.dt)
        far = assemble(sys, goal, safes, bounds, params, np.array([20.0, 10.0, 150.0]))
        assert far.m_c == 6   # h_s = -91 is below the freeze level
        assert far.A[3, 2] == pytest.approx(-91.0, abs=1.0)
        near = assemble(sys, goal, safes, bounds, params, np.array([20.0, 10.0, 40.0]))
        assert near.m_c == 6  # h_s = +19 pins delta2 = 0: only the Euler cap carries it
        assert not near.A[:-1, 2].any()
        dec = synthesize(sys, goal, safes, bounds, params, np.array([20.0, 10.0, 40.0]))
        assert dec.delta2 == 0.0 and dec.strict_cs

    def test_two_robot_dimensions(self):
        from fxtqp.scenarios import two_robot_scenario
        sc = two_robot_scenario()
        track0 = sc.schedule.tracks[0][0]
        track1 = sc.schedule.tracks[1][0]
        safes = sc.schedule.global_safes + track0.safe_extra + track1.safe_extra
        p = assemble(sc.sys, track0.goal, safes, sc.bounds, sc.params, sc.x0)
        assert p.F.size == 6
        assert p.m_c == 8 + 1 + 13 + 2   # inputs, convergence, safe sets, Euler rows

    def test_matches_row_by_row_reference(self):
        samples = assembly_samples()
        assert len(samples) >= 200
        pinned = ties = 0
        for label, sys, goal, safes, bounds, params, x in samples:
            p = assemble(sys, goal, safes, bounds, params, x)
            A, b = reference_rows(sys, goal, safes, bounds, params, x)
            assert p.A.shape == A.shape, label
            assert np.array_equal(p.A, A) and np.array_equal(p.b, b), (label, x)
            _, _, h_goal, h_safe = rows_at(sys, goal, safes, bounds, params.gains, x,
                                           params.dt, params.delta2_freeze_level)
            assert h_goal == goal.value(x)
            assert list(h_safe) == [s.value(x) for s in safes]
            # frozen: delta2 is left only in the last row, delta2 <= 0.5/dt
            pinned += label == "acc-frozen" and not p.A[:-1, -1].any()
            walls = sorted(s.value(x) for s in safes if s.name.startswith("square_a1"))
            ties += len(walls) > 1 and walls[-1] == walls[-2]
        assert pinned >= 10 and ties >= 10

    def test_objective_layout(self):
        sys, goal, safes, bounds, params = acc_pieces()
        p = assemble(sys, goal, safes, bounds, params, np.array([20.0, 10.0, 150.0]))
        assert np.allclose(np.diag(p.H), [params.w_u[0], params.w1, params.w2])
        assert np.allclose(p.F, [0.0, params.q1, 0.0])


def quadratic_set(name, P, c, r):
    """{(x - c)' P (x - c) <= r}."""
    P, c = np.asarray(P, float), np.asarray(c, float)

    def fn(x):
        d = x - c
        return float(d @ P @ d - r), 2.0 * (P @ d)

    return SetFunction(name, fn)


def coupled_pieces():
    """A system on which the stacked invariance rows are not the row-by-row
    products bit for bit: g(x) is not the identity, f(x) is nonzero, and
    four safe sets (a workspace, two obstacles, a half-space) share G."""
    sys = ControlAffineSystem(
        f=lambda x: np.array([np.sin(x[1]) - 0.3 * x[0], 0.4 * x[0] * x[2],
                              0.2 * x[0] ** 2 - 0.7 * x[2]]),
        g=lambda x: np.array([[1.0 + 0.1 * x[2] ** 2, 0.3 * np.cos(x[0])],
                              [0.2 * x[1], 1.0],
                              [0.5, 0.8 + 0.1 * np.sin(x[1])]]))
    floor = np.array([0.0, 0.3, -1.0])
    safes = (quadratic_set("workspace", np.diag([0.25, 0.25, 1.0]), np.zeros(3), 1.0),
             quadratic_set("obstacle", -np.eye(3), [0.6, -0.2, 0.2], -0.09),
             SetFunction("floor", lambda x: (float(floor @ x - 0.6), floor)),
             quadratic_set("obstacle2", -np.diag([1.0, 2.0, 1.0]), [0.2, -0.6, 0.3], -0.05))
    goal = quadratic_set("goal", np.eye(3), [1.2, -0.8, 0.5], 0.04)
    bounds = InputBounds(lower=np.array([-3.0, -2.0]), upper=np.array([3.0, 2.5]))
    params = SynthesisParams(T_ud=3.0, mu=3.0, w_u=np.array([1.0, 2.0]), dt=1e-3)
    return sys, goal, safes, bounds, params


class TestStackedRows:
    def test_coupled_system_along_a_closed_loop_run(self):
        sys, goal, safes, bounds, params = coupled_pieces()
        schedule = Schedule(tracks=((Phase(goal=goal, deadline=3.0),),), global_safes=safes)
        trace = run(sys, schedule, bounds, params, np.array([-0.6, 0.5, -0.2]))
        assert trace.outcome.kind is OutcomeKind.ALL_PHASES_MET and len(trace) > 500
        warm = None
        for x in trace.x:
            p = assemble(sys, goal, safes, bounds, params, x)
            A, b = reference_rows(sys, goal, safes, bounds, params, x)
            got, ref = np.column_stack([p.A, p.b]), np.column_stack([A, b])
            gap = np.max(np.abs(got - ref), axis=1)
            assert np.all(gap <= 1e-14 * np.max(np.abs(ref), axis=1)), x
            cold = synthesize(sys, goal, safes, bounds, params, x)
            hot = synthesize(sys, goal, safes, bounds, params, x, warm_start=warm)
            hot_obj = p.objective(scaled_z(hot, bounds))
            cold_obj = p.objective(scaled_z(cold, bounds))
            assert abs(hot_obj - cold_obj) <= 1e-10 * max(1.0, abs(cold_obj))
            assert hot.strict_cs == cold.strict_cs
            warm = hot.active_set


class TestSynthesize:
    def test_matches_brute_force_far_from_goal(self):
        sys = integrator(2)
        goal = goal_ball(0.1)
        bound_mag = 20.0   # generous enough for the demanded fixed-time rate
        bounds = InputBounds(lower=-bound_mag * np.ones(2), upper=bound_mag * np.ones(2))
        params = SynthesisParams(T_ud=2.0, mu=2.0, w_u=np.ones(2), dt=1e-3)
        x = np.array([3.0, 1.0])
        dec = synthesize(sys, goal, (), bounds, params, x)
        problem = assemble(sys, goal, (), bounds, params, x)
        oracle = qp.brute_force_solve(problem)
        assert np.allclose(scaled_z(dec, bounds), oracle.z_star, atol=1e-7)
        assert dec.delta1 <= 0.0
        # input saturated or at an interior stationary point
        at_bound = np.any(np.isclose(np.abs(dec.u), bound_mag, atol=1e-6))
        assert at_bound or np.linalg.norm(dec.u) < bound_mag

    def test_tangency_on_safe_boundary(self):
        sys = integrator(2)
        goal = goal_ball(0.1, center=(3.0, 0.0))
        safe = safe_ball(2.0)
        bounds = InputBounds(lower=-5 * np.ones(2), upper=5 * np.ones(2))
        params = SynthesisParams(T_ud=2.0, mu=2.0, w_u=np.ones(2), dt=1e-3)
        x = np.array([2.0, 0.0])    # exactly on the boundary
        dec = synthesize(sys, goal, (safe,), bounds, params, x)
        hdot = 2.0 * x @ dec.u
        assert hdot <= 1e-8

    def test_idle_inside_goal_and_safe(self):
        sys = integrator(2)
        goal = goal_ball(1.0)
        safe = safe_ball(5.0)
        bounds = InputBounds(lower=-np.ones(2), upper=np.ones(2))
        params = SynthesisParams(T_ud=2.0, mu=2.0, w_u=np.ones(2), dt=1e-3)
        dec = synthesize(sys, goal, (safe,), bounds, params, np.array([0.1, 0.0]))
        assert np.linalg.norm(dec.u) <= 1e-6

    def test_input_bounds_respected_exactly(self):
        sys, goal, safes, bounds, params = acc_pieces()
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = rng.uniform([12, 8, 40], [28, 12, 200])
            dec = synthesize(sys, goal, safes, bounds, params, x)
            assert np.all((bounds.lower <= dec.u) & (dec.u <= bounds.upper))

    def test_warm_start_changes_nothing(self):
        # working-set guesses: the cold active set, out-of-range indices, and
        # sets whose equality QP has a negative multiplier
        sys, goal, safes, bounds, params = acc_pieces()
        x = np.array([24.0, 10.0, 80.0])
        problem = assemble(sys, goal, safes, bounds, params, x)
        cold = synthesize(sys, goal, safes, bounds, params, x)
        assert min(equality_qp(problem, [0, 2])[1]) < 0
        assert min(equality_qp(problem, [2, 3])[1]) < 0
        for guess in (cold.active_set, (problem.m_c,), (-1, 2), (0, 2), (2, 3)):
            warm = synthesize(sys, goal, safes, bounds, params, x, warm_start=guess)
            assert problem.objective(scaled_z(warm, bounds)) == pytest.approx(
                problem.objective(scaled_z(cold, bounds)), abs=1e-10)
            assert np.allclose(warm.u, cold.u, atol=1e-8)

    def test_active_set_reproduces_solution(self):
        # re-solving the equality-constrained problem on the reported active
        # set must land on the same point
        sys, goal, safes, bounds, params = acc_pieces()
        x = np.array([24.0, 10.0, 60.0])
        dec = synthesize(sys, goal, safes, bounds, params, x)
        problem = assemble(sys, goal, safes, bounds, params, x)
        assert dec.active_set
        z, _ = equality_qp(problem, list(dec.active_set))
        assert np.allclose(z, scaled_z(dec, bounds), atol=1e-7)

    def test_regime_classification_follows_delta1(self):
        # the certificate of each goal segment classifies the segment's
        # worst slack and bounds the settling time only from inside its domain
        sc = acc_scenario(AccConfig(v_f0=17.0, horizon=3.0))
        gains = sc.params.gains
        segments = sc.simulate().segments
        assert segments
        for seg in segments:
            regime = RegimeKind(seg["regime"])
            if seg["delta1_sup"] <= 0:
                assert regime is RegimeKind.GLOBAL_WITHIN_DEADLINE
            elif seg["delta1_sup"] < gains.critical_delta1:
                assert regime is RegimeKind.GLOBAL_FIXED_TIME
            else:
                assert regime is RegimeKind.LOCAL_FIXED_TIME
            assert seg["within_deadline"] == (regime is RegimeKind.GLOBAL_WITHIN_DEADLINE)
            v_max = settling_time_bound(gains, max(0.0, seg["delta1_sup"])).v_max
            assert seg["domain_ok"] == (seg["v_entry"] <= v_max)
            assert (seg["bound_T"] is None) == (not seg["domain_ok"])
            assert seg["bound_T"] is None or seg["bound_T"] > 0

    @staticmethod
    def pushed_solver(monkeypatch, excess):
        """Make the solver body that synthesize calls return its answer with
        the input moved past the upper bound by ``excess`` (scaled)."""
        solve = qp._solve

        def pushed(*args):
            status, z, *rest = solve(*args)
            z[0] = 1.0 + excess
            return (status, z, *rest)

        monkeypatch.setattr(qp, "_solve", pushed)

    def test_box_overshoot_beyond_tolerance_fails(self, monkeypatch):
        sys, goal, safes, bounds, params = acc_pieces()
        self.pushed_solver(monkeypatch, 1e-6)
        with pytest.raises(SolverFailure, match="leaves its box"):
            synthesize(sys, goal, safes, bounds, params, np.array([20.0, 10.0, 150.0]))

    def test_box_overshoot_within_tolerance_is_clipped(self, monkeypatch):
        sys, goal, safes, bounds, params = acc_pieces()
        self.pushed_solver(monkeypatch, 1e-12)
        dec = synthesize(sys, goal, safes, bounds, params, np.array([20.0, 10.0, 150.0]))
        assert dec.u[0] == bounds.upper[0]
        assert dec.box_overshoot == pytest.approx(1e-12, rel=1e-3)

    def test_clip_is_numpy_clip_bit_for_bit(self):
        # the decision clips on Python floats; each input and the overshoot
        # must equal numpy's clip and maximum, zeros with their sign, on
        # seeded inputs and on the edges: inputs on a bound, just beyond it,
        # signed zeros, and bounds of 0.0 and -0.0.  z carries delta1 and
        # delta2 after the inputs, as the solver's z does
        def same(p, q):
            return p == q and math.copysign(1.0, p) == math.copysign(1.0, q)

        rng = np.random.default_rng(28)
        for lower, upper in (([-1.0], [2.0]), ([0.0, -3.0], [5.0, 0.0]),
                             ([-0.0, -4.0], [1.0, -0.5]), ([-7.0, 2.0, -1e3], [7.0, 9.0, 1e-3])):
            bounds = InputBounds(lower=np.array(lower), upper=np.array(upper))
            scale, lo, hi = (np.array(v) for v in bounds.box_floats)
            edges = [lo / scale, hi / scale, np.nextafter(lo / scale, -np.inf),
                     np.nextafter(hi / scale, np.inf), lo / scale - 1e-13, hi / scale + 1e-13,
                     np.zeros(bounds.m), -np.zeros(bounds.m)]
            seeded = list(rng.uniform(-1.2, 1.2, size=(200, bounds.m)))
            for v in edges + seeded:
                z = np.concatenate((v, rng.normal(size=2)))
                u, overshoot = _clip_to_box(z.tolist(), bounds)
                u_ref, overshoot_ref = numpy_clip(z, bounds)
                assert len(u) == bounds.m
                assert all(map(same, u, u_ref.tolist())), (lower, v)
                assert same(overshoot, overshoot_ref), (lower, v)

    def test_iteration_limit_is_a_solver_failure(self, monkeypatch):
        # the solver's guard against cycling is reported, never read as a decision
        solve = qp._solve

        def limited(*args):
            return (qp.SolveStatus.ITERATION_LIMIT, *solve(*args)[1:])

        monkeypatch.setattr(qp, "_solve", limited)
        sys, goal, safes, bounds, params = acc_pieces()
        with pytest.raises(SolverFailure, match="iteration_limit"):
            synthesize(sys, goal, safes, bounds, params, np.array([20.0, 10.0, 150.0]))
        trace = acc_scenario(AccConfig(horizon=1.0)).simulate()
        assert trace.outcome.kind is OutcomeKind.SOLVER_FAILURE
        assert "iteration_limit" in trace.outcome.message and len(trace) == 0

    def test_nonfinite_solution_is_a_solver_failure(self, monkeypatch):
        # a NaN answer at the 5th decision ends the run there, blamed on the
        # QP, and is never recorded
        solve = qp._solve
        calls = []

        def nan_at_fifth(*args):
            status, z, *rest = solve(*args)
            calls.append(None)
            return (status, np.full_like(z, np.nan) if len(calls) == 5 else z, *rest)

        monkeypatch.setattr(qp, "_solve", nan_at_fifth)
        trace = acc_scenario().simulate()
        assert trace.outcome.kind is OutcomeKind.SOLVER_FAILURE
        assert trace.outcome.message.startswith("synthesis QP solution")
        assert "not finite" in trace.outcome.message
        assert len(trace) == 4 and len(calls) == 5
        for field in (trace.x, trace.u, trace.delta1, trace.delta2, trace.h_safe):
            assert np.isfinite(field).all()

    def test_decision_reports_solver_counters(self):
        sys, goal, safes, bounds, params = acc_pieces()
        x = np.array([24.0, 10.0, 80.0])
        cold = synthesize(sys, goal, safes, bounds, params, x)
        hot = synthesize(sys, goal, safes, bounds, params, x, warm_start=cold.active_set)
        assert cold.iterations >= 1 and hot.iterations == 0
        assert cold.box_overshoot == 0.0 or cold.box_overshoot <= qp.FEAS_TOL
        assert list(cold.h_safe) == [s.value(x) for s in safes]

    def test_solver_failure_raised_on_infeasible_freeze(self):
        # delta2 pinned to zero while the plain headway constraint (no
        # braking-distance term) cannot be stopped within the input budget:
        # the QP is genuinely infeasible
        cfg = AccConfig(d_delta=50.0)
        sys, goal, _, bounds, _ = acc_pieces(cfg)
        safes = (SetFunction(name="headway",
                             fn=lambda x: (cfg.tau_d * x[0] - x[2],
                                           np.array([cfg.tau_d, 0.0, -1.0]))),)
        params = SynthesisParams(
            T_ud=cfg.T_ud, mu=cfg.mu, w_u=[1.0], w1=1.0, w2=1.0, q1=1.0,
            delta2_freeze_level=ACC_FREEZE_LEVEL, dt=cfg.dt)
        x = np.array([22.0, 10.0, 39.7])   # h_s just below zero, closing fast
        with pytest.raises(SolverFailure):
            synthesize(sys, goal, safes, bounds, params, x)


    def test_rows_that_are_not_finite_are_a_solver_failure(self):
        sys, goal, _, bounds, params = acc_pieces()
        x = np.array([20.0, 10.0, 150.0])
        nan_safe = (SetFunction("nan", lambda x: (math.nan, np.zeros(3))),)
        with pytest.raises(SolverFailure, match="not finite"):
            synthesize(sys, goal, nan_safe, bounds, params, x)
        with pytest.raises(SolverFailure, match="not finite"):
            assemble(sys, goal, nan_safe, bounds, params, x)
        # a finite goal value whose powers overflow a float (math.pow raises)
        # makes an infinite row
        ball = SetFunction("ball", lambda x: (x[0] ** 2 - 0.01, 2.0 * x))
        with pytest.raises(SolverFailure, match="not finite"):
            synthesize(integrator(1), ball, (), InputBounds(lower=[-1.0], upper=[1.0]),
                       SynthesisParams(T_ud=1.0, mu=2.0, w_u=np.ones(1), dt=1e-3),
                       np.array([1e150]))
        # finite data that does not fit (two input weights, one input) is
        # a ValueError still
        two_inputs = SynthesisParams(T_ud=params.T_ud, mu=params.mu, w_u=np.ones(2),
                                     dt=params.dt)
        with pytest.raises(ValueError, match="inconsistent"):
            synthesize(sys, goal, (), bounds, two_inputs, x)


class TestContinuityProbe:
    def test_interior_quotients_finite(self):
        sys, goal, safes, bounds, params = acc_pieces()
        res = continuity_probe(sys, goal, safes, bounds, params,
                               np.array([20.0, 10.0, 150.0]), radius=1e-4,
                               n_samples=20)
        assert np.all(np.isfinite(res.quotients))
        assert res.nonstrict_count == 0

    def test_bound_transition_stays_bounded(self):
        # near the input-bound activation the solution map is piecewise
        # smooth; quotients stay finite
        sys = integrator(1)
        goal = SetFunction(name="g",
                           fn=lambda x: (float(x[0] ** 2 - 0.01), np.array([2.0 * x[0]])))
        bounds = InputBounds(lower=np.array([-2.0]), upper=np.array([2.0]))
        params = SynthesisParams(T_ud=2.0, mu=2.0, w_u=np.ones(1), dt=1e-3)
        res = continuity_probe(sys, goal, (), bounds, params,
                               np.array([0.8]), radius=1e-5, n_samples=10)
        assert res.max_quotient < 1e5


def _trajectory_scenarios():
    runs = [(f"acc-{v:g}", lambda v=v: acc_scenario(AccConfig(v_f0=v)))
            for v in (17.0, 22.0, 27.0)]
    # from 24 m/s the disturbed run stays below the freeze level; from 27 m/s
    # the freeze pins delta2 at about a third of the states
    runs += [(f"acc-{v:g}-d100", lambda v=v: acc_scenario(AccConfig(v_f0=v, d_delta=100.0)))
             for v in (24.0, 27.0)]
    runs += [(sc.scenario_id, lambda sc=sc: sc) for sc in synthetic_suite()]
    return runs


@pytest.mark.parametrize("build", [b for _, b in _trajectory_scenarios()],
                         ids=[name for name, _ in _trajectory_scenarios()])
def test_solver_matches_oracle_along_trajectory(build):
    # every recorded state of a closed-loop run, re-solved cold and hot-started
    # from the previous state's active set, against the brute-force oracle;
    # objective gaps are relative once the objective exceeds 1 (it reaches 1e5)
    sc = build()
    trace = sc.simulate()
    phase = sc.schedule.phases[0]
    safes = sc.schedule.global_safes + phase.safe_extra
    guess = None
    for k in range(len(trace)):
        problem = assemble(sc.sys, phase.goal, safes, sc.bounds, sc.params, trace.x[k])
        cold = qp.solve_qp(problem)
        hot = qp.solve_qp(problem, warm_start=guess)
        oracle = qp.brute_force_solve(problem)
        assert cold.status is qp.SolveStatus.OPTIMAL, k
        scale = max(1.0, abs(oracle.objective))
        assert abs(cold.objective - oracle.objective) <= 1e-8 * scale, k
        assert abs(hot.objective - cold.objective) <= 1e-10 * scale, k
        strict = strictly_complementary(problem, oracle)
        assert strictly_complementary(problem, cold) == strict, k
        if strict:
            assert np.max(np.abs(cold.z_star - oracle.z_star)) <= 1e-7, k
        guess = cold.active_set


class _Enough(Exception):
    pass


@pytest.mark.parametrize("build, steps", [
    (lambda: acc_scenario(AccConfig(v_f0=27.0, horizon=5.0)), None),
    (lambda: acc_scenario(AccConfig(v_f0=27.0, d_delta=100.0, horizon=5.0)), None),
    (two_robot_scenario, 800)], ids=["acc", "acc-d100", "tour-prefix"])
def test_step_decision_is_solve_qp_bit_for_bit(monkeypatch, build, steps):
    # the step solves from the params' factor and judges once; the public
    # entry on the assembled problem, from the same working-set guess, must
    # give the same z (as the decision's clipped u and its slacks), active
    # set, iterations and strict-CS verdict
    import fxtqp.simulation as simulation
    decided = []

    def recorded(*args, warm_start=None):
        if len(decided) == steps:
            raise _Enough
        decision = synthesize(*args, warm_start=warm_start)
        decided.append((args[:5], args[5].copy(), warm_start, decision))
        return decision

    monkeypatch.setattr(simulation, "synthesize", recorded)
    sc = build()
    if steps is None:
        assert sc.simulate().outcome.ok
    else:
        with pytest.raises(_Enough):
            sc.simulate()
    assert decided and decided[0][2] is None
    for k, (pieces, x, guess, decision) in enumerate(decided):
        problem = assemble(*pieces, x)
        solution = qp.solve_qp(problem, warm_start=guess)
        bounds, z = pieces[3], solution.z_star
        u = (z[:bounds.m] * bounds.scale()).clip(bounds.lower, bounds.upper)
        assert np.array_equal(u, decision.u), k
        assert np.array_equal(z[bounds.m:], [decision.delta1, decision.delta2]), k
        assert solution.active_set == decision.active_set, k
        assert solution.iterations == decision.iterations, k
        assert strictly_complementary(problem, solution) == decision.strict_cs, k
        sys = pieces[0]
        assert np.array_equal(decision.rate, sys.f(x) + sys.g(x) @ decision.u), k


def test_oracle_solves_the_goal_boundary_state_with_a_tiny_coefficient():
    # at this state of a disturbed run the reach row's delta1 coefficient is
    # -3.46e-12; the optimum has delta1 about 1.78e6, so the multipliers reach
    # 4.7e10 after equilibration
    sc = acc_scenario(AccConfig(v_f0=22.0, d_delta=100.0, w2_disturbed=10.0))
    phase = sc.schedule.phases[0]
    problem = assemble(sc.sys, phase.goal, sc.schedule.global_safes + phase.safe_extra,
                       sc.bounds, sc.params, np.array([21.99999814, 10.0, 92.16907532]))
    assert problem.A[2, 1] == pytest.approx(-3.46e-12, rel=1e-3)
    solved = qp.solve_qp(problem)
    oracle = qp.brute_force_solve(problem)
    assert solved.status is oracle.status is qp.SolveStatus.OPTIMAL
    assert np.max(np.abs(oracle.z_star - solved.z_star)) <= 1e-7
    assert abs(oracle.objective - solved.objective) <= 1e-8 * abs(solved.objective)
