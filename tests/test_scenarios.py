import dataclasses
import math

import numpy as np
import pytest

from fxtqp import qp, scenarios
from fxtqp.controller import assemble
from fxtqp.fxts import settling_time_bound, worst_case
from fxtqp.simulation import OutcomeKind, _joint_goal, monitor, trace_to_csv
from fxtqp.scenarios import (
    AccConfig,
    TwoRobotConfig,
    acc_headway,
    acc_scenario,
    scenario_from_id,
    synthetic_suite,
    two_robot_scenario,
    waypoint_sets,
)
from reference_checks import numpy_tour_sets, strictly_complementary


class TestAccConfig:
    def test_reference_constants(self):
        cfg = AccConfig()
        assert cfg.u_max == pytest.approx(0.25 * 1650.0 * 9.81)
        assert cfg.u_max == pytest.approx(4046.625)
        assert (cfg.M, cfg.v_d, cfg.v_l0, cfg.D0) == (1650.0, 22.0, 10.0, 150.0)
        assert (cfg.f0, cfg.f1, cfg.f2) == (0.1, 5.0, 0.25)

    def test_gains_from_deadline(self):
        sc = acc_scenario()
        g = sc.params.gains
        assert g.alpha1 == pytest.approx(np.pi / 4.0)
        assert g.alpha2 == pytest.approx(np.pi / 4.0)
        assert g.gamma1 == pytest.approx(1.2)
        assert g.gamma2 == pytest.approx(0.8)

    def test_drag_model(self):
        cfg = AccConfig()
        assert cfg.drag(20.0) == pytest.approx(200.1)

    def test_lead_acceleration_envelope(self):
        with pytest.raises(ValueError):
            AccConfig(a_lead=0.3 * 9.81)

    @pytest.mark.parametrize("config, field", [
        (AccConfig, "horizon"), (AccConfig, "d_delta"), (TwoRobotConfig, "dt")])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_numbers_are_refused(self, config, field, value):
        # NaN passes every comparison check; an infinite horizon never ends
        with pytest.raises(ValueError, match=field):
            config(**{field: value})

    @pytest.mark.parametrize("start", [(math.nan, 1.5), (1.5, -math.inf), (1.5, True),
                                       (1.5, "1.5")])
    def test_start_entries_must_be_finite_numbers(self, start):
        # built in Python, not through --set: the config's own check decides
        with pytest.raises(ValueError, match="finite: x0_agent1$"):
            TwoRobotConfig(x0_agent1=start)

    @pytest.mark.parametrize("config, field, value", [
        (AccConfig, "dt", 0.0), (AccConfig, "dt", -0.1), (TwoRobotConfig, "dt", -1e-3)])
    def test_non_positive_numbers_are_refused(self, config, field, value):
        with pytest.raises(ValueError, match=f"must be positive: {field}$"):
            config(**{field: value})

    def test_disturbance_gain_range(self):
        with pytest.raises(ValueError, match="nonnegative"):
            AccConfig(d_delta=-1.0)

    def test_braking_barrier_contains_plain_headway(self):
        # h <= 0 must imply the paper's constraint tau_d * v_f <= D, and full
        # braking behind a constant-speed lead must make h decrease, so the
        # invariance row stays feasible even at delta2 = 0
        rng = np.random.default_rng(5)
        states = rng.uniform([0.0, 0.0, 0.0], [35.0, 35.0, 200.0], size=(200, 3))
        cfg = AccConfig()
        sc = acc_scenario(cfg)
        barrier = acc_headway(cfg)
        for x in states:
            h_plain = cfg.tau_d * x[0] - x[2]
            assert barrier.value(x) >= h_plain
            if x[0] <= x[1]:
                assert barrier.value(x) == h_plain
            x_dot = sc.sys.f(x) + sc.sys.g(x) @ np.array([-cfg.u_max])
            assert barrier.value_and_gradient(x)[1] @ x_dot < 0.0

    def test_disturbed_weights_only_when_disturbed(self):
        # any disturbance gain switches to the disturbed study's q1 and w2;
        # the other synthesis parameters are the nominal ones
        nominal = acc_scenario(AccConfig()).params
        disturbed = acc_scenario(AccConfig(d_delta=10.0)).params
        assert (nominal.q1, nominal.w2) == (AccConfig.q1, AccConfig.w2)
        assert (disturbed.q1, disturbed.w2) == (AccConfig.q1_disturbed, AccConfig.w2_disturbed)
        assert dataclasses.replace(disturbed, q1=nominal.q1, w2=nominal.w2) == nominal


@pytest.mark.parametrize("build", [
    lambda: acc_scenario(AccConfig(v_f0=27.0, d_delta=100.0)),
    two_robot_scenario,
    *(lambda sc=sc: sc for sc in synthetic_suite())],
    ids=["acc-27-d100", "two-robot", "int1d", "int2d", "fullact2d"])
def test_euler_rows_that_cannot_bind_change_no_decision(monkeypatch, build):
    # the disturbed acc weights ask for delta1 = -q1/w1 = -30, above -1/dt,
    # and no run here comes near delta2 = 0.5/dt: at sampled recorded states
    # the QP without its last two rows, the Euler step's, has the same
    # solution, and neither QP holds those rows active
    import fxtqp.simulation as simulation
    from fxtqp.controller import synthesize
    decided = []

    def recorded(*args, warm_start=None):
        decided.append((args[:4], args[4].copy()))
        return synthesize(*args, warm_start=warm_start)

    monkeypatch.setattr(simulation, "synthesize", recorded)
    assert build().simulate().outcome.ok
    stride = max(1, len(decided) // 300)
    for k, ((sys, goal, safes, cqp), x) in list(enumerate(decided))[::stride]:
        full = assemble(sys, goal, safes, cqp.bounds, cqp.params, x)
        sliced = qp.QpProblem(H=full.H, F=full.F, A=full.A[:-2], b=full.b[:-2])
        a, b = qp.solve_qp(full), qp.solve_qp(sliced)
        assert a.status is b.status is qp.SolveStatus.OPTIMAL, k
        assert a.active_set == b.active_set, k
        gap = np.max(np.abs(a.z_star - b.z_star))
        assert gap <= 1e-12 * max(1.0, np.max(np.abs(a.z_star))), k
        euler = {full.m_c - 2, full.m_c - 1}
        assert euler.isdisjoint(a.active_set) and euler.isdisjoint(b.active_set), k


class TestAccRuns:
    def test_tracks_then_backs_off(self):
        # speed settles into the goal band, then yields near the headway
        # boundary while the gap keeps closing
        trace = acc_scenario(AccConfig(v_f0=20.0)).simulate()
        assert trace.outcome.kind is OutcomeKind.ALL_PHASES_MET
        v_f = trace.x[:, 0]
        in_band = np.abs(v_f - 22.0) <= 0.5
        assert in_band.any() and trace.t[in_band][0] <= 10.0
        assert np.max(trace.h_safe) <= 0.0
        assert v_f[-1] < 21.0    # backed off to protect the gap

    def test_approach_improves_tracking_while_far(self):
        # while the barrier margin is generous and the band not yet
        # attained, the speed error shrinks on average over half-second
        # windows
        trace = acc_scenario(AccConfig(v_f0=20.0)).simulate()
        err = np.abs(trace.x[:, 0] - 22.0)
        first_band = int(np.argmax(err <= 0.5))
        window = int(0.5 / trace.dt)
        far = trace.h_safe[:, 0] <= -20.0
        for k in range(0, max(0, first_band - window), window):
            if far[k]:
                assert err[k + window] < err[k]

    def test_disturbance_zero_identical_to_nominal(self):
        base = acc_scenario(AccConfig(v_f0=24.0)).simulate()
        swept = acc_scenario(AccConfig(v_f0=24.0, d_delta=0.0)).simulate()
        assert np.array_equal(base.x, swept.x)
        assert np.array_equal(base.u, swept.u)

    # with the delta1 floor alone, the nominal runs from 17 and 25-27 m/s at
    # dt = 5e-2 and from 20, 22 and 24-27 m/s at dt = 0.1 let delta2*dt pass 1
    # and cross the barrier in one step
    @pytest.mark.parametrize("dt", [5e-2, 0.1])
    @pytest.mark.parametrize("d_delta", [0.0, 50.0, 100.0])
    def test_coarse_steps_stay_safe(self, dt, d_delta):
        for v_f0 in range(17, 28):
            trace = acc_scenario(AccConfig(v_f0=float(v_f0), d_delta=d_delta, dt=dt)).simulate()
            assert trace.outcome.kind != OutcomeKind.SAFETY_VIOLATED, (v_f0, trace.outcome)
            assert trace.h_safe.max() <= 0.0, v_f0
            if d_delta == 0.0:
                assert trace.outcome.ok, v_f0
                assert trace.delta2.max() * dt <= 0.5 + 1e-12, v_f0

    def test_disturbance_sweep_stays_safe(self):
        traces = [acc_scenario(AccConfig(v_f0=27.0, d_delta=d)).simulate()
                  for d in (0.0, 50.0, 100.0)]
        for tr in traces:
            assert tr.outcome.kind is not OutcomeKind.SOLVER_FAILURE
            assert tr.outcome.kind is not OutcomeKind.SAFETY_VIOLATED
            assert np.max(tr.h_safe) <= 0.0

    def test_braking_lead_stops_at_rest(self):
        # the lead's speed has a floor at rest, so the vehicles cannot pass
        # through each other; one Euler step of a_lead may dip below it
        cfg = AccConfig(v_f0=23.0, d_delta=10.0, a_lead=-2.0)
        trace = acc_scenario(cfg).simulate()
        assert trace.outcome.ok
        v_f, v_l, D = trace.x.T
        assert D.min() > 0.0 and v_f.min() >= 0.0
        assert v_l.min() >= -abs(cfg.a_lead) * cfg.dt

    def test_disturbance_magnitude_matches_model(self):
        cfg = AccConfig(d_delta=60.0)
        sc = acc_scenario(cfg)
        for v_f in (12.0, 22.0, 30.0):
            x = np.array([v_f, 10.0, 100.0])
            psi = sc.sys.disturbance(x)
            assert psi[0] == pytest.approx(60.0 / 1650.0 * abs(v_f - 22.0))
            assert psi[1] == psi[2] == 0.0


def swap_agents(cfg, monkeypatch):
    """``cfg`` with the agents' starts exchanged; the agents' tours and start
    sets are exchanged in ``scenarios`` until the test ends, so that
    ``two_robot_scenario`` builds the tour with the agents relabeled."""
    for one, two in (("AGENT1_TOUR", "AGENT2_TOUR"), ("AGENT1_START", "AGENT2_START")):
        first, second = getattr(scenarios, one), getattr(scenarios, two)
        monkeypatch.setattr(scenarios, one, second)
        monkeypatch.setattr(scenarios, two, first)
    return dataclasses.replace(cfg, x0_agent1=cfg.x0_agent2, x0_agent2=cfg.x0_agent1)


class TestTwoRobotGeometry:
    def test_leg_goal_is_next_leg_stay_set(self, monkeypatch):
        # one object per waypoint: a leg's goal is the set the next leg
        # stays in, so each track's legs chain through shared sets
        cfg = TwoRobotConfig()
        for swap in (False, True):
            if swap:
                cfg = swap_agents(cfg, monkeypatch)
            tracks = two_robot_scenario(cfg).schedule.tracks
            assert len(tracks) == 2
            for track in tracks:
                assert len(track) == 8
                for prev, leg in zip(track, track[1:]):
                    assert prev.goal is leg.safe_extra[0]

    def test_ellipse_center_membership(self):
        sets = waypoint_sets(TwoRobotConfig(), 0)
        s2 = sets[1]     # top edge ellipse, centered at (0, 1.5)
        assert s2.value(np.array([0.0, 1.5, 9.0, 9.0])) == pytest.approx(-1.0)

    def test_consecutive_waypoints_overlap(self):
        # sampled nonempty intersections, including the wrap-around pair,
        # with the workspace constraints active
        cfg = TwoRobotConfig()
        sets = waypoint_sets(cfg, 0)
        rng = np.random.default_rng(0)
        for i in range(8):
            a, b = sets[i], sets[(i + 1) % 8]
            found = False
            for _ in range(20000):
                p = rng.uniform(-2.0, 2.0, size=2)
                x = np.array([p[0], p[1], 9.0, 9.0])
                if (a.value(x) <= 0 and b.value(x) <= 0
                        and np.max(np.abs(p)) <= 2.0 and p @ p >= 1.5 ** 2):
                    found = True
                    break
            assert found, f"sets {i} and {(i + 1) % 8} do not overlap"

    def test_initial_conditions_inside_start_sets(self):
        cfg = TwoRobotConfig()
        sc = two_robot_scenario(cfg)
        x0 = sc.x0
        stay1 = sc.schedule.tracks[0][0].safe_extra[0]
        stay2 = sc.schedule.tracks[1][0].safe_extra[0]
        assert stay1.value(x0) < 0
        assert stay2.value(x0) < 0


def test_tour_sets_are_the_numpy_expressions_bit_for_bit():
    # the tour's sets build their gradients on Python floats; value and
    # gradient must equal the numpy expressions they replace, zeros with
    # their sign, for every set type and both agents, on seeded states:
    # uniform, at and near each centre, with signed zeros, and of magnitude
    # 1e+-150 (1e160, whose squares overflow, too)
    from fxtqp.scenarios import _circle, _separation, _square_walls
    cfg = TwoRobotConfig()
    rng = np.random.default_rng(32)
    c = cfg.hub_radius
    centres = [(-c, c), (0.0, c), (c, c), (c, 0.0), (c, -c), (0.0, -c), (-c, -c), (-c, 0.0),
               (0.0, 0.0), (-0.0, -0.0)]
    states = list(rng.uniform(-2.5, 2.5, size=(200, 4)))
    for p in centres:
        for q in centres:
            at = np.array([*p, *q])
            states += [at, *(at + rng.normal(scale=1e-12, size=(2, 4)))]
    states += list(rng.choice([0.0, -0.0, 1.5, -1.5], size=(100, 4)))
    states += list(rng.choice([1e150, -1e150, 1e-150, -1e-150, 1e160, -1e160, 0.0, -0.0],
                              size=(200, 4)))
    for agent in (0, 1):
        sets = [*waypoint_sets(cfg, agent), *_square_walls(cfg, agent),
                _circle(f"hub_a{agent + 1}", (0.0, 0.0), cfg.hub_radius, agent, outside=True),
                _separation(cfg)]
        refs = numpy_tour_sets(cfg, agent)
        assert len(sets) == len(refs) == 14
        for s, ref in zip(sets, refs):
            for x in states:
                with np.errstate(over="ignore"):
                    h, grad = s.value_and_gradient(x)
                    h_ref, grad_ref = ref(x)
                assert h == h_ref and np.signbit(h) == np.signbit(h_ref), (s.name, x)
                assert grad.dtype == grad_ref.dtype and grad.shape == grad_ref.shape
                assert (grad == grad_ref).all(), (s.name, x)
                assert (np.signbit(grad) == np.signbit(grad_ref)).all(), (s.name, x)


@pytest.fixture(scope="module")
def trace():
    return two_robot_scenario().simulate()


def tour_problem(sc, trace, k):
    """The QP the tour's controller solved at step k: a track's leg counts as
    met from its recorded reach time on."""
    goals, safes = sc.schedule.in_force([sum(r is not None and r <= trace.t[k] for r in reached)
                                         for reached in trace.track_reach_times])
    goal = goals[0] if len(goals) == 1 else _joint_goal(goals)
    return assemble(sc.sys, goal, safes, sc.bounds, sc.params, trace.x[k])


class TestTwoRobotRun:
    def test_kkt_residuals_where_the_first_legs_end(self, trace):
        # the primal active-set solver left stationarity residuals up to 6e-8
        # at steps 115-125 of this tour
        sc = two_robot_scenario()
        for k in range(100, 141):
            problem = tour_problem(sc, trace, k)
            res = qp.kkt_residual(problem, qp.solve_qp(problem))
            assert max(res.stationarity, res.primal_violation, res.comp_slack) <= 1e-8, (k, res)

    def test_solver_matches_oracle_at_sampled_states(self, trace):
        # the 22-row QP at one state where the first legs end and at seven
        # seeded states of the whole tour
        sc = two_robot_scenario()
        rng = np.random.default_rng(8)
        steps = [int(rng.integers(100, 141))] + rng.choice(len(trace), 7, replace=False).tolist()
        for k in steps:
            problem = tour_problem(sc, trace, k)
            solved = qp.solve_qp(problem)
            oracle = qp.brute_force_solve(problem)
            assert oracle.status is qp.SolveStatus.OPTIMAL, k
            assert abs(solved.objective - oracle.objective) <= 1e-8 * max(1.0, abs(oracle.objective)), k
            strict = strictly_complementary(problem, oracle)
            assert strictly_complementary(problem, solved) == strict, k
            if strict:
                assert np.max(np.abs(solved.z_star - oracle.z_star)) <= 1e-7, k

    def test_all_legs_within_budget(self, trace):
        assert trace.outcome.kind is OutcomeKind.ALL_PHASES_MET
        for track in trace.track_reach_times:
            prev = 0.0
            for rt in track:
                assert rt is not None
                assert rt - prev <= 1.0 + 1e-9
                prev = rt

    def test_separation_maintained(self, trace):
        stats = monitor(trace, d_min=0.1)
        assert stats["min_separation"] >= 0.1

    def test_inputs_within_component_box(self, trace):
        assert np.max(np.abs(trace.u)) <= 7.0 + 1e-9
        norms = np.maximum(np.linalg.norm(trace.u[:, :2], axis=1),
                           np.linalg.norm(trace.u[:, 2:], axis=1))
        assert np.max(norms) <= 10.0

    def test_workspace_respected(self, trace):
        stats = monitor(trace, d_min=0.1)
        for name, value in stats["max_h_per_safe_set"].items():
            assert value <= 1e-9, name

    def test_one_column_per_wall(self, trace, tmp_path):
        # four wall sets per agent, each its own safe set and trace column
        trace_to_csv(trace, tmp_path / "trace.csv")
        header = (tmp_path / "trace.csv").read_text().splitlines()[0].split(",")
        assert sum(c.startswith("hs_") for c in header) == 13
        keys = list(monitor(trace, d_min=0.1)["max_h_per_safe_set"])
        walls = [k for k in keys if k.startswith("square_")]
        assert len(walls) == 8 and keys[:8] == walls
        # the workspace check of the acceptance suite matches every wall and hub
        assert {k for k in keys if k.startswith(("square", "hub"))} == \
            set(keys) - {"separation", "phase_extra_0_0", "phase_extra_1_0"}
        # an agent's walls together are the square: their max is |p|_inf - arena
        for agent in (0, 1):
            p = trace.x[:, 2 * agent:2 * agent + 2]
            assert np.array_equal(trace.h_safe[:, 4 * agent:4 * agent + 4].max(axis=1),
                                  np.abs(p).max(axis=1) - TwoRobotConfig().arena)

    def test_segment_certificates_cover_the_tour(self, trace):
        segs = trace.segments
        assert len(segs) > 1
        assert segs[0]["t_start"] == trace.t[0] and segs[-1]["t_end"] == trace.t[-1]
        for a, b in zip(segs, segs[1:]):
            i = int(np.searchsorted(trace.t, a["t_end"]))
            assert trace.t[i] == a["t_end"] and trace.t[i + 1] == b["t_start"]
        params = two_robot_scenario().params
        cert = worst_case(segs)
        assert cert["delta1_sup"] == max(s["delta1_sup"] for s in segs) == np.max(trace.delta1)
        bound = settling_time_bound(params.gains, max(0.0, cert["delta1_sup"]))
        assert cert["regime"] == bound.kind.value
        assert cert["domain_ok"] == all(s["domain_ok"] for s in segs)
        assert cert["bound_T"] == (bound.T if cert["domain_ok"] else None)

    def test_label_swap_mirrors_trace(self, monkeypatch):
        # generic (tie-free) starts; the stacked QP has a unique optimum, so
        # relabeling the agents permutes the trajectory; round-off from the
        # permuted row order is amplified once the agents start interacting,
        # so the exactness window covers the approach legs
        cfg = TwoRobotConfig(x0_agent1=(-1.45, 1.52), x0_agent2=(1.48, -1.51))
        a = two_robot_scenario(cfg).simulate()
        b = two_robot_scenario(swap_agents(cfg, monkeypatch)).simulate()
        steps = min(len(a), len(b), 900)
        assert np.allclose(a.x[:steps, 0:2], b.x[:steps, 2:4], atol=1e-10)
        assert np.allclose(a.x[:steps, 2:4], b.x[:steps, 0:2], atol=1e-10)
        assert a.outcome.kind == b.outcome.kind


class TestSyntheticSuite:
    def test_one_dimensional_slack_stays_nonpositive(self):
        sc = next(s for s in synthetic_suite() if s.scenario_id == "synthetic:int1d")
        trace = sc.simulate()
        assert trace.outcome.kind is OutcomeKind.ALL_PHASES_MET
        assert np.max(trace.delta1) <= 0.0
        assert trace.reach_times[0] <= sc.params.T_ud

    def test_normalized_gradient_input_renders_boundary_safe(self):
        # a scaled negative gradient step satisfies the tangency condition
        # (the invariance row with h_s = 0) on any safe-set boundary of a
        # single integrator
        from fxtqp.constraints import ControlAffineSystem, InputBounds
        from fxtqp.controller import CompiledQp
        from reference_checks import rows_at
        sc = next(s for s in synthetic_suite() if s.scenario_id == "synthetic:fullact2d")
        safe = sc.schedule.global_safes[0]
        rng = np.random.default_rng(5)
        integ2 = ControlAffineSystem(f=lambda x: np.zeros(2),
                                     g=lambda x: np.eye(2))
        unit = InputBounds(lower=-np.ones(2), upper=np.ones(2))
        for _ in range(50):
            theta = rng.uniform(0, 2 * np.pi)
            x = 2.0 * np.array([np.cos(theta), np.sin(theta)])  # on the disk edge
            grad = safe.value_and_gradient(x)[1]
            u = -0.5 * grad / np.linalg.norm(grad)
            A, b, _, _ = rows_at(integ2, sc.schedule.phases[0].goal, (safe,),
                                 CompiledQp(unit, sc.params, 1), x)
            assert A[-3, :2] @ u <= b[-3] + 1e-12     # Lg u <= -Lf, before the Euler rows

    def test_obstacle_detour_reaches_and_avoids(self):
        sc = next(s for s in synthetic_suite() if s.scenario_id == "synthetic:int2d")
        trace = sc.simulate()
        assert trace.outcome.kind is OutcomeKind.ALL_PHASES_MET
        assert np.max(trace.h_safe) <= 0.0
        # the straight segment to the goal is blocked; the path must leave it
        assert np.max(np.abs(trace.x[:, 1])) > 0.3


class TestScenarioFactory:
    def test_ids_resolve(self):
        for sid in ("acc", "two-robot", "synthetic:int1d",
                    "synthetic:int2d", "synthetic:fullact2d"):
            assert scenario_from_id(sid).scenario_id == sid

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_id("unknown")

    @pytest.mark.parametrize("sid, overrides, match", [
        ("synthetic:int1d", {"dt": 0.01}, "take no overrides"),
        ("synthetic:int3d", None, "unknown synthetic scenario")])
    def test_synthetic_refusals(self, sid, overrides, match):
        with pytest.raises(ValueError, match=match):
            scenario_from_id(sid, overrides)

    def test_override_field_checking(self):
        sc = scenario_from_id("acc", {"v_f0": 21.0})
        assert sc.x0[0] == 21.0
        with pytest.raises(ValueError):
            scenario_from_id("acc", {"no_such_field": 1.0})

    @pytest.mark.parametrize("sid", ["acc", "two-robot", "synthetic:int1d",
                                     "synthetic:int2d", "synthetic:fullact2d"])
    def test_input_matrix_is_built_once(self, sid):
        # g does not depend on x in any scenario: every state gets the same
        # read-only matrix instead of a fresh one per call
        sc = scenario_from_id(sid)
        g = sc.sys.g(sc.x0)
        assert sc.sys.g(sc.x0 + 0.5) is g
        assert not g.flags.writeable
