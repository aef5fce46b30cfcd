"""Acceptance suite: one test per criterion, one printed line per criterion.

Each test performs its full check, prints ``[PASS]``/``[FAIL] criterion N``
with the measured figures, and then asserts.  Every criterion is expected
green.  Criteria 5 and 6 run the cruise-control scenario, whose controller
keeps the braking-distance headway barrier; its safe set lies inside the
plain headway set, so the recorded barrier values bound the paper's
``1.8*v_f - D`` from above.
"""

import math
import time
from dataclasses import replace

import numpy as np

from fxtqp.cli import main as cli_main
from fxtqp.fxts import FxtsGains, alpha_from_deadline, settling_time_bound
from fxtqp.qp import QpProblem, SolveStatus, brute_force_solve, kkt_residual, solve_qp
from fxtqp.simulation import OutcomeKind, monitor
from fxtqp.scenarios import (
    AccConfig,
    TwoRobotConfig,
    acc_goal,
    acc_headway,
    acc_scenario,
    synthetic_suite,
    two_robot_scenario,
    waypoint_sets,
)
from reference_checks import finite_diff_gradient_check, settling_time_bound_basic


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {detail}")


def band_time(trace, v_d=22.0, band=0.5):
    hit = np.abs(trace.x[:, 0] - v_d) <= band
    return float(trace.t[hit][0]) if hit.any() else None


def test_criterion_01_qp_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_obj = 0.0
    worst_res = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(0, 11))
        M = rng.normal(size=(n, n))
        H = M @ M.T + np.eye(n) * (0.5 + rng.random())
        F = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        interior = rng.normal(size=n)
        b = A @ interior + 0.1 + rng.random(m) if m else np.zeros(0)
        p = QpProblem(H=H, F=F, A=A, b=b)
        s = solve_qp(p)
        o = brute_force_solve(p)
        assert s.status is SolveStatus.OPTIMAL
        worst_obj = max(worst_obj, abs(s.objective - o.objective))
        r = kkt_residual(p, s)
        worst_res = max(worst_res, r.stationarity, r.primal_violation, r.comp_slack)
    elapsed = time.perf_counter() - t0
    ok = worst_obj <= 1e-8 and worst_res <= 1e-8 and elapsed < 10.0
    report(1, ok, f"500 QPs vs brute force: max objective gap {worst_obj:.2e}, "
                  f"max KKT residual {worst_res:.2e}, {elapsed:.1f} s")
    assert ok


def test_criterion_02_settling_bounds_on_default_grid(tmp_path):
    t0 = time.perf_counter()
    code = cli_main(["--verify-bounds", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - t0
    rows = (tmp_path / "bounds.csv").read_text().strip().splitlines()[1:]
    parsed = [r.split(",") for r in rows]
    in_domain = [r for r in parsed if r[6] == "True"]
    all_pass = all(r[9] == "True" for r in parsed)
    zero_rows_ok = True
    for r in in_domain:
        if float(r[3]) == 0.0:
            alpha1, alpha2, mu = float(r[0]), float(r[1]), float(r[2])
            zero_rows_ok &= float(r[7]) <= mu * math.pi / (2 * math.sqrt(alpha1 * alpha2)) + 1e-6
    ok = code == 0 and len(in_domain) >= 60 and all_pass and zero_rows_ok and elapsed < 20.0
    report(2, ok, f"{len(in_domain)} in-domain grid points, exit {code}, {elapsed:.1f} s")
    assert ok


def test_criterion_03_deadline_round_trip():
    worst = 0.0
    for T in (0.1, 1.0, 10.0, 100.0):
        for mu in (1.5, 2.0, 5.0, 10.0):
            back = settling_time_bound(alpha_from_deadline(T, mu), 0.0).T
            worst = max(worst, abs(back - T) / max(1.0, T))
    ok = worst <= 1e-12
    report(3, ok, f"gain/deadline round trip, worst relative error {worst:.2e}")
    assert ok


def test_criterion_04_tighter_bound_dominates():
    checked = 0
    strict = True
    for a1 in np.linspace(0.1, 8.0, 10):
        for a2 in np.linspace(0.1, 8.0, 10):
            g = FxtsGains(a1, a2, 3.0)
            new = settling_time_bound(g, 0.0).T
            old = settling_time_bound_basic(a1, a2, g.gamma2, g.gamma1)
            strict &= new <= old
            checked += 1
    ok = strict and checked == 100
    report(4, ok, f"pi/2-type bound below the two-term bound on {checked} gain points")
    assert ok


def test_criterion_05_acc_reproduction():
    t0 = time.perf_counter()
    results = {}
    for v0 in range(17, 28):
        trace = acc_scenario(AccConfig(v_f0=float(v0))).simulate()
        results[v0] = {
            "safe": float(np.max(trace.h_safe)) <= 0.0
                    and trace.outcome.kind is not OutcomeKind.SAFETY_VIOLATED,
            "u_ok": float(np.max(np.abs(trace.u))) <= 4046.625,
            "band_t": band_time(trace),
            "solver_ok": trace.outcome.kind is not OutcomeKind.SOLVER_FAILURE,
        }
    elapsed = time.perf_counter() - t0
    safe_ok = all(r["safe"] for r in results.values())
    u_ok = all(r["u_ok"] for r in results.values())
    solver_ok = all(r["solver_ok"] for r in results.values())
    band_ok = {v: (r["band_t"] is not None and r["band_t"] <= 10.0)
               for v, r in results.items()}
    missed = sorted(v for v, ok in band_ok.items() if not ok)
    ok = safe_ok and u_ok and solver_ok and not missed and elapsed < 30.0
    report(5, ok, f"headway safe for all 11 starts: {safe_ok}; input box: {u_ok}; "
                  f"QP feasible: {solver_ok}; speed band missed by {missed or 'none'}; "
                  f"{elapsed:.1f} s")
    assert safe_ok and u_ok and solver_ok and elapsed < 30.0
    assert not missed, (
        f"speed band not reached within 10 s from v_f(0) in {missed}: the "
        "braking-distance barrier should leave the controller free to climb "
        "at full thrust while the gap is large; a miss means the invariance "
        "row forces braking far from the headway boundary (check the barrier "
        "and the w2 weight in fxtqp.scenarios)")


def test_criterion_06_acc_disturbance_robustness():
    details = []
    ok = True
    worst = -math.inf   # the largest plain headway 1.8 v_f - D over every run
    for v0 in (18.0, 27.0):
        for d in (0.0, 50.0, 100.0):
            trace = acc_scenario(AccConfig(v_f0=v0, d_delta=d)).simulate()
            safe = float(np.max(trace.h_safe)) <= 0.0 \
                and trace.outcome.kind is not OutcomeKind.SAFETY_VIOLATED
            solver_ok = trace.outcome.kind is not OutcomeKind.SOLVER_FAILURE
            headway = float(np.max(AccConfig.tau_d * trace.x[:, 0] - trace.x[:, 2]))
            worst = max(worst, headway)
            ok &= safe and solver_ok and headway <= 0.0
            details.append(f"v0={v0:g}/d={d:g}:{'ok' if safe and solver_ok else 'BAD'}")
    report(6, ok, "safety held, no solver failures, worst plain headway "
                  f"{worst:.3f} m ({'; '.join(details)})")
    assert ok


def test_criterion_07_two_robot_reproduction():
    t0 = time.perf_counter()
    sc = two_robot_scenario()
    trace = sc.simulate()
    elapsed = time.perf_counter() - t0
    legs_ok = trace.outcome.kind is OutcomeKind.ALL_PHASES_MET
    worst_leg = 0.0
    for track in trace.track_reach_times:
        prev = 0.0
        for rt in track:
            if rt is None:
                legs_ok = False
                continue
            worst_leg = max(worst_leg, rt - prev)
            prev = rt
    legs_ok &= worst_leg <= 1.0
    stats = monitor(trace, d_min=sc.d_min)
    sep_ok = stats["min_separation"] is not None and stats["min_separation"] >= 0.1
    comp_ok = float(np.max(np.abs(trace.u))) <= 7.0
    norm_ok = float(np.max(np.maximum(
        np.linalg.norm(trace.u[:, :2], axis=1),
        np.linalg.norm(trace.u[:, 2:], axis=1)))) <= 10.0
    workspace_ok = all(v <= 1e-9 for name, v in stats["max_h_per_safe_set"].items()
                       if name.startswith(("square", "hub")))
    ok = legs_ok and sep_ok and comp_ok and norm_ok and workspace_ok and elapsed < 60.0
    report(7, ok, f"all legs <= {worst_leg:.3f} s of their 1 s budgets, "
                  f"min separation {stats['min_separation']:.3f}, inputs boxed, "
                  f"workspace held, {elapsed:.1f} s")
    assert ok


def test_criterion_08_nonpositive_slack_meets_deadline():
    case = next(c for c in synthetic_suite()
                if c.scenario_id == "synthetic:int1d")
    trace = case.simulate()
    max_d1 = float(np.max(trace.delta1))
    reach = trace.reach_times[0]
    ok = (trace.outcome.kind is OutcomeKind.ALL_PHASES_MET
          and max_d1 <= 0.0
          and reach is not None and reach <= case.params.T_ud)
    report(8, ok, f"slack sign max {max_d1:.3g} <= 0 and reach "
                  f"{reach:.3f} s within the {case.params.T_ud} s deadline")
    assert ok


def test_criterion_09_gradient_oracle():
    rng = np.random.default_rng(99)
    cfg = AccConfig()
    two = TwoRobotConfig()
    checks = []

    acc_states = rng.uniform([12, 8, 30], [30, 12, 200], size=(100, 3))
    checks.append(("acc_goal", finite_diff_gradient_check(acc_goal(cfg), acc_states)))
    checks.append(("acc_headway", finite_diff_gradient_check(acc_headway(cfg), acc_states)))

    sc = two_robot_scenario(two)
    planar = rng.uniform(-2.0, 2.0, size=(100, 4))
    for s in sc.schedule.global_safes:
        checks.append((s.name, finite_diff_gradient_check(s, planar)))
    for agent in (0, 1):
        for s in waypoint_sets(two, agent):
            checks.append((s.name, finite_diff_gradient_check(s, planar)))

    worst = max(v for _, v in checks)
    ok = worst <= 1e-5
    report(9, ok, f"{len(checks)} scenario set functions, worst relative "
                  f"gradient error {worst:.2e}")
    assert ok


def test_criterion_10_determinism_and_discretization():
    acc_cfg = AccConfig(v_f0=24.0)
    a1 = acc_scenario(acc_cfg).simulate()
    a2 = acc_scenario(acc_cfg).simulate()
    deterministic = (np.array_equal(a1.x, a2.x) and np.array_equal(a1.u, a2.u))

    half = acc_scenario(replace(acc_cfg, dt=5e-3)).simulate()
    t_full, t_half = band_time(a1), band_time(half)
    acc_shift = abs(t_half - t_full) / t_full

    r1 = two_robot_scenario().simulate()
    r2 = two_robot_scenario(TwoRobotConfig(dt=5e-4)).simulate()
    tr_full = r1.reach_times[-1]
    tr_half = r2.reach_times[-1]
    robot_shift = abs(tr_half - tr_full) / tr_full

    ok = deterministic and acc_shift < 0.05 and robot_shift < 0.05
    report(10, ok, f"bit-identical repeats: {deterministic}; dt/2 reach-time "
                   f"shifts: cruise {acc_shift:.2%}, robots {robot_shift:.2%}")
    assert ok
