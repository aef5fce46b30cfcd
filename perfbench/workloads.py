"""The benchmark's seeded workloads: inputs, one timed pass, output checks.

Every workload builds its inputs from the seed alone and reaches the
package only through its public entry points, ``Scenario.simulate`` and
``fxtqp.cli.main``.  A pass runs all of a workload's operations once and
times them; the output checks read a pass's results afterwards, outside the
timed region.

An operation is one closed-loop run (``acc-mix``, ``two-robot-tour``) or
one in-domain grid point (``bounds-grid``).  A decision is one call of the
probed function: ``simulation.synthesize`` on the loop workloads,
``cli.simulate_scalar_v`` (one grid point) on ``bounds-grid``.  Every time
is rescaled to the reference host speed (``perfbench.hostspeed``).  Each
workload's ``pass_s`` is a fixed nominal pass time: with ``--seconds`` it
sets how many passes a run makes, so the pass count never depends on how
fast the code is.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from fxtqp import cli, controller, qp, simulation
from fxtqp.scenarios import AccConfig, TwoRobotConfig, acc_scenario, scenario_from_id
from perfbench.hostspeed import HostSpeed, qp_work, scalar_work
from perfbench.tracing import timed

# Criterion 1's tolerances: objective gap (relative to the objective once
# that exceeds 1; the scenarios' objectives reach 1e5) and KKT residuals.
OBJ_TOL = 1e-8
KKT_TOL = 1e-8
# Recorded decision against the reference solution, in the QP's scaled
# coordinates (inputs divided by their bound magnitude).
Z_TOL = 1e-7
# Workspace branches may sit on the boundary up to round-off.
WORKSPACE_TOL = 1e-9
SAMPLES_PER_RUN = 4
TWO_ROBOT_SAMPLES = 16
# Two tours a pass: one tour's latency tail depends on its start.
TOURS_PER_PASS = 2
GRID_JITTER = {"mu": 0.005, "V0": 0.01}
TINY_GRID = {"alpha": [1.0], "mu": [2.0], "delta1": [-1.0, 0.0], "V0": [0.01, 1.0],
             "dt": 1e-4}


@dataclass
class PassResult:
    """What one timed pass produced."""

    wall: float                 # rescaled seconds for all operations of the pass
    raw_wall: float             # the same, as measured
    scale: float                # median host-speed scale over the pass
    decide: list[float]         # rescaled seconds per decision, in call order
    steps: int                  # closed-loop steps, or RK4 steps on bounds-grid
    ops: int                    # operations attempted
    outcome_failures: int       # operations whose outcome is not a success
    digests: list[str]          # one per closed-loop run, or per grid table
    counters: dict[str, int]    # deterministic per-pass counts
    artifacts: list = field(default_factory=list)


@contextlib.contextmanager
def timed_pass(module, attr: str, work, periodic: bool, results: list | None = None):
    """Time one pass, probing each call of ``module.attr`` as a decision.

    Yields a dict that holds the pass's timing fields once the block ends.
    Runs of the reference ``work`` bracket the pass and, when ``periodic``,
    also come every ``hostspeed.INTERVAL_S`` seconds in between.
    """
    speed = HostSpeed(work)
    intervals: list[tuple[float, float]] = []
    timing: dict = {}
    with timed(module, attr, intervals, results), speed.sampling(periodic):
        yield timing
    raw = speed.marks[-1][0] - speed.marks[0][1] - sum(
        t1 - t0 for t0, t1 in speed.marks[1:-1])
    timing.update(wall=speed.rescaled_span(), raw_wall=raw,
                  scale=speed.median_scale(), decide=speed.rescale(intervals))


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _scaled_decision(bounds, u, delta1, delta2) -> np.ndarray:
    return np.concatenate([np.asarray(u, dtype=float) / bounds.scale(), [delta1, delta2]])


def _decision_errors(problem, z_rec: np.ndarray, ref, label: str) -> list[str]:
    """Recorded decision against a reference optimum of the same QP."""
    errors = []
    if ref.status is not qp.SolveStatus.OPTIMAL:
        return [f"{label}: reference solve {ref.status.value}"]
    gap = abs(problem.objective(z_rec) - ref.objective) / max(1.0, abs(ref.objective))
    viol = float(np.max(problem.A @ z_rec - problem.b, initial=0.0))
    dz = float(np.max(np.abs(z_rec - ref.z_star)))
    if gap > OBJ_TOL:
        errors.append(f"{label}: relative objective gap {gap:.3g} > {OBJ_TOL:g}")
    if viol > qp.FEAS_TOL:
        errors.append(f"{label}: recorded decision violates a row by {viol:.3g}")
    if dz > Z_TOL:
        errors.append(f"{label}: recorded decision off the optimum by {dz:.3g}")
    return errors


def _sample_steps(rng: np.random.Generator, n: int, k: int) -> list[int]:
    return sorted(int(i) for i in rng.choice(n, size=min(k, n), replace=False))


# ---------------------------------------------------------------------------
# acc-mix
# ---------------------------------------------------------------------------

def acc_configs(seed: int, tiny: bool = False) -> list[AccConfig]:
    """Seeded cruise-control starts from criterion 5's start speeds.

    Follower speeds are whole numbers of m/s in [17, 27], the start set of
    the 11-start reproduction.  Each seed takes four nominal starts, one
    from 17-19 m/s (these miss the 10 s deadline), one from 20-21 m/s and
    two above the speed band v_d +- reach_band; then one start below the
    band under d_delta = 50 (these all miss the deadline) and one above it
    under d_delta = 100.  Every seed so makes the same number of steps.
    """
    rng = np.random.default_rng([seed, 1])
    base = AccConfig()

    def pick(speeds, k=1):
        return [float(v) for v in rng.choice(speeds, size=k, replace=False)]

    missing, meeting, below, above = (17, 18, 19), (20, 21), range(17, 22), range(23, 28)
    if tiny:
        return [replace(base, v_f0=pick(above)[0], horizon=3.0),
                replace(base, v_f0=pick(above)[0], d_delta=100.0, horizon=3.0)]
    return ([replace(base, v_f0=v) for v in pick(missing) + pick(meeting) + pick(above, 2)]
            + [replace(base, v_f0=pick(below)[0], d_delta=50.0),
               replace(base, v_f0=pick(above)[0], d_delta=100.0)])


class AccMix:
    name = "acc-mix"
    pass_s = 8.0

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False):
        self.seed = seed
        self.configs = acc_configs(seed, tiny)

    def describe(self) -> str:
        return "acc starts (v_f0 m/s, d_delta N s/m): " + ", ".join(
            f"({cfg.v_f0:g}, {cfg.d_delta:g})" for cfg in self.configs)

    def setup(self) -> None:
        self.scenarios = [acc_scenario(cfg) for cfg in self.configs]

    def run_pass(self, on_op=lambda i: None, periodic: bool = True) -> PassResult:
        traces = []
        with timed_pass(simulation, "synthesize", qp_work, periodic) as timing:
            for i, sc in enumerate(self.scenarios):
                on_op(i)
                traces.append(sc.simulate())
        steps = sum(len(tr) for tr in traces)
        return PassResult(
            **timing,
            steps=steps,
            ops=len(traces),
            outcome_failures=sum(not tr.outcome.ok for tr in traces),
            digests=[_digest(tr.x, tr.u) for tr in traces],
            counters={"steps": steps,
                      "qp.nonstrict_steps": sum(int(np.count_nonzero(~tr.strict_cs))
                                                for tr in traces)},
            artifacts=traces,
        )

    def check(self, result: PassResult) -> dict[int, list[str]]:
        rng = np.random.default_rng([self.seed, 2])
        return {i: check_acc_run(cfg, sc, tr, rng)
                for i, (cfg, sc, tr) in enumerate(zip(self.configs, self.scenarios,
                                                      result.artifacts))}


def check_acc_run(cfg: AccConfig, sc, trace, rng: np.random.Generator) -> list[str]:
    """Safety in the paper's terms, the input box, and the oracle."""
    errors = []
    kind = trace.outcome.kind
    if kind in (simulation.OutcomeKind.SOLVER_FAILURE,
                simulation.OutcomeKind.SAFETY_VIOLATED) or len(trace) == 0:
        errors.append(f"run ended in {kind.value}: {trace.outcome.message}")
        if len(trace) == 0:
            return errors
    headway = float(np.max(cfg.tau_d * trace.x[:, 0] - trace.x[:, 2]))
    if headway > 0.0:
        errors.append(f"plain headway {headway:.6g} > 0")
    u_abs = float(np.max(np.abs(trace.u)))
    if u_abs > cfg.u_max:
        errors.append(f"|u| = {u_abs:.9g} > u_max = {cfg.u_max:.9g}")
    phase = sc.schedule.phases[0]
    safes = sc.schedule.global_safes + phase.safe_extra
    for k in _sample_steps(rng, len(trace), SAMPLES_PER_RUN):
        problem = controller.assemble(sc.sys, phase.goal, safes, sc.bounds, sc.params,
                                      trace.x[k])
        z_rec = _scaled_decision(sc.bounds, trace.u[k], trace.delta1[k], trace.delta2[k])
        errors += _decision_errors(problem, z_rec, qp.brute_force_solve(problem),
                                   f"step {k} vs brute force")
    return errors


# ---------------------------------------------------------------------------
# two-robot-tour
# ---------------------------------------------------------------------------

# (agent 1, agent 2) starts: the default starts (-1.5, 1.5) and (1.5, -1.5)
# moved by up to 0.15 per coordinate.  Every recorded state of each of these
# tours passes check_tour; on most other starts tried, the default one
# included, a few states fail its KKT bound (README, known failures).
TWO_ROBOT_STARTS = (
    ((-1.3815081777630485, 1.6081243310324813),
     (1.446412446701254, -1.5549376174401965)),
    ((-1.6191601155105546, 1.4459839859254253),
     (1.6497244574806564, -1.592151926028067)),
    ((-1.4508233189663187, 1.4281523990253577),
     (1.3907035907865994, -1.5324329744440255)),
    ((-1.3618530874246775, 1.4766371439357011),
     (1.5273480483535002, -1.5504978939917113)),
    ((-1.5617486111251453, 1.3719405375814158),
     (1.5155277984566413, -1.4656091805885834)),
    ((-1.4738801580610241, 1.5086489585890575),
     (1.3715407732972207, -1.4324618776265448)),
)


def two_robot_starts(seed: int) -> list[dict[str, list[float]]]:
    """Two different TWO_ROBOT_STARTS, picked by the seed, as CLI overrides."""
    rng = np.random.default_rng([seed, 3])
    picks = rng.choice(len(TWO_ROBOT_STARTS), size=TOURS_PER_PASS, replace=False)
    return [{"x0_agent1": list(TWO_ROBOT_STARTS[i][0]),
             "x0_agent2": list(TWO_ROBOT_STARTS[i][1])} for i in picks]


def tour_sets_at(schedule, reach_times, t: float):
    """Goal and safe sets the tour's controller used at time t.

    Mirrors the selection in ``simulation.run``.  A track's leg counts as
    done from the recorded reach time on, the same instant the closed loop
    advances it.
    """
    current, pending = [], []
    for track, reached in zip(schedule.tracks, reach_times):
        idx = sum(1 for r in reached if r is not None and r <= t)
        current.append(track[min(idx, len(track) - 1)])
        if idx < len(track):
            pending.append(current[-1].goal)
    goals = pending or [ph.goal for ph in current]
    goal = goals[0] if len(goals) == 1 else simulation._joint_goal(goals)
    safes = schedule.global_safes + tuple(s for ph in current for s in ph.safe_extra)
    return goal, safes


class TwoRobotTour:
    name = "two-robot-tour"
    pass_s = 8.0

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.starts = two_robot_starts(seed)

    @staticmethod
    def argv(starts: dict[str, list[float]], out: Path) -> list[str]:
        argv = ["--scenario", "two-robot"]
        for key, xy in starts.items():
            argv += ["--set", f"{key}=[{xy[0]!r}, {xy[1]!r}]"]
        return argv + ["--out", str(out)]

    def describe(self) -> str:
        return "two-robot starts: " + "; ".join(", ".join(
            f"{key}=({xy[0]:.4f}, {xy[1]:.4f})" for key, xy in starts.items())
            for starts in self.starts)

    def setup(self) -> None:
        self.scenarios = [scenario_from_id("two-robot", starts) for starts in self.starts]

    def run_pass(self, on_op=lambda i: None, periodic: bool = True) -> PassResult:
        outs = [self.out_dir / f"two-robot-tour-{i}" for i in range(len(self.starts))]
        for out in outs:
            shutil.rmtree(out, ignore_errors=True)
        codes = []
        with contextlib.redirect_stdout(io.StringIO()), \
                timed_pass(simulation, "synthesize", qp_work, periodic) as timing:
            for i, (starts, out) in enumerate(zip(self.starts, outs)):
                on_op(i)
                codes.append(cli.main(self.argv(starts, out)))
        artifacts = []
        for code, out in zip(codes, outs):
            run_dir = out / "two-robot"
            summary = json.loads((run_dir / "summary.json").read_text())
            artifacts.append((code, summary, simulation.trace_from_csv(run_dir / "trace.csv")))
            shutil.rmtree(out)
        steps = sum(int(summary["steps"]) for _, summary, _ in artifacts)
        return PassResult(
            **timing,
            steps=steps,
            ops=len(artifacts),
            outcome_failures=sum(summary["outcome"]["kind"] != "all_phases_met"
                                 for _, summary, _ in artifacts),
            digests=[_digest(trace.x, trace.u) for _, _, trace in artifacts],
            counters={"steps": steps,
                      "qp.nonstrict_steps": sum(int(np.count_nonzero(~trace.strict_cs))
                                                for _, _, trace in artifacts)},
            artifacts=artifacts,
        )

    def check(self, result: PassResult) -> dict[int, list[str]]:
        rng = np.random.default_rng([self.seed, 4])
        return {i: check_tour(sc, code, summary, trace, rng)
                for i, (sc, (code, summary, trace)) in enumerate(zip(self.scenarios,
                                                                      result.artifacts))}


def check_tour(sc, code: int, summary: dict, trace, rng: np.random.Generator) -> list[str]:
    """Exit code, separation, workspace, and KKT residuals at sampled states."""
    errors = []
    if code != 0 or summary["exit_code"] != 0:
        errors.append(f"exit code {code}, summary exit code {summary['exit_code']} "
                      f"({summary['outcome']['kind']})")
    if len(trace) == 0:
        return errors + ["empty trace"]
    cfg = TwoRobotConfig()
    p1, p2 = trace.x[:, 0:2], trace.x[:, 2:4]
    separation = float(np.min(np.linalg.norm(p1 - p2, axis=1)))
    if separation < cfg.d_m:
        errors.append(f"minimum separation {separation:.6g} < {cfg.d_m:g}")
    for agent, p in (("a1", p1), ("a2", p2)):
        wall = float(np.max(np.abs(p) - cfg.arena))
        hub = float(np.max(cfg.hub_radius ** 2 - np.sum(p * p, axis=1)))
        if max(wall, hub) > WORKSPACE_TOL:
            errors.append(f"{agent} leaves the workspace: square {wall:.3g}, hub {hub:.3g}")
    reach = summary["track_reach_times"]
    for k in _sample_steps(rng, len(trace), TWO_ROBOT_SAMPLES):
        goal, safes = tour_sets_at(sc.schedule, reach, float(trace.t[k]))
        problem = controller.assemble(sc.sys, goal, safes, sc.bounds, sc.params, trace.x[k])
        ref = qp.solve_qp(problem)
        z_rec = _scaled_decision(sc.bounds, trace.u[k], trace.delta1[k], trace.delta2[k])
        label = f"step {k}"
        errors += _decision_errors(problem, z_rec, ref, label)
        if ref.status is qp.SolveStatus.OPTIMAL:
            res = qp.kkt_residual(problem, ref)
            worst = max(res.stationarity, res.primal_violation, res.comp_slack)
            if worst > KKT_TOL:
                errors.append(f"{label}: KKT residual {worst:.3g} > {KKT_TOL:g}")
    return errors


# ---------------------------------------------------------------------------
# bounds-grid
# ---------------------------------------------------------------------------

def bounds_grid(seed: int, tiny: bool = False) -> dict:
    """The default grid with seeded mu and V0 values.

    Each mu moves by up to 0.5 % and each V0 by up to 1 % of its value, so
    that no grid point's cost, and so no latency percentile, moves by more
    than a few per cent from seed to seed.  alpha
    and delta1 stay exact: the default grid puts delta1 on the regime
    thresholds 2*sqrt(alpha1*alpha2) and at 0, and the time to settle near a
    threshold, hence the RK4 cost, grows without bound as delta1 nears it
    from below.  The step ``dt`` stays the default one.
    """
    rng = np.random.default_rng([seed, 5])
    grid = dict(TINY_GRID if tiny else cli.DEFAULT_BOUNDS_GRID)
    for key, spread in GRID_JITTER.items():
        grid[key] = [v * (1.0 + spread * rng.uniform(-1.0, 1.0)) for v in grid[key]]
    return grid


class BoundsGrid:
    name = "bounds-grid"
    pass_s = 6.0

    def __init__(self, seed: int, out_dir: Path, tiny: bool = False):
        self.out_dir = out_dir
        self.grid = bounds_grid(seed, tiny)

    def describe(self) -> str:
        return "bounds grid: " + "; ".join(
            f"{key}=[{', '.join(f'{v:.4g}' for v in self.grid[key])}]"
            for key in ("alpha", "mu", "delta1", "V0")) + f"; dt={self.grid['dt']:g}"

    def setup(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.grid_path = self.out_dir / "grid.json"
        self.grid_path.write_text(json.dumps(self.grid))

    def run_pass(self, on_op=lambda i: None, periodic: bool = True) -> PassResult:
        out = self.out_dir / "bounds-grid"
        shutil.rmtree(out, ignore_errors=True)
        results = []
        with contextlib.redirect_stdout(io.StringIO()), \
                timed_pass(cli, "simulate_scalar_v", scalar_work, periodic, results) as timing:
            on_op(0)
            code = cli.main(["--verify-bounds", "--grid-json", str(self.grid_path),
                             "--out", str(out)])
        table = (out / "bounds.csv").read_text()
        shutil.rmtree(out)
        rows = list(csv.DictReader(io.StringIO(table)))
        in_domain = [r for r in rows if r["in_domain"] == "True"]
        dt = self.grid["dt"]
        # on a hit the oracle records the hit step's time last
        steps = sum(round(float(res.times[-1]) / dt) for res in results)
        return PassResult(
            **timing,
            steps=steps,
            ops=len(in_domain),
            outcome_failures=sum(r["pass"] != "True" for r in in_domain),
            digests=[hashlib.sha256(table.encode()).hexdigest()],
            counters={"steps": steps, "fxts.rk4_calls": len(results)},
            artifacts=[(code, rows)],
        )

    def check(self, result: PassResult) -> dict[int, list[str]]:
        code, rows = result.artifacts[0]
        expected = math.prod(len(self.grid[k]) for k in ("alpha", "mu", "delta1", "V0"))
        table_errors = []
        if code != 0:
            table_errors.append(f"exit code {code}")
        if len(rows) != expected:
            table_errors.append(f"{len(rows)} table rows, expected {expected}")
        errors = {}
        in_domain = [r for r in rows if r["in_domain"] == "True"]
        for i, r in enumerate(in_domain):
            point = f"alpha={r['alpha1']} mu={r['mu']} delta1={r['delta1']} V0={r['V0']}"
            errs = list(table_errors) if i == 0 else []
            hit, bound = r["hit_time"], float(r["bound"])
            if r["pass"] != "True":
                errs.append(f"{point}: bound violated (hit {hit or 'none'}, bound {bound})")
            elif hit == "" or float(hit) > bound + 1e-6:
                errs.append(f"{point}: passes with hit {hit or 'none'} > bound {bound}")
            errors[i] = errs
        if not in_domain:
            errors[0] = table_errors + ["no in-domain grid point"]
        return errors


WORKLOADS = {w.name: w for w in (AccMix, TwoRobotTour, BoundsGrid)}
