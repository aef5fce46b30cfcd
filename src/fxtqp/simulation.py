"""Closed-loop simulation: explicit Euler under the QP controller.

A run executes a phase schedule: each phase names a goal set, a relative
deadline, and phase-specific safe sets layered on top of the global
ones.  Phases advance the moment the goal value drops to the phase's reach
tolerance; deadlines are checked, not waited for.  Safety is judged as the
paper defines it, forward invariance of {h_s <= 0}: the first step with a
positive safe-set value (beyond round-off) ends the run.  The trace records
every step, a fixed-time certificate per goal segment, and a single outcome.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from fxtqp.constraints import ControlAffineSystem, InputBounds, SetFunction
from fxtqp.controller import SolverFailure, SynthesisParams, synthesize
from fxtqp.fxts import certify_segment, worst_case

__all__ = [
    "Phase",
    "Schedule",
    "Outcome",
    "OutcomeKind",
    "Trace",
    "NonFiniteState",
    "step_euler",
    "run",
    "monitor",
    "trace_to_csv",
    "trace_from_csv",
]

_TIME_EPS = 1e-12
_SAFE_TOL = 1e-12   # round-off allowance on a recorded safe-set value


class NonFiniteState(RuntimeError):
    """A state component became NaN or infinite during integration."""


class OutcomeKind(Enum):
    ALL_PHASES_MET = "all_phases_met"
    DEADLINE_MISSED = "deadline_missed"
    SAFETY_VIOLATED = "safety_violated"
    SOLVER_FAILURE = "solver_failure"


@dataclass(frozen=True)
class Outcome:
    kind: OutcomeKind
    phase: int | None = None
    t: float | None = None
    safe_set: str | None = None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.kind is OutcomeKind.ALL_PHASES_MET


@dataclass(frozen=True)
class Phase:
    """One (goal set, deadline) leg of a schedule.

    ``reach_tol`` widens the arrival test to goal value <= reach_tol, for
    goals whose zero-sublevel set has empty interior (exact membership is
    then unreachable on a grid).  ``safe_extra`` holds the phase's own
    safe sets, e.g. the set currently being traversed.
    """

    goal: SetFunction
    deadline: float
    safe_extra: tuple[SetFunction, ...] = ()
    reach_tol: float = 0.0

    def __post_init__(self):
        if not self.deadline > 0:
            raise ValueError("phase deadline must be positive")
        # a goal never reached would otherwise never end the run
        if not math.isfinite(self.deadline):
            raise ValueError("phase deadline must be finite")


@dataclass(frozen=True)
class Schedule:
    """Phase sequences (tracks) on independent clocks, plus global safeties.

    Each track advances the moment its own current goal is met; the
    controller goal combines the unfinished tracks' current goals, and every
    track's current phase adds its extra safe sets.  The trace has one
    column per safe set, so all phases of a track must carry equally many,
    and no two safe sets may share a column name.
    One track is a plain phase sequence; multi-agent tours use one per
    agent, because synchronized arrivals would park the agents head-on.
    ``horizon``, when set, keeps running under the last phases' sets after
    every phase is met; None stops at the last reach, and a non-finite
    horizon, which would never stop, is refused.
    """

    tracks: tuple[tuple[Phase, ...], ...]
    global_safes: tuple[SetFunction, ...] = ()
    horizon: float | None = None

    def __post_init__(self):
        if self.horizon is not None and not math.isfinite(self.horizon):
            raise ValueError(f"schedule horizon must be finite or None, got {self.horizon}")
        if not self.tracks or any(not t for t in self.tracks):
            raise ValueError("every track needs at least one phase")
        for j, track in enumerate(self.tracks):
            if len({len(ph.safe_extra) for ph in track}) > 1:
                raise ValueError(f"track {j}: its phases carry different numbers of "
                                 "safe_extra sets, but the trace has one column per safe set")
        names = _safe_column_names(self)
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise ValueError(f"safe sets repeat trace column names: {', '.join(repeated)}")

    @property
    def phases(self) -> tuple[Phase, ...]:
        """The only track of a single-track schedule."""
        if len(self.tracks) != 1:
            raise ValueError(f"schedule has {len(self.tracks)} tracks, not one")
        return self.tracks[0]


@dataclass
class Trace:
    """Time-stamped closed-loop record of one run."""

    t: np.ndarray
    x: np.ndarray
    u: np.ndarray
    h_goal: np.ndarray
    h_safe: np.ndarray
    delta1: np.ndarray
    delta2: np.ndarray
    strict_cs: np.ndarray
    active_set_size: np.ndarray
    phase: np.ndarray
    safe_names: tuple[str, ...]
    dt: float
    # per-step QP working-set changes and scaled pre-clip box overshoot;
    # not in the CSV, so empty for a trace read back from one
    qp_iters: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    box_overshoot: np.ndarray = field(default_factory=lambda: np.zeros(0))
    outcome: Outcome | None = None
    reach_times: tuple[float | None, ...] = ()
    track_reach_times: tuple[tuple[float | None, ...], ...] = ()
    segments: tuple[dict, ...] = ()     # fxts.certify_segment, one per goal segment

    def __len__(self) -> int:
        return self.t.size


def step_euler(sys: ControlAffineSystem, x: np.ndarray, u: np.ndarray,
               dt: float) -> np.ndarray:
    """One explicit Euler step of the plant, disturbance included."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    rate = sys.f(x) + sys.g(x) @ u
    if sys.disturbance is not None:
        rate = rate + sys.disturbance(x)
    if rate.shape != x.shape:   # an (n, 1) drift would broadcast x to (n, n)
        raise ValueError(f"rate has shape {rate.shape}, the state {x.shape}")
    x_next = x + dt * rate
    if not np.isfinite(x_next).all():
        raise NonFiniteState(f"non-finite state after step from {x}")
    return x_next


def _positive_part_sum(pairs: Sequence[tuple[float, np.ndarray]],
                       n: int) -> tuple[float, np.ndarray]:
    """Value and gradient of the sum of positive parts of several goals,
    given each goal's (value, gradient) pair at the same state, in order."""
    h, grad = 0.0, None
    for v, gg in pairs:
        if v > 0.0:
            h += v
            grad = gg if grad is None else grad + gg
    return h, np.zeros(n) if grad is None else grad


def _joint_goal(goals: Sequence[SetFunction]) -> SetFunction:
    """Sum of positive parts of several goal functions.

    Zero exactly when every goal is met, and its reach-rate row drives all
    unmet goals at once; a max of the goals would drive only the worst one
    per step, starving the rest while their deadlines run.  ``run`` builds
    the same function from the pairs its reach test has already evaluated.
    """
    return SetFunction("joint_goal", lambda x: _positive_part_sum(
        [g.value_and_gradient(x) for g in goals], len(x)))


def _evaluated(pair: tuple[float, np.ndarray]) -> SetFunction:
    """A goal already evaluated at the state the controller is called at."""
    return SetFunction("goal", lambda x: pair)


def _safe_column_names(schedule) -> tuple[str, ...]:
    names = [s.name or f"safe{i}" for i, s in enumerate(schedule.global_safes)]
    for j, track in enumerate(schedule.tracks):
        for k in range(len(track[0].safe_extra)):
            names.append(f"phase_extra_{j}_{k}" if len(schedule.tracks) > 1
                         else f"phase_extra_{k}")
    return tuple(names)


@np.errstate(over="ignore", invalid="ignore")
def run(sys: ControlAffineSystem, schedule: Schedule, bounds: InputBounds,
        params: SynthesisParams, x0: np.ndarray, dt: float) -> Trace:
    """Close the loop from x0 until the schedule resolves.

    Per step: advance every track whose current goal is met, synthesize the
    input for the combined goal (the sum of the positive parts of the
    unfinished tracks' goals), record, monitor safety, then integrate.
    Each goal the reach test examines is evaluated once, and the controller
    goal is built from those (value, gradient) pairs.
    Safety is forward invariance of every {h_s <= 0}: a recorded safe-set
    value above a round-off allowance of 1e-12 ends the run
    ``safety_violated`` at that step.  Rows or a state that overflow or
    turn NaN end it ``solver_failure``, so numpy does not warn of them.
    Each goal segment, a maximal run of steps whose controller goal is
    built from the same phase goals, gets a certificate.
    Deterministic: identical inputs give bit-identical traces.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be a finite number > 0, got {dt}")
    x = np.asarray(x0, dtype=float).copy()
    tracks = schedule.tracks
    n_tracks = len(tracks)
    lengths = [len(tr) for tr in tracks]
    n_legs = max(lengths)
    safe_names = _safe_column_names(schedule)

    rows: list[list] = []   # trace.csv's columns, then qp_iters and box_overshoot
    reach: list[list[float | None]] = [[None] * lengths[j] for j in range(n_tracks)]

    t = 0.0
    idx = [0] * n_tracks
    start = [0.0] * n_tracks
    step = 0
    warm: tuple[int, ...] | None = None
    outcome: Outcome | None = None
    seg_goals: list[SetFunction] = []
    seg_starts: list[int] = []

    advanced = True
    while outcome is None:
        # advance every track through goals already met, keeping the pairs
        # of the goals still pending; the rest changes only on an advance
        pairs = []
        for j, track in enumerate(tracks):
            while idx[j] < lengths[j]:
                ph = track[idx[j]]
                pair = ph.goal.value_and_gradient(x)
                if pair[0] <= ph.reach_tol:
                    reach[j][idx[j]] = t
                    idx[j] += 1
                    start[j] = t
                    advanced = True
                else:
                    pairs.append(pair)
                    break
        if not pairs and (schedule.horizon is None or t >= schedule.horizon - _TIME_EPS):
            outcome = Outcome(kind=OutcomeKind.ALL_PHASES_MET, t=t)
            break
        if advanced:
            current = [tracks[j][min(idx[j], lengths[j] - 1)] for j in range(n_tracks)]
            unmet = [j for j in range(n_tracks) if idx[j] < lengths[j]]
            pending = [current[j].goal for j in unmet] or [ph.goal for ph in current]
            new_segment = pending != seg_goals
            safes = schedule.global_safes + tuple(
                s for ph in current for s in ph.safe_extra)
            phase = min(min(idx), n_legs - 1)
        miss = next((j for j in unmet
                     if t - start[j] > current[j].deadline + _TIME_EPS), None)
        if miss is not None:
            outcome = Outcome(kind=OutcomeKind.DEADLINE_MISSED, phase=idx[miss], t=t,
                              message=f"track {miss} leg {idx[miss]} still unmet "
                                      f"after {current[miss].deadline} s")
            break

        if not pairs:   # every phase met, running on to the horizon
            pairs = [g.value_and_gradient(x) for g in pending]
        goal = _evaluated(pairs[0] if len(pairs) == 1
                          else _positive_part_sum(pairs, len(x)))
        try:
            decision = synthesize(sys, goal, safes, bounds, params, x,
                                  warm_start=warm)
        except SolverFailure as exc:
            outcome = Outcome(kind=OutcomeKind.SOLVER_FAILURE, phase=min(idx), t=t,
                              message=str(exc))
            break
        warm = decision.active_set

        hs_vals = decision.h_safe
        rows.append([t, *x.tolist(), *decision.u.tolist(), decision.h_goal,
                     *hs_vals.tolist(), decision.delta1, decision.delta2,
                     decision.strict_cs, len(decision.active_set),
                     phase, decision.iterations,
                     decision.box_overshoot])
        if new_segment:
            seg_goals = pending
            seg_starts.append(len(rows) - 1)
        advanced = new_segment = False

        if (hs_vals > _SAFE_TOL).any():
            j = int(np.argmax(hs_vals))
            outcome = Outcome(kind=OutcomeKind.SAFETY_VIOLATED, phase=min(idx), t=t,
                              safe_set=safe_names[j],
                              message=f"h_s[{safe_names[j]}] = {hs_vals[j]:.6g}")
            break

        try:
            x = step_euler(sys, x, decision.u, dt)
        except NonFiniteState as exc:
            outcome = Outcome(kind=OutcomeKind.SOLVER_FAILURE, phase=min(idx), t=t,
                              message=f"non-finite state: {exc}")
            break
        step += 1
        t = step * dt

    width = len(_trace_header(len(x), bounds.m, safe_names)) + 2
    steps = _step_fields(np.array(rows, dtype=float).reshape(-1, width),
                         len(x), bounds.m, safe_names)
    t_rec, hg, d1 = steps["t"], steps["h_goal"], steps["delta1"]
    segments = tuple(
        certify_segment(params.gains, float(t_rec[a]), float(t_rec[b - 1]), float(hg[a]),
                        float(d1[a:b].max()))
        for a, b in zip(seg_starts, seg_starts[1:] + [len(rows)]))

    # joint leg completion: the later of the tracks' leg reach times
    joint: list[float | None] = []
    for k in range(n_legs):
        times = [reach[j][k] for j in range(n_tracks) if k < lengths[j]]
        joint.append(None if any(v is None for v in times) else max(times))

    return Trace(
        **steps,
        dt=dt,
        outcome=outcome,
        reach_times=tuple(joint),
        track_reach_times=tuple(tuple(r) for r in reach),
        segments=segments,
    )


def _chatter_steps(u: np.ndarray, bounds: InputBounds) -> int:
    """Steps k >= 2 at which some input reverses across more than half its
    box twice running: |u_k - u_k-1| and |u_k-1 - u_k-2| both exceed
    (upper - lower) / 2, with opposite signs."""
    jump = np.diff(u, axis=0)
    big = np.abs(jump) > (bounds.upper - bounds.lower) / 2
    flips = big[1:] & big[:-1] & (jump[1:] * jump[:-1] < 0)
    return int(flips.any(axis=1).sum())


def monitor(trace: Trace, d_min: float | None = None,
            bounds: InputBounds | None = None) -> dict:
    """A run's ``summary.json`` body, without ``scenario`` and ``exit_code``.

    Outcome, reach times, the statistics of the acceptance suite, the
    fixed-time certificates (one per goal segment and their worst case) and
    the QP counters, in the written key order.  ``chatter_steps`` counts
    the steps where the input jumps across half its box and back (see
    :func:`_chatter_steps`) and needs the run's input ``bounds``.
    ``min_separation`` is recovered from a safe set named ``separation`` of
    the form d_min**2 - distance**2 when ``d_min`` is given.  An empty
    trace yields None statistics, as does a statistic whose argument is
    not given; a trace read back from CSV carries no outcome and no QP
    counters, so those read None too.
    """
    empty = len(trace) == 0
    counted = trace.qp_iters.size > 0
    max_h = None if empty else {name: float(np.max(trace.h_safe[:, j]))
                                for j, name in enumerate(trace.safe_names)}
    separation = None
    if d_min is not None and max_h and "separation" in max_h:
        separation = math.sqrt(max(0.0, d_min * d_min - max_h["separation"]))
    outcome = trace.outcome
    return {
        "outcome": None if outcome is None else dict(vars(outcome), kind=outcome.kind.value),
        "steps": len(trace),
        "dt": trace.dt,
        "reach_times": list(trace.reach_times) if trace.reach_times else None,
        "track_reach_times": [list(r) for r in trace.track_reach_times],
        "max_abs_u": None if empty else [float(v) for v in np.max(np.abs(trace.u), axis=0)],
        "chatter_steps": None if empty or bounds is None else _chatter_steps(trace.u, bounds),
        "max_h_per_safe_set": max_h,
        "min_separation": separation,
        "max_delta1": None if empty else float(np.max(trace.delta1)),
        "fixed_time_certificate": worst_case(trace.segments),
        "segments": list(trace.segments),
        "solver": {
            "iterations_mean": float(trace.qp_iters.mean()) if counted else None,
            "iterations_max": int(trace.qp_iters.max()) if counted else None,
            "nonstrict_steps": int((~trace.strict_cs).sum()),
            "max_box_overshoot": float(trace.box_overshoot.max()) if counted else None,
        },
    }


def _trace_header(n: int, m: int, safe_names: Sequence[str]) -> list[str]:
    """trace.csv's columns: a trace's step fields in table order."""
    return (["t"] + [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(m)]
            + ["h_goal"] + [f"hs_{name}" for name in safe_names]
            + ["delta1", "delta2", "strict_cs", "active_set_size", "phase"])


def _step_fields(table: np.ndarray, n: int, m: int, safe_names: Sequence[str]) -> dict:
    """Trace's step fields sliced from a table in :func:`_trace_header` order.

    Two trailing columns beyond that layout are the QP counters
    ``qp_iters`` and ``box_overshoot``.
    """
    h = 1 + n + m                # h_goal
    d = h + 1 + len(safe_names)  # delta1
    fields = dict(
        t=table[:, 0], x=table[:, 1:1 + n], u=table[:, 1 + n:h], h_goal=table[:, h],
        h_safe=table[:, h + 1:d], delta1=table[:, d], delta2=table[:, d + 1],
        strict_cs=table[:, d + 2].astype(bool),
        active_set_size=table[:, d + 3].astype(int),
        phase=table[:, d + 4].astype(int), safe_names=tuple(safe_names))
    if table.shape[1] > d + 5:
        fields.update(qp_iters=table[:, d + 5].astype(int), box_overshoot=table[:, d + 6])
    return fields


def trace_to_csv(trace: Trace, path) -> None:
    """Write the step records with 17 significant digits (lossless doubles).

    The header goes through ``csv.writer``, which quotes a safe-set name
    that needs it; the numeric body is one ``%`` format per row, the same
    bytes that writer would give for these fields.
    """
    table = np.column_stack([trace.t, trace.x, trace.u, trace.h_goal, trace.h_safe,
                             trace.delta1, trace.delta2, trace.strict_cs,
                             trace.active_set_size, trace.phase])
    row = ",".join(["%.17g"] * (table.shape[1] - 3) + ["%d"] * 3) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(_trace_header(trace.x.shape[1], trace.u.shape[1],
                                              trace.safe_names))
        fh.write((row * len(table)) % tuple(table.ravel().tolist()))


def trace_from_csv(path) -> Trace:
    """Re-parse a trace CSV written by :func:`trace_to_csv`.

    Run metadata (outcome, reach times) lives in the summary JSON, not the
    CSV; the returned trace carries the step records only.  A header that
    is not a trace layout raises ValueError.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = [[float(v) for v in row] for row in reader]
    h = header.index("h_goal") if "h_goal" in header else 0
    n = sum(c.startswith("x") for c in header[1:h])
    safe_names = tuple(c[3:] for c in header[h + 1:-5])
    if header != _trace_header(n, h - 1 - n, safe_names):
        raise ValueError(f"{path}: not a trace.csv header: {','.join(header)}")
    steps = _step_fields(np.array(rows, dtype=float).reshape(-1, len(header)),
                         n, h - 1 - n, safe_names)
    t = steps["t"]
    return Trace(**steps, dt=float(t[1] - t[0]) if t.size >= 2 else 0.0)
