"""Closed-loop simulation: explicit Euler under the QP controller.

A run executes a phase schedule: each phase names a goal set, a relative
deadline, and phase-specific safe sets layered on top of the global
ones.  Phases advance the moment the goal value drops to the phase's reach
tolerance; deadlines are checked, not waited for (:meth:`Schedule.advance`
holds the rule): the first step past the deadline of a leg still unmet ends
the run.  Safety is judged as the paper defines it, forward invariance of
{h_s <= 0}: the first step with a positive safe-set value (beyond round-off)
ends the run.  The trace records every step, a fixed-time certificate per
goal segment, and a single outcome.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Sequence

import numpy as np

from fxtqp.constraints import ControlAffineSystem, InputBounds, SetFunction
from fxtqp.controller import CompiledQp, SolverFailure, SynthesisParams, synthesize
from fxtqp.fxts import certify_segment, worst_case

__all__ = [
    "Phase",
    "Schedule",
    "Outcome",
    "OutcomeKind",
    "Trace",
    "step_euler",
    "run",
    "monitor",
    "trace_to_csv",
    "trace_from_csv",
]

_TIME_EPS = 1e-12   # round-off allowance on a step time k * dt against a deadline or horizon
_SAFE_TOL = 1e-12   # round-off allowance on a recorded safe-set value


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

    ``reach_tol`` >= 0 widens the arrival test to goal value <= reach_tol, for
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
        # a NaN tolerance is never met, an infinite one met at once; a
        # negative one would leave a pending goal below zero in the goal sum
        if not (math.isfinite(self.reach_tol) and self.reach_tol >= 0):
            raise ValueError(f"phase reach_tol must be finite and >= 0, got {self.reach_tol}")


@dataclass(frozen=True)
class Schedule:
    """Phase sequences (tracks) on independent clocks, plus global safeties.

    Each track advances the moment its own current goal is met; the
    controller goal combines the unfinished tracks' current goals, and every
    track's current phase adds its extra safe sets.  The trace has one
    column per safe set, so all phases of a track must carry equally many,
    and no two safe sets may share a column name.
    One track is a plain phase sequence; multi-agent tours use one per
    agent, because each agent's legs and deadlines run from its own arrivals.
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

    def in_force(self, done: Sequence[int]) -> tuple[list[SetFunction], tuple[SetFunction, ...]]:
        """Once track j has met ``done[j]`` legs: the unfinished tracks' current
        goals (every track's last once all are met), and the safe sets in force,
        ``global_safes`` then each track's current (or last) ``safe_extra``."""
        current = [tr[min(d, len(tr) - 1)] for tr, d in zip(self.tracks, done, strict=True)]
        pending = [ph.goal for ph, tr, d in zip(current, self.tracks, done) if d < len(tr)]
        return (pending or [ph.goal for ph in current],
                self.global_safes + tuple(s for ph in current for s in ph.safe_extra))

    def advance(self, x: np.ndarray, t: float, met: Sequence[list[float]]
                ) -> tuple[list[tuple[float, np.ndarray]], int | None]:
        """At state x and time t, append t to ``met[j]``, track j's reach times,
        for each leg it meets in turn: goal value at most ``reach_tol``, at
        most ``deadline`` (plus 1e-12 s for step times k * dt) after the
        track's previous reach, or after t = 0.  A late reach is none: the leg
        stays unmet.  Returns the (value, gradient) pairs of the pending goals
        in track order, and the first track past its deadline, or None."""
        pairs, miss = [], None
        for j, (track, times) in enumerate(zip(self.tracks, met, strict=True)):
            while len(times) < len(track):
                ph = track[len(times)]
                pair = ph.goal.value_and_gradient(x)
                late = t - (times[-1] if times else 0.0) > ph.deadline + _TIME_EPS
                if pair[0] <= ph.reach_tol and not late:
                    times.append(t)
                else:
                    pairs.append(pair)
                    if late and miss is None:
                        miss = j
                    break
        return pairs, miss


def _step(width, dtype=float, prefix: str | None = None):
    default = {} if prefix else {"default_factory": lambda: np.zeros(0, dtype)}
    return field(metadata={"step": (width, dtype, prefix)}, **default)


@dataclass
class Trace:
    """Time-stamped closed-loop record of one run.

    Its ``_step`` fields declare the per-step record once, in the column order
    of ``run``'s table and ``trace.csv``: width (1, "n" states, "m" inputs or
    "k" safe sets), dtype, and CSV prefix, None for a counter kept off the CSV.
    """

    t: np.ndarray = _step(1, prefix="t")
    x: np.ndarray = _step("n", prefix="x")
    u: np.ndarray = _step("m", prefix="u")
    h_goal: np.ndarray = _step(1, prefix="h_goal")
    h_safe: np.ndarray = _step("k", prefix="hs_")
    delta1: np.ndarray = _step(1, prefix="delta1")
    delta2: np.ndarray = _step(1, prefix="delta2")
    strict_cs: np.ndarray = _step(1, bool, "strict_cs")
    active_set_size: np.ndarray = _step(1, int, "active_set_size")
    phase: np.ndarray = _step(1, int, "phase")
    safe_names: tuple[str, ...]
    dt: float
    qp_iters: np.ndarray = _step(1, int)    # QP working-set changes
    box_overshoot: np.ndarray = _step(1)    # scaled pre-clip box overshoot
    outcome: Outcome | None = None
    track_reach_times: tuple[tuple[float | None, ...], ...] = ()   # per track and leg
    segments: tuple[dict, ...] = ()     # fxts.certify_segment per goal segment, up to a reach

    def __len__(self) -> int:
        return self.t.size

    @property
    def reach_times(self) -> tuple[float | None, ...]:
        """Per leg, the later of the tracks' reach times of that leg, None
        while a track that has the leg has not met it."""
        legs = [[r[k] for r in self.track_reach_times if k < len(r)]
                for k in range(max(map(len, self.track_reach_times), default=0))]
        return tuple(None if None in times else max(times) for times in legs)


_STEP_FIELDS = tuple((f.name, *f.metadata["step"]) for f in fields(Trace) if "step" in f.metadata)


def step_euler(sys: ControlAffineSystem, x: np.ndarray, rate: np.ndarray,
               dt: float) -> np.ndarray:
    """One explicit Euler step of the plant from the model rate f(x) + g(x) u
    at x (a decision's ``rate``), with the plant's disturbance added; a
    new state that is not finite is a :class:`fxtqp.controller.SolverFailure`."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if sys.disturbance is not None:
        rate = rate + sys.disturbance(x)
    if rate.shape != x.shape:   # an (n, 1) drift would broadcast x to (n, n)
        raise ValueError(f"rate has shape {rate.shape}, the state {x.shape}")
    x_next = x + dt * rate
    if not all(map(math.isfinite, x_next.tolist())):
        raise SolverFailure(f"non-finite state after step from {x}")
    return x_next


def _goal_sum(pairs: Sequence[tuple[float, np.ndarray]]) -> tuple[float, np.ndarray]:
    """Value and gradient of the sum of several goals, given each goal's
    (value, gradient) pair at the same state, in order."""
    h, grad = pairs[0]
    for v, gg in pairs[1:]:
        h += v
        grad = grad + gg
    return h, grad


def _joint_goal(goals: Sequence[SetFunction]) -> SetFunction:
    """Sum of the pending goals' functions.

    Its reach-rate row drives all pending goals at once; a max of the goals
    would drive only the worst one per step, starving the rest while their
    deadlines run.  ``run`` builds the same function from the pairs
    :meth:`Schedule.advance` evaluated.
    """
    return SetFunction("joint_goal", lambda x: _goal_sum([g.value_and_gradient(x) for g in goals]))


def _safe_column_names(schedule) -> tuple[str, ...]:
    names = [s.name or f"safe{i}" for i, s in enumerate(schedule.global_safes)]
    for j, track in enumerate(schedule.tracks):
        for k in range(len(track[0].safe_extra)):
            names.append(f"phase_extra_{j}_{k}" if len(schedule.tracks) > 1
                         else f"phase_extra_{k}")
    return tuple(names)


@np.errstate(over="ignore", invalid="ignore")
def run(sys: ControlAffineSystem, schedule: Schedule, bounds: InputBounds,
        params: SynthesisParams, x0: np.ndarray) -> Trace:
    """Close the loop from x0 until the schedule resolves, in Euler steps of
    ``params.dt``, from one :class:`fxtqp.controller.CompiledQp` built
    before the first step.

    Per step: :meth:`Schedule.advance` records the legs met and ends the run
    at the first track past its deadline; then synthesize the input under
    :meth:`Schedule.in_force`'s safe sets for the sum of the pending goals,
    built from the (value, gradient) pairs ``advance`` evaluated, record,
    monitor safety, then integrate.
    Safety is forward invariance of every {h_s <= 0}: a recorded safe-set
    value above a round-off allowance of 1e-12 ends the run
    ``safety_violated`` at that step.  Rows or a state that overflow or
    turn NaN end it ``solver_failure``, so numpy does not warn of them.
    The recorded reach times cut the steps into goal segments, each
    certified up to the step before its reach or the run's last step; the
    run-on after every leg is met makes no reach claim and gets none.
    Deterministic: identical inputs give bit-identical traces.
    """
    dt = params.dt
    x = np.asarray(x0, dtype=float).copy()
    tracks = schedule.tracks
    n_legs = max(map(len, tracks))
    safe_names = _safe_column_names(schedule)
    cqp = CompiledQp(bounds, params, len(safe_names))

    rows: list[list] = []   # Trace's step fields in their declared order
    met: list[list[float]] = [[] for _ in tracks]   # each track's reach times

    t = 0.0
    done: list[int] | None = None
    step = 0
    warm: tuple[int, ...] | None = None
    outcome: Outcome | None = None

    while outcome is None:
        pairs, miss = schedule.advance(x, t, met)
        if not pairs and (schedule.horizon is None or t >= schedule.horizon - _TIME_EPS):
            outcome = Outcome(kind=OutcomeKind.ALL_PHASES_MET, t=t)
            break
        if miss is not None:
            leg = len(met[miss])
            outcome = Outcome(kind=OutcomeKind.DEADLINE_MISSED, phase=leg, t=t,
                              message=f"track {miss} leg {leg} still unmet "
                                      f"after {tracks[miss][leg].deadline} s")
            break
        counts = [len(r) for r in met]
        if counts != done:   # the sets in force change only on a reach
            done = counts
            pending, safes = schedule.in_force(done)
            phase = min(min(done), n_legs - 1)

        if not pairs:   # every phase met, running on to the horizon
            pairs = [g.value_and_gradient(x) for g in pending]
        goal = pairs[0] if len(pairs) == 1 else _goal_sum(pairs)
        try:
            decision = synthesize(sys, goal, safes, cqp, x, warm_start=warm)
            warm = decision.active_set

            hs_vals = decision.h_safe.tolist()
            rows.append([t, *x.tolist(), *decision.u.tolist(), goal[0],
                         *hs_vals, decision.delta1, decision.delta2,
                         decision.strict_cs, len(decision.active_set),
                         phase, decision.iterations,
                         decision.box_overshoot])

            # no value is NaN (the rows are checked finite), so a plain max
            # gives numpy's maximum
            if hs_vals and max(hs_vals) > _SAFE_TOL:
                j = int(np.argmax(hs_vals))
                outcome = Outcome(kind=OutcomeKind.SAFETY_VIOLATED, phase=min(done), t=t,
                                  safe_set=safe_names[j],
                                  message=f"h_s[{safe_names[j]}] = {hs_vals[j]:.6g}")
                break

            x = step_euler(sys, x, decision.rate, dt)
        except SolverFailure as exc:
            outcome = Outcome(kind=OutcomeKind.SOLVER_FAILURE, phase=min(done), t=t,
                              message=str(exc))
            break
        step += 1
        t = step * dt

    layout, columns = _layout(len(x), bounds.m, safe_names)
    table = np.array(rows, dtype=float).reshape(-1, len(columns))
    steps = {name: table[:, where].astype(dtype, copy=False) for name, dtype, _, where in layout}
    t_rec, hg, d1 = steps["t"], steps["h_goal"], steps["delta1"]
    reached = sorted({r for times in met for r in times})   # each its step's t, found exactly
    cuts = [0, *np.searchsorted(t_rec, reached).tolist(), len(rows)]
    if all(len(r) == len(tr) for r, tr in zip(met, tracks)):
        cuts.pop()   # the run-on after the last reach claims no reach
    segments = tuple(
        certify_segment(params.gains, float(t_rec[a]), float(t_rec[b - 1]), float(hg[a]),
                        float(d1[a:b].max()))
        for a, b in zip(cuts, cuts[1:]) if a < b)

    return Trace(
        **steps,
        safe_names=safe_names,
        dt=dt,
        outcome=outcome,
        track_reach_times=tuple((*r, *[None] * (len(tr) - len(r))) for r, tr in zip(met, tracks)),
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


def _layout(n: int, m: int, safe_names: Sequence[str], csv_only: bool = False) -> tuple:
    """Trace's step fields in table order as (name, dtype, column names, column
    index or slice), and all column names; ``csv_only`` drops the counters."""
    suffixes = {1: [""], "n": range(n), "m": range(m), "k": safe_names}
    layout, names = [], []
    for name, width, dtype, prefix in _STEP_FIELDS:
        if prefix or not csv_only:
            a = len(names)
            names += [f"{prefix or name}{s}" for s in suffixes[width]]
            layout.append((name, dtype, names[a:], a if width == 1 else slice(a, len(names))))
    return layout, names


def trace_to_csv(trace: Trace, path) -> None:
    """Write the step records with 17 significant digits (lossless doubles).

    The header goes through ``csv.writer``, which quotes a safe-set name
    that needs it; the numeric body is one ``%`` format per row, the same
    bytes that writer would give for these fields.
    """
    layout, header = _layout(trace.x.shape[1], trace.u.shape[1], trace.safe_names, csv_only=True)
    table = np.column_stack([getattr(trace, name) for name, *_ in layout])
    row = ",".join("%.17g" if dtype is float else "%d"
                   for _, dtype, columns, _ in layout for _ in columns) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write((row * len(table)) % tuple(table.ravel().tolist()))


def trace_from_csv(path) -> Trace:
    """Re-parse a trace CSV written by :func:`trace_to_csv`.

    Run metadata (outcome, reach times) lives in the summary JSON, not the
    CSV; the returned trace carries the step records only.  A header that
    is not a trace layout raises ValueError, as do repeated safe-set columns,
    a row with other than the header's cell count, a cell that is not a
    number, and an integer cell that is no whole number >= 0 (bool: 0 or 1).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        rows = []
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} cells, "
                                 f"the header {len(header)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:   # float() names neither the file nor the line
                raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    # a wider field's prefix starts its columns and no other
    found = {width: [c[len(prefix):] for c in header if c.startswith(prefix)]
             for _, width, _, prefix in _STEP_FIELDS if prefix and width != 1}
    safe_names = tuple(found["k"])
    layout, columns = _layout(len(found["n"]), len(found["m"]), safe_names, csv_only=True)
    if header != columns:
        raise ValueError(f"{path}: not a trace.csv header: {','.join(header)}")
    repeated = sorted({n for n in safe_names if safe_names.count(n) > 1})
    if repeated:
        raise ValueError(f"{path}: safe-set columns repeat: {', '.join(repeated)}")
    table = np.array(rows, dtype=float).reshape(-1, len(header))
    for name, dtype, _, where in layout:
        # a cast would read NaN and 2 as True, inf as int64's minimum, 2.5 as
        # 2; int64 holds every whole double below 2**63
        col, top = table[:, where], 2 if dtype is bool else 2.0 ** 63
        if dtype is not float and not np.all((col >= 0) & (col < top) & (col == np.floor(col))):
            raise ValueError(f"{path}: column {name} holds a value that is not "
                             f"{'0 or 1' if dtype is bool else 'a whole number >= 0'}")
    steps = {name: table[:, where].astype(dtype, copy=False) for name, dtype, _, where in layout}
    t = steps["t"]
    return Trace(**steps, safe_names=safe_names, dt=float(t[1] - t[0]) if t.size >= 2 else 0.0)
