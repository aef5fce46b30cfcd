"""The synthesis QP: its objective, its rows, and its solve at a state.

The decision vector is z = (v_s, delta1, delta2): the scaled input, the
reach-rate slack, and the invariance slack.  Both sides of the QP are
built here, so this module alone knows z's layout.  :class:`CompiledQp`
builds once per run the objective

    0.5 * (|v_s|^2 + w1*delta1^2 + w2*delta2^2) + q1*delta1

from the slack weights of :class:`SynthesisParams`, the input box of
:class:`fxtqp.constraints.InputBounds` in the input columns and the two
slack rows of the Euler step; at each state :func:`qp_rows` fills in one
reach-rate row for the goal set and one invariance row per safe set.
Inputs are scaled component-wise by their bound magnitude inside the
solver (v = scale * v_s) so the Hessian stays well conditioned when
physical inputs are large, and the unit weight on v_s weighs each input
relative to its bound; results are reported in physical units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from fxtqp import qp
from fxtqp.constraints import ControlAffineSystem, InputBounds, SetFunction
from fxtqp.fxts import FxtsGains, alpha_from_deadline

__all__ = ["SynthesisParams", "CompiledQp", "ControlDecision", "SolverFailure", "qp_rows",
           "assemble", "synthesize"]


class SolverFailure(RuntimeError):
    """The synthesis QP could not be built from finite rows or solved.

    The QP is feasible by construction whenever the state is outside the
    goal set, so this is escalated instead of silently falling back to a
    saturated heuristic input; rows that overflow or turn NaN mean the
    state has left what the model covers.
    """


@dataclass(frozen=True)
class SynthesisParams:
    """Deadline, derived gains, and slack weights of the synthesis QP.

    ``gains`` is derived from (T_ud, mu): alpha_from_deadline meets T_ud.
    The scaled input has weight 1 (see :class:`CompiledQp`).
    ``dt`` is the step of the forward Euler loop that ``simulation.run``
    drives with these params; the compiled QP keeps delta1 >= -1/dt and
    delta2 <= 0.5/dt (see :class:`CompiledQp` and :func:`qp_rows`).
    """

    T_ud: float
    mu: float
    dt: float
    gains: FxtsGains = field(init=False)
    w1: float = 1.0
    w2: float = 1.0
    q1: float = 100.0

    def __post_init__(self):
        if not (self.T_ud > 0 and self.mu > 1):
            raise ValueError("need T_ud > 0 and mu > 1")
        object.__setattr__(self, "gains", alpha_from_deadline(self.T_ud, self.mu))
        for name in ("w1", "w2", "q1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # the Euler rows hold 1/dt, which overflows for a subnormal dt
        if not (math.isfinite(self.dt) and self.dt > 0 and math.isfinite(1.0 / self.dt)):
            raise ValueError(f"dt must be a finite number > 0 with a finite 1/dt, got {self.dt}")
        if self.w1 <= 0 or self.w2 <= 0 or self.q1 <= 0:
            raise ValueError("objective weights must be strictly positive")


@dataclass(frozen=True)
class CompiledQp:
    """The synthesis QP's part that no state changes, built once per run.

    ``n_safe`` is the number of safe sets each step passes.  Built from the
    bounds and params, all read-only: ``objective``, the row-less
    :class:`fxtqp.qp.QpProblem` over z, which checks and factors it;
    ``rows``, the constant [A | b] in :func:`qp_rows`' order, the box over
    the scaled input, zeros in the 1 + n_safe state rows, and the Euler rows
    of ``params.dt``; and ``box_floats``, the input scale
    (``InputBounds.scale``), lower and upper bounds as Python floats for the
    input clip.
    """

    bounds: InputBounds
    params: SynthesisParams
    n_safe: int
    objective: qp.QpProblem = field(init=False, repr=False, compare=False)
    rows: np.ndarray = field(init=False, repr=False, compare=False)
    box_floats: tuple[tuple[float, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p, lo, hi, m = self.params, self.bounds.lower, self.bounds.upper, self.bounds.m
        H = np.diag(np.concatenate([np.ones(m), [p.w1, p.w2]]))
        F = np.concatenate([np.zeros(m), [p.q1, 0.0]])
        scale = self.bounds.scale()
        rows = np.zeros((2 * m + 1 + self.n_safe + 2, m + 3))
        rows[0:2 * m:2, :m], rows[0:2 * m:2, -1] = np.diag(scale), hi
        rows[1:2 * m:2, :m], rows[1:2 * m:2, -1] = np.diag(-scale), -lo
        rows[-2, m], rows[-2, -1] = -1.0, 1.0 / p.dt
        rows[-1, m + 1], rows[-1, -1] = 1.0, 0.5 / p.dt
        for arr in (H, F, rows):
            arr.setflags(write=False)
        object.__setattr__(self, "objective", qp.QpProblem(H=H, F=F, A=(), b=()))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "box_floats", tuple(tuple(v.tolist()) for v in (scale, lo, hi)))


@dataclass
class ControlDecision:
    """Solved control input, the model rate it gives, and the slack, solver
    and regularity diagnostics."""

    u: np.ndarray
    delta1: float
    delta2: float
    active_set: tuple[int, ...]
    strict_cs: bool
    iterations: int         # working-set changes of the QP solve
    box_overshoot: float    # scaled distance the solved input left its box, >= 0
    h_safe: np.ndarray      # safe-set values at the state: the rows' delta2 column
    rate: np.ndarray        # f(x) + g(x) u from the rows' f(x), g(x); no disturbance


def _clamped_power_sum(h: float, gains: FxtsGains) -> float:
    # max{0, h}**gamma, exact zero at and below the set boundary
    if h <= 0.0:
        return 0.0
    try:
        return gains.alpha1 * math.pow(h, gains.gamma1) + gains.alpha2 * math.pow(h, gains.gamma2)
    except OverflowError:   # a finite h whose power is not: a non-finite row
        return math.inf


def qp_rows(sys: ControlAffineSystem, cqp: CompiledQp, goal: tuple[float, np.ndarray],
            safes: Sequence[SetFunction],
            x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The synthesis QP's rows at x, built in one pass and checked finite.

    ``goal`` is the goal set's (value, gradient) pair at x.  The system's
    f(x) and g(x) are evaluated once here.  Rows are over z = (v_s, delta1,
    delta2), with the input v = scale * v_s (``InputBounds.scale``), in this
    order:

    - the input box, per input i the pair v_i <= upper_i, -v_i <= -lower_i;
    - the reach-rate row
      Lf·h_g + Lg·h_g v - delta1*h_g <= -alpha1*max(0,h_g)**gamma1
      - alpha2*max(0,h_g)**gamma2;
    - one invariance row Lf·h_s + Lg·h_s v <= -delta2*h_s per safe set,
      all sharing delta2 (on the boundary h_s = 0 the row reduces to
      tangency);
    - last, so the rows before them keep their indices, the two rows of
      one forward Euler step of size dt, the step of the loop the
      decision drives: -delta1 <= 1/dt, since one step of V' = delta1*V
      gives (1 + delta1*dt)*V, which flips sign below delta1*dt = -1 and
      grows below -2 (a decay rate the step cannot follow makes the loop
      flip its input every other step); and delta2 <= 0.5/dt, since one
      step of h_s' <= -delta2*h_s gives h_s + dt*h_s' <= (1 - delta2*dt)*h_s,
      which keeps half the margin h_s < 0 for the step's curvature term
      (above 1/dt one step crosses the barrier).

    Only the state rows are written; the rest are ``cqp.rows``' own, and a
    safe-set count other than ``cqp.n_safe`` is a ValueError.  Each safe
    set is called once (one call gives its value and gradient), and its
    value h_s is kept only in its row's delta2 entry, the column
    rows[2m + 1:-2, m + 1].  Rows that overflow or turn NaN (a state or set
    far outside its model) are a :class:`SolverFailure`, like an
    unsolvable QP.

    Returns (rows, fx, gx): the rows as one fresh array [A | b],
    A = rows[:, :-1] and b = rows[:, -1], and the f(x) and g(x) they used.
    """
    if len(safes) != cqp.n_safe:
        raise ValueError(f"{len(safes)} safe sets for a QP compiled for {cqp.n_safe}")
    fx = sys.f(x)
    gx = sys.g(x)
    rows = cqp.rows.copy()
    A, b = rows[:, :-1], rows[:, -1]
    m = cqp.bounds.m
    k = 2 * m

    # input columns hold the Lie derivatives Lg·h until scaled at the end
    h_goal, grad = goal
    A[k, :m] = grad.dot(gx)
    A[k, m] = -h_goal
    b[k] = -float(grad.dot(fx)) - _clamped_power_sum(h_goal, cqp.params.gains)

    # the invariance rows from one gradient matrix: row j of G is grad h_s_j
    G = np.empty((len(safes), len(x)))
    for j, s in enumerate(safes):
        A[k + 1 + j, m + 1], G[j] = s.value_and_gradient(x)
    end = k + 1 + len(safes)
    A[k + 1:end, :m] = G.dot(gx)
    b[k + 1:end] = -G.dot(fx)
    A[k:end, :m] *= cqp.bounds.scale()
    if not np.isfinite(rows).all():
        raise SolverFailure(f"synthesis QP rows are not finite at x={np.asarray(x)}")
    return rows, fx, gx


def assemble(sys: ControlAffineSystem, h_g: SetFunction | tuple[float, np.ndarray],
             safes: Sequence[SetFunction], bounds: InputBounds,
             params: SynthesisParams, x: np.ndarray) -> qp.QpProblem:
    """Build the synthesis QP at state x, in input-scaled coordinates.

    ``h_g`` is the goal set, or its (value, gradient) pair at x.  The QP
    is compiled for this one call; a run compiles it once.
    """
    cqp = CompiledQp(bounds, params, len(safes))
    goal = h_g.value_and_gradient(x) if isinstance(h_g, SetFunction) else h_g
    rows, _, _ = qp_rows(sys, cqp, goal, safes, x)
    return qp.QpProblem(H=cqp.objective.H, F=cqp.objective.F, A=rows[:, :-1], b=rows[:, -1])


def _clip_to_box(z: list[float], cqp: CompiledQp) -> tuple[list[float], float]:
    """The inputs z[:m] * scale clipped to the box, and the largest scaled
    distance the clip moved one, for finite z.

    The arithmetic is numpy's clip on Python floats: max(u, lo), then
    min(., hi), each keeping its first operand only when strictly beyond
    the other, so a signed zero at a zero bound comes out as numpy's.
    """
    clipped, gaps = [], []
    for v, s, lo, hi in zip(z, *cqp.box_floats):
        u = v * s
        c = u if u > lo else lo
        c = c if c < hi else hi
        clipped.append(c)
        gaps.append(abs(u - c) / s)
    # the gaps are finite, so a plain max gives numpy's maximum
    return clipped, max(gaps)


def synthesize(sys: ControlAffineSystem, goal: tuple[float, np.ndarray],
               safes: Sequence[SetFunction], cqp: CompiledQp, x: np.ndarray,
               warm_start: Sequence[int] | None = None) -> ControlDecision:
    """Solve the synthesis QP compiled as ``cqp`` at x.

    ``goal`` is the goal set's (value, gradient) pair at x, which the
    caller has evaluated already.  The rows come from :func:`qp_rows`,
    whose f(x) and g(x) also give the decision's ``rate``.  ``warm_start``
    is a guess at the QP's working set as row indices, e.g. the
    ``active_set`` of the decision at the previous state; it can only speed
    the solve up, never change the answer.  Raises :class:`SolverFailure`
    when the QP's rows are not finite, when the QP reports anything but
    optimality (infeasibility, or the solver's iteration guard), when its
    solution is not finite, or when the solved input leaves its box by more
    than ``qp.FEAS_TOL`` in scaled units; a smaller overshoot (round-off)
    is clipped and reported.
    """
    rows, fx, gx = qp_rows(sys, cqp, goal, safes, x)
    status, z, _, iterations, active_set, strict_cs = qp._solve(rows[:, :-1], rows[:, -1],
                                                                cqp.objective, warm_start)
    if status is not qp.SolveStatus.OPTIMAL:
        raise SolverFailure(f"synthesis QP {status.value} at x={np.asarray(x)}")
    z_list = z.tolist()
    if not all(map(math.isfinite, z_list)):
        raise SolverFailure(f"synthesis QP solution {z} is not finite at x={np.asarray(x)}")

    m = cqp.bounds.m
    clipped, overshoot = _clip_to_box(z_list, cqp)
    if overshoot > qp.FEAS_TOL:
        raise SolverFailure(f"synthesis QP input leaves its box by {overshoot:.3g} "
                            f"(scaled) at x={np.asarray(x)}")
    u_box = np.array(clipped)
    return ControlDecision(
        u=u_box,
        delta1=z_list[m],
        delta2=z_list[m + 1],
        active_set=active_set,
        strict_cs=strict_cs,
        iterations=iterations,
        box_overshoot=overshoot,
        h_safe=rows[2 * m + 1:-2, m + 1],
        rate=fx + gx.dot(u_box),
    )
