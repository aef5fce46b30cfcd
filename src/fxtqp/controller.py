"""The synthesis QP: its objective, its rows, and its solve at a state.

The decision vector is z = (v_s, delta1, delta2): the scaled input, the
reach-rate slack, and the invariance slack.  Both sides of the QP are
built here, so this module alone knows z's layout: the objective

    0.5 * (w_u . v_s^2 + w1*delta1^2 + w2*delta2^2) + q1*delta1

from the weights of :class:`SynthesisParams`, and, in :func:`qp_rows`, the
input box of :class:`fxtqp.constraints.InputBounds` in the input columns,
one reach-rate row for the goal set, one invariance row per safe set and
the two slack rows of the Euler step the decision drives.  Inputs are
scaled component-wise by their bound magnitude inside the solver
(v = scale * v_s) so the Hessian stays well conditioned when physical
inputs are large; results are reported in physical units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from fxtqp import qp
from fxtqp.constraints import ControlAffineSystem, InputBounds, SetFunction
from fxtqp.fxts import FxtsGains, alpha_from_deadline

__all__ = ["SynthesisParams", "ControlDecision", "SolverFailure", "qp_rows", "assemble",
           "synthesize"]


class SolverFailure(RuntimeError):
    """The synthesis QP could not be built from finite rows or solved.

    The QP is feasible by construction whenever the state is outside the
    goal set, so this is escalated instead of silently falling back to a
    saturated heuristic input; rows that overflow or turn NaN mean the
    state has left what the model covers.
    """


@dataclass(frozen=True)
class SynthesisParams:
    """Deadline, derived gains, and objective weights of the synthesis QP.

    ``gains`` is derived from (T_ud, mu): alpha_from_deadline meets T_ud.
    ``w_u`` holds one weight per input, e.g. ``np.ones(m)``.
    ``objective``, the QP's objective in input-scaled coordinates, is built
    once from the weights as a row-less :class:`fxtqp.qp.QpProblem`, which
    checks and factors it; its H and F are read-only.
    ``delta2_freeze_level``, when set, pins delta2 = 0 whenever some
    safe-set value exceeds the level, by dropping delta2 from every
    invariance row (see :func:`qp_rows`); used by the disturbed
    cruise-control study.
    ``dt`` is the step of the forward Euler loop that ``simulation.run``
    drives with these params; the QP keeps delta1 >= -1/dt and
    delta2 <= 0.5/dt (see :func:`qp_rows`).
    """

    T_ud: float
    mu: float
    w_u: np.ndarray
    dt: float
    gains: FxtsGains = field(init=False)
    w1: float = 1.0
    w2: float = 1.0
    q1: float = 100.0
    delta2_freeze_level: float | None = None
    objective: qp.QpProblem = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "w_u", np.atleast_1d(np.asarray(self.w_u, dtype=float)))
        if not (self.T_ud > 0 and self.mu > 1):
            raise ValueError("need T_ud > 0 and mu > 1")
        object.__setattr__(self, "gains", alpha_from_deadline(self.T_ud, self.mu))
        if not np.isfinite(self.w_u).all():
            raise ValueError(f"w_u must be finite, got {self.w_u}")
        for name in ("w1", "w2", "q1"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        # the Euler rows hold 1/dt, which overflows for a subnormal dt
        if not (math.isfinite(self.dt) and self.dt > 0 and math.isfinite(1.0 / self.dt)):
            raise ValueError(f"dt must be a finite number > 0 with a finite 1/dt, got {self.dt}")
        if (self.w_u <= 0).any() or self.w1 <= 0 or self.w2 <= 0 or self.q1 <= 0:
            raise ValueError("objective weights must be strictly positive")
        m = self.w_u.size
        H = np.diag(np.concatenate([self.w_u, [self.w1, self.w2]]))
        F = np.zeros(m + 2)
        F[m] = self.q1
        H.setflags(write=False)
        F.setflags(write=False)
        object.__setattr__(self, "objective", qp.QpProblem(H=H, F=F, A=(), b=()))


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
    h_safe: np.ndarray      # safe-set values at the state, one per safe set
    rate: np.ndarray        # f(x) + g(x) u from the rows' f(x), g(x); no disturbance


def _clamped_power_sum(h: float, gains: FxtsGains) -> float:
    # max{0, h}**gamma, exact zero at and below the set boundary
    if h <= 0.0:
        return 0.0
    try:
        return gains.alpha1 * math.pow(h, gains.gamma1) + gains.alpha2 * math.pow(h, gains.gamma2)
    except OverflowError:   # a finite h whose power is not: a non-finite row
        return math.inf


def qp_rows(fx: np.ndarray, gx: np.ndarray, goal: tuple[float, np.ndarray],
            safes: Sequence[SetFunction], bounds: InputBounds, gains: FxtsGains,
            x: np.ndarray, dt: float,
            freeze_level: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Every constraint row of the synthesis QP at x, in one pass.

    ``fx`` and ``gx`` are the system's f(x) and g(x), and ``goal`` the goal
    set's (value, gradient) pair at x.  Rows are over z = (v_s, delta1,
    delta2), with the input v = scale * v_s (``InputBounds.scale``), in this
    order:

    - the input box ``bounds.box_rows`` in the input columns, per input i
      the pair v_i <= upper_i, -v_i <= -lower_i;
    - the reach-rate row
      Lf·h_g + Lg·h_g v - delta1*h_g <= -alpha1*max(0,h_g)**gamma1
      - alpha2*max(0,h_g)**gamma2;
    - one invariance row Lf·h_s + Lg·h_s v <= -delta2*h_s per safe set,
      all sharing delta2 (on the boundary h_s = 0 the row reduces to
      tangency);
    - last, so the rows before them keep their indices, the two rows of
      one forward Euler step of size ``dt``, the step of the loop the
      decision drives: -delta1 <= 1/dt, since one step of V' = delta1*V
      gives (1 + delta1*dt)*V, which flips sign below delta1*dt = -1 and
      grows below -2 (a decay rate the step cannot follow makes the loop
      flip its input every other step); and delta2 <= 0.5/dt, since one
      step of h_s' <= -delta2*h_s gives h_s + dt*h_s' <= (1 - delta2*dt)*h_s,
      which keeps half the margin h_s < 0 for the step's curvature term
      (above 1/dt one step crosses the barrier).

    When ``freeze_level`` is set and some safe-set value exceeds it, the
    delta2 column of every invariance row is zeroed, so each row reads
    Lf·h_s + Lg·h_s v <= 0.  delta2 then enters only the Euler row
    delta2 <= 0.5/dt, and the objective (diagonal, no linear delta2 term)
    puts it at 0.  The row count is the same frozen or not, and the Euler
    rows, with no input entry, are the same either way.

    Each safe set is called once (one call gives its value and gradient).
    Returns (rows, h_safe): the rows as one array [A | b], A = rows[:, :-1]
    and b = rows[:, -1], and the safe-set values they used, one per set.
    """
    box_A, box_b = bounds.box_rows
    m = bounds.m
    k = box_b.size
    n_rows = k + 1 + len(safes) + 2
    rows = np.zeros((n_rows, m + 3))
    A = rows[:, :-1]
    b = rows[:, -1]
    A[:k, :m] = box_A
    b[:k] = box_b

    # input columns hold the Lie derivatives Lg·h until scaled at the end
    h_goal, grad = goal
    A[k, :m] = grad.dot(gx)
    A[k, m] = -h_goal
    b[k] = -float(grad.dot(fx)) - _clamped_power_sum(h_goal, gains)
    k += 1

    # the invariance rows from one gradient matrix: row j of G is grad h_s_j
    h_safe = np.empty(len(safes))
    G = np.empty((len(safes), len(x)))
    for j, s in enumerate(safes):
        h_safe[j], G[j] = s.value_and_gradient(x)
    end = k + len(safes)
    A[k:end, :m] = G.dot(gx)
    A[k:end, m + 1] = h_safe
    b[k:end] = -G.dot(fx)
    A[end, m] = -1.0
    b[end] = 1.0 / dt
    A[end + 1, m + 1] = 1.0
    b[end + 1] = 0.5 / dt
    A[box_b.size:, :m] *= bounds.scale()
    if freeze_level is not None and h_safe.size and h_safe.max() > freeze_level:
        A[k:end, m + 1] = 0.0
    return rows, h_safe


def _checked_rows(sys: ControlAffineSystem, h_g: SetFunction | tuple[float, np.ndarray],
                  safes: Sequence[SetFunction], bounds: InputBounds,
                  params: SynthesisParams, x: np.ndarray):
    """f(x), g(x) and the qp_rows built from them at x, refused unless the
    rows fit params' objective and are finite.

    ``h_g`` is the goal set or its (value, gradient) pair at x.  Rows that
    overflow or turn NaN (a state or set far outside its model) fail the
    run like an unsolvable QP; finite rows that do not fit are a ValueError.
    Returns (fx, gx, A, b, h_safe), A and b views of one array.
    """
    fx = sys.f(x)
    gx = sys.g(x)
    goal = h_g.value_and_gradient(x) if isinstance(h_g, SetFunction) else h_g
    rows, h_safe = qp_rows(fx, gx, goal, safes, bounds, params.gains, x, params.dt,
                           params.delta2_freeze_level)
    if not np.isfinite(rows).all():
        raise SolverFailure(f"synthesis QP rows are not finite at x={np.asarray(x)}")
    if rows.shape[1] - 1 != params.objective.F.size:
        raise ValueError(f"synthesis QP rows over {rows.shape[1] - 1} variables are "
                         f"inconsistent with an objective over {params.objective.F.size}")
    return fx, gx, rows[:, :-1], rows[:, -1], h_safe


def assemble(sys: ControlAffineSystem, h_g: SetFunction | tuple[float, np.ndarray],
             safes: Sequence[SetFunction], bounds: InputBounds,
             params: SynthesisParams, x: np.ndarray) -> qp.QpProblem:
    """Build the synthesis QP at state x, in input-scaled coordinates.

    ``h_g`` is the goal set, or its (value, gradient) pair at x.
    """
    _, _, A, b, _ = _checked_rows(sys, h_g, safes, bounds, params, x)
    return qp.QpProblem(H=params.objective.H, F=params.objective.F, A=A, b=b)


def _clip_to_box(z: list[float], bounds: InputBounds) -> tuple[list[float], float]:
    """The inputs z[:m] * scale clipped to the box, and the largest scaled
    distance the clip moved one, for finite z.

    The arithmetic is numpy's clip on Python floats: max(u, lo), then
    min(., hi), each keeping its first operand only when strictly beyond
    the other, so a signed zero at a zero bound comes out as numpy's.
    """
    clipped, gaps = [], []
    for v, s, lo, hi in zip(z, *bounds.box_floats):
        u = v * s
        c = u if u > lo else lo
        c = c if c < hi else hi
        clipped.append(c)
        gaps.append(abs(u - c) / s)
    # the gaps are finite, so a plain max gives numpy's maximum
    return clipped, max(gaps)


def synthesize(sys: ControlAffineSystem, h_g: SetFunction | tuple[float, np.ndarray],
               safes: Sequence[SetFunction], bounds: InputBounds,
               params: SynthesisParams, x: np.ndarray,
               warm_start: Sequence[int] | None = None) -> ControlDecision:
    """Solve the synthesis QP at x.

    ``h_g`` is the goal set, or its (value, gradient) pair at x when the
    caller has evaluated it already.  f(x) and g(x) are evaluated once: the
    rows and the decision's ``rate`` share them.  ``warm_start`` is a guess
    at the QP's working set as row indices, e.g. the ``active_set`` of the
    decision at the previous state; it can only speed the solve up, never
    change the answer.  Raises :class:`SolverFailure` when the QP's rows
    are not finite, when the QP reports anything but optimality
    (infeasibility, or the solver's iteration guard), when its solution is
    not finite, or when the solved input leaves its box by more than
    ``qp.FEAS_TOL`` in scaled units; a smaller overshoot (round-off) is
    clipped and reported.
    """
    fx, gx, A, b, h_safe = _checked_rows(sys, h_g, safes, bounds, params, x)
    status, z, _, iterations, active_set, strict_cs = qp._solve(A, b, params.objective,
                                                                 warm_start)
    if status is not qp.SolveStatus.OPTIMAL:
        raise SolverFailure(f"synthesis QP {status.value} at x={np.asarray(x)}")
    z_list = z.tolist()
    if not all(map(math.isfinite, z_list)):
        raise SolverFailure(f"synthesis QP solution {z} is not finite at x={np.asarray(x)}")

    m = bounds.m
    clipped, overshoot = _clip_to_box(z_list, bounds)
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
        h_safe=h_safe,
        rate=fx + gx.dot(u_box),
    )
