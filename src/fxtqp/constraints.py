"""Control-affine systems, set-defining functions, and QP constraint rows.

A set is always the zero-sublevel set {x : h(x) <= 0} of a scalar function
with an analytic gradient, and one call returns both, so each row's value
and gradient come from one evaluation.  Its role is where it is passed: as
the goal of :func:`qp_rows`, by that pair, it gets the reach-rate row, as a
safe set an invariance row.  A set bounded by several smooth functions is
passed as several safe sets, one row each, so no row differentiates a
nonsmooth max.

Rows are expressed over the decision vector z = (v_s, delta1, delta2), where
the physical input is v = scale * v_s with the per-component bound magnitude
of :class:`InputBounds`; :func:`qp_rows` builds all of them in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from fxtqp.fxts import FxtsGains

__all__ = [
    "ControlAffineSystem",
    "SetFunction",
    "InputBounds",
    "qp_rows",
]


@dataclass(frozen=True)
class ControlAffineSystem:
    """Dynamics x' = f(x) + g(x) u, with an optional additive disturbance.

    f and the disturbance return float arrays of shape (n,), g one of shape
    (n, m), used as returned; all three must be re-entrant.  The state size
    n is the size of the state the system is run from, and the input size m
    the one of the :class:`InputBounds` it is run with.  The disturbance is
    applied by the plant simulator only; controllers deliberately never see
    it (model mismatch is the point of the robustness studies).
    """

    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    disturbance: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class SetFunction:
    """Scalar set function h with analytic gradient; set is {h <= 0}.

    ``fn(x)`` returns (h(x), grad h(x)), a float and a 1-D float array of
    length n, from one evaluation, so a set computes what the two share
    once.  One object may be one phase's goal and the next phase's safe set.
    """

    name: str
    fn: Callable[[np.ndarray], tuple[float, np.ndarray]]

    def value_and_gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        return self.fn(x)

    def value(self, x: np.ndarray) -> float:
        return self.value_and_gradient(x)[0]


@dataclass(frozen=True)
class InputBounds:
    """Component-wise input box of at least one input, lower < upper strictly.

    The input scale and the box rows of the synthesis QP are built once here
    (read-only) rather than at every state, and so is ``box_floats``, the
    scale, lower and upper bounds as tuples of Python floats for the
    controller's clip.
    """

    lower: np.ndarray
    upper: np.ndarray
    _scale: np.ndarray = field(init=False, repr=False, compare=False)
    box_rows: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    box_floats: tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be equal-length vectors")
        if lo.size == 0:
            raise ValueError("the input box is empty: bounds need at least one input")
        for name, v in (("lower", lo), ("upper", hi)):
            if not np.isfinite(v).all():
                raise ValueError(f"{name} bounds must be finite, got {v}")
        if not (lo < hi).all():
            raise ValueError("lower bounds must be strictly below upper bounds")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        # lower < upper, so every scale is positive
        scale = np.maximum(np.abs(lo), np.abs(hi))
        # per input i: v_i <= upper_i, -v_i <= -lower_i, in scaled coordinates
        m = lo.size
        A = np.zeros((2 * m, m + 2))
        A[0::2, :m] = np.diag(scale)
        A[1::2, :m] = np.diag(-scale)
        b = np.empty(2 * m)
        b[0::2] = hi
        b[1::2] = -lo
        for arr in (scale, A, b):
            arr.setflags(write=False)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "box_rows", (A, b))
        object.__setattr__(self, "box_floats",
                           tuple(tuple(v.tolist()) for v in (scale, lo, hi)))

    @property
    def m(self) -> int:
        return self.lower.size

    def scale(self) -> np.ndarray:
        """Per-component magnitude used to normalize inputs inside the QP."""
        return self._scale


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

    - the input box, per input i the pair v_i <= upper_i, -v_i <= -lower_i;
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
    A[:k] = box_A
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
