"""The model's types: control-affine systems, set functions, the input box.

A set is always the zero-sublevel set {x : h(x) <= 0} of a scalar function
with an analytic gradient, and one call returns both, so each row's value
and gradient come from one evaluation.  Its role is where the controller
passes it: as the goal it gets the reach-rate row, as a safe set an
invariance row (see :func:`fxtqp.controller.qp_rows`).  A set bounded by
several smooth functions is passed as several safe sets, one row each, so
no row differentiates a nonsmooth max.

The input box knows only the input: its bounds and the per-component
scale v_s = v / scale; :class:`fxtqp.controller.CompiledQp` builds its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "ControlAffineSystem",
    "SetFunction",
    "InputBounds",
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

    The input scale is built once here (read-only), not at every state.
    """

    lower: np.ndarray
    upper: np.ndarray
    _scale: np.ndarray = field(init=False, repr=False, compare=False)

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
        scale.setflags(write=False)
        object.__setattr__(self, "_scale", scale)

    @property
    def m(self) -> int:
        return self.lower.size

    def scale(self) -> np.ndarray:
        """Per-component magnitude used to normalize inputs inside the QP."""
        return self._scale
