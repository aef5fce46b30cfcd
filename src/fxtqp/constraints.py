"""Control-affine systems, set-defining functions, and QP constraint rows.

A set is always the zero-sublevel set {x : h(x) <= 0} of a scalar function
with an analytic gradient.  Nonsmooth sets built as a max over smooth
branches keep their branch list so the constraint assembler can emit one
smooth row per branch instead of differentiating the max.

Rows are expressed over the decision vector z = (v, delta1, delta2) where v
is the physical input; any input scaling is the caller's business.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from fxtqp.fxts import FxtsGains

__all__ = [
    "ControlAffineSystem",
    "SetKind",
    "SetFunction",
    "InputBounds",
    "LieDerivatives",
    "lie_derivatives",
    "convergence_row",
    "safety_row",
    "safety_rows",
    "input_rows",
    "finite_diff_gradient_check",
]


@dataclass(frozen=True)
class ControlAffineSystem:
    """Dynamics x' = f(x) + g(x) u, with an optional additive disturbance.

    The disturbance is applied by the plant simulator only; controllers
    deliberately never see it (model mismatch is the point of the
    robustness studies).  f, g and the disturbance must be re-entrant.
    """

    n: int
    m: int
    f: Callable[[np.ndarray], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray]
    disturbance: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""

    def drift(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(self.f(x), dtype=float).reshape(self.n)
        return out

    def input_matrix(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.g(x), dtype=float).reshape(self.n, self.m)


class SetKind(Enum):
    GOAL = "goal"
    SAFE = "safe"


@dataclass(frozen=True)
class SetFunction:
    """Scalar set function h with analytic gradient; set is {h <= 0}.

    When ``branches`` is nonempty the function is max over the branches:
    ``value`` returns the exact max and ``gradient`` the gradient of the
    argmax branch (smallest index on ties).
    """

    name: str
    kind: SetKind
    h: Callable[[np.ndarray], float] | None = None
    grad_h: Callable[[np.ndarray], np.ndarray] | None = None
    branches: tuple["SetFunction", ...] = ()

    def __post_init__(self):
        if not self.branches and (self.h is None or self.grad_h is None):
            raise ValueError(f"set function {self.name!r} needs h and grad_h or branches")

    @classmethod
    def max_of(cls, name: str, kind: SetKind, branches: Sequence["SetFunction"]) -> "SetFunction":
        if not branches:
            raise ValueError("max_of needs at least one branch")
        return cls(name=name, kind=kind, branches=tuple(branches))

    def value(self, x: np.ndarray) -> float:
        if self.branches:
            return max(b.value(x) for b in self.branches)
        return float(self.h(x))

    def branch_values(self, x: np.ndarray) -> list[float]:
        if self.branches:
            return [b.value(x) for b in self.branches]
        return [self.value(x)]

    def _argmax_branch(self, x: np.ndarray) -> "SetFunction":
        vals = self.branch_values(x)
        return self.branches[int(np.argmax(vals))]   # np.argmax takes the first max

    def gradient(self, x: np.ndarray) -> np.ndarray:
        if self.branches:
            return self._argmax_branch(x).gradient(x)
        return np.asarray(self.grad_h(x), dtype=float).ravel()


@dataclass(frozen=True)
class InputBounds:
    """Component-wise input box, lower < upper strictly."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("bounds must be equal-length vectors")
        if not np.all(lo < hi):
            raise ValueError("lower bounds must be strictly below upper bounds")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def m(self) -> int:
        return self.lower.size

    def scale(self) -> np.ndarray:
        """Per-component magnitude used to normalize inputs inside the QP."""
        s = np.maximum(np.abs(self.lower), np.abs(self.upper))
        return np.where(s > 0, s, 1.0)

    def contains(self, u: np.ndarray, tol: float = 1e-9) -> bool:
        return bool(np.all(u >= self.lower - tol) and np.all(u <= self.upper + tol))


@dataclass(frozen=True)
class LieDerivatives:
    Lf: float
    Lg: np.ndarray


def lie_derivatives(sys: ControlAffineSystem, s: SetFunction, x: np.ndarray) -> LieDerivatives:
    """Directional derivatives of h along the drift and the input matrix."""
    grad = s.gradient(x)
    return LieDerivatives(
        Lf=float(grad @ sys.drift(x)),
        Lg=grad @ sys.input_matrix(x),
    )


def _clamped_power_sum(h: float, gains: FxtsGains) -> float:
    # max{0, h}**gamma, exact zero at and below the set boundary
    if h <= 0.0:
        return 0.0
    return gains.alpha1 * math.pow(h, gains.gamma1) + gains.alpha2 * math.pow(h, gains.gamma2)


def convergence_row(sys: ControlAffineSystem, h_g: SetFunction, x: np.ndarray,
                    gains: FxtsGains) -> tuple[np.ndarray, float]:
    """Reach-rate row over z = (v, delta1, delta2).

    Encodes  Lf·h_g + Lg·h_g v - delta1*h_g <= -alpha1*max(0,h_g)**gamma1
                                               -alpha2*max(0,h_g)**gamma2.
    """
    if h_g.kind is not SetKind.GOAL:
        raise ValueError("convergence row expects a goal set function")
    lie = lie_derivatives(sys, h_g, x)
    hval = h_g.value(x)
    row = np.concatenate([lie.Lg, [-hval, 0.0]])
    rhs = -lie.Lf - _clamped_power_sum(hval, gains)
    return row, rhs


def safety_row(sys: ControlAffineSystem, h_s: SetFunction, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Invariance row over z: encodes Lf·h_s + Lg·h_s v <= -delta2*h_s.

    On the set boundary (h_s = 0) the slack coefficient vanishes and the row
    reduces to the tangency condition Lf·h_s + Lg·h_s v <= 0.
    """
    if h_s.kind is not SetKind.SAFE:
        raise ValueError("safety row expects a safe set function")
    lie = lie_derivatives(sys, h_s, x)
    hval = h_s.value(x)
    row = np.concatenate([lie.Lg, [0.0, hval]])
    return row, -lie.Lf


def safety_rows(sys: ControlAffineSystem, h_s: SetFunction,
                x: np.ndarray) -> list[tuple[np.ndarray, float]]:
    """Safety rows for a possibly composite safe set.

    One smooth row is emitted per branch, all sharing the single delta2
    slack; the conjunction is equivalent to enforcing the max branch and
    avoids gradient jumps at branch switches.
    """
    return [safety_row(sys, b, x) for b in h_s.branches or (h_s,)]


def input_rows(bounds: InputBounds) -> tuple[np.ndarray, np.ndarray]:
    """Box rows over z: per input i the pair v_i <= upper_i, -v_i <= -lower_i."""
    m = bounds.m
    A = np.zeros((2 * m, m + 2))
    b = np.zeros(2 * m)
    for i in range(m):
        A[2 * i, i] = 1.0
        b[2 * i] = bounds.upper[i]
        A[2 * i + 1, i] = -1.0
        b[2 * i + 1] = -bounds.lower[i]
    return A, b


def finite_diff_gradient_check(s: SetFunction, xs: Sequence[np.ndarray],
                               eps: float = 1e-6) -> float:
    """Max relative error of grad_h against central finite differences.

    States closer than the perturbation to a branch switch of a composite
    are skipped (the max is nonsmooth there and the comparison meaningless).
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    worst = 0.0
    for x in xs:
        x = np.asarray(x, dtype=float)
        grad = s.gradient(x)
        if s.branches and len(s.branches) > 1:
            vals = sorted(s.branch_values(x), reverse=True)
            margin = 10.0 * eps * (1.0 + float(np.linalg.norm(grad)))
            if vals[0] - vals[1] <= margin:
                continue
        fd = np.empty_like(grad)
        for j in range(x.size):
            step = np.zeros_like(x)
            step[j] = eps
            fd[j] = (s.value(x + step) - s.value(x - step)) / (2.0 * eps)
        err = float(np.linalg.norm(grad - fd)) / max(1.0, float(np.linalg.norm(grad)))
        worst = max(worst, err)
    return worst
