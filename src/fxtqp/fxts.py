"""Settling-time bound calculus for fixed-time convergence certificates.

Everything here concerns the scalar comparison system

    dV/dt = -alpha1 * V**gamma1 - alpha2 * V**gamma2 + delta1 * V

with gamma1 = 1 + 1/mu and gamma2 = 1 - 1/mu for some mu > 1.  When delta1
is small enough the value V reaches zero within a time that does not depend
on V(0); the closed forms for that time, the domain restriction that appears
once delta1 crosses 2*sqrt(alpha1*alpha2), and a numerical RK4 oracle that
validates the bounds all live in this module; the oracle integrates
m = V**(1/mu), the substitution the closed forms come from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "K",
    "FxtsGains",
    "RegimeKind",
    "ScalarSimResult",
    "SettlingBound",
    "alpha_from_deadline",
    "gamma_roots",
    "settling_time_bound",
    "certify_segment",
    "worst_case",
    "simulate_scalar_v",
]

# Margin of the local certificate: above the threshold 2*sqrt(alpha1*alpha2)
# the bound is certified only for V <= (K*a)**mu, a the smaller barrier root
# in m = V**(1/mu) space, so the domain stops short of the stall point a**mu.
K = 0.9

# Relative tolerance on delta1^2 - 4*alpha1*alpha2 below which the two roots
# are treated as coincident and the degenerate bound formula applies.
_DEGENERATE_RTOL = 1e-12

HIT_THRESHOLD = 1e-9


@dataclass(frozen=True)
class FxtsGains:
    """Gains (alpha1, alpha2, mu) of the comparison system.

    The exponents are derived, never stored: gamma1 = 1 + 1/mu and
    gamma2 = 2 - gamma1, so gamma1 + gamma2 == 2 holds exactly in floating
    point.
    """

    alpha1: float
    alpha2: float
    mu: float

    def __post_init__(self):
        # an infinite gain makes every row it enters non-finite
        if not (0 < self.alpha1 < math.inf and 0 < self.alpha2 < math.inf):
            raise ValueError(f"alpha gains must be positive and finite, got "
                             f"{self.alpha1}, {self.alpha2}")
        if not 1 < self.mu < math.inf:
            raise ValueError(f"mu must exceed 1 and be finite, got {self.mu}")

    @property
    def gamma1(self) -> float:
        return 1.0 + 1.0 / self.mu

    @property
    def gamma2(self) -> float:
        return 2.0 - self.gamma1

    @property
    def critical_delta1(self) -> float:
        """Threshold 2*sqrt(alpha1*alpha2) separating global from local regimes."""
        return 2.0 * math.sqrt(self.alpha1 * self.alpha2)


class RegimeKind(Enum):
    GLOBAL_WITHIN_DEADLINE = "global_within_deadline"   # delta1 <= 0
    GLOBAL_FIXED_TIME = "global_fixed_time"             # 0 < delta1 < 2*sqrt(a1*a2)
    LOCAL_FIXED_TIME = "local_fixed_time"               # delta1 >= 2*sqrt(a1*a2)


@dataclass(frozen=True)
class SettlingBound:
    """Settling-time bound ``T`` of the comparison system for one delta1.

    ``kind`` is the convergence regime and ``v_max`` the largest V from
    which ``T`` is certified: math.inf in the two global regimes,
    (K*a)**mu in the local one.
    """

    T: float
    kind: RegimeKind
    v_max: float


@dataclass(frozen=True)
class ScalarSimResult:
    hit_time: float | None
    times: np.ndarray
    values: np.ndarray


def alpha_from_deadline(T_ud: float, mu: float) -> FxtsGains:
    """Gains meeting a deadline exactly: alpha1 = alpha2 = mu*pi/(2*T_ud).

    With delta1 = 0 the settling-time bound of these gains equals T_ud.
    """
    if not T_ud > 0:
        raise ValueError("deadline must be positive")
    alpha = mu * math.pi / (2.0 * T_ud)
    return FxtsGains(alpha1=alpha, alpha2=alpha, mu=mu)


def gamma_roots(alpha1: float, alpha2: float, delta1: float) -> tuple[float, float] | None:
    """Real roots (a <= b) of alpha1*z**2 - delta1*z + alpha2, or None.

    The roots exist when delta1**2 >= 4*alpha1*alpha2; for positive delta1
    both are positive (their product is alpha2/alpha1 and their sum
    delta1/alpha1).
    """
    if not (alpha1 > 0 and alpha2 > 0):
        raise ValueError("alpha gains must be positive")
    disc = delta1 * delta1 - 4.0 * alpha1 * alpha2
    if disc < 0.0:
        return None
    s = math.sqrt(disc)
    return ((delta1 - s) / (2.0 * alpha1), (delta1 + s) / (2.0 * alpha1))


def settling_time_bound(gains: FxtsGains, delta1: float) -> SettlingBound:
    """Piecewise settling-time bound of the comparison system.

    delta1 <= 0 (global, within the deadline):
        T = mu*pi / (2*sqrt(alpha1*alpha2))
    0 < delta1 < 2*sqrt(alpha1*alpha2) (global, fixed time):
        T = mu/(alpha1*k1) * (pi/2 - atan(k2)),
        k1 = sqrt((4*a1*a2 - d1^2) / (4*a1^2)),  k2 = -d1 / sqrt(4*a1*a2 - d1^2)
    delta1 == 2*sqrt(alpha1*alpha2) (within a relative band of 1e-12):
        T = mu/sqrt(alpha1*alpha2) * K/(1-K)
    delta1 > 2*sqrt(alpha1*alpha2):
        T = mu/(alpha1*(b-a)) * (log((b-K*a)/(a*(1-K))) - log(b/a))

    The last two cases are the local regime (ties at the threshold go
    local): they certify convergence only from V <= (K*a)**mu, where a <= b
    are the barrier roots of :func:`gamma_roots`, a = sqrt(alpha2/alpha1)
    inside the band.  Above that the comparison system may stall before
    reaching zero.
    """
    a1, a2, mu = gains.alpha1, gains.alpha2, gains.mu
    if delta1 <= 0.0:
        T = mu * math.pi / (2.0 * math.sqrt(a1 * a2))
        return SettlingBound(T=T, kind=RegimeKind.GLOBAL_WITHIN_DEADLINE, v_max=math.inf)
    disc = delta1 * delta1 - 4.0 * a1 * a2
    degenerate = abs(disc) <= _DEGENERATE_RTOL * max(delta1 * delta1, 4.0 * a1 * a2)
    if delta1 < gains.critical_delta1 and not degenerate:
        rad = 4.0 * a1 * a2 - delta1 * delta1
        k1 = math.sqrt(rad / (4.0 * a1 * a1))
        k2 = -delta1 / math.sqrt(rad)
        T = mu / (a1 * k1) * (math.pi / 2.0 - math.atan(k2))
        return SettlingBound(T=T, kind=RegimeKind.GLOBAL_FIXED_TIME, v_max=math.inf)
    roots = gamma_roots(a1, a2, delta1)
    if roots is None:
        # inside the degenerate band but just below the threshold
        a = math.sqrt(a2 / a1)
        roots = (a, a)
    a, b = roots
    if degenerate:
        T = mu / math.sqrt(a1 * a2) * (K / (1.0 - K))
    else:
        T = mu / (a1 * (b - a)) * (math.log((b - K * a) / (a * (1.0 - K))) - math.log(b / a))
    return SettlingBound(T=T, kind=RegimeKind.LOCAL_FIXED_TIME, v_max=(K * a) ** mu)


def certify_segment(gains: FxtsGains, t_start: float, t_end: float,
                    v_entry: float, delta1_sup: float) -> dict:
    """Fixed-time certificate of one goal segment of a closed-loop run.

    A goal segment runs from t_start, t = 0 or a reach, to t_end, the step
    before the next reach or the run's last step.  Its bound uses the
    supremum of delta1 over those steps and holds only from the goal value
    at t_start, ``v_entry``, inside the certified domain V <= ``v_max`` of
    :func:`settling_time_bound` (``bound_T`` is None else).
    """
    bound = settling_time_bound(gains, max(0.0, delta1_sup))
    domain_ok = bool(v_entry <= bound.v_max)
    return {
        "t_start": t_start,
        "t_end": t_end,
        "v_entry": v_entry,
        "delta1_sup": delta1_sup,
        "regime": bound.kind.value,
        "bound_T": bound.T if domain_ok else None,
        "domain_ok": domain_ok,
        "within_deadline": bound.kind is RegimeKind.GLOBAL_WITHIN_DEADLINE,
    }


def worst_case(segments) -> dict | None:
    """Worst case of segment certificates: the largest delta1_sup with its
    regime and bound, the bound only if every segment is domain_ok."""
    if not segments:
        return None
    worst = max(segments, key=lambda s: s["delta1_sup"])
    domain_ok = all(s["domain_ok"] for s in segments)
    return {
        "delta1_sup": worst["delta1_sup"],
        "regime": worst["regime"],
        "bound_T": worst["bound_T"] if domain_ok else None,
        "domain_ok": domain_ok,
        "within_deadline": worst["within_deadline"],
    }


def simulate_scalar_v(gains: FxtsGains, delta1: float, V0: float,
                      dt: float) -> ScalarSimResult:
    """RK4 oracle for the comparison system, integrated in m = V**(1/mu).

    As gamma1 + gamma2 = 2, dm/dt = -(alpha1*m**2 - delta1*m + alpha2)/mu:
    a polynomial with bounded slope at m = 0, unlike the gamma2 < 1 power
    of V, so no stage needs a power or a clamp.  Integrates until V drops
    to 1e-9 (m to 1e-9**(1/mu), the hit time interpolated linearly in m) or
    ten times the analytic settling bound elapses.  ``hit_time`` is None
    when the rate at V0 is nonnegative (outside the contracting domain) or
    the horizon is exceeded.  ``times`` and ``values`` hold the start and
    the last integrated step.  Raises ValueError when the rate at V0, taken
    in V, is not finite (a NaN V0, or one so large that a power overflows).
    """
    if V0 < 0:
        raise ValueError("V0 must be nonnegative")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be a finite number > 0, got {dt}")
    na1, a2, mu = -gains.alpha1, gains.alpha2, gains.mu   # -a1 * x is (-a1) * x
    if V0 <= HIT_THRESHOLD:
        return ScalarSimResult(hit_time=0.0, times=np.array([0.0]), values=np.array([V0]))
    try:
        rate = na1 * V0 ** gains.gamma1 - a2 * V0 ** gains.gamma2 + delta1 * V0
    except OverflowError:
        rate = math.inf
    if not math.isfinite(rate):
        raise ValueError(f"the rate at V0 = {V0} is not finite")
    if rate >= 0.0:
        return ScalarSimResult(hit_time=None, times=np.array([0.0]), values=np.array([V0]))

    horizon = 10.0 * settling_time_bound(gains, delta1).T
    n_steps = int(math.ceil(horizon / dt))

    # each stage is the rate of m, (c2*m + c1)*m + c0, inlined; Python reads
    # 0.5 * dt * k as (0.5 * dt) * k and dt / 6.0 * x as (dt / 6.0) * x
    c2, c1, c0 = na1 / mu, delta1 / mu, -a2 / mu
    half, sixth, th = 0.5 * dt, dt / 6.0, HIT_THRESHOLD ** (1.0 / mu)
    m, step = V0 ** (1.0 / mu), 0
    hit: float | None = None
    for step in range(1, n_steps + 1):
        u = m
        k1 = (c2 * u + c1) * u + c0
        s = u + half * k1
        k2 = (c2 * s + c1) * s + c0
        s = u + half * k2
        k3 = (c2 * s + c1) * s + c0
        s = u + dt * k3
        k4 = (c2 * s + c1) * s + c0
        m = u + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if m <= th:
            # interpolate the crossing rather than report the grid time, from
            # the step's unclamped end: the rate is smooth through m = 0
            frac = (u - th) / max(u - m, 1e-300)
            hit = (step - 1 + min(1.0, max(0.0, frac))) * dt
            break
    return ScalarSimResult(hit_time=hit, times=np.array([0.0, step * dt]),
                           values=np.array([V0, max(m, 0.0) ** mu]))
