"""Reference scenarios: adaptive cruise control and two-robot waypoint tour.

Each case study's config fixes its plant, geometry, input box and weights
as class constants and keeps as fields only what a run may set, the fields
that overrides and sweeps replace.  A small synthetic suite of integrator
systems with analytically known properties backs the property tests.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, replace
from sys import float_info
from typing import Callable, ClassVar

import numpy as np

from fxtqp.constraints import ControlAffineSystem, InputBounds, SetFunction
from fxtqp.controller import SynthesisParams
from fxtqp.simulation import Phase, Schedule, Trace, run

__all__ = [
    "Scenario",
    "AccConfig",
    "TwoRobotConfig",
    "acc_scenario",
    "two_robot_scenario",
    "synthetic_suite",
    "scenario_from_id",
]


@dataclass(frozen=True)
class Scenario:
    """Everything a run needs, bundled."""

    scenario_id: str
    sys: ControlAffineSystem
    schedule: Schedule
    bounds: InputBounds
    params: SynthesisParams
    x0: np.ndarray
    d_min: float | None = None     # separation requirement, if any

    def simulate(self) -> Trace:
        return run(self.sys, self.schedule, self.bounds, self.params, self.x0)


def _finite(v) -> bool:
    """Whether v is a finite number: an int or float, not a bool, finite as
    a float.  NaN, the infinities, integers beyond float range and strings
    all fail."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= float_info.max


def _require_finite(cfg) -> None:
    # NaN passes every comparison check below, and an infinite horizon or
    # gain makes a run that never ends or fails in the solver
    bad = [k for k, v in vars(cfg).items()
           if not all(map(_finite, v if isinstance(v, (tuple, list)) else (v,)))]
    if bad:
        raise ValueError(f"config numbers must be finite: {', '.join(bad)}")


def _require_positive(cfg, *names: str) -> None:
    bad = [k for k in names if not getattr(cfg, k) > 0]
    if bad:
        raise ValueError(f"config numbers must be positive: {', '.join(bad)}")


# ---------------------------------------------------------------------------
# adaptive cruise control
# ---------------------------------------------------------------------------

# bound on |a_lead|, as a fraction of grav: the lead's acceleration envelope
ACC_LEAD_ACCEL_ENVELOPE = 0.3


@dataclass(frozen=True)
class AccConfig:
    """Follower/lead vehicle problem on a straight road.

    State is (v_f, v_l, D): follower speed, lead speed, inter-vehicle gap.
    The follower tracks the goal speed v_d subject to the headway constraint
    tau_d * v_f <= D and a symmetric force bound of a quarter of its weight.
    The controller keeps the braking-distance barrier of :func:`acc_headway`,
    whose safe set lies inside the headway set.
    The optional disturbance d_delta/M * |v_f - v_d| pushes on the follower
    acceleration; when active, the ``*_disturbed`` weights replace the
    nominal ones.  The fields are what runs vary; ``T_ud`` and all weights
    are fixed.
    """

    M: ClassVar[float] = 1650.0            # follower mass, kg
    grav: ClassVar[float] = 9.81           # m/s^2
    v_d: ClassVar[float] = 22.0            # goal speed, m/s
    v_l0: ClassVar[float] = 10.0           # initial lead speed, m/s
    D0: ClassVar[float] = 150.0            # initial gap, m
    f0: ClassVar[float] = 0.1              # drag: f0 + f1 v + f2 v^2, N
    f1: ClassVar[float] = 5.0
    f2: ClassVar[float] = 0.25
    tau_d: ClassVar[float] = 1.8           # desired time headway, s
    mu: ClassVar[float] = 5.0
    reach_band: ClassVar[float] = 0.5      # |v_f - v_d| counted as arrived, m/s
    w1: ClassVar[float] = 0.01             # weight on delta1^2
    w2: ClassVar[float] = 10.0             # weight on delta2^2; the braking-distance term
                                           # already starts braking early, so it stays cheap
    q1: ClassVar[float] = 4.5              # linear penalty on delta1 (nominal tracking drive)
    T_ud: ClassVar[float] = 10.0           # reach deadline for the speed band, s
    w2_disturbed: ClassVar[float] = 2400.0 # w2 used when d_delta > 0 (keeps delta2 small,
                                           # so the follower brakes early)
    q1_disturbed: ClassVar[float] = 0.3    # q1 used when d_delta > 0 (less reach pressure)

    v_f0: float = 18.0           # initial follower speed, m/s
    a_lead: float = 0.0          # lead acceleration until the lead stops, m/s^2
    d_delta: float = 0.0         # disturbance gain, N s/m
    horizon: float = 20.0        # total simulated time, s
    dt: float = 1e-2

    def __post_init__(self):
        _require_finite(self)
        _require_positive(self, "dt")
        if self.d_delta < 0:
            raise ValueError("disturbance gain must be nonnegative")
        if abs(self.a_lead) >= ACC_LEAD_ACCEL_ENVELOPE * self.grav:
            raise ValueError("lead acceleration outside its envelope")

    @property
    def u_max(self) -> float:
        return 0.25 * self.M * self.grav

    def drag(self, v_f: float) -> float:
        return self.f0 + self.f1 * v_f + self.f2 * v_f * v_f


def _constant(a) -> Callable[[np.ndarray], np.ndarray]:
    """A function of the state that returns ``a``, built once and read-only."""
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return lambda x: a


def _integrator(n: int) -> ControlAffineSystem:
    return ControlAffineSystem(f=_constant(np.zeros(n)), g=_constant(np.eye(n)))


def _square(v: float) -> float:
    """v ** 2 for a Python float v, as numpy's power gives it: inf where it
    overflows, where Python raises."""
    try:
        return v ** 2
    except OverflowError:
        return math.inf


# The acc model runs on Python floats, which take the operations of numpy
# scalars in the same order at a fraction of the call cost.  A braking lead
# stops at rest: its rate is 0 once v_l <= 0.
def _acc_system(cfg: AccConfig) -> ControlAffineSystem:
    def f(x):
        v_f, v_l, _ = x.tolist()
        a_lead = 0.0 if v_l <= 0.0 and cfg.a_lead <= 0.0 else cfg.a_lead
        return np.array([-cfg.drag(v_f) / cfg.M, a_lead, v_l - v_f])

    g = _constant([[1.0 / cfg.M], [0.0], [0.0]])
    disturbance = None
    if cfg.d_delta > 0:
        def disturbance(x):
            return np.array([cfg.d_delta / cfg.M * abs(x.item(0) - cfg.v_d), 0.0, 0.0])

    return ControlAffineSystem(f=f, g=g, disturbance=disturbance)


def acc_goal(cfg: AccConfig) -> SetFunction:
    """Squared speed error; its zero set {v_f = v_d} has empty interior,
    so arrival is judged against the reach band instead of exact membership."""
    def fn(x):
        e = x.item(0) - cfg.v_d
        return _square(e), np.array([2.0 * e, 0.0, 0.0])

    return SetFunction("speed_error", fn)


def acc_headway(cfg: AccConfig) -> SetFunction:
    """Braking-distance headway barrier (Ames et al., CDC 2014):

        h = tau_d * v_f - D + max(0, v_f - v_l)^2 / (2 * a_b),

    with a_b = 0.9 * u_max / M, 90 % of the deceleration the input box can
    command.  The extra term is the gap the follower loses while braking at
    a_b down to the lead speed, so the barrier asks for braking before the
    plain headway ``tau_d * v_f - D`` runs out rather than at its boundary.
    h is C^1 and at least the plain headway everywhere, hence h <= 0 implies
    tau_d * v_f <= D; it equals the plain headway where v_f <= v_l.  With the
    lead at constant speed (``a_lead = 0``), full braking makes h decrease at
    every state, so the set can be rendered forward invariant and the
    invariance row is feasible even at delta2 = 0.  A braking lead lies
    outside that premise.
    """
    a_b = 0.9 * cfg.u_max / cfg.M

    def fn(x):
        v_f, v_l, D = x.tolist()
        closing = max(0.0, v_f - v_l)
        r = closing / a_b
        return (cfg.tau_d * v_f - D + _square(closing) / (2.0 * a_b),
                np.array([cfg.tau_d + r, -r, -1.0]))

    return SetFunction("headway", fn)


def acc_scenario(cfg: AccConfig | None = None) -> Scenario:
    cfg = cfg or AccConfig()
    # The controller does not see the disturbance, so the disturbed study
    # must shed closing speed early: the reach pressure is dialed down and
    # delta2 made expensive there (with the nominal w2, 19 of the study's 22
    # dt = 1e-2 runs cross the barrier; with the nominal q1, the d_delta = 100
    # runs from 22-27 m/s do).
    disturbed = cfg.d_delta > 0
    params = SynthesisParams(
        T_ud=cfg.T_ud, mu=cfg.mu, w1=cfg.w1,
        w2=cfg.w2_disturbed if disturbed else cfg.w2,
        q1=cfg.q1_disturbed if disturbed else cfg.q1,
        dt=cfg.dt,
    )
    schedule = Schedule(
        tracks=((Phase(goal=acc_goal(cfg), deadline=cfg.T_ud,
                       reach_tol=cfg.reach_band ** 2),),),
        global_safes=(acc_headway(cfg),),
        horizon=cfg.horizon,
    )
    return Scenario(
        scenario_id="acc",
        sys=_acc_system(cfg),
        schedule=schedule,
        bounds=InputBounds(lower=np.array([-cfg.u_max]), upper=np.array([cfg.u_max])),
        params=params,
        x0=np.array([cfg.v_f0, cfg.v_l0, cfg.D0]),
    )


# ---------------------------------------------------------------------------
# two-robot waypoint tour
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoRobotConfig:
    """Two planar single-integrators touring eight waypoint sets.

    The workspace is the ring between the square of half-width ``arena`` and
    the disk of radius ``hub_radius``; four corner circles and four edge
    ellipses chain around it with nonempty pairwise overlaps.  Agent 1 tours
    clockwise from the top-left circle, agent 2 counterclockwise from the
    bottom-right one; they cross in the top-right and bottom-left circles,
    where the separation constraint does the work.
    """

    d_m: ClassVar[float] = 0.1
    component_bound: ClassVar[float] = 7.0
    mu: ClassVar[float] = 5.0
    phase_budget: ClassVar[float] = 1.0
    arena: ClassVar[float] = 2.0
    hub_radius: ClassVar[float] = 1.5
    circle_radius: ClassVar[float] = 0.5
    ellipse_major: ClassVar[float] = 1.2
    ellipse_minor: ClassVar[float] = 0.5
    w1: ClassVar[float] = 1.0
    w2: ClassVar[float] = 10.0     # shared invariance slack; kept cheap so the thin
                                   # corridors between walls do not throttle the tour
    q1: ClassVar[float] = 100.0

    x0_agent1: tuple[float, float] = (-1.5, 1.5)
    x0_agent2: tuple[float, float] = (1.5, -1.5)
    dt: float = 1e-3

    def __post_init__(self):
        _require_finite(self)
        _require_positive(self, "dt")
        for name in ("x0_agent1", "x0_agent2"):
            p = getattr(self, name)
            if len(p) != 2:
                raise ValueError(f"{name} must be two finite numbers, got {p}")


def _agent_slice(agent: int) -> slice:
    return slice(2 * agent, 2 * agent + 2)


# The tour's sets build their gradients from Python floats, one np.array
# each.  Squared distances stay d.dot(d): BLAS's ddot may fuse its
# multiply-add, so Python's dx * dx + dy * dy need not give the same bits.
def _lifted(agent: int, gx: float, gy: float) -> np.ndarray:
    """The 4-vector with (gx, gy) at the agent's coordinates, zeros elsewhere."""
    return np.array((gx, gy, 0.0, 0.0) if agent == 0 else (0.0, 0.0, gx, gy))


def _circle(name: str, center, radius: float, agent: int, outside: bool = False) -> SetFunction:
    """The agent's disk of ``radius`` about ``center``, or its outside."""
    c = np.asarray(center, dtype=float)
    sl = _agent_slice(agent)
    r2 = radius * radius

    def fn(x):
        d = x[sl] - c
        dx, dy = d.tolist()
        if outside:
            return r2 - d.dot(d), _lifted(agent, -2.0 * dx, -2.0 * dy)
        return d.dot(d) - r2, _lifted(agent, 2.0 * dx, 2.0 * dy)

    return SetFunction(name, fn)


def _ellipse(name: str, center, semi_x: float, semi_y: float, agent: int) -> SetFunction:
    c = np.asarray(center, dtype=float)
    sl = _agent_slice(agent)
    wx, wy = 1.0 / semi_x ** 2, 1.0 / semi_y ** 2

    def fn(x):
        dx, dy = (x[sl] - c).tolist()
        return (wx * _square(dx) + wy * _square(dy) - 1.0,
                _lifted(agent, 2.0 * wx * dx, 2.0 * wy * dy))

    return SetFunction(name, fn)


def _square_walls(cfg: TwoRobotConfig, agent: int) -> list[SetFunction]:
    """The agent's four wall sets ±x_axis <= arena; together the square."""
    sl = _agent_slice(agent)
    a = cfg.arena
    walls = []
    for axis in (0, 1):
        for sign in (1.0, -1.0):
            i = sl.start + axis
            normal = np.zeros(4)
            normal[i] = sign
            normal.setflags(write=False)

            def fn(x, i=i, sign=sign, normal=normal):
                return sign * x.item(i) - a, normal

            walls.append(SetFunction(f"square_a{agent + 1}_{axis}{int(sign > 0)}", fn))
    return walls


def _separation(cfg: TwoRobotConfig) -> SetFunction:
    d2 = cfg.d_m ** 2

    def fn(x):
        d = x[0:2] - x[2:4]
        dx, dy = d.tolist()
        return d2 - d.dot(d), np.array((-2.0 * dx, -2.0 * dy, 2.0 * dx, 2.0 * dy))

    return SetFunction("separation", fn)


def waypoint_sets(cfg: TwoRobotConfig, agent: int) -> list[SetFunction]:
    """The eight waypoint sets, indexed 0..7, lifted to the given agent.

    Even indices are the corner circles (top-left first, clockwise), odd
    indices the edge ellipses whose long axis runs along the nearer wall.
    """
    r = cfg.circle_radius
    c, e = cfg.hub_radius, cfg.hub_radius
    maj, mnr = cfg.ellipse_major, cfg.ellipse_minor
    tag = f"a{agent + 1}"
    return [
        _circle(f"S1_{tag}", (-c, c), r, agent),
        _ellipse(f"S2_{tag}", (0.0, e), maj, mnr, agent),
        _circle(f"S3_{tag}", (c, c), r, agent),
        _ellipse(f"S4_{tag}", (e, 0.0), mnr, maj, agent),
        _circle(f"S5_{tag}", (c, -c), r, agent),
        _ellipse(f"S6_{tag}", (0.0, -e), maj, mnr, agent),
        _circle(f"S7_{tag}", (-c, -c), r, agent),
        _ellipse(f"S8_{tag}", (-e, 0.0), mnr, maj, agent),
    ]


# tour orders as waypoint indices (0-based into waypoint_sets)
AGENT1_TOUR = (1, 2, 3, 4, 5, 6, 7, 0)   # from S1: S2 S3 S4 S5 S6 S7 S8 S1
AGENT2_TOUR = (3, 2, 1, 0, 7, 6, 5, 4)   # from S5: S4 S3 S2 S1 S8 S7 S6 S5
AGENT1_START = 0
AGENT2_START = 4


def two_robot_scenario(cfg: TwoRobotConfig | None = None) -> Scenario:
    """Stacked 4-state system with one centralized QP per step.

    Each agent runs its own phase track (advancing the moment that agent
    touches its current waypoint), because each agent's legs and deadlines
    run from its own arrivals; the controller goal is the sum of the pending
    goals, the unmet current waypoint functions.  Each track's current
    phase keeps the agent inside the set it is traversing, which is how the
    sequential always/eventually requirements reduce to reach problems.
    """
    cfg = cfg or TwoRobotConfig()

    sys = _integrator(4)

    sets = [waypoint_sets(cfg, agent) for agent in (0, 1)]

    tours = [AGENT1_TOUR, AGENT2_TOUR]
    starts = [AGENT1_START, AGENT2_START]
    x0 = np.array([*cfg.x0_agent1, *cfg.x0_agent2])

    tracks = []
    for agent in (0, 1):
        prev = starts[agent]
        legs = []
        for i in tours[agent]:
            legs.append(Phase(goal=sets[agent][i], deadline=cfg.phase_budget,
                              safe_extra=(sets[agent][prev],)))
            prev = i
        tracks.append(tuple(legs))

    schedule = Schedule(
        tracks=tuple(tracks),
        global_safes=(
            *_square_walls(cfg, 0),
            *_square_walls(cfg, 1),
            *(_circle(f"hub_a{agent + 1}", (0.0, 0.0), cfg.hub_radius, agent, outside=True)
              for agent in (0, 1)),
            _separation(cfg),
        ),
        horizon=None,
    )
    ub = cfg.component_bound
    params = SynthesisParams(
        T_ud=cfg.phase_budget, mu=cfg.mu,
        w1=cfg.w1, w2=cfg.w2, q1=cfg.q1, dt=cfg.dt,
    )
    return Scenario(
        scenario_id="two-robot",
        sys=sys,
        schedule=schedule,
        bounds=InputBounds(lower=-ub * np.ones(4), upper=ub * np.ones(4)),
        params=params,
        x0=x0,
        d_min=cfg.d_m,
    )


# ---------------------------------------------------------------------------
# synthetic systems for property tests
# ---------------------------------------------------------------------------

def _disk(name: str, center, r2: float, outside: bool = False) -> SetFunction:
    """{|x - center|^2 <= r2} in the plane, or with ``outside`` its complement."""
    c = np.asarray(center, dtype=float)

    def fn(x):
        d = x - c
        q = d[0] ** 2 + d[1] ** 2
        return (r2 - q, -2.0 * d) if outside else (q - r2, 2.0 * d)

    return SetFunction(name, fn)


def synthetic_suite() -> list[Scenario]:
    """Small systems with known behavior: a 1-D and a 2-D integrator, and a
    fully actuated nonlinear system whose safe set admits an inward input by
    construction."""
    # 1-D integrator to a ball at the origin; the reach-rate slack stays
    # nonpositive throughout
    goal_1d = SetFunction("ball1d", lambda x: (x[0] ** 2 - 0.01, np.array([2.0 * x[0]])))
    int1d = Scenario(
        scenario_id="synthetic:int1d",
        sys=_integrator(1),
        schedule=Schedule(tracks=((Phase(goal=goal_1d, deadline=2.0),),)),
        bounds=InputBounds(lower=np.array([-2.0]), upper=np.array([2.0])),
        params=SynthesisParams(T_ud=2.0, mu=2.0, dt=1e-3),
        x0=np.array([1.0]),
    )

    # 2-D integrator detouring around an obstacle disk on the straight line
    # to the goal
    goal_2d = _disk("goal_disk", (2.0, 0.0), 0.0625)
    obstacle = _disk("obstacle_disk", (1.0, 0.0), 0.16, outside=True)
    int2d = Scenario(
        scenario_id="synthetic:int2d",
        sys=_integrator(2),
        schedule=Schedule(
            tracks=((Phase(goal=goal_2d, deadline=6.0),),),
            global_safes=(obstacle,),
        ),
        bounds=InputBounds(lower=-np.ones(2), upper=np.ones(2)),
        params=SynthesisParams(T_ud=6.0, mu=2.0, dt=1e-3),
        x0=np.array([0.0, 0.05]),
    )

    # fully actuated nonlinear system confined to a disk; an inward input
    # exists everywhere on the boundary
    def f_nl(x):
        return np.array([-0.5 * x[1], 0.5 * math.sin(x[0])])

    goal_nl = _disk("goal_nl", (1.0, 0.5), 0.04)
    keep_in = _disk("disk4", (0.0, 0.0), 4.0)
    fullact2d = Scenario(
        scenario_id="synthetic:fullact2d",
        sys=ControlAffineSystem(f=f_nl, g=_constant(np.eye(2))),
        schedule=Schedule(
            tracks=((Phase(goal=goal_nl, deadline=3.0),),),
            global_safes=(keep_in,),
        ),
        bounds=InputBounds(lower=-5.0 * np.ones(2), upper=5.0 * np.ones(2)),
        params=SynthesisParams(T_ud=3.0, mu=2.0, dt=1e-3),
        x0=np.array([-1.2, -0.4]),
    )
    return [int1d, int2d, fullact2d]


def scenario_from_id(scenario_id: str, overrides: dict | None = None) -> Scenario:
    """Build a scenario by id: 'acc', 'two-robot', or 'synthetic:<name>'.

    Overrides are applied to the scenario's config dataclass by field name;
    unknown fields raise ValueError.
    """
    overrides = dict(overrides or {})
    if scenario_id == "acc":
        return acc_scenario(_apply_overrides(AccConfig(), overrides))
    if scenario_id == "two-robot":
        return two_robot_scenario(_apply_overrides(TwoRobotConfig(), overrides))
    if scenario_id.startswith("synthetic:"):
        if overrides:
            raise ValueError("synthetic scenarios take no overrides")
        for sc in synthetic_suite():
            if sc.scenario_id == scenario_id:
                return sc
        raise ValueError(f"unknown synthetic scenario {scenario_id!r}")
    raise ValueError(f"unknown scenario {scenario_id!r}")


def _apply_overrides(cfg, overrides: dict):
    names = {f.name for f in dataclasses.fields(cfg)}
    unknown = set(overrides) - names
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    typed = {}
    for k, v in overrides.items():
        if isinstance(getattr(cfg, k), tuple):
            if not isinstance(v, (list, tuple)):
                raise ValueError(f"{k} takes a list of numbers, got {v!r}")
            typed[k] = tuple(_number(k, p) for p in v)
        else:
            typed[k] = _number(k, v)
    return replace(cfg, **typed)


def _number(name: str, v) -> float:
    # float() would parse a string and take True for 1.0
    if _finite(v):
        return float(v)
    if type(v) is int:
        raise ValueError(f"{name} is beyond float range, not a finite number")
    raise ValueError(f"{name} takes a finite number, got {v!r}")
