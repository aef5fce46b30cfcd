"""Reference checks the tests hold the library against.

They are evidence, not controller code: a textbook settling bound to
compare the paper's tighter one with, central finite differences of a set
function's value against its analytic gradient, a strict-complementarity
verdict on a QP solution, and difference quotients of the QP solution map;
``numpy_slack_verdicts``, ``numpy_clip``, ``numpy_ratio_test`` and
``numpy_tour_sets``, the numpy expressions the step's judge, input clip,
solver ratio test and tour set gradients compute on Python floats;
``rows_at``, the rows of :func:`fxtqp.controller.qp_rows` for a compiled
QP from a system and a goal set rather than their values at the state; and
``scaled_z``, a decision as the QP's solution in its input-scaled
coordinates.  The tests
fix every argument, so nothing here checks its inputs beyond what a verdict
needs.
"""

import math
from collections import namedtuple

import numpy as np

from fxtqp.controller import CompiledQp, qp_rows, synthesize
from fxtqp.qp import _DEP_TOL, FEAS_TOL, SolveStatus

_FD_STEP = 1e-6
# the floor on a positive multiplier or slack
_STRICT_CS_FLOOR = 1e-6

ProbeResult = namedtuple("ProbeResult", "max_quotient quotients nonstrict_count")


def rows_at(sys, h_g, safes, cqp, x):
    """(A, b, h_goal, h_safe) of qp_rows of the compiled QP ``cqp`` at x,
    from sys.f(x), sys.g(x) and the goal set's (value, gradient) pair at x."""
    goal = h_g.value_and_gradient(x)
    rows, h_safe = qp_rows(cqp, sys.f(x), sys.g(x), goal, safes, x)
    return rows[:, :-1], rows[:, -1], goal[0], h_safe


def scaled_z(decision, bounds):
    """(u / scale, delta1, delta2) of a ControlDecision: its QP solution in
    the solver's input-scaled coordinates, with u as clipped to its box."""
    return np.concatenate((decision.u / bounds.scale(), (decision.delta1, decision.delta2)))


def settling_time_bound_basic(a, b, p, q):
    """Classic two-power settling bound 1/(a(1-p)) + 1/(b(q-1)).

    Valid for dV/dt <= -a V**p - b V**q with a, b > 0, 0 < p < 1 < q.
    """
    return 1.0 / (a * (1.0 - p)) + 1.0 / (b * (q - 1.0))


def finite_diff_gradient_check(s, xs):
    """Max relative error of the analytic gradient against central finite
    differences of the value, over the states ``xs``."""
    worst = 0.0
    for x in xs:
        x = np.asarray(x, dtype=float)
        grad = s.value_and_gradient(x)[1]
        fd = np.empty_like(grad)
        for j in range(x.size):
            step = np.zeros_like(x)
            step[j] = _FD_STEP
            fd[j] = (s.value(x + step) - s.value(x - step)) / (2.0 * _FD_STEP)
        err = float(np.linalg.norm(grad - fd)) / max(1.0, float(np.linalg.norm(grad)))
        worst = max(worst, err)
    return worst


def strictly_complementary(problem, solution):
    """True iff every row of the problem has a multiplier or a slack above
    1e-6 at the solution.

    Degenerate rows (both the multiplier and the slack at zero) break the
    regularity needed for the solution map to be continuous.
    """
    if solution.status is not SolveStatus.OPTIMAL:
        raise ValueError("strict complementarity is defined for optimal solutions only")
    slack = problem.b - problem.A @ solution.z_star
    return bool(((solution.lambda_star > _STRICT_CS_FLOOR) | (slack > _STRICT_CS_FLOOR)).all())


def numpy_slack_verdicts(A, b, z, lam):
    """(active rows, strict-CS verdict) of ``fxtqp.qp._slack_verdicts`` as
    numpy expressions on the one slack b - Az: a row is active where its
    slack is at most FEAS_TOL * (1 + |b_i|), and the verdict holds where
    every row has a multiplier or a slack above 1e-6."""
    slack = b - A @ z
    active = tuple((slack <= FEAS_TOL * (1.0 + np.abs(b))).nonzero()[0].tolist())
    return active, bool(((lam > _STRICT_CS_FLOOR) | (slack > _STRICT_CS_FLOOR)).all())


def numpy_clip(z, bounds):
    """(u, overshoot) of ``fxtqp.controller._clip_to_box`` as numpy
    expressions: u = z[:m] * scale clipped to the box, and the largest
    scaled distance the clip moved an input."""
    scale = bounds.scale()
    u = z[:bounds.m] * scale
    u_box = u.clip(bounds.lower, bounds.upper)
    return u_box, max((abs(u - u_box) / scale).tolist())


def numpy_ratio_test(lam, r, norm_p, work_norms, dependent):
    """(t, k) of ``fxtqp.qp._ratio_test`` as numpy expressions on the
    multipliers ``lam`` and the coefficients ``r`` of row p in the working
    set: row j blocks where r_j > 0, or, when row p is ``dependent`` on the
    working set, where r_j > _DEP_TOL * |c_p| / |c_j| (``norm_p``, the
    working rows' ``work_norms``); k is the argmin of lam_j / r_j over the
    blocking rows and t that ratio, floored at 0.0; (inf, -1) when no row
    blocks."""
    lam, r = np.asarray(lam, dtype=float), np.asarray(r, dtype=float)
    blocks = r > (_DEP_TOL * np.float64(norm_p) / np.asarray(work_norms) if dependent else 0.0)
    t, k = math.inf, -1
    if blocks.any():
        ratios = np.where(blocks, lam / np.where(blocks, r, 1.0), np.inf)
        k = int(ratios.argmin())
        t = max(float(ratios[k]), 0.0)
    return t, k


def _numpy_circle(center, radius, agent):
    c, sl = np.asarray(center, dtype=float), slice(2 * agent, 2 * agent + 2)

    def fn(x):
        d = x[sl] - c
        grad = np.zeros(4)
        grad[sl] = 2.0 * d
        return d.dot(d) - radius * radius, grad

    return fn


def _numpy_ellipse(center, semi_x, semi_y, agent):
    c, sl = np.asarray(center, dtype=float), slice(2 * agent, 2 * agent + 2)
    wx, wy = 1.0 / semi_x ** 2, 1.0 / semi_y ** 2

    def fn(x):
        d = x[sl] - c
        grad = np.zeros(4)
        grad[sl] = np.array([2.0 * wx * d[0], 2.0 * wy * d[1]])
        return wx * d[0] ** 2 + wy * d[1] ** 2 - 1.0, grad

    return fn


def _numpy_wall(i, sign, arena):
    normal = np.zeros(4)
    normal[i] = sign
    return lambda x: (sign * x[i] - arena, normal)


def _numpy_hub(r2, agent):
    sl = slice(2 * agent, 2 * agent + 2)

    def fn(x):
        d = x[sl]
        grad = np.zeros(4)
        grad[sl] = -2.0 * d
        return r2 - d.dot(d), grad

    return fn


def _numpy_separation(d2):
    def fn(x):
        d = x[0:2] - x[2:4]
        return d2 - d.dot(d), np.concatenate([-2.0 * d, 2.0 * d])

    return fn


def numpy_tour_sets(cfg, agent):
    """The (value, gradient) maps of the tour's sets for one agent as numpy
    expressions on arrays: the eight waypoint sets in ``waypoint_sets``
    order, the four walls in ``_square_walls`` order, the hub, and last the
    separation of the two agents."""
    r, c, e = cfg.circle_radius, cfg.hub_radius, cfg.hub_radius
    maj, mnr = cfg.ellipse_major, cfg.ellipse_minor
    waypoints = [
        _numpy_circle((-c, c), r, agent), _numpy_ellipse((0.0, e), maj, mnr, agent),
        _numpy_circle((c, c), r, agent), _numpy_ellipse((e, 0.0), mnr, maj, agent),
        _numpy_circle((c, -c), r, agent), _numpy_ellipse((0.0, -e), maj, mnr, agent),
        _numpy_circle((-c, -c), r, agent), _numpy_ellipse((-e, 0.0), mnr, maj, agent),
    ]
    walls = [_numpy_wall(2 * agent + axis, sign, cfg.arena)
             for axis in (0, 1) for sign in (1.0, -1.0)]
    return [*waypoints, *walls, _numpy_hub(cfg.hub_radius ** 2, agent),
            _numpy_separation(cfg.d_m ** 2)]


def continuity_probe(sys, h_g, safes, bounds, params, x, radius, n_samples):
    """Difference quotients ||du|| / ||dx|| of the QP solution map near x.

    The probes lie at distance ``radius`` from x in seeded random
    directions.  Numerical evidence for continuity of the pointwise
    controller, not a proof.  States where strict complementarity fails
    (x included) are counted; spikes in the quotient are expected there.
    """
    cqp = CompiledQp(bounds, params, len(safes))
    base = synthesize(sys, h_g, safes, cqp, x)
    rng = np.random.default_rng(0)
    quotients = np.empty(n_samples)
    nonstrict = int(not base.strict_cs)
    for i in range(n_samples):
        d = rng.normal(size=x.size)
        d *= radius / np.linalg.norm(d)
        probe = synthesize(sys, h_g, safes, cqp, x + d)
        quotients[i] = np.linalg.norm(probe.u - base.u) / radius
        nonstrict += int(not probe.strict_cs)
    return ProbeResult(float(quotients.max()), quotients, nonstrict)
