"""Dense convex QP solver with inequality constraints.

Solves

    minimize    0.5 * z'Hz + F'z
    subject to  A z <= b

for small, strictly convex problems (H positive definite).  Two independent
routes are provided: :func:`solve_qp`, a Goldfarb-Idnani dual active-set
method meant for production use, which can be hot-started from a guess at
its working set and needs neither a feasible start nor an LP, and
:func:`brute_force_solve`, a test oracle that solves the least-distance
form of the problem with one nonnegative least squares (Lawson & Hanson,
*Solving Least Squares Problems*, 1974, ch. 23), a primal active-set method
on the dual independent of the solver's, and checks its own answer.  Both
report duals and the active set so callers can check KKT conditions and
strict complementarity.

:func:`solve_qp` keeps a thin QR factor of its working rows through
``scipy.linalg.lapack`` directly (numpy's ``linalg`` wrappers cost several
times the arithmetic at these sizes): ``dgeqrf``/``dorgqr`` factor a hot
start and refactor after each drop, and every solve with R or R' is ``dtrtrs``.
For the same reason it gathers and scatters its working rows through one
``np.intp`` index array, rebuilt when the set changes, never through a
Python list, which numpy converts on every use.  Its products use
``ndarray.dot``, the same BLAS kernel as ``@`` without the ``matmul``
gufunc's dispatch.  It branches on Python floats and multiplies on BLAS:
the ratio test, the multiplier updates of an add or a drop and the hot
start's choice of the row to drop run on lists, where a numpy call would
cost more than its work on a vector of at most n entries, while every
product, triangular solve and refactor, and the most violated row's search
over all rows, stay on numpy and LAPACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import repeat
from typing import Sequence

import numpy as np
from scipy.linalg import LinAlgError, lapack

__all__ = [
    "QpProblem",
    "QpSolution",
    "SolveStatus",
    "KktResidual",
    "solve_qp",
    "brute_force_solve",
    "kkt_residual",
]

# A row is reported active where its slack is at most FEAS_TOL * (1 + |b_i|);
# the oracle raises rather than return a multiplier below -DUAL_TOL on its
# equilibrated rows.
# Both assume O(1)-sized rows: the controller scales inputs by their bound
# (InputBounds.scale) before it builds them.
FEAS_TOL = 1e-8
DUAL_TOL = 1e-10
_SYM_TOL = 1e-10
# On the equilibrated rows: solve_qp counts a row violated beyond
# _VIOL_TOL * (1 + |b_i|), and takes a row's normal to lie in the span of
# the working set when its part outside that span is at most _DEP_TOL times
# its length.
_VIOL_TOL = 1e-11
_DEP_TOL = 1e-10
# _slack_verdicts' floor on a positive multiplier or slack
_STRICT_CS_TOL = 1e-6


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"


@dataclass(frozen=True)
class QpProblem:
    """Data of a strictly convex inequality-constrained QP.

    All data must be finite, H symmetric positive definite (validated by
    Cholesky, H = LL', whose inverse factor is kept as ``L_inv``, read-only),
    and the constraint data dimensionally consistent with it.  ``f`` =
    L^-1 F, read-only, is the linear term of the objective in the solver's
    coordinates y = L'z.
    """

    H: np.ndarray
    F: np.ndarray
    A: np.ndarray
    b: np.ndarray
    L_inv: np.ndarray = field(init=False, repr=False, compare=False)
    f: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        H = np.asarray(self.H, dtype=float)
        F = np.asarray(self.F, dtype=float).ravel()
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float).ravel()
        if A.size == 0:
            A = A.reshape(0, F.size)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        n = F.size
        if H.shape != (n, n):
            raise ValueError(f"H shape {H.shape} inconsistent with F length {n}")
        if A.ndim != 2 or A.shape[1] != n:
            raise ValueError(f"A shape {A.shape} inconsistent with {n} variables")
        if b.shape != (A.shape[0],):
            raise ValueError(f"b length {b.shape} inconsistent with A rows {A.shape[0]}")
        # one pass over every entry
        if not np.isfinite(np.concatenate((H.ravel(), F, A.ravel(), b))).all():
            raise ValueError("QP data must be finite")
        if np.max(np.abs(H - H.T), initial=0.0) > _SYM_TOL:
            raise ValueError("H is not symmetric within tolerance")
        try:
            L = np.linalg.cholesky(H)
        except np.linalg.LinAlgError as exc:
            raise ValueError("H is not positive definite") from exc
        L_inv = np.linalg.inv(L)
        f = L_inv.dot(F)
        L_inv.setflags(write=False)
        f.setflags(write=False)
        object.__setattr__(self, "L_inv", L_inv)
        object.__setattr__(self, "f", f)

    @property
    def m_c(self) -> int:
        return self.A.shape[0]

    def objective(self, z: np.ndarray) -> float:
        return float(0.5 * z @ self.H @ z + self.F @ z)


@dataclass(frozen=True)
class QpSolution:
    """Primal/dual answer of a QP solve.

    For ``status == INFEASIBLE`` from :func:`solve_qp` the ``lambda_star``
    field carries a Farkas-style certificate: nonnegative row weights y with
    y'A ~ 0 and y'b < 0; so does the oracle's (:func:`brute_force_solve`).
    """

    z_star: np.ndarray
    lambda_star: np.ndarray
    active_set: tuple[int, ...]
    objective: float
    status: SolveStatus
    iterations: int = 0


@dataclass(frozen=True)
class KktResidual:
    stationarity: float
    primal_violation: float
    comp_slack: float


def _slack_verdicts(A: np.ndarray, b: np.ndarray, z: np.ndarray,
                    lam: np.ndarray) -> tuple[tuple[int, ...], bool]:
    """The rows active by value at z, and whether every row has a multiplier
    or a slack above _STRICT_CS_TOL, both from the one slack b - Az."""
    # the comparisons run on Python floats: a ufunc call costs more than
    # its work on a handful of rows
    active, strict = [], True
    for i, (s, b_i, l) in enumerate(zip((b - A.dot(z)).tolist(), b.tolist(), lam.tolist())):
        if s <= FEAS_TOL * (1.0 + abs(b_i)):
            active.append(i)
        if not (l > _STRICT_CS_TOL or s > _STRICT_CS_TOL):
            strict = False
    return tuple(active), strict


def _thin_qr(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q (n x k) and R (k x k) with Q R = M, for an n x k M with 1 <= k <= n.

    R keeps dgeqrf's Householder vectors below its diagonal, unzeroed: it is
    read only through its diagonal and by dtrtrs, which reads the upper part.
    """
    qr, tau, _, info = lapack.dgeqrf(M)
    if info:
        raise LinAlgError(f"dgeqrf failed with info {info}")
    Q, _, info = lapack.dorgqr(qr, tau)
    if info:
        raise LinAlgError(f"dorgqr failed with info {info}")
    return Q, qr[:M.shape[1]]


def _tri_solve(R: np.ndarray, v: np.ndarray, trans: int = 0) -> np.ndarray:
    """x with R x = v (trans=0) or R'x = v (trans=1), R upper triangular."""
    x, info = lapack.dtrtrs(R, v, trans=trans)
    if info:
        raise LinAlgError(f"dtrtrs failed with info {info}")
    return x


def _equality_solve(Q: np.ndarray, R: np.ndarray, f: np.ndarray,
                    b_w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Multipliers and minimizer of 0.5|y|^2 + f'y subject to C_w y = b_w.

    ``Q R`` is a QR factorization of C_w', with at least one row.  The
    minimizer is assembled from its parts in and orthogonal to the span of
    Q, not from the multipliers, so that the working rows hold to the
    round-off of b_w and f.
    """
    on_span = _tri_solve(R, b_w, trans=1)     # Q'y
    qf = Q.T.dot(f)
    lam = _tri_solve(R, -qf - on_span)
    return lam, Q.dot(on_span) - (f - Q.dot(qf))


def _hot_start(C: np.ndarray, f: np.ndarray, b: np.ndarray, norms: np.ndarray,
               warm_start: Sequence[int] | None):
    """Trim a working-set guess to a dual feasible start, or None to start cold.

    The guess's in-range integer indices are taken in index order.  The
    first n of them are factored; a row whose normal lies in the span of
    the rows before it (|R_jj| small against its length, the test of the
    solve's add step) is dropped, the first such row at a time, and the
    rest refactored.  Then, while the equality QP on the set has a negative
    multiplier, the row with the most negative one is dropped.  What is
    left has multipliers >= 0: the minimizer on it is a start the dual
    method accepts.  Returns (work, rows, Q, R, lam, y) with Q R = C_work'
    and ``rows`` the ``np.intp`` array of ``work``.
    """
    if warm_start is None:
        return None
    n, m = C.shape[1], C.shape[0]
    work = sorted({int(i) for i in warm_start
                   if isinstance(i, (int, np.integer)) and 0 <= i < m})
    norm_list = norms.tolist()
    while work:
        kept = work[:n]
        rows = np.array(kept, dtype=np.intp)
        Q, R = _thin_qr(C[rows].T)
        dependent = next((j for j, (r_jj, i) in enumerate(zip(R.diagonal().tolist(), kept))
                          if not abs(r_jj) > _DEP_TOL * norm_list[i]), None)
        if dependent is not None:
            del work[dependent]
            continue
        work = kept
        lam, y = _equality_solve(Q, R, f, b[rows])
        lam_list = lam.tolist()
        low = min(lam_list)
        if low >= 0.0:
            return work, rows, Q, R, lam, y
        del work[lam_list.index(low)]     # the first most negative, as argmin
    return None


def _ratio_test(lam: list[float], r: list[float], norm_p: float,
                work_norms: np.ndarray | None) -> tuple[float, int]:
    """The step t >= 0 by which row p's multiplier rises before the first
    working-set multiplier lam_j - t r_j reaches zero, and that row's
    position k; (inf, -1) when no row blocks.

    ``r`` holds row p's coefficients in the working set.  Row j blocks where
    r_j > 0, or, when row p lies in the span of the working set (``norm_p``
    its length and ``work_norms`` the working rows' lengths, None when it
    does not), where r_j exceeds the round-off size _DEP_TOL |c_p| / |c_j|.
    The first smallest ratio lam_j / r_j wins, as with ``argmin``.
    """
    floors = repeat(0.0) if work_norms is None else (_DEP_TOL * norm_p / work_norms).tolist()
    t, k = math.inf, -1
    for j, (l, r_j, floor) in enumerate(zip(lam, r, floors)):
        if r_j > floor and l / r_j < t:
            t, k = l / r_j, j
    return max(t, 0.0), k     # a multiplier may sit at -0 by round-off


def solve_qp(problem: QpProblem, warm_start: Sequence[int] | None = None) -> QpSolution:
    """Goldfarb-Idnani dual active-set solve of a strictly convex QP.

    Works in the coordinates y = L'z (H = LL'), where the objective is
    0.5|y|^2 + f'y with f = L^-1 F.  The solve starts at the unconstrained
    minimizer y = -f and adds the most violated row until none is left; a
    working-set row whose multiplier would turn negative first leaves the
    working set (Goldfarb & Idnani, Math. Prog. 27, 1983).  No feasible start
    is needed.  On exit the equality QP on the final working set is solved
    once more (unless the start was already optimal), so that stationarity
    holds to round-off.  The working rows are kept as a thin QR factor: an
    added row appends a column to Q and R, a dropped row refactors the rest
    with ``dgeqrf``/``dorgqr``, and every solve with R or R' is ``dtrtrs``.

    ``warm_start`` is a guess at the working set, as row indices, e.g. the
    active set of the previous solve of a nearby problem.  It is trimmed to
    a dual feasible start: indices out of range and rows dependent on the
    rows kept before them are dropped, then rows with negative multipliers,
    most negative first; the solve starts cold only when nothing is left.
    Either way the answer is the same KKT point.

    Constraint rows are equilibrated to unit infinity norm internally; the
    returned duals refer to the rows as given.  Whether a row's normal lies
    in the span of the working set is decided relative to its length.

    Returns a solution with ``status`` OPTIMAL, INFEASIBLE (``lambda_star``
    then holds a Farkas certificate: weight 1 on the row that cannot be
    added, and the negated coefficients of that row in the working set on
    the working set), or ITERATION_LIMIT (a guard against cycling on
    round-off).  ``iterations`` counts the working-set changes the method
    makes after the hot start's trim.  The active set is the rows active by
    value at the returned z (none unless OPTIMAL).
    """
    status, z, lam, iterations, active, _ = _solve(problem.A, problem.b, problem, warm_start)
    objective = problem.objective(z) if status is SolveStatus.OPTIMAL else math.nan
    return QpSolution(z_star=z, lambda_star=lam, active_set=active, objective=objective,
                      status=status, iterations=iterations)


def _solve(A: np.ndarray, b: np.ndarray, objective: QpProblem,
           warm_start: Sequence[int] | None):
    """The body of :func:`solve_qp` over the rows A z <= b and the objective
    of ``objective``, whose own rows it ignores: finite rows of matching
    sizes, as :class:`QpProblem` checks them.

    Returns (status, z, multipliers or Farkas certificate, iterations,
    active set, strict complementarity).  The last two are judged from the
    slack at z when the status is OPTIMAL, and are () and False otherwise.
    """
    L_inv, f = objective.L_inv, objective.f
    n, m = f.size, A.shape[0]
    row_scale = abs(A).max(axis=1, initial=1e-30)
    # the equilibrated rows C y <= d
    d = b / row_scale
    C = (A / row_scale[:, None]).dot(L_inv.T)
    norms = np.sqrt((C * C).sum(axis=1))
    viol_tol = _VIOL_TOL * (1.0 + np.abs(d))

    # work keeps the set's order; rows indexes with it, rebuilt on each change
    start = _hot_start(C, f, d, norms, warm_start)
    if start is None:
        work, rows = [], np.zeros(0, dtype=np.intp)
        Q, R, lam, y = np.zeros((n, 0)), np.zeros((0, 0)), np.zeros(0), -f
    else:
        work, rows, Q, R, lam, y = start

    iterations = 0
    max_iter = 50 * (m + n)
    while m:
        excess = C.dot(y) - d - viol_tol
        excess[rows] = -np.inf
        p = int(excess.argmax())
        if excess[p] <= 0.0:
            break
        c, lam_p = C[p], 0.0
        if not iterations:
            lam = lam.tolist()     # the multipliers change on floats from here
        while True:
            # raise row p's multiplier until the row is active, dropping the
            # working-set rows whose multipliers reach zero on the way
            iterations += 1
            if iterations > max_iter:
                return (SolveStatus.ITERATION_LIMIT, L_inv.T.dot(y), np.zeros(m), iterations,
                        (), False)
            v = Q.T.dot(c)
            w = c - Q.dot(v)
            v_re = Q.T.dot(w)     # one re-orthogonalization keeps w accurate
            w -= Q.dot(v_re)
            v += v_re
            r = _tri_solve(R, v) if work else v     # c = C_work' r + w
            r_list = r.tolist()
            w2 = float(w.dot(w))
            norm_p = norms[p]
            dependent = w2 <= (_DEP_TOL * norm_p) ** 2
            t, k = _ratio_test(lam, r_list, norm_p, norms[rows] if dependent else None)
            if dependent and k < 0:
                cert = np.zeros(m)
                cert[p] = 1.0
                cert[rows] = np.maximum(-r, 0.0)
                return (SolveStatus.INFEASIBLE, L_inv.T.dot(y), cert / row_scale, iterations,
                        (), False)
            if not dependent:
                t_full = float(c.dot(y) - d[p]) / w2
                if t_full <= t:
                    y = y - t_full * w
                    lam = [l - t_full * r_j for l, r_j in zip(lam, r_list)]
                    lam.append(lam_p + t_full)
                    size = len(work)
                    # Fortran order: dtrtrs reads R without a copy
                    R_add = np.zeros((size + 1, size + 1), order="F")
                    R_add[:size, :size] = R
                    R_add[:size, size] = v
                    R_add[size, size] = math.sqrt(w2)
                    Q, R = np.concatenate((Q, (w / R_add[size, size])[:, None]), axis=1), R_add
                    work.append(p)
                    rows = np.array(work, dtype=np.intp)
                    break
                y = y - t * w
            lam = [l - t * r_j for l, r_j in zip(lam, r_list)]
            del lam[k]
            lam_p += t
            del work[k]
            rows = np.array(work, dtype=np.intp)
            # LAPACK gets no empty matrix: an emptied set keeps empty factors
            Q, R = _thin_qr(C[rows].T) if work else (Q[:, :0], R[:0, :0])

    if iterations and work:
        lam, y = _equality_solve(Q, R, f, d[rows])
    lam_full = np.zeros(m)
    lam_full[rows] = np.maximum(lam, 0.0) / row_scale[rows]
    z = L_inv.T.dot(y)
    return (SolveStatus.OPTIMAL, z, lam_full, iterations, *_slack_verdicts(A, b, z, lam_full))


def brute_force_solve(problem: QpProblem) -> QpSolution:
    """Least-distance oracle: one NNLS on the dual, then an equality QP.

    It takes its own Cholesky factor H = LL', not the problem's ``L_inv``,
    and works in y = L'z over the equilibrated rows C = (A / row_scale) L^-T
    and f = L^-1 F.  In x = y + f the QP is min |x| s.t. -C x >= h with
    h = -(b + C f), which Lawson & Hanson (1974, ch. 23) solve with one
    nonnegative least squares: min |E u - e| over u >= 0, E = [-C'; h'],
    e = (0, ..., 0, 1), by ``scipy.optimize.nnls``, imported here and so
    never by the step.  Its last residual h'u - 1 equals -|E u - e|^2.
    When that is zero, up to the round-off of h'u, no point is feasible:
    the answer is INFEASIBLE, with the Farkas certificate u / row_scale as
    ``lambda_star`` and the unconstrained minimizer as ``z_star``.
    Otherwise the support of u is the working set, and the equality QP on
    it gives y and the multipliers.  y is assembled from its parts in and
    orthogonal to span(Q), Q R a QR factor of the working rows' C', so the
    working rows hold to round-off however large the multipliers.

    The oracle checks its own answer and raises RuntimeError if it fails:
    an OPTIMAL answer must hold every equilibrated row within 1e-9 and have
    multipliers >= -DUAL_TOL, and an INFEASIBLE one a certificate y >= 0
    with |y'A| <= 1e-9 and y'b < 0.  A faulty NNLS therefore shows as an
    error, never as a wrong answer.
    """
    from scipy.optimize import nnls

    m = problem.m_c
    row_scale = np.maximum(np.abs(problem.A).max(axis=1, initial=0.0), 1e-30)
    A = problem.A / row_scale[:, None]
    b = problem.b / row_scale
    L_inv = np.linalg.inv(np.linalg.cholesky(problem.H))
    C = A @ L_inv.T
    f = L_inv @ problem.F
    h = -(b + C @ f)
    # nnls gets no empty matrix: scipy 1.17's aborts the interpreter on one
    u = nnls(np.vstack((-C.T, h)), np.append(np.zeros(f.size), 1.0))[0] if m else np.zeros(0)
    if 1.0 - h @ u <= 1e-13 * (np.abs(h) @ u):
        if not ((u >= 0.0).all() and (np.abs(u @ A) <= 1e-9).all() and u @ b < 0.0):
            raise RuntimeError("brute_force_solve: the NNLS Farkas certificate fails its check")
        return QpSolution(z_star=-L_inv.T @ f, lambda_star=u / row_scale, active_set=(),
                          objective=math.nan, status=SolveStatus.INFEASIBLE)

    W = u.nonzero()[0]
    y, lam = -f, np.zeros(0)
    if W.size:
        Q, R = np.linalg.qr(C[W].T)
        on_span = np.linalg.solve(R.T, b[W])     # Q'y
        qf = Q.T @ f
        lam = np.linalg.solve(R, -qf - on_span)
        y = Q @ (on_span + qf) - f
    # written so that a NaN fails
    if not ((C @ y - b <= 1e-9).all() and (lam >= -DUAL_TOL).all()):
        raise RuntimeError("brute_force_solve: the optimum on the NNLS support fails its check")
    z = L_inv.T @ y
    lam_full = np.zeros(m)
    lam_full[W] = np.maximum(lam, 0.0) / row_scale[W]
    return QpSolution(
        z_star=z,
        lambda_star=lam_full,
        active_set=_slack_verdicts(problem.A, problem.b, z, lam_full)[0],
        objective=float(0.5 * (y @ y) + f @ y),
        status=SolveStatus.OPTIMAL,
    )


def kkt_residual(problem: QpProblem, solution: QpSolution) -> KktResidual:
    """Infinity-norm KKT residuals of a candidate solution."""
    z, lam = solution.z_star, solution.lambda_star
    stat = problem.H @ z + problem.F
    if problem.m_c:
        stat = stat + problem.A.T @ lam
        slack = problem.A @ z - problem.b
        primal = float(np.max(np.maximum(slack, 0.0), initial=0.0))
        comp = float(np.max(np.abs(lam * slack), initial=0.0))
    else:
        primal = 0.0
        comp = 0.0
    return KktResidual(
        stationarity=float(np.max(np.abs(stat), initial=0.0)),
        primal_violation=primal,
        comp_slack=comp,
    )
