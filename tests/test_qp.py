import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fxtqp import qp
from fxtqp.qp import (
    QpProblem,
    SolveStatus,
    _thin_qr,
    _tri_solve,
    brute_force_solve,
    kkt_residual,
    solve_qp,
)
from reference_checks import numpy_ratio_test, numpy_slack_verdicts, strictly_complementary


def make_problem(H, F, A=None, b=None):
    n = len(F)
    if A is None:
        A = np.zeros((0, n))
        b = np.zeros(0)
    return QpProblem(H=np.asarray(H, float), F=np.asarray(F, float),
                     A=np.asarray(A, float), b=np.asarray(b, float))


def random_feasible_problem(rng, n_max=6, m_max=10):
    """Strictly convex QP with a guaranteed interior point."""
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(0, m_max + 1))
    M = rng.normal(size=(n, n))
    H = M @ M.T + np.eye(n) * (0.5 + rng.random())
    F = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    interior = rng.normal(size=n)
    b = A @ interior + 0.1 + rng.random(m) if m else np.zeros(0)
    return make_problem(H, F, A, b)


class TestSmallExamples:
    def test_unconstrained_origin(self):
        p = make_problem(np.eye(2), np.zeros(2))
        s = solve_qp(p)
        assert s.status is SolveStatus.OPTIMAL
        assert np.allclose(s.z_star, 0.0)
        assert s.objective == pytest.approx(0.0, abs=1e-15)

    def test_single_active_constraint(self):
        # min 0.5 z^2 s.t. z >= 1: stationarity gives z = lambda = 1
        p = make_problem([[1.0]], [0.0], [[-1.0]], [-1.0])
        for sol in (solve_qp(p), brute_force_solve(p)):
            assert sol.status is SolveStatus.OPTIMAL
            assert sol.z_star[0] == pytest.approx(1.0, abs=1e-12)
            assert sol.lambda_star[0] == pytest.approx(1.0, abs=1e-12)
            assert sol.active_set == (0,)

    def test_box_corner_projection(self):
        p = make_problem(np.eye(2), np.zeros(2),
                         [[1.0, 0.0], [0.0, 1.0]], [-1.0, -1.0])
        s = brute_force_solve(p)
        assert np.allclose(s.z_star, [-1.0, -1.0], atol=1e-12)
        assert s.active_set == (0, 1)
        assert np.allclose(solve_qp(p).z_star, s.z_star, atol=1e-10)

    def test_infeasible_has_farkas_certificate(self):
        p = make_problem([[1.0]], [0.0], [[1.0], [-1.0]], [-1.0, -1.0])
        for solve in (solve_qp, brute_force_solve):
            s = solve(p)
            assert s.status is SolveStatus.INFEASIBLE
            y = s.lambda_star
            assert np.all(y >= -1e-12)
            assert abs(y @ p.A) <= 1e-9
            assert y @ p.b < -1e-9

    def test_random_infeasible_problems_have_certificates(self):
        # a feasible problem plus the contradictory pair a'z <= -1, -a'z <= -1
        rng = np.random.default_rng(17)
        for _ in range(200):
            p = random_feasible_problem(rng)
            a = rng.normal(size=p.F.size)
            q = make_problem(p.H, p.F, np.vstack([p.A, a, -a]),
                             np.concatenate([p.b, [-1.0, -1.0]]))
            for solve in (solve_qp, brute_force_solve):
                s = solve(q)
                assert s.status is SolveStatus.INFEASIBLE
                y = s.lambda_star
                assert np.all(y >= 0.0)
                assert np.max(np.abs(y @ q.A)) <= 1e-9
                assert y @ q.b < 0.0

    def test_zero_row(self):
        # 0'z <= b holds for b >= 0 and is its own certificate for b < 0
        p = make_problem(np.eye(2), [1.0, -1.0], [[0.0, 0.0], [1.0, 0.0]], [0.0, -2.0])
        q = make_problem(np.eye(2), [1.0, -1.0], [[0.0, 0.0], [1.0, 0.0]], [-1.0, -2.0])
        for solve in (solve_qp, brute_force_solve):
            s = solve(p)
            assert s.status is SolveStatus.OPTIMAL
            assert np.allclose(s.z_star, [-2.0, 1.0], atol=1e-12)
            s = solve(q)
            assert s.status is SolveStatus.INFEASIBLE
            assert s.lambda_star[0] > 0 and s.lambda_star @ q.b < 0
            assert np.all(s.lambda_star @ q.A == 0.0)

    @pytest.mark.parametrize("b, u, match", [
        # the support misses an active row: the optimum on it violates row 1
        ([-1.0, -1.0], [0.25, 0.0], "optimum on the NNLS support"),
        # the support holds z1 = 5, which needs the multiplier -4
        ([5.0, 0.5], [1.0, 1.0], "optimum on the NNLS support"),
        # h'u = 1 claims infeasibility, but u'A is not zero
        ([-1.0, -1.0], [0.25, 0.25], "Farkas certificate")],
        ids=["missing-row", "negative-multiplier", "false-certificate"])
    def test_oracle_refuses_a_wrong_nnls_answer(self, monkeypatch, b, u, match):
        # min 0.5|z|^2 - z1 - z2 s.t. z <= b, whose rows give h = -(b + f) = 1 - b
        import scipy.optimize

        p = make_problem(np.eye(2), [-1.0, -1.0], np.eye(2), b)
        monkeypatch.setattr(scipy.optimize, "nnls", lambda E, e: (np.array(u), 0.0))
        with pytest.raises(RuntimeError, match=match):
            brute_force_solve(p)


class TestKktResidual:
    # one active row, and a QP with no rows (A.T @ lam is then zeros and the
    # empty maxima are 0)
    @pytest.mark.parametrize("data", [([0.0], [[-1.0]], [-1.0]), ([-2.0], None, None)],
                             ids=["one-row", "row-less"])
    @pytest.mark.parametrize("solve", [solve_qp, brute_force_solve])
    def test_exact_solution_zero_residuals(self, data, solve):
        p = make_problem([[1.0]], *data)
        r = kkt_residual(p, solve(p))
        assert r.stationarity <= 1e-12
        assert r.primal_violation <= 1e-12
        assert r.comp_slack <= 1e-12

    def test_perturbed_primal_shows_in_stationarity(self):
        p = make_problem([[1.0]], [0.0], [[-1.0]], [-1.0])
        s = solve_qp(p)
        bad = type(s)(z_star=s.z_star + 1e-3, lambda_star=s.lambda_star,
                      active_set=s.active_set, objective=s.objective,
                      status=s.status)
        r = kkt_residual(p, bad)
        assert r.stationarity == pytest.approx(1e-3, rel=1e-6)

    def test_infeasible_point_primal_violation(self):
        p = make_problem([[1.0]], [0.0], [[-1.0]], [-1.0])
        s = solve_qp(p)
        bad = type(s)(z_star=np.zeros(1), lambda_star=np.zeros(1),
                      active_set=(), objective=0.0, status=s.status)
        assert kkt_residual(p, bad).primal_violation == pytest.approx(1.0)


class TestStrictComplementarity:
    def test_active_with_positive_multiplier(self):
        p = make_problem([[1.0]], [0.0], [[-1.0]], [-1.0])
        assert strictly_complementary(p, solve_qp(p))

    def test_strictly_inactive_constraint(self):
        p = make_problem(np.eye(2), np.zeros(2), [[1.0, 0.0]], [5.0])
        assert strictly_complementary(p, solve_qp(p))

    def test_degenerate_constraint_fails(self):
        # min 0.5 z^2 s.t. z <= 0: z* = 0 and lambda* = 0 coincide
        p = make_problem([[1.0]], [0.0], [[1.0]], [0.0])
        assert not strictly_complementary(p, solve_qp(p))

    def test_refuses_a_solution_that_is_not_optimal(self):
        # z <= -1 and -z <= -1 have no common point
        p = make_problem([[1.0]], [0.0], [[1.0], [-1.0]], [-1.0, -1.0])
        s = solve_qp(p)
        assert s.status is SolveStatus.INFEASIBLE
        with pytest.raises(ValueError, match="optimal solutions only"):
            strictly_complementary(p, s)


    def test_scalar_judge_is_the_numpy_expressions_bit_for_bit(self):
        # _slack_verdicts compares on Python floats; it must give the numpy
        # expressions' verdicts on seeded problems and on the edges: a
        # one-variable row with z = 1 has slack b - a, rounded once, so the
        # slacks below sit at, just inside and just beyond each threshold
        rng = np.random.default_rng(28)
        cases = []
        for _ in range(300):
            m, n = int(rng.integers(0, 8)), int(rng.integers(1, 5))
            A, z = rng.normal(size=(m, n)), rng.normal(size=n)
            gap = rng.choice([0.0, 1e-9, 1e-8, 1e-7, 1e-6, 1.0], size=m)
            b = A @ z + gap * rng.normal(size=m)
            lam = np.where(rng.random(m) < 0.5, 0.0, rng.choice([1e-7, 1e-6, 1.0], size=m))
            cases.append((A, b, z, lam))
        rows = []
        for b_i in (0.0, -0.0, 3.0, -2.5, 1e-3):
            s = qp.FEAS_TOL * (1.0 + abs(b_i))
            for slack in (s, np.nextafter(s, 0.0), np.nextafter(s, 1.0), 0.0, -0.0):
                rows.append((b_i - slack, b_i, 0.0))
        at = qp._STRICT_CS_TOL
        for slack in (at, np.nextafter(at, 0.0), np.nextafter(at, 1.0)):
            for lam_i in (0.0, -0.0, at, np.nextafter(at, 1.0)):
                rows.append((-slack, 0.0, lam_i))
        one = np.ones(1)
        assert any(0.0 - a == qp.FEAS_TOL for a, b_i, _ in rows if b_i == 0.0)
        cases += [(np.array([[a]]), np.array([b_i]), one, np.array([lam_i]))
                  for a, b_i, lam_i in rows]
        a, b, lam = (np.array(col) for col in zip(*rows))
        cases.append((a[:, None], b, one, lam))
        cases.append((np.zeros((0, 3)), np.zeros(0), np.ones(3), np.zeros(0)))
        for A, b, z, lam in cases:
            assert qp._slack_verdicts(A, b, z, lam) == numpy_slack_verdicts(A, b, z, lam)


class TestFloatBranching:
    # the solver's ratio test and its hot start's trim branch on Python
    # floats; each must pick what the numpy expressions they replace pick

    @staticmethod
    def same(p, q):
        return p == q and math.copysign(1.0, p) == math.copysign(1.0, q)

    def test_ratio_test_is_the_numpy_expressions_bit_for_bit(self):
        # seeded (lam, r, norms), most drawn from small value sets so that
        # ratios tie, multipliers sit at +-0.0 and coefficients at +-0.0 or
        # near the dependent floor, and the edges: tied ratios, signed zero
        # multipliers, r_j exactly at the dependent floor and no blocking row
        rng = np.random.default_rng(32)
        cases = []
        for _ in range(2000):
            k = int(rng.integers(0, 7))
            lam = rng.choice([0.0, -0.0, 1.0, 2.0, 3.0, 1e-17, -1e-17], size=k)
            r = rng.choice([-1.0, -0.0, 0.0, 1e-10, 3e-11, 2e-10, 0.5, 1.0, 2.0], size=k)
            norms = rng.choice([0.5, 1.0, 3.0], size=k + 1)
            if k and rng.random() < 0.3:
                j = int(rng.integers(0, k))
                r[j] = (qp._DEP_TOL * norms[0] / norms[1:])[j]
            cases.append((lam, r, norms[0], norms[1:]))
            cases.append((rng.uniform(0.0, 2.0, k), rng.normal(size=k),
                          rng.uniform(0.1, 10.0), rng.uniform(0.1, 10.0, k)))
        ones = np.ones(4)
        floor = qp._DEP_TOL * np.float64(1.0) / np.array([1.0, 2.0])
        cases += [
            (np.array([2.0, 1.0, 2.0, 1.0]), np.ones(4), 1.0, ones),     # tied ratios
            (np.array([3.0, 6.0]), np.array([1.0, 2.0]), 1.0, ones[:2]),
            (np.array([-0.0, 0.0]), np.ones(2), 1.0, ones[:2]),     # signed zeros
            (np.array([0.0, -0.0]), np.ones(2), 1.0, ones[:2]),
            (np.array([1.0, -0.0]), np.array([1.0, 2.0]), 1.0, ones[:2]),
            (np.array([0.0, 5.0]), np.array([floor[0], 1.0]), 1.0, np.array([1.0, 2.0])),
            (np.array([0.0, 5.0]), np.array([1.0, floor[1]]), 1.0, np.array([1.0, 2.0])),
            (np.array([0.0, 0.0, 3.0]), np.array([0.0, -0.0, 1.0]), 1.0, ones[:3]),
            (np.array([1.0, 1.0]), np.array([-1.0, 0.0]), 1.0, ones[:2]),     # no block
            (np.array([1.0, 1.0]), np.array([1e-11, floor[1]]), 1.0, np.array([1.0, 2.0])),
            (np.zeros(0), np.zeros(0), 1.0, np.zeros(0)),
        ]
        for lam, r, norm_p, work_norms in cases:
            for dependent in (False, True):
                t, k = qp._ratio_test(lam.tolist(), r.tolist(), np.float64(norm_p),
                                      work_norms if dependent else None)
                t_ref, k_ref = numpy_ratio_test(lam, r, norm_p, work_norms, dependent)
                assert k == k_ref and self.same(t, t_ref), (lam, r, dependent)

    def test_hot_start_drops_the_row_argmin_would(self, monkeypatch):
        # fed chosen multipliers for the whole guess, the trim must drop the
        # row numpy's argmin picks when it is negative, and nothing else: ties
        # between equal most negative multipliers and -0.0 against 0.0
        # included.  Identity rows are independent, and b[rows] = rows names
        # the rows of each equality solve
        n = 6
        C, f, b, norms = np.eye(n), np.zeros(n), np.arange(float(n)), np.ones(n)

        def trim(lam_first):
            solved = []

            def equality_solve(Q, R, f_, b_w):
                solved.append(b_w.tolist())
                return (lam_first if len(solved) == 1 else np.zeros(b_w.size)), np.zeros(n)

            monkeypatch.setattr(qp, "_equality_solve", equality_solve)
            start = qp._hot_start(C, f, b, norms, range(lam_first.size))
            return (start[0] if start else []), solved

        rng = np.random.default_rng(32)
        cases = [[-1.0, -2.0, -2.0, 0.0], [-3.0, -3.0], [0.0, -0.0], [-0.0, 0.0, 1.0],
                 [1.0, -0.0, -1e-300, -1e-300], [2.0, 1.0], [-5.0]]
        cases += [rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0], size=int(rng.integers(1, n + 1)))
                  for _ in range(300)]
        for lam in map(np.array, cases):
            k = int(lam.argmin())
            kept = [j for j in range(lam.size) if not (lam[k] < 0.0 and j == k)]
            # a trimmed guess is solved once more, unless nothing is left
            solves = [list(range(lam.size))] + ([kept] if 0 < len(kept) < lam.size else [])
            assert trim(lam) == (kept, solves), lam


class TestOracleAgreement:
    def test_cross_check_on_random_problems(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p = random_feasible_problem(rng)
            a = solve_qp(p)
            o = brute_force_solve(p)
            assert a.status is SolveStatus.OPTIMAL
            assert a.objective == pytest.approx(o.objective, abs=1e-8)
            if strictly_complementary(p, a):
                assert np.max(np.abs(a.z_star - o.z_star)) <= 1e-6

    def test_residual_invariants_on_random_problems(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            p = random_feasible_problem(rng)
            s = solve_qp(p)
            r = kkt_residual(p, s)
            assert r.stationarity <= 1e-8
            assert r.primal_violation <= 1e-8
            assert r.comp_slack <= 1e-8
            assert np.all(s.lambda_star >= -1e-10)


class TestAlgebraicProperties:
    def test_objective_scaling_leaves_primal_scales_duals(self):
        rng = np.random.default_rng(3)
        p = random_feasible_problem(rng, n_max=4, m_max=8)
        while p.m_c < 3:
            p = random_feasible_problem(rng, n_max=4, m_max=8)
        c = 3.7
        s1 = solve_qp(p)
        s2 = solve_qp(QpProblem(H=c * p.H, F=c * p.F, A=p.A, b=p.b))
        assert np.max(np.abs(s1.z_star - s2.z_star)) <= 1e-8
        assert np.max(np.abs(c * s1.lambda_star - s2.lambda_star)) <= 1e-6 * (1 + c * np.max(np.abs(s1.lambda_star), initial=0))

    def test_warm_start_changes_nothing(self):
        # every working-set guess, usable or not, ends at the cold optimum:
        # the cold active set, out-of-range or malformed indices, more rows
        # than variables, and single rows (some with a negative multiplier)
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_feasible_problem(rng)
            cold = solve_qp(p)
            m = p.m_c
            guesses = [cold.active_set, (m,), (-1,), (0, m + 5), (0.5,), (0, 0),
                       tuple(range(m))] + [(i,) for i in range(m)]
            for guess in guesses:
                warm = solve_qp(p, warm_start=guess)
                assert warm.status is SolveStatus.OPTIMAL
                assert warm.objective == pytest.approx(cold.objective, abs=1e-10), guess
                assert kkt_residual(p, warm).stationarity <= 1e-8

    def test_warm_start_on_dependent_pair(self):
        # the opposing rows of an equality pin are dependent: the later one is
        # dropped and the solve starts from the rest, not cold
        p = make_problem(np.eye(3), [-1.0, -1.0, -1.0],
                         [[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0]],
                         [0.0, 0.0, 0.3])
        cold = solve_qp(p)
        assert cold.iterations == 2
        for guess, iterations in (((0, 1), 1), ((0, 1, 2), 0), ((1, 0), 1), ((2, 1, 0), 0)):
            warm = solve_qp(p, warm_start=guess)
            assert warm.iterations == iterations < cold.iterations, guess
            assert warm.objective == pytest.approx(cold.objective, abs=1e-10)
            assert np.allclose(warm.z_star, [0.3, 1.0, 0.0], atol=1e-10)

    def test_warm_start_with_more_rows_than_variables(self):
        # min 0.5|z - (2, 2)|^2 s.t. z1 <= 1, z2 <= 1, z1 <= 3, z1 + z2 <= 5:
        # a guess of all four rows keeps the first two, which are optimal;
        # (0, 2, 3) drops row 2, dependent on row 0, and takes row 3 in its
        # place, whose multiplier -2 then drops it as well
        p = make_problem(np.eye(2), [-2.0, -2.0],
                         [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]],
                         [1.0, 1.0, 3.0, 5.0])
        cold = solve_qp(p)
        assert cold.iterations == 2
        for guess, iterations in (((0, 1, 2, 3), 0), ((3, 2, 1, 0), 0), ((0, 1, 3), 0),
                                  ((0, 2, 3), 1)):
            warm = solve_qp(p, warm_start=guess)
            assert warm.iterations == iterations < cold.iterations, guess
            assert warm.objective == pytest.approx(cold.objective, abs=1e-10)
            assert np.allclose(warm.z_star, [1.0, 1.0], atol=1e-12)

    def test_warm_start_with_negative_multiplier(self):
        # min 0.5|z - (1, 1)|^2 s.t. z1 <= 5, z2 <= 0.5: holding z1 = 5 needs
        # the multiplier 1 - 5 = -4, so that row is dropped from the guess
        p = make_problem(np.eye(2), [-1.0, -1.0], [[1.0, 0.0], [0.0, 1.0]], [5.0, 0.5])
        cold = solve_qp(p)
        assert cold.active_set == (1,) and cold.iterations == 1
        for guess, iterations in (((0,), 1), ((0, 1), 0), ((1,), 0)):
            warm = solve_qp(p, warm_start=guess)
            assert warm.iterations == iterations, guess
            assert warm.objective == pytest.approx(cold.objective, abs=1e-10)
            assert np.allclose(warm.z_star, [1.0, 0.5], atol=1e-12)
            assert np.allclose(warm.lambda_star, [0.0, 0.5], atol=1e-12)

    def test_drop_to_empty_working_set(self):
        # min 0.5|z|^2 s.t. z1 >= 1, z2 <= 2 z1 - 5: the optimum (2, -1) holds
        # row 1 alone with multiplier 1.  From the guess (0,), adding row 1
        # drives row 0's multiplier to zero first, so row 0 is dropped, which
        # empties the working set, and then row 1 is added
        p = make_problem(np.eye(2), [0.0, 0.0], [[-1.0, 0.0], [-2.0, 1.0]], [-1.0, -5.0])
        for guess, iterations in ((None, 1), ((0,), 2), ((1,), 0), ((0, 1), 0)):
            s = solve_qp(p, warm_start=guess)
            assert s.status is SolveStatus.OPTIMAL
            assert s.iterations == iterations, guess
            assert np.allclose(s.z_star, [2.0, -1.0], atol=1e-12)
            assert np.allclose(s.lambda_star, [0.0, 1.0], atol=1e-12)
            assert s.active_set == (1,)

    def test_cycling_ends_at_the_iteration_guard(self, monkeypatch):
        # min 0.5|z|^2 s.t. z1 <= -1, -z1 + 0.1 z2 <= -1: two lines at a
        # shallow angle.  A ratio test that drops the working row at once
        # makes each add push the other row out of its half-space, a zig-zag
        # that creeps toward the corner by about 1 % per add, so the method
        # cycles until the guard at 50 (m + n) working-set changes
        p = make_problem(np.eye(2), [0.0, 0.0], [[1.0, 0.0], [-1.0, 0.1]], [-1.0, -1.0])
        assert solve_qp(p).status is SolveStatus.OPTIMAL
        monkeypatch.setattr(qp, "_ratio_test",
                            lambda lam, r, norm_p, work_norms:
                            (0.0, 0) if lam else (math.inf, -1))
        s = solve_qp(p)
        assert s.status is SolveStatus.ITERATION_LIMIT
        assert s.iterations == 50 * (2 + 2) + 1
        assert np.array_equal(s.lambda_star, np.zeros(2))
        assert s.active_set == () and math.isnan(s.objective)

    def test_solve_path_makes_no_numpy_linalg_call(self, monkeypatch):
        # every factor and solve of a step goes through LAPACK directly; the
        # problems are built first, so their H is factored and cached
        dependent_pair = make_problem(np.eye(3), [-1.0, -1.0, -1.0],
                                      [[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0]],
                                      [0.0, 0.0, 0.3])
        drop_to_empty = make_problem(np.eye(2), [0.0, 0.0],
                                     [[-1.0, 0.0], [-2.0, 1.0]], [-1.0, -5.0])
        infeasible = make_problem([[1.0]], [0.0], [[1.0], [-1.0]], [-1.0, -1.0])

        def forbidden(*args, **kwargs):
            raise AssertionError("np.linalg called on the solve path")

        monkeypatch.setattr(np.linalg, "qr", forbidden)
        monkeypatch.setattr(np.linalg, "solve", forbidden)
        cold = solve_qp(dependent_pair)
        assert solve_qp(dependent_pair, warm_start=cold.active_set).iterations == 0
        assert solve_qp(dependent_pair, warm_start=(0, 1)).iterations == 1
        assert solve_qp(drop_to_empty, warm_start=(0,)).iterations == 2
        assert solve_qp(infeasible).status is SolveStatus.INFEASIBLE

    def test_singular_triangle_raises(self):
        # a zero on R's diagonal is LAPACK's info > 0, never a silent answer
        with pytest.raises(np.linalg.LinAlgError):
            _tri_solve(np.array([[1.0, 2.0], [0.0, 0.0]]), np.ones(2))

    @pytest.mark.parametrize("routine", ["dgeqrf", "dorgqr"])
    def test_failed_qr_raises(self, monkeypatch, routine):
        # a non-zero info from either QR routine is an error, never a silent answer
        stub = SimpleNamespace(dgeqrf=qp.lapack.dgeqrf, dorgqr=qp.lapack.dorgqr)
        real = getattr(stub, routine)
        setattr(stub, routine, lambda *args: (*real(*args)[:-1], -1))
        monkeypatch.setattr(qp, "lapack", stub)
        with pytest.raises(np.linalg.LinAlgError, match=routine):
            _thin_qr(np.eye(3)[:, :2])

    def test_hot_start_from_optimal_set_takes_no_iteration(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = random_feasible_problem(rng)
            cold = solve_qp(p)
            hot = solve_qp(p, warm_start=cold.active_set)
            if strictly_complementary(p, cold):
                assert hot.iterations == 0
                assert np.max(np.abs(hot.z_star - cold.z_star), initial=0.0) <= 1e-9

    def test_deterministic_bitwise(self):
        rng = np.random.default_rng(9)
        p = random_feasible_problem(rng)
        s1, s2 = solve_qp(p), solve_qp(p)
        assert np.array_equal(s1.z_star, s2.z_star)
        assert np.array_equal(s1.lambda_star, s2.lambda_star)
        assert s1.active_set == s2.active_set

    def test_rescaled_active_row_leaves_the_solution(self):
        # A[i] and b[i] scaled together bound the same half-space; the rows'
        # equilibration keeps the solve's tolerances from seeing the scale
        rng = np.random.default_rng(13)
        solved = 0
        while solved < 20:
            H = np.eye(3) + 0.5 * np.diag(rng.random(3))
            A = rng.normal(size=(6, 3))
            b = A.dot(rng.normal(size=3)) + 0.1 + rng.random(6)
            p = make_problem(H, 3.0 * rng.normal(size=3), A, b)
            s = solve_qp(p)
            if s.status is not SolveStatus.OPTIMAL or not s.active_set:
                continue
            solved += 1
            i = s.active_set[0]
            for scale in (1e-12, 1e12):
                A2, b2 = A.copy(), b.copy()
                A2[i] *= scale
                b2[i] *= scale
                r = solve_qp(make_problem(H, p.F, A2, b2))
                assert r.status is SolveStatus.OPTIMAL, (solved, scale)
                assert np.max(np.abs(r.z_star - s.z_star)) <= 1e-9, (solved, scale)

    def test_equality_encoded_rows(self):
        # z2 pinned to zero by an opposing row pair: an equality as two rows
        p = make_problem(np.eye(3), [-1.0, -1.0, -1.0],
                         [[0, 0, 1.0], [0, 0, -1.0], [1.0, 0, 0]],
                         [0.0, 0.0, 0.3])
        s = solve_qp(p)
        assert s.status is SolveStatus.OPTIMAL
        assert np.allclose(s.z_star, [0.3, 1.0, 0.0], atol=1e-10)


def _signed(rng, shape):
    """Normal entries with about a fifth of them +0.0 or -0.0."""
    a = rng.normal(size=shape)
    zero = rng.random(shape) < 0.2
    a[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    return a


def _q_product(rng, n, grown, transposed):
    """(Q', a vector) or (Q, a vector) for an orthonormal n x k Q as the
    solver holds one: dorgqr's, in Fortran order, or one grown a column by
    concatenation, as the add step grows it."""
    Q = _thin_qr(rng.normal(size=(n, int(rng.integers(1, n + 1)))))[0]
    if grown:
        Q = np.concatenate((Q[:, :-1], Q[:, -1:]), axis=1)
    return (Q.T, _signed(rng, n)) if transposed else (Q, _signed(rng, Q.shape[1]))


def _inverse_factor(rng):
    """L^-1 of a random diagonal H = LL', as QpProblem keeps it."""
    return np.linalg.inv(np.linalg.cholesky(np.diag(rng.uniform(0.01, 100.0, 6))))


# operand pairs laid out as the step multiplies them
DOT_CASES = {
    "d.d, 2": lambda rng: (_signed(rng, 2), _signed(rng, 2)),
    "w.w, 3": lambda rng: (_signed(rng, 3), _signed(rng, 3)),
    "grad.fx, 4": lambda rng: (_signed(rng, 4), _signed(rng, 4)),
    "c.y, 6": lambda rng: (_signed(rng, (24, 6))[5], _signed(rng, 6)),
    "C y, (24,6)": lambda rng: (_signed(rng, (24, 6)), _signed(rng, 6)),
    "A z, (24,6) of [A | b]": lambda rng: (_signed(rng, (24, 7))[:, :-1], _signed(rng, 6)),
    "C y, (6,3)": lambda rng: (_signed(rng, (6, 3)), _signed(rng, 3)),
    "A z, (6,3) of [A | b]": lambda rng: (_signed(rng, (6, 4))[:, :-1], _signed(rng, 3)),
    "Q'f, Fortran Q": lambda rng: _q_product(rng, 6, grown=False, transposed=True),
    "Q v, Fortran Q": lambda rng: _q_product(rng, 6, grown=False, transposed=False),
    "Q'c, grown Q": lambda rng: _q_product(rng, 3, grown=True, transposed=True),
    "Q v, grown Q": lambda rng: _q_product(rng, 3, grown=True, transposed=False),
    "(A / s) L^-T, (24,6)": lambda rng: (
        _signed(rng, (24, 6)), _inverse_factor(rng).T),
    "L^-T y, (6,6)": lambda rng: (_inverse_factor(rng).T, _signed(rng, 6)),
    "G gx, (13,4)": lambda rng: (_signed(rng, (13, 4)), _signed(rng, (4, 4))),
    "grad gx, (4,)(4,4)": lambda rng: (_signed(rng, 4), _signed(rng, (4, 4))),
    "G gx, (1,3)(3,1)": lambda rng: (_signed(rng, (1, 3)), _signed(rng, (3, 1))),
    "grad gx, (3,)(3,1)": lambda rng: (_signed(rng, 3), _signed(rng, (3, 1))),
    "gx u, (3,1)(1,)": lambda rng: (_signed(rng, (3, 1)), _signed(rng, 1)),
}


@pytest.mark.parametrize("case", DOT_CASES)
def test_dot_is_matmul_bit_for_bit(case):
    # the step multiplies with ndarray.dot, which skips the matmul gufunc's
    # dispatch; both must reach the same kernel, so a numpy that routes
    # these shapes differently fails here rather than in a trace
    rng = np.random.default_rng(sorted(DOT_CASES).index(case))
    for _ in range(2000):
        a, b = DOT_CASES[case](rng)
        by_dot, by_matmul = np.asarray(a.dot(b)), np.asarray(a @ b)
        assert by_dot.shape == by_matmul.shape
        assert (by_dot == by_matmul).all()
        assert (np.signbit(by_dot) == np.signbit(by_matmul)).all()


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_kkt_residuals_hold(seed):
    p = random_feasible_problem(np.random.default_rng(seed))
    s = solve_qp(p)
    assert s.status is SolveStatus.OPTIMAL
    r = kkt_residual(p, s)
    assert r.stationarity <= 1e-8
    assert r.primal_violation <= 1e-8
    assert r.comp_slack <= 1e-8


class TestHessianFactor:
    def test_equal_h_give_equal_read_only_factors(self):
        H = np.array([[4.0, 1.0], [1.0, 3.0]])
        p, q = make_problem(H, [1.0, 0.0]), make_problem(H.copy(), [0.0, 1.0])
        assert np.array_equal(p.L_inv, q.L_inv)
        assert np.allclose(p.L_inv @ H @ p.L_inv.T, np.eye(2), atol=1e-15)
        with pytest.raises(ValueError):
            p.L_inv[0, 0] = 1.0

    def test_nearby_h_gets_its_own_factor(self):
        H = np.array([[4.0, 1.0], [1.0, 3.0]])
        near = H.copy()
        near[1, 1] = np.nextafter(3.0, 4.0)
        p, q = make_problem(H, [1.0, 0.0]), make_problem(near, [1.0, 0.0])
        assert p.L_inv is not q.L_inv and not np.array_equal(p.L_inv, q.L_inv)
        assert np.allclose(q.L_inv @ near @ q.L_inv.T, np.eye(2), rtol=0, atol=1e-15)

    def test_invalid_h_rejected_after_a_valid_one(self):
        # each problem checks its own H, whatever was factored before
        make_problem(np.eye(2), [0.0, 0.0])
        with pytest.raises(ValueError, match="symmetric"):
            make_problem([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])
        with pytest.raises(ValueError, match="positive definite"):
            make_problem([[1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])
        with pytest.raises(ValueError, match="finite"):
            make_problem([[1.0, 0.0], [0.0, np.nan]], [0.0, 0.0])
        for _ in range(2):   # refused again on a repeat
            with pytest.raises(ValueError, match="finite"):
                make_problem([[np.inf, 0.0], [0.0, 1.0]], [0.0, 0.0])

    def test_non_finite_f_a_or_b_is_refused(self):
        make_problem(np.eye(2), [0.0, 0.0])
        for F, A, b in (([np.nan, 0.0], [[1.0, 0.0]], [1.0]),
                        ([0.0, 0.0], [[np.inf, 0.0]], [1.0]),
                        ([0.0, 0.0], [[1.0, 0.0]], [np.nan])):
            with pytest.raises(ValueError, match="finite"):
                make_problem(np.eye(2), F, A, b)


class TestValidation:
    def test_rejects_asymmetric_hessian(self):
        with pytest.raises(ValueError, match="symmetric"):
            make_problem([[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])

    def test_rejects_indefinite_hessian(self):
        with pytest.raises(ValueError, match="positive definite"):
            make_problem([[1.0, 0.0], [0.0, -1.0]], [0.0, 0.0])

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            make_problem(np.eye(2), np.zeros(2), [[1.0, 0.0]], [1.0, 2.0])

    @pytest.mark.parametrize("H, A, match", [
        (np.eye(3), np.zeros((1, 2)), "H shape"),
        (np.eye(2), np.zeros((1, 3)), "A shape"),
        (np.eye(2), np.zeros(2), "A shape")])
    def test_rejects_hessian_or_rows_of_the_wrong_shape(self, H, A, match):
        with pytest.raises(ValueError, match=match):
            QpProblem(H=H, F=np.zeros(2), A=A, b=np.zeros(len(A)))

    @pytest.mark.parametrize("m, n", [(24, 6), (22, 6), (25, 6), (22, 18)],
                             ids=["tour", "110056-sets", "245506-sets", "per-set-slack"])
    def test_brute_force_solves_large_problems(self, m, n):
        # 24 x 6 is the two-robot tour's QP and 22 x 18 the layout with one
        # invariance slack per safe set; an enumeration of every working set
        # of at most n rows would solve 190 051, 110 056, 245 506 and
        # 4 192 510 QPs
        rng = np.random.default_rng(3)
        M = rng.normal(size=(n, n))
        A = rng.normal(size=(m, n))
        p = make_problem(M @ M.T + np.eye(n), rng.normal(size=n), A,
                         A @ rng.normal(size=n) + 0.1 + rng.random(m))
        o, s = brute_force_solve(p), solve_qp(p)
        assert o.status is SolveStatus.OPTIMAL
        assert o.objective == pytest.approx(s.objective, rel=1e-8)
        assert np.max(np.abs(o.z_star - s.z_star)) <= 1e-7
