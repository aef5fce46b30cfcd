import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from fxtqp.fxts import (
    K,
    FxtsGains,
    RegimeKind,
    alpha_from_deadline,
    gamma_roots,
    settling_time_bound,
    simulate_scalar_v,
)
from reference_checks import reach_time, settling_time_bound_basic


def exact_settling_integral(gains, delta1, v0):
    """Quadrature oracle: travel time of the comparison system from v0 to 0.

    Uses the substitution m = V**(1/mu), under which the time equals
    mu * integral of dm / (alpha1 m^2 - delta1 m + alpha2) from 0 to v0^(1/mu).
    """
    upper = v0 ** (1.0 / gains.mu)
    val, err = quad(lambda m: 1.0 / (gains.alpha1 * m * m - delta1 * m + gains.alpha2),
                    0.0, upper, limit=500, epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-8
    return gains.mu * val


class TestGains:
    def test_exponents_derived_from_mu(self):
        g = FxtsGains(1.0, 1.0, 5.0)
        assert g.gamma1 == pytest.approx(1.2)
        assert g.gamma2 == pytest.approx(0.8)
        assert g.gamma1 + g.gamma2 == 2.0  # exact by construction

    @pytest.mark.parametrize("mu", [1.5, 2.0, 3.0, 5.0, 10.0, 7.3])
    def test_exponent_sum_exact_for_any_mu(self, mu):
        g = FxtsGains(0.7, 2.1, mu)
        assert g.gamma1 + g.gamma2 == 2.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FxtsGains(0.0, 1.0, 2.0)
        with pytest.raises(ValueError):
            FxtsGains(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("a1, a2, mu, match", [
        (math.inf, 1.0, 2.0, "alpha gains must be positive"),
        (1.0, math.inf, 2.0, "alpha gains must be positive"),
        (1.0, 1.0, math.inf, "mu must exceed 1")])
    def test_rejects_gains_that_are_not_finite(self, a1, a2, mu, match):
        # an infinite gain makes every reach row non-finite
        with pytest.raises(ValueError, match=match):
            FxtsGains(a1, a2, mu)


class TestAlphaFromDeadline:
    def test_case_study_gains(self):
        g = alpha_from_deadline(10.0, 5.0)
        assert g.alpha1 == pytest.approx(math.pi / 4.0, abs=1e-15)
        assert g.alpha2 == g.alpha1
        assert (g.gamma1, g.gamma2) == (pytest.approx(1.2), pytest.approx(0.8))

    def test_unit_gain_case(self):
        assert alpha_from_deadline(math.pi, 2.0).alpha1 == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("T", [0.0, -1.0, math.nan])
    def test_rejects_a_deadline_that_is_not_positive(self, T):
        with pytest.raises(ValueError, match="deadline must be positive"):
            alpha_from_deadline(T, 2.0)

    # a deadline so short that alpha = mu*pi/(2*T) overflows, and an
    # infinite exponent, give infinite gains
    @pytest.mark.parametrize("T, mu", [(1e-320, 2.0), (2.0, math.inf)])
    def test_rejects_a_deadline_whose_gains_are_not_finite(self, T, mu):
        with pytest.raises(ValueError, match="alpha gains must be positive"):
            alpha_from_deadline(T, mu)

    @pytest.mark.parametrize("T", [0.1, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("mu", [1.5, 2.0, 5.0, 10.0])
    def test_round_trip_through_bound(self, T, mu):
        bound = settling_time_bound(alpha_from_deadline(T, mu), 0.0)
        assert abs(bound.T - T) <= 1e-12 * max(1.0, T)


class TestBasicBound:
    def test_direct_evaluations(self):
        assert settling_time_bound_basic(1, 1, 0.5, 2) == pytest.approx(3.0)
        assert settling_time_bound_basic(2, 2, 0.5, 1.5) == pytest.approx(2.0)

    def test_monotone_in_first_rate(self):
        lo = settling_time_bound_basic(1.0, 1.0, 0.5, 2.0)
        hi = settling_time_bound_basic(2.0, 1.0, 0.5, 2.0)
        assert hi < lo


class TestGammaRoots:
    def test_distinct_roots(self):
        assert gamma_roots(1, 1, 2.5) == pytest.approx((0.5, 2.0))

    def test_double_root_at_threshold(self):
        a, b = gamma_roots(1, 1, 2.0)
        assert a == pytest.approx(1.0) and b == pytest.approx(1.0)

    def test_no_real_roots_below_threshold(self):
        assert gamma_roots(1, 1, 1.0) is None

    @pytest.mark.parametrize("a1, a2", [(0.0, 1.0), (1.0, -1.0), (math.nan, 1.0)])
    def test_rejects_gains_that_are_not_positive(self, a1, a2):
        with pytest.raises(ValueError, match="alpha gains must be positive"):
            gamma_roots(a1, a2, 3.0)

    @settings(max_examples=100, deadline=None)
    @given(a1=st.floats(0.1, 10), a2=st.floats(0.1, 10), margin=st.floats(1e-6, 5.0))
    def test_vieta_identities(self, a1, a2, margin):
        delta1 = 2.0 * math.sqrt(a1 * a2) + margin
        roots = gamma_roots(a1, a2, delta1)
        assert roots is not None
        a, b = roots
        assert a1 * a * b == pytest.approx(a2, rel=1e-12, abs=1e-12)
        assert a + b == pytest.approx(delta1 / a1, rel=1e-12, abs=1e-12)


class TestSettlingBound:
    def test_zero_slack_gives_pi_over_gains(self):
        bound = settling_time_bound(FxtsGains(1, 1, 2), 0.0)
        assert bound.T == pytest.approx(math.pi)
        assert bound.kind is RegimeKind.GLOBAL_WITHIN_DEADLINE

    def test_log_branch_equals_quadrature_at_domain_edge(self):
        # oracle-first: the bound with margin K equals the exact travel time
        # from V0 = (K a)^mu, evaluated by quadrature
        g = FxtsGains(1, 1, 2)
        bound = settling_time_bound(g, 2.5)
        a, _ = gamma_roots(1, 1, 2.5)
        oracle = exact_settling_integral(g, 2.5, (K * a) ** g.mu)
        assert bound.T == pytest.approx(oracle, rel=1e-10)
        # roots a = 0.5, b = 2: 2/1.5 * (log(1.55/0.05) - log(4))
        assert bound.T == pytest.approx(4.0 / 3.0 * math.log(7.75), rel=1e-12)
        assert bound.kind is RegimeKind.LOCAL_FIXED_TIME

    def test_degenerate_double_root_branch(self):
        bound = settling_time_bound(FxtsGains(1, 1, 2), 2.0)
        assert bound.T == pytest.approx(18.0)   # mu/sqrt(a1 a2) * 0.9/0.1
        assert bound.kind is RegimeKind.LOCAL_FIXED_TIME

    def test_arctan_branch_against_quadrature(self):
        g = FxtsGains(1, 1, 2)
        bound = settling_time_bound(g, 1.0)
        # global branch: the bound is the V0 -> infinity limit; quadrature at
        # a large V0 must come close from below
        oracle = exact_settling_integral(g, 1.0, 1e6)
        assert oracle <= bound.T
        assert bound.T == pytest.approx(oracle, rel=1e-3)

    def test_continuous_across_zero_slack(self):
        g = FxtsGains(1.3, 0.7, 3.0)
        above = settling_time_bound(g, 1e-8).T
        below = settling_time_bound(g, -1e-8).T
        assert abs(above - below) <= 1e-6

    def test_remark_dominance_over_basic_bound(self):
        # tighter-deadline claim as a per-point inequality on a gain grid
        for a1 in np.linspace(0.2, 5.0, 10):
            for a2 in np.linspace(0.2, 5.0, 10):
                for mu in (1.5, 2.0, 5.0):
                    g = FxtsGains(a1, a2, mu)
                    new = settling_time_bound(g, 0.0).T
                    old = settling_time_bound_basic(a1, a2, g.gamma2, g.gamma1)
                    assert new < old


class TestCertifiedDomain:
    def test_examples(self):
        g = FxtsGains(1, 1, 2)
        assert settling_time_bound(g, 2.5).v_max == pytest.approx(0.2025)   # (0.9 * 0.5)^2
        assert settling_time_bound(g, 1.0).v_max == math.inf
        assert settling_time_bound(g, 2.0).v_max == pytest.approx(0.81)

    # delta1 as a multiple of the threshold: the degenerate band is a
    # relative 1e-12 on delta1^2 - 4 a1 a2, so 1 -+ 1e-13 lie inside it and
    # 1 -+ 1e-11 outside; ties (and the whole band) go local
    GRID = [(-1.0, False), (0.0, False), (0.5, False), (1.0 - 1e-11, False),
            (1.0 - 1e-13, True), (1.0, True), (1.0 + 1e-13, True),
            (1.0 + 1e-11, True), (3.0, True)]

    @pytest.mark.parametrize("a1, a2, mu", [(1.0, 1.0, 2.0), (0.5, 2.0, 5.0),
                                            (7.85, 0.3, 1.5)])
    def test_v_max_over_threshold_grid(self, a1, a2, mu):
        g = FxtsGains(a1, a2, mu)
        for factor, local in self.GRID:
            delta1 = factor * g.critical_delta1
            bound = settling_time_bound(g, delta1)
            if not local:
                assert bound.kind is not RegimeKind.LOCAL_FIXED_TIME, factor
                assert bound.v_max == math.inf, factor
                continue
            roots = gamma_roots(a1, a2, delta1)
            if factor < 1.0:
                assert roots is None, factor
            # no real root (below the threshold, and at it when rounding puts
            # delta1^2 under 4 a1 a2): the double root sqrt(a2/a1) stands in
            a = math.sqrt(a2 / a1) if roots is None else roots[0]
            assert bound.kind is RegimeKind.LOCAL_FIXED_TIME, factor
            assert bound.v_max == (K * a) ** mu, factor


class TestScalarOracle:
    def test_hits_within_bound_from_far_away(self):
        g = FxtsGains(1, 1, 2)
        res = simulate_scalar_v(g, 0.0, 100.0, 1e-4)
        assert res.hit_time is not None
        assert res.hit_time <= math.pi

    def test_bound_holds_at_domain_edge(self):
        g = FxtsGains(1, 1, 2)
        bound = settling_time_bound(g, 2.5)
        res = simulate_scalar_v(g, 2.5, 0.2025, 1e-4)
        assert res.hit_time is not None
        assert res.hit_time <= bound.T + 1e-6

    def test_never_when_rhs_nonnegative(self):
        # between the barrier roots the value grows: 1 lies in (a^mu, b^mu)
        assert simulate_scalar_v(FxtsGains(1, 1, 2), 2.5, 1.0, 1e-3).hit_time is None

    def test_never_above_upper_equilibrium(self):
        res = simulate_scalar_v(FxtsGains(1, 1, 2), 2.5, 9.0, 1e-3)
        assert res.hit_time is None
        assert res.values[-1] == pytest.approx(4.0, abs=1e-2)  # settles at b^mu

    def test_zero_start_hits_immediately(self):
        assert simulate_scalar_v(FxtsGains(1, 1, 2), 0.0, 0.0, 1e-3).hit_time == 0.0

    def test_bound_independent_of_initial_value(self):
        g = FxtsGains(1, 1, 5)
        bound = settling_time_bound(g, 0.5)
        for v0 in (1e-2, 1.0, 1e2, 1e6):
            res = simulate_scalar_v(g, 0.5, v0, 1e-4)
            assert res.hit_time is not None and res.hit_time <= bound.T + 1e-6

    @staticmethod
    def rk4_values(gains, delta1, v0, dt, n):
        """m = V**(1/mu) after each of n RK4 steps, unclamped: the oracle's
        arithmetic step by step."""
        def rhs(m):
            return ((-gains.alpha1 / gains.mu * m + delta1 / gains.mu) * m
                    - gains.alpha2 / gains.mu)
        values = [v0 ** (1.0 / gains.mu)]
        for _ in range(n):
            m = values[-1]
            k1 = rhs(m)
            k2 = rhs(m + 0.5 * dt * k1)
            k3 = rhs(m + 0.5 * dt * k2)
            k4 = rhs(m + dt * k3)
            values.append(m + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        return values

    def test_last_time_counts_the_steps_to_a_hit(self):
        g, dt = FxtsGains(1, 1, 2), 1e-3
        res = simulate_scalar_v(g, 0.5, 1.0, dt)
        horizon = math.ceil(10.0 * settling_time_bound(g, 0.5).T / dt)
        ms = self.rk4_values(g, 0.5, 1.0, dt, horizon)
        steps = next(k for k, m in enumerate(ms) if m <= 1e-9 ** (1.0 / g.mu))
        assert round(res.times[-1] / dt) == steps
        assert res.times[-1] - dt < res.hit_time <= res.times[-1]
        assert res.values[-1] == max(0.0, ms[steps]) ** g.mu

    def test_last_time_is_the_horizon_without_a_hit(self):
        g, dt = FxtsGains(1, 1, 2), 1e-3
        res = simulate_scalar_v(g, 2.5, 9.0, dt)
        steps = math.ceil(10.0 * settling_time_bound(g, 2.5).T / dt)
        assert res.hit_time is None
        assert round(res.times[-1] / dt) == steps and res.times[-1] == steps * dt
        assert res.values[-1] == self.rk4_values(g, 2.5, 9.0, dt, steps)[-1] ** g.mu

    @classmethod
    def reference(cls, gains, delta1, v0, dt):
        """(hit_time, times, values) of the oracle rebuilt from rk4_values:
        the crossing of m = 1e-9**(1/mu) interpolated before m is clamped."""
        n = math.ceil(10.0 * settling_time_bound(gains, delta1).T / dt)
        ms = cls.rk4_values(gains, delta1, v0, dt, n)
        th = 1e-9 ** (1.0 / gains.mu)
        step = next((k for k in range(1, n + 1) if ms[k] <= th), n)
        hit = None
        if ms[step] <= th:
            frac = (ms[step - 1] - th) / max(ms[step - 1] - ms[step], 1e-300)
            hit = (step - 1 + min(1.0, max(0.0, frac))) * dt
        return hit, [0.0, step * dt], [v0, max(0.0, ms[step]) ** gains.mu]

    @pytest.mark.parametrize("gains, delta1, v0, dt", [
        (FxtsGains(1, 1, 2), -0.5, 4.0, 1e-3),        # delta1 < 0
        (FxtsGains(2, 0.5, 3), 0.0, 50.0, 2e-3),      # delta1 = 0
        (FxtsGains(1, 1, 2), 1.0, 1.0, 1e-3),         # 0 < delta1 < 2 sqrt(a1 a2)
        (FxtsGains(1, 1, 2), 2.5, 0.2, 1e-3),         # local, inside v_max = 0.2025
        (FxtsGains(1, 1, 2), 2.5, 9.0, 1e-2),         # above b**mu = 4: horizon exit
        (FxtsGains(1, 1, 2), 0.0, 1.0, 0.2),          # last step takes m to -0.0146
    ])
    def test_matches_the_stage_by_stage_reference(self, gains, delta1, v0, dt):
        hit, times, values = self.reference(gains, delta1, v0, dt)
        res = simulate_scalar_v(gains, delta1, v0, dt)
        assert res.hit_time == hit
        assert res.times.tolist() == times and res.values.tolist() == values

    @pytest.mark.parametrize("gains, delta1, v0", [
        (FxtsGains(1, 1, 2), -1.0, 1.0),          # delta1 < 0
        (FxtsGains(1, 1, 2), -2.5, 4.0),          # delta1 < 0, two negative roots
        (FxtsGains(2, 2, 2), 0.0, 100.0),         # delta1 = 0
        (FxtsGains(1, 1, 2), 1.0, 1.0),           # 0 < delta1 < 2 sqrt(a1 a2)
        (FxtsGains(0.5, 0.5, 2), 1.0, 0.5),       # delta1 = 2 sqrt(a1 a2): a double root
        (FxtsGains(1, 1, 2), 2.5, 0.2),           # local, inside v_max = 0.2025
        (FxtsGains(1, 1, 5), 0.5, 100.0),         # mu = 5
    ])
    def test_hit_time_is_the_exact_reach_time(self, gains, delta1, v0):
        # the delta1 = -1 and delta1 = 1 runs end their last step below m = 0:
        # interpolating from the clamped m misses there by 1.6e-7 and 3.1e-7 s
        res = simulate_scalar_v(gains, delta1, v0, 1e-4)
        assert abs(res.hit_time - reach_time(gains, delta1, v0, 1e-9)) <= 1e-8

    def test_overflowing_start_rate_is_refused(self):
        # 1e300**1.5 overflows; 1e300**1.01 does not, but times 1e6 it is inf
        with pytest.raises(ValueError, match="not finite"):
            simulate_scalar_v(FxtsGains(1, 1, 2), 0.0, 1e300, 1e-3)
        with pytest.raises(ValueError, match="not finite"):
            simulate_scalar_v(FxtsGains(1e6, 1, 100), 0.0, 1e300, 1e-3)

    def test_nan_start_is_refused(self):
        with pytest.raises(ValueError, match="not finite"):
            simulate_scalar_v(FxtsGains(1, 1, 2), 0.0, math.nan, 1e-3)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            simulate_scalar_v(FxtsGains(1, 1, 2), 0.0, -1.0, 1e-3)
        with pytest.raises(ValueError):
            simulate_scalar_v(FxtsGains(1, 1, 2), 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            simulate_scalar_v(FxtsGains(1, 1, 2), 0.0, 1.0, math.inf)
