"""Multipliers, frontiers, induced targets, and feedback policies."""
import numpy as np
import pytest

from conemv.cones import ConvexCone
from conemv.errors import BackendMismatch, InvalidTarget, TargetUnattainable
from conemv.market import MarketSpec, PeriodDistribution
from conemv.policy import (
    Policy,
    frontier_point,
    minimum_variance,
    mu_star,
    precommitted,
    tc_frontier_point,
    time_consistent,
    truncated,
    wealth_threshold,
)
from conemv.solver import (
    ExactDiscreteBackend,
    SaaBackend,
    backward_recursion,
    unconstrained_table,
)

from conftest import random_tree_market
from oracles import (brute_force_min_variance, dual_value, induced_target,
                     tree_paths)


def origin_only_table(market):
    rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return backward_recursion(market, ConvexCone.polyhedral(rows),
                              ExactDiscreteBackend(market))


class TestMuStar:
    def test_zero_gap_gives_zero(self, gauss_unc_table):
        x0 = 1.0
        d = gauss_unc_table.rho(0) * x0
        assert mu_star(gauss_unc_table, x0, d) == 0.0

    def test_three_index_reference_value(self, gauss_unc_table):
        mu = mu_star(gauss_unc_table, 1.0, 1.35)
        assert mu == pytest.approx(-0.1808, abs=5e-4)
        assert mu < 0.0

    def test_maximizes_dual_on_grid(self, gauss_unc_table):
        x0, d = 1.0, 1.4
        mu = mu_star(gauss_unc_table, x0, d)
        peak = dual_value(gauss_unc_table, x0, d, mu)
        grid = mu + np.linspace(-0.2, 0.2, 401)
        assert np.all(dual_value(gauss_unc_table, x0, d, grid)
                      <= peak + 1e-12)
        # the grid cannot see an error below half its step: the Newton
        # step from mu to the peak, by central differences (exact on the
        # dual's quadratic piece), must vanish to rounding
        h = 1e-3
        lo, hi = dual_value(gauss_unc_table, x0, d, [mu - h, mu + h])
        slope, curvature = (hi - lo) / (2 * h), (hi - 2 * peak + lo) / h ** 2
        assert curvature < 0.0
        assert abs(slope / curvature) <= 1e-11 * abs(mu)

    def test_unattainable_when_constant_is_one(self):
        market = random_tree_market(seed=2, horizon=2, n_assets=2)
        table = origin_only_table(market)
        with pytest.raises(TargetUnattainable):
            mu_star(table, 1.0, table.rho(0) + 0.1)


class TestFrontier:
    def test_riskless_point_has_zero_variance(self, gauss_unc_table):
        pt = frontier_point(gauss_unc_table, 1.0, gauss_unc_table.rho(0))
        assert pt.variance == 0.0
        assert pt.efficient

    def test_three_index_reference_variance(self, gauss_unc_table):
        pt = frontier_point(gauss_unc_table, 1.0, 1.35)
        assert pt.variance == pytest.approx(0.0347878, abs=1e-4)
        assert pt.efficient

    def test_lower_branch_flagged_inefficient(self, gauss_unc_table):
        pt = frontier_point(gauss_unc_table, 1.0, 1.0)
        assert pt.variance > 0.0
        assert not pt.efficient

    def test_variance_equals_dual_peak(self, gauss_unc_table):
        x0, d = 1.0, 1.5
        mu = mu_star(gauss_unc_table, x0, d)
        pt = frontier_point(gauss_unc_table, x0, d)
        assert pt.variance == pytest.approx(
            dual_value(gauss_unc_table, x0, d, mu), rel=1e-12)

    def test_unattainable_target(self):
        market = random_tree_market(seed=2, horizon=2, n_assets=2)
        table = origin_only_table(market)
        with pytest.raises(TargetUnattainable):
            frontier_point(table, 1.0, table.rho(0) + 0.1)

    def test_matches_brute_force_on_tree(self):
        market = random_tree_market(seed=4, horizon=2, n_assets=2)
        table = backward_recursion(market, ConvexCone.orthant(2),
                                   ExactDiscreteBackend(market))
        x0 = 1.0
        d = table.rho(0) * x0 + 0.25
        pt = frontier_point(table, x0, d)
        var_brute, mean_brute, _, _ = brute_force_min_variance(
            market, [np.eye(2)] * 2, x0, d)
        assert abs(mean_brute - d) <= 1e-7
        assert pt.variance == pytest.approx(var_brute, abs=1e-6)


class TestTimeConsistentBenchmark:
    def test_aux_factors(self, three_gauss):
        # the benchmark reads its gains and b_t from the closed-form
        # unconstrained table
        table = unconstrained_table(three_gauss)
        period = three_gauss.periods[0]
        gain = np.linalg.solve(period.second_moment(), period.mean)
        b = float(period.mean @ gain)
        np.testing.assert_allclose(table.k_plus[0], gain, rtol=1e-12)
        assert table.diagnostics[0]["b"] == pytest.approx(b, rel=1e-12)
        pt = tc_frontier_point(table, 1.0, table.rho(0) + 1.0)
        assert pt.variance == pytest.approx(((1.0 - b) / b) ** 3, rel=1e-12)
        assert [table.rho(t) for t in range(4)] == \
            [three_gauss.rho(t) for t in range(4)]

    def test_control_is_the_closed_form_bit_for_bit(self, three_t):
        # (d - x rho_t) / (b_t rho_{t+1}) g_t with g_t and b_t computed
        # here from the period, not from the table
        x0, d = 1.0, 1.35
        pol = time_consistent(three_t, x0, d)
        x = np.array([0.7, 1.0, 1.2, 1.9])
        for t, period in enumerate(three_t.periods):
            g = period.unconstrained_gain()
            b = float(period.mean @ g)
            coeff = (d - x * three_t.rho(t)) / (b * three_t.rho(t + 1))
            np.testing.assert_array_equal(pol.control(t, x),
                                          coeff[:, None] * g)
            np.testing.assert_array_equal(pol.control(t, float(x[1])),
                                          coeff[1] * g)

    def test_rho_checks_its_range_as_the_table_does(self, three_gauss,
                                                    gauss_unc_table):
        for t in (-1, three_gauss.horizon + 1):
            for owner in (gauss_unc_table, three_gauss):
                with pytest.raises(ValueError, match="t must lie in"):
                    owner.rho(t)

    def test_riskless_target_zero_variance(self, three_gauss):
        table = unconstrained_table(three_gauss)
        pt = tc_frontier_point(table, 1.0, table.rho(0))
        assert pt.variance == 0.0

    def test_three_index_reference_variance(self, three_gauss):
        table = unconstrained_table(three_gauss)
        pt = tc_frontier_point(table, 1.0, 1.35)
        assert pt.variance == pytest.approx(1.815, abs=5e-3)
        gap = 1.35 - table.rho(0)
        assert pt.variance / gap ** 2 == pytest.approx(49.05, abs=0.05)

    def test_target_below_riskless_rejected(self, three_gauss):
        table = unconstrained_table(three_gauss)
        with pytest.raises(InvalidTarget):
            tc_frontier_point(table, 1.0, 1.0)

    def test_zero_mean_period_rejected(self):
        period = PeriodDistribution.discrete([[-0.1], [0.1]], [0.5, 0.5])
        market = MarketSpec(horizon=1, riskless_rates=[1.05],
                            periods=[period])
        with pytest.raises(InvalidTarget, match=r"period 0 has b = 0\.0$"):
            time_consistent(market, 1.0, 1.1)
        with pytest.raises(InvalidTarget):
            tc_frontier_point(unconstrained_table(market), 1.0, 1.1)

    @pytest.mark.parametrize("kind", ["exact_discrete", "saa"])
    def test_solved_tables_are_refused_by_name(self, kind, tree_market,
                                               three_gauss):
        # a solved table records no b_t; the frontier and the control
        # both name the table they read it from
        if kind == "saa":
            market, backend = three_gauss, SaaBackend(three_gauss, 2000, 0)
        else:
            market, backend = tree_market, ExactDiscreteBackend(tree_market)
        table = backward_recursion(market, ConvexCone.whole_space(
            market.n_assets), backend)
        pol = Policy("time_consistent", table, 0, 1.0, 1.3)
        for call in (lambda: tc_frontier_point(table, 1.0, 1.3),
                     lambda: pol.control(0, 1.0)):
            with pytest.raises(BackendMismatch, match=(
                    r"^the time-consistent benchmark reads b_t from "
                    r"solver\.unconstrained_table, not a table of kind "
                    f"'{kind}'$")):
                call()

    def test_precommitted_dominates_benchmark(self, gauss_unc_table):
        riskless = gauss_unc_table.rho(0)
        for d in np.linspace(riskless + 0.01, riskless + 0.6, 25):
            pre = frontier_point(gauss_unc_table, 1.0, d).variance
            bench = tc_frontier_point(gauss_unc_table, 1.0, d).variance
            assert pre <= bench + 1e-15


class TestInducedTarget:
    def test_threshold_state_rolls_riskless(self, gauss_unc_table):
        x0, d = 1.0, 1.35
        mu = mu_star(gauss_unc_table, x0, d)
        k = 1
        x_k = wealth_threshold(gauss_unc_table, d, mu, k)
        res = induced_target(gauss_unc_table, k, x_k, d, mu)
        assert res.d_k == pytest.approx(gauss_unc_table.rho(k) * x_k,
                                        rel=1e-12)
        assert res.efficient

    def test_efficiency_flag_equivalence(self, gauss_unc_table):
        x0, d = 1.0, 1.35
        mu = mu_star(gauss_unc_table, x0, d)
        g = d - mu
        rng = np.random.default_rng(14)
        k = 1
        rho_k = gauss_unc_table.rho(k)
        c_minus_one = gauss_unc_table.c_minus[k] >= 1.0 - 1e-12
        for x_k in rng.uniform(0.0, 3.0, size=1000):
            res = induced_target(gauss_unc_table, k, x_k, d, mu)
            assert res.efficient == ((g >= rho_k * x_k) or c_minus_one)
            assert res.mu_k == pytest.approx(res.d_k - g, abs=1e-12)
            # the truncated problem at the induced target keeps mu_k
            tail = truncated(gauss_unc_table, k, x_k, res.d_k)
            assert tail.mu == pytest.approx(res.mu_k, abs=1e-12)

    def test_tail_policy_is_optimal_for_induced_target(self):
        # from any reachable time-1 state, the precommitted tail must
        # attain the truncated problem's frontier at its induced target
        market = random_tree_market(seed=5, horizon=2, n_assets=2)
        table = backward_recursion(market, ConvexCone.orthant(2),
                                   ExactDiscreteBackend(market))
        x0 = 1.0
        d = table.rho(0) * x0 + 0.2
        mu = mu_star(table, x0, d)
        pol = precommitted(table, x0, d)
        paths, probs, _ = tree_paths(market)
        rate0 = float(market.riskless_rates[0])
        # wealth after one period, per time-0 atom
        u0 = pol.control(0, x0)
        atoms0 = market.periods[0].atoms
        x1s = np.unique(np.round(rate0 * x0 + atoms0 @ u0, 12))
        sub_market = MarketSpec(horizon=1,
                                riskless_rates=market.riskless_rates[1:],
                                periods=market.periods[1:])
        for x1 in x1s:
            res = induced_target(table, 1, float(x1), d, mu)
            if not res.efficient:
                continue
            var_brute, mean_brute, _, _ = brute_force_min_variance(
                sub_market, [np.eye(2)], float(x1), res.d_k)
            tail = truncated(table, 1, float(x1), res.d_k)
            u1 = tail.control(1, float(x1))
            atoms1 = market.periods[1].atoms
            probs1 = market.periods[1].probs
            xT = float(market.riskless_rates[1]) * x1 + atoms1 @ u1
            mean_tail = float(probs1 @ xT)
            var_tail = float(probs1 @ (xT - mean_tail) ** 2)
            assert mean_tail == pytest.approx(res.d_k, abs=1e-9)
            assert var_tail == pytest.approx(var_brute, abs=1e-6)

    def test_bad_time_index_rejected(self, gauss_unc_table):
        with pytest.raises(ValueError):
            truncated(gauss_unc_table, 3, 1.0, 1.35)


class TestPolicies:
    def test_control_vanishes_at_threshold(self, gauss_unc_table):
        pol = precommitted(gauss_unc_table, 1.0, 1.35)
        for t in range(3):
            x_star = pol.threshold(t)
            np.testing.assert_allclose(pol.control(t, x_star), np.zeros(3),
                                       atol=1e-12)

    def test_control_formula_below_threshold(self, gauss_unc_table):
        pol = precommitted(gauss_unc_table, 1.0, 1.35)
        d, mu = pol.d, pol.mu
        x = 1.0
        expected = gauss_unc_table.riskless_rates[0] * (
            (d - mu) / gauss_unc_table.rho(0) - x) * gauss_unc_table.k_plus[0]
        np.testing.assert_allclose(pol.control(0, x), expected, rtol=1e-12)
        assert (d - mu) / gauss_unc_table.rho(0) == pytest.approx(
            1.5310 / 1.157625, abs=2e-3)

    def test_control_formula_above_threshold(self, gauss_unc_table):
        pol = precommitted(gauss_unc_table, 1.0, 1.35)
        t = 1
        x = pol.threshold(t) + 0.4
        np.testing.assert_allclose(pol.control(t, x),
                                   0.4 * gauss_unc_table.riskless_rates[t]
                                   * gauss_unc_table.k_minus[t], rtol=1e-12)

    def test_vector_dispatch_matches_scalar(self, gauss_unc_table):
        pol = precommitted(gauss_unc_table, 1.0, 1.35)
        xs = np.array([0.8, 1.0, 1.4, 2.0])
        block = pol.control(1, xs)
        assert block.shape == (4, 3)
        for i, x in enumerate(xs):
            np.testing.assert_allclose(block[i], pol.control(1, float(x)),
                                       rtol=1e-15)

    @pytest.mark.parametrize("kind", ["precommitted", "truncated"])
    def test_control_equals_the_two_branch_formula_bitwise(
            self, gauss_unc_table, kind):
        # u = c K^+ for c >= 0 and -c K^- below, c = s_t (threshold - x):
        # the gather-and-scale control must give these very bits, on
        # both branches and for wealth exactly at the threshold
        table = gauss_unc_table
        pol = (precommitted(table, 1.0, 1.35) if kind == "precommitted"
               else truncated(table, 1, 1.1, 1.4))
        rng = np.random.default_rng(4)
        for t in range(pol.start_time, 3):
            x = rng.normal(pol.threshold(t), 0.3, size=1_001)
            x[::7] = pol.threshold(t)
            coeff = table.riskless_rates[t] * (pol.threshold(t) - x)
            old = np.where((coeff >= 0.0)[:, None],
                           coeff[:, None] * table.k_plus[t],
                           -coeff[:, None] * table.k_minus[t])
            new = pol.control(t, x)
            assert np.array_equal(new.view(np.int64), old.view(np.int64))
            assert (coeff == 0.0).sum() == 143 and (coeff > 0.0).any() \
                and (coeff < 0.0).any()

    def test_thresholds_share_one_formula(self, gauss_unc_table):
        # Policy.threshold and the CLI's thresholds both read
        # wealth_threshold, which also serves targets below rho_0 x0
        pol = precommitted(gauss_unc_table, 1.0, 1.35)
        for t in range(4):
            assert pol.threshold(t) == wealth_threshold(
                gauss_unc_table, 1.35, pol.mu, t) == \
                (1.35 - pol.mu) / gauss_unc_table.rho(t)
        mu = mu_star(gauss_unc_table, 1.0, 1.0)
        assert wealth_threshold(gauss_unc_table, 1.0, mu, 0) == \
            (1.0 - mu) / gauss_unc_table.rho(0)

    def test_precommitted_rejects_target_below_riskless(self,
                                                        gauss_unc_table):
        with pytest.raises(InvalidTarget):
            precommitted(gauss_unc_table, 1.0, 1.0)

    def test_minimum_variance_holds_riskless(self, gauss_unc_table):
        pol = minimum_variance(gauss_unc_table, 1.0)
        for t in range(3):
            np.testing.assert_array_equal(pol.control(t, 1.3), np.zeros(3))

    def test_time_consistent_zero_at_moving_target(self, three_gauss):
        pol = time_consistent(three_gauss, 1.0, 1.35)
        for t in range(3):
            x = pol.d / pol.table.rho(t)
            np.testing.assert_allclose(pol.control(t, x), np.zeros(3),
                                       atol=1e-14)

    def test_time_consistent_conditional_mean_hits_target(self):
        # one-period-ahead conditional mean of the benchmark policy's
        # wealth, discounted, equals the target exactly on a tree
        market = random_tree_market(seed=9, horizon=2, n_assets=2)
        pol = time_consistent(market, 1.0, 1.4)
        rng = np.random.default_rng(0)
        for t in range(2):
            period = market.periods[t]
            rate = float(market.riskless_rates[t])
            for x in rng.uniform(0.5, 2.5, size=5):
                u = pol.control(t, float(x))
                nxt = rate * x + period.atoms @ u
                cond_mean = float(period.probs @ nxt)
                # defining property: the rolled-up conditional mean hits
                # the target exactly after every single period
                assert cond_mean * market.rho(t + 1) == pytest.approx(
                    pol.d, rel=1e-12)

    def test_truncated_requires_attainable_target(self):
        market = random_tree_market(seed=2, horizon=2, n_assets=2)
        table = origin_only_table(market)
        with pytest.raises(TargetUnattainable):
            truncated(table, 1, 1.0, table.rho(1) + 0.5)
        pol = truncated(table, 1, 1.0, table.rho(1) * 1.0)
        assert pol.mu == 0.0
        assert pol.start_time == 1

    def test_control_outside_window_rejected(self, gauss_unc_table):
        pol = precommitted(gauss_unc_table, 1.0, 1.35)
        with pytest.raises(ValueError):
            pol.control(3, 1.0)
        tail = truncated(gauss_unc_table, 1, 1.0, 1.2)
        with pytest.raises(ValueError):
            tail.control(0, 1.0)

    def test_threshold_only_for_two_piece_policies(self, three_gauss,
                                                   gauss_unc_table):
        pol = time_consistent(three_gauss, 1.0, 1.35)
        with pytest.raises(ValueError):
            pol.threshold(0)
        assert precommitted(gauss_unc_table, 1.0, 1.35).threshold(3) == \
            pytest.approx(1.35 - mu_star(gauss_unc_table, 1.0, 1.35))
