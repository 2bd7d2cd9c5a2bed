"""Path simulation: determinism, replay identities, crossing statistics."""

import tracemalloc

import numpy as np
import pytest

from conftest import random_tree_market, summary_of_wealth
from conemv import sim
from conemv.market import MarketSpec, PeriodDistribution
from conemv.solver import (ExactDiscreteBackend, RecursionTable, SaaBackend,
                           SolverOptions, backward_recursion,
                           unconstrained_table)
from conemv.cones import ConvexCone
from conemv.policy import (Policy, minimum_variance, precommitted, truncated,
                           mu_star)
from conemv.presets import three_index_market
from conemv.sim import (PathEnsemble, policy_thresholds, replay_wealth,
                        sample_returns, simulate, summarize)


def small_gauss_market(horizon=2):
    mean = np.array([0.06, 0.10])
    cov = np.array([[0.04, 0.01], [0.01, 0.09]])
    period = PeriodDistribution.gaussian(mean, cov)
    return MarketSpec.iid(horizon, 1.02, period)


def level_two_policy(horizon, kind="precommitted", start_time=0):
    """A policy on a table with riskless rates of 1 and d - mu = 2, so
    its threshold is 2.0 at every interior time after its start."""
    table = RecursionTable(
        horizon=horizon, n_assets=1, riskless_rates=np.ones(horizon),
        k_plus=np.zeros((horizon, 1)), k_minus=np.zeros((horizon, 1)),
        c_plus=np.ones(horizon + 1), c_minus=np.ones(horizon + 1))
    return Policy(kind, table, start_time, 1.0, d=2.0, mu=0.0)


def summarize_rows(monkeypatch, pol, rows):
    """``summarize`` of hand-built wealth rows, handed out by a patched
    ``sim.simulate`` in blocks of two paths.  Rows shorter than the
    policy's T + 1 columns repeat their last column."""
    wealth = np.asarray(rows, dtype=float)
    wealth = np.pad(wealth, ((0, 0), (0, pol.horizon + 1 - wealth.shape[1])),
                    mode="edge")

    def simulate_rows(policy, market, n_paths, seed, first_path=0):
        return PathEnsemble(wealth[first_path:first_path + n_paths],
                            np.zeros((n_paths, policy.horizon, 1)))

    monkeypatch.setattr(sim, "simulate", simulate_rows)
    monkeypatch.setattr(sim, "_BLOCK", 2)
    return summarize(pol, None, wealth.shape[0], 0)


@pytest.fixture(scope="module")
def gauss2_table():
    market = small_gauss_market()
    backend = SaaBackend(market, 50_000, seed=1)
    table = backward_recursion(market, ConvexCone.whole_space(2), backend)
    return market, table


@pytest.fixture(scope="module")
def gauss2_policy(gauss2_table):
    market, table = gauss2_table
    return market, table, precommitted(table, x0=1.0, d=1.2)


class TestDeterminism:

    def test_same_seed_bit_identical(self, gauss2_policy):
        market, table, pol = gauss2_policy
        a = simulate(pol, market, n_paths=4000, seed=5)
        b = simulate(pol, market, n_paths=4000, seed=5)
        assert np.array_equal(a.wealth, b.wealth)
        assert np.array_equal(a.returns, b.returns)

    def test_different_seed_differs(self, gauss2_policy):
        market, table, pol = gauss2_policy
        a = simulate(pol, market, n_paths=4000, seed=5)
        b = simulate(pol, market, n_paths=4000, seed=6)
        assert not np.array_equal(a.wealth, b.wealth)

    def test_block_size_does_not_change_draws(self, gauss2_policy,
                                              truncated_policy, monkeypatch):
        # Blocking is a memory layout choice; path p at period t must get
        # the same draw regardless of where the block boundaries fall,
        # also for a policy that starts after time 0.
        market = gauss2_policy[0]

        def run(pol, block):
            monkeypatch.setattr(sim, "_BLOCK", block)
            return simulate(pol, market, n_paths=5000, seed=3)

        for pol in (gauss2_policy[2], truncated_policy[2]):
            a, b, c = (run(pol, block) for block in (250_000, 1000, 1237))
            assert np.array_equal(a.wealth, b.wealth)
            assert np.array_equal(a.returns, b.returns)
            assert np.array_equal(a.wealth, c.wealth)
            assert np.array_equal(a.returns, c.returns)

    def test_first_path_offsets_the_block(self, truncated_policy):
        market, table, pol = truncated_policy
        whole = simulate(pol, market, n_paths=900, seed=3)
        part = simulate(pol, market, n_paths=250, seed=3, first_path=600)
        assert np.array_equal(part.wealth, whole.wealth[600:850])
        assert np.array_equal(part.returns, whole.returns[600:850])
        assert np.array_equal(sample_returns(market, 250, 3, first_path=600),
                              sample_returns(market, 900, 3)[600:850])

    def test_metadata_recorded(self, gauss2_policy):
        market, table, pol = gauss2_policy
        ens = simulate(pol, market, n_paths=100, seed=11)
        assert ens.wealth.shape == (100, market.horizon + 1)
        assert ens.returns.shape == (100, market.horizon, market.n_assets)

    def test_initial_column_is_x0(self, gauss2_policy):
        market, table, pol = gauss2_policy
        ens = simulate(pol, market, n_paths=50, seed=0)
        assert np.all(ens.wealth[:, 0] == 1.0)


class TestReplay:

    def test_replay_matches_simulation(self, gauss2_policy):
        market, table, pol = gauss2_policy
        ens = simulate(pol, market, n_paths=2000, seed=8)
        rebuilt = replay_wealth(pol, market, ens.returns)
        assert np.array_equal(rebuilt, ens.wealth)

    def test_sample_returns_matches_simulation_streams(self, gauss2_policy):
        market, table, pol = gauss2_policy
        ens = simulate(pol, market, n_paths=1500, seed=4)
        raw = sample_returns(market, 1500, seed=4)
        assert np.array_equal(raw, ens.returns)

    @pytest.mark.parametrize("family", ["gaussian", "student_t"])
    def test_paths_are_period_major(self, monkeypatch, family):
        """Each period's returns and each wealth column are one
        contiguous block, with the values of row-major (paths, T, n)
        returns drawn period by period and replayed as they are."""
        market = three_index_market(family)
        pol = truncated(unconstrained_table(market), k=1, x_k=1.05, d_k=1.4)
        monkeypatch.setattr(sim, "_BLOCK", 700)  # blocks end mid-array
        n_paths, T, n = 2_001, market.horizon, market.n_assets
        ens = simulate(pol, market, n_paths=n_paths, seed=6, first_path=9)
        rows = np.empty((n_paths, T, n))
        for t in range(T):
            market.sample_block(t, 6, 9, 9 + n_paths, out=rows[:, t])
        rows[:, :pol.start_time] = 0.0
        np.testing.assert_array_equal(ens.returns, rows)
        np.testing.assert_array_equal(ens.wealth,
                                      replay_wealth(pol, market, rows))
        assert all(ens.returns[:, t].flags.c_contiguous for t in range(T))
        assert all(ens.wealth[:, t].flags.c_contiguous for t in range(T + 1))

    def test_replay_other_policy_on_same_draws(self, gauss2_table):
        # Two policies replayed on one set of draws share randomness; the
        # minimum-variance replay must stay at the riskless trajectory.
        market, table = gauss2_table
        pol_mv = minimum_variance(table, x0=1.0)
        raw = sample_returns(market, 800, seed=9)
        wealth = replay_wealth(pol_mv, market, raw)
        rho0 = table.rho(0)
        assert np.allclose(wealth[:, -1], rho0 * 1.0, atol=1e-12)

    def test_one_block_holds_its_wealth_once(self, three_t):
        """A block's peak is its returns, one (block, T + 1) wealth array
        and at most n + 4 doubles a path of draw or control temporaries,
        the count the CLI's path preflight makes."""
        pol = precommitted(unconstrained_table(three_t), 1.0, 1.35)
        simulate(pol, three_t, n_paths=10, seed=3)  # imports and tables
        T, n = three_t.horizon, three_t.n_assets
        tracemalloc.start()
        try:
            simulate(pol, three_t, n_paths=sim._BLOCK, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * sim._BLOCK * (T * n + T + 1 + n + 4)

    def test_minimum_variance_terminal_wealth_exact(self, gauss2_table):
        market, table = gauss2_table
        pol = minimum_variance(table, x0=1.0)
        ens = simulate(pol, market, n_paths=500, seed=2)
        # Zero holdings throughout: x_T = x0 * rho_0 on every path.
        assert np.all(ens.wealth[:, -1] == 1.0 * table.rho(0))


@pytest.fixture(scope="module")
def truncated_policy(gauss2_table):
    market, table = gauss2_table
    pol = truncated(table, k=1, x_k=1.05, d_k=1.18)
    return market, table, pol


class TestTruncatedStart:

    def test_columns_before_start_repeat_x_start(self, truncated_policy):
        market, table, pol = truncated_policy
        assert pol.start_time == 1
        ens = simulate(pol, market, n_paths=300, seed=7)
        assert np.all(ens.wealth[:, 0] == 1.05)
        assert np.all(ens.wealth[:, 1] == 1.05)

    def test_returns_zero_filled_before_start(self, truncated_policy):
        market, table, pol = truncated_policy
        ens = simulate(pol, market, n_paths=300, seed=7)
        assert np.all(ens.returns[:, 0] == 0.0)
        assert not np.all(ens.returns[:, 1] == 0.0)

    def test_replay_truncated(self, truncated_policy):
        market, table, pol = truncated_policy
        ens = simulate(pol, market, n_paths=300, seed=7)
        rebuilt = replay_wealth(pol, market, ens.returns)
        assert np.array_equal(rebuilt, ens.wealth)


class TestExceedance:

    def test_strict_inequality_at_threshold(self, monkeypatch):
        # Equality at the threshold is not a crossing.
        _, rep = summarize_rows(monkeypatch, level_two_policy(3), [
            [1.0, 2.0, 2.0],       # exactly at the level both times
            [1.0, 2.0 + 1e-12, 1.0],  # barely above at t=1
            [1.0, 1.0, 1.0],       # never close
        ])
        assert rep.probability == pytest.approx(1.0 / 3.0)
        assert rep.first_crossing_counts == {1: 1, 2: 0}

    def test_first_crossing_histogram(self, monkeypatch):
        _, rep = summarize_rows(monkeypatch, level_two_policy(3), [
            [1.0, 3.0, 0.0],   # crosses at t=1
            [1.0, 3.0, 3.0],   # crosses at t=1, stays up (counted once)
            [1.0, 0.0, 3.0],   # crosses at t=2
            [1.0, 0.0, 0.0],   # never
        ])
        assert rep.first_crossing_counts == {1: 2, 2: 1}
        assert sum(rep.first_crossing_counts.values()) == 3
        assert rep.probability == pytest.approx(0.75)
        assert rep.thresholds == {1: 2.0, 2: 2.0}

    def test_standard_error_binomial(self, monkeypatch):
        _, rep = summarize_rows(monkeypatch, level_two_policy(2), [
            [1.0, 3.0, 0.0],
            [1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
        ])
        assert rep.thresholds == {1: 2.0}
        p = 0.25
        assert rep.standard_error == pytest.approx(
            np.sqrt(p * (1 - p) / 4), rel=1e-12)

    def test_single_time_ignores_other_columns(self, monkeypatch):
        # Started at t = 1, the policy's one crossing time is t = 2.
        pol = level_two_policy(3, kind="truncated", start_time=1)
        _, rep = summarize_rows(monkeypatch, pol, [
            [1.0, 5.0, 0.0],
            [1.0, 0.0, 5.0],
        ])
        assert rep.thresholds == {2: 2.0}
        assert rep.probability == pytest.approx(0.5)
        assert rep.first_crossing_counts == {2: 1}

    def test_monte_carlo_agrees_with_exact_tree(self):
        # One-period coin toss: P(x_1 > level) is a sum of atom weights.
        period = PeriodDistribution.discrete([[-0.1], [0.2]], [0.5, 0.5])
        market = MarketSpec.iid(1, 1.0, period)
        backend = ExactDiscreteBackend(market)
        table = backward_recursion(market, ConvexCone.whole_space(1), backend)
        pol = precommitted(table, x0=1.0, d=1.05)
        ens = simulate(pol, market, n_paths=200_000, seed=0)
        g = 1.05 - mu_star(table, 1.0, 1.05)
        u0 = pol.control(0, np.array([1.0]))[0]
        exact = 0.0
        for atom, prob in ((-0.1, 0.5), (0.2, 0.5)):
            if 1.0 + atom * u0[0] > g:
                exact += prob
        assert np.mean(ens.wealth[:, 1] > g) == pytest.approx(exact,
                                                               abs=1e-12)


class TestPolicyThresholds:

    def test_default_times(self, gauss2_policy):
        market, table, pol = gauss2_policy
        levels = policy_thresholds(pol)
        assert sorted(levels) == [1]
        assert levels[1] == pytest.approx(pol.threshold(1), rel=1e-15)

    def test_default_times_three_periods(self):
        market = three_index_market("gaussian")
        backend = SaaBackend(market, 20_000, seed=0)
        table = backward_recursion(market, ConvexCone.whole_space(3), backend)
        pol = precommitted(table, x0=1.0, d=1.35)
        levels = policy_thresholds(pol)
        assert sorted(levels) == [1, 2]

    def test_truncated_start_shifts_default(self, gauss2_table):
        market, table = gauss2_table
        pol = truncated(table, k=1, x_k=1.0, d_k=1.1)
        # start_time = 1 leaves no interior decision date in a 2-period
        # problem: the default set is empty.
        assert policy_thresholds(pol) == {}


class TestTerminalStats:

    def test_constant_ensemble(self, monkeypatch):
        pol = level_two_policy(2, kind="minimum_variance")
        stats, rep = summarize_rows(monkeypatch, pol, np.full((64, 3), 1.21))
        assert rep is None
        assert stats.mean == pytest.approx(1.21, rel=1e-15)
        assert stats.variance == 0.0
        assert stats.se_mean == 0.0
        assert stats.se_variance == 0.0

    def test_small_sample_hand_check(self, monkeypatch):
        values = np.array([1.0, 2.0, 3.0, 6.0])
        wealth = np.column_stack([np.ones(4), values])
        pol = level_two_policy(1, kind="minimum_variance")
        stats, _ = summarize_rows(monkeypatch, pol, wealth)
        assert stats.mean == pytest.approx(3.0, rel=1e-15)
        # Unbiased sample variance, ddof = 1.
        assert stats.variance == pytest.approx(np.var(values, ddof=1), rel=1e-13)
        centred = values - 3.0
        m2 = (centred ** 2).mean()
        m4 = (centred ** 4).mean()
        assert stats.se_mean == pytest.approx(np.sqrt(m2 / 4), rel=1e-13)
        assert stats.se_variance == pytest.approx(
            np.sqrt((m4 - m2 ** 2) / 4), rel=1e-13)

    def test_fewer_than_two_paths_rejected(self, gauss2_policy):
        market, table, pol = gauss2_policy
        with pytest.raises(ValueError, match="at least 2 paths, got 1"):
            summarize(pol, market, 1, 0)

    @pytest.mark.parametrize("n_paths", [1, 0])
    def test_rejected_before_any_draw(self, gauss2_policy, monkeypatch,
                                      n_paths):
        market, table, pol = gauss2_policy
        calls = []
        monkeypatch.setattr(sim, "simulate",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="at least 2 paths"):
            summarize(pol, market, n_paths, 0)
        assert calls == []

    def test_tree_simulation_moments(self, gauss2_policy):
        market, table, pol = gauss2_policy
        stats, _ = summarize(pol, market, 200_000, 1)
        assert stats.mean == pytest.approx(1.2, abs=4 * stats.se_mean)

    def test_random_tree_replay_consistency(self):
        market = random_tree_market(17, horizon=2)
        backend = ExactDiscreteBackend(market)
        table = backward_recursion(market, ConvexCone.whole_space(market.n_assets), backend)
        rho0 = table.rho(0)
        d = rho0 * 1.0 + 0.2
        try:
            pol = precommitted(table, x0=1.0, d=d)
        except Exception:
            pytest.skip("degenerate draw")
        stats, _ = summarize(pol, market, 50_000, 13)
        assert stats.mean == pytest.approx(d, abs=4 * stats.se_mean)


class TestSummarize:

    @pytest.mark.parametrize("block", [10_000, 333, 100])
    def test_equals_the_whole_ensemble(self, gauss2_policy, monkeypatch,
                                       block):
        market, table, pol = gauss2_policy
        ens = simulate(pol, market, n_paths=1000, seed=6)
        expected = summary_of_wealth(ens.wealth, policy_thresholds(pol))
        assert expected[1].first_crossing_counts[1] > 0
        monkeypatch.setattr(sim, "_BLOCK", block)
        assert summarize(pol, market, 1000, 6) == expected

    def test_no_report_without_thresholds(self, gauss2_table):
        market, table = gauss2_table
        pol = minimum_variance(table, x0=1.0)
        assert summarize(pol, market, 500, 2) == summary_of_wealth(
            simulate(pol, market, 500, 2).wealth, None)
