"""Density bookkeeping, moments, duality, and the supermartingale audit."""
import itertools
import sys
import tracemalloc

import numpy as np
import pytest

from conemv import rng, solver, vssm
from conemv.cones import ConvexCone
from conemv.errors import (BackendMismatch, DimensionMismatch,
                           InsufficientMemory, InvalidCone)
from conemv.market import MarketSpec, PeriodDistribution
from conemv.policy import mu_star, precommitted
from conemv.sim import sample_returns, simulate
from conemv.solver import (
    ExactDiscreteBackend,
    RecursionTable,
    backward_recursion,
    unconstrained_table,
)
from conemv.vssm import (
    density_for_paths,
    duality_terminal_wealth,
    enumerate_tree,
    exact_density_moments,
    supermartingale_check,
    theoretical_moments,
)

from conftest import random_cone, random_discrete_period, random_tree_market
from oracles import (conditional_expectation, density_factors,
                     implied_wealth_path)


def uneven_tree_market():
    """Three periods of 3, 4 and 5 atoms in two assets."""
    rng = np.random.default_rng(21)
    return MarketSpec(horizon=3, riskless_rates=[1.03] * 3,
                      periods=[random_discrete_period(rng, 2, m)
                               for m in (3, 4, 5)])


def per_path_tree(market):
    """Reference enumeration, one path at a time in product order."""
    periods = market.periods
    paths = list(itertools.product(*[range(p.atoms.shape[0])
                                     for p in periods]))
    returns = np.array([[p.atoms[i] for p, i in zip(periods, idx)]
                        for idx in paths])
    probs = np.array([np.prod([p.probs[i] for p, i in zip(periods, idx)])
                      for idx in paths])
    return returns, probs, paths


def one_path(table, path):
    """(B factors, running products, density) of a single (T, n) path."""
    batch = np.asarray(path)[None]
    b, partial = density_factors(table, batch)
    return b[0], partial[0], float(density_for_paths(table, batch)[0])


def step_ratios(table, b):
    """E[dQ/dP | F_t+1] / E[dQ/dP | F_t] along one path's B factors."""
    return np.array([conditional_expectation(table, b[:t + 1])
                     / conditional_expectation(table, b[:t])
                     for t in range(table.horizon)])


def toy_table():
    """Hand-filled two-period single-asset table for branch bookkeeping."""
    return RecursionTable(
        horizon=2, n_assets=1, riskless_rates=np.array([1.0, 1.0]),
        k_plus=np.array([[0.5], [0.4]]),
        k_minus=np.array([[0.3], [0.2]]),
        c_plus=np.array([0.5, 0.7, 1.0]),
        c_minus=np.array([0.8, 0.9, 1.0]))


class TestBranchBookkeeping:
    def test_positive_prefix_stays_on_plus_branch(self):
        table = toy_table()
        path = np.array([[0.4], [0.5]])
        b, partial, density = one_path(table, path)
        # b0 = 1 - 0.5*0.4 = 0.8 > 0, so t=1 also uses k_plus
        np.testing.assert_allclose(b, [0.8, 0.8], rtol=1e-15)
        np.testing.assert_allclose(partial, [1.0, 0.8, 0.64], rtol=1e-15)
        assert density == pytest.approx(0.64 / 0.5, rel=1e-15)

    def test_negative_prefix_flips_to_minus_gain(self):
        table = toy_table()
        path = np.array([[4.0], [0.5]])
        b, _, density = one_path(table, path)
        # b0 = 1 - 2 = -1 < 0, so t=1 uses 1 + k_minus'P = 1 + 0.1
        np.testing.assert_allclose(b, [-1.0, 1.1], rtol=1e-15)
        assert density == pytest.approx(-1.1 / 0.5, rel=1e-15)

    def test_zero_prefix_ties_to_plus_branch(self):
        table = toy_table()
        path = np.array([[2.0], [0.5]])  # b0 = 1 - 1 = 0 exactly
        b, _, _ = one_path(table, path)
        assert b[1] == pytest.approx(1.0 - 0.4 * 0.5, rel=1e-15)

    def test_riskless_path_density(self):
        table = toy_table()
        _, _, density = one_path(table, np.zeros((2, 1)))
        assert density == pytest.approx(1.0 / table.c_plus[0], rel=1e-15)

    def test_batch_matches_single(self):
        table = toy_table()
        rng = np.random.default_rng(2)
        batch = rng.normal(size=(50, 2, 1))
        dens = density_for_paths(table, batch)
        for i in range(50):
            assert dens[i] == pytest.approx(
                one_path(table, batch[i])[2], rel=1e-14)

    def test_batch_keeps_the_running_product_of_factors(self):
        table = toy_table()
        batch = np.random.default_rng(3).normal(size=(500, 2, 1))
        batch[:5, 0, 0] = 2.0  # B_0 = 0 exactly: a tie at the next step
        _, partial = density_factors(table, batch)
        np.testing.assert_array_equal(density_for_paths(table, batch),
                                      partial[:, -1] / table.c_plus[0])

    def test_shape_validation(self):
        table = toy_table()
        with pytest.raises(DimensionMismatch):
            density_for_paths(table, np.zeros((10, 3, 1)))
        with pytest.raises(DimensionMismatch):
            density_for_paths(table, np.zeros((10, 2, 2)))
        with pytest.raises(DimensionMismatch):  # one path is a batch of one
            density_for_paths(table, np.zeros((2, 1)))


def signed_table(seed, horizon=3, n_assets=3):
    """Hand-filled table whose gains make many factors negative, so
    paths switch between the two branches."""
    gen = np.random.default_rng(seed)
    k_plus = gen.normal(scale=4.0, size=(horizon, n_assets))
    k_plus[0, 0] = 4.0  # P_0 = (1/4, 0, ...) makes B_0 exactly 0
    return RecursionTable(
        horizon=horizon, n_assets=n_assets,
        riskless_rates=np.full(horizon, 1.02), k_plus=k_plus,
        k_minus=gen.normal(scale=4.0, size=(horizon, n_assets)),
        c_plus=np.linspace(0.4, 1.0, horizon + 1),
        c_minus=np.linspace(0.6, 1.0, horizon + 1))


class TestDensityOnThePool:
    """The density runs in row chunks on the draw pool; a path's
    density is the same in every batch, chunk size and worker count."""

    N_PATHS = 3_001  # a last chunk of one row at chunk sizes 1, 2 and 3

    @pytest.fixture(scope="class")
    def paths(self, three_t):
        table = signed_table(4)
        returns = sample_returns(three_t, self.N_PATHS, seed=2)
        returns[:5, 0] = 0.0  # B_0 = 1 on a few rows
        returns[5, 0] = [0.25, 0.0, 0.0]
        _, partial = density_factors(table, returns)
        assert partial[5, 1] == 0.0  # a tie to the + branch at t = 1
        assert (partial[:, -1] < 0).mean() > 0.2
        return table, returns, partial[:, -1] / table.c_plus[0]

    @pytest.mark.parametrize("layout", ["period_major", "row_major"])
    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_chunks_equal_the_whole_batch(self, draw_pool, paths, layout,
                                          chunk_rows, workers):
        table, returns, serial = paths
        if layout == "row_major":
            returns = np.ascontiguousarray(returns)
        assert returns[:, 0].flags.c_contiguous == (layout == "period_major")
        draw_pool(workers, chunk_rows)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the chunks finely
        try:
            dens = density_for_paths(table, returns)
        finally:
            sys.setswitchinterval(interval)
        # temporaries shared by two running chunks would corrupt rows
        np.testing.assert_array_equal(dens, serial)
        assert (rng._pool is not None) == (workers > 1)

    def test_one_path_equals_its_row(self, paths):
        table, returns, serial = paths
        for i in range(0, self.N_PATHS, 97):
            assert density_for_paths(table, returns[i:i + 1])[0] == serial[i]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_holds_one_chunk_of_scratch_per_worker(self, draw_pool, three_t,
                                                   workers):
        """Besides its output, the density holds one chunk's two factors
        and sign mask for each worker."""
        table, chunk_rows = signed_table(5), 10_000
        returns = sample_returns(three_t, 60_000, seed=1)
        draw_pool(workers, chunk_rows)
        density_for_paths(table, returns)  # the pool and its threads
        tracemalloc.start()
        try:
            density_for_paths(table, returns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # and the pool's bookkeeping: a future and a work item a chunk
        assert peak <= 8 * 60_000 + 17 * chunk_rows * workers + 32 * 1024


class TestConditionalStructure:
    def test_empty_prefix_is_one(self):
        assert conditional_expectation(toy_table(), []) == pytest.approx(1.0)

    def test_full_prefix_equals_density(self):
        table = toy_table()
        path = np.array([[0.4], [0.5]])
        b, _, density = one_path(table, path)
        assert conditional_expectation(table, b) == \
            pytest.approx(density, rel=1e-14)

    def test_partial_prefix_matches_subtree_average(self):
        market = random_tree_market(seed=3, horizon=2, n_assets=2)
        table = backward_recursion(market, ConvexCone.orthant(2),
                                   ExactDiscreteBackend(market))
        returns, probs, paths = enumerate_tree(market)
        dens = density_for_paths(table, returns)
        b, _ = density_factors(table, returns)
        n_first = market.periods[0].atoms.shape[0]
        for a in range(n_first):
            members = [i for i, idx in enumerate(paths) if idx[0] == a]
            w = probs[members] / probs[members].sum()
            tail_avg = float(w @ dens[members])
            pred = conditional_expectation(table, b[members[0], :1])
            assert pred == pytest.approx(tail_avg, abs=1e-12)

    def test_step_ratios_have_unit_conditional_mean(self):
        market = random_tree_market(seed=6, horizon=2, n_assets=2)
        table = backward_recursion(market, ConvexCone.orthant(2),
                                   ExactDiscreteBackend(market))
        returns, probs, paths = enumerate_tree(market)
        b, _ = density_factors(table, returns)
        ratios = np.array([step_ratios(table, b[i])
                           for i in range(len(paths))])
        for t in range(2):
            groups = {}
            for i, idx in enumerate(paths):
                groups.setdefault(idx[:t], []).append(i)
            for members in groups.values():
                w = probs[members] / probs[members].sum()
                assert float(w @ ratios[members, t]) == pytest.approx(
                    1.0, abs=5e-7)

    def test_sign_bookkeeping_of_step_ratio(self):
        table = toy_table()
        path = np.array([[0.4], [0.5]])
        b, _, _ = one_path(table, path)
        # both steps on the plus branch: m_t = b_t c_plus[t+1] / c_plus[t]
        np.testing.assert_allclose(
            step_ratios(table, b),
            [0.8 * 0.7 / 0.5, 0.8 * 1.0 / 0.7], rtol=1e-14)


class TestMoments:
    def test_theoretical_values(self):
        table = toy_table()
        m1, m2 = theoretical_moments(table)
        assert m1 == 1.0
        assert m2 == pytest.approx(1.0 / 0.5, rel=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_tree_moments(self, seed):
        market = random_tree_market(seed=seed, horizon=2, n_assets=2)
        cone, _ = random_cone(seed + 100, 2)
        table = backward_recursion(market, cone,
                                   ExactDiscreteBackend(market))
        m1, m2 = exact_density_moments(table, market)
        want1, want2 = theoretical_moments(table)
        assert m1 == pytest.approx(want1, abs=1e-11)
        assert m2 == pytest.approx(want2, abs=1e-11 * max(1.0, want2))

    def test_monte_carlo_moments_unconstrained(self, three_gauss,
                                               gauss_unc_table):
        n = 200_000
        returns = sample_returns(three_gauss, n, seed=17)
        dens = density_for_paths(gauss_unc_table, returns)
        want1, want2 = theoretical_moments(gauss_unc_table)
        se1 = dens.std(ddof=1) / np.sqrt(n)
        assert abs(dens.mean() - want1) <= 4.0 * se1
        sq = dens * dens
        se2 = sq.std(ddof=1) / np.sqrt(n)
        assert abs(sq.mean() - want2) <= 4.0 * se2

    def test_negative_densities_have_positive_mass(self, three_gauss,
                                                   gauss_unc_table):
        returns = sample_returns(three_gauss, 100_000, seed=23)
        dens = density_for_paths(gauss_unc_table, returns)
        frac_neg = float(np.mean(dens < 0.0))
        assert 0.0 < frac_neg < 0.5

    def test_closed_form_density_whole_space(self, three_gauss,
                                             gauss_unc_table):
        # with k_minus = -k_plus both branches share the factor
        # 1 - P'K_unc, so the density has a product closed form
        returns = sample_returns(three_gauss, 10_000, seed=29)
        dens = density_for_paths(gauss_unc_table, returns)
        k_unc = gauss_unc_table.k_plus[0]
        factors = 1.0 - returns @ k_unc
        direct = factors.prod(axis=1) / gauss_unc_table.c_plus[0]
        np.testing.assert_allclose(dens, direct, atol=1e-10)


class TestDuality:
    def test_riskless_density_recovers_riskless_wealth(self,
                                                       gauss_unc_table):
        table = gauss_unc_table
        x0, d = 1.0, 1.35
        mu = mu_star(table, x0, d)
        val = duality_terminal_wealth(table, x0, d, mu,
                                      1.0 / table.c_plus[0])
        assert val == pytest.approx(x0 * table.rho(0), rel=1e-12)

    def test_terminal_wealth_formula_on_simulated_paths(self,
                                                        three_gauss,
                                                        gauss_unc_table):
        x0, d = 1.0, 1.35
        pol = precommitted(gauss_unc_table, x0, d)
        ens = simulate(pol, three_gauss, n_paths=10_000, seed=31)
        dens = density_for_paths(gauss_unc_table, ens.returns)
        implied = duality_terminal_wealth(gauss_unc_table, x0, d, pol.mu,
                                          dens)
        assert np.max(np.abs(implied - ens.wealth[:, -1])) < 1e-9

    def test_wealth_path_identity_every_period(self, three_gauss,
                                               gauss_unc_table):
        x0, d = 1.0, 1.35
        pol = precommitted(gauss_unc_table, x0, d)
        ens = simulate(pol, three_gauss, n_paths=10_000, seed=37)
        _, partial = density_factors(gauss_unc_table, ens.returns)
        implied = implied_wealth_path(gauss_unc_table, x0, d, pol.mu,
                                      partial)
        assert implied.shape == ens.wealth.shape
        assert np.max(np.abs(implied - ens.wealth)) < 1e-10

    def test_path_identity_on_constrained_tree(self):
        market = random_tree_market(seed=11, horizon=3, n_assets=2)
        table = backward_recursion(market, ConvexCone.orthant(2),
                                   ExactDiscreteBackend(market))
        x0 = 1.0
        d = table.rho(0) * x0 + 0.2
        pol = precommitted(table, x0, d)
        ens = simulate(pol, market, n_paths=4_000, seed=41)
        _, partial = density_factors(table, ens.returns)
        implied = implied_wealth_path(table, x0, d, pol.mu, partial)
        assert np.max(np.abs(implied - ens.wealth)) < 1e-9


class TestSupermartingaleAudit:
    def test_whole_space_prices_to_zero(self, tree_market):
        table = backward_recursion(tree_market, ConvexCone.whole_space(2),
                                   ExactDiscreteBackend(tree_market))
        report = supermartingale_check(table, tree_market,
                                       ConvexCone.whole_space(2), tol=1e-7)
        assert report.ok
        worst = max(np.max(np.abs(n.priced_mean)) for n in report.nodes)
        assert worst <= 1e-7

    def test_orthant_prices_nonpositive(self):
        market = random_tree_market(seed=13, horizon=2, n_assets=2)
        table = backward_recursion(market, ConvexCone.orthant(2),
                                   ExactDiscreteBackend(market))
        report = supermartingale_check(table, market,
                                       ConvexCone.orthant(2), tol=1e-7)
        assert report.ok
        for node in report.nodes:
            assert np.all(node.priced_mean <= 1e-7)
        assert report.worst_nodes() == []

    @pytest.mark.parametrize("seed", [0, 4, 8])
    def test_random_cones_pass(self, seed):
        market = random_tree_market(seed=seed, horizon=2, n_assets=2)
        cone, _ = random_cone(seed + 50, 2)
        table = backward_recursion(market, cone,
                                   ExactDiscreteBackend(market))
        report = supermartingale_check(table, market, cone, tol=1e-7)
        assert report.ok, [n for n in report.worst_nodes()]

    def test_node_count_covers_every_prefix(self, tree_market):
        table = backward_recursion(tree_market, ConvexCone.orthant(2),
                                   ExactDiscreteBackend(tree_market))
        report = supermartingale_check(table, tree_market,
                                       ConvexCone.orthant(2), tol=1e-7)
        n0 = tree_market.periods[0].atoms.shape[0]
        assert len(report.nodes) == 1 + n0

    @pytest.mark.parametrize("cones", [[ConvexCone.orthant(2)],
                                       [ConvexCone.orthant(2)] * 3,
                                       ConvexCone.orthant(3)])
    def test_cones_must_fit_the_market(self, tree_market, cones):
        """The audit checks the cone list as the recursion does, rather
        than failing on a short list and ignoring extra cones."""
        backend = ExactDiscreteBackend(tree_market)
        table = backward_recursion(tree_market, ConvexCone.orthant(2),
                                   backend)
        with pytest.raises(InvalidCone):
            supermartingale_check(table, tree_market, cones)
        with pytest.raises(InvalidCone):
            backward_recursion(tree_market, cones, backend)

    def test_continuous_market_rejected(self, three_gauss,
                                        gauss_unc_table):
        with pytest.raises(BackendMismatch):
            supermartingale_check(gauss_unc_table, three_gauss,
                                  ConvexCone.whole_space(3))

    def test_enumeration_rejects_continuous(self, three_gauss):
        with pytest.raises(BackendMismatch):
            enumerate_tree(three_gauss)

    def test_enumeration_matches_the_per_path_loop(self):
        market = uneven_tree_market()
        returns, probs, paths = enumerate_tree(market)
        ref_returns, ref_probs, ref_paths = per_path_tree(market)
        assert paths == ref_paths
        np.testing.assert_array_equal(returns, ref_returns)
        np.testing.assert_array_equal(probs, ref_probs)

    def test_enumeration_refuses_a_tree_beyond_memory(self, monkeypatch):
        market = uneven_tree_market()
        # 60 paths: (60, 3, 2) returns, 60 probabilities and 60 index
        # tuples, each with its list slot and slack
        need = 60 * (8 * (3 * 2 + 1) + sys.getsizeof((0, 0, 0)) + 24)
        monkeypatch.setattr(solver, "_available_bytes", lambda: need - 1)
        with pytest.raises(InsufficientMemory,
                           match="^60 tree paths need about "):
            enumerate_tree(market)
        monkeypatch.setattr(solver, "_available_bytes", lambda: need)
        assert len(enumerate_tree(market)[2]) == 60

    @pytest.mark.parametrize("horizon, n_atoms, n_assets",
                             [(3, 60, 3), (6, 8, 1)])
    def test_enumeration_peak_stays_within_its_preflight(
            self, monkeypatch, horizon, n_atoms, n_assets):
        rng = np.random.default_rng(5)
        market = MarketSpec(horizon, [1.02] * horizon, [
            random_discrete_period(rng, n_assets, n_atoms)
            for _ in range(horizon)])
        needs = []
        monkeypatch.setattr(vssm, "require_memory",
                            lambda need, what: needs.append(need))
        tracemalloc.start()
        try:
            result = enumerate_tree(market)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result[2]) == n_atoms ** horizon
        assert len(needs) == 1 and peak <= needs[0]

    def test_node_blocks_match_the_prefix_grouping(self):
        """Each node's paths are one block of the product order; the
        audit equals a grouping of the paths by their prefixes."""
        market = uneven_tree_market()
        cone = ConvexCone.orthant(2)
        table = backward_recursion(market, cone, ExactDiscreteBackend(market))
        returns, probs, paths = per_path_tree(market)
        dens = density_for_paths(table, returns)
        want = []
        for t in range(market.horizon):
            groups = {}
            for i, idx in enumerate(paths):
                groups.setdefault(idx[:t], []).append(i)
            for prefix, members in groups.items():
                w = probs[members]
                priced = (w / w.sum() * dens[members]) @ returns[members, t]
                want.append((t, prefix, float(w.sum()), priced))
        nodes = supermartingale_check(table, market, cone).nodes
        assert len(nodes) == len(want) == 1 + 3 + 3 * 4
        for node, (t, prefix, prob, priced) in zip(nodes, want):
            assert (node.t, node.prefix, node.probability) == (t, prefix,
                                                               prob)
            np.testing.assert_array_equal(node.priced_mean, priced)
