"""Branch costs, cone-constrained minimisation, and the backward recursion."""
import dataclasses
import json

import numpy as np
import pytest

from conemv import solver
from conemv.cones import ConvexCone, construct_tcie_cone
from conemv.config import parse_config
from conemv.errors import (BackendMismatch, ConemvError, ConsistencyError,
                           InvalidMarket, NoConvergence)
from conemv.market import MarketSpec, PeriodDistribution
from conemv.presets import (
    limited_short_cone,
    mean_half_space_cone,
    three_index_market,
    three_index_moments,
)
from conemv.solver import (
    Cost,
    ExactDiscreteBackend,
    SaaBackend,
    SolverOptions,
    backward_recursion,
    linear_form,
    minimize_over_cone,
    unconstrained_table,
)
from conemv.tcie import check_tcie

from conftest import random_tree_market
from oracles import (
    brute_force_min_variance,
    brute_one_step,
    central_fd_grad,
    dual_value,
    recursion_truth_1d,
    value_function,
)

COIN = PeriodDistribution.discrete([[-0.1], [0.2]], [0.5, 0.5])


def coin_market(horizon=1, rate=1.05):
    return MarketSpec(horizon=horizon, riskless_rates=[rate] * horizon,
                      periods=[COIN] * horizon)


def exact_backend(market):
    return ExactDiscreteBackend(market)


def six_atom_market(horizon, unit=1.0):
    """Six equally likely normal atoms (seed 0, scale 0.2) around the
    three-index mean, the same each period, at a riskless rate of 1.05:
    C_0 falls by about ten a period.  ``unit`` multiplies every excess
    return, as quoting them in other units would."""
    atoms = unit * (three_index_moments()[0]
                    + 0.2 * np.random.default_rng(0).normal(size=(6, 3)))
    period = PeriodDistribution.discrete(atoms, np.full(6, 1.0 / 6.0))
    return MarketSpec(horizon, np.full(horizon, 1.05), [period] * horizon)


def tree_corpus_market(k):
    """Market k of the benchmark's scenario-tree corpus and its fixed
    cones, by the recipe of ``TreeSweep.corpus_market`` in
    ``perfbench/workloads.py`` (corpus seed 0, workload index 3)."""
    rng = np.random.default_rng([0, 3, k])
    fixed = {"orthant": ConvexCone.orthant(3),
             "limited_short": limited_short_cone()}
    while True:
        n_atoms = int(rng.integers(4, 7))
        atoms = rng.uniform(-0.6, 0.9, size=(n_atoms, 3))
        probs = rng.uniform(0.2, 1.0, size=n_atoms)
        period = PeriodDistribution.discrete(atoms, probs / probs.sum())
        market = MarketSpec.iid(3, float(rng.uniform(1.0, 1.08)), period)
        try:
            market.validate()
        except InvalidMarket:
            continue
        if not any(c.polar_contains(period.mean) for c in fixed.values()):
            break
    return market, dict(fixed, half_space=ConvexCone.half_space(period.mean))


class TestBranchCost:
    def test_value_at_origin_picks_branch_constant(self):
        p = exact_backend(coin_market()).period(0)
        # at K = 0 every sample sits on the no-flip branch
        assert p.cost(+1, np.zeros(1), 0.9, 1.0).value == pytest.approx(0.9)
        assert p.cost(-1, np.zeros(1), 0.9, 1.0).value == pytest.approx(1.0)

    def test_single_asset_example(self):
        p = exact_backend(coin_market()).period(0)
        k = np.array([1.0])
        assert p.cost(+1, k, 1.0, 1.0).value == pytest.approx(
            0.925, abs=1e-15)
        g = p.cost(+1, k, 1.0, 1.0).grad
        assert g[0] == pytest.approx(-0.05, abs=1e-15)

    def test_gradient_at_origin_closed_form(self):
        atoms = np.array([[-0.2, 0.1], [0.0, -0.3], [0.4, 0.25]])
        period = PeriodDistribution.discrete(atoms, [0.3, 0.2, 0.5])
        market = MarketSpec(horizon=1, riskless_rates=[1.0],
                            periods=[period])
        p = exact_backend(market).period(0)
        mean = period.mean
        np.testing.assert_allclose(p.cost(+1, np.zeros(2), 0.7, 1.3).grad,
                                   -2.0 * 0.7 * mean, atol=1e-14)
        np.testing.assert_allclose(p.cost(-1, np.zeros(2), 0.7, 1.3).grad,
                                   2.0 * 1.3 * mean, atol=1e-14)

    def test_linear_form_equals_quadratic_at_origin(self):
        p = exact_backend(coin_market()).period(0)
        assert linear_form(p, +1, np.zeros(1), 0.9, 1.0) == \
            pytest.approx(0.9, abs=1e-15)

    def test_unconstrained_cost_drop_three_index(self, three_gauss):
        backend = SaaBackend(three_gauss, 1_000_000, seed=0)
        mean, cov = three_index_moments()
        second = cov + np.outer(mean, mean)
        k_unc = np.linalg.solve(second, mean)
        val = backend.period(0).cost(+1, k_unc, 1.0, 1.0).value
        assert val == pytest.approx(1.0 - mean @ k_unc, abs=2e-3)
        assert val == pytest.approx(0.7854, abs=2e-3)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        checked = 0
        while checked < 20:
            n = int(rng.integers(1, 4))
            atoms = rng.uniform(-0.6, 0.9, size=(n + 1, n))
            probs = rng.uniform(0.2, 1.0, size=n + 1)
            probs /= probs.sum()
            period = PeriodDistribution.discrete(atoms, probs)
            market = MarketSpec(horizon=1, riskless_rates=[1.0],
                                periods=[period])
            p = exact_backend(market).period(0)
            k = rng.normal(size=n)
            sign = 1 if rng.random() < 0.5 else -1
            # keep clear of the kink so central differences are valid
            if np.min(np.abs(atoms @ k - sign)) < 1e-3:
                continue
            c_pair = tuple(rng.uniform(0.3, 1.0, size=2))
            g = p.cost(sign, k, *c_pair).grad
            fd = central_fd_grad(
                lambda kk: p.cost(sign, kk, *c_pair).value, k, step=1e-5)
            assert np.linalg.norm(fd - g) <= 1e-4 * max(1.0,
                                                        np.linalg.norm(g))
            checked += 1

    def test_exact_backend_requires_discrete(self, three_gauss):
        with pytest.raises(BackendMismatch):
            ExactDiscreteBackend(three_gauss)


class TestMinimizeOverCone:
    def test_whole_space_exact_matches_linear_solve(self):
        market = random_tree_market(seed=3, horizon=1, n_assets=2)
        period = market.periods[0]
        b = exact_backend(market)
        second = period.second_moment()
        res = minimize_over_cone(b.period(0), +1, ConvexCone.whole_space(2),
                                 1.0, 1.0, SolverOptions())
        k_star = np.linalg.solve(second, period.mean)
        np.testing.assert_allclose(res.k, k_star, atol=1e-8)
        assert res.converged

    def test_whole_space_saa_three_index(self, three_gauss):
        backend = SaaBackend(three_gauss, 1_000_000, seed=0)
        res = minimize_over_cone(backend.period(0), +1,
                                 ConvexCone.whole_space(3), 1.0, 1.0,
                                 SolverOptions())
        np.testing.assert_allclose(res.k, [1.0580, -0.1207, 1.1052],
                                   atol=1e-2)

    def test_zero_shortcircuit_on_minus_branch(self):
        atoms = np.array([[-0.2, 0.1], [0.0, 0.05], [0.4, 0.25]])
        period = PeriodDistribution.discrete(atoms, [0.3, 0.2, 0.5])
        market = MarketSpec(horizon=1, riskless_rates=[1.0],
                            periods=[period])
        assert np.all(period.mean >= 0.0)
        table = backward_recursion(market, ConvexCone.orthant(2),
                                   exact_backend(market))
        res = table.diagnostics[1]
        assert res["sign"] == -1
        assert res["method"] == "zero_test"
        assert res["iterations"] == res["evaluations"] == 0
        np.testing.assert_array_equal(table.k_minus[0], np.zeros(2))
        assert table.c_minus[0] == res["value"] == 1.0

    def test_iteration_budget_exhaustion_reports_best(self, three_gauss):
        backend = SaaBackend(three_gauss, 50_000, seed=1)
        opts = SolverOptions(tol=1e-14, max_iter=1)
        # With C+ = C- the cost is one quadratic, which the first Newton
        # step minimises exactly; C+ != C- needs more than one step.
        with pytest.raises(NoConvergence) as exc:
            minimize_over_cone(backend.period(0), +1,
                               ConvexCone.whole_space(3), 0.9, 0.5, opts)
        best = exc.value.best
        assert best is not None
        assert not best.converged and best.pg_residual > opts.tol
        assert np.all(np.isfinite(best.k))

    def test_diagnostics_count_backtracks_and_projections(self):
        # Projected Newton evaluates twice to start, once per accepted
        # step and once per backtrack; it projects the start, once per
        # residual test, once per trial step, and once more for the VI
        # residual.  The pg residual is the last residual test's.
        market = random_tree_market(seed=12, horizon=3, n_assets=3, n_atoms=5)
        opts = SolverOptions()
        table = backward_recursion(market, limited_short_cone(),
                                   ExactDiscreteBackend(market), opts)
        solved = [d for d in table.diagnostics
                  if d.get("method") == "projected_gradient"]
        assert solved
        assert any(d["backtracks"] > 0 for d in solved)
        for d in solved:
            its, back = d["iterations"], d["backtracks"]
            assert d["evaluations"] == 2 + its + back
            assert d["projections"] == 2 * its + back + 3
        again = json.loads(json.dumps(table.to_dict()))["diagnostics"]
        assert [(d.get("backtracks"), d.get("projections")) for d in again] \
            == [(d.get("backtracks"), d.get("projections"))
                for d in table.diagnostics]

    def test_diagnostics_are_the_minimize_result_fields(self):
        # t and sign, then every MinimizeResult field but k and converged,
        # in the record's order, for zero-test and solved branches alike
        market = random_tree_market(seed=12, horizon=3, n_assets=3, n_atoms=5)
        table = backward_recursion(market, limited_short_cone(),
                                   ExactDiscreteBackend(market))
        keys = ["t", "sign"] + [f.name for f in
                                dataclasses.fields(solver.MinimizeResult)
                                if f.name not in ("k", "converged")]
        assert {d["method"] for d in table.diagnostics} == {
            "zero_test", "projected_gradient"}
        for d in table.diagnostics:
            assert list(d) == keys
        for d in json.loads(json.dumps(table.to_dict()))["diagnostics"]:
            assert list(d) == keys

    @staticmethod
    def kinked_solve(three_gauss, max_iter):
        # C+ != C- puts a kink in the cost, and projected Newton takes
        # three steps to reach tol = 1e-14 on this 50K-sample solve.
        backend = SaaBackend(three_gauss, 50_000, seed=1)
        opts = SolverOptions(tol=1e-14, max_iter=max_iter)
        return minimize_over_cone(backend.period(0), +1, limited_short_cone(),
                                  0.9, 0.5, opts)

    def test_budget_exhaustion_reports_counters(self, three_gauss):
        with pytest.raises(NoConvergence) as exc:
            self.kinked_solve(three_gauss, max_iter=1)
        best = exc.value.best
        assert best.iterations == 1 and not best.converged
        assert best.pg_residual > 1e-14
        assert best.evaluations == 2 + 1 + best.backtracks
        # as for a converged solve: the residual is tested after the last
        # budgeted step too
        assert best.projections == 2 * 1 + best.backtracks + 3

    def test_budget_of_exactly_the_iterations_needed(self, three_gauss):
        needed = self.kinked_solve(three_gauss, max_iter=5000).iterations
        assert needed > 1
        result = self.kinked_solve(three_gauss, max_iter=needed)
        assert result.converged and result.iterations == needed
        assert result.pg_residual <= 1e-14

    def test_stall_reports_the_iterations_run(self, monkeypatch):
        # A cost lowest at the origin whose gradient points away from it:
        # no step passes the Armijo test, so the first iteration halves
        # the step down to the floor.
        def rising(pts, w, sign, k, c_plus, c_minus, gram=None):
            n = k.shape[0]
            return Cost(1.0 + float(np.any(k != 0.0)), np.full(n, -1.0), 1.0,
                        np.eye(n))

        monkeypatch.setattr(solver, "_h_and_grad", rising)
        with pytest.raises(NoConvergence, match=(
                r"^optimizer 'projected_gradient' exhausted 1 iterations at "
                r"t=0 sign=\+1 stalled at the step floor \(pg residual "
                r"1\.000e\+00\)$")) as exc:
            minimize_over_cone(exact_backend(coin_market()).period(0), +1,
                               ConvexCone.whole_space(1), 1.0, 1.0,
                               SolverOptions())
        best = exc.value.best
        assert best.iterations == 1 and not best.converged
        assert np.array_equal(best.k, [0.0])  # the stall stays at the origin
        assert best.evaluations == 2 + 1 + best.backtracks
        assert 2.0 ** -best.backtracks < 1e-18 <= 2.0 ** (1 - best.backtracks)

    @pytest.mark.parametrize("k, labels", [
        (14, ["half_space"]),
        (27, ["orthant", "half_space", "limited_short"]),
    ])
    def test_badly_scaled_tree_markets_converge(self, k, labels):
        # C0+ near 1e-6 scales these costs badly; steps in the Hessian's
        # metric converge where raw gradient steps ran out of budget.
        market, cones = tree_corpus_market(k)
        opts = SolverOptions()
        for label in labels:
            table = backward_recursion(market, cones[label],
                                       ExactDiscreteBackend(market), opts)
            assert table.c_plus[0] < 1e-4
            solved = [d for d in table.diagnostics
                      if d.get("method") == "projected_gradient"]
            assert solved
            for d in solved:
                assert d["pg_residual"] <= opts.tol


class TestBackends:
    @pytest.mark.parametrize("backend", ["exact", "saa"])
    def test_run_config_makes_its_backend(self, backend):
        market = {"horizon": 2, "riskless_rates": [1.02, 1.02]}
        if backend == "exact":
            market.update(family="discrete",
                          atoms=[[[-0.1], 0.5], [[0.2], 0.5]])
        else:
            market.update(family="gaussian", mean=[0.06], covariance=[[0.04]])
        cfg = parse_config({
            "market": market,
            "numerics": {"backend": backend, "samples": 1000, "seed": 5}})
        made = cfg.make_backend()
        assert made.market is cfg.market
        if backend == "exact":
            assert type(made) is ExactDiscreteBackend
        else:
            assert type(made) is SaaBackend
            assert (made.sample_count, made.seed) == (1000, 5)
            assert made.period(0).pts.shape == (1000, 1)
            assert made.describe() == {"kind": "saa", "samples": 1000,
                                       "seed": 5}

    def test_saa_needs_two_samples(self, three_gauss):
        with pytest.raises(ValueError):
            SaaBackend(three_gauss, 1, seed=0)

    def test_saa_points_are_seed_deterministic(self, three_gauss):
        a = SaaBackend(three_gauss, 1000, seed=5).period(0).pts
        b = SaaBackend(three_gauss, 1000, seed=5).period(0).pts
        np.testing.assert_array_equal(a, b)


class TestBackwardRecursion:
    def test_unconstrained_closed_form_three_index(self, gauss_unc_table):
        mean, cov = three_index_moments()
        second = cov + np.outer(mean, mean)
        k_unc = np.linalg.solve(second, mean)
        b = float(mean @ k_unc)
        for t in range(3):
            np.testing.assert_allclose(gauss_unc_table.k_plus[t], k_unc,
                                       rtol=1e-12)
            np.testing.assert_allclose(gauss_unc_table.k_minus[t], -k_unc,
                                       rtol=1e-12)
            assert gauss_unc_table.c_plus[t] == pytest.approx(
                (1.0 - b) ** (3 - t), rel=1e-12)
        assert gauss_unc_table.c_plus[0] == pytest.approx(0.4845, abs=1e-4)

    def test_recursion_agrees_with_closed_form_on_tree(self, tree_market,
                                                       tree_backend):
        table = backward_recursion(tree_market,
                                   ConvexCone.whole_space(2), tree_backend)
        closed = unconstrained_table(tree_market)
        np.testing.assert_allclose(table.c_plus, closed.c_plus, atol=1e-9)
        np.testing.assert_allclose(table.c_minus, closed.c_minus, atol=1e-9)
        np.testing.assert_allclose(table.k_plus, closed.k_plus, atol=1e-6)
        np.testing.assert_allclose(table.k_minus, closed.k_minus, atol=1e-6)

    def test_origin_only_cone_passes_constants_through(self, tree_market,
                                                       tree_backend):
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        table = backward_recursion(tree_market, ConvexCone.polyhedral(rows),
                                   tree_backend)
        np.testing.assert_array_equal(table.c_plus, np.ones(3))
        np.testing.assert_array_equal(table.c_minus, np.ones(3))
        np.testing.assert_array_equal(table.k_plus, np.zeros((2, 2)))
        np.testing.assert_array_equal(table.k_minus, np.zeros((2, 2)))
        # the polar of {0} is the whole space: the zero test settles both
        # branches of every period
        assert [(d["t"], d["sign"], d["method"], d["iterations"])
                for d in table.diagnostics] == [
            (t, sign, "zero_test", 0) for t in (1, 0) for sign in (1, -1)]

    @pytest.mark.parametrize("unit", [1.0, 1e-10, 1e-8, 1e4, 1e8])
    @pytest.mark.parametrize("horizon", [3, 10, 40, 120])
    def test_whole_space_recursion_is_the_closed_form_at_any_horizon(
            self, horizon, unit):
        # C_0 reaches 1e-117 at T = 120; a zero test scaled by C_{t+1}
        # once froze every period from T = 10 on, with K = 0.  Returns in
        # units of 1/unit leave every C and divide every K by unit; a
        # norm snap on K once zeroed all gains at 1e-10, 1e-8 and 1e8
        market = six_atom_market(horizon, unit)
        table = backward_recursion(market, ConvexCone.whole_space(3),
                                   exact_backend(market))
        closed = unconstrained_table(six_atom_market(horizon))
        for c, c_closed in ((table.c_plus, closed.c_plus),
                            (table.c_minus, closed.c_minus)):
            np.testing.assert_allclose(c, c_closed, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(unit * table.k_plus, closed.k_plus,
                                   atol=1e-8)
        np.testing.assert_allclose(unit * table.k_minus, closed.k_minus,
                                   atol=1e-8)
        assert {d["method"] for d in table.diagnostics} == {
            "projected_gradient"}

    @pytest.mark.parametrize("unit", [1e4, 1e8])
    @pytest.mark.parametrize("cone", ["half_space", "limited_short",
                                      "whole_space"])
    def test_saa_table_and_verdict_do_not_depend_on_the_unit(self, cone,
                                                             unit):
        # the same standard draws, scaled: every C stays, every K is
        # divided by the unit and the verdict stays; a norm snap on K
        # once zeroed every gain at 1e8, the verdict then condition_18.
        # The pg stop test is absolute, so the limited-short solve in
        # unit 1 stops a Newton step sooner at t = 1 (pg 8.8e-9 against
        # 1e-8): its K lies 5e-8 from the scaled solves', within what
        # that test certifies, and C, quadratic in the error, agrees
        def solve(u):
            mean, cov = three_index_moments()
            market = MarketSpec.iid(3, 1.05, PeriodDistribution.gaussian(
                u * mean, u * u * cov))
            cones = {"half_space": construct_tcie_cone(u * mean),
                     "limited_short": limited_short_cone(),
                     "whole_space": ConvexCone.whole_space(3)}
            table = backward_recursion(market, cones[cone],
                                       SaaBackend(market, 20_000, seed=0))
            verdict = check_tcie(table, market)
            return table, (verdict.reason, verdict.flip_period,
                           verdict.first_violation_period)

        base, base_verdict = solve(1.0)
        table, verdict = solve(unit)
        for c, c_base in ((table.c_plus, base.c_plus),
                          (table.c_minus, base.c_minus)):
            np.testing.assert_allclose(c, c_base, rtol=1e-12, atol=0.0)
        for k, k_base in ((table.k_plus, base.k_plus),
                          (table.k_minus, base.k_minus)):
            np.testing.assert_allclose(unit * k, k_base, rtol=0.0, atol=1e-6)
        assert verdict == base_verdict

    @pytest.mark.parametrize("horizon", [330, 400])
    def test_a_constant_that_underflows_fails_loudly(self, horizon):
        # C_t falls below the least normal double at t = horizon - 317;
        # at T = 330 the closed form used to return C_0 = 2.6e-321, and
        # at T = 400 C_0 = 0.0
        market = six_atom_market(horizon)
        message = (rf"^cost constant \S+ at t={horizon - 317} underflows "
                   rf"double precision; the horizon T={horizon} is too long "
                   r"for this market$")
        with pytest.raises(ConemvError, match=message):
            unconstrained_table(market)
        with pytest.raises(ConemvError, match=message):
            backward_recursion(market, ConvexCone.whole_space(3),
                               exact_backend(market))

    def test_mixed_cone_list_solves_only_the_orthant_period(self):
        market = random_tree_market(seed=5, horizon=3, n_assets=2,
                                    n_atoms=4)
        backend = ExactDiscreteBackend(market)
        boxed = ConvexCone.polyhedral([[1.0, 0.0], [-1.0, 0.0],
                                       [0.0, 1.0], [0.0, -1.0]])
        orthant = ConvexCone.orthant(2)
        table = backward_recursion(market, [boxed, orthant, boxed], backend)
        by_period = {}
        for d in table.diagnostics:
            by_period.setdefault(d["t"], []).append(d)
        for t in (0, 2):
            np.testing.assert_array_equal(table.k_plus[t], np.zeros(2))
            np.testing.assert_array_equal(table.k_minus[t], np.zeros(2))
            assert table.c_plus[t] == table.c_plus[t + 1]
            assert table.c_minus[t] == table.c_minus[t + 1]
            assert [d["method"] for d in by_period[t]] == ["zero_test"] * 2
        # with C_2 = C_3 = 1 passed through, period 1 is the orthant
        # problem on its own
        assert table.c_plus[2] == table.c_minus[2] == 1.0
        assert not np.array_equal(table.k_plus[1], np.zeros(2))
        for sign, k, c in ((1, table.k_plus, table.c_plus),
                           (-1, table.k_minus, table.c_minus)):
            alone = minimize_over_cone(backend.period(1), sign, orthant,
                                       1.0, 1.0, SolverOptions())
            np.testing.assert_array_equal(k[1], alone.k)
            # the table clamps C_t to at most C_{t+1}; a minimiser that
            # ends at the origin reports the cost it evaluated there,
            # which the atom weights' rounding may put past 1
            assert c[1] == min(alone.value, 1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_orthant_cost_constants_match_brute_force(self, seed):
        market = random_tree_market(seed=seed, horizon=2, n_assets=2)
        backend = ExactDiscreteBackend(market)
        cone = ConvexCone.orthant(2)
        table = backward_recursion(market, cone, backend)
        rows = np.eye(2)
        x0 = 1.0
        riskless = table.rho(0) * x0
        # upper branch probes c_plus[0], lower branch c_minus[0]
        for d, c in ((riskless + 0.3, table.c_plus[0]),
                     (riskless - 0.3, table.c_minus[0])):
            gap = d - riskless
            if c >= 1.0 - 1e-12:
                continue
            var_pkg = c * gap * gap / (1.0 - c)
            var_brute, mean_brute, _, _ = brute_force_min_variance(
                market, [rows, rows], x0, d)
            assert abs(mean_brute - d) <= 1e-7
            assert abs(var_pkg - var_brute) <= 1e-6 * max(1.0, var_brute)

    def test_monotonicity_of_cost_constants(self):
        for seed in range(6):
            market = random_tree_market(seed=seed, horizon=3, n_assets=2)
            backend = ExactDiscreteBackend(market)
            table = backward_recursion(market, ConvexCone.orthant(2),
                                       backend)
            for c in (table.c_plus, table.c_minus):
                assert np.all(c > 0.0)
                assert np.all(np.diff(c) >= -1e-15)
                assert c[-1] == 1.0

    def test_gaussian_half_space_matches_quadrature_oracle(self,
                                                           three_gauss):
        backend = SaaBackend(three_gauss, 200_000, seed=3)
        table = backward_recursion(three_gauss, mean_half_space_cone(),
                                   backend)
        mean, _ = three_index_moments()
        kp, km, cp, cm = recursion_truth_1d(three_gauss,
                                            mean[None, :])
        np.testing.assert_allclose(table.k_plus[0], kp[0], atol=0.08)
        assert table.c_plus[0] == pytest.approx(cp[0], abs=3e-3)
        np.testing.assert_array_equal(table.k_minus, np.zeros((3, 3)))
        np.testing.assert_array_equal(table.c_minus, np.ones(4))

    def test_broadcast_and_length_checks(self, tree_market, tree_backend):
        cone = ConvexCone.orthant(2)
        table = backward_recursion(tree_market, [cone, cone], tree_backend)
        same = backward_recursion(tree_market, cone, tree_backend)
        np.testing.assert_array_equal(table.c_plus, same.c_plus)
        with pytest.raises(ValueError):
            backward_recursion(tree_market, [cone], tree_backend)
        with pytest.raises(ValueError):
            backward_recursion(tree_market, ConvexCone.orthant(3),
                               tree_backend)

    @pytest.mark.parametrize("kind", ["exact", "saa", "unconstrained"])
    def test_table_dict_is_its_fields_in_order(self, kind, tree_market,
                                               tree_backend, three_gauss):
        from conemv.solver import RecursionTable
        if kind == "exact":
            table = backward_recursion(tree_market, ConvexCone.orthant(2),
                                       tree_backend)
        elif kind == "saa":
            table = backward_recursion(three_gauss, mean_half_space_cone(),
                                       SaaBackend(three_gauss, 20_000, 1))
        else:
            table = unconstrained_table(three_gauss)
        names = [f.name for f in dataclasses.fields(RecursionTable)]
        data = table.to_dict()
        assert list(data) == names
        again = json.loads(json.dumps(data))
        for name in names:
            want, got = getattr(table, name), again[name]
            if isinstance(want, np.ndarray):
                got = np.asarray(got, dtype=want.dtype)
                assert got.shape == want.shape, name
                assert got.tobytes() == want.tobytes(), name  # bit for bit
            else:
                assert got == want, name

    def test_half_space_saa_iteration_ceiling(self, three_gauss):
        # Each sign branch is a piecewise quadratic whose full Newton
        # step lands on the minimiser of the current piece.
        backend = SaaBackend(three_gauss, 200_000, seed=3)
        table = backward_recursion(three_gauss, mean_half_space_cone(),
                                   backend)
        solved = [d for d in table.diagnostics
                  if d.get("method") == "projected_gradient"]
        assert len(solved) == 3
        for d in solved:
            assert d["iterations"] <= 3
            assert d["evaluations"] <= 2 + 3 + 1

    def test_saa_recursion_is_deterministic(self, three_gauss):
        opts = SolverOptions()
        t1 = backward_recursion(three_gauss, mean_half_space_cone(),
                                SaaBackend(three_gauss, 50_000, seed=9),
                                opts)
        t2 = backward_recursion(three_gauss, mean_half_space_cone(),
                                SaaBackend(three_gauss, 50_000, seed=9),
                                opts)
        np.testing.assert_array_equal(t1.k_plus, t2.k_plus)
        np.testing.assert_array_equal(t1.c_plus, t2.c_plus)


class TestCrossCheck:
    """h - L = grad'K / 2 exactly, on a frozen sample as on atoms, so both
    backends hold the solved branches to |h - L| <= 100 tol."""

    @pytest.mark.parametrize("kind", ["exact", "saa"])
    def test_cross_gap_within_bound(self, three_gauss, kind):
        if kind == "exact":
            market = random_tree_market(seed=12, horizon=3, n_assets=3,
                                        n_atoms=5)
            backend = ExactDiscreteBackend(market)
        else:
            market, backend = three_gauss, SaaBackend(three_gauss, 50_000, 4)
        opts = SolverOptions()
        table = backward_recursion(market, limited_short_cone(), backend,
                                   opts)
        solved = [d for d in table.diagnostics if "method" in d]
        assert any(d["method"] != "zero_test" for d in solved)
        for d in solved:
            assert 0.0 <= d["cross_gap"] <= 100.0 * opts.tol
            if d["method"] == "zero_test":
                continue
            t, sign = d["t"], d["sign"]
            k = table.k_plus[t] if sign > 0 else table.k_minus[t]
            lin = linear_form(backend.period(t), sign, k, table.c_plus[t + 1],
                              table.c_minus[t + 1])
            assert d["cross_gap"] == abs(d["value"] - lin)
        again = json.loads(json.dumps(table.to_dict()))["diagnostics"]
        assert [d.get("cross_gap") for d in again] \
            == [d.get("cross_gap") for d in table.diagnostics]

    def test_planted_mismatch_raises_on_saa(self, three_gauss, monkeypatch):
        # 1e-5 is far inside three standard errors of a 20K-sample solve
        # (the old SAA bound), but ten times 100 tol = 1e-6.
        real = solver._h_and_grad

        def planted(*args):
            cost = real(*args)
            return cost._replace(lin=cost.lin + 1e-5)

        monkeypatch.setattr(solver, "_h_and_grad", planted)
        with pytest.raises(ConsistencyError,
                           match=r"quadratic/linear cost mismatch at t=2 "):
            backward_recursion(three_gauss, mean_half_space_cone(),
                               SaaBackend(three_gauss, 20_000, seed=3))


class TestValueFunctionAndDual:
    def test_value_zero_at_target(self, gauss_unc_table):
        assert value_function(gauss_unc_table, 0, 0.0) == 0.0

    def test_terminal_value_is_half_square(self, gauss_unc_table):
        assert value_function(gauss_unc_table, 3, 2.0) == pytest.approx(2.0)
        assert value_function(gauss_unc_table, 3, -2.0) == pytest.approx(2.0)

    def test_branch_selection(self, gauss_unc_table):
        t = 1
        rho = gauss_unc_table.rho(t)
        jm = value_function(gauss_unc_table, t, -1.0)
        jp = value_function(gauss_unc_table, t, 1.0)
        assert jm == pytest.approx(0.5 * rho ** 2
                                   * gauss_unc_table.c_plus[t])
        assert jp == pytest.approx(0.5 * rho ** 2
                                   * gauss_unc_table.c_minus[t])

    def test_one_period_value_matches_one_step_brute(self):
        market = random_tree_market(seed=8, horizon=1, n_assets=2)
        table = backward_recursion(market, ConvexCone.orthant(2),
                                   ExactDiscreteBackend(market))
        rows = np.eye(2)
        rate = float(market.riskless_rates[0])
        for y in (-1.0, 1.0):
            direct, _ = brute_one_step(market.periods[0], rate, y, rows)
            assert value_function(table, 0, y) == pytest.approx(
                0.5 * direct, abs=1e-8)

    def test_vector_dispatch(self, gauss_unc_table):
        ys = np.array([-1.0, 0.0, 2.0])
        out = value_function(gauss_unc_table, 1, ys)
        assert out.shape == (3,)
        assert out[1] == 0.0

    def test_dual_zero_at_riskless_target(self, gauss_unc_table):
        x0 = 1.0
        d = gauss_unc_table.rho(0) * x0
        assert dual_value(gauss_unc_table, x0, d, 0.0) == pytest.approx(0.0)

    def test_dual_peak_matches_reference_variance(self, gauss_unc_table):
        from conemv.policy import mu_star
        x0, d = 1.0, 1.35
        mu = mu_star(gauss_unc_table, x0, d)
        peak = dual_value(gauss_unc_table, x0, d, mu)
        assert peak == pytest.approx(0.0347878, abs=1e-4)
        for eps in (0.01, -0.01):
            assert dual_value(gauss_unc_table, x0, d, mu + eps) < peak

    def test_dual_branch_switch(self, gauss_unc_table):
        x0, d = 1.0, 1.35
        gap = d - gauss_unc_table.rho(0) * x0
        lo = dual_value(gauss_unc_table, x0, d, gap - 1e-9)
        hi = dual_value(gauss_unc_table, x0, d, gap + 1e-9)
        # continuous across the branch point
        assert lo == pytest.approx(hi, abs=1e-6)

    def test_out_of_range_times_rejected(self, gauss_unc_table):
        with pytest.raises(ValueError):
            gauss_unc_table.rho(4)
        with pytest.raises(ValueError):
            gauss_unc_table.rho(5)
