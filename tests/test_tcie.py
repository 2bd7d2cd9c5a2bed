"""Time-consistency-in-efficiency verdicts, thresholds, and transitions."""
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from conemv.cones import ConvexCone, construct_tcie_cone
from conemv.config import parse_config
from conemv.errors import TargetUnattainable
from conemv.market import MarketSpec, PeriodDistribution
from conemv.policy import mu_star, precommitted
from conemv.sim import simulate
from conemv.solver import (
    ExactDiscreteBackend,
    SaaBackend,
    backward_recursion,
    unconstrained_table,
)
from conemv.tcie import check_tcie, transition_probs

from conftest import random_tree_market
from oracles import exhaustive_tcie, node_condition_tcie

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def small_move_market(horizon=2):
    """Single-asset market whose gains can never cross the threshold."""
    period = PeriodDistribution.discrete([[-0.05], [0.08]], [0.5, 0.5])
    return MarketSpec(horizon=horizon, riskless_rates=[1.02] * horizon,
                      periods=[period] * horizon)


class TestVerdicts:
    def test_unconstrained_gaussian_is_violated(self, three_gauss,
                                                gauss_unc_table):
        verdict = check_tcie(gauss_unc_table, three_gauss)
        assert not verdict.is_tcie
        assert verdict.reason == "violated"
        assert verdict.flip_period == 0
        assert verdict.first_violation_period == 1
        assert len(verdict.periods) == 3
        assert all(p.can_cross for p in verdict.periods)
        assert verdict.periods[0].ess_sup_plus == np.inf

    def test_half_space_gaussian_satisfies_condition_19(self, three_gauss):
        from conemv.presets import mean_half_space_cone
        table = backward_recursion(three_gauss, mean_half_space_cone(),
                                   SaaBackend(three_gauss, 50_000, seed=2))
        verdict = check_tcie(table, three_gauss)
        assert verdict.is_tcie
        assert verdict.reason == "condition_19"
        assert verdict.flip_period == 0
        assert verdict.evidence["c_minus_after_flip"] == [1.0, 1.0]
        # crossings stay possible, all later short-side gains vanish
        assert verdict.periods[0].can_cross
        assert all(p.k_minus_norm == 0.0 for p in verdict.periods)

    def test_bounded_market_satisfies_condition_18(self):
        market = small_move_market()
        table = backward_recursion(market, ConvexCone.whole_space(1),
                                   ExactDiscreteBackend(market))
        verdict = check_tcie(table, market)
        assert verdict.is_tcie
        assert verdict.reason == "condition_18"
        assert verdict.flip_period is None
        for p in verdict.periods:
            assert p.ess_sup_plus <= 1.0 + 1e-10
            assert not p.can_cross

    def test_constructed_cone_forces_tcie(self):
        # end-to-end: half space from the mean-excess direction makes
        # the short-side gain vanish and the verdict come out true
        market = random_tree_market(seed=20, horizon=3, n_assets=2)
        mean = market.periods[0].mean
        cone = construct_tcie_cone(mean)
        # mean direction varies per period on these trees, so build one
        # cone per period from its own mean
        cones = [construct_tcie_cone(p.mean) for p in market.periods]
        table = backward_recursion(market, cones,
                                   ExactDiscreteBackend(market))
        verdict = check_tcie(table, market)
        assert verdict.is_tcie
        assert cone.kind == "half_space"
        np.testing.assert_array_equal(
            table.k_minus, np.zeros_like(table.k_minus))


class TestThreshold:
    def test_terminal_threshold_reference_value(self, gauss_unc_table):
        thr = precommitted(gauss_unc_table, 1.0, 1.35).threshold(3)
        assert thr == pytest.approx(1.5308, abs=5e-4)

    def test_discounting_across_time(self, gauss_unc_table):
        x0, d = 1.0, 1.35
        g = d - mu_star(gauss_unc_table, x0, d)
        for t in range(4):
            assert precommitted(gauss_unc_table, x0, d).threshold(t) == \
                pytest.approx(g / gauss_unc_table.rho(t), rel=1e-14)

    def test_riskless_target_threshold_is_riskless_path(self,
                                                        gauss_unc_table):
        x0 = 1.0
        d = gauss_unc_table.rho(0) * x0
        for t in range(4):
            assert precommitted(gauss_unc_table, x0, d).threshold(t) == \
                pytest.approx(gauss_unc_table.rho(0) * x0
                              / gauss_unc_table.rho(t), rel=1e-14)


class TestTransitionProbs:
    def test_exact_on_discrete(self):
        market = small_move_market()
        table = backward_recursion(market, ConvexCone.whole_space(1),
                                   ExactDiscreteBackend(market))
        probs = transition_probs(table, market, 0)
        y = market.periods[0].atoms @ table.k_plus[0]
        want_below = float(market.periods[0].probs @ (y <= 1.0))
        assert probs.stay_below == pytest.approx(want_below, abs=1e-15)
        assert probs.stay_below + probs.cross_up == pytest.approx(1.0)
        assert probs.return_from_above + probs.stay_above == \
            pytest.approx(1.0)

    def test_zero_short_gain_never_returns(self, three_gauss):
        from conemv.presets import mean_half_space_cone
        table = backward_recursion(three_gauss, mean_half_space_cone(),
                                   SaaBackend(three_gauss, 50_000, seed=2))
        probs = transition_probs(table, three_gauss, 1)
        assert probs.return_from_above == 0.0
        assert probs.stay_above == 1.0

    def test_gaussian_crossing_matches_normal_tail(self, three_gauss,
                                                   gauss_unc_table):
        t = 0
        k = gauss_unc_table.k_plus[t]
        period = three_gauss.periods[t]
        mu_y = float(period.mean @ k)
        sd_y = float(np.sqrt(k @ period.cov @ k))
        exact = scipy.stats.norm.sf((1.0 - mu_y) / sd_y)
        probs = transition_probs(gauss_unc_table, three_gauss, t)
        assert probs.cross_up == pytest.approx(exact, rel=0, abs=1e-14)

    def test_rare_crossing_keeps_relative_precision(self, three_gauss,
                                                    gauss_unc_table):
        """With K^+ scaled by 0.1 a crossing has probability near 7e-126,
        which 1 - Pr(P'K^+ <= 1) would round to 0."""
        table = dataclasses.replace(gauss_unc_table,
                                    k_plus=0.1 * gauss_unc_table.k_plus,
                                    k_minus=-0.1 * gauss_unc_table.k_plus)
        for t in range(table.horizon):
            period = three_gauss.periods[t]
            probs = transition_probs(table, three_gauss, t)
            for k, a, p in ((table.k_plus[t], 1.0, probs.cross_up),
                            (table.k_minus[t], -1.0, probs.stay_above)):
                loc = float(period.mean @ k)
                s = float(np.sqrt(k @ period.cov @ k))
                want = scipy.stats.norm.sf(a, loc=loc, scale=s)
                assert 0.0 < p == pytest.approx(want, rel=1e-12, abs=0)
            assert probs.cross_up < 1e-100

    @pytest.mark.parametrize("seed", range(6))
    def test_tree_transitions_are_atom_sums(self, seed):
        market = random_tree_market(seed=seed, horizon=2, n_assets=2)
        table = backward_recursion(market, ConvexCone.orthant(2),
                                   ExactDiscreteBackend(market))
        for t in range(table.horizon):
            period = market.periods[t]
            probs = transition_probs(table, market, t)
            up = period.atoms @ table.k_plus[t]
            down = period.atoms @ table.k_minus[t]
            assert (probs.stay_below, probs.cross_up,
                    probs.return_from_above, probs.stay_above) == (
                float(period.probs @ (up <= 1.0)),
                float(period.probs @ (up > 1.0)),
                float(period.probs @ (down <= -1.0)),
                float(period.probs @ (down > -1.0)))

    def test_backend_is_never_drawn_from(self, monkeypatch, three_gauss,
                                         three_t):
        # a backend is accepted, read for nothing and drawn from never
        draws = []
        draw = MarketSpec.sample_block

        def counted(*args, **kwargs):
            draws.append(args[1:])
            return draw(*args, **kwargs)

        monkeypatch.setattr(MarketSpec, "sample_block", counted)
        for market in (three_gauss, three_t):
            table = unconstrained_table(market)
            for t in range(market.horizon):
                backend = SaaBackend(market, 10_000, seed=5)
                got = transition_probs(table, market, t, backend=backend)
                assert got == transition_probs(table, market, t)
        assert draws == []

    def test_continuous_periods_need_no_backend(self, three_gauss, three_t):
        for market in (three_gauss, three_t):
            table = unconstrained_table(market)
            for t in range(market.horizon):
                got = transition_probs(table, market, t)
                period = market.periods[t]
                assert got.stay_below == period.cdf_inner(table.k_plus[t], 1.0)
                assert got.return_from_above == \
                    period.cdf_inner(table.k_minus[t], -1.0)
        # a discrete period beside a gaussian one
        mixed = MarketSpec(horizon=2, riskless_rates=[1.05, 1.05],
                           periods=[small_move_market(1).periods[0],
                                    PeriodDistribution.gaussian([0.06],
                                                                [[0.04]])])
        table = unconstrained_table(mixed)
        for t in range(2):
            got = transition_probs(table, mixed, t)
            assert got.stay_below == mixed.periods[t].cdf_inner(
                table.k_plus[t], 1.0)

    @pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob(
        "*.json")))
    def test_in_sample_transitions_are_within_4_se(self, name):
        """The counts over the solve's 1M-row sample, which `conemv tcie`
        printed before its probabilities were exact, lie within 4 SE of
        them on every shipped config."""
        cfg = parse_config(json.loads((CONFIGS / f"{name}.json").read_text()))
        assert cfg.samples == 1_000_000
        backend = cfg.make_backend()
        table = backward_recursion(cfg.market, cfg.cones, backend)
        for t in range(table.horizon):
            pts = backend.period(t).pts
            exact = transition_probs(table, cfg.market, t)
            for k, a, p in ((table.k_plus[t], 1.0, exact.stay_below),
                            (table.k_minus[t], -1.0,
                             exact.return_from_above)):
                counted = float(np.mean(pts @ k <= a))
                se = np.sqrt(p * (1.0 - p) / cfg.samples)
                assert abs(counted - p) <= 4.0 * se, (t, a, counted, p)


class TestConditionalConsistency:
    def test_simulated_transitions_match_theory(self, three_gauss,
                                                gauss_unc_table):
        # Paths strictly below the threshold at t stay weakly below at
        # t + 1 with Pr(P'K^+ <= 1); paths strictly above return with
        # Pr(P'K^- <= -1).  Cells of fewer than 100 paths are not judged.
        pol = precommitted(gauss_unc_table, 1.0, 1.35)
        wealth = simulate(pol, three_gauss, n_paths=200_000, seed=7).wealth
        checked = set()
        for t in range(gauss_unc_table.horizon):
            probs = transition_probs(gauss_unc_table, three_gauss, t)
            stays_below = wealth[:, t + 1] <= pol.threshold(t + 1)
            for side, mask, theory in (
                    ("below", wealth[:, t] < pol.threshold(t),
                     probs.stay_below),
                    ("above", wealth[:, t] > pol.threshold(t),
                     probs.return_from_above)):
                count = int(mask.sum())
                if count < 100:
                    continue
                se = np.sqrt(theory * (1.0 - theory) / count)
                assert abs(stays_below[mask].mean() - theory) <= \
                    4.0 * se, (t, side)
                checked.add((t, side))
        assert len(checked) >= 3
        assert (0, "below") in checked
        assert any(side == "above" for _, side in checked)


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", list(range(12)))
    def test_verdict_matches_continuation_audit(self, seed):
        market = random_tree_market(seed=seed, horizon=2, n_assets=2)
        table = backward_recursion(market, ConvexCone.orthant(2),
                                   ExactDiscreteBackend(market))
        verdict = check_tcie(table, market)
        rows = [np.eye(2)] * 2
        rng = np.random.default_rng(seed + 1000)
        riskless = table.rho(0)
        compared = 0
        for x0 in (1.0, float(rng.uniform(0.5, 1.5))):
            d = riskless * x0 + float(rng.uniform(0.05, 0.4))
            try:
                pol = precommitted(table, x0, d)
            except TargetUnattainable:
                continue
            ok_audit, why = exhaustive_tcie(market, pol, rows, x0, d)
            assert ok_audit == verdict.is_tcie, (seed, x0, d, why)
            ok_node, where = node_condition_tcie(market, table, pol, x0, d)
            assert ok_node == verdict.is_tcie, (seed, x0, d, where)
            compared += 1
        if compared == 0:
            pytest.skip("no attainable targets for this draw")

    def test_verdict_is_target_independent(self):
        # the analytic verdict takes no (x0, d); confirm the policy-level
        # audits concur across several targets on a violated market
        market = random_tree_market(seed=7, horizon=2, n_assets=2)
        table = backward_recursion(market, ConvexCone.orthant(2),
                                   ExactDiscreteBackend(market))
        verdict = check_tcie(table, market)
        rows = [np.eye(2)] * 2
        rng = np.random.default_rng(99)
        outcomes = set()
        for _ in range(5):
            x0 = float(rng.uniform(0.6, 1.4))
            d = table.rho(0) * x0 + float(rng.uniform(0.05, 0.5))
            try:
                pol = precommitted(table, x0, d)
            except TargetUnattainable:
                continue
            outcomes.add(node_condition_tcie(market, table, pol, x0, d)[0])
        assert outcomes == {verdict.is_tcie}

    def test_condition_19_freezes_after_crossing(self, three_gauss):
        from conemv.presets import mean_half_space_cone
        table = backward_recursion(three_gauss, mean_half_space_cone(),
                                   SaaBackend(three_gauss, 50_000, seed=2))
        verdict = check_tcie(table, three_gauss)
        assert verdict.reason == "condition_19"
        t_star = verdict.flip_period
        assert np.all(table.c_minus[t_star + 1:3] >= 1.0 - 1e-12)
