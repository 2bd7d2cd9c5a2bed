"""Market construction, validation, moments, path sampling and the draw
pool."""
import dataclasses
import os
import signal
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import special, stats

from conemv import market as market_module
from conemv import rng
from conemv.errors import DimensionMismatch, InvalidMarket
from conemv.market import MarketSpec, PeriodDistribution, from_annual_table
from conemv.presets import (
    THREE_INDEX_RISKLESS,
    THREE_INDEX_CORR,
    THREE_INDEX_RETURNS,
    THREE_INDEX_VOLS,
    three_index_market,
    three_index_moments,
)

from conftest import nested, random_tree_market

# Published second-moment matrix for the three-index calibration, kept as a
# regression anchor (entries rounded to 1e-4 in the source table).
THREE_INDEX_SECOND_MOMENT = np.array([
    [0.0423, 0.0454, 0.0459],
    [0.0454, 0.1021, 0.0672],
    [0.0459, 0.0672, 0.0720],
])
THREE_INDEX_COV = np.array([
    [0.0342, 0.0355, 0.0351],
    [0.0355, 0.0900, 0.0540],
    [0.0351, 0.0540, 0.0576],
])


class TestThreeIndexCalibration:
    def test_market_validates(self):
        market = three_index_market("gaussian")
        market.validate()
        assert market.horizon == 3
        assert market.n_assets == 3
        assert all(p is market.periods[0] for p in market.periods)
        assert np.all(market.riskless_rates == market.riskless_rates[0])

    def test_mean_excess_returns(self):
        mean, _ = three_index_moments()
        np.testing.assert_allclose(mean, [0.09, 0.11, 0.12], atol=1e-12)

    def test_covariance_matches_published_table(self):
        _, cov = three_index_moments()
        np.testing.assert_allclose(cov, THREE_INDEX_COV, atol=1e-4)

    def test_second_moment_matches_published_table(self):
        market = three_index_market("gaussian")
        second = market.periods[0].second_moment()
        np.testing.assert_allclose(second, THREE_INDEX_SECOND_MOMENT,
                                   atol=1e-4)

    def test_student_t_shares_first_two_moments(self):
        g = three_index_market("gaussian").periods[0]
        t = three_index_market("student_t").periods[0]
        np.testing.assert_allclose(t.mean, g.mean, atol=1e-14)
        np.testing.assert_allclose(t.cov, g.cov, atol=1e-14)
        np.testing.assert_allclose(t.second_moment(), g.second_moment(),
                                   atol=1e-14)

    def test_from_annual_table_diagonal_is_vol_squared(self):
        mean, cov = from_annual_table(THREE_INDEX_RETURNS, THREE_INDEX_VOLS,
                                      THREE_INDEX_CORR, THREE_INDEX_RISKLESS)
        np.testing.assert_allclose(np.diag(cov),
                                   np.asarray(THREE_INDEX_VOLS) ** 2,
                                   rtol=1e-14)
        np.testing.assert_allclose(
            mean, np.asarray(THREE_INDEX_RETURNS) - THREE_INDEX_RISKLESS,
            atol=1e-14)


class TestValidation:
    def test_zero_eigenvalue_covariance_rejected(self):
        cov = np.array([[0.04, 0.02], [0.02, 0.01]])  # rank one
        period = PeriodDistribution.gaussian([0.05, 0.05], cov)
        market = MarketSpec(horizon=1, riskless_rates=[1.02],
                            periods=[period])
        with pytest.raises(InvalidMarket):
            market.validate()

    def test_asymmetric_covariance_rejected(self):
        cov = np.array([[0.04, 0.02], [0.019, 0.05]])
        with pytest.raises(InvalidMarket):
            PeriodDistribution.gaussian([0.05, 0.05], cov).validate()

    @pytest.mark.parametrize("make", [
        lambda: PeriodDistribution.gaussian(["0.1", True], np.eye(2)),
        lambda: PeriodDistribution.gaussian([0.1, True], np.eye(2)),
        lambda: PeriodDistribution.gaussian([0.1, 0.2], [[1, "0"], [0, 1]]),
        lambda: PeriodDistribution.student_t(np.array([True]), [[1.0]], 5),
        lambda: PeriodDistribution.discrete([[0.1], [True]], [0.5, 0.5]),
        lambda: PeriodDistribution.discrete([[0.1], [0.2]], ["0.5", 0.5]),
        lambda: MarketSpec(1, ["1.02"], [PeriodDistribution.gaussian(
            [0.05], [[0.04]])]),
        # 40 dimensions, past numpy's 32
        lambda: PeriodDistribution.gaussian(nested(0.1, 40), [[0.04]]),
    ])
    def test_booleans_and_strings_rejected(self, make):
        with pytest.raises(InvalidMarket, match="array of numbers"):
            make()

    def test_numeric_arrays_of_any_real_type_accepted(self):
        period = PeriodDistribution.gaussian(
            [np.float32(0.5), 1], np.array([[1, 0], [0, 2]], dtype=np.int8))
        np.testing.assert_array_equal(period.mean, [0.5, 1.0])
        assert period.cov.dtype == float

    def test_student_t_needs_finite_variance(self):
        with pytest.raises(InvalidMarket):
            PeriodDistribution.student_t([0.05], [[0.04]], df=2.0).validate()

    def test_discrete_probabilities_must_be_positive(self):
        with pytest.raises(InvalidMarket):
            PeriodDistribution.discrete([[-0.1], [0.2]],
                                        [1.0, 0.0]).validate()

    def test_discrete_probabilities_must_sum_to_one(self):
        with pytest.raises(InvalidMarket):
            PeriodDistribution.discrete([[-0.1], [0.2]],
                                        [0.6, 0.3]).validate()

    def test_discrete_shape_mismatch(self):
        with pytest.raises((DimensionMismatch, InvalidMarket, ValueError)):
            PeriodDistribution.discrete([[-0.1], [0.2]], [0.5, 0.3, 0.2])

    def test_replicating_discrete_market_rejected(self):
        # Two atoms, two assets: the riskless payoff is attainable and the
        # minimum of E[(1 - P'K)^2] is exactly zero, which breaks the whole
        # construction.  The validator must notice.
        atoms = [[-0.1, 0.2], [0.3, -0.4]]
        period = PeriodDistribution.discrete(atoms, [0.5, 0.5])
        market = MarketSpec(horizon=1, riskless_rates=[1.05],
                            periods=[period])
        with pytest.raises(InvalidMarket):
            market.validate()

    def test_rates_length_must_match_horizon(self):
        period = PeriodDistribution.discrete([[-0.1], [0.2]], [0.5, 0.5])
        with pytest.raises((InvalidMarket, DimensionMismatch)):
            MarketSpec(horizon=2, riskless_rates=[1.05],
                       periods=[period, period]).validate()

    def test_nonpositive_rate_rejected(self):
        period = PeriodDistribution.discrete([[-0.1], [0.2]], [0.5, 0.5])
        with pytest.raises(InvalidMarket):
            MarketSpec(horizon=1, riskless_rates=[0.0],
                       periods=[period]).validate()

    def test_mixed_asset_counts_rejected(self):
        p1 = PeriodDistribution.discrete([[-0.1], [0.2]], [0.5, 0.5])
        p2 = PeriodDistribution.gaussian([0.05, 0.05],
                                         [[0.04, 0.0], [0.0, 0.04]])
        with pytest.raises((InvalidMarket, DimensionMismatch)):
            MarketSpec(horizon=2, riskless_rates=[1.05, 1.05],
                       periods=[p1, p2]).validate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["rates", "mean", "cov", "df",
                                       "atoms", "probs"])
    def test_non_finite_data_rejected(self, field, bad):
        mean, cov, rates = [0.05, 0.06], [[0.04, 0.01], [0.01, 0.05]], [1.02]
        atoms, probs = [[-0.1, 0.2], [0.3, -0.1], [0.1, 0.1]], [0.3, 0.3, 0.4]
        if field == "rates":
            rates = [bad]
        elif field == "mean":
            mean = [0.05, bad]
        elif field == "cov":
            cov = [[0.04, 0.01], [0.01, bad]]
        elif field == "atoms":
            atoms = [[-0.1, 0.2], [0.3, bad], [0.1, 0.1]]
        elif field == "probs":
            probs = [0.3, bad, 0.4]
        if field in ("atoms", "probs"):
            period = PeriodDistribution.discrete(atoms, probs)
        else:
            period = PeriodDistribution.student_t(
                mean, cov, bad if field == "df" else 5.0)
        market = MarketSpec(1, rates, [period])
        name = "riskless rates" if field == "rates" else field
        with pytest.raises(InvalidMarket, match=f"{name} must be finite"):
            market.validate()


class TestImmutability:
    """Market values are frozen: no field can be reassigned, no array
    written, and a caller's later writes to its own arrays do not reach
    the value."""

    def values(self):
        gauss = PeriodDistribution.gaussian([0.05, 0.06],
                                            [[0.04, 0.01], [0.01, 0.05]])
        tree = PeriodDistribution.discrete([[-0.1, 0.2], [0.3, -0.1],
                                            [0.1, 0.1]], [0.3, 0.3, 0.4])
        return gauss, tree, MarketSpec(2, [1.02, 1.03], [gauss, tree])

    def test_fields_cannot_be_assigned(self):
        for value in self.values():
            for f in dataclasses.fields(value):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, f.name, getattr(value, f.name))

    def test_arrays_are_read_only(self):
        gauss, tree, market = self.values()
        for array in (gauss.mean, gauss.cov, tree.atoms, tree.probs,
                      market.riskless_rates):
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_caller_arrays_are_copied(self):
        mean = np.array([0.05, 0.06])
        cov = np.array([[0.04, 0.01], [0.01, 0.05]])
        rates = np.array([1.02])
        periods = [PeriodDistribution.gaussian(mean, cov)]
        market = MarketSpec(1, rates, periods)
        mean[0], cov[0, 0], rates[0] = 9.0, 9.0, 9.0
        periods.append(periods[0])
        assert market.periods[0].mean[0] == 0.05
        assert market.periods[0].cov[0, 0] == 0.04
        assert market.riskless_rates[0] == 1.02
        assert market.periods == (periods[0],)

    def test_no_cache_fields(self):
        names = {cls: [f.name for f in dataclasses.fields(cls)]
                 for cls in (PeriodDistribution, MarketSpec)}
        assert names == {
            PeriodDistribution: ["family", "mean", "cov", "df", "atoms",
                                 "probs"],
            MarketSpec: ["horizon", "riskless_rates", "periods"]}

    def test_validate_and_draws_leave_the_value_unchanged(self):
        gauss, tree, market = self.values()
        before = {k: v for k, v in vars(market).items()}
        market.validate()
        market.sample_block(0, 3, 0, 5)
        market.sample_block(1, 3, 0, 5)
        assert vars(market) == before
        assert vars(gauss).keys() == {f.name for f in
                                      dataclasses.fields(gauss)}

    def test_replace_makes_a_validated_variant(self):
        _, _, market = self.values()
        shifted = dataclasses.replace(market, riskless_rates=[1.0, 1.0])
        shifted.validate()
        assert shifted.rho(0) == 1.0 and market.rho(0) == 1.02 * 1.03
        assert shifted.periods is market.periods


class TestMoments:
    def test_single_asset_discrete_second_moment(self):
        period = PeriodDistribution.discrete([[-0.1], [0.2]], [0.5, 0.5])
        np.testing.assert_allclose(period.second_moment(), [[0.025]],
                                   rtol=1e-15)
        np.testing.assert_allclose(period.mean, [0.05], rtol=1e-15)

    def test_discrete_mean_and_cov_derived_from_atoms(self):
        atoms = np.array([[-0.2, 0.1], [0.0, -0.3], [0.4, 0.25]])
        probs = np.array([0.3, 0.2, 0.5])
        period = PeriodDistribution.discrete(atoms, probs)
        np.testing.assert_allclose(period.mean, probs @ atoms, rtol=1e-14)
        expected_cov = (atoms - probs @ atoms).T @ np.diag(probs) @ \
            (atoms - probs @ atoms)
        np.testing.assert_allclose(period.cov, expected_cov, atol=1e-15)

    def test_second_moment_is_cov_plus_outer(self):
        mean, cov = three_index_moments()
        period = PeriodDistribution.gaussian(mean, cov)
        np.testing.assert_allclose(period.second_moment(),
                                   cov + np.outer(mean, mean), rtol=1e-14)


class TestCompounding:
    def test_constant_rate_three_periods(self):
        market = three_index_market("gaussian")
        assert market.rho(0) == pytest.approx(1.05 ** 3, rel=1e-14)
        assert market.rho(0) == pytest.approx(1.157625, rel=1e-12)

    def test_terminal_rho_is_one(self):
        market = three_index_market("gaussian")
        assert market.rho(market.horizon) == 1.0

    def test_varying_rates(self):
        period = PeriodDistribution.discrete([[-0.1], [0.2]], [0.5, 0.5])
        market = MarketSpec(horizon=2, riskless_rates=[1.0, 2.0],
                            periods=[period, period])
        assert market.rho(0) == pytest.approx(2.0, rel=1e-15)
        assert market.rho(1) == pytest.approx(2.0, rel=1e-15)
        assert market.rho(2) == 1.0

    def test_rho_rejects_out_of_range(self):
        market = three_index_market("gaussian")
        with pytest.raises((IndexError, ValueError)):
            market.rho(market.horizon + 1)
        with pytest.raises((IndexError, ValueError)):
            market.rho(-1)


class TestSampling:
    N = 1_000_000

    def test_gaussian_sample_mean(self):
        market = three_index_market("gaussian")
        draws = market.sample_block(0, seed=123, lo=0, hi=self.N)
        se = np.sqrt(np.diag(market.periods[0].cov) / self.N)
        dev = np.abs(draws.mean(axis=0) - market.periods[0].mean)
        assert np.all(dev <= 3.0 * se)

    def test_gaussian_sample_cov(self):
        market = three_index_market("gaussian")
        draws = market.sample_block(0, seed=123, lo=0, hi=self.N)
        sample_cov = np.cov(draws, rowvar=False)
        # entrywise 4 SE using the gaussian fourth-moment formula
        cov = market.periods[0].cov
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov ** 2)
                     / self.N)
        assert np.all(np.abs(sample_cov - cov) <= 4.0 * se)

    def test_student_t_sample_cov_within_five_percent(self):
        market = three_index_market("student_t")
        draws = market.sample_block(0, seed=7, lo=0, hi=self.N)
        sample_cov = np.cov(draws, rowvar=False)
        cov = market.periods[0].cov
        assert np.all(np.abs(sample_cov - cov) <= 0.05 * np.abs(cov))

    def test_student_t_sample_mean(self):
        market = three_index_market("student_t")
        draws = market.sample_block(0, seed=7, lo=0, hi=self.N)
        se = np.sqrt(np.diag(market.periods[0].cov) / self.N)
        dev = np.abs(draws.mean(axis=0) - market.periods[0].mean)
        assert np.all(dev <= 4.0 * se)

    def test_discrete_sampler_frequencies(self):
        atoms = np.array([[-0.2, 0.1], [0.0, -0.3], [0.4, 0.25]])
        probs = np.array([0.3, 0.2, 0.5])
        period = PeriodDistribution.discrete(atoms, probs)
        market = MarketSpec(horizon=1, riskless_rates=[1.02],
                            periods=[period])
        n = 100_000
        draws = market.sample_block(0, seed=5, lo=0, hi=n)
        for atom, p in zip(atoms, probs):
            freq = np.mean(np.all(draws == atom, axis=1))
            se = np.sqrt(p * (1.0 - p) / n)
            assert abs(freq - p) <= 4.0 * se

    def test_discrete_sampler_emits_only_atoms(self):
        atoms = np.array([[-0.2], [0.0], [0.4]])
        period = PeriodDistribution.discrete(atoms, [0.3, 0.2, 0.5])
        market = MarketSpec(horizon=1, riskless_rates=[1.0],
                            periods=[period])
        draws = market.sample_block(0, seed=1, lo=0, hi=1000)
        assert set(np.unique(draws)) <= {-0.2, 0.0, 0.4}

    def test_block_splitting_is_bit_identical(self):
        market = three_index_market("student_t")
        whole = market.sample_block(1, seed=99, lo=0, hi=10_000)
        split = np.vstack([
            market.sample_block(1, seed=99, lo=0, hi=3_333),
            market.sample_block(1, seed=99, lo=3_333, hi=9_000),
            market.sample_block(1, seed=99, lo=9_000, hi=10_000),
        ])
        np.testing.assert_array_equal(whole, split)

    @pytest.mark.parametrize("family", ["gaussian", "student_t"])
    @pytest.mark.parametrize("lo, hi", [(0, 1), (7, 20), (1, 1_000),
                                        (100, 140_100)])
    def test_draws_match_the_out_of_place_transform(self, family, lo, hi):
        # sample_block writes the normals over their uniforms and takes
        # the product from that strided block; the draws must equal the
        # transform on a separate normal array, bit for bit
        period = three_index_market(family).periods[0]
        n = period.n_assets
        u = rng.uniform_block(4, rng.STREAM_SIM, 2, lo, hi, n + 1)
        z = special.ndtri(u[:, :n])
        scale = period.cov
        if family == "student_t":
            scale = period.cov * (period.df - 2.0) / period.df
        chol = np.linalg.cholesky(scale)
        if hi - lo == 1:
            z = np.repeat(z, 2, axis=0)  # as sample_block: gemm, not gemv
        expected = (z @ chol.T)[:hi - lo]
        if family == "student_t":
            chi2 = market_module.gammaincinv(period.df / 2.0, u[:, n])
            expected /= np.sqrt(chi2 * 2.0 / period.df)[:, None]
        expected += period.mean
        np.testing.assert_array_equal(
            period.sample_block(4, rng.STREAM_SIM, 2, lo, hi), expected)

    @pytest.mark.parametrize("family", ["gaussian", "student_t"])
    def test_one_row_blocks_match_the_whole_block(self, family):
        market = three_index_market(family)
        whole = market.sample_block(0, seed=3, lo=0, hi=2_000)
        ones = np.vstack([market.sample_block(0, seed=3, lo=i, hi=i + 1)
                          for i in range(2_000)])
        np.testing.assert_array_equal(ones, whole)

    def test_periods_draw_independent_streams(self):
        market = three_index_market("gaussian")
        a = market.sample_block(0, seed=4, lo=0, hi=100)
        b = market.sample_block(1, seed=4, lo=0, hi=100)
        assert not np.array_equal(a, b)

    def test_seed_changes_draws(self):
        market = three_index_market("gaussian")
        a = market.sample_block(0, seed=4, lo=0, hi=100)
        b = market.sample_block(0, seed=5, lo=0, hi=100)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_key_word_rejected(self, seed):
        # reducing modulo 2**64 would give -1 the draws of 2**64 - 1
        with pytest.raises(ValueError, match="seed out of range"):
            rng.uniform_block(seed, rng.STREAM_SAA, 0, 0, 4, 3)


class TestOpenInterval:
    def test_lattice_ends_map_inside_the_open_interval(self):
        top = 1.0 - 2.0**-53  # random()'s largest value
        assert top + 2.0**-54 == 1.0  # where the plain shift lands it
        rows = np.array([[0.0, top - 2.0**-53, top]])
        rng._into_open_interval(rows)
        # the point below the top shifts as every other point does
        np.testing.assert_array_equal(
            rows, [[2.0**-54, top - 2.0**-53 + 2.0**-54, top]])


def shifted_lattice(n):
    """n evenly spaced points of random()'s lattice {k 2^-53}, both ends
    included, shifted into (0, 1) as ``rng.uniform_block`` does."""
    k = np.arange(n, dtype=np.int64) * ((2**53 - 1) // (n - 1))
    u = k * 2.0**-53
    rng._into_open_interval(u)
    return u


class TestChiSquareQuantile:
    """``market.gammaincinv`` against scipy, which it replaces by a table."""
    SHAPES = [1.005, 1.01, 1.5, 2.5, 3.0, 10.0, 50.0, 100.0, 1e4, 5e5]

    @staticmethod
    def around_half():
        # the table's nodes switch from gammaincinv to gammainccinv at
        # z = 0, between the nodes at -h/2 and h/2
        h = 2.0 * market_module._TABLE_Z / (market_module._TABLE_NODES - 1)
        return np.concatenate([
            special.ndtr(np.linspace(-2.0 * h, 2.0 * h, 201)),
            np.nextafter(0.5, [0.0, 1.0]), [0.5]])

    @pytest.mark.parametrize("a", SHAPES)
    def test_agrees_with_scipy(self, a):
        u = np.concatenate([shifted_lattice(1_000_000),
                            [2.0**-54, 1.0 - 2.0**-53], self.around_half()])
        assert u.min() == 2.0**-54 and u.max() == 1.0 - 2.0**-53
        np.testing.assert_allclose(market_module.gammaincinv(a, u),
                                   special.gammaincinv(a, u), rtol=5e-14,
                                   atol=0)

    @pytest.mark.parametrize("a,rtol", [
        (1.005, 3e-14), (1.5, 3e-14),  # log x rounds in the far lower tail
        (2.5, 1e-14), (10.0, 1e-14), (100.0, 1e-14), (500.0, 1e-14)])
    def test_accuracy_against_mpmath(self, a, rtol):
        # agreement with scipy is not accuracy: the reference is the true
        # quantile at the same double p, by Newton steps at 40 digits on
        # the regularized P(a, x), or on Q(a, x) above the median
        mpmath = pytest.importorskip("mpmath")
        p = special.ndtr(np.linspace(-8.0, 8.0, 401))
        got = market_module.gammaincinv(a, p)
        with mpmath.workdps(40):
            a_mp, log_gamma = mpmath.mpf(a), mpmath.loggamma(a)
            for x_table, q in zip(got, p):
                upper = q > 0.5
                target = 1 - mpmath.mpf(q) if upper else mpmath.mpf(q)
                x = mpmath.mpf(x_table)
                for _ in range(6):
                    tail = (mpmath.gammainc(a_mp, x, mpmath.inf,
                                            regularized=True) if upper
                            else mpmath.gammainc(a_mp, 0, x,
                                                 regularized=True))
                    density = mpmath.exp((a_mp - 1) * mpmath.log(x) - x
                                         - log_gamma)
                    x -= (tail - target) / density * (-1 if upper else 1)
                assert abs(x_table / x - 1) <= rtol, (a, q)

    @pytest.mark.parametrize("a", [1.005, 2.5, 5e5])
    def test_one_element_calls_equal_the_whole_array(self, a):
        u = np.concatenate([shifted_lattice(1_001), self.around_half()])
        whole = market_module.gammaincinv(a, u)
        ones = [market_module.gammaincinv(a, u[i:i + 1])[0]
                for i in range(u.size)]
        np.testing.assert_array_equal(ones, whole)

    @pytest.mark.parametrize("a", [np.nextafter(5e5, 1e6), 5e19, 5e299])
    def test_shapes_beyond_the_table_take_scipys_values(self, a):
        # the table's slope exponent is NaN from a = 5e19 upward
        u = np.concatenate([shifted_lattice(100_001),
                            [2.0**-54, 1.0 - 2.0**-53]])
        got = market_module.gammaincinv(a, u)
        assert np.all(np.isfinite(got))
        np.testing.assert_array_equal(got, special.gammaincinv(a, u))

    def test_huge_df_draws_the_gaussian_sample(self):
        # chi2 / df rounds to 1 at df 1e300, and both laws read the same
        # uniforms through the same Cholesky factor
        mean, cov = three_index_moments()
        t = PeriodDistribution.student_t(mean, cov, 1e300)
        t.validate()
        np.testing.assert_array_equal(
            t.sample_block(3, 1, 0, 0, 20_000),
            PeriodDistribution.gaussian(mean, cov).sample_block(3, 1, 0, 0,
                                                                20_000))

    def test_values_outside_the_table_come_from_scipy(self):
        outside = np.array([0.0, 1e-300, 1e-20, 1.0, np.nan])
        u = np.insert(outside, 2, 0.3)  # one table value among them
        got = market_module.gammaincinv(2.5, u)
        np.testing.assert_array_equal(np.delete(got, 2),
                                      special.gammaincinv(2.5, outside))
        assert got[2] == market_module.gammaincinv(2.5, u[2:3])[0]


DISCRETE_2 = PeriodDistribution.discrete(
    [[-0.2, 0.1], [0.0, -0.3], [0.4, 0.25]], [0.3, 0.2, 0.5])
POOL_MARKETS = {
    "gaussian": three_index_market("gaussian"),
    "student_t": three_index_market("student_t"),
    # three uniforms a path in a stride of four
    "discrete": MarketSpec(horizon=3, riskless_rates=[1.02] * 3,
                           periods=[DISCRETE_2] * 3),
}
POOL_BLOCKS = [(0, 1), (5, 6), (7, 20), (1, 1_000), (12_345, 12_399)]


def draw_all(seed=11):
    return {(name, t, lo, hi): market.sample_block(t, seed, lo, hi)
            for name, market in POOL_MARKETS.items()
            for t in range(3) for lo, hi in POOL_BLOCKS}


class TestDrawPool:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_chunked_draws_equal_serial_draws(self, draw_pool, workers):
        draw_pool(1, rng._CHUNK_ROWS)
        serial = draw_all()
        draw_pool(workers, 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the chunks finely
        try:
            chunked = draw_all()
        finally:
            sys.setswitchinterval(interval)
        assert (rng._pool is not None) == (workers > 1)
        for key, draw in serial.items():
            np.testing.assert_array_equal(chunked[key], draw, err_msg=str(key))

    @pytest.mark.parametrize("slab_rows", [3, 4])
    def test_slabbed_draws_equal_serial_draws(self, draw_pool, monkeypatch,
                                              slab_rows):
        # blocks straddle slab boundaries; (7, 20) and (0, 1) end in a
        # slab of one row, 3-row slabs end in a chunk of one row, and
        # each slab's stages still run on the pool
        draw_pool(1, rng._CHUNK_ROWS)
        serial = draw_all()
        draw_pool(2, 2)
        monkeypatch.setattr(rng, "_SLAB_ROWS", slab_rows)
        slabbed = draw_all()
        assert rng._pool is not None
        for key, draw in serial.items():
            np.testing.assert_array_equal(slabbed[key], draw, err_msg=str(key))

    @pytest.mark.parametrize("name", sorted(POOL_MARKETS))
    def test_draw_fills_a_strided_out(self, monkeypatch, name):
        market = POOL_MARKETS[name]
        monkeypatch.setattr(rng, "_SLAB_ROWS", 64)
        rows, t = 1_000, 1
        paths = np.full((rows, market.horizon, market.n_assets), np.nan)
        view = paths[:, t]
        assert market.sample_block(t, 5, 30, 30 + rows, out=view) is view
        np.testing.assert_array_equal(paths[:, t],
                                      market.sample_block(t, 5, 30, 30 + rows))
        assert np.isnan(np.delete(paths, t, axis=1)).all()

    @pytest.mark.parametrize("family", ["gaussian", "student_t"])
    def test_draw_holds_one_slab_of_scratch(self, family):
        """Besides its (N, n) output, a draw holds one slab's uniforms
        (four doubles a row at n = 3) and Student-t scale."""
        market = three_index_market(family)
        n_rows, n = 200_000, market.n_assets
        market.sample_block(0, 1, 0, 2)  # scipy.special and the t table
        tracemalloc.start()
        try:
            market.sample_block(0, 1, 0, n_rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (8 * n * n_rows + 8 * (n + 3) * rng._SLAB_ROWS
                        + 64 * 1024)

    @pytest.mark.parametrize("n_uniforms", [3, 4])
    def test_uniforms_are_one_philox_stream(self, draw_pool, n_uniforms):
        draw_pool(2, 5)
        lo, hi = 17, 60
        u = rng.uniform_block(9, rng.STREAM_SIM, 2, lo, hi, n_uniforms)
        bg = np.random.Philox(key=rng._key(9, rng.STREAM_SIM, 2))
        bg.advance(lo)  # one Philox tick of four doubles a path
        expected = np.random.Generator(bg).random((hi - lo) * 4)
        expected = expected.reshape(hi - lo, 4)[:, :n_uniforms] + 2.0**-54
        np.testing.assert_array_equal(u, expected)

    def test_forked_child_draws_the_same_block(self, draw_pool):
        draw_pool(2, 64)
        market = POOL_MARKETS["student_t"]
        expected = market.sample_block(1, 5, 0, 1_000)
        assert rng._pool is not None
        pid = os.fork()
        if pid == 0:  # the child never returns into pytest
            code = 1
            try:
                same = np.array_equal(market.sample_block(1, 5, 0, 1_000),
                                      expected)
                code = 0 if same else 3
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's draw did not finish in 60 s")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0

    @pytest.mark.parametrize("workers, chunk_rows, rows", [
        (2, rng._CHUNK_ROWS, 4_096),   # a tree-sweep simulation block
        (2, 8, 8),                     # exactly one chunk
        (1, 8, 1_000),                 # one CPU
    ])
    def test_small_draw_never_creates_the_pool(self, draw_pool, workers,
                                               chunk_rows, rows):
        draw_pool(workers, chunk_rows)
        for market in POOL_MARKETS.values():
            market.sample_block(0, 1, 0, rows)
        assert rng._pool is None

    @pytest.mark.parametrize("workers, n_rows, at_once", [
        (1, 20, 1), (2, 20, 2), (3, 20, 3), (3, 5, 2), (2, 3, 1)])
    def test_each_call_covers_one_chunk(self, draw_pool, workers, n_rows,
                                        at_once):
        """The calls cover [0, n_rows) once, one chunk each, inline runs
        included; at most min(workers, chunks) of them run at once."""
        draw_pool(workers, 3)
        calls, running, peak = [], set(), []
        lock = threading.Lock()

        def fill(lo, hi):
            with lock:
                running.add(lo)
                peak.append(len(running))
            time.sleep(0.001)
            with lock:
                running.remove(lo)
                calls.append((lo, hi))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rng.over_row_chunks(n_rows, fill)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == [(lo, min(lo + 3, n_rows))
                                 for lo in range(0, n_rows, 3)]
        assert max(peak) <= at_once


class TestSupportBounds:
    def test_discrete_support_max(self):
        atoms = np.array([[-0.2, 0.1], [0.0, -0.3], [0.4, 0.25]])
        period = PeriodDistribution.discrete(atoms, [0.3, 0.2, 0.5])
        k = np.array([1.0, 2.0])
        assert period.support_max_inner(k) == pytest.approx(
            np.max(atoms @ k), rel=1e-15)

    def test_gaussian_support_unbounded(self):
        mean, cov = three_index_moments()
        period = PeriodDistribution.gaussian(mean, cov)
        assert period.support_max_inner(np.array([1.0, 0.0, 0.0])) == np.inf

    def test_zero_direction_is_bounded(self):
        mean, cov = three_index_moments()
        period = PeriodDistribution.gaussian(mean, cov)
        assert period.support_max_inner(np.zeros(3)) == pytest.approx(0.0)


class TestInnerProductLaw:
    """cdf_inner(k, a) = Pr(P'k <= a), and with upper=True Pr(P'k > a),
    exactly for every family."""

    @pytest.mark.parametrize("seed", range(8))
    def test_discrete_is_the_weighted_atom_count(self, seed):
        market = random_tree_market(seed=seed, horizon=2, n_assets=2)
        gen = np.random.default_rng(seed)
        for period in market.periods:
            for _ in range(5):
                k, a = gen.normal(size=2), float(gen.normal())
                assert period.cdf_inner(k, a) == float(
                    period.probs @ (period.atoms @ k <= a))
                assert period.cdf_inner(k, a, upper=True) == float(
                    period.probs @ (period.atoms @ k > a))
            # an atom exactly at a counts as below
            k = gen.normal(size=2)
            y = period.atoms @ k
            assert period.cdf_inner(k, float(y[0])) == float(
                period.probs @ (y <= y[0]))
            assert period.cdf_inner(k, float(y[0]), upper=True) == float(
                period.probs @ (y > y[0]))

    @pytest.mark.parametrize("family", ["gaussian", "student_t"])
    def test_elliptical_laws_match_scipy(self, family):
        """The lower tail within 1e-14, and the upper tail within 1e-12
        relative, out to where 1 - Pr(P'k <= a) rounds to zero."""
        market = three_index_market(family)
        period = market.periods[0]
        gen = np.random.default_rng(3)
        for _ in range(20):
            k = gen.normal(scale=2.0, size=3)
            loc = float(period.mean @ k)
            s = float(np.sqrt(k @ period.cov @ k))
            if family == "gaussian":
                law = stats.norm(loc=loc, scale=s)
            else:
                df = period.df
                law = stats.t(df, loc=loc, scale=s * np.sqrt((df - 2.0) / df))
            for a in (-1.0, 1.0, loc, loc + 3.0 * s, loc - 5.0 * s,
                      loc + 9.0 * s, loc + 30.0 * s):
                assert period.cdf_inner(k, a) == pytest.approx(
                    law.cdf(a), rel=0, abs=1e-14)
                assert period.cdf_inner(k, a, upper=True) == pytest.approx(
                    law.sf(a), rel=1e-12, abs=0)
                assert law.sf(a) > 0.0

    @pytest.mark.parametrize("family", ["gaussian", "student_t"])
    def test_zero_spread_is_the_step(self, family):
        period = three_index_market(family).periods[0]
        zero = np.zeros(3)
        assert period.cdf_inner(zero, 0.0) == 1.0
        assert period.cdf_inner(zero, 1.0) == 1.0
        assert period.cdf_inner(zero, -1.0) == 0.0
        assert period.cdf_inner(zero, 0.0, upper=True) == 0.0
        assert period.cdf_inner(zero, -1.0, upper=True) == 1.0

    @pytest.mark.parametrize("family", ["gaussian", "student_t"])
    def test_agrees_with_the_draw(self, family):
        """The law is the sampler's: the share of 200,000 drawn P'k at
        or below a lies within 4 SE of it, in both tails and the body."""
        market = three_index_market(family)
        k = np.array([1.0, 0.5, -0.2])
        y = market.sample_block(0, 5, 0, 200_000) @ k
        period = market.periods[0]
        loc = float(period.mean @ k)
        s = float(np.sqrt(k @ period.cov @ k))
        for a in (loc - 3.0 * s, loc - s, loc, loc + 2.5 * s):
            p = period.cdf_inner(k, a)
            se = np.sqrt(p * (1.0 - p) / y.shape[0])
            assert abs(float(np.mean(y <= a)) - p) <= 4.0 * se, a
