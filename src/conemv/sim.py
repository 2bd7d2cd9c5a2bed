"""Seeded Monte Carlo simulation of wealth paths under a policy.

Returns are drawn from the counter-based market streams, so an
ensemble is fully determined by (market, policy, n_paths, seed) and
any sub-block of paths reproduces bit-identically when sampled on its
own.  Stored returns allow exact replay of the wealth recursion and
pathwise comparison against the density-based wealth formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .market import MarketSpec
from .policy import Policy

DEFAULT_PATHS = 1_000_000
# paths drawn and replayed together; only memory locality depends on it
_BLOCK = 250_000


@dataclass
class PathEnsemble:
    """Simulated wealth paths plus the driving returns."""

    wealth: np.ndarray    # (n_paths, T+1); columns before start_time repeat x_start
    returns: np.ndarray   # (n_paths, T, n); zero-filled before start_time
    seed: int
    policy_kind: str
    start_time: int = 0

    @property
    def n_paths(self) -> int:
        return self.wealth.shape[0]

    @property
    def horizon(self) -> int:
        return self.wealth.shape[1] - 1


def simulate(policy: Policy, market: MarketSpec, n_paths: int = DEFAULT_PATHS,
             seed: int = 0) -> PathEnsemble:
    """Draw the returns and replay the wealth recursion on them.

    Periods before the policy's start time get zero returns; the draws
    for path p at period t do not depend on the start time.
    """
    t0 = policy.start_time
    returns = sample_returns(market, n_paths, seed)
    returns[:, :t0] = 0.0
    wealth = np.empty((n_paths, market.horizon + 1))
    for lo in range(0, n_paths, _BLOCK):
        hi = min(lo + _BLOCK, n_paths)
        wealth[lo:hi] = replay_wealth(policy, market, returns[lo:hi])
    return PathEnsemble(wealth, returns, seed, policy.kind, start_time=t0)


def sample_returns(market: MarketSpec, n_paths: int, seed: int) -> np.ndarray:
    """Return draws for all periods without running a policy,
    shape (n_paths, T, n).  Same streams as :func:`simulate`."""
    market.validate()
    T, n = market.horizon, market.n_assets
    returns = np.empty((n_paths, T, n))
    for lo in range(0, n_paths, _BLOCK):
        hi = min(lo + _BLOCK, n_paths)
        for t in range(T):
            returns[lo:hi, t] = market.sample_block(t, seed, lo, hi)
    return returns


def replay_wealth(policy: Policy, market: MarketSpec,
                  returns: np.ndarray) -> np.ndarray:
    """Replay wealth from ``policy.x_start`` on stored returns, no draws."""
    n_paths, T = returns.shape[0], returns.shape[1]
    wealth = np.empty((n_paths, T + 1))
    t0 = policy.start_time
    wealth[:, :t0 + 1] = policy.x_start
    x = np.full(n_paths, float(policy.x_start))
    for t in range(t0, T):
        u = policy.control(t, x)
        x = market.riskless_rates[t] * x + np.einsum("ij,ij->i",
                                                     returns[:, t], u)
        wealth[:, t + 1] = x
    return wealth


@dataclass
class ExceedanceReport:
    probability: float
    standard_error: float
    first_crossing_counts: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)
    n_paths: int = 0


def exceedance_prob(ensemble: PathEnsemble,
                    thresholds_by_time: dict) -> ExceedanceReport:
    """Fraction of paths whose wealth strictly exceeds the threshold at
    any of the given times, with the first-crossing histogram.

    ``thresholds_by_time`` maps time index t (1 <= t <= T) to the
    threshold level at that time.
    """
    times = sorted(thresholds_by_time)
    n = ensemble.n_paths
    crossed = np.zeros(n, dtype=bool)
    first_counts: dict[int, int] = {}
    for t in times:
        hit = ensemble.wealth[:, t] > thresholds_by_time[t]
        new = hit & ~crossed
        first_counts[t] = int(new.sum())
        crossed |= hit
    p = float(crossed.mean())
    se = float(np.sqrt(max(p * (1.0 - p), 0.0) / n))
    return ExceedanceReport(p, se, first_counts,
                            dict(thresholds_by_time), n)


def policy_thresholds(policy: Policy) -> dict:
    """Threshold levels (d - mu*)/rho_t for the interior times
    t = 1, ..., T-1 after the start, the dates at which a crossing
    leaves decisions still to be made."""
    times = range(max(1, policy.start_time + 1), policy.horizon)
    return {t: policy.threshold(t) for t in times}


@dataclass
class TerminalStats:
    mean: float
    variance: float
    se_mean: float
    se_variance: float
    n_paths: int


def terminal_stats(ensemble: PathEnsemble) -> TerminalStats:
    """Mean and variance of terminal wealth with standard errors.

    The variance SE uses the fourth-moment formula
    sqrt((m4 - m2^2)/n), valid without normality assumptions.
    """
    x = ensemble.wealth[:, -1]
    n = x.shape[0]
    if n < 2:
        raise ValueError(f"terminal statistics need at least 2 paths, got {n}")
    mean = float(x.mean())
    centred = x - mean
    m2 = float((centred ** 2).mean())
    m4 = float((centred ** 4).mean())
    var = m2 * n / (n - 1)
    return TerminalStats(mean, var,
                         float(np.sqrt(m2 / n)),
                         float(np.sqrt(max(m4 - m2 * m2, 0.0) / n)),
                         n)
