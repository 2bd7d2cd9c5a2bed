"""Seeded Monte Carlo simulation of wealth paths under a policy.

Returns are drawn from the counter-based market streams, so an
ensemble is fully determined by (market, policy, n_paths, seed) and
any sub-block of paths reproduces bit-identically when sampled on its
own (``first_path`` names the block's first path).  Stored returns
allow exact replay of the wealth recursion and pathwise comparison
against the density-based wealth formula.

:func:`summarize` is the one reduction of simulated paths to
statistics: the terminal moments and the exceedance report of
:func:`simulate`, computed one block of ``_BLOCK`` paths at a time.  It
keeps only the terminal wealth and a crossed flag per path, so its
memory grows by 9 bytes a path rather than by the (n_paths, T, n)
returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .market import MarketSpec
from .policy import Policy

DEFAULT_PATHS = 1_000_000
# paths replayed and reduced together, one draw slab; only memory
# depends on it
_BLOCK = rng._SLAB_ROWS


def blocks(n_paths: int):
    """(lo, hi) bounds of the blocks that cover paths [0, n_paths)."""
    for lo in range(0, n_paths, _BLOCK):
        yield lo, min(lo + _BLOCK, n_paths)


@dataclass
class PathEnsemble:
    """Simulated wealth paths plus the driving returns."""

    wealth: np.ndarray    # (n_paths, T+1); x_start until the policy starts
    returns: np.ndarray   # (n_paths, T, n); zero before the policy starts


def simulate(policy: Policy, market: MarketSpec, n_paths: int = DEFAULT_PATHS,
             seed: int = 0, first_path: int = 0) -> PathEnsemble:
    """Draw the returns of paths [first_path, first_path + n_paths) and
    replay the wealth recursion on them.

    Periods before the policy's start time get zero returns; the draws
    for path p at period t do not depend on the start time.
    """
    returns = sample_returns(market, n_paths, seed, first_path)
    returns[:, :policy.start_time] = 0.0
    return PathEnsemble(replay_wealth(policy, market, returns), returns)


def sample_returns(market: MarketSpec, n_paths: int, seed: int,
                   first_path: int = 0) -> np.ndarray:
    """Return draws of paths [first_path, first_path + n_paths) for all
    periods without running a policy, shape (n_paths, T, n).  Same
    streams as :func:`simulate`."""
    market.validate()
    T, n = market.horizon, market.n_assets
    returns = np.empty((n_paths, T, n))
    for t in range(T):
        market.sample_block(t, seed, first_path, first_path + n_paths,
                            out=returns[:, t])
    return returns


def replay_wealth(policy: Policy, market: MarketSpec,
                  returns: np.ndarray) -> np.ndarray:
    """Replay wealth from ``policy.x_start`` on stored returns, no draws.

    The paths are replayed one block at a time into the returned
    (n_paths, T + 1) array, so the control's temporaries are those of
    one block."""
    n_paths, T = returns.shape[0], returns.shape[1]
    wealth = np.empty((n_paths, T + 1))
    t0 = policy.start_time
    wealth[:, :t0 + 1] = policy.x_start
    for lo, hi in blocks(n_paths):
        x = np.full(hi - lo, float(policy.x_start))
        for t in range(t0, T):
            u = policy.control(t, x)
            x *= market.riskless_rates[t]
            x += np.einsum("ij,ij->i", returns[lo:hi, t], u)
            del u  # before the next step's control is formed
            wealth[lo:hi, t + 1] = x
    return wealth


@dataclass
class ExceedanceReport:
    probability: float
    standard_error: float
    first_crossing_counts: dict
    thresholds: dict


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


def summarize(policy: Policy, market: MarketSpec, n_paths: int,
              seed: int) -> tuple[TerminalStats, ExceedanceReport | None]:
    """Terminal statistics of ``simulate(policy, market, n_paths,
    seed)`` and, for a policy with thresholds, its exceedance report.

    The terminal mean and variance (ddof 1) come with standard errors;
    the variance SE uses the fourth-moment formula sqrt((m4 - m2^2)/n),
    valid without normality assumptions.  The report gives the fraction
    of paths whose wealth strictly exceeds the threshold at any time of
    :func:`policy_thresholds`, its binomial SE, and the number of first
    crossings at each of those times.

    Each block of paths is simulated and reduced to its terminal wealth
    and crossed flags before the next is drawn.
    """
    if n_paths < 2:
        raise ValueError(
            f"terminal statistics need at least 2 paths, got {n_paths}")
    thresholds = (policy_thresholds(policy)
                  if policy.kind in ("precommitted", "truncated") else None)
    terminal = np.empty(n_paths)
    crossed = np.zeros(n_paths, dtype=bool)
    counts = dict.fromkeys(thresholds or (), 0)
    for lo, hi in blocks(n_paths):
        wealth = simulate(policy, market, hi - lo, seed, first_path=lo).wealth
        terminal[lo:hi] = wealth[:, -1]
        block_crossed = crossed[lo:hi]
        for t in counts:
            hit = wealth[:, t] > thresholds[t]
            counts[t] += int((hit & ~block_crossed).sum())
            block_crossed |= hit
        del wealth  # before the next block is drawn
    mean = float(terminal.mean())
    centred = terminal - mean
    m2 = float((centred ** 2).mean())
    m4 = float((centred ** 4).mean())
    stats = TerminalStats(mean, m2 * n_paths / (n_paths - 1),
                          float(np.sqrt(m2 / n_paths)),
                          float(np.sqrt(max(m4 - m2 * m2, 0.0) / n_paths)))
    if thresholds is None:
        return stats, None
    p = float(crossed.mean())
    se = float(np.sqrt(max(p * (1.0 - p), 0.0) / n_paths))
    return stats, ExceedanceReport(p, se, counts, thresholds)
