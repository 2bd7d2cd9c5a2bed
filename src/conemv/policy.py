"""Optimal policies and efficient frontiers.

The precommitted optimal control is piecewise linear in wealth around
the moving threshold (d - mu*) / rho_t:

    u_t(x) =  s_t K_t^+ ((d - mu*)/rho_t - x)   if (d - mu*) >= rho_t x,
    u_t(x) = -s_t K_t^- ((d - mu*)/rho_t - x)   otherwise,

with the optimal multiplier

    mu* = (d - rho_0 x_0) / (1 - 1/C_0^+)       for d >= rho_0 x_0

(and C_0^- in place of C_0^+ below the riskless target).  The
minimum-variance frontier, the truncated problems started at a later
date, and the per-period-optimal (time-consistent) benchmark policy all
derive from the same recursion table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidTarget, TargetUnattainable
from .market import MarketSpec
from .solver import RecursionTable

_C_ONE_TOL = 1e-12


def _multiplier(table: RecursionTable, t: int, x: float, d: float,
                target: str) -> float:
    """gap / (1 - 1/C_t), gap = d - rho_t x, with C_t on the gap's
    branch; ``target`` names d when that constant is one."""
    gap = d - table.rho(t) * x
    if gap == 0.0:
        return 0.0
    c = table.c_plus[t] if gap > 0 else table.c_minus[t]
    if c >= 1.0 - _C_ONE_TOL:
        raise TargetUnattainable(
            f"{target} unreachable: cost constant is 1 on the "
            f"{'upper' if gap > 0 else 'lower'} branch")
    return gap / (1.0 - 1.0 / c)


def mu_star(table: RecursionTable, x0: float, d: float) -> float:
    """Optimal mean-constraint multiplier for target d from wealth x0.

    Raises
    ------
    TargetUnattainable
        If the applicable cost constant equals one (no admissible
        position changes the attainable mean) while d differs from the
        riskless roll-up rho_0 x0.
    """
    return _multiplier(table, 0, x0, d, f"target {d}")


class FrontierPoint(NamedTuple):
    mean: float
    variance: float
    efficient: bool


def frontier_point(table: RecursionTable, x0: float,
                   mean_target: float) -> FrontierPoint:
    """Minimum attainable terminal-wealth variance for a mean target.

    Targets below the riskless roll-up lie on the dominated lower
    branch and are flagged inefficient.
    """
    gap = mean_target - table.rho(0) * x0
    if gap == 0.0:
        return FrontierPoint(mean_target, 0.0, True)
    c = table.c_plus[0] if gap > 0 else table.c_minus[0]
    if c >= 1.0 - _C_ONE_TOL:
        raise TargetUnattainable(
            f"mean target {mean_target} unreachable from x0={x0}")
    variance = c * gap * gap / (1.0 - c)
    return FrontierPoint(mean_target, variance, gap > 0)


@dataclass
class TimeConsistentAux:
    """Per-period quantities for the time-consistent benchmark policy.

    ``gains[t]`` is E[P P']^{-1} E[P] for period t, ``b[t]`` the scalar
    E[P]' gains, and ``d_factors[t]`` = prod_{j >= t} (1 - b_j) / b_j
    the variance multiplier of the benchmark frontier.
    """

    horizon: int
    rates: np.ndarray
    gains: np.ndarray      # (T, n)
    b: np.ndarray          # (T,)
    d_factors: np.ndarray  # (T+1,), d_factors[T] = 1

    def rho(self, t: int) -> float:
        if not 0 <= t <= self.horizon:
            raise ValueError(f"t must lie in [0, {self.horizon}], got {t}")
        return float(np.prod(self.rates[t:]))


def time_consistent_aux(market: MarketSpec) -> TimeConsistentAux:
    market.validate()
    T, n = market.horizon, market.n_assets
    gains = np.zeros((T, n))
    b = np.zeros(T)
    for t, period in enumerate(market.periods):
        gains[t] = period.unconstrained_gain()
        b[t] = float(period.mean @ gains[t])
        if b[t] <= 0.0:
            raise InvalidTarget(
                f"time-consistent benchmark needs E[P] != 0 each period; "
                f"period {t} has b = {b[t]!r}")
    d_factors = np.ones(T + 1)
    for t in reversed(range(T)):
        d_factors[t] = d_factors[t + 1] * (1.0 - b[t]) / b[t]
    return TimeConsistentAux(T, market.riskless_rates, gains, b, d_factors)


def tc_frontier_point(aux: TimeConsistentAux, x0: float,
                      mean_target: float) -> FrontierPoint:
    """Frontier of the per-period-optimal benchmark policy."""
    gap = mean_target - aux.rho(0) * x0
    if gap < 0.0:
        raise InvalidTarget(
            f"benchmark frontier defined for targets >= rho_0 x0, "
            f"got {mean_target}")
    return FrontierPoint(mean_target, gap * gap * aux.d_factors[0], True)


class InducedTarget(NamedTuple):
    d_k: float
    mu_k: float
    efficient: bool


def induced_target(table: RecursionTable, k: int, x_k: float, d: float,
                   mu: float) -> InducedTarget:
    """Mean target of the truncated problem that reproduces the tail of
    the original precommitted policy from state (k, x_k).

    The tail policy solves the truncated problem with target
    d_k = (1 - C) (d - mu) + C rho_k x_k, where C is the cost constant
    on the branch selected by d - mu against rho_k x_k; the truncation
    is efficient iff the state is at or below the threshold, or the
    lower cost constant equals one.
    """
    if not 0 <= k < table.horizon:
        raise ValueError(f"k must lie in [0, {table.horizon}), got {k}")
    g = d - mu
    rx = table.rho(k) * x_k
    c = table.c_plus[k] if g >= rx else table.c_minus[k]
    d_k = (1.0 - c) * g + c * rx
    efficient = (g >= rx) or table.c_minus[k] >= 1.0 - _C_ONE_TOL
    return InducedTarget(float(d_k), float(d_k - g), efficient)


# ---------------------------------------------------------------------------
# policies
# ---------------------------------------------------------------------------

@dataclass
class Policy:
    """A feedback policy ready for simulation.

    ``control(t, x)`` accepts a scalar wealth or a vector of wealths
    and returns the risky positions, shape (n,) or (len(x), n).
    """

    kind: str
    horizon: int
    n_assets: int
    start_time: int
    x_start: float
    table: Optional[RecursionTable] = None
    aux: Optional[TimeConsistentAux] = None
    d: Optional[float] = None
    mu: Optional[float] = None

    def control(self, t: int, x):
        if not self.start_time <= t < self.horizon:
            raise ValueError(
                f"t must lie in [{self.start_time}, {self.horizon}), got {t}")
        x_arr = np.asarray(x, dtype=float)
        scalar = x_arr.ndim == 0
        x_arr = np.atleast_1d(x_arr)
        if self.kind == "minimum_variance":
            u = np.zeros((x_arr.shape[0], self.n_assets))
        elif self.kind == "time_consistent":
            aux = self.aux
            coeff = (self.d - x_arr * aux.rho(t)) / (aux.b[t] * aux.rho(t + 1))
            u = coeff[:, None] * aux.gains[t]
        else:
            # precommitted / truncated share the two-piece rule
            table = self.table
            coeff = table.riskless_rates[t] * (self.threshold(t) - x_arr)
            u = np.where((coeff >= 0.0)[:, None],
                         coeff[:, None] * table.k_plus[t],
                         -coeff[:, None] * table.k_minus[t])
        return u[0] if scalar else u

    def threshold(self, t: int) -> float:
        """Wealth level separating the two branches at time t."""
        if self.kind in ("precommitted", "truncated"):
            return (self.d - self.mu) / self.table.rho(t)
        raise ValueError(f"no threshold for policy kind {self.kind!r}")


def precommitted(table: RecursionTable, x0: float, d: float) -> Policy:
    """Variance-minimising policy for E[x_T] = d, committed at time 0."""
    if d < table.rho(0) * x0:
        raise InvalidTarget(
            f"precommitted policy defined for d >= rho_0 x0 = "
            f"{table.rho(0) * x0}, got {d}")
    mu = mu_star(table, x0, d)
    return Policy("precommitted", table.horizon, table.n_assets, 0, x0,
                  table=table, d=d, mu=mu)


def minimum_variance(table: RecursionTable, x0: float) -> Policy:
    """Hold only the riskless asset."""
    return Policy("minimum_variance", table.horizon, table.n_assets, 0, x0,
                  table=table, d=table.rho(0) * x0, mu=0.0)


def truncated(table: RecursionTable, k: int, x_k: float, d_k: float) -> Policy:
    """Optimal policy of the truncated problem started at (k, x_k)."""
    if not 0 <= k < table.horizon:
        raise ValueError(f"k must lie in [0, {table.horizon}), got {k}")
    mu_k = _multiplier(table, k, x_k, d_k,
                       f"truncated target {d_k} from x_{k} = {x_k}")
    return Policy("truncated", table.horizon, table.n_assets, k, x_k,
                  table=table, d=d_k, mu=mu_k)


def time_consistent(market: MarketSpec, x0: float, d: float) -> Policy:
    """Per-period-optimal benchmark (no cone constraints)."""
    aux = time_consistent_aux(market)
    return Policy("time_consistent", market.horizon, market.n_assets, 0, x0,
                  aux=aux, d=d)
