"""Optimal policies and efficient frontiers.

The precommitted optimal control is piecewise linear in wealth around
the moving threshold (d - mu*) / rho_t:

    u_t(x) =  s_t K_t^+ ((d - mu*)/rho_t - x)   if (d - mu*) >= rho_t x,
    u_t(x) = -s_t K_t^- ((d - mu*)/rho_t - x)   otherwise,

with the optimal multiplier

    mu* = (d - rho_0 x_0) / (1 - 1/C_0^+)       for d >= rho_0 x_0

(and C_0^- in place of C_0^+ below the riskless target).  Every
policy reads one recursion table.  The per-period-optimal
(time-consistent) benchmark reads ``solver.unconstrained_table``, whose
diagnostics record each b_t = E[P]'E[PP']^{-1}E[P].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import BackendMismatch, InvalidTarget, TargetUnattainable
from .market import MarketSpec
from .solver import RecursionTable, unconstrained_table

_C_ONE_TOL = 1e-12


def _branch(table: RecursionTable, t: int, x: float, d: float,
            target: str) -> tuple[float, float]:
    """gap = d - rho_t x and C_t on its branch (C_t^+ if gap > 0, else
    C_t^-), which off gap = 0 must be below one to reach ``target``."""
    gap = d - table.rho(t) * x
    c = table.c_plus[t] if gap > 0 else table.c_minus[t]
    if gap != 0.0 and c >= 1.0 - _C_ONE_TOL:
        raise TargetUnattainable(
            f"{target} unreachable: cost constant is 1 on the "
            f"{'upper' if gap > 0 else 'lower'} branch")
    return gap, c


def _multiplier(table: RecursionTable, t: int, x: float, d: float,
                target: str) -> float:
    """gap / (1 - 1/C_t) on the gap's branch, 0 at gap = 0."""
    gap, c = _branch(table, t, x, d, target)
    return 0.0 if gap == 0.0 else gap / (1.0 - 1.0 / c)


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


def wealth_threshold(table: RecursionTable, d: float, mu: float,
                     t: int) -> float:
    """The wealth (d - mu) / rho_t at which the precommitted control
    switches branch at time t."""
    return (d - mu) / table.rho(t)


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
    gap, c = _branch(table, 0, x0, mean_target,
                     f"mean target {mean_target} from x0={x0}")
    if gap == 0.0:
        return FrontierPoint(mean_target, 0.0, True)
    return FrontierPoint(mean_target, c * gap * gap / (1.0 - c), gap > 0)


def _benchmark_b(table: RecursionTable) -> list[float]:
    """The unconstrained table's b_t, each of which must be positive."""
    kind = table.backend.get("kind")
    if kind != "closed_form_unconstrained":
        raise BackendMismatch(
            "the time-consistent benchmark reads b_t from "
            f"solver.unconstrained_table, not a table of kind {kind!r}")
    b = [table.diagnostics[t]["b"] for t in range(table.horizon)]
    for t, b_t in enumerate(b):
        if b_t <= 0.0:
            raise InvalidTarget(
                f"time-consistent benchmark needs E[P] != 0 each period; "
                f"period {t} has b = {b_t!r}")
    return b


def tc_frontier_point(table: RecursionTable, x0: float,
                      mean_target: float) -> FrontierPoint:
    """Benchmark frontier on the unconstrained table, gap^2 prod (1-b)/b."""
    factor = 1.0
    for b_t in reversed(_benchmark_b(table)):
        factor = factor * (1.0 - b_t) / b_t
    gap = mean_target - table.rho(0) * x0
    if gap < 0.0:
        raise InvalidTarget(
            f"benchmark frontier defined for targets >= rho_0 x0, "
            f"got {mean_target}")
    return FrontierPoint(mean_target, gap * gap * factor, True)


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
    table: RecursionTable
    start_time: int
    x_start: float
    d: float
    mu: Optional[float] = None

    @property
    def horizon(self) -> int:
        return self.table.horizon

    def control(self, t: int, x):
        if not self.start_time <= t < self.horizon:
            raise ValueError(
                f"t must lie in [{self.start_time}, {self.horizon}), got {t}")
        x_arr = np.asarray(x, dtype=float)
        scalar = x_arr.ndim == 0
        x_arr = np.atleast_1d(x_arr)
        table = self.table
        if self.kind == "minimum_variance":
            u = np.zeros((x_arr.shape[0], table.n_assets))
        elif self.kind == "time_consistent":
            b_t = _benchmark_b(table)[t]
            coeff = (self.d - x_arr * table.rho(t)) / (b_t * table.rho(t + 1))
            u = coeff[:, None] * table.k_plus[t]
        else:
            # precommitted / truncated share the two-piece rule: the
            # gain on coeff's branch, scaled by |coeff|
            coeff = table.riskless_rates[t] * (self.threshold(t) - x_arr)
            gains = np.stack((table.k_minus[t], table.k_plus[t]))
            u = gains[(coeff >= 0.0).astype(np.intp)]
            u *= np.abs(coeff, out=coeff)[:, None]
        return u[0] if scalar else u

    def threshold(self, t: int) -> float:
        """Wealth level separating the two branches at time t."""
        if self.kind in ("precommitted", "truncated"):
            return wealth_threshold(self.table, self.d, self.mu, t)
        raise ValueError(f"no threshold for policy kind {self.kind!r}")


def precommitted(table: RecursionTable, x0: float, d: float) -> Policy:
    """Variance-minimising policy for E[x_T] = d, committed at time 0."""
    if d < table.rho(0) * x0:
        raise InvalidTarget(
            f"precommitted policy defined for d >= rho_0 x0 = "
            f"{table.rho(0) * x0}, got {d}")
    mu = mu_star(table, x0, d)
    return Policy("precommitted", table, 0, x0, d, mu)


def minimum_variance(table: RecursionTable, x0: float) -> Policy:
    """Hold only the riskless asset."""
    return Policy("minimum_variance", table, 0, x0, table.rho(0) * x0, 0.0)


def truncated(table: RecursionTable, k: int, x_k: float, d_k: float) -> Policy:
    """Optimal policy of the truncated problem started at (k, x_k)."""
    if not 0 <= k < table.horizon:
        raise ValueError(f"k must lie in [0, {table.horizon}), got {k}")
    mu_k = _multiplier(table, k, x_k, d_k,
                       f"truncated target {d_k} from x_{k} = {x_k}")
    return Policy("truncated", table, k, x_k, d_k, mu_k)


def time_consistent(market: MarketSpec, x0: float, d: float) -> Policy:
    """Per-period-optimal benchmark (no cone constraints): the control
    (d - rho_t x) / (b_t rho_{t+1}) K_t^+ on the unconstrained table."""
    table = unconstrained_table(market)
    _benchmark_b(table)
    return Policy("time_consistent", table, 0, x0, d)
