"""Minimum second-moment signed measure attached to the recursion.

Along a return path P_0, ..., P_{T-1} define

    B_0 = 1 - P_0' K_0^+,
    B_i = (1 - P_i' K_i^+)  if prod_{j<i} B_j >= 0,
          (1 + P_i' K_i^-)  otherwise,

and the terminal density dQ/dP = prod_i B_i / C_0^+.  The induced
signed measure prices every admissible position nonpositively (a
signed supermartingale measure) and attains the minimal second moment
E[(dQ/dP)^2] = 1 / C_0^+ among such measures.  Conditional expectations
have the closed form

    E[dQ/dP | F_t] = (prod_{i<t} B_i) C_t^{sign} / C_0^+,

with sign chosen by the running product (ties to the + branch).  The
optimal terminal wealth is an affine function of the density, which
gives a pathwise duality check against simulation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cones import ConvexCone
from .errors import BackendMismatch, DimensionMismatch
from .market import MarketSpec
from .solver import RecursionTable


@dataclass
class DensityPath:
    """Density bookkeeping along one return path."""

    b_factors: np.ndarray         # (T,)
    partial_products: np.ndarray  # (T+1,), [t] = prod_{i<t} B_i
    density: float
    step_ratios: Optional[np.ndarray] = None  # (T,), conditional ratios


def _check_returns(table: RecursionTable, returns: np.ndarray) -> np.ndarray:
    returns = np.asarray(returns, dtype=float)
    if returns.shape[-2:] != (table.horizon, table.n_assets):
        raise DimensionMismatch(
            f"returns shape {returns.shape} incompatible with horizon "
            f"{table.horizon} and {table.n_assets} assets")
    return returns


def density_factors(table: RecursionTable, returns: np.ndarray):
    """B factors and running products for a batch of paths.

    Parameters
    ----------
    returns : ndarray, shape (n_paths, T, n)

    Returns
    -------
    (b, partial) with shapes (n_paths, T) and (n_paths, T+1);
    ``partial[:, t]`` is the product of the first t factors.
    """
    returns = _check_returns(table, returns)
    n_paths, T = returns.shape[0], table.horizon
    b = np.empty((n_paths, T))
    partial = np.empty((n_paths, T + 1))
    partial[:, 0] = 1.0
    for t in range(T):
        y_plus = returns[:, t, :] @ table.k_plus[t]
        y_minus = returns[:, t, :] @ table.k_minus[t]
        nonneg = partial[:, t] >= 0.0  # ties resolve to the + branch
        b[:, t] = np.where(nonneg, 1.0 - y_plus, 1.0 + y_minus)
        partial[:, t + 1] = partial[:, t] * b[:, t]
    return b, partial


def density_for_paths(table: RecursionTable, returns: np.ndarray) -> np.ndarray:
    """Terminal densities for a batch of paths, shape (n_paths,).

    The recursion of :func:`density_factors`, keeping only the running
    product.
    """
    returns = _check_returns(table, returns)
    partial = np.ones(returns.shape[0])
    for t in range(table.horizon):
        y_plus = returns[:, t, :] @ table.k_plus[t]
        y_minus = returns[:, t, :] @ table.k_minus[t]
        partial *= np.where(partial >= 0.0, 1.0 - y_plus, 1.0 + y_minus)
    partial /= table.c_plus[0]
    return partial


def density_along_path(table: RecursionTable, returns,
                       with_step_ratios: bool = False) -> DensityPath:
    """Full density decomposition along a single path (T, n)."""
    returns = _check_returns(table, np.asarray(returns, dtype=float))
    if returns.ndim != 2:
        raise DimensionMismatch("density_along_path expects a single path")
    b, partial = density_factors(table, returns[None])
    b, partial = b[0], partial[0]
    ratios = None
    if with_step_ratios:
        T = table.horizon
        ratios = np.empty(T)
        for t in range(T):
            sign_now = partial[t] >= 0.0
            sign_next = partial[t + 1] >= 0.0
            c_now = table.c_plus[t] if sign_now else table.c_minus[t]
            c_next = (table.c_plus[t + 1] if sign_next
                      else table.c_minus[t + 1])
            ratios[t] = b[t] * c_next / c_now
    return DensityPath(b, partial, float(partial[-1] / table.c_plus[0]),
                       step_ratios=ratios)


def conditional_expectation(table: RecursionTable, b_prefix) -> float:
    """E[dQ/dP | F_t] given the first t realised B factors."""
    b_prefix = np.asarray(b_prefix, dtype=float)
    t = b_prefix.shape[0]
    if not 0 <= t <= table.horizon:
        raise DimensionMismatch(
            f"prefix length {t} exceeds horizon {table.horizon}")
    pi = float(np.prod(b_prefix))
    c_t = table.c_plus[t] if pi >= 0.0 else table.c_minus[t]
    return pi * c_t / table.c_plus[0]


def theoretical_moments(table: RecursionTable) -> tuple[float, float]:
    """(E[dQ/dP], E[(dQ/dP)^2]) = (1, 1 / C_0^+)."""
    return 1.0, 1.0 / float(table.c_plus[0])


def duality_terminal_wealth(table: RecursionTable, x0: float, d: float,
                            mu: float, density) -> np.ndarray | float:
    """Optimal terminal wealth as an affine function of the density:

        x_T = (d - mu) - ((d - mu) - x0 rho_0) C_0^+ (dQ/dP).
    """
    g = d - mu
    dens = np.asarray(density, dtype=float)
    out = g - (g - x0 * table.rho(0)) * table.c_plus[0] * dens
    return float(out) if dens.ndim == 0 else out


def implied_wealth_path(table: RecursionTable, x0: float, d: float,
                        mu: float, partial_products: np.ndarray) -> np.ndarray:
    """Wealth at every time implied by the running density products:

        x_t = (d - mu)/rho_t - ((d - mu) - x0 rho_0) / rho_t * prod_{i<t} B_i.

    ``partial_products`` has shape (n_paths, T+1); returns the matching
    wealth array.
    """
    g = d - mu
    T = table.horizon
    rho = np.array([table.rho(t) for t in range(T + 1)])
    return (g - (g - x0 * table.rho(0)) * partial_products) / rho[None, :]


def enumerate_tree(market: MarketSpec):
    """All scenario paths of a discrete market.

    Returns (returns, probs, index_paths): the path-by-period return
    array (M, T, n), the path probabilities (M,), and the atom index
    tuples identifying each path.
    """
    for t, p in enumerate(market.periods):
        if p.family != "discrete":
            raise BackendMismatch(
                f"tree enumeration needs discrete periods; period {t} is "
                f"{p.family}")
    T = market.horizon
    atom_counts = [p.atoms.shape[0] for p in market.periods]
    paths = list(itertools.product(*[range(m) for m in atom_counts]))
    returns = np.array([[market.periods[t].atoms[idx[t]] for t in range(T)]
                        for idx in paths])
    probs = np.array([np.prod([market.periods[t].probs[idx[t]]
                               for t in range(T)]) for idx in paths])
    return returns, probs, paths


def exact_density_moments(table: RecursionTable,
                          market: MarketSpec) -> tuple[float, float]:
    """(E[dQ/dP], E[(dQ/dP)^2]) by exact tree enumeration."""
    returns, probs, _ = enumerate_tree(market)
    dens = density_for_paths(table, returns)
    return float(probs @ dens), float(probs @ (dens * dens))


# ---------------------------------------------------------------------------
# exact supermartingale check on scenario trees
# ---------------------------------------------------------------------------

@dataclass
class NodeCheck:
    t: int
    prefix: tuple
    probability: float
    priced_mean: np.ndarray
    ok: bool


@dataclass
class SupermartingaleReport:
    ok: bool
    nodes: list	= field(default_factory=list)

    def worst_nodes(self) -> list:
        return [n for n in self.nodes if not n.ok]


def supermartingale_check(table: RecursionTable, market: MarketSpec,
                          cones_by_period, tol: float = 1e-9
                          ) -> SupermartingaleReport:
    """Verify E[(dQ/dP) P_t | F_t] lies in the polar cone at every node.

    Exact enumeration over the scenario tree; requires every period to
    be discrete.
    """
    T = market.horizon
    if isinstance(cones_by_period, ConvexCone):
        cones_list = [cones_by_period] * T
    else:
        cones_list = list(cones_by_period)

    returns, probs, paths = enumerate_tree(market)
    dens = density_for_paths(table, returns)

    report = SupermartingaleReport(ok=True)
    for t in range(T):
        groups: dict[tuple, list[int]] = {}
        for i, idx in enumerate(paths):
            groups.setdefault(idx[:t], []).append(i)
        for prefix, members in groups.items():
            w = probs[members]
            node_prob = float(w.sum())
            cond = w / node_prob
            priced = (cond * dens[members]) @ returns[members, t, :]
            ok = cones_list[t].polar_contains(priced, tol=tol)
            report.nodes.append(NodeCheck(t, prefix, node_prob, priced, ok))
            report.ok = report.ok and ok
    return report
