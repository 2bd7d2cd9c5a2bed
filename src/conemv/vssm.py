"""Minimum second-moment signed measure attached to the recursion.

Along a return path P_0, ..., P_{T-1} define

    B_0 = 1 - P_0' K_0^+,
    B_i = (1 - P_i' K_i^+)  if prod_{j<i} B_j >= 0,
          (1 + P_i' K_i^-)  otherwise,

and the terminal density dQ/dP = prod_i B_i / C_0^+.  The induced
signed measure prices every admissible position nonpositively (a
signed supermartingale measure) and attains the minimal second moment
E[(dQ/dP)^2] = 1 / C_0^+ among such measures.  The optimal terminal
wealth is an affine function of the density, which gives a pathwise
duality check against simulation.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .cones import cones_per_period
from .errors import BackendMismatch, DimensionMismatch
from .market import MarketSpec
from .solver import RecursionTable, require_memory


def _check_returns(table: RecursionTable, returns: np.ndarray) -> np.ndarray:
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 3 or returns.shape[1:] != (table.horizon,
                                                  table.n_assets):
        raise DimensionMismatch(
            f"returns shape {returns.shape} incompatible with horizon "
            f"{table.horizon} and {table.n_assets} assets")
    return returns


def density_for_paths(table: RecursionTable, returns: np.ndarray) -> np.ndarray:
    """Terminal densities prod_i B_i / C_0^+ for a batch of paths,
    shape (n_paths,); one path is a batch of one.

    Each factor B_t is 1 - P_t'K_t^+ where the running product of the
    earlier factors is nonnegative, else 1 + P_t'K_t^-, and is formed
    in place before it multiplies that product.  The paths run in row
    chunks on the draw pool, and each chunk makes its own two factors
    and sign mask, so the density holds one chunk of them per worker
    beside its output.  A path's density is the same in every batch,
    chunk size and worker count.  Each period's rows are read as one
    block: contiguous when ``returns`` is period-major, as
    :func:`conemv.sim.sample_returns` stores them.
    """
    returns = _check_returns(table, returns)
    dens = np.empty(returns.shape[0])

    def fill(lo, hi):
        b_plus, b = np.empty(hi - lo), np.empty(hi - lo)
        plus = np.empty(hi - lo, dtype=bool)
        partial = dens[lo:hi]  # B_0 = 1 - P_0'K_0^+, the + branch
        rng.matmul_rows(returns[lo:hi, 0], table.k_plus[0], partial)
        np.subtract(1.0, partial, out=partial)
        for t in range(1, table.horizon):
            rng.matmul_rows(returns[lo:hi, t], table.k_plus[t], b_plus)
            np.subtract(1.0, b_plus, out=b_plus)
            rng.matmul_rows(returns[lo:hi, t], table.k_minus[t], b)
            b += 1.0
            np.greater_equal(partial, 0.0, out=plus)
            np.copyto(b, b_plus, where=plus)  # ties to the + branch
            partial *= b
        partial /= table.c_plus[0]

    rng.over_row_chunks(returns.shape[0], fill)
    return dens


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


def enumerate_tree(market: MarketSpec):
    """All scenario paths of a discrete market.

    Returns (returns, probs, index_paths): the path-by-period return
    array (M, T, n), the path probabilities (M,), and the atom index
    tuples identifying each path, in lexicographic order, so that the
    paths through one node at depth t form a contiguous block.
    """
    periods = market.periods
    for t, p in enumerate(periods):
        if p.family != "discrete":
            raise BackendMismatch(
                f"tree enumeration needs discrete periods; period {t} is "
                f"{p.family}")
    counts = [p.atoms.shape[0] for p in periods]
    m, T, n = math.prod(counts), market.horizon, market.n_assets
    # per path: its returns and probability, and its index tuple with
    # the list slot, the list's growth margin and the allocator's slack
    require_memory(m * (8 * (T * n + 1) + sys.getsizeof((0,) * T) + 24),
                   f"{m} tree paths")
    returns = np.empty((m, T, n))
    probs = np.ones(m)
    # views in which path (i_0, ..., i_T-1) sits at that index
    by_index = returns.reshape(*counts, T, n)
    prob_by_index = probs.reshape(counts)
    for t, p in enumerate(periods):
        shape = [1] * T
        shape[t] = counts[t]
        by_index[..., t, :] = p.atoms.reshape(*shape, n)
        prob_by_index *= p.probs.reshape(shape)
    return returns, probs, list(itertools.product(*map(range, counts)))


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
    nodes: list = field(default_factory=list)

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
    cones_list = cones_per_period(cones_by_period, T, market.n_assets)

    returns, probs, paths = enumerate_tree(market)
    dens = density_for_paths(table, returns)

    report = SupermartingaleReport(ok=True)
    for t in range(T):
        # the paths through one node at depth t: a block of this many
        size = int(np.prod([p.atoms.shape[0] for p in market.periods[t:]]))
        for lo in range(0, len(paths), size):
            hi = lo + size
            w = probs[lo:hi]
            node_prob = float(w.sum())
            cond = w / node_prob
            # copied: a product with the strided view rounds differently
            priced = (cond * dens[lo:hi]) @ returns[lo:hi, t].copy()
            ok = cones_list[t].polar_contains(priced, tol=tol)
            report.nodes.append(NodeCheck(t, paths[lo][:t], node_prob,
                                          priced, ok))
            report.ok = report.ok and ok
    return report
