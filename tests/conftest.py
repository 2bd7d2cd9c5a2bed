import numpy as np
import pytest

from conemv import presets, sim, solver
from conemv.cones import ConvexCone
from conemv.market import MarketSpec, PeriodDistribution


def nested(value, depth):
    """``value`` inside ``depth`` one-element lists."""
    for _ in range(depth):
        value = [value]
    return value


def random_discrete_period(rng, n_assets, n_atoms):
    """One bounded discrete excess-return law, valid by construction."""
    for _ in range(200):
        atoms = rng.uniform(-0.6, 0.9, size=(n_atoms, n_assets))
        probs = rng.uniform(0.2, 1.0, size=n_atoms)
        probs = probs / probs.sum()
        period = PeriodDistribution.discrete(atoms, probs)
        try:
            period.validate()
        except Exception:
            continue
        return period
    raise RuntimeError("could not draw a valid discrete period")


def random_tree_market(seed, horizon=2, n_assets=None, n_atoms=None,
                       rate_range=(1.0, 1.08)):
    """Small discrete market for brute-force comparisons.

    Atom counts stay above the asset count so no single period can
    replicate the riskless payoff (that would push B to 1).
    """
    rng = np.random.default_rng(seed)
    n_assets = n_assets or int(rng.integers(1, 3))
    periods, rates = [], []
    for _ in range(horizon):
        k = n_atoms or int(rng.integers(n_assets + 1, 4))
        periods.append(random_discrete_period(rng, n_assets, k))
        rates.append(float(rng.uniform(*rate_range)))
    market = MarketSpec(horizon, np.asarray(rates), periods)
    market.validate()
    return market


def summary_of_wealth(wealth, thresholds):
    """The terminal moments and, for thresholds by time (None for a
    policy without them), the exceedance report of a whole
    (n_paths, T + 1) wealth array, in plain numpy: the reference for
    ``sim.summarize``."""
    x = wealth[:, -1]
    n = x.shape[0]
    mean = float(x.mean())
    centred = x - mean
    m2 = float((centred ** 2).mean())
    m4 = float((centred ** 4).mean())
    stats = sim.TerminalStats(mean, m2 * n / (n - 1), float(np.sqrt(m2 / n)),
                              float(np.sqrt(max(m4 - m2 * m2, 0.0) / n)))
    if thresholds is None:
        return stats, None
    times = list(thresholds)
    above = wealth[:, times] > np.array([thresholds[t] for t in times])
    # a path's first crossing is its first column above the level
    counts = {t: int((above[:, i] & ~above[:, :i].any(axis=1)).sum())
              for i, t in enumerate(times)}
    p = float(above.any(axis=1).mean())
    return stats, sim.ExceedanceReport(p, float(np.sqrt(p * (1.0 - p) / n)),
                                       counts, dict(thresholds))


def random_cone(seed, dim):
    """Cone of a random kind plus the matching row description used by
    the independent oracles (None means whole space)."""
    rng = np.random.default_rng(seed)
    kind = rng.integers(0, 3)
    if kind == 0:
        return ConvexCone.whole_space(dim), None
    if kind == 1:
        return ConvexCone.orthant(dim), np.eye(dim)
    normal = rng.normal(size=dim)
    normal = normal / np.linalg.norm(normal)
    return ConvexCone.half_space(normal), normal[None, :]


@pytest.fixture(scope="session")
def three_gauss():
    return presets.three_index_market("gaussian")


@pytest.fixture(scope="session")
def three_t():
    return presets.three_index_market("student_t")


@pytest.fixture(scope="session")
def gauss_unc_table(three_gauss):
    return solver.unconstrained_table(three_gauss)


@pytest.fixture(scope="session")
def tree_market():
    """A fixed two-period, two-asset, three-atom market used across tests."""
    return random_tree_market(seed=42, horizon=2, n_assets=2, n_atoms=3)


@pytest.fixture(scope="session")
def tree_backend(tree_market):
    return solver.ExactDiscreteBackend(tree_market)
