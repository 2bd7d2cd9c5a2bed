"""Ready-made market and constraint setups used by the examples.

The three-index market is a three-asset, three-year setup built from
an annual summary table (S&P 500, emerging markets, small stock):
expected returns 14%, 16%, 17%, volatilities 18.5%, 30%, 24%,
pairwise correlations 0.64 / 0.79 / 0.75, riskless rate 5%.
"""

from __future__ import annotations

import numpy as np

from .cones import ConvexCone, construct_tcie_cone
from .market import MarketSpec, PeriodDistribution, from_annual_table

THREE_INDEX_RETURNS = (0.14, 0.16, 0.17)
THREE_INDEX_VOLS = (0.185, 0.30, 0.24)
THREE_INDEX_CORR = ((1.00, 0.64, 0.79),
                    (0.64, 1.00, 0.75),
                    (0.79, 0.75, 1.00))
THREE_INDEX_RISKLESS = 0.05


def three_index_moments() -> tuple[np.ndarray, np.ndarray]:
    """Excess-return mean and covariance of the three-index table."""
    return from_annual_table(THREE_INDEX_RETURNS, THREE_INDEX_VOLS,
                             THREE_INDEX_CORR, THREE_INDEX_RISKLESS)


def three_index_market(family: str = "gaussian") -> MarketSpec:
    """Three risky assets, three i.i.d. periods (Student-t: df 5)."""
    mean, cov = three_index_moments()
    if family == "gaussian":
        period = PeriodDistribution.gaussian(mean, cov)
    elif family == "student_t":
        period = PeriodDistribution.student_t(mean, cov, 5.0)
    else:
        raise ValueError(f"unsupported family for this preset: {family!r}")
    return MarketSpec.iid(3, 1.0 + THREE_INDEX_RISKLESS, period)


def mean_half_space_cone() -> ConvexCone:
    """Largest cone keeping the problem time-consistent in efficiency."""
    mean, _ = three_index_moments()
    return construct_tcie_cone(mean)


def limited_short_cone() -> ConvexCone:
    """No shorting of assets 2 and 3; asset 1 may be shorted only up to
    the combined long position: u2 >= 0, u3 >= 0, u1 + u2 + u3 >= 0."""
    return ConvexCone.polyhedral([[0.0, 1.0, 0.0],
                                  [0.0, 0.0, 1.0],
                                  [1.0, 1.0, 1.0]])
