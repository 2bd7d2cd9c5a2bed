"""Market model for multi-period investment.

Wealth evolves as

    x_{t+1} = s_t x_t + P_t' u_t,        t = 0, ..., T-1,

where s_t > 0 is the gross riskless return over period t, u_t the
amounts invested in the n risky assets, and P_t = e_t - s_t 1 the
vector of excess returns over the period.  Periods are independent but
not necessarily identically distributed.

Each period's excess-return law is one of three families:

* ``gaussian``   -- multivariate normal with the stated mean/covariance,
* ``student_t``  -- multivariate Student t with df > 2, parameterised by
  its actual mean and covariance (the scale matrix is rescaled by
  (df - 2) / df internally),
* ``discrete``   -- finitely many atoms with probabilities.

Sampling is driven by the counter-based streams in :mod:`conemv.rng`
and is bit-reproducible for a given (seed, path index, period) triple:
a path's draw is the same for every block that contains it and for
every number of draw-pool workers.  The quantile transforms run over
row chunks on that pool; the Cholesky product, the Student-t scaling
and the mean shift run on the whole block in the calling thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import rng
from .errors import DimensionMismatch, InvalidMarket

FAMILIES = ("gaussian", "student_t", "discrete")

_ATOL = 1e-12


# scipy.special is imported on first use: it is most of the package's
# import time, and only sampling needs it.

def ndtri(p: np.ndarray) -> np.ndarray:
    """Standard normal quantiles of p, elementwise."""
    from scipy import special
    return rng.map_rows(special.ndtri, p)


def gammaincinv(a: float, p: np.ndarray) -> np.ndarray:
    """Inverse of the regularized lower incomplete gamma function in its
    second argument, elementwise over p."""
    from scipy import special
    return rng.map_rows(lambda x, out: special.gammaincinv(a, x, out=out), p)


@dataclass
class PeriodDistribution:
    """Law of the excess-return vector over a single period.

    Parameters
    ----------
    family : str
        One of ``gaussian``, ``student_t``, ``discrete``.
    mean : ndarray, shape (n,)
        E[P].
    cov : ndarray, shape (n, n)
        Cov(P).  For ``discrete`` this is derived from the atoms.
    df : float, optional
        Degrees of freedom, required for ``student_t`` (must exceed 2 so
        the covariance exists).
    atoms : ndarray, shape (m, n), optional
        Support points, required for ``discrete``.
    probs : ndarray, shape (m,), optional
        Atom probabilities, positive and summing to one.
    """

    family: str
    mean: np.ndarray
    cov: np.ndarray
    df: Optional[float] = None
    atoms: Optional[np.ndarray] = None
    probs: Optional[np.ndarray] = None
    _chol: Optional[np.ndarray] = field(default=None, repr=False)
    _cum: Optional[np.ndarray] = field(default=None, repr=False)

    # -- constructors -------------------------------------------------

    @classmethod
    def gaussian(cls, mean, cov) -> "PeriodDistribution":
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        return cls("gaussian", mean, cov)

    @classmethod
    def student_t(cls, mean, cov, df: float) -> "PeriodDistribution":
        mean = np.asarray(mean, dtype=float)
        cov = np.asarray(cov, dtype=float)
        return cls("student_t", mean, cov, df=float(df))

    @classmethod
    def discrete(cls, atoms, probs) -> "PeriodDistribution":
        atoms = np.atleast_2d(np.asarray(atoms, dtype=float))
        probs = np.asarray(probs, dtype=float)
        mean = probs @ atoms
        centred = atoms - mean
        cov = (centred * probs[:, None]).T @ centred
        return cls("discrete", mean, cov, atoms=atoms, probs=probs)

    # -- derived quantities -------------------------------------------

    @property
    def n_assets(self) -> int:
        return self.mean.shape[0]

    def second_moment(self) -> np.ndarray:
        """E[P P']."""
        return self.cov + np.outer(self.mean, self.mean)

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise InvalidMarket(f"unknown family {self.family!r}")
        mean = self.mean
        cov = self.cov
        if mean.ndim != 1:
            raise DimensionMismatch(f"mean must be a vector, got shape {mean.shape}")
        n = mean.shape[0]
        if cov.shape != (n, n):
            raise DimensionMismatch(
                f"covariance shape {cov.shape} incompatible with {n} assets")
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise InvalidMarket("covariance is not symmetric")
        if self.family == "student_t":
            if self.df is None or self.df <= 2:
                raise InvalidMarket("student_t requires df > 2")
        if self.family == "discrete":
            if self.atoms is None or self.probs is None:
                raise InvalidMarket("discrete family requires atoms and probs")
            if self.atoms.shape[1] != n or self.atoms.shape[0] != self.probs.shape[0]:
                raise DimensionMismatch("atoms/probs shapes inconsistent")
            if np.any(self.probs <= 0):
                raise InvalidMarket("atom probabilities must be positive")
            if abs(self.probs.sum() - 1.0) > _ATOL:
                raise InvalidMarket(
                    f"atom probabilities sum to {self.probs.sum()!r}, not 1")
        else:
            # Continuous families sample through a Cholesky factor, so the
            # covariance itself must be strictly positive definite.
            if np.linalg.eigvalsh(cov)[0] <= 0:
                raise InvalidMarket("covariance is not positive definite")
        second = self.second_moment()
        if np.linalg.eigvalsh(second)[0] <= 0:
            raise InvalidMarket("second moment matrix E[PP'] is singular")
        # Exclude riskless-dominating degeneracies: B = E[P]'E[PP']^{-1}E[P]
        # equals 1 exactly when the excess return is a.s. a fixed multiple of
        # its mean direction, which makes the one-period problem arbitrary.
        b = mean @ np.linalg.solve(second, mean)
        if b >= 1.0 - 1e-9:
            raise InvalidMarket(f"degenerate period: E[P]'E[PP']^-1 E[P] = {b!r}")

    # -- sampling ------------------------------------------------------

    def _uniforms_per_path(self) -> int:
        return self.n_assets + 1

    def sample_block(self, seed: int, stream: int, period: int,
                     lo: int, hi: int) -> np.ndarray:
        """Draw excess returns for paths [lo, hi); shape (hi - lo, n).

        Deterministic in (seed, stream, period, path index); block
        boundaries and the number of draw-pool workers do not affect the
        values.
        """
        u = rng.uniform_block(seed, stream, period, lo, hi,
                              self._uniforms_per_path())
        n = self.n_assets
        if self.family == "discrete":
            if self._cum is None:
                self._cum = np.cumsum(self.probs)
            idx = np.searchsorted(self._cum, u[:, 0], side="right")
            idx = np.minimum(idx, len(self.probs) - 1)
            return self.atoms[idx]
        if self._chol is None:
            scale = self.cov
            if self.family == "student_t":
                scale = self.cov * (self.df - 2.0) / self.df
            self._chol = np.linalg.cholesky(scale)
        z = ndtri(u[:, :n])
        rows = z.shape[0]
        if rows == 1:
            # OpenBLAS hands a one-row product to gemv, which rounds
            # differently from the gemm that larger blocks take.
            z = np.repeat(z, 2, axis=0)
        x = (z @ self._chol.T)[:rows]
        if self.family == "student_t":
            chi2 = gammaincinv(self.df / 2.0, u[:, n])
            chi2 *= 2.0
            chi2 /= self.df
            x /= np.sqrt(chi2, out=chi2)[:, None]
        x += self.mean
        return x

    def support_max_inner(self, k: np.ndarray) -> float:
        """Essential supremum of P'k (exact for discrete, else +inf).

        Continuous families have unbounded support in every direction
        with nonzero projected variance, so the supremum is infinite
        unless k (projected through the covariance) vanishes.
        """
        k = np.asarray(k, dtype=float)
        if self.family == "discrete":
            return float(np.max(self.atoms @ k)) if k.size else 0.0
        if k @ self.cov @ k <= 0.0:
            return float(self.mean @ k)
        return np.inf


@dataclass
class MarketSpec:
    """Horizon, riskless returns, and per-period excess-return laws."""

    horizon: int
    riskless_rates: np.ndarray
    periods: list[PeriodDistribution]

    @classmethod
    def iid(cls, horizon: int, riskless_rate: float,
            period: PeriodDistribution) -> "MarketSpec":
        """Same gross riskless return and return law every period."""
        rates = np.full(horizon, float(riskless_rate))
        return cls(horizon, rates, [period] * horizon)

    @property
    def n_assets(self) -> int:
        return self.periods[0].n_assets

    def validate(self) -> None:
        if self.horizon < 1:
            raise InvalidMarket(f"horizon must be >= 1, got {self.horizon}")
        self.riskless_rates = np.asarray(self.riskless_rates, dtype=float)
        if self.riskless_rates.shape != (self.horizon,):
            raise DimensionMismatch(
                f"need {self.horizon} riskless rates, got shape "
                f"{self.riskless_rates.shape}")
        if np.any(self.riskless_rates <= 0):
            raise InvalidMarket("gross riskless returns must be positive")
        if len(self.periods) != self.horizon:
            raise DimensionMismatch(
                f"need {self.horizon} period distributions, got {len(self.periods)}")
        n = self.periods[0].n_assets
        for t, p in enumerate(self.periods):
            if p.n_assets != n:
                raise DimensionMismatch(
                    f"period {t} has {p.n_assets} assets, expected {n}")
            try:
                p.validate()
            except InvalidMarket as exc:
                raise InvalidMarket(f"period {t}: {exc}") from exc

    def rho(self, t: int) -> float:
        """Riskless compounding factor from time t to the horizon.

        rho_t = prod_{l=t}^{T-1} s_l, with rho_T = 1.
        """
        if not 0 <= t <= self.horizon:
            raise ValueError(f"t must lie in [0, {self.horizon}], got {t}")
        return float(np.prod(self.riskless_rates[t:]))

    def sample_block(self, t: int, seed: int, lo: int, hi: int,
                     stream: int = rng.STREAM_SIM) -> np.ndarray:
        return self.periods[t].sample_block(seed, stream, t, lo, hi)


def from_annual_table(mean_returns: Sequence[float],
                      volatilities: Sequence[float],
                      correlations,
                      riskless_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Excess-return moments from an annual summary table.

    Parameters
    ----------
    mean_returns : sequence of float
        Expected simple annual returns of the risky assets (e.g. 0.14).
    volatilities : sequence of float
        Annual standard deviations of the returns.  Summary tables often
        label this column "variance" while listing standard deviations;
        values here are always interpreted as volatilities.
    correlations : array_like, shape (n, n)
        Correlation matrix.
    riskless_rate : float
        Simple annual riskless rate (e.g. 0.05).

    Returns
    -------
    (mean, cov)
        Moments of P = e - s 1 where e is the gross risky return vector
        and s the gross riskless return.
    """
    rates = np.asarray(mean_returns, dtype=float)
    vols = np.asarray(volatilities, dtype=float)
    corr = np.asarray(correlations, dtype=float)
    if rates.shape != vols.shape or corr.shape != (rates.size, rates.size):
        raise DimensionMismatch("table columns have inconsistent lengths")
    if np.any(vols <= 0):
        raise InvalidMarket("volatilities must be positive")
    mean = rates - float(riskless_rate)
    cov = np.outer(vols, vols) * corr
    return mean, cov


def moment_matched_atoms(mean, cov) -> PeriodDistribution:
    """Discrete law with exactly the given first two moments.

    Uses the 2n symmetric sigma points mean +- sqrt(n) L_k (L the
    Cholesky factor of cov), each with probability 1/(2n).  Useful when
    an exact-expectation backend is needed for a market specified only
    through moments.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    n = mean.shape[0]
    ell = np.linalg.cholesky(cov)
    offsets = np.sqrt(n) * ell.T  # row k is sqrt(n) * k-th Cholesky column
    atoms = np.vstack([mean + offsets, mean - offsets])
    probs = np.full(2 * n, 1.0 / (2 * n))
    return PeriodDistribution.discrete(atoms, probs)
