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
every number of draw-pool workers.  A block is drawn one slab of rows
at a time into the array that keeps it.  Each stage of a slab runs over
row chunks on that pool: the quantile transforms, then the Cholesky
product with the Student-t scaling and the mean shift.  The
Student-t chi-square quantile is a quintic Hermite table of its
logarithm in ndtri(u), built once per df (:func:`gammaincinv`) from
nodes that scipy computes.  It agrees with ``scipy.special.gammaincinv``
to 5e-14 relative for df up to 1e6; larger df take scipy's values.
Agreement is not accuracy: against a 40-digit reference at the same u,
on ndtri(u) in [-8, 8], the table is within 1e-14 relative for
5 <= df <= 1000 and within 3e-14 for 2 < df < 5, where rounding log x
in the far lower tail limits it.  At large df scipy's lower tail, and
so the table's, is off by more: 1.2e-13 at df 1e6 and ndtri(u) = -6,
2.3e-12 at -5.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import rng
from .errors import DimensionMismatch, InvalidMarket

FAMILIES = ("gaussian", "student_t", "discrete")

_ATOL = 1e-12


# scipy.special is imported on first use: it is most of the package's
# import time, and only sampling and the laws of P'k need it.

def ndtri(p: np.ndarray) -> np.ndarray:
    """Overwrite p with its standard normal quantiles, elementwise, over
    row chunks; returns p."""
    from scipy import special
    rng.over_row_chunks(p.shape[0], lambda lo, hi: special.ndtri(
        p[lo:hi], out=p[lo:hi]))
    return p


_TABLE_Z, _TABLE_NODES = 9.0, 8_192  # nodes on z = ndtri(p) in [-9, 9]
_TABLE_MAX_A = 5e5  # largest shape the table is verified at (df 1e6)
_SUB_ROWS = 4_096  # elements per pass over the table


@functools.lru_cache(maxsize=8)
def _quantile_table(a: float) -> np.ndarray:
    """Column i: the monomial coefficients, in t in [0, 1], of the quintic
    Hermite piece of y = log x on [z_i, z_i+1], x = gammaincinv(a, ndtr(z)),
    with exact slopes y' = x'/x, x' = phi(z)/f(x) for the Gamma(a) density
    f, and y'' = y'((x - a) y' - z).  Upper nodes take x from the
    complement, which keeps the upper tail's relative precision."""
    from scipy import special
    z = np.linspace(-_TABLE_Z, _TABLE_Z, _TABLE_NODES)
    h = z[1] - z[0]
    x = special.gammaincinv(a, special.ndtr(z))
    x[z > 0] = special.gammainccinv(a, special.ndtr(-z[z > 0]))
    y = np.log(x)
    dy = np.exp(special.gammaln(a) - 0.5 * np.log(2.0 * np.pi) - 0.5 * z * z
                - a * y + x) * h
    d2y = dy * ((x - a) * dy / h - z) * h
    # dy and d2y are in t = (z - z_i) / h; c0..c2 match y, y', y'' at
    # t = 0, and c3..c5 add what the value, slope and bend lack at t = 1
    c0, c1, c2 = y[:-1], dy[:-1], 0.5 * d2y[:-1]
    rise, slope = y[1:] - c0 - c1 - c2, dy[1:] - c1 - 2.0 * c2
    bend = d2y[1:] - 2.0 * c2
    coef = np.stack([c0, c1, c2, 10.0 * rise - 4.0 * slope + 0.5 * bend,
                     -15.0 * rise + 7.0 * slope - bend,
                     6.0 * rise - 3.0 * slope + 0.5 * bend])
    coef.flags.writeable = False
    return coef


def gammaincinv(a: float, p: np.ndarray) -> np.ndarray:
    """Inverse of the regularized lower incomplete gamma function in its
    second argument, elementwise over the 1-D array p.

    On p in [ndtr(-9), ndtr(9)], which holds every uniform of
    :func:`conemv.rng.uniform_block`, it interpolates
    ``_quantile_table(a)`` at ndtri(p), within 5e-14 relative of
    ``scipy.special.gammaincinv`` (the module docstring states its
    accuracy); other p go to scipy.  The table is
    built from a alone, so a value depends neither on the array holding
    it nor on the number of draw-pool workers.  Shapes above
    ``_TABLE_MAX_A`` take scipy's values throughout: the table's slope
    exponent cancels catastrophically as a grows and is NaN from about
    a = 5e19 upward."""
    from scipy import special
    if a > _TABLE_MAX_A:
        return rng.map_rows(functools.partial(special.gammaincinv, a), p)
    coef = _quantile_table(float(a))
    pieces = coef.shape[1]

    def fill(p, out):  # in _SUB_ROWS blocks of out and small scratch
        idx = np.empty(min(p.shape[0], _SUB_ROWS), dtype=np.intp)
        scratch = np.empty((2, idx.shape[0]))
        for lo in range(0, p.shape[0], _SUB_ROWS):
            q, w = p[lo:lo + _SUB_ROWS], out[lo:lo + _SUB_ROWS]
            k, (acc, c) = idx[:w.shape[0]], scratch[:, :w.shape[0]]
            special.ndtri(q, out=w)
            outside = None
            if not (w.min() >= -_TABLE_Z and w.max() <= _TABLE_Z):  # or NaN
                outside = ~(np.abs(w) <= _TABLE_Z)
                w[outside] = 0.0
            w += _TABLE_Z
            w *= pieces / (2.0 * _TABLE_Z)
            np.copyto(k, w, casting="unsafe")  # the piece, as w >= 0
            w -= k  # t in [0, 1)
            np.take(coef[5], k, out=acc, mode="clip")
            for j in range(4, -1, -1):
                acc *= w
                acc += np.take(coef[j], k, out=c, mode="clip")
            np.exp(acc, out=w)
            if outside is not None:
                w[outside] = special.gammaincinv(a, q[outside])

    return rng.map_rows(fill, p)


def float_array(data, what: str, error=InvalidMarket) -> np.ndarray:
    """``data`` as a new float array; ``error`` unless it is a
    rectangular array of real numbers, which a boolean or a numeric
    string is not, with at most numpy's 32 dimensions."""
    kind = data.dtype.kind if isinstance(data, np.ndarray) else "O"
    try:
        if kind == "O" and all(
                isinstance(x, numbers.Real) and not isinstance(x, bool)
                for x in np.asarray(data, dtype=object).flat):
            kind = "f"
        if kind in "iuf":
            return np.array(data, dtype=float)
    except (TypeError, ValueError, OverflowError, RuntimeError):
        pass  # RuntimeError: more than 32 dimensions
    raise error(f"{what} must be a rectangular array of numbers")


def freeze_arrays(value, *names: str, error=InvalidMarket) -> None:
    """Set the named array fields of frozen ``value`` to read-only float
    copies; ``error`` if one is not an array of numbers."""
    for name in names:
        array = getattr(value, name)
        if array is not None:
            array = float_array(array, name, error)
            array.flags.writeable = False
            object.__setattr__(value, name, array)


@dataclass(frozen=True, eq=False)
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

    def __post_init__(self):
        freeze_arrays(self, "mean", "cov", "atoms", "probs")

    # -- constructors -------------------------------------------------

    @classmethod
    def gaussian(cls, mean, cov) -> "PeriodDistribution":
        return cls("gaussian", mean, cov)

    @classmethod
    def student_t(cls, mean, cov, df: float) -> "PeriodDistribution":
        return cls("student_t", mean, cov, df=float(df))

    @classmethod
    def discrete(cls, atoms, probs) -> "PeriodDistribution":
        atoms = np.atleast_2d(float_array(atoms, "atoms"))
        probs = float_array(probs, "probs")
        with np.errstate(invalid="ignore", over="ignore"):
            # non-finite atoms or probabilities are for validate() to report
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

    def draw_cov(self) -> np.ndarray:
        """The matrix whose Cholesky factor the draw applies: the
        covariance, scaled by (df - 2) / df for Student t."""
        if self.family == "student_t":
            return self.cov * (self.df - 2.0) / self.df
        return self.cov

    def unconstrained_gain(self) -> np.ndarray:
        """E[P P']^-1 E[P], the one-period gain over the whole space."""
        return np.linalg.solve(self.second_moment(), self.mean)

    def validate(self) -> None:
        if self.family not in FAMILIES:
            raise InvalidMarket(f"unknown family {self.family!r}")
        for name in ("atoms", "probs", "mean", "cov", "df"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise InvalidMarket(f"{name} must be finite")
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
                    f"atom probabilities sum to {float(self.probs.sum())!r}, not 1")
        else:
            # Continuous families sample through a Cholesky factor, so the
            # covariance itself must be strictly positive definite.
            if np.linalg.eigvalsh(cov)[0] <= 0:
                raise InvalidMarket("covariance is not positive definite")
        with np.errstate(over="ignore"):  # overflow is reported below
            second, drawn = self.second_moment(), self.draw_cov()
        if not np.isfinite(drawn).all():
            raise InvalidMarket("the draw's scaled covariance overflows "
                                "double precision")
        if not np.isfinite(second).all():
            raise InvalidMarket("second moment matrix E[PP'] overflows "
                                "double precision")
        if np.linalg.eigvalsh(second)[0] <= 0:
            raise InvalidMarket("second moment matrix E[PP'] is singular")
        # Exclude riskless-dominating degeneracies: B = E[P]'E[PP']^{-1}E[P]
        # equals 1 exactly when the excess return is a.s. a fixed multiple of
        # its mean direction, which makes the one-period problem arbitrary.
        b = float(mean @ self.unconstrained_gain())
        if b >= 1.0 - 1e-9:
            raise InvalidMarket(f"degenerate period: E[P]'E[PP']^-1 E[P] = {b!r}")

    # -- sampling ------------------------------------------------------

    def sample_block(self, seed: int, stream: int, period: int,
                     lo: int, hi: int, *, out=None) -> np.ndarray:
        """Draw excess returns for paths [lo, hi) into ``out``, a new
        (hi - lo, n) array when None, and return it.

        Deterministic in (seed, stream, period, path index); block
        boundaries and the number of draw-pool workers do not affect the
        values.  The rows are drawn one slab of ``rng._SLAB_ROWS`` at a
        time, so besides ``out`` the draw holds one slab's uniforms and
        Student-t scale.
        """
        n = self.n_assets
        if out is None:
            out = np.empty((hi - lo, n))
        chol_t = (None if self.family == "discrete"
                  else np.linalg.cholesky(self.draw_cov()).T)
        for a in range(0, hi - lo, rng._SLAB_ROWS):
            b = min(a + rng._SLAB_ROWS, hi - lo)
            # the slab's uniforms are freed before the next slab's are drawn
            self._fill_slab(rng.uniform_block(seed, stream, period, lo + a,
                                              lo + b, n + 1),
                            chol_t, out[a:b])
        return out

    def _fill_slab(self, u: np.ndarray, chol_t, x: np.ndarray) -> None:
        """Write into the rows x the draws of their uniforms u, (rows,
        n + 1), which the normals overwrite.  Nothing is allocated per
        chunk on the pool."""
        n = self.n_assets
        if self.family == "discrete":
            idx = np.searchsorted(np.cumsum(self.probs), u[:, 0], side="right")
            x[...] = self.atoms[np.minimum(idx, len(self.probs) - 1)]
            return
        scale = None
        if self.family == "student_t":
            scale = gammaincinv(self.df / 2.0, u[:, n])
            scale *= 2.0
            scale /= self.df
            np.sqrt(scale, out=scale)
        z = ndtri(u[:, :n])

        def affine(a, b):
            if b - a == 1:
                # OpenBLAS hands a one-row product to gemv, which rounds
                # differently from the gemm that larger chunks take.
                x[a:b] = (np.repeat(z[a:b], 2, axis=0) @ chol_t)[:1]
            else:
                np.matmul(z[a:b], chol_t, out=x[a:b])
            if scale is not None:
                x[a:b] /= scale[a:b, None]
            x[a:b] += self.mean

        # on the pool too: at a few assets a chunk's product is below the
        # size at which OpenBLAS (0.3.31) starts its own threads, whereas
        # a whole slab's woke them, and their spinning after each call
        # slowed the next slab's transforms by a fifth on two CPUs
        rng.over_row_chunks(z.shape[0], affine)

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

    def cdf_inner(self, k: np.ndarray, a: float, upper: bool = False
                  ) -> float:
        """Pr(P'k <= a), or with ``upper`` its complement Pr(P'k > a),
        exactly.

        Discrete laws sum the weights of the atoms with P'k <= a (P'k > a).
        The gaussian and Student-t laws are elliptical, so P'k = mu'k + s Z
        with s^2 = k' cov k and Z standard normal, or Student t with df
        degrees of freedom scaled by sqrt((df - 2) / df), as the draw
        scales the covariance.  For s = 0 it is the step at mu'k.  The
        upper tail is Pr(Z <= -z), not 1 - Pr(Z <= z), so a tail far
        below the rounding of 1 keeps its relative precision.
        """
        k = np.asarray(k, dtype=float)
        if self.family == "discrete":
            y = self.atoms @ k
            return float(self.probs @ ((y > a) if upper else (y <= a)))
        loc, var = float(self.mean @ k), float(k @ self.cov @ k)
        if var <= 0.0:
            return float((loc > a) if upper else (loc <= a))
        from scipy import special
        z = (a - loc) / np.sqrt(var)
        if upper:
            z = -z
        if self.family == "gaussian":
            return float(special.ndtr(z))
        return float(special.stdtr(self.df, z / np.sqrt((self.df - 2.0)
                                                        / self.df)))


@dataclass(frozen=True, eq=False)
class MarketSpec:
    """Horizon, riskless returns, and per-period excess-return laws."""

    horizon: int
    riskless_rates: np.ndarray
    periods: tuple[PeriodDistribution, ...]

    def __post_init__(self):
        freeze_arrays(self, "riskless_rates")
        object.__setattr__(self, "periods", tuple(self.periods))

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
        if self.riskless_rates.shape != (self.horizon,):
            raise DimensionMismatch(
                f"need {self.horizon} riskless rates, got shape "
                f"{self.riskless_rates.shape}")
        if not np.all(np.isfinite(self.riskless_rates)):
            raise InvalidMarket("riskless rates must be finite")
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
                     stream: int = rng.STREAM_SIM, *, out=None) -> np.ndarray:
        """Period t's draw for paths [lo, hi), into ``out`` if given; see
        :meth:`PeriodDistribution.sample_block`."""
        return self.periods[t].sample_block(seed, stream, t, lo, hi, out=out)


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
