"""Closed convex cones of admissible portfolio positions.

Four variants cover the constraint families in scope:

* ``whole_space``  -- unconstrained positions,
* ``orthant``      -- no short selling, u >= 0 componentwise,
* ``half_space``   -- {u : a'u >= 0} for a fixed normal a,
* ``polyhedral``   -- {u : A u >= 0} for a row matrix A.

Each is stored as its row matrix A: none for the whole space, A = I
for the orthant, the normal as one row for the half-space.  Every
variant supports membership of the polar cone {y : y'u <= 0 for all u
in the cone}, and projection, either Euclidean or in the norm |x|_H =
sqrt(x'Hx) of a positive definite metric H.  The first three variants
project in closed form; in the metric H the half-space projection is
v - (a'v / a'H^-1 a) H^-1 a when a'v < 0.  A polyhedral cone has the
polar {-A' mu : mu >= 0}, and Moreau's decomposition
v = proj_K(v) + proj_polar(v) gives its projection exactly,

    proj_K(v) = v + A' mu*,   mu* = argmin_{mu >= 0} |A' mu + v|,

from one nonnegative least-squares solve, which the package does itself
by Lawson and Hanson's active set (1974, ch. 23) on the dual problem
min_{mu >= 0} mu'G mu / 2 + c'mu, G = AA', c = Av.  With H = LL' the
H-metric projection is the Euclidean projection of w = L'v onto the
transformed cone {w : A L^-T w >= 0}, mapped back by x = L^-T w:

    proj^H_K(v) = v + H^-1 A' mu*,   mu* = argmin_{mu >= 0} |L^-1 A' mu + L'v|,

and an orthant takes this route with A = I.  A point lies in the polar
cone exactly when it projects to the origin, that is, when the least
squares leave no residual.  Should the solve stop at its iteration cap,
it raises ``NoConvergence``; there is no fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Optional

import numpy as np

from .errors import (DimensionMismatch, InvalidCone, NoConvergence,
                     ZeroMeanExcess)
from .market import float_array, freeze_arrays

KINDS = ("whole_space", "orthant", "half_space", "polyhedral")

DEFAULT_TOL = 1e-9
DYKSTRA_TOL = 1e-10
NNLS_ITER_PER_ROW = 3   # the least-squares iteration cap, per row of A
NNLS_TOL = 1e-14        # least gain that lets a row join, relative to max |c|
SCHUR_TOL = 1e-26       # least Schur complement of a joining unit row


@dataclass(frozen=True, eq=False)
class ConvexCone:
    """One cone {u : A u >= 0}: its ``kind`` and its row matrix A,
    ``rows``, of shape (m, dim)."""

    kind: str
    rows: np.ndarray

    def __post_init__(self):
        freeze_arrays(self, "rows", error=InvalidCone)

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    # -- constructors -------------------------------------------------

    @classmethod
    def whole_space(cls, dim: int) -> "ConvexCone":
        return cls("whole_space", np.zeros((0, dim)))

    @classmethod
    def orthant(cls, dim: int) -> "ConvexCone":
        return cls("orthant", np.eye(dim))

    @classmethod
    def half_space(cls, normal) -> "ConvexCone":
        a = float_array(normal, "half_space normal", InvalidCone)
        if not np.all(np.isfinite(a)):
            raise InvalidCone("half_space normal must be finite")
        _require_finite_gram(a)
        if a.ndim != 1 or np.linalg.norm(a) == 0.0:
            raise InvalidCone("half_space needs a nonzero normal vector")
        return cls("half_space", a[None, :])

    @classmethod
    def polyhedral(cls, rows) -> "ConvexCone":
        a = np.atleast_2d(float_array(rows, "polyhedral rows", InvalidCone))
        if a.ndim != 2:
            raise InvalidCone("polyhedral rows must form a matrix, got "
                              f"{a.ndim} dimensions")
        if a.size == 0:
            raise InvalidCone("polyhedral cone needs at least one row")
        if not np.all(np.isfinite(a)):
            raise InvalidCone("polyhedral rows must be finite")
        _require_finite_gram(a)
        norms = np.linalg.norm(a, axis=1)
        if np.any(norms == 0.0):
            raise InvalidCone("polyhedral rows must be nonzero")
        return cls("polyhedral", a)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        if self.kind == "half_space":
            return {"type": "half_space", "normal": self.rows[0].tolist()}
        if self.kind == "polyhedral":
            return {"type": "polyhedral", "A": self.rows.tolist()}
        return {"type": self.kind}

    @classmethod
    def from_dict(cls, data: dict, dim: int) -> "ConvexCone":
        kind = data.get("type")
        if kind == "whole_space":
            return cls.whole_space(dim)
        if kind == "orthant":
            return cls.orthant(dim)
        if kind == "half_space":
            if "normal" not in data:
                raise InvalidCone("half_space fragment needs 'normal'")
            cone = cls.half_space(data["normal"])
        elif kind == "polyhedral":
            if "A" not in data:
                raise InvalidCone("polyhedral fragment needs 'A'")
            cone = cls.polyhedral(data["A"])
        else:
            raise InvalidCone(f"unknown cone type {kind!r}")
        if cone.dim != dim:
            raise InvalidCone(f"cone dimension {cone.dim} != market dimension {dim}")
        return cone

    # -- membership ----------------------------------------------------

    def polar_contains(self, y, tol: float = DEFAULT_TOL) -> bool:
        """Membership of the polar cone {y : y'u <= 0 on the cone}.

        whole_space -> {0}; orthant -> nonpositive orthant;
        half_space(a) -> {lambda a : lambda <= 0}; polyhedral(A) ->
        {-A' mu : mu >= 0}, the points that project to the origin, which
        the least-squares residual of :meth:`_moreau_split` decides.
        """
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dim,):
            raise DimensionMismatch(f"point shape {y.shape} != ({self.dim},)")
        if self.kind == "whole_space":
            return bool(np.max(np.abs(y), initial=0.0) <= tol)
        if self.kind == "orthant":
            return bool(np.all(y <= tol))
        scale = max(1.0, math.sqrt(y @ y))
        if self.kind == "half_space":
            a = self.rows[0]
            lam = (a @ y) / (a @ a)
            return bool(lam <= tol and np.max(np.abs(y - lam * a)) <= tol * scale)
        return bool(self._moreau_split(y)[2] <= tol * scale)

    # -- projection ------------------------------------------------------

    def project(self, v, max_cycles: Optional[int] = None,
                metric: Optional[np.ndarray] = None) -> np.ndarray:
        """Projection of v onto the cone: Euclidean, or in the norm
        |x|_H = sqrt(x'Hx) of a positive definite ``metric`` H.

        Orthant and polyhedral cones are projected exactly, by Moreau's
        decomposition (the orthant clips instead when no metric is
        given); the least-squares solve raises ``NoConvergence`` at its
        cap, with no fallback.  ``max_cycles`` runs Dykstra's projection
        instead, for ``perfbench/tests/test_ledger.py`` alone.
        """
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise DimensionMismatch(f"point shape {v.shape} != ({self.dim},)")
        if self.kind == "whole_space":
            return v.copy()
        if self.kind == "orthant" and metric is None:
            return np.maximum(v, 0.0)
        if self.kind == "half_space":
            return _project_half_space(v, self.rows[0], metric)
        if max_cycles is not None:
            return self._project_dykstra(v, max_cycles, metric)
        p = self._moreau_split(v, metric)[1]
        # Active rows hold A_i p = 0 only to rounding.  Projecting onto
        # each row still violated removes that slack, and puts p exactly
        # on a face whose row is a coordinate axis, as the orthant's clip
        # does.  The solver's lists stay lists until the end: at these
        # sizes a numpy call costs more than the arithmetic.
        for a in self.rows.tolist():
            slack = sum(map(mul, a, p))
            if slack < 0.0:
                step = slack / sum(map(mul, a, a))
                p = [pk - step * ak for pk, ak in zip(p, a)]
        return np.array([pk + 0.0 for pk in p])  # + 0.0 clears signed zeros

    def _moreau_split(self, v: np.ndarray, metric: Optional[np.ndarray] = None
                      ) -> tuple[list, list, float]:
        """mu* >= 0 minimising |L^-1 A' mu + L'v| (L = I, or H = LL'), the
        projection x = v + H^-1 A' mu* before the clean-up of rows it holds
        only to rounding, and the minimum, x's (H-)norm; mu* and x are lists.
        Raises ``NoConvergence`` at the solve's iteration cap."""
        rows = self.rows
        if metric is not None:  # the Euclidean problem of L'v and A L^-T
            chol = np.linalg.cholesky(metric)
            back = np.linalg.inv(chol).T
            rows, v = rows @ back, chol.T @ v
        a = rows.tolist()
        # Row i scaled by d_i = 1/|a_i| leaves the cone unchanged and
        # gives G = AA' a unit diagonal.
        d = [1.0 / math.sqrt(sum(map(mul, ai, ai))) for ai in a]
        mu, x = _lawson_hanson([[di * e for e in ai] for di, ai in zip(d, a)],
                               v.tolist())
        resid = math.sqrt(sum(map(mul, x, x)))
        if metric is not None:
            x = (back @ x).tolist()
        return list(map(mul, mu, d)), x, resid

    def _project_dykstra(self, v: np.ndarray, max_cycles: int,
                         metric: Optional[np.ndarray] = None) -> np.ndarray:
        rows = self.rows
        u = v.copy()
        increments = np.zeros_like(rows)
        for _ in range(max_cycles):
            start = u.copy()
            for i in range(rows.shape[0]):
                y = u + increments[i]
                u = _project_half_space(y, rows[i], metric)
                increments[i] = y - u
            if np.max(np.abs(u - start)) < DYKSTRA_TOL:
                return u
        raise NoConvergence(
            f"Dykstra projection did not settle within {max_cycles} cycles",
            best=u)


def _require_finite_gram(a: np.ndarray) -> None:
    """InvalidCone unless the Gram matrix A A' of the cone's rows (a'a
    for a normal), which every projection solves with, is finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.dot(a, a.T)  # of any rank: the shape is checked after
    if not np.all(np.isfinite(gram)):
        raise InvalidCone("cone data overflow double precision: its Gram "
                          "matrix is not finite")


def cones_per_period(cones, horizon: int, dim: int) -> list[ConvexCone]:
    """One cone per period: a single cone is broadcast over the horizon,
    a sequence must hold one ``dim``-dimensional cone per period."""
    cones = ([cones] * horizon if isinstance(cones, ConvexCone)
             else list(cones))
    if len(cones) != horizon:
        raise InvalidCone(f"need {horizon} cones, got {len(cones)}")
    for cone in cones:
        if cone.dim != dim:
            raise InvalidCone(
                f"cone dimension {cone.dim} != market dimension {dim}")
    return cones


def _project_half_space(v: np.ndarray, a: np.ndarray,
                        metric: Optional[np.ndarray] = None) -> np.ndarray:
    inner = a @ v
    if inner >= 0.0:
        return v.copy()
    z = a if metric is None else np.linalg.solve(metric, a)
    return v - (inner / (a @ z)) * z


def _lawson_hanson(rows: list, v: list) -> tuple[list, list]:
    """mu >= 0 minimising |v + sum_i mu_i rows_i| for unit ``rows``, and
    that sum x: Lawson and Hanson's active set (1974, ch. 23) on lists.

    In the terms of the module docstring the gain of row i is
    -(G mu + c)_i = -A_i x, and the passive rows P, with mu_P > 0, solve
    G_PP mu_P = -c_P through A_P' = QR as R mu_P = -Q'v.  The rows
    out of P are tried by decreasing gain, the first index first among
    equals, while the gain exceeds ``NNLS_TOL`` max |c|.  The first whose
    Schur complement on P, |q|^2 for its part q orthogonal to P, exceeds
    ``SCHUR_TOL`` joins P; the others lie in P's span (more rows than
    dimensions, or an origin-only cone).  A solution with an entry <= 0
    moves mu toward it until an entry reaches zero, drops the rows at
    zero and solves again.  Raises ``NoConvergence`` after
    ``NNLS_ITER_PER_ROW`` solves per row, not an uncertified mu.
    """
    m = len(rows)
    mu = [0.0] * m
    passive: list[int] = []
    qr = _PassiveQR(v)
    gain = [-sum(map(mul, r, v)) for r in rows]
    x = v
    tol = NNLS_TOL * max(map(abs, gain))
    cap, solves = NNLS_ITER_PER_ROW * m, 0
    while True:
        for j in sorted(range(m), key=gain.__getitem__, reverse=True):
            if gain[j] <= tol:
                return mu, x
            if j not in passive:
                q, s, col = qr.orthogonalize(rows[j])
                if s > SCHUR_TOL:
                    break
        else:
            return mu, x
        qr.append(q, s, col)
        passive.append(j)
        while True:
            solves += 1
            if solves > cap:
                raise NoConvergence("nonnegative least squares stopped at "
                                    f"its cap of {cap} iterations")
            z = qr.solve()
            if not z or min(z) > 0.0:
                break
            # Step toward z until a passive entry reaches zero; drop it.
            alpha = min(mu[i] / (mu[i] - zi)
                        for i, zi in zip(passive, z) if zi <= 0.0)
            for i, zi in zip(passive, z):
                reached = zi <= 0.0 and mu[i] / (mu[i] - zi) <= alpha
                mu[i] = 0.0 if reached else mu[i] + alpha * (zi - mu[i])
            passive = [i for i in passive if mu[i] > 0.0]
            qr = _PassiveQR(v)
            for i in passive:
                qr.append(*qr.orthogonalize(rows[i]))
        x = v
        for i, zi in zip(passive, z):
            mu[i] = zi
            x = [xk + zi * rk for xk, rk in zip(x, rows[i])]
        gain = [-sum(map(mul, r, x)) for r in rows]


class _PassiveQR:
    """A_P' = QR for the passive rows A_P, by Gram-Schmidt, and Q'v."""

    def __init__(self, v: list):
        self.v, self.basis, self.upper, self.qv = v, [], [], []

    def orthogonalize(self, a: list) -> tuple[list, float, list]:
        """The part q of a orthogonal to Q, |q|^2, and a's coefficients
        on Q, by modified Gram-Schmidt run twice."""
        col = [0.0] * len(self.basis)
        for _ in range(2 if self.basis else 0):
            for k, b in enumerate(self.basis):
                t = sum(map(mul, b, a))
                col[k] += t
                a = [ae - t * be for ae, be in zip(a, b)]
        return a, sum(map(mul, a, a)), col

    def append(self, q: list, s: float, col: list) -> None:
        """Extend the factors by a row that :meth:`orthogonalize` split."""
        norm = math.sqrt(s)
        self.basis.append([e / norm for e in q])
        self.upper.append(col + [norm])  # R, column by column
        self.qv.append(sum(map(mul, self.basis[-1], self.v)))

    def solve(self) -> list:
        """z with R z = -Q'v, by back substitution."""
        upper, qv = self.upper, self.qv
        z = [0.0] * len(qv)
        for k in reversed(range(len(z))):
            t = qv[k]
            for h in range(k + 1, len(z)):
                t += upper[h][k] * z[h]
            z[k] = -t / upper[k][k]
        return z


def construct_tcie_cone(mean_excess) -> ConvexCone:
    """Largest half-space cone whose constrained problem stays
    time-consistent in efficiency: {u : E[P]'u >= 0}.

    With this constraint the short-side recursion keeps K^- = 0 at every
    period, which is exactly the condition under which the precommitted
    efficient policy remains efficient at every intermediate date.
    """
    a = np.asarray(mean_excess, dtype=float)
    if np.max(np.abs(a), initial=0.0) <= 1e-12:
        raise ZeroMeanExcess("mean excess return is numerically zero")
    return ConvexCone.half_space(a)
