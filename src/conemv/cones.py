"""Closed convex cones of admissible portfolio positions.

Four variants cover the constraint families in scope:

* ``whole_space``  -- unconstrained positions,
* ``orthant``      -- no short selling, u >= 0 componentwise,
* ``half_space``   -- {u : a'u >= 0} for a fixed normal a,
* ``polyhedral``   -- {u : A u >= 0} for a row matrix A.

Every variant supports membership, membership of the polar cone
{y : y'u <= 0 for all u in the cone}, and projection, either Euclidean
or in the norm |x|_H = sqrt(x'Hx) of a positive definite metric H.
The first three variants project in closed form; in the metric H the
half-space projection is v - (a'v / a'H^-1 a) H^-1 a when a'v < 0.  A
polyhedral cone {u : A u >= 0} has the polar {-A' mu : mu >= 0}, and
Moreau's decomposition v = proj_K(v) + proj_polar(v) gives its
projection exactly,

    proj_K(v) = v + A' mu*,   mu* = argmin_{mu >= 0} |A' mu + v|,

from one nonnegative least-squares solve (Lawson-Hanson).  With H = LL'
the H-metric projection is the Euclidean projection of w = L'v onto the
transformed cone {w : A L^-T w >= 0}, mapped back by x = L^-T w:

    proj^H_K(v) = v + H^-1 A' mu*,   mu* = argmin_{mu >= 0} |L^-1 A' mu + L'v|,

and an orthant takes this route with A = I.  A point lies in the polar
cone exactly when it projects to the origin.  Should that solve stop at
its iteration cap, Dykstra's alternating projection over the row
half-spaces, in the same metric, runs instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (DimensionMismatch, InvalidCone, NoConvergence,
                     ZeroMeanExcess)
from .market import freeze_arrays

KINDS = ("whole_space", "orthant", "half_space", "polyhedral")

DEFAULT_TOL = 1e-9
DYKSTRA_TOL = 1e-10
DYKSTRA_MAX_CYCLES = 10_000


@dataclass(frozen=True, eq=False)
class ConvexCone:
    """One cone, identified by ``kind`` and its defining data."""

    kind: str
    dim: int
    normal: Optional[np.ndarray] = None   # half_space
    rows: Optional[np.ndarray] = None     # polyhedral

    def __post_init__(self):
        freeze_arrays(self, "normal", "rows")

    # -- constructors -------------------------------------------------

    @classmethod
    def whole_space(cls, dim: int) -> "ConvexCone":
        return cls("whole_space", dim)

    @classmethod
    def orthant(cls, dim: int) -> "ConvexCone":
        return cls("orthant", dim)

    @classmethod
    def half_space(cls, normal) -> "ConvexCone":
        a = np.asarray(normal, dtype=float)
        if not np.all(np.isfinite(a)):
            raise InvalidCone("half_space normal must be finite")
        if a.ndim != 1 or np.linalg.norm(a) == 0.0:
            raise InvalidCone("half_space needs a nonzero normal vector")
        return cls("half_space", a.shape[0], normal=a)

    @classmethod
    def polyhedral(cls, rows) -> "ConvexCone":
        a = np.atleast_2d(np.asarray(rows, dtype=float))
        if a.size == 0:
            raise InvalidCone("polyhedral cone needs at least one row")
        if not np.all(np.isfinite(a)):
            raise InvalidCone("polyhedral rows must be finite")
        norms = np.linalg.norm(a, axis=1)
        if np.any(norms == 0.0):
            raise InvalidCone("polyhedral rows must be nonzero")
        return cls("polyhedral", a.shape[1], rows=a)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        if self.kind == "half_space":
            return {"type": "half_space", "normal": self.normal.tolist()}
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

    def contains(self, u, tol: float = DEFAULT_TOL) -> bool:
        """True iff every defining inequality holds within -tol slack."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.dim,):
            raise DimensionMismatch(f"point shape {u.shape} != ({self.dim},)")
        if self.kind == "whole_space":
            return True
        if self.kind == "orthant":
            return bool(np.all(u >= -tol))
        if self.kind == "half_space":
            return bool(self.normal @ u >= -tol)
        return bool(np.all(self.rows @ u >= -tol))

    def polar_contains(self, y, tol: float = DEFAULT_TOL) -> bool:
        """Membership of the polar cone {y : y'u <= 0 on the cone}.

        whole_space -> {0}; orthant -> nonpositive orthant;
        half_space(a) -> {lambda a : lambda <= 0}; polyhedral(A) ->
        {-A' mu : mu >= 0}, the points that project to the origin.
        """
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dim,):
            raise DimensionMismatch(f"point shape {y.shape} != ({self.dim},)")
        scale = max(1.0, float(np.linalg.norm(y)))
        if self.kind == "whole_space":
            return bool(np.max(np.abs(y), initial=0.0) <= tol)
        if self.kind == "orthant":
            return bool(np.all(y <= tol))
        if self.kind == "half_space":
            a = self.normal
            lam = (a @ y) / (a @ a)
            return bool(lam <= tol and np.max(np.abs(y - lam * a)) <= tol * scale)
        return bool(np.linalg.norm(self.project(y)) <= tol * scale)

    # -- projection ------------------------------------------------------

    def project(self, v, max_cycles: Optional[int] = None,
                metric: Optional[np.ndarray] = None) -> np.ndarray:
        """Projection of v onto the cone: Euclidean, or in the norm
        |x|_H = sqrt(x'Hx) of a positive definite ``metric`` H.

        Orthant and polyhedral cones are projected exactly, by Moreau's
        decomposition (the orthant clips instead when no metric is
        given).  Dykstra's alternating projection runs instead when the
        nonnegative least-squares solve stops at its iteration cap, for at
        most ``DYKSTRA_MAX_CYCLES`` cycles, or when ``max_cycles`` is
        given, for at most that many.
        """
        v = np.asarray(v, dtype=float)
        if v.shape != (self.dim,):
            raise DimensionMismatch(f"point shape {v.shape} != ({self.dim},)")
        if self.kind == "whole_space":
            return v.copy()
        if self.kind == "orthant" and metric is None:
            return np.maximum(v, 0.0)
        if self.kind == "half_space":
            return _project_half_space(v, self.normal, metric)
        if max_cycles is not None:
            return self._project_dykstra(v, max_cycles, metric)
        try:
            mu, _ = self._moreau(v, metric)
        except RuntimeError:  # the active-set iteration cap
            return self._project_dykstra(v, DYKSTRA_MAX_CYCLES, metric)
        rows = self._rows()
        step = rows.T @ mu
        p = v + (step if metric is None else np.linalg.solve(metric, step))
        # Active rows hold A_i p = 0 only to rounding.  Projecting onto
        # each row still violated removes that slack, and puts p exactly
        # on a face whose row is a coordinate axis, as the orthant's clip
        # does.
        for i, slack in enumerate((rows @ p).tolist()):
            if slack < 0.0:
                p = _project_half_space(p, rows[i])
        return p + 0.0  # + 0.0 clears signed zeros

    def _rows(self) -> np.ndarray:
        return np.eye(self.dim) if self.kind == "orthant" else self.rows

    def _moreau(self, v: np.ndarray, metric: Optional[np.ndarray] = None
                ) -> tuple[np.ndarray, float]:
        """mu* >= 0 minimising |L^-1 A' mu + L'v| (L = I without a
        metric, else the Cholesky factor of H = LL'), and that minimum.

        -A' mu* is the projection of v onto the polar cone, so v + A' mu*
        is its projection onto the cone and the minimum is that
        projection's norm; in the metric, v + H^-1 A' mu* and its H-norm.
        Raises scipy's ``RuntimeError`` when the solve stops at its
        iteration cap.
        """
        from scipy.optimize import nnls  # costly import, needed only here
        if metric is None:
            return nnls(self._rows().T, -v)
        chol = np.linalg.cholesky(metric)
        return nnls(np.linalg.solve(chol, self._rows().T), -chol.T @ v)

    def _project_dykstra(self, v: np.ndarray, max_cycles: int,
                         metric: Optional[np.ndarray] = None) -> np.ndarray:
        rows = self._rows()
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


def construct_tcie_cone(mean_excess, tol: float = 1e-12) -> ConvexCone:
    """Largest half-space cone whose constrained problem stays
    time-consistent in efficiency: {u : E[P]'u >= 0}.

    With this constraint the short-side recursion keeps K^- = 0 at every
    period, which is exactly the condition under which the precommitted
    efficient policy remains efficient at every intermediate date.
    """
    a = np.asarray(mean_excess, dtype=float)
    if np.max(np.abs(a), initial=0.0) <= tol:
        raise ZeroMeanExcess("mean excess return is numerically zero")
    return ConvexCone.half_space(a)
