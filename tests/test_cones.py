"""Cone membership, polar membership, projection, and serialization."""
import dataclasses

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from conemv import cones
from conemv.cones import (
    ConvexCone,
    construct_tcie_cone,
)
from conemv.errors import (DimensionMismatch, InvalidCone, NoConvergence,
                           ZeroMeanExcess)
from conemv.presets import limited_short_cone, three_index_moments

from conftest import nested
from oracles import _project_rows, grid_projection, in_cone

CASE3_ROWS = np.array([[0.0, 1.0, 0.0],
                       [0.0, 0.0, 1.0],
                       [1.0, 1.0, 1.0]])
NNLS_CAP_MESSAGE = ("^nonnegative least squares stopped at its cap of "
                    r"\d+ iterations$")


class TestContains:
    """Each cone is {u : A u >= 0} for its row matrix A = ``rows``."""

    def test_orthant_examples(self):
        cone = ConvexCone.orthant(3)
        np.testing.assert_array_equal(cone.rows, np.eye(3))
        assert in_cone(cone, np.array([1.0, 0.0, 2.0]))
        assert not in_cone(cone, np.array([1.0, -0.1, 2.0]))

    def test_limited_short_examples(self):
        cone = limited_short_cone()
        np.testing.assert_array_equal(cone.rows, CASE3_ROWS)
        # short the first asset, covered by the other two
        assert in_cone(cone, np.array([-1.0, 0.5, 0.6]))
        assert not in_cone(cone, np.array([-1.0, 0.5, 0.4]))
        assert not in_cone(cone, np.array([0.0, -0.1, 0.2]))

    def test_half_space_examples(self):
        mean, _ = three_index_moments()
        cone = ConvexCone.half_space(mean)
        np.testing.assert_array_equal(cone.rows, [mean])
        assert in_cone(cone, mean)
        assert not in_cone(cone, -mean)
        assert in_cone(cone, np.zeros(3))

    def test_whole_space_contains_everything(self):
        cone = ConvexCone.whole_space(2)
        assert cone.rows.shape == (0, 2) and cone.dim == 2
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert in_cone(cone, rng.normal(size=2) * 100)

    def test_tolerance_band(self):
        cone = ConvexCone.orthant(2)
        u = np.array([-1e-10, 1.0])
        assert in_cone(cone, u)                 # default tol 1e-9
        assert not in_cone(cone, u, tol=1e-12)

    def test_dimension_mismatch(self):
        cone = ConvexCone.orthant(3)
        for call in (cone.project, cone.polar_contains):
            with pytest.raises(DimensionMismatch):
                call(np.array([1.0, 2.0]))


class TestPolarContains:
    def test_whole_space_polar_is_origin(self):
        cone = ConvexCone.whole_space(3)
        assert cone.polar_contains(np.zeros(3))
        assert not cone.polar_contains(np.array([1e-6, 0.0, 0.0]))

    def test_orthant_polar_is_negative_orthant(self):
        cone = ConvexCone.orthant(3)
        assert cone.polar_contains(np.array([-1.0, -2.0, 0.0]))
        assert not cone.polar_contains(np.array([1.0, -1.0, -1.0]))

    def test_half_space_polar_is_negative_ray(self):
        mean, _ = three_index_moments()
        cone = ConvexCone.half_space(mean)
        assert cone.polar_contains(-0.5 * mean)
        assert not cone.polar_contains(0.5 * mean)
        off_ray = -0.5 * mean + np.array([0.0, 0.01, 0.0])
        assert not cone.polar_contains(off_ray)

    def test_polyhedral_polar_via_generators(self):
        cone = limited_short_cone()
        rng = np.random.default_rng(3)
        for _ in range(20):
            mu = rng.uniform(0.0, 2.0, size=3)
            assert cone.polar_contains(-CASE3_ROWS.T @ mu)
        mean, _ = three_index_moments()
        assert not cone.polar_contains(mean)

    def test_polar_duality_sampled(self):
        # y in the polar and u in the cone must satisfy y'u <= 0; polar
        # members are built constructively because for a half space the
        # polar is a single ray that random draws never hit
        mean, _ = three_index_moments()
        rng = np.random.default_rng(11)

        def polar_draws(cone):
            if cone.kind == "whole_space":
                return [np.zeros(cone.dim)]
            if cone.kind == "orthant":
                return [-np.abs(rng.normal(size=cone.dim)) for _ in range(64)]
            if cone.kind == "half_space":
                return [-lam * cone.rows[0]
                        for lam in rng.uniform(0.0, 3.0, size=64)]
            return [-cone.rows.T @ rng.uniform(0.0, 2.0, size=len(cone.rows))
                    for _ in range(64)]

        cones = [ConvexCone.whole_space(3), ConvexCone.orthant(3),
                 ConvexCone.half_space(mean), limited_short_cone()]
        checked = 0
        for cone in cones:
            for y in polar_draws(cone):
                assert cone.polar_contains(y, tol=1e-8)
                for _ in range(4):
                    u = cone.project(rng.normal(size=3) * 3.0)
                    assert y @ u <= 1e-7 * max(1.0, np.linalg.norm(y)
                                               * np.linalg.norm(u))
                    checked += 1
        assert checked > 500


class TestProject:
    def test_orthant_clips(self):
        cone = ConvexCone.orthant(3)
        np.testing.assert_allclose(cone.project(np.array([1.0, -2.0, 3.0])),
                                   [1.0, 0.0, 3.0], atol=1e-15)

    def test_half_space_feasible_point_unchanged(self):
        mean, _ = three_index_moments()
        cone = ConvexCone.half_space(mean)
        v = mean + np.array([0.01, 0.0, 0.0])
        np.testing.assert_allclose(cone.project(v), v, atol=1e-15)

    def test_half_space_infeasible_point_lands_on_boundary(self):
        a = np.array([1.0, 1.0])
        cone = ConvexCone.half_space(a)
        v = np.array([-2.0, 0.0])
        p = cone.project(v)
        np.testing.assert_allclose(p, v - (a @ v) / (a @ a) * a, atol=1e-14)
        assert abs(a @ p) <= 1e-12

    def test_limited_short_projection_structure(self):
        cone = limited_short_cone()
        v = np.array([-2.0, -1.0, 0.5])
        p = cone.project(v)
        assert in_cone(cone, p, tol=1e-8)
        assert p[1] == pytest.approx(0.0, abs=1e-9)

    def test_limited_short_projection_against_grid(self):
        cone = limited_short_cone()
        v = np.array([-2.0, -1.0, 0.5])
        p = cone.project(v)
        q = grid_projection(CASE3_ROWS, v, n_points=1_000_000, seed=0)
        # the oracle point is feasible, so up to solver tolerance it can
        # only be farther from v
        assert np.linalg.norm(v - p) <= np.linalg.norm(v - q) + 1e-8
        assert np.linalg.norm(p - q) <= 1e-3 * max(1.0, np.linalg.norm(v))

    def test_cycle_cap_raises(self):
        cone = ConvexCone.polyhedral(CASE3_ROWS)
        with pytest.raises(NoConvergence):
            cone.project(np.array([-2.0, -1.0, 0.5]), max_cycles=1)

    def test_nnls_cap_raises(self, monkeypatch):
        cone = ConvexCone.polyhedral(CASE3_ROWS)
        v = np.array([-2.0, -1.0, 0.5])
        monkeypatch.setattr(cones, "NNLS_ITER_PER_ROW", 0)
        for call in (cone.project, cone.polar_contains):
            with pytest.raises(NoConvergence, match=NNLS_CAP_MESSAGE):
                call(v)

    def test_idempotence(self):
        mean, _ = three_index_moments()
        cones = [ConvexCone.whole_space(3), ConvexCone.orthant(3),
                 ConvexCone.half_space(mean), limited_short_cone()]
        rng = np.random.default_rng(21)
        for cone in cones:
            for _ in range(25):
                v = rng.normal(size=3) * 5.0
                p = cone.project(v)
                assert np.linalg.norm(cone.project(p) - p) <= 1e-10

    def test_obtuse_angle_optimality(self):
        # (v - p)'(u - p) <= 0 for every u in the cone characterizes the
        # projection; allow slack an order above the solver tolerance
        mean, _ = three_index_moments()
        cones = [ConvexCone.orthant(3), ConvexCone.half_space(mean),
                 limited_short_cone()]
        rng = np.random.default_rng(33)
        for cone in cones:
            for _ in range(20):
                v = rng.normal(size=3) * 4.0
                p = cone.project(v)
                for _ in range(16):
                    u = cone.project(rng.normal(size=3) * 4.0)
                    slack = (v - p) @ (u - p)
                    scale = max(1.0, np.linalg.norm(v) * np.linalg.norm(u))
                    assert slack <= 10.0 * 1e-9 * scale

    def test_scaling_commutes(self):
        mean, _ = three_index_moments()
        cones = [ConvexCone.orthant(3), ConvexCone.half_space(mean),
                 limited_short_cone()]
        rng = np.random.default_rng(5)
        for cone in cones:
            v = rng.normal(size=3) * 2.0
            p = cone.project(v)
            for alpha in (0.0, 0.5, 2.0, 10.0):
                np.testing.assert_allclose(cone.project(alpha * v),
                                           alpha * p, atol=1e-9)

    def test_membership_closed_under_scaling(self):
        mean, _ = three_index_moments()
        cones = [ConvexCone.orthant(3), ConvexCone.half_space(mean),
                 limited_short_cone()]
        rng = np.random.default_rng(6)
        for cone in cones:
            for _ in range(10):
                u = cone.project(rng.normal(size=3) * 2.0)
                for alpha in (0.0, 0.5, 2.0, 10.0):
                    assert in_cone(cone, alpha * u, tol=1e-8)


@st.composite
def polyhedral_case(draw):
    """Rows A (1-6 of them in dimension 1-4) and a point v.  Besides
    generic rows: more rows than dimensions, duplicate and parallel rows,
    opposite rows (a hyperplane), origin-only cones, and row norms
    spread over six decades."""
    dim = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(
        ["generic", "duplicate", "parallel", "opposite", "origin_only"]))
    spread = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(m, dim))
    if shape == "duplicate" and m >= 2:
        rows[-1] = rows[0]
    elif shape == "parallel" and m >= 2:
        rows[-1] = 2.5 * rows[0]
    elif shape == "opposite" and m >= 2:
        rows[-1] = -rows[0]
    elif shape == "origin_only":
        # u >= 0 and -sum(u) >= 0 leave only the origin
        rows = np.vstack([np.eye(dim), -np.ones((1, dim)), rows])[:max(m, dim + 1)]
    if spread:
        rows *= 10.0 ** rng.uniform(-3.0, 3.0, size=(rows.shape[0], 1))
    v = rng.normal(size=dim) * 10.0 ** rng.uniform(-3.0, 3.0)
    return rows, v


class TestExactProjection:
    """p = project(v) and the NNLS multipliers mu* certify the KKT
    conditions of min |p - v| s.t. A p >= 0."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(polyhedral_case())
    def test_kkt_certificate(self, case):
        rows, v = case
        cone = ConvexCone.polyhedral(rows)
        p = cone.project(v)
        mu, _, resid = cone._moreau_split(v)
        mu = np.array(mu)
        row_norms = np.linalg.norm(rows, axis=1)
        vnorm = np.linalg.norm(v)
        ap = rows @ p
        assert np.all(ap >= -1e-12 * row_norms * vnorm)
        assert np.all(mu >= 0.0)
        assert abs(mu @ ap) <= 1e-12 * (mu @ row_norms) * vnorm
        polar_part = rows.T @ mu
        assert np.linalg.norm(v - p + polar_part) <= 1e-12 * (
            vnorm + mu @ row_norms)
        assert resid == pytest.approx(np.linalg.norm(p), abs=1e-12 * vnorm)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(polyhedral_case())
    def test_agrees_with_active_set_oracle(self, case):
        rows, v = case
        p = ConvexCone.polyhedral(rows).project(v)
        # The oracle's feasibility slack is absolute, so it is fed unit
        # rows and a unit point: neither changes the cone, and the
        # projection is positively homogeneous.
        vnorm = np.linalg.norm(v)
        unit_rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
        q = vnorm * _project_rows(v / vnorm, unit_rows)
        assert np.linalg.norm(p - q) <= 1e-9 * vnorm

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(polyhedral_case())
    def test_polar_membership_is_projection_to_zero(self, case):
        rows, v = case
        cone = ConvexCone.polyhedral(rows)
        p = cone.project(v)
        scale = max(1.0, np.linalg.norm(v))
        assert cone.polar_contains(v) == (np.linalg.norm(p) <= 1e-9 * scale)
        # Moreau: v - p lies in the polar and projects to the origin
        assert cone.polar_contains(v - p)
        assert np.linalg.norm(cone.project(v - p)) <= 1e-12 * scale

    def test_origin_only_cone_projects_everything_to_zero(self):
        rows = np.vstack([np.eye(3), -np.ones((1, 3))])
        cone = ConvexCone.polyhedral(rows)
        rng = np.random.default_rng(4)
        for v in rng.normal(size=(20, 3)) * 5.0:
            assert np.linalg.norm(cone.project(v)) <= 1e-12 * np.linalg.norm(v)
            assert cone.polar_contains(v)


@st.composite
def metric_case(draw):
    """A cone of any kind in dimension 1-4 with its row matrix A (no rows
    for the whole space), a point v, and a positive definite metric H
    whose condition number reaches 1e8."""
    kind = draw(st.sampled_from(cones.KINDS))
    dim = draw(st.integers(1, 4))
    log_cond = draw(st.sampled_from([0.0, 2.0, 5.0, 8.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eig = 10.0 ** rng.uniform(0.0, log_cond, size=dim)
    eig[0], eig[-1] = 1.0, 10.0 ** log_cond
    metric = (q * eig) @ q.T * 10.0 ** rng.uniform(-3.0, 3.0)
    metric = 0.5 * (metric + metric.T)
    if kind == "whole_space":
        cone, rows = ConvexCone.whole_space(dim), np.zeros((0, dim))
    elif kind == "orthant":
        cone, rows = ConvexCone.orthant(dim), np.eye(dim)
    elif kind == "half_space":
        rows = rng.normal(size=(1, dim))
        cone = ConvexCone.half_space(rows[0])
    else:
        rows = rng.normal(size=(int(rng.integers(1, 6)), dim))
        cone = ConvexCone.polyhedral(rows)
    v = rng.normal(size=dim) * 10.0 ** rng.uniform(-3.0, 3.0)
    return cone, rows, metric, v


class TestMetricProjection:
    """x = project(v, metric=H) minimises (x - v)'H(x - v) over the cone:
    a multiplier mu >= 0 on the rows active at x certifies
    H(x - v) = A'mu, A x >= 0 and mu'A x = 0."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(metric_case())
    def test_kkt_certificate(self, case):
        cone, rows, metric, v = case
        x = cone.project(v, metric=metric)
        # x is exact to rounding amplified by the metric's condition
        tol = 1e-14 * np.linalg.cond(metric) * np.linalg.norm(v)
        row_norms = np.linalg.norm(rows, axis=1)
        ax = rows @ x
        assert np.all(ax >= -tol * row_norms)
        force = metric @ (x - v)
        # The multiplier is found independently of the projection: NNLS
        # on the rows that hold with equality at x.
        active = np.abs(ax) <= 100.0 * tol * row_norms
        mu = np.zeros(rows.shape[0])
        if active.any():
            mu[active], _ = scipy.optimize.nnls(rows[active].T, force)
        assert np.all(mu >= 0.0)
        assert abs(mu @ ax) <= tol * (mu @ row_norms)
        assert np.linalg.norm(force - rows.T @ mu) <= (
            10.0 * tol * np.linalg.norm(metric, 2))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(metric_case())
    def test_identity_metric_is_euclidean(self, case):
        cone, _, metric, v = case
        got = cone.project(v, metric=np.eye(cone.dim))
        np.testing.assert_allclose(got, cone.project(v),
                                   atol=1e-12 * np.linalg.norm(v))

    def test_half_space_needs_no_least_squares(self, monkeypatch):
        def forbidden(rows, v):
            raise AssertionError("half-space projection called nnls")

        monkeypatch.setattr(cones, "_lawson_hanson", forbidden)
        cone = ConvexCone.half_space([1.0, -2.0, 0.5])
        metric = np.diag([1.0, 1e4, 1e-2])
        x = cone.project(np.array([-3.0, 1.0, 2.0]), metric=metric)
        assert abs(cone.rows[0] @ x) <= 1e-12

    def test_nnls_cap_raises_in_the_metric(self, monkeypatch):
        cone = ConvexCone.polyhedral(CASE3_ROWS)
        metric = np.array([[4.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.0]])
        v = np.array([-2.0, -1.0, 0.5])
        monkeypatch.setattr(cones, "NNLS_ITER_PER_ROW", 0)
        with pytest.raises(NoConvergence, match=NNLS_CAP_MESSAGE):
            cone.project(v, metric=metric)
        with pytest.raises(NoConvergence, match=NNLS_CAP_MESSAGE):
            ConvexCone.orthant(3).project(v, metric=metric)


@st.composite
def nnls_case(draw):
    """Rows and a point from :func:`polyhedral_case` (rank-deficient row
    sets with more rows than dimensions, rows scaled over six decades,
    origin-only cones), with no metric or a positive definite one whose
    condition number reaches 1e8."""
    rows, v = draw(polyhedral_case())
    log_cond = draw(st.sampled_from([None, 0.0, 2.0, 5.0, 8.0]))
    if log_cond is None:
        return rows, v, None
    dim = len(v)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eig = 10.0 ** rng.uniform(0.0, log_cond, size=dim)
    eig[0], eig[-1] = 1.0, 10.0 ** log_cond
    metric = (q * eig) @ q.T * 10.0 ** rng.uniform(-3.0, 3.0)
    return rows, v, 0.5 * (metric + metric.T)


class TestLawsonHanson:
    """The in-package least-squares solve against scipy's ``nnls``, an
    independent, compiled Lawson-Hanson on Householder transformations,
    given the same problem min_{mu >= 0} |L^-1 A' mu + L'v| (H = LL')."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(nnls_case())
    def test_agrees_with_scipy_nnls(self, case):
        rows, v, metric = case
        mu, _, resid = ConvexCone.polyhedral(rows)._moreau_split(v, metric)
        mu = np.array(mu)
        h = np.eye(len(v)) if metric is None else metric
        chol = np.linalg.cholesky(h)
        lhs, rhs = np.linalg.solve(chol, rows.T), -chol.T @ v
        ref_mu, ref_resid = scipy.optimize.nnls(lhs, rhs)

        def objective(m):
            return float(np.sum((lhs @ m - rhs) ** 2))

        assert abs(objective(mu) - objective(ref_mu)) <= 1e-12 * objective(
            np.zeros_like(mu))
        # the residual is exact to rounding amplified by the metric's
        # condition
        cond = np.linalg.cond(h)
        assert resid == pytest.approx(
            ref_resid, abs=1e-14 * max(100.0, cond) * np.linalg.norm(rhs))
        assert np.all(mu >= 0.0)
        # x lies in the cone, and a row with mu_i > 0 holds with equality
        x = v + np.linalg.solve(h, rows.T @ mu)
        tol = 1e-14 * cond * np.linalg.norm(v)
        row_norms = np.linalg.norm(rows, axis=1)
        assert np.all(rows @ x >= -tol * row_norms)
        assert abs(mu @ (rows @ x)) <= tol * (mu @ row_norms)

    def test_cap_raises(self, monkeypatch):
        cone = ConvexCone.polyhedral(CASE3_ROWS)
        v = np.array([-2.0, -1.0, 0.5])
        monkeypatch.setattr(cones, "NNLS_ITER_PER_ROW", 0)
        with pytest.raises(NoConvergence,
                           match="^nonnegative least squares stopped at its "
                                 "cap of 0 iterations$"):
            cone._moreau_split(v)


class TestOriginOnly:
    def test_boxed_in_rows_detected(self):
        rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        cone = ConvexCone.polyhedral(rows)
        np.testing.assert_allclose(cone.project(np.array([3.0, -2.0])),
                                   np.zeros(2), atol=1e-8)
        # polar of {0} is everything
        assert cone.polar_contains(np.array([5.0, -7.0]))

    def test_orthant_not_origin_only(self):
        # a cone other than {0} has a polar short of the whole space, so
        # some direction fails the first-order test at the origin
        for cone in (ConvexCone.orthant(3), limited_short_cone(),
                     ConvexCone.whole_space(2)):
            assert not all(cone.polar_contains(s * e)
                           for s in (1.0, -1.0) for e in np.eye(cone.dim))


class TestImmutability:
    def cones(self):
        return [ConvexCone.whole_space(2), ConvexCone.orthant(2),
                ConvexCone.half_space([1.0, -0.5]),
                ConvexCone.polyhedral([[1.0, 0.0], [0.3, 1.0]])]

    def test_fields_cannot_be_assigned(self):
        for cone in self.cones():
            for f in dataclasses.fields(cone):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(cone, f.name, getattr(cone, f.name))
        assert [f.name for f in dataclasses.fields(ConvexCone)] == [
            "kind", "rows"]

    def test_arrays_are_read_only_copies(self):
        normal = np.array([1.0, -0.5])
        rows = np.array([[1.0, 0.0], [0.3, 1.0]])
        half = ConvexCone("half_space", normal[None, :])  # a view of normal
        poly = ConvexCone("polyhedral", rows)
        normal[0] = rows[0, 0] = -9.0
        assert half.rows[0, 0] == 1.0 and poly.rows[0, 0] == 1.0
        for array in (half.rows, poly.rows):
            with pytest.raises(ValueError):
                array[0] = 0.0


class TestTcieConstruction:
    def test_three_index_mean_gives_half_space(self):
        mean, _ = three_index_moments()
        cone = construct_tcie_cone(mean)
        assert cone.kind == "half_space"
        np.testing.assert_allclose(cone.rows, [[0.09, 0.11, 0.12]],
                                   atol=1e-12)
        # defining property: -mean lies in the polar
        assert cone.polar_contains(-mean)

    def test_axis_mean(self):
        e1 = np.array([1.0, 0.0, 0.0])
        cone = construct_tcie_cone(e1)
        assert cone.polar_contains(-e1)
        # the orthant satisfies the same premise for this mean
        assert ConvexCone.orthant(3).polar_contains(-e1)

    def test_zero_mean_excess_rejected(self):
        with pytest.raises(ZeroMeanExcess):
            construct_tcie_cone(np.zeros(3))


class TestSerialization:
    def test_round_trip_all_kinds(self):
        mean, _ = three_index_moments()
        cones = [ConvexCone.whole_space(3), ConvexCone.orthant(3),
                 ConvexCone.half_space(mean), limited_short_cone()]
        rng = np.random.default_rng(17)
        for cone in cones:
            again = ConvexCone.from_dict(cone.to_dict(), dim=3)
            assert again.kind == cone.kind
            np.testing.assert_array_equal(again.rows, cone.rows)
            for _ in range(20):
                v = rng.normal(size=3) * 3.0
                np.testing.assert_allclose(again.project(v), cone.project(v),
                                           atol=1e-9)

    def test_unknown_type_rejected(self):
        with pytest.raises(InvalidCone):
            ConvexCone.from_dict({"type": "icecream"}, dim=3)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises((InvalidCone, DimensionMismatch)):
            ConvexCone.from_dict({"type": "half_space",
                                  "normal": [1.0, 2.0]}, dim=3)

    def test_zero_normal_rejected(self):
        with pytest.raises(InvalidCone):
            ConvexCone.half_space(np.zeros(3))

    def test_empty_rows_rejected(self):
        with pytest.raises(InvalidCone):
            ConvexCone.polyhedral(np.zeros((0, 3)))

    @pytest.mark.parametrize("make", [
        lambda: ConvexCone.half_space(["1.0", True, "2"]),
        lambda: ConvexCone.half_space([1.0, True, 2.0]),
        lambda: ConvexCone.half_space(np.array([True, False, True])),
        lambda: ConvexCone.polyhedral([[1.0, "0"], [0.0, 1.0]]),
        lambda: ConvexCone.polyhedral([[1.0, 0.0], [False, 1.0]]),
        lambda: ConvexCone("half_space", [[1.0, "2"]]),
        # 40 dimensions, past numpy's 32
        lambda: ConvexCone.half_space(nested(1.0, 40)),
    ])
    def test_booleans_and_strings_rejected(self, make):
        with pytest.raises(InvalidCone, match="array of numbers"):
            make()

    @pytest.mark.parametrize("kind, rows, message", [
        ("orthant", [1.0, 2.0], "must form a matrix"),
        ("whole_space", None, "must form a matrix"),
        ("bogus", [[1.0, 0.0]], "unknown cone type"),
        ("bogus", 2, "unknown cone type"),
    ])
    def test_constructor_checks_kind_and_shape(self, kind, rows, message):
        with pytest.raises(InvalidCone, match=message):
            ConvexCone(kind, rows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_normal_rejected(self, bad):
        with pytest.raises(InvalidCone, match="finite"):
            ConvexCone.half_space([1.0, bad, 0.5])
        with pytest.raises(InvalidCone, match="finite"):
            ConvexCone.from_dict({"type": "half_space",
                                  "normal": [1.0, bad, 0.5]}, dim=3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_rejected(self, bad):
        rows = CASE3_ROWS.copy()
        rows[2, 1] = bad
        with pytest.raises(InvalidCone, match="finite"):
            ConvexCone.polyhedral(rows)
        with pytest.raises(InvalidCone, match="finite"):
            ConvexCone.from_dict({"type": "polyhedral", "A": rows.tolist()},
                                 dim=3)
