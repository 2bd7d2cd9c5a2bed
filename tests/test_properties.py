"""Randomized invariants: cost monotonicity, optimality residuals, duals,
and cone geometry, each exercised on at least a hundred instances."""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import random_cone, random_tree_market
from oracles import dual_value, in_cone
from conemv.cones import ConvexCone
from conemv.errors import NoConvergence, TargetUnattainable
from conemv.policy import mu_star
from conemv.solver import ExactDiscreteBackend, backward_recursion, linear_form

COMMON = dict(max_examples=120, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.filter_too_much])

seeds = st.integers(min_value=0, max_value=10 ** 6)

_CACHE: dict = {}


def solved_instance(seed):
    """Small exact-tree problem, memoized because hypothesis replays."""
    if seed not in _CACHE:
        market = random_tree_market(seed, horizon=2)
        cone, _ = random_cone(seed + 7919, market.n_assets)
        backend = ExactDiscreteBackend(market)
        table = backward_recursion(market, cone, backend)
        _CACHE[seed] = (market, cone, backend, table)
    return _CACHE[seed]


def any_cone(seed, dim):
    rng = np.random.default_rng(seed)
    if rng.integers(0, 4) == 3 and dim >= 2:
        rows = rng.normal(size=(rng.integers(1, dim + 1), dim))
        return ConvexCone.polyhedral(rows)
    return random_cone(seed, dim)[0]


def cone_points(cone, seed, count=16):
    rng = np.random.default_rng(seed)
    return [cone.project(v) for v in rng.normal(size=(count, cone.dim))]


@settings(**COMMON)
@given(seeds)
def test_cost_scalars_decrease_and_vanish_only_at_zero_gain(seed):
    market, cone, backend, table = solved_instance(seed)
    for t in range(table.horizon):
        for ks, cs in ((table.k_plus, table.c_plus),
                       (table.k_minus, table.c_minus)):
            assert 0.0 < cs[t] <= cs[t + 1] + 1e-15
            decrease = cs[t + 1] - cs[t]
            knorm = float(np.linalg.norm(ks[t]))
            if knorm > 1e-6:
                assert decrease > 1e-9
            if decrease < 1e-9:
                assert knorm <= 1e-6


@settings(**COMMON)
@given(seeds)
def test_quadratic_and_linear_costs_agree_at_optima(seed):
    market, cone, backend, table = solved_instance(seed)
    for diag in table.diagnostics:
        if "note" in diag:
            continue
        t, sign = diag["t"], diag["sign"]
        k = table.k_plus[t] if sign == 1 else table.k_minus[t]
        period = backend.period(t)
        quad = period.cost(sign, k,
                           table.c_plus[t + 1], table.c_minus[t + 1]).value
        lin = linear_form(period, sign, k,
                          table.c_plus[t + 1], table.c_minus[t + 1])
        assert abs(quad - lin) <= 1e-6 * max(1.0, abs(quad))


@settings(**COMMON)
@given(seeds, st.sampled_from([1, -1]))
def test_gradient_matches_central_differences(seed, sign):
    market = random_tree_market(seed, horizon=1)
    backend = ExactDiscreteBackend(market)
    rng = np.random.default_rng(seed + 31)
    k = rng.normal(scale=0.8, size=market.n_assets)
    cp = float(rng.uniform(0.3, 1.0))
    cm = float(rng.uniform(cp, 1.5))
    # The cost is only piecewise smooth; step away from the kink set.
    margins = np.abs(market.periods[0].atoms @ k - sign)
    assume(float(margins.min()) > 1e-3)

    period = backend.period(0)
    grad = period.cost(sign, k, cp, cm).grad
    fd = np.empty_like(grad)
    step = 1e-6
    for i in range(k.shape[0]):
        e = np.zeros_like(k)
        e[i] = step
        fd[i] = (period.cost(sign, k + e, cp, cm).value
                 - period.cost(sign, k - e, cp, cm).value) / (2 * step)
    assert np.linalg.norm(fd - grad) <= 1e-4 * max(1.0, np.linalg.norm(grad))


@settings(**COMMON)
@given(seeds)
def test_optimality_residuals_within_tolerance(seed):
    market, cone, backend, table = solved_instance(seed)
    checked = 0
    for diag in table.diagnostics:
        if "note" in diag:
            continue
        scale = max(1.0, abs(diag["value"]))
        assert diag["complementarity"] <= 1e-6 * scale
        assert diag["vi_min"] >= -1e-6 * scale
        checked += 1
    assert checked == 2 * table.horizon


@settings(**COMMON)
@given(seeds, st.floats(0.6, 1.4), st.floats(-0.4, 0.9))
def test_dual_objective_concave_and_maximized_at_mu_star(seed, x0, delta):
    market, cone, backend, table = solved_instance(seed)
    d = table.rho(0) * x0 + delta
    try:
        mu = mu_star(table, x0, d)
    except TargetUnattainable:
        assume(False)
    peak = dual_value(table, x0, d, mu)
    for eps in (1e-4, 1e-2, 0.1, 0.5):
        assert dual_value(table, x0, d, mu + eps) <= peak + 1e-10 * max(1, abs(peak))
        assert dual_value(table, x0, d, mu - eps) <= peak + 1e-10 * max(1, abs(peak))
    rng = np.random.default_rng(seed + 131)
    pts = mu + rng.uniform(-1.0, 1.0, size=6)
    for a, b in zip(pts[::2], pts[1::2]):
        mid = dual_value(table, x0, d, 0.5 * (a + b))
        chord = 0.5 * (dual_value(table, x0, d, a) + dual_value(table, x0, d, b))
        assert mid >= chord - 1e-10 * max(1.0, abs(mid))


@settings(**COMMON)
@given(seeds, st.integers(1, 4))
def test_projection_idempotent_feasible_and_optimal(seed, dim):
    cone = any_cone(seed, dim)
    rng = np.random.default_rng(seed + 17)
    v = rng.normal(scale=2.0, size=dim)
    # Near-degenerate random wedges can exhaust the alternating-projection
    # cycle cap; that failure is declared, not silent, so skip those draws.
    try:
        p = cone.project(v)
        scale = max(1.0, float(np.linalg.norm(v)))
        assert np.linalg.norm(cone.project(p) - p) <= 1e-10 * scale
        assert in_cone(cone, p, tol=1e-8 * scale)
        # Obtuse-angle optimality: no feasible point improves on p.
        for u in cone_points(cone, seed + 59):
            assert (v - p) @ (u - p) <= 1e-8 * scale ** 2
    except NoConvergence:
        assume(False)


@settings(**COMMON)
@given(seeds, st.integers(1, 4))
def test_cone_closed_under_nonnegative_scaling(seed, dim):
    cone = any_cone(seed, dim)
    rng = np.random.default_rng(seed + 23)
    v = rng.normal(scale=2.0, size=dim)
    try:
        p = cone.project(v)
        for alpha in (0.0, 0.5, 2.0, 10.0):
            assert in_cone(cone, alpha * p, tol=1e-8 * max(1.0, alpha))
            # Homogeneity of the projection, at the accuracy the iterative
            # polyhedral routine actually delivers near the origin.
            lhs = cone.project(alpha * v)
            assert np.allclose(
                lhs, alpha * p,
                atol=1e-7 * max(1.0, alpha) * max(1.0, np.linalg.norm(v)))
    except NoConvergence:
        assume(False)
