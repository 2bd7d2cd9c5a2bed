"""The SAA cost kernel's direct pass against plain references, the
period a backend draws, and the evaluation counters of a solve."""

import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conemv import solver
from conemv.errors import InsufficientMemory, NoConvergence
from conemv.market import MarketSpec, PeriodDistribution
from conemv.presets import (mean_half_space_cone, three_index_market,
                            three_index_moments)
from conemv.rng import STREAM_SAA
from conemv.solver import (ExactDiscreteBackend, SaaBackend, SolverOptions,
                           _h_and_grad, backward_recursion, minimize_over_cone)
from conemv.cones import ConvexCone


def full_pass(pts, sign, k, c_plus, c_minus):
    """h, grad h and the linear form straight from their definitions."""
    y = pts @ k
    below = y <= 1.0 if sign > 0 else y <= -1.0
    c = np.where(below, c_plus, c_minus)
    resid = 1.0 - y if sign > 0 else 1.0 + y
    value = np.mean(c * resid ** 2)
    grad = np.mean((-2.0 * sign * c * resid)[:, None] * pts, axis=0)
    return value, grad, np.mean(c * resid)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sign=st.sampled_from([1, -1]),
       n_rows=st.sampled_from([2, 3, 257, 5000]),
       kind=st.sampled_from(["random", "zero", "huge", "kinks",
                             "all_minority", "equal_constants"]))
def test_direct_pass_matches_a_where_reference(seed, sign, n_rows, kind):
    """Value, gradient, linear form and Hessian of the uniform pass
    against c(k) = np.where(...) row by row, each to 1e-13 of the sum of
    its terms' magnitudes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    pts = (rng.normal(scale=rng.uniform(0.05, 0.5), size=(n_rows + 2, n))
           + rng.normal(scale=0.05, size=n))
    k = rng.normal(scale=rng.uniform(0.1, 8.0), size=n)
    c_plus, c_minus = rng.uniform(0.05, 1.5, size=2)
    if kind == "zero":
        k = np.zeros(n)
    elif kind == "huge":
        k = k * 1e6
    elif kind == "kinks":
        # two rows exactly at P'k = +1 and P'k = -1, the two thresholds
        k[0] = rng.choice([-1.0, 1.0]) * 2.0 ** int(rng.integers(-3, 4))
        pts[:2] = 0.0
        pts[:2, 0] = (1.0 / k[0], -1.0 / k[0])
    elif kind == "all_minority":
        y = pts @ k
        shift = 1.5 - y.min() if sign > 0 else -1.5 - y.max()
        pts += (shift / (k @ k)) * k
    elif kind == "equal_constants":
        c_minus = c_plus

    y = pts @ k
    if kind == "kinks":
        assert (y[0], y[1]) == (1.0, -1.0)
    c = np.where(y <= sign, c_plus, c_minus)
    c_maj = c_plus if sign > 0 else c_minus
    if kind == "all_minority":
        assert c_plus != c_minus and np.all(c != c_maj)
    resid = 1.0 - y if sign > 0 else 1.0 + y
    m = pts.shape[0]
    want_value = np.mean(c * resid * resid)
    want_lin = np.mean(c * resid)
    want_grad = -2.0 * sign * (pts.T @ (c * resid)) / m
    want_hess = 2.0 * (pts.T * c) @ pts / m

    for gram in (None, pts.T @ pts):
        got = _h_and_grad(pts, None, sign, k, c_plus, c_minus, gram)
        c_max = max(c_plus, c_minus)
        assert abs(got.value - want_value) <= 1e-13 * c_max * np.mean(
            resid * resid)
        assert abs(got.lin - want_lin) <= 1e-13 * c_max * np.mean(
            np.abs(resid))
        g_scale = 2.0 * c_max * np.mean(np.abs(resid)[:, None]
                                        * np.abs(pts), axis=0)
        assert np.all(np.abs(got.grad - want_grad) <= 1e-13 * g_scale)
        h_scale = 2.0 * c_max * (np.abs(pts).T @ np.abs(pts)) / m
        assert np.all(np.abs(got.hess - want_hess) <= 1e-13 * h_scale)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sign=st.sampled_from([1, -1]),
       n_rows=st.sampled_from([2, 4095, 12288]),
       scale=st.sampled_from([0.0, 1.0, 4.0, 1e6]))
def test_hessian_matches_its_definition(seed, sign, n_rows, scale):
    """2 E[c(k) P P'] with a period's Gram matrix, without one, and on the
    weighted path."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    pts = rng.normal(scale=0.3, size=(n_rows, n))
    k = scale * rng.normal(size=n)
    c_plus, c_minus = rng.uniform(0.05, 1.5, size=2)
    y = pts @ k
    c = np.where(y <= 1.0 if sign > 0 else y <= -1.0, c_plus, c_minus)
    want = 2.0 * (pts.T * c) @ pts / n_rows
    bound = 1e-12 * max(c_plus, c_minus) * np.mean(np.sum(pts ** 2, axis=1))
    for got in (_h_and_grad(pts, None, sign, k, c_plus, c_minus,
                            pts.T @ pts),
                _h_and_grad(pts, None, sign, k, c_plus, c_minus),
                _h_and_grad(pts, np.full(n_rows, 1.0 / n_rows), sign, k,
                            c_plus, c_minus)):
        assert np.max(np.abs(got.hess - want)) <= bound


def test_without_screen_every_row_is_read():
    """Without a period's Gram matrix the pass forms P'P itself; value,
    gradient and linear form match the definitions over every row."""
    rng = np.random.default_rng(3)
    pts = rng.normal(scale=0.3, size=(500, 3))
    k = rng.normal(size=3)
    for sign in (1, -1):
        got = _h_and_grad(pts, None, sign, k, 0.7, 1.1)
        value, grad, lin = full_pass(pts, sign, k, 0.7, 1.1)
        assert got.value == pytest.approx(value, rel=1e-13)
        assert got.lin == pytest.approx(lin, rel=1e-13)
        np.testing.assert_allclose(got.grad, grad, rtol=1e-12)


def test_saa_holds_the_draw_and_its_gram(three_gauss):
    """A period's rows are its draw, unsorted and unweighted, and its Gram
    matrix is their P'P."""
    n = 5000
    a = SaaBackend(three_gauss, n, seed=11)
    b = SaaBackend(three_gauss, n, seed=11)
    for t in range(three_gauss.horizon):
        drawn = three_gauss.sample_block(t, 11, 0, n, stream=STREAM_SAA)
        period = a.period(t)
        assert period.t == t and period.law is three_gauss.periods[t]
        assert period.w is None
        np.testing.assert_array_equal(period.pts, drawn)
        np.testing.assert_array_equal(period.gram, drawn.T @ drawn)
        np.testing.assert_array_equal(period.pts, b.period(t).pts)


def test_memory_preflight_refuses_before_drawing(three_gauss):
    with pytest.raises(InsufficientMemory, match="GiB"):
        SaaBackend(three_gauss, 10_000_000_000, seed=0)


def test_a_dropped_period_draws_again_bit_for_bit(three_t):
    """Each call draws the period anew: two calls for one period, with
    another period drawn between them, give the same sample and Gram
    matrix, bit for bit."""
    backend = SaaBackend(three_t, 5000, seed=11)
    first = backend.period(0)
    backend.period(1)
    again = backend.period(0)
    np.testing.assert_array_equal(again.pts, first.pts)
    np.testing.assert_array_equal(again.gram, first.gram)


def recorded_samples(monkeypatch) -> list:
    """Weak references to every SAA sample the solver draws from now."""
    made = []
    draw = MarketSpec.sample_block

    def recorded(self, *args, **kwargs):
        sample = draw(self, *args, **kwargs)
        made.append(weakref.ref(sample))
        return sample

    monkeypatch.setattr(MarketSpec, "sample_block", recorded)
    return made


def test_no_sample_outlives_a_solve_that_returns(monkeypatch, three_gauss):
    made = recorded_samples(monkeypatch)
    backend = SaaBackend(three_gauss, 20_000, seed=3)
    backward_recursion(three_gauss, mean_half_space_cone(), backend)
    gc.collect()
    assert len(made) == three_gauss.horizon
    assert made[-1]() is None  # while the backend lives on


def test_no_sample_outlives_a_solve_that_raises(monkeypatch, three_gauss):
    made = recorded_samples(monkeypatch)
    backend = SaaBackend(three_gauss, 20_000, seed=3)
    with pytest.raises(NoConvergence):
        backward_recursion(three_gauss, mean_half_space_cone(), backend,
                           SolverOptions(max_iter=0))
    gc.collect()
    assert len(made) == 1
    assert made[-1]() is None  # while the backend lives on


def test_a_cost_after_the_solve_draws_the_period_again(monkeypatch,
                                                       three_gauss):
    """A cost asked of the backend after its solve draws the period
    again, bit for bit: it equals the solve's own value."""
    made = recorded_samples(monkeypatch)
    backend = SaaBackend(three_gauss, 20_000, seed=3)
    table = backward_recursion(three_gauss, mean_half_space_cone(), backend)
    assert len(made) == three_gauss.horizon
    solved = next(d for d in table.diagnostics
                  if (d["t"], d["sign"]) == (0, 1))
    assert solved["method"] == "projected_gradient"
    again = backend.period(0).cost(1, table.k_plus[0], table.c_plus[1],
                                   table.c_minus[1])
    assert len(made) == three_gauss.horizon + 1
    assert again.value == solved["value"]


@pytest.mark.parametrize("kind", ["exact", "saa"])
def test_the_recursion_asks_each_period_once_from_the_last(
        monkeypatch, kind, tree_market, three_gauss):
    if kind == "exact":
        market, backend = tree_market, ExactDiscreteBackend(tree_market)
    else:
        market, backend = three_gauss, SaaBackend(three_gauss, 5000, seed=3)
    asked = []
    period = backend.period

    def recorded(t):
        asked.append(t)
        return period(t)

    monkeypatch.setattr(backend, "period", recorded)
    backward_recursion(market, ConvexCone.orthant(market.n_assets), backend)
    assert asked == list(reversed(range(market.horizon)))


@pytest.mark.parametrize("family", ["gaussian", "student_t"])
def test_solve_peak_stays_within_the_preflight(monkeypatch, family):
    """A 200K-sample, three-period solve allocates at its peak no more
    than the backend's preflight counts, which is one period's; so does
    the pass's worst case, a draw and a cost at a k that puts every row
    on the minority branch."""
    market = three_index_market(family)
    market.sample_block(0, 0, 0, 2)  # scipy.special and the t table
    mean, cov = three_index_moments()
    law = (PeriodDistribution.gaussian(10.0 * mean, 1e-4 * cov)
           if family == "gaussian" else
           PeriodDistribution.student_t(10.0 * mean, 1e-4 * cov, 5.0))
    shifted = MarketSpec.iid(1, 1.05, law)
    k = np.ones(3)  # P'k near 3.2 on every row of the shifted law
    needs = []
    monkeypatch.setattr(solver, "require_memory",
                        lambda need, what: needs.append(need))
    tracemalloc.start()
    try:
        backward_recursion(market, mean_half_space_cone(),
                           SaaBackend(market, 200_000, seed=2))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        worst = SaaBackend(shifted, 200_000, seed=2)
        worst.period(0).cost(1, k, 0.5, 0.9)
        worst_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(worst.period(0).pts @ k > 1.0)  # all on the minority
    assert len(needs) == 2 and needs[0] == needs[1]
    assert peak <= needs[0] and worst_peak <= needs[1]


def test_solve_reports_evaluations_and_rows_read(monkeypatch, three_gauss):
    """Each branch reports its evaluations, and every evaluation reads
    all N rows: the counted evaluations, plus one linear form per solved
    branch, are every pass the solve makes."""
    passes = []
    evaluate = solver._h_and_grad

    def counted(pts, *args):
        passes.append(pts.shape[0])
        return evaluate(pts, *args)

    monkeypatch.setattr(solver, "_h_and_grad", counted)
    table = backward_recursion(three_gauss, mean_half_space_cone(),
                               SaaBackend(three_gauss, 50_000, seed=2))
    solved = [d for d in table.diagnostics if d.get("method") ==
              "projected_gradient"]
    assert solved
    for d in solved:
        assert d["evaluations"] >= d["iterations"] + 2
    for d in table.diagnostics:
        if d.get("method") == "zero_test":
            assert d["evaluations"] == 0
    linear_forms = sum(not d["snapped_zero"] for d in table.diagnostics)
    assert len(passes) == sum(d["evaluations"] for d in table.diagnostics
                              ) + linear_forms
    assert set(passes) == {50_000}


def test_diagnostics_round_trip(tree_market, tree_backend):
    table = backward_recursion(tree_market, ConvexCone.orthant(2),
                               tree_backend)
    again = json.loads(json.dumps(table.to_dict()))
    assert again["diagnostics"] == table.diagnostics
    for d in again["diagnostics"]:
        if d.get("method") == "projected_gradient":
            assert d["evaluations"] >= 2


@pytest.mark.parametrize("sign", [1, -1])
def test_kept_gradient_equals_a_fresh_evaluation(three_gauss, sign):
    """The optimizer hands back the gradient of its last accepted step;
    the residuals built from it are bit-identical to a recomputation."""
    backend = SaaBackend(three_gauss, 50_000, seed=5)
    cone = ConvexCone.orthant(3)
    res = minimize_over_cone(backend.period(0), sign, cone, 0.8, 0.9,
                             SolverOptions())
    g = backend.period(0).cost(sign, res.k, 0.8, 0.9).grad
    assert res.pg_residual == float(
        np.linalg.norm(res.k - cone.project(res.k - g)))
    assert res.complementarity == abs(float(g @ res.k))


def test_exact_backend_reads_every_atom(tree_market):
    """The exact backend reads every atom directly, with its probability,
    even at a k that keeps every atom on the majority branch."""
    backend = ExactDiscreteBackend(tree_market)
    period = tree_market.periods[0]
    k = np.array([0.3, -0.2])
    assert np.max(np.linalg.norm(period.atoms, axis=1)) * np.linalg.norm(k) < 1
    got = backend.period(0).cost(1, k, 0.6, 0.9)
    want = _h_and_grad(period.atoms, period.probs, 1, k, 0.6, 0.9)
    assert (got.value, got.lin) == (want.value, want.lin)
    np.testing.assert_array_equal(got.grad, want.grad)
