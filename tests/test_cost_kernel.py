"""The screened SAA cost kernel against a plain full pass, the row-norm
layout of frozen samples, and the evaluation counters of a solve."""

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
from conemv.presets import mean_half_space_cone, three_index_market
from conemv.rng import STREAM_SAA
from conemv.solver import (ExactDiscreteBackend, SaaBackend,
                           SampleScreen, SolverOptions, _SCREEN_BLOCK,
                           _h_and_grad, backward_recursion, minimize_over_cone)
from conemv.cones import ConvexCone

B = _SCREEN_BLOCK


def full_pass(pts, sign, k, c_plus, c_minus):
    """h, grad h and the linear form straight from their definitions."""
    y = pts @ k
    below = y <= 1.0 if sign > 0 else y <= -1.0
    c = np.where(below, c_plus, c_minus)
    resid = 1.0 - y if sign > 0 else 1.0 + y
    value = np.mean(c * resid ** 2)
    grad = np.mean((-2.0 * sign * c * resid)[:, None] * pts, axis=0)
    return value, grad, np.mean(c * resid)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sign=st.sampled_from([1, -1]),
       n_rows=st.sampled_from([2, B - 1, B, B + 1, 3 * B]),
       kind=st.sampled_from(["random", "zero", "huge", "boundary", "kink"]))
def test_screened_kernel_matches_full_pass(seed, sign, n_rows, kind):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    drawn = (rng.normal(scale=rng.uniform(0.05, 0.5), size=(n_rows, n))
             + rng.normal(scale=0.05, size=n))
    k = rng.normal(scale=rng.uniform(0.1, 8.0), size=n)
    if kind == "zero":
        k = np.zeros(n)
    elif kind == "huge":
        k = k * 1e6
    elif kind == "kink":
        # one row exactly at P'k = +-1, the branch threshold
        drawn[int(rng.integers(n_rows))] = sign * k / (k @ k)
    screen = SampleScreen(drawn)
    pts = screen.points
    if kind == "boundary":
        # |k| = 1 / (largest norm of block b): the split falls exactly on
        # the end of block b - 1
        b = int(rng.integers(len(screen.top)))
        k = k / np.linalg.norm(k) / screen.top[b]
    c_plus, c_minus = rng.uniform(0.05, 1.5, size=2)

    got = _h_and_grad(pts, None, sign, k, c_plus, c_minus, screen)
    value, grad, lin = full_pass(pts, sign, k, c_plus, c_minus)

    bound = 1.0 + np.linalg.norm(pts, axis=1) * np.linalg.norm(k)
    c_max = max(c_plus, c_minus)
    assert abs(got.value - value) <= 1e-12 * c_max * np.mean(bound ** 2)
    assert abs(got.lin - lin) <= 1e-12 * c_max * np.mean(bound)
    g_scale = 2.0 * c_max * np.mean(np.linalg.norm(pts, axis=1) * bound)
    assert np.linalg.norm(got.grad - grad) <= 1e-12 * max(g_scale, 1e-300)

    if kind == "zero":
        assert got.rows_read == 0
    if kind == "huge":
        assert got.rows_read == n_rows
    if kind == "boundary":
        assert got.rows_read == n_rows - screen.rows[b]
    if kind == "kink":
        assert got.rows_read >= 1


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), sign=st.sampled_from([1, -1]),
       n_rows=st.sampled_from([2, B - 1, 3 * B]),
       scale=st.sampled_from([0.0, 1.0, 4.0, 1e6]))
def test_hessian_matches_its_definition(seed, sign, n_rows, scale):
    """2 E[c(k) P P'] on the screened, unscreened and weighted paths."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    screen = SampleScreen(rng.normal(scale=0.3, size=(n_rows, n)))
    pts = screen.points
    k = scale * rng.normal(size=n)
    c_plus, c_minus = rng.uniform(0.05, 1.5, size=2)
    y = pts @ k
    c = np.where(y <= 1.0 if sign > 0 else y <= -1.0, c_plus, c_minus)
    want = 2.0 * (pts.T * c) @ pts / n_rows
    bound = 1e-12 * max(c_plus, c_minus) * np.mean(np.sum(pts ** 2, axis=1))
    for got in (_h_and_grad(pts, None, sign, k, c_plus, c_minus, screen),
                _h_and_grad(pts, None, sign, k, c_plus, c_minus),
                _h_and_grad(pts, np.full(n_rows, 1.0 / n_rows), sign, k,
                            c_plus, c_minus)):
        assert np.max(np.abs(got.hess - want)) <= bound


def test_without_screen_every_row_is_read():
    rng = np.random.default_rng(3)
    pts = rng.normal(scale=0.3, size=(500, 3))
    k = rng.normal(size=3)
    for sign in (1, -1):
        got = _h_and_grad(pts, None, sign, k, 0.7, 1.1)
        value, grad, lin = full_pass(pts, sign, k, 0.7, 1.1)
        assert got.rows_read == 500
        assert got.value == pytest.approx(value, rel=1e-13)
        assert got.lin == pytest.approx(lin, rel=1e-13)
        np.testing.assert_allclose(got.grad, grad, rtol=1e-12)


def test_block_moments_sum_the_whole_sample():
    rng = np.random.default_rng(4)
    drawn = rng.normal(size=(2 * B + 17, 3))
    screen = SampleScreen(drawn.copy())
    a = np.hstack([np.ones((drawn.shape[0], 1)), drawn])
    np.testing.assert_allclose(screen.moments[-1], a.T @ a, rtol=1e-12)
    norms = np.sqrt(np.einsum("ij,ij->i", screen.points, screen.points))
    assert np.all(np.diff(norms) >= 0.0)
    np.testing.assert_array_equal(screen.top, norms[screen.rows[1:] - 1])


def test_saa_points_are_a_row_permutation_of_the_draw(three_gauss):
    n = B + 1000
    a = SaaBackend(three_gauss, n, seed=11)
    b = SaaBackend(three_gauss, n, seed=11)
    for t in range(three_gauss.horizon):
        drawn = three_gauss.sample_block(t, 11, 0, n, stream=STREAM_SAA)
        norms = np.sqrt(np.einsum("ij,ij->i", drawn, drawn))
        order = np.argsort(norms, kind="stable")
        np.testing.assert_array_equal(a.screen(t).points, drawn[order])
        np.testing.assert_array_equal(a.screen(t).points, b.screen(t).points)


def test_tied_norms_keep_the_stable_order():
    rng = np.random.default_rng(6)
    base = rng.normal(size=(5, 2))
    # (a, b), (b, a) and (-a, -b) tie in norm without being equal
    rows = np.vstack([base, base[:, ::-1], -base])
    drawn = rows[rng.integers(0, len(rows), size=3 * B)]
    norms = np.sqrt(np.einsum("ij,ij->i", drawn, drawn))
    expected = drawn[np.argsort(norms, kind="stable")]
    np.testing.assert_array_equal(SampleScreen(drawn).points, expected)


def test_memory_preflight_refuses_before_drawing(three_gauss):
    with pytest.raises(InsufficientMemory, match="GiB"):
        SaaBackend(three_gauss, 10_000_000_000, seed=0)


def test_a_dropped_period_draws_again_bit_for_bit(three_t):
    """The backend holds the period it drew last; a period drawn again
    after it was dropped is the first draw, bit for bit."""
    backend = SaaBackend(three_t, B + 1000, seed=11)
    first = backend.screen(0)
    assert backend.screen(0) is first  # held, not drawn again
    kept = {name: getattr(first, name).copy()
            for name in ("points", "top", "rows", "moments")}
    held = weakref.ref(first)
    backend.screen(1)
    del first
    gc.collect()
    assert held() is None  # period 0 was dropped
    again = backend.screen(0)
    for name, value in kept.items():
        np.testing.assert_array_equal(getattr(again, name), value)


def test_the_sort_holds_2n_plus_1_doubles_a_row():
    """Sorting a period holds at its peak the draw, its permutation and
    the order: 2n + 1 doubles a row, plus the block table."""
    n_rows, n = 200_000, 3
    drawn = np.random.default_rng(8).normal(size=(n_rows, n))
    tracemalloc.start()  # after the draw: its bytes are added below
    try:
        SampleScreen(drawn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert drawn.nbytes + peak <= (2 * n + 1) * 8 * n_rows + 64 * 1024


def recorded_screens(monkeypatch) -> list:
    """Weak references to every SampleScreen the solver builds from now."""
    made = []

    class Recorded(SampleScreen):
        def __init__(self, drawn):
            super().__init__(drawn)
            made.append(weakref.ref(self))

    monkeypatch.setattr(solver, "SampleScreen", Recorded)
    return made


def test_no_sample_outlives_a_solve_that_returns(monkeypatch, three_gauss):
    made = recorded_screens(monkeypatch)
    backend = SaaBackend(three_gauss, 20_000, seed=3)
    backward_recursion(three_gauss, mean_half_space_cone(), backend)
    gc.collect()
    assert len(made) == three_gauss.horizon
    assert made[-1]() is None  # while the backend lives on


def test_no_sample_outlives_a_solve_that_raises(monkeypatch, three_gauss):
    made = recorded_screens(monkeypatch)
    backend = SaaBackend(three_gauss, 20_000, seed=3)
    with pytest.raises(NoConvergence):
        backward_recursion(three_gauss, mean_half_space_cone(), backend,
                           SolverOptions(max_iter=0))
    gc.collect()
    assert len(made) == 1
    assert made[-1]() is None  # while the backend lives on


def test_a_cost_after_the_solve_draws_the_period_again(three_gauss):
    """A cost asked of the backend after its solve draws the released
    period again, bit for bit: it equals the solve's own value."""
    backend = SaaBackend(three_gauss, 20_000, seed=3)
    table = backward_recursion(three_gauss, mean_half_space_cone(), backend)
    assert backend._held is None
    solved = next(d for d in table.diagnostics
                  if (d["t"], d["sign"]) == (0, 1))
    assert solved["method"] == "projected_gradient"
    again = backend.cost(0, 1, table.k_plus[0], table.c_plus[1],
                         table.c_minus[1])
    assert again.value == solved["value"]


@pytest.mark.parametrize("family", ["gaussian", "student_t"])
def test_solve_peak_stays_within_the_preflight(monkeypatch, family):
    """A 200K-sample, three-period solve allocates at its peak no more
    than the backend's preflight counts, which is one period's."""
    market = three_index_market(family)
    market.sample_block(0, 0, 0, 2)  # scipy.special and the t table
    needs = []
    monkeypatch.setattr(solver, "require_memory",
                        lambda need, what: needs.append(need))
    tracemalloc.start()
    try:
        backward_recursion(market, mean_half_space_cone(),
                           SaaBackend(market, 200_000, seed=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(needs) == 1 and peak <= needs[0]


def test_solve_reports_evaluations_and_rows_read(three_gauss):
    table = backward_recursion(three_gauss, mean_half_space_cone(),
                               SaaBackend(three_gauss, 50_000, seed=2))
    solved = [d for d in table.diagnostics if d.get("method") ==
              "projected_gradient"]
    assert solved
    for d in solved:
        assert d["evaluations"] >= d["iterations"] + 2
        assert 0.0 < d["rows_touched_share"] < 1.0
    for d in table.diagnostics:
        if d.get("method") == "zero_test":
            assert d["evaluations"] == 0


def test_diagnostics_round_trip(tree_market, tree_backend):
    table = backward_recursion(tree_market, ConvexCone.orthant(2),
                               tree_backend)
    again = json.loads(json.dumps(table.to_dict()))
    assert again["diagnostics"] == table.diagnostics
    for d in again["diagnostics"]:
        if d.get("method") == "projected_gradient":
            assert d["rows_touched_share"] == 1.0  # exact: no screen
            assert d["evaluations"] >= 2


@pytest.mark.parametrize("sign", [1, -1])
def test_kept_gradient_equals_a_fresh_evaluation(three_gauss, sign):
    """The optimizer hands back the gradient of its last accepted step;
    the residuals built from it are bit-identical to a recomputation."""
    backend = SaaBackend(three_gauss, 50_000, seed=5)
    cone = ConvexCone.orthant(3)
    res = minimize_over_cone(backend, 0, sign, cone, 0.8, 0.9,
                             SolverOptions())
    g = backend.cost(0, sign, res.k, 0.8, 0.9).grad
    assert res.pg_residual == float(np.linalg.norm(res.k - cone.project(res.k - g)))
    assert res.complementarity == abs(float(g @ res.k))


def test_exact_backend_reads_every_atom(tree_market):
    """The exact backend has no screen: every atom is read directly,
    even at a k small enough for a screen to skip them all."""
    backend = ExactDiscreteBackend(tree_market)
    period = tree_market.periods[0]
    k = np.array([0.3, -0.2])
    assert np.max(np.linalg.norm(period.atoms, axis=1)) * np.linalg.norm(k) < 1
    got = backend.cost(0, 1, k, 0.6, 0.9)
    assert got.rows_read == period.atoms.shape[0] == backend.n_rows(0)
    want = _h_and_grad(period.atoms, period.probs, 1, k, 0.6, 0.9)
    assert (got.value, got.lin) == (want.value, want.lin)
    np.testing.assert_array_equal(got.grad, want.grad)
