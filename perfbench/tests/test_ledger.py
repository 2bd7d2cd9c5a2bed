"""Failure counting, timing summaries and the tree oracle."""

import numpy as np
import pytest

from conftest import ROOT
from conemv import solver, vssm
from conemv.cones import ConvexCone
from conemv.errors import ConsistencyError, NoConvergence
import run
from run import tail_percentile
from workloads import (WORKLOADS, CliTLimitedShort, Corpus, HonestFailure,
                       Ledger, TreeSweep, cli_failure, density_mean_gap,
                       tree_paths)


def boom(exc):
    raise exc


def test_successful_call_is_timed_and_counted():
    ledger = Ledger()
    ledger.start_round()
    ok, value = ledger.call("solve", lambda x: x * 2, 21)
    assert (ok, value) == (True, 42)
    assert (ledger.attempted, ledger.failed, ledger.wrong) == (1, 0, 0)
    assert len(ledger.times["solve"]) == 1
    assert ledger.rounds[0]["solve"] == ledger.times["solve"][0]


@pytest.mark.parametrize("exc, wrong", [
    (NoConvergence("stalled"), 0),
    (HonestFailure("exit 1: error: target unattainable"), 0),
    (ConsistencyError("quadratic/linear mismatch"), 1),
    (ValueError("unexpected"), 1),
])
def test_raising_call_counts_as_failed(exc, wrong):
    ledger = Ledger()
    ok, value = ledger.call("solve", boom, exc)
    assert (ok, value) == (False, None)
    assert (ledger.attempted, ledger.failed, ledger.wrong) == (1, 1, wrong)
    assert ledger.times["solve"] == []
    assert ledger.failures[0].startswith("solve: " + type(exc).__name__)


def test_checks_count_and_audits_do_not_mark_wrong():
    ledger = Ledger()
    assert ledger.check("identity", True)
    assert not ledger.check("identity", False, "off by 1")
    assert not ledger.check("audit", False, "approximate", wrong=False)
    assert (ledger.attempted, ledger.failed, ledger.wrong) == (3, 2, 1)
    assert ledger.failures == ["check.identity: off by 1",
                               "check.audit: approximate"]


def test_failures_never_abort_a_sequence():
    ledger = Ledger()
    for exc in (NoConvergence("a"), None, ValueError("b")):
        ledger.call("op", boom, exc) if exc else ledger.call("op", int)
    assert (ledger.attempted, ledger.failed) == (3, 2)


def _library_no_convergence_messages(tmp_path):
    """The messages conemv's two NoConvergence sites raise, as the CLI
    prints them."""
    market, cones = TreeSweep(ROOT, 5, tmp_path).corpus_market(0)
    cone = ConvexCone.polyhedral(np.array([[1.0, -0.3, 0.2], [0.4, 1.0, -0.5],
                                           [-0.2, 0.6, 1.0]]))
    out = []
    with pytest.raises(NoConvergence) as dykstra:
        cone.project(np.array([-1.0, -2.0, -0.5]), max_cycles=1)
    out.append(dykstra.value)
    with pytest.raises(NoConvergence) as stall:
        solver.backward_recursion(market, cones[3][1],
                                  solver.ExactDiscreteBackend(market),
                                  solver.SolverOptions(max_iter=1))
    out.append(stall.value)
    return [f"error: {exc}" for exc in out]


def test_cli_no_convergence_is_an_honest_failure(tmp_path):
    for line in _library_no_convergence_messages(tmp_path):
        ledger = Ledger()
        ledger.call("cli_solve", boom, cli_failure(1, line + "\n"))
        assert (ledger.failed, ledger.wrong) == (1, 0), line


@pytest.mark.parametrize("code, stderr", [
    (1, "error: quadratic/linear cost mismatch at t=1 sign=+1: 0.5 vs 0.6\n"),
    (1, "error: target 3.0 is unattainable under the cone\n"),
    (1, "Traceback (most recent call last):\n  ...\n"
        "error: Dykstra projection did not settle within 10000 cycles\n"),
    (2, "error: Dykstra projection did not settle within 10000 cycles\n"),
    (1, ""),
    (-9, ""),
])
def test_any_other_cli_exit_marks_the_output_wrong(code, stderr):
    ledger = Ledger()
    ledger.call("cli_solve", boom, cli_failure(code, stderr))
    assert (ledger.attempted, ledger.failed, ledger.wrong) == (1, 1, 1)
    assert ledger.failures[0].startswith(f"cli_solve: RuntimeError: exit {code}")


def test_cli_error_exit_of_a_real_process_is_wrong(tmp_path):
    wl = CliTLimitedShort(ROOT, 1, tmp_path)
    ledger = Ledger()
    ok, _ = ledger.call("cli_solve", wl._run,
                        ["solve", "--config", str(tmp_path / "missing.json")], None)
    assert not ok
    assert (ledger.failed, ledger.wrong) == (1, 1)


class FakeSweep(Corpus):
    """Every third input fails; rounds take no time."""

    index = 9
    corpus_size = 5

    def __init__(self, seed):
        super().__init__(seed)
        self.keys = []

    def run_round(self, r, ledger, tracer=None):
        self.keys.append(self.input_key(r))
        ledger.call("op", boom if self.input_key(r) % 3 == 0 else str,
                    NoConvergence("x"))


def test_a_run_ends_on_a_whole_corpus_sweep(monkeypatch):
    monkeypatch.setattr(run, "run_setup", lambda wl, env: {
        "setup_s": 0.0, "import_s": 0.0, "parse_s": 0.0})
    shares = set()
    for seed, seconds in ((1, 0.0), (2, 0.01), (3, 0.05)):
        wl = FakeSweep(seed)
        setup, ledger, *_ = run.measure(wl, None, seconds, trace=False)
        assert setup["reps"] == run.SETUP_REPS
        assert len(wl.keys) % wl.corpus_size == 0
        assert sorted(wl.keys[:5]) == list(range(5))
        shares.add(ledger.failed / ledger.attempted)
    assert shares == {2 / 5}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_follow_the_corpus_not_the_seed(name, tmp_path):
    a = WORKLOADS[name](ROOT, 1, tmp_path)
    b = WORKLOADS[name](ROOT, 2, tmp_path)
    assert sorted(a.order) == list(range(a.corpus_size))
    for ra in range(a.corpus_size):
        rb = list(b.order).index(a.input_key(ra))
        assert a.input_seeds(ra, 2) == b.input_seeds(rb, 2)


def test_tail_percentile_leaves_ten_values_beyond():
    assert tail_percentile(list(range(10))) == (None, None)
    values = [float(v) for v in range(200)]
    pct, value = tail_percentile(values)
    assert pct == 95
    assert sum(v > value for v in values) >= 10
    assert sum(v > value for v in values) < 10 + 200 / 100 + 1


def test_density_mean_gap_explains_the_library_moments(tmp_path):
    market, cones = TreeSweep(ROOT, 5, tmp_path).corpus_market(0)
    backend = solver.ExactDiscreteBackend(market)
    paths = tree_paths(market)
    returns, probs = paths
    lib_returns, lib_probs, _ = vssm.enumerate_tree(market)
    np.testing.assert_array_equal(returns, lib_returns)
    np.testing.assert_allclose(probs, lib_probs, rtol=1e-15)
    whole = solver.backward_recursion(market, ConvexCone.whole_space(3), backend)
    assert abs(density_mean_gap(whole, market, paths)) < 1e-12
    for _, cone in cones[:3]:
        table = solver.backward_recursion(market, cone, backend)
        mean, _ = vssm.exact_density_moments(table, market)
        assert mean - 1.0 == pytest.approx(density_mean_gap(table, market, paths),
                                           abs=1e-12)
