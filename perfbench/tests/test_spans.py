"""Self-time arithmetic, span bookkeeping and entry-point wrapping."""

import sys
import types

import pytest

from spans import (ATTRS, NAME, PARENT, EntryPointMissing, EntryPointUnhit,
                   Instrumentation, Tracer, check_hits, covered_length,
                   inclusive_times, layer_metrics, self_times)

SETUP = {"import_s": 0.5, "import_scipy_optimize_s": 0.4, "parse_s": 0.001}


def span(name, start, end, parent=None, **attrs):
    return [name, start, end, parent, attrs]


def test_covered_length_merges_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1, 3), (5, 6)], 0, 10) == 3
    assert covered_length([(1, 4), (2, 5), (3, 3.5)], 0, 10) == 4
    assert covered_length([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered_length([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_union_of_children():
    spans = [span("a", 0.0, 10.0),
             span("b", 1.0, 3.0, 0),
             span("c", 2.0, 5.0, 0),       # overlaps b
             span("d", 9.0, 12.0, 0),      # runs past its parent
             span("e", 1.5, 2.5, 1)]       # grandchild: not subtracted from a
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_inclusive_time_counts_nested_same_name_once():
    spans = [span("a", 0.0, 4.0), span("a", 1.0, 2.0, 0), span("b", 5.0, 6.0)]
    totals = inclusive_times(spans)
    assert totals["a"] == pytest.approx(4.0)
    assert totals["b"] == pytest.approx(1.0)


def test_tracer_nests_and_merges_foreign_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        tracer.merge([span("child.root", 1.0, 2.0), span("child.leaf", 1.2, 1.5, 0)],
                     tracer.current())
    names = [s[NAME] for s in tracer.spans]
    assert names == ["outer", "inner", "child.root", "child.leaf"]
    assert tracer.spans[1][PARENT] == 0
    assert tracer.spans[2][PARENT] == 0
    assert tracer.spans[3][PARENT] == 2


def test_layer_metrics_per_round_and_ratios():
    key = ["law", 7, 1, 0, 0, 100]           # an SAA draw of 100 rows
    spans = [
        span("solver.backward_recursion", 0.0, 10.0, iterations=4,
             minimizations=2, zero_tests=1),
        span("solver.minimize_over_cone", 0.5, 9.0, 0),
        span("market.sample_block", 0.6, 1.0, 1, key=key, rows=100, n=3),
        span("solver.cost_eval", 1.0, 2.0, 1, rows=100, n=3),
        span("solver.cost_eval", 2.0, 3.0, 1, rows=100, n=3),
        span("market.sample_block", 11.0, 11.5, None, key=key, rows=100, n=3),
    ]
    m = layer_metrics(spans, rounds=2, setup=SETUP, overhead_frac=0.05)
    assert m["solver.cost_evals"] == (1.0, "count")           # 2 evals / 2 rounds
    assert m["solver.cost_eval.s"][0] == pytest.approx(1.0)
    assert m["solver.evals_per_iteration"][0] == pytest.approx(0.5)
    assert m["solver.zero_test_share"][0] == pytest.approx(0.5)
    assert m["solver.minimize_over_cone.self_s"][0] == pytest.approx(
        (8.5 - 0.4 - 2.0) / 2)
    assert m["solver.backward_recursion.self_s"][0] == pytest.approx(1.5 / 2)
    assert m["solver.cost_eval_bytes"][0] == 2 * 100 * 3 * 8 / 2
    assert m["market.repeat_draw_share"][0] == pytest.approx(0.5)
    assert m["market.frozen_sample_mib"][0] == pytest.approx(100 * 3 * 8 / 2**20)
    assert m["trace.overhead_frac"] == (0.05, "share")
    assert m["cli.import_scipy_optimize_s"] == (0.4, "s")


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return x + 1

    class Thing:
        def method(self):
            return work(1)

    core.work = work
    core.Thing = Thing
    user.work = work                         # a `from .core import work` copy
    for mod in (pkg, core, user):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return core, user


def test_instrumentation_wraps_aliases_and_restores(fake_package):
    core, user = fake_package
    original = core.work
    entry = (("core.work", "fakepkg.core", "work", None),
             ("core.method", "fakepkg.core", "Thing.method", None))
    tracer = Tracer()
    with Instrumentation(tracer, entry, package="fakepkg"):
        assert user.work(1) == 2
        assert core.Thing().method() == 2
    assert core.work is original and user.work is original
    assert [s[NAME] for s in tracer.spans] == ["core.work", "core.method"]
    user.work(1)
    assert len(tracer.spans) == 2


def test_instrumentation_records_errors(fake_package):
    core, _ = fake_package
    core.work = lambda x: 1 / 0
    tracer = Tracer()
    with Instrumentation(tracer, (("w", "fakepkg.core", "work", None),),
                         package="fakepkg"):
        with pytest.raises(ZeroDivisionError):
            core.work(0)
    assert tracer.spans[0][ATTRS]["error"] == "ZeroDivisionError"


def test_missing_entry_point_fails_loudly(fake_package):
    core, _ = fake_package
    entry = (("ok", "fakepkg.core", "work", None),
             ("gone", "fakepkg.core", "_h_and_grad", None))
    with pytest.raises(EntryPointMissing, match="_h_and_grad"):
        with Instrumentation(Tracer(), entry, package="fakepkg"):
            pass
    assert core.work.__name__ == "work"      # the partial install was undone


def test_unhit_entry_point_fails_loudly():
    spans = [span("cones.project", 0.0, 1.0)]
    check_hits(spans, ["cones.project"], "tree_sweep")
    with pytest.raises(EntryPointUnhit, match="solver.cost_eval"):
        check_hits(spans, ["cones.project", "solver.cost_eval"], "tree_sweep")


def test_every_conemv_entry_point_exists():
    from spans import ENTRY_POINTS
    with Instrumentation(Tracer(), ENTRY_POINTS):
        pass
