"""BENCHMARK.json, interactions.json and the code that fills them agree."""

import json
import re
import shutil
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from run import end_to_end
from spans import layer_metrics
from workloads import WORKLOADS, Ledger

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
INTERACTIONS = json.loads((BENCH / "interactions.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def printed_e2e(tmp_path_factory):
    """End-to-end metric names each workload prints, from a ledger of
    eleven rounds in which every operation ran once."""
    ops = ["solve", "simulate", "density", "tcie", "density_moments",
           "supermartingale"] + ["cli_" + cmd for cmd, _ in
                                 WORKLOADS["cli_t_limited_short"].commands]
    ledger = Ledger()
    for _ in range(11):
        ledger.start_round()
        for op in ops:
            ledger.call(op, int)
    setup = {"setup_s": 1.0, "reps": 1, "import_s": 0.5, "parse_s": 0.001}
    out = {}
    for name, cls in WORKLOADS.items():
        wl = cls(ROOT, 1, tmp_path_factory.mktemp(name))
        out[name] = set(end_to_end(wl, setup, ledger, [1.0]))
    return out


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"}
               for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])


def test_per_layer_matches_the_traced_run():
    setup = {"import_s": 0.5, "import_scipy_optimize_s": 0.4, "parse_s": 0.001}
    measured = layer_metrics([], 1, setup, 0.0)
    declared = [m["name"] for m in SPEC["per_layer"]]
    # declared metrics come in the order the traced run prints them
    assert [n for n in measured if n in declared] == declared
    for m in SPEC["per_layer"]:
        assert measured[m["name"]][1] == m["unit"], m["name"]


def test_end_to_end_is_printed_by_every_workload(printed_e2e):
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for name, printed in printed_e2e.items():
        assert {m["name"] for m in SPEC["end_to_end"]} <= printed, name


def test_interaction_table_names_real_metrics(printed_e2e):
    workloads = INTERACTIONS["workloads"]
    assert set(workloads) == set(WORKLOADS)
    for name, entry in workloads.items():
        assert set(entry["end_to_end"]) <= printed_e2e[name]
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for item in INTERACTIONS["roadmap_items"].values():
        for group in ("moves", "unchanged"):
            for wl, metrics in item[group].items():
                assert set(metrics) <= set(workloads[wl]["end_to_end"]), (wl, metrics)
        assert set(item["layer_evidence"]) <= per_layer
    for layer in INTERACTIONS["layers"].values():
        assert set(layer["metrics"]) <= per_layer
        for wl, metrics in layer.get("moves", {}).items():
            assert set(metrics) <= set(workloads[wl]["end_to_end"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
