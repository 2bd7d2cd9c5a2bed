"""End-to-end CLI checks through subprocess, exact small markets only."""

import csv
import dataclasses
import gc
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conemv import cli, config, sim, solver, tcie, vssm
from conemv.config import parse_config

from conftest import nested, summary_of_wealth

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


COIN_MARKET = {
    "horizon": 2,
    "riskless_rates": [1.02, 1.02],
    "family": "discrete",
    "atoms": [[[-0.1], 0.5], [[0.2], 0.5]],
}
# Rare large atom: the optimal holding can push wealth past the threshold.
CROSSING_MARKET = {
    "horizon": 2,
    "riskless_rates": [1.02, 1.02],
    "family": "discrete",
    "atoms": [[[-0.05], 0.45], [[0.3], 0.45], [[5.0], 0.1]],
}
ORIGIN_ONLY_CONE = {"type": "polyhedral", "A": [[1.0], [-1.0]]}


def run_cli(*argv):
    return subprocess.run([sys.executable, "-m", "conemv", *argv],
                          capture_output=True, text=True, timeout=300)


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def coin_config(d=1.10, **extra):
    cfg = {
        "market": dict(COIN_MARKET),
        "policy": {"kind": "precommitted", "x0": 1.0, "d": d},
        "numerics": {"backend": "exact"},
    }
    cfg.update(extra)
    return cfg


class TestSolve:

    def test_solve_payload(self, tmp_path):
        path = write_config(tmp_path, coin_config())
        res = run_cli("solve", "--config", path)
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert len(payload["k_plus"]) == 2
        assert len(payload["c_plus"]) == 3
        assert payload["c_plus"][-1] == 1.0
        assert 0.0 < payload["c_plus"][0] < 1.0
        pol = payload["policy"]
        assert pol["kind"] == "precommitted"
        assert isinstance(pol["mu_star"], float)
        assert set(pol["thresholds"]) == {"0", "1", "2"}

    def test_origin_only_cone_collapses_table(self, tmp_path):
        path = write_config(tmp_path,
                            coin_config(cones=ORIGIN_ONLY_CONE))
        res = run_cli("solve", "--config", path)
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["c_plus"] == [1.0, 1.0, 1.0]
        assert payload["c_minus"] == [1.0, 1.0, 1.0]
        assert payload["k_plus"] == [[0.0], [0.0]]
        # The target cannot be reached with zero gain; solve still reports
        # the table and records the policy failure instead of dying.
        assert "error" in payload["policy"]

    def test_two_samples_give_a_singular_hessian(self):
        # Two SAA rows span a plane in three assets: the cost's Hessian is
        # singular, and the solve still returns a table.
        res = run_cli("solve", "--config",
                      str(CONFIGS / "three_index_limited_short_gaussian.json"),
                      "--samples", "2")
        assert res.returncode == 0, res.stderr
        assert len(json.loads(res.stdout)["c_plus"]) == 4

    def test_huge_student_t_df_solves(self, tmp_path):
        # every finite df > 2 is accepted, and draws finite chi-squares
        cfg = json.loads((CONFIGS / "three_index_limited_short_student_t.json")
                         .read_text())
        cfg["market"]["df"] = 1e300
        res = run_cli("solve", "--config", write_config(tmp_path, cfg),
                      "--samples", "2000")
        assert res.returncode == 0, res.stderr
        c_plus = json.loads(res.stdout)["c_plus"]
        assert all(0.0 < c <= 1.0 for c in c_plus)

    def test_out_writes_file(self, tmp_path):
        path = write_config(tmp_path, coin_config())
        out = tmp_path / "table.json"
        res = run_cli("solve", "--config", path, "--out", str(out))
        assert res.returncode == 0
        assert res.stdout == ""
        payload = json.loads(out.read_text())
        assert "k_plus" in payload

    def test_samples_override_changes_saa_result(self, tmp_path):
        cfg = coin_config()
        cfg["market"] = {
            "horizon": 1, "riskless_rates": [1.02], "family": "gaussian",
            "mean": [0.06], "covariance": [[0.04]],
        }
        cfg["numerics"] = {"backend": "saa", "samples": 2000, "seed": 0}
        path = write_config(tmp_path, cfg)
        base = run_cli("solve", "--config", path)
        more = run_cli("solve", "--config", path, "--samples", "5000")
        assert base.returncode == 0 and more.returncode == 0
        c0_base = json.loads(base.stdout)["c_plus"][0]
        c0_more = json.loads(more.stdout)["c_plus"][0]
        assert c0_base != c0_more

    def test_solve_deterministic(self, tmp_path):
        path = write_config(tmp_path, coin_config())
        a = run_cli("solve", "--config", path)
        b = run_cli("solve", "--config", path)
        assert a.stdout == b.stdout


class TestConfigErrors:

    def test_missing_config_file(self):
        res = run_cli("solve", "--config", "/nonexistent/run.json")
        assert res.returncode == 2
        assert "error:" in res.stderr

    def test_no_config_flag(self):
        res = run_cli("solve")
        assert res.returncode == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        res = run_cli("solve", "--config", str(path))
        assert res.returncode == 2
        assert "not valid JSON" in res.stderr

    def test_unknown_top_level_key(self, tmp_path):
        cfg = coin_config()
        cfg["markets"] = cfg.pop("market")
        path = write_config(tmp_path, cfg)
        res = run_cli("solve", "--config", path)
        assert res.returncode == 2
        assert "unknown keys" in res.stderr

    def test_unknown_family(self, tmp_path):
        cfg = coin_config()
        cfg["market"]["family"] = "lognormal"
        path = write_config(tmp_path, cfg)
        res = run_cli("solve", "--config", path)
        assert res.returncode == 2

    def test_bad_covariance(self, tmp_path):
        cfg = coin_config()
        cfg["market"] = {
            "horizon": 1, "riskless_rates": [1.02], "family": "gaussian",
            "mean": [0.05, 0.05],
            "covariance": [[0.04, 0.01], [0.02, 0.04]],
        }
        path = write_config(tmp_path, cfg)
        res = run_cli("solve", "--config", path)
        assert res.returncode == 2

    @pytest.mark.parametrize("atoms,line", [
        ([[[-0.1], 0.5], [[0.2], 0.4]],
         "atom probabilities sum to 0.9, not 1"),
        ([[[0.1], 0.5], [[0.1], 0.5]],
         "degenerate period: E[P]'E[PP']^-1 E[P] = 0.9999999999999999"),
    ], ids=["probabilities", "degenerate"])
    def test_market_error_prints_plain_floats(self, tmp_path, atoms, line):
        cfg = coin_config()
        cfg["market"]["atoms"] = atoms
        res = run_cli("solve", "--config", write_config(tmp_path, cfg))
        assert res.returncode == 2
        assert res.stderr == f"error: period 0: {line}\n"

    def test_cone_list_wrong_length(self, tmp_path):
        cfg = coin_config(cones=[{"type": "whole_space"}])
        path = write_config(tmp_path, cfg)
        res = run_cli("solve", "--config", path)
        assert res.returncode == 2

    def test_unknown_policy_kind(self, tmp_path):
        cfg = coin_config()
        cfg["policy"]["kind"] = "myopic"
        path = write_config(tmp_path, cfg)
        res = run_cli("solve", "--config", path)
        assert res.returncode == 2

    @pytest.mark.parametrize("kind", [{"x0": 1.0}, [1, 2]],
                             ids=["object", "list"])
    def test_policy_kind_not_a_name(self, tmp_path, capsys, kind):
        cfg = coin_config()
        cfg["policy"]["kind"] = kind
        assert cli.main(["solve", "--config",
                         write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == \
            f"error: unknown policy kind {kind!r}\n"

    @pytest.mark.parametrize("value", [None, 0.04], ids=["null", "scalar"])
    @pytest.mark.parametrize("key", ["mean", "covariance"])
    def test_null_or_scalar_moments(self, tmp_path, capsys, key, value):
        cfg = saa_config()
        cfg["market"][key] = value
        assert cli.main(["solve", "--config",
                         write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == \
            f"error: {key!r} must be an array, got {value!r}\n"

    @pytest.mark.filterwarnings("error")  # a numpy warning fails the case
    @pytest.mark.parametrize("command", [["solve", "--samples", "3000"],
                                         ["make-cone"]],
                             ids=["solve", "make-cone"])
    @pytest.mark.parametrize("value", [1e308, -1e308])
    @pytest.mark.parametrize("where", [("market", "mean", 0),
                                       ("market", "covariance", 0, 0),
                                       ("cones", "A", 0, 1)],
                             ids=["mean", "covariance", "cone"])
    def test_extreme_finite_entry(self, tmp_path, capsys, where, value,
                                  command):
        """One entry at +-1e308 overflows the second moment, the draw's
        scaled covariance or the cone's Gram matrix, or leaves the
        covariance indefinite: the parse refuses it in one line."""
        cfg = json.loads((CONFIGS / "three_index_limited_short_student_t"
                          ".json").read_text())
        node = cfg
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        path = write_config(tmp_path, cfg)
        assert cli.main([command[0], "--config", path, *command[1:]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.filterwarnings("error")
    def test_sample_sums_that_overflow(self, tmp_path, capsys):
        """A gaussian covariance entry of 1e308 parses, as every matrix
        the parse forms is finite, but its samples' squares overflow: the
        draw refuses it in one line."""
        cfg = json.loads((CONFIGS / "three_index_limited_short_gaussian"
                          ".json").read_text())
        cfg["market"]["covariance"][0][0] = 1e308
        path = write_config(tmp_path, cfg)
        assert cli.main(["solve", "--config", path, "--samples", "3000"]) == 2
        assert capsys.readouterr().err == (
            "error: period 2: the sums over 3000 SAA samples overflow double "
            "precision\n")

    @pytest.mark.parametrize("horizon", [10**30, 10**9])
    def test_horizon_checked_before_allocation(self, tmp_path, capsys,
                                               monkeypatch, horizon):
        """The rates' count is compared first: neither the period nor
        the market, whose period list a horizon this long would fill,
        is built."""
        def built(*args):
            raise AssertionError("allocated before the length check")

        monkeypatch.setattr(config, "_parse_period", built)
        monkeypatch.setattr(config, "MarketSpec", built)
        cfg = coin_config()
        cfg["market"]["horizon"] = horizon
        assert cli.main(["solve", "--config",
                         write_config(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err == \
            f"error: need {horizon} riskless rates, got 2\n"

    def test_truncated_missing_keys(self, tmp_path):
        cfg = coin_config()
        cfg["policy"] = {"kind": "truncated", "k": 1}
        path = write_config(tmp_path, cfg)
        res = run_cli("solve", "--config", path)
        assert res.returncode == 2

    def test_unknown_backend(self, tmp_path):
        cfg = coin_config()
        cfg["numerics"]["backend"] = "quadrature"
        res = run_cli("solve", "--config", write_config(tmp_path, cfg))
        assert res.returncode == 2
        assert res.stderr == "error: unknown backend 'quadrature'\n"

    @pytest.mark.parametrize("family", ["gaussian", "student_t"])
    def test_exact_backend_on_a_continuous_market(self, tmp_path, family):
        cfg = coin_config()
        cfg["market"] = {"horizon": 1, "riskless_rates": [1.02],
                         "family": family, "mean": [0.06],
                         "covariance": [[0.04]], "df": 5}
        if family == "gaussian":
            del cfg["market"]["df"]
        path = write_config(tmp_path, cfg)
        res = run_cli("solve", "--config", path)
        assert res.returncode == 2
        assert res.stderr == ("error: exact backend needs a discrete "
                              f"market, not {family}\n")

    def test_csv_format_rejected_outside_frontier(self, tmp_path):
        path = write_config(tmp_path, coin_config())
        res = run_cli("solve", "--config", path, "--format", "csv")
        assert res.returncode == 2
        assert "unrecognized arguments: --format csv" in res.stderr

    @pytest.mark.parametrize("section,key,typo", [
        ("market", "family", "famly"),
        ("numerics", "backend", "backnd"),
        ("policy", "kind", "kind "),
        ("numerics", None, "optimizer"),
    ])
    def test_misspelled_name_key_is_unknown(self, tmp_path, section, key,
                                            typo):
        # reported as an unknown key, not as a string in a numeric key
        cfg = coin_config()
        value = cfg[section].pop(key) if key else "projected_gradient"
        cfg[section][typo] = value
        res = run_cli("solve", "--config", write_config(tmp_path, cfg))
        assert res.returncode == 2
        assert res.stderr == (f"error: unknown keys in {section!r}: "
                              f"[{typo!r}]\n")

    def test_config_is_a_directory(self, tmp_path):
        res = run_cli("solve", "--config", str(tmp_path))
        assert res.returncode == 2
        assert res.stderr == (f"error: cannot read config {tmp_path}: "
                              "Is a directory\n")

    def test_config_nested_beyond_the_parser(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        res = run_cli("solve", "--config", str(path))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        lines = res.stderr.strip().splitlines()
        assert lines == ["error: config nests arrays or objects too deeply"]

    def test_config_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"market": "\xe9"}')
        res = run_cli("solve", "--config", str(path))
        assert res.returncode == 2
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: config is not UTF-8 text")

    @pytest.mark.parametrize("out", ["missing/table.json", "."])
    def test_unwritable_out_exits_before_the_solve(self, tmp_path,
                                                   monkeypatch, capsys, out):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking --out")

        monkeypatch.setattr(cli, "backward_recursion", no_solve)
        path = write_config(tmp_path, coin_config())
        code = cli.main(["solve", "--config", path,
                         "--out", str(tmp_path / out)])
        assert code == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: --out ")

    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")),
                             ids=lambda p: p.stem)
    def test_shipped_config_parses(self, config):
        cfg = parse_config(json.loads(config.read_text()))
        assert cfg.market.horizon == 3 and cfg.market.n_assets == 3
        assert len(cfg.cones) == 3


class TestRuntimeErrors:

    def test_simulate_target_below_riskless(self, tmp_path):
        path = write_config(tmp_path, coin_config(d=0.9))
        res = run_cli("simulate", "--config", path, "--paths", "100")
        assert res.returncode == 1
        assert "error:" in res.stderr

    def test_simulate_unreachable_target_zero_gain(self, tmp_path):
        path = write_config(tmp_path,
                            coin_config(d=1.10, cones=ORIGIN_ONLY_CONE))
        res = run_cli("simulate", "--config", path, "--paths", "100")
        assert res.returncode == 1

    def test_zero_mean_time_consistent_prints_plain_b(self, tmp_path):
        cfg = coin_config()
        cfg["market"]["atoms"] = [[[-0.1], 0.5], [[0.1], 0.5]]
        cfg["policy"] = {"kind": "time_consistent", "x0": 1.0, "d": 1.1}
        res = run_cli("simulate", "--config", write_config(tmp_path, cfg),
                      "--paths", "100")
        assert res.returncode == 1
        assert res.stderr == (
            "error: time-consistent benchmark needs E[P] != 0 each period; "
            "period 0 has b = 0.0\n")


class TestFrontier:

    def run_frontier(self, tmp_path, cfg, *extra):
        path = write_config(tmp_path, cfg)
        res = run_cli("frontier", "--config", path,
                      "--mean-min", "1.0", "--mean-max", "1.2",
                      "--points", "5", *extra)
        assert res.returncode == 0, res.stderr
        return res

    def test_csv_header_and_rows(self, tmp_path):
        res = self.run_frontier(tmp_path, coin_config())
        rows = list(csv.DictReader(io.StringIO(res.stdout)))
        assert list(rows[0]) == ["mean", "variance_precommitted",
                                 "variance_time_consistent", "efficient"]
        # riskless terminal value is 1.02^2 = 1.0404; the 1.0 grid point
        # sits below it and is skipped without the lower branch.
        assert [r["mean"] for r in rows] == ["1.05", "1.1", "1.15", "1.2"]
        for row in rows:
            assert float(row["variance_precommitted"]) >= 0.0
            assert float(row["variance_time_consistent"]) >= 0.0
            assert row["efficient"] == "true"

    def test_lower_branch_included_on_request(self, tmp_path):
        res = self.run_frontier(tmp_path, coin_config(),
                                "--include-lower-branch")
        rows = list(csv.DictReader(io.StringIO(res.stdout)))
        assert [r["mean"] for r in rows] == ["1", "1.05", "1.1", "1.15", "1.2"]
        low = rows[0]
        assert low["efficient"] == "false"
        assert float(low["variance_precommitted"]) > 0.0
        assert low["variance_time_consistent"] == "NA"

    @pytest.mark.parametrize("flag,value", [
        ("--mean-min", "nan"), ("--mean-max", "inf"), ("--mean-min", "-inf")])
    def test_non_finite_mean_bound(self, tmp_path, flag, value):
        bounds = {"--mean-min": "1.0", "--mean-max": "1.2", flag: value}
        res = run_cli("frontier", "--config",
                      write_config(tmp_path, coin_config()),
                      *(f"{k}={v}" for k, v in bounds.items()))
        assert res.returncode == 2
        assert res.stderr == (f"error: {flag} must be finite, "
                              f"got {float(value)}\n")

    def test_riskless_point(self, tmp_path):
        path = write_config(tmp_path, coin_config())
        res = run_cli("frontier", "--config", path,
                      "--mean-min", "1.0404", "--mean-max", "1.0404",
                      "--points", "1")
        assert res.returncode == 0
        row = next(csv.DictReader(io.StringIO(res.stdout)))
        assert float(row["variance_precommitted"]) == 0.0
        assert float(row["variance_time_consistent"]) == 0.0
        assert row["efficient"] == "true"

    def test_json_format(self, tmp_path):
        res = self.run_frontier(tmp_path, coin_config(), "--format", "json")
        rows = json.loads(res.stdout)
        assert isinstance(rows, list) and len(rows) == 4
        assert set(rows[0]) == {"mean", "variance_precommitted",
                                "variance_time_consistent", "efficient"}

    def test_zero_mean_market_has_no_frontier(self, tmp_path):
        cfg = coin_config()
        cfg["market"] = {
            "horizon": 2, "riskless_rates": [1.0, 1.0], "family": "discrete",
            "atoms": [[[-0.1], 0.5], [[0.1], 0.5]],
        }
        res = self.run_frontier(tmp_path, cfg, "--include-lower-branch")
        rows = list(csv.DictReader(io.StringIO(res.stdout)))
        above = [r for r in rows if float(r["mean"]) > 1.0]
        assert above
        for row in above:
            assert row["variance_precommitted"] == "NA"
        for row in rows:
            assert row["variance_time_consistent"] == "NA"


class TestSimulate:

    def test_payload_shape(self, tmp_path):
        path = write_config(tmp_path, coin_config())
        res = run_cli("simulate", "--config", path, "--paths", "2000")
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert list(payload) == ["policy", "n_paths", "seed", "terminal",
                                 "exceedance"]
        assert payload["policy"] == "precommitted"
        assert payload["n_paths"] == 2000
        term = payload["terminal"]
        assert list(term) == ["mean", "variance", "se_mean", "se_variance"]
        exc = payload["exceedance"]
        assert list(exc) == ["probability", "standard_error",
                             "first_crossing_counts", "thresholds"]
        # each section is its library record, whole
        for key, record in (("terminal", sim.TerminalStats),
                            ("exceedance", sim.ExceedanceReport)):
            assert list(payload[key]) == [
                f.name for f in dataclasses.fields(record)]
        assert set(exc["first_crossing_counts"]) == {"1"}
        assert set(exc["thresholds"]) == {"1"}
        assert 0.0 <= exc["probability"] <= 1.0

    @pytest.mark.parametrize("kind", ["time_consistent", "minimum_variance"])
    def test_runs_no_cone_solve(self, tmp_path, monkeypatch, capsys, kind):
        """Its policy reads only the closed-form unconstrained table."""
        cfg = json.loads((CONFIGS / "three_index_limited_short_gaussian"
                          ".json").read_text())
        cfg["policy"] = STREAM_POLICIES[kind]

        def no_solve(*args):
            raise AssertionError("solved a cone table")

        monkeypatch.setattr(cli, "backward_recursion", no_solve)
        assert cli.main(["simulate", "--config", write_config(tmp_path, cfg),
                         "--paths", "1000"]) == 0
        assert json.loads(capsys.readouterr().out)["policy"] == kind

    def test_terminal_mean_near_target(self, tmp_path):
        path = write_config(tmp_path, coin_config(d=1.10))
        res = run_cli("simulate", "--config", path, "--paths", "40000")
        payload = json.loads(res.stdout)
        term = payload["terminal"]
        assert term["mean"] == pytest.approx(1.10, abs=5 * term["se_mean"])

    def test_seed_override_recorded_and_changes_draws(self, tmp_path):
        path = write_config(tmp_path, coin_config())
        a = run_cli("simulate", "--config", path, "--paths", "2000")
        b = run_cli("simulate", "--config", path, "--paths", "2000",
                    "--seed", "7")
        pa, pb = json.loads(a.stdout), json.loads(b.stdout)
        assert pa["seed"] == 0
        assert pb["seed"] == 7
        assert pa["terminal"]["mean"] != pb["terminal"]["mean"]

    def test_minimum_variance_has_no_exceedance_block(self, tmp_path):
        cfg = coin_config()
        cfg["policy"] = {"kind": "minimum_variance", "x0": 1.0}
        path = write_config(tmp_path, cfg)
        res = run_cli("simulate", "--config", path, "--paths", "500")
        payload = json.loads(res.stdout)
        assert "exceedance" not in payload
        assert payload["terminal"]["variance"] == 0.0


STREAM_POLICIES = {
    "precommitted": {"kind": "precommitted", "x0": 1.0, "d": 1.35},
    "truncated": {"kind": "truncated", "x0": 1.0, "d": 1.35, "k": 1,
                  "x_k": 1.1, "d_k": 1.4},
    "minimum_variance": {"kind": "minimum_variance", "x0": 1.0},
    "time_consistent": {"kind": "time_consistent", "x0": 1.0, "d": 1.35},
}
STREAM_PATHS = 703
# one block, then 1, 2, 3 and 7 whole blocks and a remainder
STREAM_BLOCKS = [10_000, 702, 351, 234, 100]


class TestStreaming:
    """simulate and vssm reduce one block of paths at a time; their
    payloads equal those of the whole ensemble, bit for bit."""

    def config(self, tmp_path, policy="precommitted"):
        cfg = json.loads((CONFIGS / "three_index_limited_short_gaussian.json")
                         .read_text())
        cfg["numerics"]["samples"] = 5_000
        cfg["policy"] = STREAM_POLICIES[policy]
        return cfg, write_config(tmp_path, cfg)

    def run_blocks(self, monkeypatch, capsys, argv, expected):
        for block in STREAM_BLOCKS:
            monkeypatch.setattr(sim, "_BLOCK", block)
            assert cli.main(argv) == 0
            assert json.loads(capsys.readouterr().out) == expected, block

    @staticmethod
    def as_json(payload):
        return json.loads(json.dumps(payload))

    @pytest.mark.parametrize("policy", list(STREAM_POLICIES))
    def test_simulate_payload_equals_the_whole_ensemble(
            self, tmp_path, monkeypatch, capsys, policy):
        data, path = self.config(tmp_path, policy)
        cfg = parse_config(data)
        pol = cli._build_policy(cfg)
        ens = sim.simulate(pol, cfg.market, STREAM_PATHS, cfg.seed)
        thresholds = None
        if policy in ("precommitted", "truncated"):
            thresholds = sim.policy_thresholds(pol)
            assert thresholds  # a crossing time to count
        stats, report = summary_of_wealth(ens.wealth, thresholds)
        expected = {"policy": policy, "n_paths": STREAM_PATHS,
                    "seed": cfg.seed, "terminal": dataclasses.asdict(stats)}
        if report is not None:
            expected["exceedance"] = dataclasses.asdict(report)
        self.run_blocks(monkeypatch, capsys,
                        ["simulate", "--config", path, "--paths",
                         str(STREAM_PATHS)], self.as_json(expected))

    def test_vssm_payload_equals_the_whole_ensemble(self, tmp_path,
                                                    monkeypatch, capsys):
        data, path = self.config(tmp_path)
        argv = ["vssm", "--config", path, "--paths", str(STREAM_PATHS)]
        assert cli.main(argv) == 0
        expected = json.loads(capsys.readouterr().out)
        cfg = parse_config(data)
        dens = vssm.density_for_paths(
            cli._solve_table(cfg),
            sim.sample_returns(cfg.market, STREAM_PATHS, cfg.seed))
        n = STREAM_PATHS
        assert expected["monte_carlo"] == self.as_json({
            "n_paths": n, "seed": cfg.seed, "mean": dens.mean(),
            "se_mean": dens.std(ddof=1) / np.sqrt(n),
            "second_moment": (dens ** 2).mean(),
            "se_second_moment": (dens ** 2).std(ddof=1) / np.sqrt(n),
            "negative_fraction": (dens < 0).mean(),
            "zero_density_paths": int((dens == 0.0).sum())})
        self.run_blocks(monkeypatch, capsys, argv, expected)

    @pytest.mark.parametrize("command", ["simulate", "vssm"])
    def test_monte_carlo_peak_stays_within_its_preflight(
            self, tmp_path, monkeypatch, capsys, command):
        """What the Monte Carlo allocates after the solve, at its peak,
        is within what the path preflight counts."""
        data = json.loads((CONFIGS / "three_index_limited_short_student_t"
                           ".json").read_text())
        data["numerics"]["samples"] = 5_000
        path = write_config(tmp_path, data)
        monkeypatch.setattr(sim, "_BLOCK", 20_000)
        needs, base = [], []
        monkeypatch.setattr(cli, "require_memory",
                            lambda need, what: needs.append(need))
        solve = cli._solve_table

        def solve_then_reset(*args):
            table = solve(*args)
            base.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return table

        monkeypatch.setattr(cli, "_solve_table", solve_then_reset)
        tracemalloc.start()
        try:
            assert cli.main([command, "--config", path,
                             "--paths", "50000"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert len(needs) == 1 and peak - base[0] <= needs[0]

    @pytest.mark.parametrize("command", ["simulate", "vssm", "tcie"])
    def test_backend_freed_before_the_monte_carlo(
            self, tmp_path, monkeypatch, capsys, command):
        # the frozen SAA samples are dead weight once the table is solved;
        # tcie's transitions read the period laws, not the samples
        held = [o for o in gc.get_objects()
                if isinstance(o, solver.SaaBackend)]

        def new_backends():
            gc.collect()
            return [o for o in gc.get_objects()
                    if isinstance(o, solver.SaaBackend)
                    and not any(o is h for h in held)]

        seen = []

        def checked(fn):
            def wrapper(*args, **kwargs):
                seen.append(len(new_backends()))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(sim, "simulate", checked(sim.simulate))
        monkeypatch.setattr(sim, "sample_returns",
                            checked(sim.sample_returns))
        monkeypatch.setattr(tcie, "transition_probs",
                            checked(tcie.transition_probs))
        path = write_config(tmp_path, saa_config())
        argv = [command, "--config", path]
        if command != "tcie":
            argv += ["--paths", "500"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert seen and not any(seen), seen


class TestTcie:

    def test_coin_market_verdict_true(self, tmp_path):
        path = write_config(tmp_path, coin_config())
        res = run_cli("tcie", "--config", path)
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert list(payload) == ["is_tcie", "reason", "flip_period",
                                 "first_violation_period", "evidence",
                                 "periods", "thresholds"]
        for period in payload["periods"]:
            assert list(period) == ["t", "ess_sup_plus", "can_cross",
                                    "k_minus_norm", "c_minus", "transition"]
            assert list(period["transition"]) == [
                "stay_below", "cross_up", "return_from_above", "stay_above"]
            # each section is its library record, whole
            assert list(period)[:-1] == [
                f.name for f in dataclasses.fields(tcie.PeriodDiagnostics)]
            assert list(period["transition"]) == [
                f.name for f in dataclasses.fields(tcie.TransitionProbs)]
        assert payload["is_tcie"] is True
        assert payload["reason"] == "condition_18"
        assert payload["flip_period"] is None
        assert len(payload["periods"]) == 2
        for period in payload["periods"]:
            trans = period["transition"]
            total = (trans["stay_below"] + trans["cross_up"])
            assert total == pytest.approx(1.0, abs=1e-12)
        assert set(payload["thresholds"]) == {"0", "1", "2"}

    def test_crossing_market_verdict_false(self, tmp_path):
        cfg = coin_config()
        cfg["market"] = dict(CROSSING_MARKET)
        path = write_config(tmp_path, cfg)
        res = run_cli("tcie", "--config", path)
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["is_tcie"] is False
        assert payload["reason"] == "violated"
        assert payload["flip_period"] == 0
        assert payload["first_violation_period"] == 1
        assert payload["periods"][0]["can_cross"] is True


def strict_json(text):
    """Parse RFC 8259 JSON: the NaN and Infinity tokens raise."""
    def refuse(token):
        raise ValueError(f"non-JSON token {token}")
    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    """Every command prints strict JSON; an unbounded value is null."""

    COMMANDS = {
        "solve": [], "tcie": [], "make-cone": [],
        "frontier": ["--mean-min", "1.16", "--mean-max", "2.16",
                     "--points", "5", "--format", "json"],
        "simulate": ["--paths", "3000"], "vssm": ["--paths", "3000"]}

    @pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")),
                             ids=lambda p: p.stem)
    def test_shipped_configs(self, capsys, config):
        for command, flags in self.COMMANDS.items():
            argv = [command, "--config", str(config), *flags]
            if command != "make-cone":
                argv += ["--samples", "3000"]
            assert cli.main(argv) == 0, command
            payload = strict_json(capsys.readouterr().out)
            if command == "tcie":
                # a continuous period's P'K+ has no finite supremum
                assert [p["ess_sup_plus"] for p in payload["periods"]] \
                    == [None] * 3

    def test_non_finite_numbers_print_as_null(self, capsys):
        cli._emit_json({"a": [1.5, float("inf"), (-np.inf, np.nan)],
                        "b": {"c": np.float64(np.nan), "d": 2}}, None)
        assert strict_json(capsys.readouterr().out) == {
            "a": [1.5, None, [None, None]], "b": {"c": None, "d": 2}}


class TestVssm:

    def test_exact_and_monte_carlo_blocks(self, tmp_path):
        path = write_config(tmp_path, coin_config())
        res = run_cli("vssm", "--config", path, "--paths", "20000")
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        theo = payload["theoretical"]
        assert theo["mean"] == 1.0
        assert theo["second_moment"] > 1.0
        exact = payload["exact"]
        assert exact["mean"] == pytest.approx(1.0, abs=1e-12)
        assert exact["second_moment"] == pytest.approx(
            theo["second_moment"], abs=1e-12)
        assert exact["supermartingale_ok"] is True
        mc = payload["monte_carlo"]
        assert mc["n_paths"] == 20000
        assert mc["mean"] == pytest.approx(1.0, abs=6 * mc["se_mean"])
        assert mc["second_moment"] == pytest.approx(
            theo["second_moment"], abs=6 * mc["se_second_moment"])
        assert 0.0 <= mc["negative_fraction"] < 1.0

    def test_saa_config_skips_exact_block(self, tmp_path):
        cfg = coin_config()
        cfg["market"] = {
            "horizon": 1, "riskless_rates": [1.02], "family": "gaussian",
            "mean": [0.06], "covariance": [[0.04]],
        }
        cfg["numerics"] = {"backend": "saa", "samples": 5000, "seed": 0}
        path = write_config(tmp_path, cfg)
        res = run_cli("vssm", "--config", path, "--paths", "5000")
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert "exact" not in payload
        assert "monte_carlo" in payload


class TestMakeCone:

    def test_from_mean_half_space(self, tmp_path):
        path = write_config(tmp_path, coin_config())
        res = run_cli("make-cone", "--config", path)
        assert res.returncode == 0, res.stderr
        fragment = json.loads(res.stdout)
        assert fragment["type"] == "half_space"
        assert fragment["normal"] == pytest.approx([0.05], rel=1e-12)

    def test_removed_flags_exit_2(self, tmp_path):
        # the cone is the mean half-space whatever these would say
        path = write_config(tmp_path, coin_config())
        for flag in (["--from-mean"], ["--seed", "1"], ["--samples", "10"],
                     ["--format", "json"]):
            with pytest.raises(SystemExit) as exc:
                cli._build_parser().parse_args(
                    ["make-cone", "--config", path, *flag])
            assert exc.value.code == 2

    def test_round_trip_into_solve_and_tcie(self, tmp_path):
        path = write_config(tmp_path, coin_config())
        res = run_cli("make-cone", "--config", path)
        fragment = json.loads(res.stdout)
        constrained = write_config(tmp_path, coin_config(cones=fragment),
                                   name="constrained.json")
        solve = run_cli("solve", "--config", constrained)
        assert solve.returncode == 0, solve.stderr
        table = json.loads(solve.stdout)
        assert all(c == 1.0 for c in table["c_minus"])
        verdict = run_cli("tcie", "--config", constrained)
        assert verdict.returncode == 0
        assert json.loads(verdict.stdout)["is_tcie"] is True


def saa_config():
    cfg = coin_config()
    cfg["market"] = {
        "horizon": 1, "riskless_rates": [1.02], "family": "gaussian",
        "mean": [0.06], "covariance": [[0.04]],
    }
    cfg["numerics"] = {"backend": "saa", "samples": 2000, "seed": 0}
    return cfg


class TestBadCounts:
    """Out-of-range counts exit 2 with one error line, before any work."""

    def assert_config_error(self, res, fragment):
        assert res.returncode == 2, res.stdout
        assert "Traceback" not in res.stderr
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr
        assert fragment in lines[0]
        assert res.stdout == ""

    @pytest.mark.parametrize("paths", ["0", "1", "-5"])
    def test_simulate_paths(self, tmp_path, paths):
        path = write_config(tmp_path, coin_config())
        res = run_cli("simulate", "--config", path, "--paths", paths)
        self.assert_config_error(res, "--paths")

    @pytest.mark.parametrize("paths", ["0", "1", "-5"])
    def test_vssm_paths(self, tmp_path, paths):
        path = write_config(tmp_path, coin_config())
        res = run_cli("vssm", "--config", path, "--paths", paths)
        self.assert_config_error(res, "--paths")

    def test_frontier_points(self, tmp_path):
        path = write_config(tmp_path, coin_config())
        res = run_cli("frontier", "--config", path, "--mean-min", "1.0",
                      "--mean-max", "1.2", "--points", "-1")
        self.assert_config_error(res, "--points")

    def test_frontier_points_beyond_memory(self, tmp_path, monkeypatch,
                                           capsys):
        path = write_config(tmp_path, coin_config())
        argv = ["frontier", "--config", path, "--mean-min", "1.0",
                "--mean-max", "1.2", "--points", "1000",
                "--include-lower-branch"]
        need = 1000 * cli._FRONTIER_POINT_BYTES
        monkeypatch.setattr(solver, "_available_bytes", lambda: need - 1)
        code = cli.main(argv)
        out, err = capsys.readouterr()
        self.assert_config_error(
            SimpleNamespace(returncode=code, stdout=out, stderr=err),
            "1000 frontier points need about")
        monkeypatch.setattr(solver, "_available_bytes", lambda: need)
        assert cli.main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1001

    def test_samples_one(self, tmp_path):
        path = write_config(tmp_path, saa_config())
        res = run_cli("solve", "--config", path, "--samples", "1")
        self.assert_config_error(res, "--samples")

    def test_samples_beyond_memory(self, tmp_path):
        path = write_config(tmp_path, saa_config())
        res = run_cli("solve", "--config", path, "--samples", "10000000000")
        self.assert_config_error(res, "GiB")

    @pytest.mark.parametrize("command", ["simulate", "vssm"])
    def test_paths_beyond_memory(self, tmp_path, command):
        path = write_config(tmp_path, coin_config())
        res = run_cli(command, "--config", path, "--paths", "10000000000")
        self.assert_config_error(res, "10000000000 paths need about")

    @pytest.mark.parametrize("command, extra", [("simulate", 4),
                                                ("vssm", 6)])
    def test_paths_within_the_streamed_preflight(
            self, tmp_path, monkeypatch, capsys, command, extra):
        """A path count that the whole-ensemble preflight, (n, T, n)
        returns and ``extra`` doubles a path, refused now runs: only one
        block of returns is held."""
        paths = 20_000
        monkeypatch.setattr(sim, "_BLOCK", 1_000)
        argv = [command, "--config", write_config(tmp_path, saa_config()),
                "--paths", str(paths)]
        whole = 8 * paths * (1 + extra)  # T = n = 1
        monkeypatch.setattr(solver, "_available_bytes", lambda: whole - 1)
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out)
        monkeypatch.setattr(solver, "_available_bytes", lambda: 8 * paths)
        code = cli.main(argv)
        out, err = capsys.readouterr()
        self.assert_config_error(
            SimpleNamespace(returncode=code, stdout=out, stderr=err),
            f"{paths} paths need about")

    def test_tree_beyond_memory(self, tmp_path, monkeypatch, capsys):
        """vssm refuses to enumerate the 6**12 paths of a 12-period tree
        of 6 atoms before it allocates them."""
        atoms = [[[r], p] for r, p in zip([-0.1, -0.05, 0.0, 0.05, 0.1, 0.2],
                                          [0.25, 0.25] + [0.125] * 4)]
        cfg = coin_config(market={"horizon": 12, "riskless_rates": [1.02] * 12,
                                  "family": "discrete", "atoms": atoms})
        monkeypatch.setattr(solver, "_available_bytes", lambda: 64 * 2**30)
        code = cli.main(["vssm", "--config", write_config(tmp_path, cfg),
                         "--paths", "2"])
        out, err = capsys.readouterr()
        self.assert_config_error(
            SimpleNamespace(returncode=code, stdout=out, stderr=err),
            f"{6**12} tree paths need about")

    def test_solve_payload_carries_diagnostics(self, tmp_path):
        path = write_config(tmp_path, saa_config())
        res = run_cli("solve", "--config", path)
        assert res.returncode == 0, res.stderr
        diags = json.loads(res.stdout)["diagnostics"]
        assert {d["sign"] for d in diags} == {1, -1}
        assert all("evaluations" in d and "cross_gap" in d for d in diags)
        # every field of the solver's record reaches the payload, in order
        keys = ["t", "sign"] + [f.name for f in
                                dataclasses.fields(solver.MinimizeResult)
                                if f.name not in ("k", "converged")]
        assert all(list(d) == keys for d in diags)


class TestNonFiniteInput:
    """JSON admits NaN and Infinity; cone data holding them and the
    retired optimizer key exit 2 with one error line."""

    @pytest.mark.parametrize("cone", [
        {"type": "polyhedral", "A": [[float("nan")], [1.0]]},
        {"type": "polyhedral", "A": [[float("-inf")]]},
        {"type": "half_space", "normal": [float("inf")]},
        {"type": "half_space", "normal": [float("nan")]},
    ])
    def test_non_finite_cone(self, tmp_path, cone):
        path = write_config(tmp_path, coin_config(cones=cone))
        res = run_cli("solve", "--config", path)
        assert res.returncode == 2, res.stdout
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr
        assert "finite" in lines[0]

    @pytest.mark.parametrize("market", [
        {"riskless_rates": [float("nan"), 1.05]},
        {"riskless_rates": [1.05, float("inf")]},
        {"atoms": [[[float("-inf")], 0.5], [[0.2], 0.5]]},
        {"atoms": [[[-0.1], float("nan")], [[0.2], 0.5]]},
        {"family": "gaussian", "mean": [float("nan")],
         "covariance": [[0.04]]},
        {"family": "gaussian", "mean": [0.06],
         "covariance": [[float("inf")]]},
        {"family": "student_t", "mean": [0.06], "covariance": [[0.04]],
         "df": float("nan")},
        {"family": "student_t", "mean": [0.06], "covariance": [[0.04]],
         "df": float("inf")},
    ])
    def test_non_finite_market(self, tmp_path, market):
        cfg = coin_config()
        cfg["market"].update(market)
        if cfg["market"]["family"] != "discrete":
            del cfg["market"]["atoms"]
        path = write_config(tmp_path, cfg)
        res = run_cli("solve", "--config", path)
        assert res.returncode == 2, res.stdout
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr
        assert "finite" in lines[0]

    def test_penalty_optimizer_rejected(self, tmp_path):
        cfg = coin_config()
        cfg["numerics"]["optimizer"] = "penalty"
        path = write_config(tmp_path, cfg)
        res = run_cli("solve", "--config", path)
        assert res.returncode == 2
        lines = res.stderr.strip().splitlines()
        assert lines == ["error: unknown keys in 'numerics': ['optimizer']"]


class TestHugeMagnitudes:
    """A wealth or mean target beyond +-1e50 would square or raise to the
    fourth power past double precision: it exits 2 with one error line,
    not 0 with inf or NaN, and no numpy warning runs first.  Each run
    turns every warning into an error."""

    LIMITED_SHORT = CONFIGS / "three_index_limited_short_gaussian.json"
    EXTRA = {"frontier": ["--mean-min", "1.16", "--mean-max", "2.16"],
             "simulate": ["--paths", "3000"], "vssm": ["--paths", "3000"],
             "solve": [], "tcie": []}

    def run_strict(self, tmp_path, command, policy=None, *flags):
        cfg = json.loads(self.LIMITED_SHORT.read_text())
        cfg["policy"].update(policy or {})
        return subprocess.run(
            [sys.executable, "-W", "error", "-m", "conemv", command,
             "--config", write_config(tmp_path, cfg), "--samples", "3000",
             *(flags or self.EXTRA[command])],
            capture_output=True, text=True, timeout=300)

    @pytest.mark.parametrize("command,key,value", [
        ("frontier", "x0", -1e154),
        ("frontier", "x0", -1e160),
        ("frontier", "x0", -1e308),
        ("simulate", "x0", -1e80),
        ("simulate", "x0", -1e160),
        ("simulate", "x0", -1e308),
        ("simulate", "d", 1e160),
        ("solve", "x0", -1e160),
        ("tcie", "d", 1e160),
        ("vssm", "x0", -1e308),
    ])
    def test_policy_value(self, tmp_path, command, key, value):
        res = self.run_strict(tmp_path, command, {key: value})
        assert res.returncode == 2, res.stdout
        assert res.stderr == (f"error: {key!r} must lie in [-1e+50, 1e+50], "
                              f"got {value!r}\n")

    @pytest.mark.parametrize("key,value", [("x_k", -1e160), ("d_k", 1e160)])
    def test_truncated_state(self, tmp_path, key, value):
        policy = {"kind": "truncated", "k": 1, "x_k": 1.1, "d_k": 1.4,
                  key: value}
        res = self.run_strict(tmp_path, "simulate", policy)
        assert res.returncode == 2, res.stdout
        assert res.stderr == (f"error: {key!r} must lie in [-1e+50, 1e+50], "
                              f"got {value!r}\n")

    @pytest.mark.parametrize("low,high", [("1e200", "1e200"),
                                          ("1.16", "1e200"),
                                          ("-1e200", "2.16")])
    def test_mean_flags(self, tmp_path, low, high):
        res = self.run_strict(tmp_path, "frontier", None,
                              f"--mean-min={low}", f"--mean-max={high}")
        flag, value = (("--mean-min", low) if abs(float(low)) > 1e50
                       else ("--mean-max", high))
        assert res.returncode == 2, res.stdout
        assert res.stderr == (f"error: {flag} must lie in [-1e+50, 1e+50], "
                              f"got {float(value)}\n")

    @pytest.mark.parametrize("command", ["frontier", "simulate"])
    def test_bound_itself_is_finite(self, tmp_path, command):
        flags = (["--mean-min", "1.16", "--mean-max", "1e50"]
                 if command == "frontier" else [])
        res = self.run_strict(tmp_path, command, {"x0": -1e50, "d": 1e50},
                              *flags)
        assert res.returncode == 0, res.stderr
        assert res.stderr == ""
        assert not any(word in res.stdout.lower()
                       for word in ("inf", "nan"))


class TestMalformedNumbers:
    """Numeric config values that do not convert, convert to a
    non-finite number, are booleans, are fractional counts or lie outside
    their range exit 2 with one error line and no traceback."""

    @pytest.mark.parametrize("section,key,value", [
        ("market", "riskless_rates", "high"),
        ("market", "riskless_rates", [[1.02], [1.02, 1.03]]),
        ("market", "riskless_rates", [1.02]),
        ("market", "mean", "high"),
        ("market", "mean", [[0.06], 0.07]),
        ("market", "covariance", "wide"),
        ("market", "covariance", [[0.04, 0.0], [0.0]]),
        ("market", "df", "five"),
        ("policy", "d", "high"),
        ("policy", "x0", float("inf")),
        ("policy", "x0", None),
        ("numerics", "samples", float("inf")),
        ("numerics", "seed", "seven"),
        ("numerics", "tol", float("nan")),
        ("numerics", "tol", float("inf")),
        ("numerics", "max_iter", float("-inf")),
        ("market", "horizon", 2.5),
        ("numerics", "samples", 2.9),
        ("numerics", "seed", 7.8),
        ("numerics", "max_iter", 10.5),
        ("policy", "k", 1.7),
        ("market", "horizon", True),
        ("market", "riskless_rates", [1.02, True]),
        ("numerics", "tol", True),
        ("numerics", "seed", False),
        ("policy", "x0", True),
        ("numerics", "samples", "1000"),
        ("policy", "x0", "1.5"),
        ("market", "riskless_rates", [1.02, "1.02"]),
        ("market", "mean", ["0.06"]),
        ("cones", "normal", ["1.0"]),
        ("numerics", "seed", -1),
        ("numerics", "seed", 2**64),
        ("policy", "k", -1),
        ("policy", "k", 2),
        ("cones", "normal", [[1.0], [1.0, 2.0]]),
        ("cones", "A", [[1, 0, 0], [1, 0]]),
        ("cones", "A", [[[1], [0], [0]]]),
        ("market", "mean", nested(0.06, 40)),
        ("cones", "A", nested(1.0, 40)),
    ])
    def test_exits_2_with_one_line(self, tmp_path, section, key, value):
        cfg = coin_config()
        if key in ("mean", "covariance", "df"):
            cfg["market"] = {"horizon": 2, "riskless_rates": [1.02, 1.02],
                             "family": "student_t", "mean": [0.06],
                             "covariance": [[0.04]], "df": 5}
        if key == "k":
            cfg["policy"] = {"kind": "truncated", "d_k": 1.1, "x_k": 1.0}
        if key == "normal":
            cfg["cones"] = {"type": "half_space"}
        if key == "A":
            cfg["cones"] = {"type": "polyhedral"}
        cfg[section][key] = value
        path = write_config(tmp_path, cfg)
        self.assert_exits_2(run_cli("solve", "--config", path))

    def test_solver_tolerance_is_an_unknown_key(self, tmp_path):
        cfg = coin_config()
        cfg["numerics"]["tol"] = 1e-08
        res = run_cli("solve", "--config", write_config(tmp_path, cfg))
        assert res.returncode == 2
        assert res.stderr == "error: unknown keys in 'numerics': ['tol']\n"

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_flag_outside_the_key_word(self, tmp_path, seed):
        path = write_config(tmp_path, coin_config())
        res = run_cli("solve", "--config", path, "--seed", str(seed))
        self.assert_exits_2(res)
        assert "seed must lie in [0, 2**64)" in res.stderr

    def test_largest_seed_accepted(self, tmp_path):
        path = write_config(tmp_path, coin_config())
        res = run_cli("simulate", "--config", path, "--paths", "1000",
                      "--seed", str(2**64 - 1))
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["seed"] == 2**64 - 1

    @staticmethod
    def assert_exits_2(res):
        assert res.returncode == 2, res.stdout
        assert "Traceback" not in res.stderr
        lines = res.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), res.stderr


def test_config_and_backend_import_no_scipy_solvers():
    """Parsing a polyhedral Student-t config and making its SAA backend
    loads neither scipy.optimize nor scipy.special: no conemv path loads
    the first, the import cost of the second falls on the first draw,
    and construction computes nothing derived."""
    config = CONFIGS / "three_index_limited_short_student_t.json"
    code = (
        "import json, sys\n"
        "import conemv.cli\n"
        "from conemv.config import parse_config\n"
        f"cfg = parse_config(json.loads(open({str(config)!r}).read()))\n"
        "cfg.make_backend()\n"
        "print(sorted(m for m in ('scipy.optimize', 'scipy.special')\n"
        "             if m in sys.modules))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_no_run_imports_scipy_optimize():
    """The package solves its least-squares problems itself: neither the
    limited-short Student-t `solve` and `vssm` commands nor an exact
    solve and supermartingale audit on a random polyhedral cone load
    scipy.optimize."""
    config = CONFIGS / "three_index_limited_short_student_t.json"
    code = (
        "import contextlib, io, sys\n"
        "import numpy as np\n"
        "import conemv.cli\n"
        "from conemv import solver, vssm\n"
        "from conemv.cones import ConvexCone\n"
        "from conemv.market import MarketSpec, PeriodDistribution\n"
        "loaded = []\n"
        f"argv = ['--config', {str(config)!r}, '--samples', '2000']\n"
        "for command, extra in (('solve', []), ('vssm', ['--paths', '20000'])):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = conemv.cli.main([command, *argv, *extra])\n"
        "    assert code == 0, command\n"
        "    loaded.append('scipy.optimize' in sys.modules)\n"
        "rng = np.random.default_rng(7)\n"
        "period = PeriodDistribution.discrete(rng.uniform(-0.3, 0.6, (5, 3)),\n"
        "                                     np.full(5, 0.2))\n"
        "market = MarketSpec.iid(3, 1.02, period)\n"
        "cone = ConvexCone.polyhedral(rng.normal(size=(4, 3)))\n"
        "table = solver.backward_recursion(\n"
        "    market, cone, solver.ExactDiscreteBackend(market))\n"
        "vssm.supermartingale_check(table, market, cone)\n"
        "loaded.append('scipy.optimize' in sys.modules)\n"
        "print(loaded)\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[False, False, False]"


def test_readme_command_lines_parse():
    """Every `conemv` line of README's command block is a valid call."""
    readme = (CONFIGS.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [line.split(">")[0] for line in
                block.replace("\\\n", " ").splitlines()
                if line.startswith("conemv ")]
    assert {c.split()[1] for c in commands} == {
        "solve", "frontier", "simulate", "tcie", "vssm", "make-cone"}
    for command in commands:
        args = cli._build_parser().parse_args(command.split()[1:])
        assert (CONFIGS.parent / args.config).is_file()
