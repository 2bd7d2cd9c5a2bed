"""Command-line interface.

Subcommands: solve, frontier, simulate, tcie, vssm, make-cone.  All
read a JSON run configuration (see :mod:`conemv.config`); results go
to stdout or --out.  Exit codes: 0 success, 1 runtime failure
(non-convergence, unattainable target), 2 configuration problems.

No command keeps the SAA backend after its solve, and a
time-consistent or minimum-variance simulate solves no table: its
policy reads only the closed-form unconstrained table.  simulate and
vssm draw, reduce and drop one block of ``sim._BLOCK`` paths at a time
and keep at most 33 bytes a path, not the paths' returns, so their
memory grows slowly with the path count.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys

import numpy as np

from . import policy as policy_mod
from . import sim, tcie, vssm
from .cones import construct_tcie_cone
from .config import checked_seed, checked_wealth, parse_config
from .errors import (ConemvError, ConfigError, InsufficientMemory,
                     InvalidCone, InvalidMarket, InvalidTarget,
                     TargetUnattainable)
from .solver import backward_recursion, require_memory, unconstrained_table

_CONFIG_ERRORS = (ConfigError, InvalidMarket, InvalidCone, InsufficientMemory)
# a frontier point's grid value, row and output text: at most 1.4 KiB
# under tracemalloc, with JSON output and every row kept
_FRONTIER_POINT_BYTES = 2048


def _emit(text: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write --out {out_path}: "
                              f"{exc.strerror}") from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _finite(value):
    """``value`` with every non-finite float, such as the unbounded
    ``ess_sup_plus`` of a continuous period, as None (JSON null)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def _emit_json(payload, out_path) -> None:
    """Print strict JSON (RFC 8259): no NaN or Infinity tokens."""
    _emit(json.dumps(_finite(payload), indent=2, allow_nan=False), out_path)


def _check_out(out_path) -> None:
    """Refuse, before any solve, an --out path in a missing directory
    or naming a directory."""
    folder = os.path.dirname(os.path.abspath(out_path))
    if not os.path.isdir(folder):
        raise ConfigError(f"--out directory does not exist: {folder}")
    if os.path.isdir(out_path):
        raise ConfigError(f"--out is a directory: {out_path}")


def _load_config(args):
    if not args.config:
        raise ConfigError("--config is required")
    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
        cfg = parse_config(data)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {args.config}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: "
                          f"{exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:  # from the parser or the schema walk
        raise ConfigError("config nests arrays or objects too deeply") from exc
    if getattr(args, "seed", None) is not None:
        cfg.seed = checked_seed(args.seed)
    if getattr(args, "samples", None) is not None:
        if args.samples < 2:
            raise ConfigError(f"--samples must be >= 2, got {args.samples}")
        cfg.samples = args.samples
    return cfg


def _require_path_memory(cfg, n_paths: int, kept: int) -> None:
    """Refuse, before the solve, a path count whose ``kept`` bytes a
    path plus one block of paths do not fit.  A block holds its
    (block, T, n) returns, its (block, T + 1) wealth and at most n + 4
    doubles a path of temporaries: a control step's wealth,
    coefficients, branch index and gains, or the density's output and
    its two factors and sign mask for one draw-pool chunk per worker.
    Before the wealth exists, a draw slab holds its uniforms (n + 1,
    rounded up to a multiple of four) and Student-t scale, which fit in
    the wealth's place and these n + 4."""
    T, n = cfg.market.horizon, cfg.market.n_assets
    per_path = T * n + T + 1 + n + 4
    require_memory(kept * n_paths + 8 * min(n_paths, sim._BLOCK) * per_path,
                   f"{n_paths} paths")


def _solve_table(cfg):
    """The recursion table, from a new backend that, with its frozen
    samples, is freed on return."""
    return backward_recursion(cfg.market, cfg.cones, cfg.make_backend())


def _build_policy(cfg):
    """The configured policy; only one that reads a cone gain solves."""
    kind = cfg.policy_kind
    if kind == "time_consistent":
        return policy_mod.time_consistent(cfg.market, cfg.x0, cfg.d)
    if kind == "minimum_variance":  # a zero control: it reads only rho
        return policy_mod.minimum_variance(unconstrained_table(cfg.market),
                                           cfg.x0)
    table = _solve_table(cfg)
    if kind == "precommitted":
        return policy_mod.precommitted(table, cfg.x0, cfg.d)
    return policy_mod.truncated(table, cfg.truncate_k, cfg.truncate_x_k,
                                cfg.truncate_d_k)


def _thresholds(cfg, table, mu: float) -> dict:
    """Wealth thresholds (d - mu*)/rho_t for t = 0, ..., T."""
    return {str(t): policy_mod.wealth_threshold(table, cfg.d, mu, t)
            for t in range(table.horizon + 1)}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(args) -> int:
    cfg = _load_config(args)
    table = _solve_table(cfg)
    payload = table.to_dict()
    if cfg.policy_kind == "precommitted":
        try:
            mu = policy_mod.mu_star(table, cfg.x0, cfg.d)
            payload["policy"] = {
                "kind": "precommitted", "x0": cfg.x0, "d": cfg.d,
                "mu_star": mu, "thresholds": _thresholds(cfg, table, mu),
            }
        except TargetUnattainable as exc:
            payload["policy"] = {"kind": "precommitted", "x0": cfg.x0,
                                 "d": cfg.d, "error": str(exc)}
    _emit_json(payload, args.out)
    return 0


def cmd_frontier(args) -> int:
    for flag, value in (("--mean-min", args.mean_min),
                        ("--mean-max", args.mean_max)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value}")
        checked_wealth(flag, value)
    cfg = _load_config(args)
    require_memory(_FRONTIER_POINT_BYTES * args.points,
                   f"{args.points} frontier points")
    table = _solve_table(cfg)
    benchmark = unconstrained_table(cfg.market)
    riskless = table.rho(0) * cfg.x0
    grid = np.linspace(args.mean_min, args.mean_max, args.points)
    rows = []
    for mean in grid:
        if mean < riskless and not args.include_lower_branch:
            continue
        try:
            fp = policy_mod.frontier_point(table, cfg.x0, float(mean))
            var, eff = f"{fp.variance:.12g}", fp.efficient
        except TargetUnattainable:
            var, eff = "NA", False
        try:
            tc = policy_mod.tc_frontier_point(benchmark, cfg.x0, float(mean))
            tc_var = f"{tc.variance:.12g}"
        except InvalidTarget:
            tc_var = "NA"
        rows.append({"mean": f"{mean:.12g}",
                     "variance_precommitted": var,
                     "variance_time_consistent": tc_var,
                     "efficient": str(eff).lower()})
    if args.format == "json":
        _emit_json(rows, args.out)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=[
            "mean", "variance_precommitted", "variance_time_consistent",
            "efficient"])
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), args.out)
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    # terminal wealth, the terminal statistics' temporaries (3) and
    # the crossed flag
    _require_path_memory(cfg, args.paths, 8 * 4 + 1)
    pol = _build_policy(cfg)
    stats, report = sim.summarize(pol, cfg.market, args.paths, cfg.seed)
    payload = {
        "policy": cfg.policy_kind,
        "n_paths": args.paths,
        "seed": cfg.seed,
        "terminal": dataclasses.asdict(stats),
    }
    if report is not None:
        payload["exceedance"] = dataclasses.asdict(report)
    _emit_json(payload, args.out)
    return 0


def cmd_tcie(args) -> int:
    cfg = _load_config(args)
    table = _solve_table(cfg)
    payload = dataclasses.asdict(tcie.check_tcie(table, cfg.market))
    for period in payload["periods"]:
        period["transition"] = dataclasses.asdict(tcie.transition_probs(
            table, cfg.market, period["t"]))
    try:
        mu = policy_mod.mu_star(table, cfg.x0, cfg.d)
        payload["thresholds"] = _thresholds(cfg, table, mu)
    except TargetUnattainable:
        pass
    _emit_json(payload, args.out)
    return 0


def cmd_vssm(args) -> int:
    cfg = _load_config(args)
    # the density, two temporaries of its moments and a sign mask
    _require_path_memory(cfg, args.paths, 8 * 3 + 1)
    table = _solve_table(cfg)
    mean, second = vssm.theoretical_moments(table)
    payload = {"theoretical": {"mean": mean, "second_moment": second}}
    if cfg.backend_kind == "exact":
        mean, second = vssm.exact_density_moments(table, cfg.market)
        report = vssm.supermartingale_check(table, cfg.market, cfg.cones)
        payload["exact"] = {"mean": mean, "second_moment": second,
                            "supermartingale_ok": report.ok}
    dens = np.empty(args.paths)
    for lo, hi in sim.blocks(args.paths):
        returns = sim.sample_returns(cfg.market, hi - lo, cfg.seed, lo)
        dens[lo:hi] = vssm.density_for_paths(table, returns)
        del returns  # before the next block is drawn
    n = dens.shape[0]
    payload["monte_carlo"] = {
        "n_paths": n,
        "seed": cfg.seed,
        "mean": float(dens.mean()),
        "se_mean": float(dens.std(ddof=1) / np.sqrt(n)),
        "second_moment": float((dens ** 2).mean()),
        "se_second_moment": float((dens ** 2).std(ddof=1) / np.sqrt(n)),
        "negative_fraction": float((dens < 0).mean()),
        "zero_density_paths": int((dens == 0.0).sum()),
    }
    _emit_json(payload, args.out)
    return 0


def cmd_make_cone(args) -> int:
    cfg = _load_config(args)
    cone = construct_tcie_cone(cfg.market.periods[0].mean)
    _emit_json(cone.to_dict(), args.out)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    io_args = argparse.ArgumentParser(add_help=False)
    io_args.add_argument("--config", help="path to JSON run configuration")
    io_args.add_argument("--out", default=None,
                         help="write output to this path instead of stdout")
    shared = argparse.ArgumentParser(add_help=False, parents=[io_args])
    shared.add_argument("--seed", type=int, default=None,
                        help="override the configured seed")
    shared.add_argument("--samples", type=int, default=None,
                        help="override the configured SAA sample count")

    parser = argparse.ArgumentParser(
        prog="conemv",
        description="Cone-constrained multi-period mean-variance solver")
    subs = parser.add_subparsers(dest="command", required=True)

    subs.add_parser("solve", parents=[shared],
                    help="run the backward recursion").set_defaults(
        func=cmd_solve)

    p_front = subs.add_parser("frontier", parents=[shared],
                              help="efficient frontier on a mean grid")
    p_front.add_argument("--mean-min", type=float, required=True)
    p_front.add_argument("--mean-max", type=float, required=True)
    p_front.add_argument("--points", type=int, default=50)
    p_front.add_argument("--include-lower-branch", action="store_true")
    p_front.add_argument("--format", choices=("csv", "json"), default="csv")
    p_front.set_defaults(func=cmd_frontier)

    p_sim = subs.add_parser("simulate", parents=[shared],
                            help="Monte Carlo under the configured policy")
    p_sim.add_argument("--paths", type=int, default=sim.DEFAULT_PATHS)
    p_sim.set_defaults(func=cmd_simulate)

    subs.add_parser("tcie", parents=[shared],
                    help="time-consistency-in-efficiency verdict"
                    ).set_defaults(func=cmd_tcie)

    p_vssm = subs.add_parser("vssm", parents=[shared],
                             help="density moments of the attached measure")
    p_vssm.add_argument("--paths", type=int, default=sim.DEFAULT_PATHS)
    p_vssm.set_defaults(func=cmd_vssm)

    subs.add_parser("make-cone", parents=[io_args],
                    help="half-space cone of the market's mean excess "
                    "return").set_defaults(func=cmd_make_cone)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, least in (("paths", 2), ("points", 1)):
            if getattr(args, flag, least) < least:
                raise ConfigError(f"--{flag} must be >= {least}, got "
                                  f"{getattr(args, flag)}")
        if args.out:
            _check_out(args.out)
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConemvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
