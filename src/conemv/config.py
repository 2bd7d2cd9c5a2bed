"""Run configuration: JSON schema shared by the CLI and tests.

A configuration has four sections:

* ``market``   -- horizon, riskless rates, and either a single family
  (gaussian / student_t via mean+covariance, discrete via atoms)
  broadcast over all periods;
* ``cones``    -- one cone fragment, or a list with one per period;
* ``policy``   -- kind plus initial wealth and mean target;
* ``numerics`` -- expectation backend, optimizer, tolerances.

Unknown keys anywhere are rejected so typos fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .cones import ConvexCone
from .errors import ConfigError
from .market import MarketSpec, PeriodDistribution
from .solver import SolverOptions, make_backend

_MARKET_KEYS = {"horizon", "riskless_rates", "family", "df", "mean",
                "covariance", "atoms"}
_CONE_KEYS = {"type", "normal", "A"}
_POLICY_KEYS = {"kind", "x0", "d", "k", "d_k", "x_k"}
_NUMERICS_KEYS = {"backend", "samples", "seed", "optimizer", "tol",
                  "max_iter"}
_POLICY_KINDS = {"precommitted", "minimum_variance", "time_consistent",
                 "truncated"}


@dataclass
class RunConfig:
    market: MarketSpec
    cones: list[ConvexCone]
    policy_kind: str = "precommitted"
    x0: float = 1.0
    d: float = 1.0
    truncate_k: Optional[int] = None
    truncate_d_k: Optional[float] = None
    truncate_x_k: Optional[float] = None
    backend_kind: str = "saa"
    samples: int = 1_000_000
    seed: int = 0
    solver_options: SolverOptions = field(default_factory=SolverOptions)

    def make_backend(self):
        return make_backend(self.market, self.backend_kind, self.samples,
                            self.seed)


def _reject_unknown(section: dict, allowed: set, name: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")


def _parse_market(section) -> MarketSpec:
    if not isinstance(section, dict):
        raise ConfigError("'market' must be an object")
    _reject_unknown(section, _MARKET_KEYS, "market")
    for key in ("horizon", "riskless_rates", "family"):
        if key not in section:
            raise ConfigError(f"market is missing {key!r}")
    horizon = section["horizon"]
    if not isinstance(horizon, int) or horizon < 1:
        raise ConfigError(f"horizon must be a positive integer, got {horizon!r}")
    rates = section["riskless_rates"]
    family = section["family"]
    if family == "discrete":
        if "atoms" not in section:
            raise ConfigError("discrete market needs 'atoms'")
        atoms = section["atoms"]
        try:
            values = [a[0] for a in atoms]
            probs = [a[1] for a in atoms]
            period = PeriodDistribution.discrete(values, probs)
        except (TypeError, IndexError) as exc:
            raise ConfigError(
                "'atoms' must be a list of [value_vector, probability] "
                "pairs") from exc
    elif family in ("gaussian", "student_t"):
        for key in ("mean", "covariance"):
            if key not in section:
                raise ConfigError(f"{family} market needs {key!r}")
        mean = np.asarray(section["mean"], dtype=float)
        cov = np.asarray(section["covariance"], dtype=float)
        if family == "gaussian":
            period = PeriodDistribution.gaussian(mean, cov)
        else:
            if "df" not in section:
                raise ConfigError("student_t market needs 'df'")
            period = PeriodDistribution.student_t(mean, cov, section["df"])
    else:
        raise ConfigError(f"unknown family {family!r}")
    market = MarketSpec(horizon, np.asarray(rates, dtype=float),
                        [period] * horizon)
    market.validate()
    return market


def _parse_cones(section, market: MarketSpec) -> list[ConvexCone]:
    n = market.n_assets
    fragments = section if isinstance(section, list) else [section]
    if isinstance(section, list) and len(fragments) != market.horizon:
        raise ConfigError(
            f"cone list has {len(fragments)} entries for horizon "
            f"{market.horizon}")
    cones = []
    for frag in fragments:
        if not isinstance(frag, dict):
            raise ConfigError("each cone fragment must be an object")
        _reject_unknown(frag, _CONE_KEYS, "cones")
        cones.append(ConvexCone.from_dict(frag, n))
    if not isinstance(section, list):
        cones = cones * market.horizon
    return cones


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    _reject_unknown(data, {"market", "cones", "policy", "numerics"},
                    "configuration")
    if "market" not in data:
        raise ConfigError("configuration needs a 'market' section")
    market = _parse_market(data["market"])
    cones = _parse_cones(data.get("cones", {"type": "whole_space"}), market)

    cfg = RunConfig(market=market, cones=cones)

    policy = data.get("policy", {})
    if not isinstance(policy, dict):
        raise ConfigError("'policy' must be an object")
    _reject_unknown(policy, _POLICY_KEYS, "policy")
    cfg.policy_kind = policy.get("kind", "precommitted")
    if cfg.policy_kind not in _POLICY_KINDS:
        raise ConfigError(f"unknown policy kind {cfg.policy_kind!r}")
    cfg.x0 = float(policy.get("x0", 1.0))
    cfg.d = float(policy.get("d", cfg.market.rho(0) * cfg.x0))
    if cfg.policy_kind == "truncated":
        for key in ("k", "d_k", "x_k"):
            if key not in policy:
                raise ConfigError(f"truncated policy needs {key!r}")
        cfg.truncate_k = int(policy["k"])
        cfg.truncate_d_k = float(policy["d_k"])
        cfg.truncate_x_k = float(policy["x_k"])

    numerics = data.get("numerics", {})
    if not isinstance(numerics, dict):
        raise ConfigError("'numerics' must be an object")
    _reject_unknown(numerics, _NUMERICS_KEYS, "numerics")
    cfg.backend_kind = numerics.get("backend", "saa")
    if cfg.backend_kind not in ("exact", "saa"):
        raise ConfigError(f"unknown backend {cfg.backend_kind!r}")
    cfg.samples = int(numerics.get("samples", 1_000_000))
    cfg.seed = int(numerics.get("seed", 0))
    optimizer = numerics.get("optimizer", "projected_gradient")
    if optimizer != "projected_gradient":
        raise ConfigError(f"unknown optimizer {optimizer!r}")
    cfg.solver_options = SolverOptions(
        tol=float(numerics.get("tol", 1e-8)),
        max_iter=int(numerics.get("max_iter", 5000)))
    if cfg.solver_options.tol <= 0 or cfg.solver_options.max_iter < 1:
        raise ConfigError("numerics tol/max_iter out of range")
    if cfg.backend_kind == "saa" and cfg.samples < 2:
        raise ConfigError("saa backend needs samples >= 2")
    return cfg
