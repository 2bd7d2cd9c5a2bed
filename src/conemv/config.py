"""Run configuration: JSON schema shared by the CLI and tests.

A configuration has four sections:

* ``market``   -- horizon, riskless rates, and either a single family
  (gaussian / student_t via mean+covariance, discrete via atoms)
  broadcast over all periods;
* ``cones``    -- one cone fragment, or a list with one per period;
* ``policy``   -- kind plus initial wealth and mean target;
* ``numerics`` -- expectation backend, SAA sample count and seed.

Unknown keys in any section are rejected first, so a typo is reported
as one; then a boolean anywhere, or a string outside the name keys
``family``, ``type``, ``kind`` and ``backend``: "1000" is not a number.
The policy's wealths and mean targets lie within +-``WEALTH_BOUND``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

from .cones import ConvexCone, cones_per_period
from .errors import ConfigError, DimensionMismatch
from .market import MarketSpec, PeriodDistribution
from .solver import ExactDiscreteBackend, SaaBackend

_MARKET_KEYS = {"horizon", "riskless_rates", "family", "df", "mean",
                "covariance", "atoms"}
_CONE_KEYS = {"type", "normal", "A"}
_POLICY_KEYS = {"kind", "x0", "d", "k", "d_k", "x_k"}
_NUMERICS_KEYS = {"backend", "samples", "seed"}
_SECTION_KEYS = {"market": _MARKET_KEYS, "cones": _CONE_KEYS,
                 "policy": _POLICY_KEYS, "numerics": _NUMERICS_KEYS}
_NAME_KEYS = {"family", "type", "kind", "backend"}
_POLICY_KINDS = {"precommitted", "minimum_variance", "time_consistent",
                 "truncated"}
# largest magnitude of a wealth or mean target: a frontier variance
# squares it and simulate's variance SE sums its fourth powers, which
# past about 1e77 overflow double precision
WEALTH_BOUND = 1e50


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

    def make_backend(self):
        if self.backend_kind == "exact":
            return ExactDiscreteBackend(self.market)
        return SaaBackend(self.market, self.samples, self.seed)


def _reject_unknown(section: dict, allowed: set, name: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {name!r}: {sorted(unknown)}")


def _reject_unknown_keys(data: dict) -> None:
    """Every key of the configuration and of its sections (each cone
    fragment of a list included) is one the schema names."""
    _reject_unknown(data, set(_SECTION_KEYS), "configuration")
    for name, allowed in _SECTION_KEYS.items():
        section = data.get(name)
        parts = (section if name == "cones" and isinstance(section, list)
                 else [section])
        for part in parts:
            if isinstance(part, dict):
                _reject_unknown(part, allowed, name)


def _reject_booleans_and_strings(node, path: str, key=None) -> None:
    """No key holds a boolean, and only the name keys hold a string: a
    JSON true or false anywhere, or a quoted number, is a ConfigError."""
    if isinstance(node, bool):
        raise ConfigError(f"{path} must not be a boolean, got {node}")
    if isinstance(node, str) and key not in _NAME_KEYS:
        raise ConfigError(f"{path} must not be a string, got {node!r}")
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for name, child in children:
        _reject_booleans_and_strings(
            child, f"{path}.{name}" if path else str(name), name)


def _number(section: dict, key: str, default, kind=float):
    """section[key], or ``default`` when absent, as a finite float, or as
    an int of integral value for ``kind=int``; else a ConfigError."""
    value = section.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if kind is float and math.isfinite(number):
        return number
    if kind is int and number.is_integer():
        return value if isinstance(value, int) else int(number)
    what = "a finite number" if kind is float else "an integer"
    raise ConfigError(f"{key!r} must be {what}, got {value!r}")


def checked_wealth(name: str, value: float) -> float:
    """``value`` if it lies within +-WEALTH_BOUND, else a ConfigError."""
    if not abs(value) <= WEALTH_BOUND:
        raise ConfigError(f"{name} must lie in [-{WEALTH_BOUND:g}, "
                          f"{WEALTH_BOUND:g}], got {value!r}")
    return value


def checked_seed(seed: int) -> int:
    """``seed`` if it fits the 64-bit word that keys the draws, else a
    ConfigError."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def _parse_period(section: dict) -> PeriodDistribution:
    family = section["family"]
    if family == "discrete":
        if "atoms" not in section:
            raise ConfigError("discrete market needs 'atoms'")
        atoms = section["atoms"]
        try:
            values = [a[0] for a in atoms]
            probs = [a[1] for a in atoms]
            return PeriodDistribution.discrete(values, probs)
        except (TypeError, IndexError, ValueError) as exc:
            raise ConfigError(
                "'atoms' must be a list of [value_vector, probability] "
                "pairs") from exc
    if family not in ("gaussian", "student_t"):
        raise ConfigError(f"unknown family {family!r}")
    for key in ("mean", "covariance"):
        if key not in section:
            raise ConfigError(f"{family} market needs {key!r}")
    mean, cov = section["mean"], section["covariance"]
    for key, value in (("mean", mean), ("covariance", cov)):
        if value is None or isinstance(value, numbers.Real):
            raise ConfigError(f"{key!r} must be an array, got {value!r}")
    if family == "gaussian":
        return PeriodDistribution.gaussian(mean, cov)
    if "df" not in section:
        raise ConfigError("student_t market needs 'df'")
    return PeriodDistribution.student_t(mean, cov, section["df"])


def _parse_market(section) -> MarketSpec:
    if not isinstance(section, dict):
        raise ConfigError("'market' must be an object")
    for key in ("horizon", "riskless_rates", "family"):
        if key not in section:
            raise ConfigError(f"market is missing {key!r}")
    horizon = _number(section, "horizon", None, int)
    if horizon < 1:
        raise ConfigError(f"horizon must be a positive integer, got {horizon!r}")
    # before [period] * horizon, which a horizon of 10**9 would make an
    # 8 GB list
    rates = section["riskless_rates"]
    if not isinstance(rates, list):
        raise ConfigError("'riskless_rates' must be a list of numbers")
    if len(rates) != horizon:
        raise ConfigError(f"need {horizon} riskless rates, got {len(rates)}")
    try:
        market = MarketSpec(horizon, rates,
                            [_parse_period(section)] * horizon)
        market.validate()
    except (TypeError, ValueError, DimensionMismatch) as exc:
        # non-numeric or ragged arrays, and shapes that do not fit
        raise ConfigError(f"malformed market data: {exc}") from exc
    return market


def _parse_cones(section, market: MarketSpec) -> list[ConvexCone]:
    n = market.n_assets
    fragments = section if isinstance(section, list) else [section]
    cones = []
    for frag in fragments:
        if not isinstance(frag, dict):
            raise ConfigError("each cone fragment must be an object")
        cones.append(ConvexCone.from_dict(frag, n))
    return cones_per_period(cones if isinstance(section, list) else cones[0],
                            market.horizon, n)


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    _reject_unknown_keys(data)
    _reject_booleans_and_strings(data, "")
    if "market" not in data:
        raise ConfigError("configuration needs a 'market' section")
    market = _parse_market(data["market"])
    cones = _parse_cones(data.get("cones", {"type": "whole_space"}), market)

    cfg = RunConfig(market=market, cones=cones)

    policy = data.get("policy", {})
    if not isinstance(policy, dict):
        raise ConfigError("'policy' must be an object")
    cfg.policy_kind = policy.get("kind", "precommitted")
    if not isinstance(cfg.policy_kind, str) or \
            cfg.policy_kind not in _POLICY_KINDS:
        raise ConfigError(f"unknown policy kind {cfg.policy_kind!r}")
    cfg.x0 = checked_wealth("'x0'", _number(policy, "x0", 1.0))
    cfg.d = checked_wealth(
        "'d'", _number(policy, "d", cfg.market.rho(0) * cfg.x0))
    if cfg.policy_kind == "truncated":
        for key in ("k", "d_k", "x_k"):
            if key not in policy:
                raise ConfigError(f"truncated policy needs {key!r}")
        cfg.truncate_k = _number(policy, "k", None, int)
        if not 0 <= cfg.truncate_k < market.horizon:
            raise ConfigError("truncated policy's k must lie in "
                              f"[0, {market.horizon}), got {cfg.truncate_k}")
        cfg.truncate_d_k = checked_wealth("'d_k'",
                                          _number(policy, "d_k", None))
        cfg.truncate_x_k = checked_wealth("'x_k'",
                                          _number(policy, "x_k", None))

    numerics = data.get("numerics", {})
    if not isinstance(numerics, dict):
        raise ConfigError("'numerics' must be an object")
    cfg.backend_kind = numerics.get("backend", "saa")
    if cfg.backend_kind not in ("exact", "saa"):
        raise ConfigError(f"unknown backend {cfg.backend_kind!r}")
    family = market.periods[0].family
    if cfg.backend_kind == "exact" and family != "discrete":
        raise ConfigError(
            f"exact backend needs a discrete market, not {family}")
    cfg.samples = _number(numerics, "samples", 1_000_000, int)
    cfg.seed = checked_seed(_number(numerics, "seed", 0, int))
    if cfg.backend_kind == "saa" and cfg.samples < 2:
        raise ConfigError("saa backend needs samples >= 2")
    return cfg
