"""Time consistency in efficiency of the precommitted policy.

The precommitted variance-minimising policy stays efficient at every
later date and state iff the conditional expectation of the attached
signed density never turns negative before the horizon, which reduces
to a support condition on the recursion gains: either

* condition 18 -- P_t' K_t^+ <= 1 almost surely at every period (the
  wealth process can never cross its threshold), or
* condition 19 -- crossings are possible from some first period t*,
  but every later short-side gain K_s^- vanishes (equivalently
  C_s^- = 1), so a crossed path freezes and loses nothing more.

Otherwise some reachable state strictly above the threshold faces a
truncated problem whose optimum differs from the policy tail, and the
verdict reports the first offending period.  The verdict depends only
on the market and cones through the recursion table, not on (x0, d).

The one-step transition probabilities of the threshold crossing,
Pr(P'K^+ <= 1) and Pr(P'K^- <= -1), come from each period's law in
closed form (:meth:`conemv.market.PeriodDistribution.cdf_inner`): P'K
is elliptical on gaussian and Student-t periods, so they are univariate
CDFs, and discrete periods sum atom weights.  No sample is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .market import MarketSpec
from .solver import RecursionTable

_SUP_TOL = 1e-10


@dataclass
class PeriodDiagnostics:
    t: int
    ess_sup_plus: float       # ess sup of P' K^+
    can_cross: bool
    k_minus_norm: float
    c_minus: float


@dataclass
class TcieVerdict:
    is_tcie: bool
    reason: str                            # condition_18 | condition_19 | violated
    flip_period: Optional[int] = None      # first period able to cross
    first_violation_period: Optional[int] = None
    evidence: dict = field(default_factory=dict)
    periods: list = field(default_factory=list)


def check_tcie(table: RecursionTable, market: MarketSpec) -> TcieVerdict:
    """Decide time consistency in efficiency for a solved recursion.

    Almost-sure statements are decided analytically: a continuous
    family has unbounded support, so P'K^+ <= 1 a.s. can hold only for
    K^+ = 0, while discrete periods are checked atom by atom.  A gain
    counts as zero only when it is exactly 0, as the solver's zero test
    stores it; any nonzero entry, however small, makes it nonzero, so
    the verdict does not change when returns are quoted in other units.
    """
    T = table.horizon
    periods = []
    flip_period = None
    for t in range(T):
        k_plus = table.k_plus[t]
        sup = (market.periods[t].support_max_inner(k_plus)
               if np.any(k_plus) else 0.0)
        can_cross = sup > 1.0 + _SUP_TOL
        periods.append(PeriodDiagnostics(
            t, float(sup), bool(can_cross),
            float(np.linalg.norm(table.k_minus[t])),
            float(table.c_minus[t])))
        if can_cross and flip_period is None:
            flip_period = t

    if flip_period is None:
        return TcieVerdict(True, "condition_18", periods=periods)

    offenders = [s for s in range(flip_period + 1, T)
                 if np.any(table.k_minus[s])]
    if not offenders:
        return TcieVerdict(
            True, "condition_19", flip_period=flip_period,
            evidence={"c_minus_after_flip":
                      table.c_minus[flip_period + 1:T].tolist()},
            periods=periods)
    s = offenders[0]
    return TcieVerdict(
        False, "violated", flip_period=flip_period,
        first_violation_period=s,
        evidence={"k_minus_norm": float(np.linalg.norm(table.k_minus[s])),
                  "c_minus": float(table.c_minus[s])},
        periods=periods)


@dataclass
class TransitionProbs:
    stay_below: float      # Pr(P'K^+ <= 1)
    cross_up: float        # Pr(P'K^+ > 1)
    return_from_above: float  # Pr(P'K^- <= -1)
    stay_above: float      # Pr(P'K^- > -1)


def transition_probs(table: RecursionTable, market: MarketSpec, t: int,
                     backend=None) -> TransitionProbs:
    """One-step threshold transition probabilities at period t, exact
    on every family: :meth:`PeriodDistribution.cdf_inner` gives
    Pr(P'K^+ <= 1) and Pr(P'K^- <= -1) from the period's law, and each
    complement from the law's upper tail, so a crossing far rarer than
    the rounding of 1 keeps its relative precision.

    ``backend`` is accepted and unused.  The benchmark's workloads still
    pass it; it goes with their next change.
    """
    period = market.periods[t]
    k_plus, k_minus = table.k_plus[t], table.k_minus[t]
    return TransitionProbs(period.cdf_inner(k_plus, 1.0),
                           period.cdf_inner(k_plus, 1.0, upper=True),
                           period.cdf_inner(k_minus, -1.0),
                           period.cdf_inner(k_minus, -1.0, upper=True))
