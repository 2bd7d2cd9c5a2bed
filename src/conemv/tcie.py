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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BackendMismatch, InsufficientConditioningEvents
from .market import MarketSpec
from .policy import mu_star
from .solver import RecursionTable

_SUP_TOL = 1e-10
_MIN_COUNT = 100  # paths a conditioning cell needs to be judged


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
    K^+ = 0, while discrete periods are checked atom by atom.
    """
    T = table.horizon
    periods = []
    flip_period = None
    for t in range(T):
        k_plus = table.k_plus[t]
        if table.gain_is_zero(t, +1):
            sup = 0.0
        else:
            sup = market.periods[t].support_max_inner(k_plus)
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
                 if not table.gain_is_zero(s, -1)]
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
    t: int
    stay_below: float      # Pr(P'K^+ <= 1)
    cross_up: float        # Pr(P'K^+ > 1)
    return_from_above: float  # Pr(P'K^- <= -1)
    stay_above: float      # Pr(P'K^- > -1)
    standard_error: float  # 0 for exact enumeration


def transition_probs(table: RecursionTable, market: MarketSpec, t: int,
                     backend=None) -> TransitionProbs:
    """One-step threshold transition probabilities at period t.

    Exact on discrete periods; otherwise Monte Carlo over the frozen
    period sample of the SAA backend that solved ``table``, which a
    continuous period requires.
    """
    period = market.periods[t]
    if period.family == "discrete":
        pts, w = period.atoms, period.probs
        se = 0.0
    else:
        if backend is None:
            raise BackendMismatch(f"period {t} is {period.family}: its "
                                  "crossings need the solve's SAA backend")
        pts, w = backend.points(t), None
        se = 0.5 / np.sqrt(pts.shape[0])

    def prob(mask):
        return float(np.mean(mask)) if w is None else float(w @ mask)

    y_plus = pts @ table.k_plus[t]
    y_minus = pts @ table.k_minus[t]
    p_below = prob(y_plus <= 1.0)
    p_return = prob(y_minus <= -1.0)
    return TransitionProbs(t, p_below, 1.0 - p_below, p_return,
                           1.0 - p_return, se)


@dataclass
class ConditioningCell:
    t: int
    side: str              # below | above | boundary
    count: int
    empirical: Optional[float]
    theoretical: Optional[float]
    tolerance: Optional[float]
    checked: bool
    ok: bool


@dataclass
class ConsistencyReport:
    ok: bool
    cells: list = field(default_factory=list)


def conditional_consistency_check(ensemble, table: RecursionTable,
                                  market: MarketSpec, x0: float, d: float,
                                  backend=None) -> ConsistencyReport:
    """Compare simulated one-step threshold transitions with theory.

    For paths strictly below the threshold at t the probability of
    staying (weakly) below at t+1 must equal Pr(P'K^+ <= 1); strictly
    above, the probability of returning equals Pr(P'K^- <= -1); paths
    exactly on the threshold stay there.  Cells with fewer than
    ``_MIN_COUNT`` paths are recorded but not judged; if no cell is
    checkable the ensemble is too small to say anything.  Continuous
    periods need ``backend``, the SAA backend that solved ``table``.
    """
    mu = mu_star(table, x0, d)
    g = d - mu
    T = table.horizon
    wealth = ensemble.wealth
    report = ConsistencyReport(ok=True)
    any_checked = False
    for t in range(ensemble.start_time, T):
        probs = transition_probs(table, market, t, backend=backend)
        w_now = g / table.rho(t)
        w_next = g / table.rho(t + 1)
        below = wealth[:, t] < w_now
        above = wealth[:, t] > w_now
        boundary = ~below & ~above
        next_below_eq = wealth[:, t + 1] <= w_next
        for side, mask, theo in (("below", below, probs.stay_below),
                                 ("above", above, probs.return_from_above)):
            count = int(mask.sum())
            if count < _MIN_COUNT:
                report.cells.append(ConditioningCell(
                    t, side, count, None, theo, None, False, True))
                continue
            emp = float(next_below_eq[mask].mean())
            se = np.sqrt(max(theo * (1.0 - theo), 1e-12) / count)
            tol = 4.0 * se + probs.standard_error * 4.0
            ok = abs(emp - theo) <= tol
            report.cells.append(ConditioningCell(
                t, side, count, emp, theo, tol, True, ok))
            report.ok = report.ok and ok
            any_checked = True
        count_b = int(boundary.sum())
        if count_b:
            # riskless roll-up of a boundary state, up to rounding
            slack = 1e-12 * max(1.0, abs(w_next))
            emp = float((np.abs(wealth[boundary, t + 1] - w_next)
                         <= slack).mean())
            ok = emp == 1.0
            report.cells.append(ConditioningCell(
                t, "boundary", count_b, emp, 1.0, 0.0, True, ok))
            report.ok = report.ok and ok
            any_checked = True
    if not any_checked:
        raise InsufficientConditioningEvents(
            f"no conditioning set reached {_MIN_COUNT} paths")
    return report
