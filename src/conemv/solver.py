"""Backward recursion for cone-constrained mean-variance control.

For each period t and sign branch the one-period cost of a feedback
gain K is

    h_t^+(K) = E[ C_{t+1}^+ (1 - P'K)^2 1{P'K <= 1}
                + C_{t+1}^- (1 - P'K)^2 1{P'K > 1} ],
    h_t^-(K) = E[ C_{t+1}^+ (1 + P'K)^2 1{P'K <= -1}
                + C_{t+1}^- (1 + P'K)^2 1{P'K > -1} ],

and the recursion stores the constrained minimisers

    K_t^{+-} = argmin_{K in cone_t} h_t^{+-}(K),
    C_t^{+-} = h_t^{+-}(K_t^{+-}),         C_T^{+-} = 1.

Both branch costs are convex, continuously differentiable and
piecewise quadratic, with

    grad h_t^{+-}(K) = 2 E[ c(K) P (P'K -+ 1) ],   H(K) = 2 E[ c(K) P P' ],

where c(K) picks C_{t+1}^+ or C_{t+1}^- by the same indicator and H is
the Hessian on the piece that holds K.  Each minimisation is projected
Newton (scaled gradient projection, Bertsekas 1982): from k it tries
k+ = proj^H(k - H^-1 grad) in the metric of H, backtracking by Armijo,
and stops on the Euclidean projected-gradient residual.  The
costs satisfy the exact identity h = L + grad h(K)'K / 2 against the
linear form L(K) = E[c(K) (1 -+ P'K)], so at a minimiser satisfying
complementarity the quadratic and linear evaluations agree.  The
identity holds exactly on a frozen sample too, so |h - L| is a
deterministic optimality residual on both backends, and the recursion
requires |h - L| <= 100 tol at every solved branch.

K = 0 is optimal iff -grad h(0) = 2 c sign E[P] (c > 0) lies in the
polar cone.  Membership does not change under positive scaling, so the
recursion tests the direction of sign E[P], the law's exact mean scaled
by its largest entry, before it draws: the test reads no constant, no
sample and no unit of return, and a period whose two branches pass is
never drawn.  Only this test sets a gain to zero, so every zero gain in
a table is exactly 0.

``backend.period(t)`` hands the recursion period t as a
:class:`PeriodCost`, whose ``cost(sign, k, c_plus, c_minus)`` is the
only way the solver reaches an expectation: the discrete atoms with
their probabilities, or one frozen SAA sample with its Gram matrix P'P
(common random numbers across all evaluations of that period).
Backends keep no state; the recursion holds each period for one
iteration of its loop and drops it before the next draw.  On the
sample each evaluation is one direct pass: c_maj times the sums over
every row plus (c_min - c_maj) times those over the rows on the
minority branch, the Hessian's whole-sample sum being P'P.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional

import numpy as np

from .cones import ConvexCone, cones_per_period
from .errors import (BackendMismatch, ConemvError, ConsistencyError,
                     InsufficientMemory, InvalidMarket, NoConvergence,
                     TargetUnattainable)
from .market import MarketSpec, PeriodDistribution
from .rng import STREAM_SAA

_STEP_FLOOR = 1e-18
_ARMIJO_SLOPE = 1e-4     # sufficient decrease, relative to the slope
_ARMIJO_SHRINK = 0.5     # step factor per backtrack
_RIDGE = 1e-8            # least metric eigenvalue, relative to the largest


# ---------------------------------------------------------------------------
# expectation backends
# ---------------------------------------------------------------------------

class ExactDiscreteBackend:
    """Exact expectations by summation over scenario atoms."""

    kind = "exact_discrete"

    def __init__(self, market: MarketSpec):
        for t, p in enumerate(market.periods):
            if p.family != "discrete":
                raise BackendMismatch(
                    f"exact backend needs discrete periods; period {t} is "
                    f"{p.family}")
        self.market = market

    def period(self, t: int) -> PeriodCost:
        """Period t's atoms, each read directly with its probability."""
        p = self.market.periods[t]
        return PeriodCost(t, p, p.atoms, p.probs, None)

    def describe(self) -> dict:
        return {"kind": self.kind}


def _available_bytes() -> Optional[int]:
    """MemAvailable from Linux's /proc/meminfo; None where it is absent."""
    try:
        with open("/proc/meminfo") as fh:
            return next(int(line.split()[1]) * 1024 for line in fh
                        if line.startswith("MemAvailable:"))
    except (OSError, StopIteration):
        return None


def require_memory(need: int, what: str) -> None:
    """Raise :class:`InsufficientMemory` when ``need`` bytes for ``what``
    exceed the available memory, before anything is allocated."""
    avail = _available_bytes()
    if avail is not None and need > avail:
        raise InsufficientMemory(
            f"{what} need about {need / 2**30:.1f} GiB; "
            f"{avail / 2**30:.1f} GiB of memory is available")


class SaaBackend:
    """Sample-average approximation with frozen per-period samples.

    Each :meth:`period` call draws period t's sample matrix from its
    counter-based stream and forms its Gram matrix P'P; every cost and
    gradient evaluation of that period reads the pair.  The backend
    keeps neither: its caller holds the period as long as it needs it,
    and a period drawn again is bit-identical.  A solve draws each
    period once.
    """

    kind = "saa"

    def __init__(self, market: MarketSpec, sample_count: int, seed: int):
        if sample_count < 2:
            raise ValueError(f"sample_count must be >= 2, got {sample_count}")
        self.market = market
        self.sample_count = int(sample_count)
        self.seed = int(seed)
        # one period's peak, in doubles a row: its draw, n (the sample)
        # plus, for one slab of rows, the uniforms (n + 1 rounded up to
        # a multiple of four) and the Student-t scale; its evaluation
        # with every row on the minority branch, under 2n + 3 (the
        # sample and the minority rows, their indices and residuals)
        n = market.n_assets
        require_memory(8 * self.sample_count * (2 * n + 3),
                       f"{self.sample_count} SAA samples")

    def period(self, t: int) -> PeriodCost:
        """Period t's frozen sample and its Gram matrix P'P, drawn anew."""
        # an overflow is reported once, below, not as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            sample = self.market.sample_block(
                t, self.seed, 0, self.sample_count, stream=STREAM_SAA)
            gram = sample.T @ sample
        if not np.all(np.isfinite(gram)):
            raise InvalidMarket(
                f"period {t}: the sums over {self.sample_count} SAA "
                "samples overflow double precision")
        return PeriodCost(t, self.market.periods[t], sample, None, gram)

    def describe(self) -> dict:
        return {"kind": self.kind, "samples": self.sample_count,
                "seed": self.seed}


# ---------------------------------------------------------------------------
# one-period cost
# ---------------------------------------------------------------------------

class Cost(NamedTuple):
    value: float       # h_t^{sign}(k)
    grad: np.ndarray   # grad h_t^{sign}(k)
    lin: float         # E[c(k) (1 -+ P'k)]
    hess: np.ndarray   # 2 E[c(k) P P'], the Hessian on k's piece


class PeriodCost(NamedTuple):
    """Period t's evaluator: rows ``pts`` of ``law`` with weights ``w``
    (None for a sample's 1/N) and Gram matrix ``gram`` (None for atoms)."""

    t: int
    law: PeriodDistribution
    pts: np.ndarray
    w: Optional[np.ndarray]
    gram: Optional[np.ndarray]

    def cost(self, sign: int, k, c_plus: float, c_minus: float) -> Cost:
        return _h_and_grad(self.pts, self.w, sign, k, c_plus, c_minus,
                           self.gram)


def _h_and_grad(pts, w, sign, k, c_plus, c_minus, gram=None) -> Cost:
    """The one cost evaluator: value, gradient, linear form and Hessian
    at k.

    ``pts`` holds the rows and ``w`` their weights, None for uniform
    1/N.  A uniform pass holds about one double a row: the residuals
    r = 1 -+ P'k, in place of P'k, make c_maj (r'r, sum r, P'r) plus
    (c_min - c_maj) times the same sums over the minority-branch rows
    only; the Hessian is c_maj ``gram`` (P'P, computed here when None)
    plus (c_min - c_maj) sum p p' over those rows.  With every row on
    the minority branch it holds, the n of the sample included, under
    2n + 3 doubles a row.
    """
    k = np.asarray(k, dtype=float)
    y = pts @ k
    if w is not None:
        resid = 1.0 - y if sign > 0 else 1.0 + y
        c = np.where(y <= sign, c_plus, c_minus)  # c(k), row by row
        coeff = c * resid
        return Cost(float(w @ (coeff * resid)),
                    -2.0 * sign * (pts.T @ (w * coeff)),
                    float(w @ coeff), 2.0 * (pts.T * (w * c)) @ pts)
    # c_plus where y <= sign, as on the weighted rows
    if sign > 0:
        c_maj, c_min, minor = c_plus, c_minus, y > 1.0
        r = np.subtract(1.0, y, out=y)
    else:
        c_maj, c_min, minor = c_minus, c_plus, y <= -1.0
        r = np.add(1.0, y, out=y)
    del y  # r is y's array
    gram = pts.T @ pts if gram is None else gram
    lin, grad, hess = c_maj * np.sum(r), c_maj * (pts.T @ r), c_maj * gram
    # the minority rows count only where the branch constants differ
    rows = np.flatnonzero(minor) if c_min != c_maj else np.empty(0, int)
    del minor
    r_m = r[rows]
    # squared in place and summed pairwise: BLAS dot products for r'r
    # and r_m'r_m misordered costs an ulp apart next to a minimiser, and
    # the line search then wandered off it
    value = c_maj * np.sum(np.square(r, out=r))
    del r
    if rows.size:
        p_m = pts[rows]
        del rows
        d = c_min - c_maj
        lin += d * np.sum(r_m)
        grad = grad + d * (p_m.T @ r_m)
        hess = hess + d * (p_m.T @ p_m)
        value += d * np.sum(np.square(r_m, out=r_m))
    n_rows = pts.shape[0]
    return Cost(float(value / n_rows), (-2.0 * sign / n_rows) * grad,
                float(lin / n_rows), (2.0 / n_rows) * hess)


def linear_form(period: PeriodCost, sign: int, k, c_plus_next: float,
                c_minus_next: float) -> float:
    """Piecewise-linear evaluation E[c(k) (1 -+ P'k)].

    Coincides with ``period.cost(...).value`` at any point where
    grad h(k)'k = 0, in particular at every constrained minimiser.
    """
    return period.cost(sign, k, c_plus_next, c_minus_next).lin


# ---------------------------------------------------------------------------
# options / results
# ---------------------------------------------------------------------------

@dataclass
class SolverOptions:
    tol: float = 1e-8
    max_iter: int = 5000


@dataclass
class MinimizeResult:
    """One solved branch.  Every field after ``k`` and ``converged`` is
    also the branch's entry in ``RecursionTable.diagnostics``, in this
    order."""

    k: np.ndarray
    converged: bool
    iterations: int
    pg_residual: float
    complementarity: float
    vi_min: float
    method: str
    value: float
    cross_gap: float = 0.0          # |h - L| at k, set by the recursion
    evaluations: int = 0            # cost evaluations
    backtracks: int = 0             # rejected Armijo trial steps
    projections: int = 0            # cone projections, residuals included


# ---------------------------------------------------------------------------
# cone-constrained minimisation of h
# ---------------------------------------------------------------------------

def minimize_over_cone(period: PeriodCost, sign: int, cone: ConvexCone,
                       c_plus_next: float, c_minus_next: float,
                       opts: SolverOptions) -> MinimizeResult:
    """Constrained minimiser of h_t^{sign} over the cone, on the period
    that ``backend.period(t)`` returned.

    The recursion's zero test has already settled every branch whose
    minimiser the law's mean shows to be the origin.  This runs
    projected Newton from the better of the origin and the projected
    unconstrained gain.  Each iteration scales the gradient by the
    Hessian H, with a ridge that lifts its least eigenvalue to ``_RIDGE``
    times its largest when it lies below (so that a rank-deficient sample
    still gives a definite metric, and a well-conditioned H stays exact),
    and tries proj^H(k - step H^-1 grad) in the metric of H, from step
    1.0 down by the Armijo test.  On a piecewise-quadratic cost the full
    step is the exact minimiser over the cone of the quadratic piece
    holding k, so poorly scaled costs take as few steps as well scaled
    ones.  It stops at a Euclidean residual |k - proj(k - grad)| <= tol;
    a stall, where no step above ``_STEP_FLOOR`` descends, counts as
    converged only at a residual within 100 tol.  It returns the last
    accepted iterate and the cost evaluated there.

    ``vi_min`` is min grad'(u - k) over cone points u with |u| <= 1,
    which is -|proj(-grad)| - grad'k exactly.
    """
    law = period.law
    evaluations = 0

    def cost(k):
        nonlocal evaluations
        evaluations += 1
        c = period.cost(sign, k, c_plus_next, c_minus_next)
        return c.value, c.grad, c.hess

    projections = 0

    def project(v, metric=None):
        nonlocal projections
        projections += 1
        return cone.project(v, metric=metric)

    k = project(sign * law.unconstrained_gain()).astype(float)
    value, grad, hess = cost(k)
    # The origin is always admissible; starting from the better of the
    # two guarantees the final cost never exceeds the next-period
    # constant, which the recursion's monotonicity invariant relies on.
    f0, g0, hess0 = cost(np.zeros_like(k))
    if f0 < value:
        k, value, grad, hess = np.zeros_like(k), f0, g0, hess0
    backtracks = 0
    for iters in range(opts.max_iter + 1):
        pg_res = np.linalg.norm(k - project(k - grad))
        converged = bool(pg_res <= opts.tol)
        if converged or iters == opts.max_iter:
            break
        lam = np.linalg.eigvalsh(hess)
        ridge = max(_RIDGE * lam[-1] - lam[0], 0.0)
        metric = hess + ridge * np.eye(k.shape[0])
        newton = np.linalg.solve(metric, grad)
        step = 1.0
        while True:
            k_new = project(k - step * newton, metric=metric)
            slope = float(grad @ (k_new - k))
            f_new, g_new, hess_new = cost(k_new)
            if f_new <= value + _ARMIJO_SLOPE * slope or step < _STEP_FLOOR:
                break
            step *= _ARMIJO_SHRINK
            backtracks += 1
        if step < _STEP_FLOOR:
            iters += 1
            converged = bool(pg_res <= 100.0 * opts.tol)
            break
        k, value, grad, hess = k_new, f_new, g_new, hess_new

    pg_res = float(pg_res)
    comp = abs(float(grad @ k))
    vi = -float(np.linalg.norm(project(-grad))) - float(grad @ k)
    result = MinimizeResult(
        k, converged, iters, pg_res, comp, vi, "projected_gradient", value,
        evaluations=evaluations, backtracks=backtracks,
        projections=projections)
    if not converged:
        stalled = " stalled at the step floor" if iters < opts.max_iter else ""
        raise NoConvergence(
            f"optimizer 'projected_gradient' exhausted {iters} iterations at "
            f"t={period.t} sign={sign:+d}{stalled} (pg residual {pg_res:.3e})",
            best=result)
    return result


# ---------------------------------------------------------------------------
# recursion table
# ---------------------------------------------------------------------------

@dataclass
class RecursionTable:
    """Feedback gains and cost constants from the backward recursion.

    ``k_plus[t]`` / ``k_minus[t]`` are the gains applied below / above
    the wealth threshold over period t; ``c_plus[t]`` / ``c_minus[t]``
    the corresponding cost constants at time t with the terminal
    convention c_plus[T] = c_minus[T] = 1.
    """

    horizon: int
    n_assets: int
    riskless_rates: np.ndarray   # gross riskless returns, length T
    k_plus: np.ndarray           # (T, n)
    k_minus: np.ndarray          # (T, n)
    c_plus: np.ndarray           # (T+1,)
    c_minus: np.ndarray          # (T+1,)
    backend: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)

    def rho(self, t: int) -> float:
        if not 0 <= t <= self.horizon:
            raise ValueError(f"t must lie in [0, {self.horizon}], got {t}")
        return float(np.prod(self.riskless_rates[t:]))

    def to_dict(self) -> dict:
        """The fields by name, in order, with arrays as nested lists."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: v.tolist() if isinstance(v, np.ndarray) else v
                for name, v in out.items()}


def _require_normal(c: float, t: int, horizon: int) -> None:
    """Raise once cost constant c falls below the least normal double."""
    if c < np.finfo(float).tiny:
        raise ConemvError(
            f"cost constant {float(c)!r} at t={t} underflows double "
            f"precision; the horizon T={horizon} is too long for this market")


def backward_recursion(market: MarketSpec, cones_by_period,
                       backend, opts: Optional[SolverOptions] = None
                       ) -> RecursionTable:
    """Run the full backward recursion and return the solved table.

    Parameters
    ----------
    market : MarketSpec
        Validated market.
    cones_by_period : ConvexCone or sequence of ConvexCone
        Constraint cone per period (a single cone is broadcast).
    backend : ExactDiscreteBackend or SaaBackend
    opts : SolverOptions, optional
    """
    opts = opts or SolverOptions()
    market.validate()
    T, n = market.horizon, market.n_assets
    cones_list = cones_per_period(cones_by_period, T, n)

    c_plus = np.ones(T + 1)
    c_minus = np.ones(T + 1)
    k_plus = np.zeros((T, n))
    k_minus = np.zeros((T, n))
    diagnostics = []
    gap_bound = 100.0 * opts.tol

    for t in reversed(range(T)):
        # the zero test (module docstring) reads the mean's direction
        # alone; a zero mean stays the origin, in every polar cone
        mean, cone = market.periods[t].mean, cones_list[t]
        direction = mean / (np.max(np.abs(mean)) or 1.0)
        zero = {sign: cone.polar_contains(sign * direction)
                for sign in (1, -1)}
        period = None if all(zero.values()) else backend.period(t)
        for sign, k_store, c_store in ((1, k_plus, c_plus),
                                       (-1, k_minus, c_minus)):
            c_next = c_store[t + 1]
            if zero[sign]:
                # h(0) = L(0) = the next constant, by construction
                res = MinimizeResult(np.zeros(n), True, 0, 0.0, 0.0, 0.0,
                                     "zero_test", c_next)
            else:
                res = minimize_over_cone(period, sign, cone, c_plus[t + 1],
                                         c_minus[t + 1], opts)
                # h - L = grad'K / 2 holds exactly on a frozen sample as
                # on atoms, so one deterministic bound serves both backends
                lin = linear_form(period, sign, res.k,
                                  c_plus[t + 1], c_minus[t + 1])
                res.cross_gap = abs(res.value - lin)
                if res.cross_gap > gap_bound:
                    raise ConsistencyError(
                        f"quadratic/linear cost mismatch at t={t} "
                        f"sign={sign:+d}: {res.value!r} vs {lin!r} "
                        f"(tol {gap_bound:.3e})")
            k_store[t], c_store[t] = res.k, res.value
            _require_normal(c_store[t], t, T)
            if not c_store[t] <= c_next * (1.0 + 1e-12) + 1e-15:
                raise ConsistencyError(
                    f"cost constant out of range at t={t} "
                    f"sign={'+' if sign > 0 else '-'}: "
                    f"{float(c_store[t])!r} vs next {float(c_next)!r}")
            c_store[t] = min(c_store[t], c_next)
            diagnostics.append({"t": t, "sign": sign, **{
                f.name: getattr(res, f.name) for f in fields(res)
                if f.name not in ("k", "converged")}})
        del period  # freed before the next draw, not rebound by it

    return RecursionTable(
        horizon=T, n_assets=n,
        riskless_rates=market.riskless_rates,
        k_plus=k_plus, k_minus=k_minus, c_plus=c_plus, c_minus=c_minus,
        backend=backend.describe(),
        diagnostics=diagnostics)


def unconstrained_table(market: MarketSpec) -> RecursionTable:
    """Closed-form table for the unconstrained cone.

    With the whole space admissible the minimisers are the plus/minus
    images of E[PP']^{-1} E[P] and the cost constants collapse to the
    product prod_i (1 - B_i) with B_i = E[P]'E[PP']^{-1}E[P].  Each
    diagnostics entry keeps B_t as ``b`` for the time-consistent benchmark.
    """
    market.validate()
    T, n = market.horizon, market.n_assets
    k_plus = np.zeros((T, n))
    k_minus = np.zeros((T, n))
    b = np.zeros(T)
    for t, period in enumerate(market.periods):
        k_unc = period.unconstrained_gain()
        k_plus[t] = k_unc
        k_minus[t] = -k_unc
        b[t] = float(period.mean @ k_unc)
    c = np.ones(T + 1)
    for t in reversed(range(T)):
        c[t] = (1.0 - b[t]) * c[t + 1]
        _require_normal(c[t], t, T)
    return RecursionTable(
        horizon=T, n_assets=n,
        riskless_rates=market.riskless_rates,
        k_plus=k_plus, k_minus=k_minus,
        c_plus=c.copy(), c_minus=c.copy(),
        backend={"kind": "closed_form_unconstrained"},
        diagnostics=[{"t": t, "note": "closed_form", "b": float(b[t])}
                     for t in range(T)])

