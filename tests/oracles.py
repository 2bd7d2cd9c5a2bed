"""Independent verification oracles.

Everything here is written against numpy/scipy only, deliberately not
reusing the package's own cost, projection, or recursion code, so that
agreement between the two is evidence rather than tautology.

Four families of oracle:

* one-dimensional reduction: for elliptical return familes the scalar
  y = P'K is univariate gaussian/t, so the branch cost and its exact
  gradient reduce to 1-d integrals (conditional-mean linearity gives
  the vector part).  Evaluated by tan-substitution Gauss-Legendre
  panels and minimised over the cone by SLSQP.
* scenario-tree brute force: for discrete markets the whole problem is
  a finite-dimensional convex program over one control per tree node.
  The mean constraint is handled by bisection on the embedding scalar
  b, the inner minimisation of E[(x_T - b)^2] by projected gradient on
  the stacked node controls.
* closed forms read off a recursion table, with rho_t = prod_{s>=t} r_s:
  the value function J_t(y) = rho_t^2 C_t^{+/-} y^2 / 2 (C_t^+ for
  y <= 0); the dual g(mu) = C_0^{+/-} (d - rho_0 x0 - mu)^2 - mu^2,
  maximised by mu* at the frontier variance; the density factors B_t
  and their running products prod_{i<t} B_i along each path; the
  conditional expectation E[dQ/dP | F_t] = (prod_{i<t} B_i) C_t^{+/-}
  / C_0^+ (sign of the running product, ties to +); the wealth path
  x_t = ((d - mu) - ((d - mu) - x0 rho_0) prod_{i<t} B_i) / rho_t it
  implies; and the induced target d_k = (1 - C) (d - mu) + C rho_k x_k
  of the truncated problem at (k, x_k).
* small utilities: rejection-grid projection, membership of a cone
  {u : A u >= 0} read off its row matrix, central finite differences.
"""

from __future__ import annotations

import collections
import itertools
import math

import numpy as np
from scipy import optimize, stats

_NODES, _WTS = np.polynomial.legendre.leggauss(96)


def _panel_integrate(f, lo, hi, panels=24):
    edges = np.linspace(lo, hi, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    w = (half[:, None] * _WTS[None, :]).ravel()
    return f(x) @ w


# ---------------------------------------------------------------------------
# 1-d reduction for gaussian / student_t periods
# ---------------------------------------------------------------------------

class OneDimCost:
    """Branch cost h^{sign}(K) and gradient via 1-d quadrature."""

    def __init__(self, family, mean, cov, df=5):
        self.family = family
        self.m = np.asarray(mean, float)
        self.cov = np.asarray(cov, float)
        self.df = df

    def h_and_grad(self, K, sign, c_plus_next, c_minus_next):
        K = np.asarray(K, float)
        mu = float(self.m @ K)
        v = float(K @ self.cov @ K)
        c_noflip = c_plus_next if sign > 0 else c_minus_next
        if v <= 1e-20:
            return c_noflip, -2.0 * sign * c_noflip * self.m
        if self.family == "gaussian":
            sc = math.sqrt(v)
            pdf = lambda y: np.exp(-0.5 * ((y - mu) / sc) ** 2) / (sc * math.sqrt(2 * math.pi))
        else:
            sc = math.sqrt(v * (self.df - 2) / self.df)
            pdf = stats.t(self.df, loc=mu, scale=sc).pdf
        thr = float(sign)
        th_thr = math.atan((thr - mu) / sc)
        eps = 1e-9
        acc = np.zeros(3)  # value, E[c r], E[c r (y - mu)]
        pieces = [((-math.pi / 2 + eps, th_thr), c_plus_next),
                  ((th_thr, math.pi / 2 - eps), c_minus_next)]
        for (a, b), cval in pieces:
            def f(th, cval=cval):
                y = mu + sc * np.tan(th)
                base = cval * pdf(y) * sc / np.cos(th) ** 2
                r = 1.0 - sign * y
                return np.vstack([r * r * base, r * base, r * (y - mu) * base])
            acc += _panel_integrate(f, a, b)
        value, lin, centered = acc
        grad = -2.0 * sign * (self.m * lin + (self.cov @ K) * (centered / v))
        return float(value), grad


def solve_cone_1d(cost: OneDimCost, sign, c_plus_next, c_minus_next,
                  cone_rows, starts):
    """SLSQP minimisation of the 1-d-reduced cost over {u: rows u >= 0}."""
    cons = []
    if cone_rows is not None:
        A = np.asarray(cone_rows, float)
        cons = [{"type": "ineq", "fun": lambda K, A=A: A @ K,
                 "jac": lambda K, A=A: A}]
    best = None
    for s0 in starts:
        r = optimize.minimize(
            lambda K: cost.h_and_grad(K, sign, c_plus_next, c_minus_next),
            np.asarray(s0, float), jac=True, method="SLSQP",
            constraints=cons, options={"maxiter": 500, "ftol": 1e-16})
        if best is None or r.fun < best.fun:
            best = r
    return best.x, float(best.fun)


def recursion_truth_1d(market, cone_rows):
    """Full backward recursion through the 1-d oracle.

    Returns (k_plus, k_minus, c_plus, c_minus) arrays shaped like the
    package's table for an elliptical-family market.
    """
    T = market.horizon
    n = market.n_assets
    k_plus = np.zeros((T, n))
    k_minus = np.zeros((T, n))
    c_plus = np.ones(T + 1)
    c_minus = np.ones(T + 1)
    for t in reversed(range(T)):
        p = market.periods[t]
        cost = OneDimCost(p.family, p.mean, p.cov, df=p.df or 5)
        second = p.cov + np.outer(p.mean, p.mean)
        k_unc = np.linalg.solve(second, p.mean)
        kp, cp = solve_cone_1d(cost, +1, c_plus[t + 1], c_minus[t + 1],
                               cone_rows, [k_unc, np.zeros(n)])
        km, cm = solve_cone_1d(cost, -1, c_plus[t + 1], c_minus[t + 1],
                               cone_rows, [-k_unc, np.zeros(n)])
        if cm >= c_minus[t + 1] - 1e-11:
            km, cm = np.zeros(n), c_minus[t + 1]
        if cp >= c_plus[t + 1] - 1e-11:
            kp, cp = np.zeros(n), c_plus[t + 1]
        k_plus[t], c_plus[t] = kp, cp
        k_minus[t], c_minus[t] = km, cm
    return k_plus, k_minus, c_plus, c_minus


# ---------------------------------------------------------------------------
# scenario-tree enumeration and brute-force solve (discrete markets)
# ---------------------------------------------------------------------------

def tree_paths(market):
    """All return paths of a discrete market: (paths (M,T,n), probs (M,),
    index tuples).  Independent re-enumeration via itertools."""
    atom_sets = [p.atoms for p in market.periods]
    prob_sets = [p.probs for p in market.periods]
    idx_ranges = [range(len(a)) for a in atom_sets]
    paths, probs, indices = [], [], []
    for combo in itertools.product(*idx_ranges):
        paths.append([atom_sets[t][i] for t, i in enumerate(combo)])
        pr = 1.0
        for t, i in enumerate(combo):
            pr *= prob_sets[t][i]
        probs.append(pr)
        indices.append(combo)
    return np.asarray(paths, float), np.asarray(probs, float), indices


def _project_rows(u, rows):
    """Projection onto {u : rows u >= 0} for the simple cones used by
    the brute-force oracle (None = whole space, identity rows = orthant,
    single row = half space).  Small-dimension exact treatment: active
    set enumeration over at most 2 rows, else Dykstra-style sweep."""
    if rows is None:
        return u.copy()
    rows = np.asarray(rows, float)
    if np.all(rows @ u >= -1e-15):
        return u.copy()
    if rows.shape[0] == 1:
        a = rows[0]
        lam = min(0.0, float(a @ u) / float(a @ a))
        return u - lam * a
    # orthant or small polyhedral: enumerate active sets exactly
    m = rows.shape[0]
    best, best_d = None, np.inf
    for r in range(1, m + 1):
        for subset in itertools.combinations(range(m), r):
            A = rows[list(subset)]
            # minimise ||p - u|| s.t. A p = 0  ->  p = u - A'(AA')^{-1}A u
            AAt = A @ A.T
            try:
                lam = np.linalg.solve(AAt, A @ u)
            except np.linalg.LinAlgError:
                continue
            p = u - A.T @ lam
            if np.all(rows @ p >= -1e-12):
                d = float(np.linalg.norm(p - u))
                if d < best_d:
                    best, best_d = p, d
    if best is None:
        return np.zeros_like(u)
    return best


def _make_projector(rows, dim):
    """Specialised projector for one node's cone rows."""
    if rows is None:
        return lambda u: u
    rows = np.asarray(rows, float)
    if rows.shape == (dim, dim) and np.array_equal(rows, np.eye(dim)):
        return lambda u: np.maximum(u, 0.0)
    if rows.shape[0] == 1:
        a = rows[0]
        aa = float(a @ a)

        def half(u, a=a, aa=aa):
            lam = float(a @ u)
            return u if lam >= 0.0 else u - (lam / aa) * a
        return half
    return lambda u: _project_rows(u, rows)


class TreeProblem:
    """min E[(x_T - b)^2] over one control per tree node, each
    constrained to {u: rows u >= 0}.

    Terminal wealth is affine in the stacked controls, x_T = offset +
    G z, with the design matrix G built once so evaluations are plain
    matrix products.
    """

    def __init__(self, market, cone_rows_by_t, x0):
        self.market = market
        self.x0 = float(x0)
        T = market.horizon
        self.T = T
        self.n = market.n_assets
        self.rows = list(cone_rows_by_t)
        self.paths, self.probs, self.indices = tree_paths(market)
        self.rates = np.asarray(market.riskless_rates, float)
        # node = (t, prefix of atom indices of length t)
        self.nodes = []
        for t in range(T):
            for pre in sorted({idx[:t] for idx in self.indices}):
                self.nodes.append((t, pre))
        self.node_pos = {node: i for i, node in enumerate(self.nodes)}
        self.n_vars = len(self.nodes) * self.n
        rho_after = np.array([float(np.prod(self.rates[t + 1:]))
                              for t in range(T)])
        self.offset = self.x0 * float(np.prod(self.rates))
        self.G = np.zeros((len(self.paths), self.n_vars))
        for p_i, idx in enumerate(self.indices):
            for t in range(T):
                pos = self.node_pos[(t, idx[:t])]
                self.G[p_i, pos * self.n:(pos + 1) * self.n] = (
                    rho_after[t] * self.paths[p_i, t])
        self._gtp2 = 2.0 * (self.G * self.probs[:, None]).T
        self._projectors = [
            (slice(i * self.n, (i + 1) * self.n),
             _make_projector(self.rows[node[0]], self.n))
            for node, i in self.node_pos.items()]

    def terminal_wealth(self, z):
        return self.offset + self.G @ z

    def value_and_grad(self, z, b):
        r = self.G @ z + (self.offset - b)
        val = float(self.probs @ (r * r))
        return val, self._gtp2 @ r

    def project(self, z):
        out = np.empty_like(z)
        for sl, proj in self._projectors:
            out[sl] = proj(z[sl])
        return out

    def solve_inner(self, b, z0=None, tol=1e-10, max_iter=50_000):
        """Spectral projected gradient with a nonmonotone reference value;
        plain monotone descent stalls badly on these coupled quadratics."""
        z = self.project(np.zeros(self.n_vars) if z0 is None else z0.copy())
        val, g = self.value_and_grad(z, b)
        step = 1.0
        memory = collections.deque([val], maxlen=10)
        tol_sq = tol * tol
        for _ in range(max_iter):
            res = z - self.project(z - g)
            if float(res @ res) <= tol_sq:
                break
            d = self.project(z - step * g) - z
            gd = float(g @ d)
            ref = max(memory)
            lam = 1.0
            while True:
                z_new = z + lam * d
                v_new, g_new = self.value_and_grad(z_new, b)
                if v_new <= ref + 1e-4 * lam * gd or lam < 1e-14:
                    break
                lam *= 0.5
            s = z_new - z
            y = g_new - g
            sy = float(s @ y)
            step = min(1e10, max(1e-10, float(s @ s) / sy)) if sy > 1e-18 else 1e10
            z, val, g = z_new, v_new, g_new
            memory.append(val)
        return z, val

    def mean_at(self, z):
        return float(self.probs @ self.terminal_wealth(z))


def brute_force_min_variance(market, cone_rows_by_t, x0, d,
                             bisect_iters=80):
    """Variance of the cheapest policy with mean d by scenario-tree
    embedding: bisection on b (the mean is monotone in it), projected
    gradient inside.  Handles targets on either side of the riskless
    roll-up, so both frontier branches are reachable."""
    prob = TreeProblem(market, cone_rows_by_t, x0)
    rho0 = float(np.prod(prob.rates))
    riskless = rho0 * x0        # mean at b = riskless is exactly riskless
    z = None
    if d >= riskless:
        b_lo, b_hi = riskless, max(d, riskless) + 1.0
        for _ in range(60):
            z, _ = prob.solve_inner(b_hi, z)
            if prob.mean_at(z) >= d:
                break
            b_hi = riskless + 2.0 * (b_hi - riskless)
        else:
            raise RuntimeError("could not bracket the target mean")
    else:
        b_lo, b_hi = min(d, riskless) - 1.0, riskless
        for _ in range(60):
            z, _ = prob.solve_inner(b_lo, z)
            if prob.mean_at(z) <= d:
                break
            b_lo = riskless - 2.0 * (riskless - b_lo)
        else:
            raise RuntimeError("could not bracket the target mean")
    for _ in range(bisect_iters):
        b_mid = 0.5 * (b_lo + b_hi)
        z, _ = prob.solve_inner(b_mid, z)
        if prob.mean_at(z) < d:
            b_lo = b_mid
        else:
            b_hi = b_mid
    z, _ = prob.solve_inner(b_hi if d >= riskless else b_lo, z)
    xT = prob.terminal_wealth(z)
    mean = float(prob.probs @ xT)
    var = float(prob.probs @ (xT - mean) ** 2)
    return var, mean, z, prob


def brute_one_step(period, rate, y, cone_rows):
    """min over u in cone of E[(rate*y + P'u)^2] for one discrete period."""
    atoms, probs = period.atoms, period.probs
    cons = []
    if cone_rows is not None:
        A = np.asarray(cone_rows, float)
        cons = [{"type": "ineq", "fun": lambda u, A=A: A @ u,
                 "jac": lambda u, A=A: A}]

    def fg(u):
        r = rate * y + atoms @ u
        return float(probs @ (r * r)), 2.0 * (atoms.T @ (probs * r))

    best = None
    for s0 in [np.zeros(atoms.shape[1]), -rate * y * np.ones(atoms.shape[1])]:
        r = optimize.minimize(fg, s0, jac=True, method="SLSQP",
                              constraints=cons,
                              options={"maxiter": 300, "ftol": 1e-18})
        if best is None or r.fun < best.fun:
            best = r
    return float(best.fun), best.x


# ---------------------------------------------------------------------------
# node-by-node efficiency audit (exhaustive TCIE test)
# ---------------------------------------------------------------------------

def exhaustive_tcie(market, policy, cone_rows_by_t, x0, d, var_tol=1e-7):
    """Policy-level TCIE verdict on a discrete market.

    Enumerates every positive-probability node, computes the
    conditional mean/variance of terminal wealth under the policy's own
    continuation, and checks mean-variance efficiency of that
    continuation by re-solving the truncated problem from the node with
    the induced conditional mean as target.  A node whose induced mean
    falls below the riskless roll-up of its wealth is dominated by the
    all-riskless continuation and hence inefficient.
    """
    paths, probs, indices = tree_paths(market)
    T = market.horizon
    rates = np.asarray(market.riskless_rates, float)

    # wealth at every node under the policy
    node_wealth = {(0, ()): float(x0)}
    for p_i, idx in enumerate(indices):
        x = float(x0)
        for t in range(T):
            u = policy.control(t, x)
            x = rates[t] * x + float(paths[p_i, t] @ u)
            node_wealth[(t + 1, idx[:t + 1])] = x

    def subtree(prefix):
        keep = [i for i, idx in enumerate(indices)
                if idx[:len(prefix)] == prefix]
        return keep

    for t in range(1, T):
        rho_t = float(np.prod(rates[t:]))
        for prefix in sorted({idx[:t] for idx in indices}):
            w = node_wealth[(t, prefix)]
            keep = subtree(prefix)
            cond_p = probs[keep] / probs[keep].sum()
            xT = np.empty(len(keep))
            for j, p_i in enumerate(keep):
                x = w
                for s in range(t, T):
                    u = policy.control(s, x)
                    x = rates[s] * x + float(paths[p_i, s] @ u)
                xT[j] = x
            dk = float(cond_p @ xT)
            vk = float(cond_p @ (xT - dk) ** 2)
            if dk < rho_t * w - 1e-10:
                return False, (t, prefix, "mean below riskless roll-up")
            if vk <= 1e-14:
                continue            # deterministic continuation: vertex point
            sub_market = market.__class__(
                horizon=T - t,
                riskless_rates=rates[t:].tolist(),
                periods=list(market.periods[t:]))
            best_var, _, _, _ = brute_force_min_variance(
                sub_market, list(cone_rows_by_t)[t:], w, dk)
            if vk > best_var + var_tol:
                return False, (t, prefix, "continuation variance not minimal")
    return True, None


def node_condition_tcie(market, table, policy, x0, d, tol=1e-9):
    """State-condition TCIE verdict on a discrete market.

    Walks every reachable node (t, x_t) under the policy and demands
    d - mu* >= rho_t x_t, or C_t^- = 1, at each of them.  Equivalent to
    the continuation-efficiency audit but needs no re-solving.
    """
    from conemv.policy import mu_star

    T = market.horizon
    rates = np.asarray(market.riskless_rates, float)
    g = d - mu_star(table, x0, d)
    paths, probs, indices = tree_paths(market)
    node_wealth = {(0, ()): float(x0)}
    for p_i, idx in enumerate(indices):
        x = float(x0)
        for t in range(T):
            u = policy.control(t, x)
            x = rates[t] * x + float(paths[p_i, t] @ u)
            node_wealth[(t + 1, idx[:t + 1])] = x
    for (t, prefix), w in node_wealth.items():
        if t >= T:
            continue
        rho_t = float(np.prod(rates[t:]))
        scale = max(1.0, abs(rho_t * w))
        if g >= rho_t * w - tol * scale:
            continue
        if table.c_minus[t] >= 1.0 - 1e-9:
            continue
        return False, (t, prefix, w)
    return True, None


# ---------------------------------------------------------------------------
# closed forms read off a recursion table
# ---------------------------------------------------------------------------

def _rho(table, t):
    return float(np.prod(np.asarray(table.riskless_rates, float)[t:]))


def value_function(table, t, y):
    """Optimal cost-to-go 0.5 rho_t^2 C_t y^2 at time t of the shifted
    wealth y, with C_t^+ for y <= 0 and C_t^- for y > 0."""
    y = np.asarray(y, float)
    c = np.where(y <= 0.0, table.c_plus[t], table.c_minus[t])
    return (0.5 * _rho(table, t) ** 2 * c * y * y)[()]


def dual_value(table, x0, d, mu):
    """Concave dual g(mu) = C_0 (gap - mu)^2 - mu^2, gap = d - rho_0 x0,
    with C_0^+ for mu <= gap and C_0^- above."""
    mu = np.asarray(mu, float)
    gap = d - _rho(table, 0) * x0
    c = np.where(mu <= gap, table.c_plus[0], table.c_minus[0])
    return (c * (gap - mu) ** 2 - mu ** 2)[()]


def density_factors(table, returns):
    """B factors (n_paths, T) and running products (n_paths, T + 1) of
    a batch of (n_paths, T, n) return paths; partial[:, t] is the
    product of the first t factors."""
    returns = np.asarray(returns, float)
    n_paths, T = returns.shape[0], table.horizon
    b = np.empty((n_paths, T))
    partial = np.ones((n_paths, T + 1))
    for t in range(T):
        y_plus = returns[:, t, :] @ table.k_plus[t]
        y_minus = returns[:, t, :] @ table.k_minus[t]
        nonneg = partial[:, t] >= 0.0  # ties resolve to the + branch
        b[:, t] = np.where(nonneg, 1.0 - y_plus, 1.0 + y_minus)
        partial[:, t + 1] = partial[:, t] * b[:, t]
    return b, partial


def conditional_expectation(table, b_prefix):
    """E[dQ/dP | F_t] given the first t realised B factors."""
    pi = float(np.prod(np.asarray(b_prefix, float)))
    t = len(b_prefix)
    c_t = table.c_plus[t] if pi >= 0.0 else table.c_minus[t]
    return pi * c_t / table.c_plus[0]


def implied_wealth_path(table, x0, d, mu, partial):
    """Wealth (n_paths, T + 1) at every time implied by the running
    products of :func:`density_factors`."""
    g = d - mu
    rho = np.array([_rho(table, t) for t in range(table.horizon + 1)])
    return (g - (g - x0 * rho[0]) * partial) / rho


InducedTarget = collections.namedtuple("InducedTarget",
                                       "d_k mu_k efficient")


def induced_target(table, k, x_k, d, mu):
    """Target d_k of the truncated problem at (k, x_k) whose optimal
    policy is the tail of the precommitted one, with mu_k = d_k - (d -
    mu); C is C_k^+ at or below the threshold, else C_k^-.  The
    truncation is efficient at or below the threshold, or where
    C_k^- = 1."""
    g = d - mu
    rx = _rho(table, k) * x_k
    c = table.c_plus[k] if g >= rx else table.c_minus[k]
    d_k = (1.0 - c) * g + c * rx
    efficient = g >= rx or table.c_minus[k] >= 1.0 - 1e-12
    return InducedTarget(float(d_k), float(d_k - g), bool(efficient))


# ---------------------------------------------------------------------------
# small utilities
# ---------------------------------------------------------------------------

def grid_projection(cone_rows, v, n_points=1_000_000, seed=0, radius=None,
                    refine=True):
    """Best cone point among rejection-sampled candidates.

    Sampling alone stalls around 1e-2 when the projection sits on a
    low-dimensional face, so by default the winner is polished with an
    SLSQP solve of min ||u - v||^2 s.t. Au >= 0 (scipy, nothing shared
    with the projection code under test)."""
    rng = np.random.default_rng(seed)
    v = np.asarray(v, float)
    radius = radius or (2.0 * np.linalg.norm(v) + 1.0)
    pts = rng.uniform(-radius, radius, size=(n_points, v.shape[0]))
    A = np.asarray(cone_rows, float)
    keep = pts[np.all(pts @ A.T >= 0.0, axis=1)]
    keep = np.vstack([keep, np.zeros(v.shape[0])])
    d2 = ((keep - v) ** 2).sum(axis=1)
    best = keep[np.argmin(d2)]
    if not refine:
        return best
    res = optimize.minimize(
        lambda u: float((u - v) @ (u - v)), best, jac=lambda u: 2.0 * (u - v),
        constraints=[{"type": "ineq", "fun": lambda u: A @ u,
                      "jac": lambda u: A}],
        method="SLSQP", options={"maxiter": 400, "ftol": 1e-16})
    u = res.x
    if np.all(A @ u >= -1e-9) and (u - v) @ (u - v) <= (best - v) @ (best - v):
        return u
    return best


def in_cone(cone, u, tol=1e-9):
    """u satisfies ``cone.rows`` @ u >= -tol row by row."""
    return bool(np.all(cone.rows @ u >= -tol))


def central_fd_grad(f, k, step=1e-5):
    k = np.asarray(k, float)
    g = np.zeros_like(k)
    for i in range(k.shape[0]):
        e = np.zeros_like(k)
        e[i] = step
        g[i] = (f(k + e) - f(k - e)) / (2.0 * step)
    return g
