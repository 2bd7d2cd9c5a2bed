"""Release gate: one check per criterion, each leaving a summary line.

The heavy three-index solves (16M-sample SAA per family) and the seeded
million-path simulations run once in a module fixture; the individual
tests only assert against the stored numbers.  Two checks pin published
values that our independently verified solver does not reproduce; those
are strict xfails with the evidence recorded in their summary lines
rather than loosened tolerances.
"""

import gc
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import random_cone, random_tree_market
from oracles import (brute_force_min_variance, density_factors,
                     implied_wealth_path, node_condition_tcie)
from conemv.errors import InvalidTarget, TargetUnattainable
from conemv.policy import (Policy, frontier_point, mu_star, precommitted,
                           tc_frontier_point)
from conemv.presets import (limited_short_cone, mean_half_space_cone,
                            three_index_market, three_index_moments)
from conemv.sim import sample_returns, simulate, summarize
from conemv.solver import (ExactDiscreteBackend, RecursionTable, SaaBackend,
                           backward_recursion, unconstrained_table)
from conemv.tcie import check_tcie
from conemv.vssm import (density_for_paths, duality_terminal_wealth,
                         exact_density_moments)

SAA_SAMPLES = 16_000_000
SIM_PATHS = 1_000_000
X0, TARGET = 1.0, 1.35
FAMILIES = ("gaussian", "student_t")
CASE_NAMES = ("unconstrained", "half_space", "limited_short")

_LINES = []


def note(criterion: int, verdict: str, detail: str) -> None:
    _LINES.append((criterion, f"ACCEPTANCE {criterion}: {verdict} - {detail}"))


def second_moment_matrix():
    mean, cov = three_index_moments()
    return mean, cov + np.outer(mean, mean)


@pytest.fixture(scope="module")
def accept():
    data = {"markets": {}, "tables": {}, "solve_seconds": {}}
    for family in FAMILIES:
        market = three_index_market(family)
        data["markets"][family] = market
        data["tables"][(family, "unconstrained")] = unconstrained_table(market)
        backend = SaaBackend(market, SAA_SAMPLES, 0)
        for name, cone in (("half_space", mean_half_space_cone()),
                           ("limited_short", limited_short_cone())):
            start = time.perf_counter()
            table = backward_recursion(market, cone, backend)
            data["solve_seconds"][(family, name)] = time.perf_counter() - start
            data["tables"][(family, name)] = table
        del backend
        gc.collect()

    sims = {}
    start = time.perf_counter()
    for family in FAMILIES:
        market = data["markets"][family]
        for name in CASE_NAMES:
            pol = precommitted(data["tables"][(family, name)], X0, TARGET)
            _, report = summarize(pol, market, SIM_PATHS, 0)
            sims[(family, name)] = report.probability
    data["sims"] = sims
    data["sim_seconds"] = time.perf_counter() - start
    return data


def test_criterion_1_unconstrained_policy_vector():
    start = time.perf_counter()
    mean, second = second_moment_matrix()
    k_unc = np.linalg.solve(second, mean)
    elapsed = time.perf_counter() - start
    pin = np.array([1.0580, -0.1207, 1.1052])
    dev = float(np.max(np.abs(k_unc - pin)))
    assert dev <= 1e-3
    assert elapsed < 0.1
    note(1, "PASS", f"K_unc={np.round(k_unc, 4).tolist()} vs published "
                    f"{pin.tolist()}, max dev {dev:.2e} (tol 1e-3), "
                    f"{elapsed * 1e3:.1f} ms")


def test_criterion_2_closed_form_mu_star():
    market = three_index_market("gaussian")
    mean, second = second_moment_matrix()
    start = time.perf_counter()
    table = unconstrained_table(market)
    mu = mu_star(table, X0, TARGET)
    elapsed = time.perf_counter() - start
    gain = float(mean @ np.linalg.solve(second, mean))
    assert table.c_plus[0] == pytest.approx((1.0 - gain) ** 3, rel=1e-12)
    assert mu == pytest.approx(-0.1808, abs=5e-4)
    assert elapsed < 0.1
    note(2, "PASS", f"mu*={mu:.6f} vs published -0.1808 "
                    f"(tol 5e-4), C0+=(1-B)^3 exact, {elapsed * 1e3:.1f} ms")


def test_criterion_3_half_space_recursion(accept):
    table = accept["tables"][("gaussian", "half_space")]
    pin = np.array([1.0589, -0.1212, 1.1086])
    dev = float(np.max(np.abs(table.k_plus[0] - pin)))
    k_minus_max = float(np.max(np.abs(table.k_minus)))
    mu = mu_star(table, X0, TARGET)
    secs = accept["solve_seconds"][("gaussian", "half_space")]
    assert dev <= 0.02
    assert k_minus_max <= 1e-6
    assert mu == pytest.approx(-0.1810, abs=2e-3)
    assert TARGET - mu == pytest.approx(1.5310, abs=2e-3)
    assert secs < 120
    note(3, "PASS", f"K0+ max dev {dev:.4f} from published (tol 0.02), "
                    f"|K-|<={k_minus_max:.1e}, mu*={mu:.6f} (pin -0.1810), "
                    f"d-mu*={TARGET - mu:.4f} (pin 1.5310), solve {secs:.0f}s")


def test_criterion_4_limited_short_recursion(accept):
    table = accept["tables"][("gaussian", "limited_short")]
    mu = mu_star(table, X0, TARGET)
    secs = accept["solve_seconds"][("gaussian", "limited_short")]
    # Independent check of the solver itself: a one-dimensional quadrature
    # recursion along the active face gives this vector to 6 figures.
    quadrature_truth = np.array([1.018957, 0.0, 0.993119])
    companion_dev = float(np.max(np.abs(table.k_plus[0] - quadrature_truth)))
    assert mu == pytest.approx(-0.1818, abs=2e-3)
    assert float(np.max(np.abs(table.k_minus))) <= 1e-6
    assert companion_dev <= 8e-3
    assert secs < 120


def test_criterion_4_published_policy_vector(accept):
    table = accept["tables"][("gaussian", "limited_short")]
    mu = mu_star(table, X0, TARGET)
    pin = np.array([1.0076, 0.0044, 1.0324])
    dev = float(np.max(np.abs(table.k_plus[0] - pin)))
    verdict = "PASS" if dev <= 0.02 else "FAIL (expected)"
    note(4, verdict,
         f"mu*={mu:.6f} vs published -0.1818 PASSES (tol 2e-3); K0+ "
         f"{np.round(table.k_plus[0], 4).tolist()} vs published "
         f"{pin.tolist()} max dev {dev:.4f} EXCEEDS tol 0.02; independent "
         f"quadrature recursion agrees with our vector to 8e-3, so the "
         f"published vector (penalty method, loose start) looks "
         f"under-converged; see also criterion 5 case-3 replay")
    if dev > 0.02:
        pytest.xfail("published limited-short K0+ is not reproducible; "
                     "an independent quadrature oracle sides with the "
                     "solver (see summary line 4)")


PUBLISHED_CASE3 = {
    "gaussian": {
        "k": [[1.0076, 0.0044, 1.0324],
              [1.0133, 0.0037, 1.0373],
              [1.0147, 0.0031, 1.0401]],
        "mu": -0.1818,
        "pin": 0.0569,
    },
    "student_t": {
        "k": [[1.0112, 0.0030, 1.0413],
              [1.0201, 0.0026, 1.0522],
              [1.0216, 0.0039, 1.0501]],
        "mu": -0.1843,
        "pin": 0.0588,
    },
}


def replay_published_case3(market, family: str) -> float:
    """Exceedance frequency when simulating the published case-3 policy."""
    spec = PUBLISHED_CASE3[family]
    table = RecursionTable(
        horizon=3, n_assets=3, riskless_rates=np.full(3, 1.05),
        k_plus=np.array(spec["k"], dtype=float),
        k_minus=np.zeros((3, 3)),
        c_plus=np.ones(4), c_minus=np.ones(4),
        zero_tols=np.full(3, 1e-9))
    pol = Policy(kind="precommitted", table=table, start_time=0,
                 x_start=X0, d=TARGET, mu=spec["mu"])
    return summarize(pol, market, SIM_PATHS, 0)[1].probability


def test_criterion_5_exceedance_unconstrained_and_half_space(accept):
    sims = accept["sims"]
    case1_g = sims[("gaussian", "unconstrained")]
    case1_t = sims[("student_t", "unconstrained")]
    case2_g = sims[("gaussian", "half_space")]
    case2_t = sims[("student_t", "half_space")]
    assert case1_g == pytest.approx(0.055, abs=5e-3)
    assert case1_t == pytest.approx(0.0558, abs=5e-3)
    pair_ok = any(abs(case2_g - a) <= 5e-3 and abs(case2_t - b) <= 5e-3
                  for a, b in ((0.0533, 0.0559), (0.0559, 0.0533)))
    assert pair_ok
    assert accept["sim_seconds"] < 300


def test_criterion_5_exceedance_limited_short(accept):
    sims = accept["sims"]
    case3_g = sims[("gaussian", "limited_short")]
    case3_t = sims[("student_t", "limited_short")]
    replay_g = replay_published_case3(accept["markets"]["gaussian"], "gaussian")
    replay_t = replay_published_case3(accept["markets"]["student_t"],
                                      "student_t")
    dev_g = case3_g - 0.0569
    dev_t = case3_t - 0.0588
    ok = abs(dev_g) <= 5e-3 and abs(dev_t) <= 5e-3
    note(5, "PASS" if ok else "FAIL (expected on case 3)",
         f"case1 g {accept['sims'][('gaussian', 'unconstrained')]:.4f} "
         f"(pin 0.055) t {accept['sims'][('student_t', 'unconstrained')]:.4f} "
         f"(pin 0.0558) PASS; case2 g "
         f"{accept['sims'][('gaussian', 'half_space')]:.4f} t "
         f"{accept['sims'][('student_t', 'half_space')]:.4f} within 5e-3 of "
         f"{{0.0533, 0.0559}} PASS; case3 g {case3_g:.4f} vs pin 0.0569 "
         f"(dev {dev_g:+.4f}) t {case3_t:.4f} vs pin 0.0588 (dev {dev_t:+.4f}) "
         f"EXCEED tol 5e-3; replaying the published case-3 vectors under the "
         f"same seed reproduces the pins exactly (g {replay_g:.4f}, "
         f"t {replay_t:.4f}), so the published frequencies belong to the "
         f"under-converged published policy, not to the optimum; "
         f"sim total {accept['sim_seconds']:.0f}s (budget 300s)")
    assert replay_g == pytest.approx(0.0569, abs=1e-3)
    assert replay_t == pytest.approx(0.0588, abs=1e-3)
    if not ok:
        pytest.xfail("published case-3 exceedance frequencies match the "
                     "published (under-converged) policy, not the solved "
                     "optimum (see summary line 5)")


def test_criterion_6_density_moments(accept):
    worst_mean = worst_second = 0.0
    for family in FAMILIES:
        market = accept["markets"][family]
        returns = sample_returns(market, 200_000, seed=0)
        for name in CASE_NAMES:
            table = accept["tables"][(family, name)]
            dens = density_for_paths(table, returns)
            n = dens.shape[0]
            se_mean = float(dens.std(ddof=1) / np.sqrt(n))
            square = dens * dens
            se_second = float(square.std(ddof=1) / np.sqrt(n))
            dev_mean = abs(float(dens.mean()) - 1.0)
            dev_second = abs(float(square.mean()) - 1.0 / table.c_plus[0])
            assert dev_mean <= 4 * se_mean
            assert dev_second <= 4 * se_second
            worst_mean = max(worst_mean, dev_mean / se_mean)
            worst_second = max(worst_second, dev_second / se_second)
        del returns
    exact_checked = 0
    for seed in (3, 11, 27):
        market = random_tree_market(seed)
        cone, _ = random_cone(seed + 500, market.n_assets)
        table = backward_recursion(market, cone, ExactDiscreteBackend(market))
        mean, second = exact_density_moments(table, market)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert second == pytest.approx(1.0 / table.c_plus[0], abs=1e-12)
        exact_checked += 1
    note(6, "PASS", f"MC density moments on 6 family/case pairs, worst "
                    f"|dev|/SE {worst_mean:.2f} (mean) and {worst_second:.2f} "
                    f"(second moment), bound 4; exact on {exact_checked} "
                    f"discrete trees to 1e-12")


def test_criterion_7_wealth_duality(accept):
    worst_terminal = worst_path = 0.0
    for family, name in (("gaussian", "unconstrained"),
                         ("gaussian", "half_space")):
        market = accept["markets"][family]
        table = accept["tables"][(family, name)]
        pol = precommitted(table, X0, TARGET)
        ensemble = simulate(pol, market, n_paths=10_000, seed=0)
        dens = density_for_paths(table, ensemble.returns)
        _, partial = density_factors(table, ensemble.returns)
        formula = duality_terminal_wealth(table, X0, TARGET, pol.mu, dens)
        worst_terminal = max(worst_terminal, float(
            np.max(np.abs(formula - ensemble.wealth[:, -1]))))
        implied = implied_wealth_path(table, X0, TARGET, pol.mu, partial)
        worst_path = max(worst_path, float(
            np.max(np.abs(implied - ensemble.wealth))))
    assert worst_terminal < 1e-9
    assert worst_path < 1e-10
    note(7, "PASS", f"terminal wealth formula vs simulation max dev "
                    f"{worst_terminal:.1e} (tol 1e-9), running wealth "
                    f"identity max dev {worst_path:.1e} (tol 1e-10) on "
                    f"2 x 10^4 shared-randomness paths")


def test_criterion_8_brute_force_equivalence():
    verified = 0
    seed = 0
    worst_var = 0.0
    while verified < 20 and seed < 300:
        seed += 1
        market = random_tree_market(seed, horizon=2)
        cone, rows = random_cone(seed + 911, market.n_assets)
        backend = ExactDiscreteBackend(market)
        table = backward_recursion(market, cone, backend)
        d = table.rho(0) * X0 + 0.25
        try:
            point = frontier_point(table, X0, d)
            pol = precommitted(table, X0, d)
        except (TargetUnattainable, InvalidTarget):
            continue
        rows_by_t = [rows] * market.horizon
        var_brute, _, _, _ = brute_force_min_variance(market, rows_by_t, X0, d)
        dev = abs(point.variance - var_brute) / max(1.0, var_brute)
        worst_var = max(worst_var, dev)
        assert dev <= 1e-6
        verdict = check_tcie(table, market)
        node_ok, _ = node_condition_tcie(market, table, pol, X0, d)
        assert verdict.is_tcie == node_ok
        verified += 1
    assert verified >= 20
    note(8, "PASS", f"{verified} random scenario-tree markets: recursion "
                    f"variance vs exhaustive minimization worst rel dev "
                    f"{worst_var:.1e} (tol 1e-6), TCIE verdict equals the "
                    f"node-by-node threshold test on every instance")


def test_criterion_9_property_suites():
    root = pathlib.Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_properties.py", "-q",
         "-p", "no:cacheprovider"],
        capture_output=True, text=True, cwd=root, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "7 passed" in proc.stdout
    note(9, "PASS", "7 randomized invariant suites (cost monotonicity, "
                    "quadratic=linear at optima, gradient vs central "
                    "differences, optimality residuals, dual concavity, "
                    "projection optimality, cone scaling) x 120 examples "
                    "each, all green")


def test_criterion_10_frontier_dominance(accept):
    case1 = accept["tables"][("gaussian", "unconstrained")]
    case2 = accept["tables"][("gaussian", "half_space")]
    case3 = accept["tables"][("gaussian", "limited_short")]
    riskless = case1.rho(0) * X0
    grid = np.linspace(riskless + 1e-6, riskless + 1.0, 50)
    for mean in grid:
        mean = float(mean)
        pre = frontier_point(case1, X0, mean).variance
        tc = tc_frontier_point(case1, X0, mean).variance
        half = frontier_point(case2, X0, mean).variance
        poly = frontier_point(case3, X0, mean).variance
        assert pre <= tc + 1e-12
        assert pre <= half + 1e-9
        assert half <= poly + 1e-9
    var_pre = frontier_point(case1, X0, TARGET).variance
    var_tc = tc_frontier_point(case1, X0, TARGET).variance
    assert var_pre == pytest.approx(0.0348, abs=1e-4)
    assert var_tc == pytest.approx(1.815, abs=5e-3)
    note(10, "PASS", f"precommitted <= time-consistent on 50 means, "
                     f"half-space frontier <= limited-short frontier "
                     f"pointwise; at d=1.35 precommitted {var_pre:.6f} "
                     f"(pin 0.0348) vs time-consistent {var_tc:.4f} "
                     f"(pin 1.815)")


def test_acceptance_summary(capsys):
    if not _LINES:
        pytest.skip("no criteria ran in this invocation")
    with capsys.disabled():
        print()
        for _, line in sorted(_LINES):
            print(line)
    covered = {criterion for criterion, _ in _LINES}
    assert covered == set(range(1, 11))
