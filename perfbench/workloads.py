"""The benchmark's three workloads, their generated inputs and output checks.

Each workload runs in rounds over a fixed corpus of inputs, in an order
the workload seed fixes, and a run sweeps the corpus a whole number of
times.  Round ``r``'s inputs follow from the corpus and ``r`` only, so a
seed fixes every input and a traced re-run of round ``r`` sees the same
inputs as the untraced one.
Operations go through a :class:`Ledger`, which times them, counts
attempts and failures, and never lets one failure abort the run.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# Entry points are called through their modules (solver.backward_recursion,
# not a local binding) so the traced run's wrappers see every call.
from conemv import config, policy, sim, solver, tcie, vssm
from conemv.cones import ConvexCone
from conemv.errors import InvalidMarket, NoConvergence
from conemv.market import MarketSpec, PeriodDistribution
from conemv.presets import limited_short_cone

X0 = 1.0
MC_SE_BOUND = 4.0        # Monte Carlo density moments, in standard errors
EXACT_MOMENT_TOL = 1e-12  # exact density moments on scenario trees
DUALITY_TOL = 1e-9        # terminal wealth formula vs simulated wealth
CLI_TIMEOUT_S = 150
# The last stderr line `conemv` prints when it exits 1 on a NoConvergence
# (cones.py Dykstra cap, solver.py optimizer budget).  Every other non-zero
# exit, ConsistencyError included, is a wrong output.
CLI_NO_CONVERGENCE = re.compile(
    r"^error: (Dykstra projection did not settle within \d+ cycles"
    r"|optimizer '\w+' exhausted \d+ iterations at t=\d+ sign=[+-]1 .*)$")

HERE = Path(__file__).resolve().parent


class HonestFailure(Exception):
    """A CLI process reported a NoConvergence: a failure, not a wrong output."""


class Ledger:
    """Times operations and counts attempts, failures and wrong outputs.

    An operation is a solve, simulation, check or CLI command.  It fails
    when it raises, exits non-zero or fails an output check.  A
    ``NoConvergence``, raised in process or reported by a CLI process,
    only counts as failed; a failed check, any other exception and any
    other non-zero exit also mark the run's outputs as wrong.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: list[str] = []
        self.times: dict[str, list[float]] = defaultdict(list)
        self.rounds: list[dict[str, float]] = []

    def start_round(self) -> None:
        self.rounds.append(defaultdict(float))

    def call(self, op: str, fn, *args, **kwargs):
        """Run one operation; returns (ok, result)."""
        self.attempted += 1
        span = self.tracer.open("bench." + op) if self.tracer else None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # the run must go on; the failure is counted
            honest = isinstance(exc, (NoConvergence, HonestFailure))
            self._fail(op, f"{type(exc).__name__}: {exc}", wrong=not honest)
            return False, None
        finally:
            if span is not None:
                self.tracer.close(span)
        elapsed = time.perf_counter() - start
        self.times[op].append(elapsed)
        if self.rounds:
            self.rounds[-1][op] += elapsed
        return True, result

    def check(self, name: str, ok: bool, detail: str = "",
              wrong: bool = True) -> bool:
        """Count one output check.  ``wrong=False`` marks a statistical check
        or an accuracy audit, which a correct program can miss: the miss
        counts as a failed operation but not as a wrong output."""
        self.attempted += 1
        if not ok:
            self._fail("check." + name, detail, wrong=wrong)
        return ok

    def _fail(self, op: str, detail: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        self.failures.append(f"{op}: {detail.splitlines()[0] if detail else ''}"[:300])


# ---------------------------------------------------------------------------
# steps shared by the in-process workloads
# ---------------------------------------------------------------------------

def _tcie(table, market, backend):
    """Verdict plus one-step transition probabilities, as `conemv tcie` does."""
    verdict = tcie.check_tcie(table, market)
    for t in range(table.horizon):
        tcie.transition_probs(table, market, t, backend=backend)
    return verdict


def _simulate(table, market, d, n_paths, seed):
    pol = policy.precommitted(table, X0, d)
    return pol, sim.simulate(pol, market, n_paths=n_paths, seed=seed)


def simulate_and_check(ledger, table, market, d, n_paths, seed):
    """Simulate the precommitted policy, then check the wealth duality.

    Returns the path densities, or None when an operation failed.
    """
    ok, out = ledger.call("simulate", _simulate, table, market, d, n_paths, seed)
    if not ok:
        return None
    pol, ens = out
    ok, dens = ledger.call("density", vssm.density_for_paths, table, ens.returns)
    if not ok:
        return None
    formula = vssm.duality_terminal_wealth(table, X0, d, pol.mu, dens)
    dev = float(np.max(np.abs(formula - ens.wealth[:, -1])))
    ledger.check("duality_wealth", dev <= DUALITY_TOL,
                 f"terminal wealth formula off by {dev:.3e}")
    return dens


def check_mc_moments(ledger, mean, se_mean, second, se_second, c_plus0):
    """Monte Carlo density moments against (1, 1/C_0^+), in standard errors.

    Statistical: a correct program still exceeds 4 SE now and then (the
    densities are heavy-tailed and the SAA gains carry their own sampling
    error), so a miss counts as a failed operation, not a wrong output.
    """
    dev = abs(mean - 1.0)
    ledger.check("density_mean", dev <= MC_SE_BOUND * se_mean,
                 f"|E[dQ/dP] - 1| = {dev:.3e} > {MC_SE_BOUND} SE ({se_mean:.3e})",
                 wrong=False)
    dev = abs(second - 1.0 / c_plus0)
    ledger.check("density_second", dev <= MC_SE_BOUND * se_second,
                 f"|E[(dQ/dP)^2] - 1/C0+| = {dev:.3e} > {MC_SE_BOUND} SE "
                 f"({se_second:.3e})", wrong=False)


def tree_paths(market):
    """Every scenario path of a discrete market: returns (M, T, n), probs (M,).

    Built here, independently of conemv.vssm.enumerate_tree, so the
    checks below are an oracle for the library's enumeration.
    """
    periods = market.periods
    idx = np.array(list(itertools.product(*(range(len(p.probs))
                                            for p in periods))))
    returns = np.stack([p.atoms[idx[:, t]] for t, p in enumerate(periods)], axis=1)
    probs = np.prod([p.probs[idx[:, t]] for t, p in enumerate(periods)], axis=0)
    return returns, probs


def density_mean_gap(table, market, paths) -> float:
    """E[dQ/dP] - 1 as implied by the solved table's one-period gaps.

    With M_t = (prod_{i<t} B_i) C_t^{s_t}, where s_t is the sign of the
    running product, E[M_{t+1} - M_t | F_t] = (prod_{i<t} B_i)(L_t - C_t),
    L_t being the linear form E[c(K)(1 -+ P'K)] at the stored gain.  So

        E[dQ/dP] - 1 = sum_t E[(prod_{i<t} B_i)(L_t - C_t)] / C_0^+

    for any table.  The right side vanishes at an exact optimum and
    otherwise carries the solver's tolerance, amplified by 1 / C_0^+.
    """
    returns, probs = paths
    partial = np.ones(len(probs))
    gap = 0.0
    for t, period in enumerate(market.periods):
        c_next = (table.c_plus[t + 1], table.c_minus[t + 1])
        plus = partial >= 0.0
        for sign, mask, k, c_now in ((1, plus, table.k_plus[t], table.c_plus[t]),
                                     (-1, ~plus, table.k_minus[t],
                                      table.c_minus[t])):
            y = period.atoms @ k
            c = np.where(y <= 1.0 if sign > 0 else y <= -1.0, *c_next)
            lin = float(period.probs @ (c * (1.0 - sign * y)))
            gap += float(probs[mask] @ partial[mask]) * (lin - c_now)
        y_plus = returns[:, t] @ table.k_plus[t]
        y_minus = returns[:, t] @ table.k_minus[t]
        partial = partial * np.where(plus, 1.0 - y_plus, 1.0 + y_minus)
    return gap / table.c_plus[0]


def check_exact_moments(ledger, table, market, paths, mean, second):
    """Density moments on a scenario tree.

    Identities that hold for any solved table, to rounding:
    E[dQ/dP] = 1 + density_mean_gap, and E[(dQ/dP)^2] = 1/C_0^+ (relative,
    since 1/C_0^+ reaches 1e5 on these trees).  Accuracy audit, which
    also needs an exact optimum: |E[dQ/dP] - 1| <= 1e-12.
    """
    inv_c0 = 1.0 / table.c_plus[0]
    gap = density_mean_gap(table, market, paths)
    ledger.check("exact_density_mean_identity",
                 abs(mean - 1.0 - gap) <= EXACT_MOMENT_TOL,
                 f"E[dQ/dP] - 1 = {mean - 1.0:.3e}, table gap {gap:.3e}")
    ledger.check("exact_density_second",
                 abs(second - inv_c0) <= EXACT_MOMENT_TOL * max(1.0, inv_c0),
                 f"E[(dQ/dP)^2] = {second!r} vs 1/C0+ = {inv_c0!r}")
    ledger.check("exact_density_mean", abs(mean - 1.0) <= EXACT_MOMENT_TOL,
                 f"|E[dQ/dP] - 1| = {abs(mean - 1.0):.3e} from a one-period "
                 f"gap of the solve (C0+ = {table.c_plus[0]:.3e})", wrong=False)


def load_config(path: Path):
    with open(path) as fh:
        return config.parse_config(json.load(fh))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Corpus:
    """Inputs drawn once from ``corpus_seed``; the workload seed orders them.

    The cost of one input varies so much between inputs that a median
    over the few inputs a run can afford would move more between seeds
    than any useful regression bound: the median over a fixed corpus does
    not.  Round r runs input ``input_key(r)``; a run sweeps the corpus in
    its seed's order and ends only after a whole sweep.  Every input, the
    simulation seeds and the statistical checks' draws included, follows
    from the corpus key alone, so every run meets the same inputs the same
    number of times and reports the same share of failed operations.
    """

    corpus_seed = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.order = np.random.default_rng([seed, self.index]).permutation(
            self.corpus_size)

    def input_key(self, r: int) -> int:
        return int(self.order[r % self.corpus_size])

    def input_seeds(self, r: int, n: int = 1):
        """The seed of round r's input, or a tuple of ``n`` seeds."""
        state = np.random.SeedSequence(
            [self.corpus_seed, self.index, self.input_key(r)]).generate_state(n)
        return int(state[0]) if n == 1 else tuple(int(v) for v in state)


class SaaGaussHalfspace(Corpus):
    """SAA solve of the three-index gaussian market under the mean
    half-space cone, then frontier, tcie, simulation and densities.

    The corpus is six (frozen-sample, simulation) seed pairs:
    projected-gradient iteration counts, and with them solve times, differ
    by a third between SAA draws.
    """

    name = "saa_gauss_halfspace"
    index = 1
    corpus_size = 6
    samples = 1_000_000
    paths = 1_000_000
    required_spans = (
        "rng.uniform_block", "market.sample_block", "market.ndtri",
        "solver.backward_recursion", "solver.minimize_over_cone",
        "solver.cost_eval", "solver.linear_form", "cones.project",
        "cones.polar_contains", "policy.control", "sim.simulate",
        "vssm.density_for_paths", "tcie.check_tcie", "tcie.transition_probs")

    def __init__(self, root: Path, seed: int, outdir: Path):
        super().__init__(seed)
        self.config_path = root / "configs" / "three_index_half_space_gaussian.json"
        cfg = load_config(self.config_path)
        self.market, self.cone, self.d = cfg.market, cfg.cones[0], cfg.d
        self.setup_samples = self.samples

    def working_set_bytes(self) -> int:
        T, n = self.market.horizon, self.market.n_assets
        return 8 * (T * self.samples * n + self.paths * (T * n + T + 1))

    def run_round(self, r: int, ledger: Ledger, tracer=None) -> None:
        saa_seed, sim_seed = self.input_seeds(r, 2)
        market = self.market
        backend = solver.SaaBackend(market, self.samples, saa_seed)
        ok, table = ledger.call("solve", solver.backward_recursion, market, self.cone,
                                backend)
        if not ok:
            return
        ledger.call("frontier", policy.frontier_point, table, X0, self.d)
        ok, verdict = ledger.call("tcie", _tcie, table, market, backend)
        if ok:
            # the mean half-space cone is the loosest cone that forces
            # time consistency in efficiency
            ledger.check("tcie_half_space", verdict.is_tcie,
                         f"verdict {verdict.reason} on the mean half-space cone")
        dens = simulate_and_check(ledger, table, market, self.d, self.paths,
                                  sim_seed)
        if dens is not None:
            n = dens.shape[0]
            sq = dens * dens
            check_mc_moments(ledger, float(dens.mean()),
                             float(dens.std(ddof=1) / np.sqrt(n)),
                             float(sq.mean()), float(sq.std(ddof=1) / np.sqrt(n)),
                             float(table.c_plus[0]))


class CliTLimitedShort(Corpus):
    """Closed loop of fresh `python -m conemv` processes, one at a time,
    on the shipped Student-t limited-short config.

    The corpus is three `--seed` values, each passed to all five commands.
    """

    name = "cli_t_limited_short"
    index = 2
    corpus_size = 3
    samples = 250_000
    paths = 200_000
    commands = (
        ("solve", ()),
        ("tcie", ()),
        ("frontier", ("--mean-min", "1.16", "--mean-max", "2.16",
                      "--points", "50", "--format", "json")),
        ("simulate", ("--paths", str(paths))),
        ("vssm", ("--paths", str(paths))),
    )
    required_spans = SaaGaussHalfspace.required_spans + (
        "market.gammaincinv", "sim.sample_returns", "config.parse_config",
        "cli.main")

    def __init__(self, root: Path, seed: int, outdir: Path):
        super().__init__(seed)
        self.root = root
        self.outdir = outdir
        self.config_path = (root / "configs"
                            / "three_index_limited_short_student_t.json")
        self.market = load_config(self.config_path).market
        self.setup_samples = self.samples
        self.env = child_env(root)

    def working_set_bytes(self) -> int:
        T, n = self.market.horizon, self.market.n_assets
        return 8 * (T * self.samples * n + self.paths * (T * n + T + 1))

    def run_round(self, r: int, ledger: Ledger, tracer=None) -> None:
        seed = self.input_seeds(r)
        for cmd, extra in self.commands:
            argv = [cmd, "--config", str(self.config_path), "--seed", str(seed),
                    "--samples", str(self.samples), *extra]
            ok, payload = ledger.call("cli_" + cmd, self._run, argv, tracer)
            if ok and cmd == "vssm":
                mc = payload["monte_carlo"]
                check_mc_moments(ledger, mc["mean"], mc["se_mean"],
                                 mc["second_moment"], mc["se_second_moment"],
                                 1.0 / payload["theoretical"]["second_moment"])

    def _run(self, argv: list[str], tracer):
        """One CLI process; returns its parsed JSON output."""
        if tracer is None:
            cmd = [sys.executable, "-m", "conemv", *argv]
            spans_out = None
        else:
            spans_out = self.outdir / f"child-spans-{os.getpid()}.json"
            spans_out.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "child.py"), "cli", str(spans_out),
                   *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                              cwd=self.root, timeout=CLI_TIMEOUT_S)
        if spans_out is not None and spans_out.exists():
            tracer.merge(json.loads(spans_out.read_text()), tracer.current())
            spans_out.unlink()
        if proc.returncode != 0:
            raise cli_failure(proc.returncode, proc.stderr)
        return json.loads(proc.stdout)


def cli_failure(returncode: int, stderr: str) -> Exception:
    """The exception a non-zero CLI exit counts as: HonestFailure for a
    reported NoConvergence, RuntimeError (a wrong output) for the rest."""
    lines = stderr.strip().splitlines()
    last = lines[-1] if lines else ""
    msg = f"exit {returncode}: {last}"
    if (returncode == 1 and "Traceback" not in stderr
            and CLI_NO_CONVERGENCE.match(last)):
        return HonestFailure(msg)
    return RuntimeError(msg)


class TreeSweep(Corpus):
    """Random scenario-tree markets solved exactly under a cycle of four
    cones, each solve followed by the frontier, tcie verdict, exact
    density moments, supermartingale audit and a short simulation.

    The corpus is 32 random markets: the time to sweep one market spans
    more than an order of magnitude between markets, and a median over
    the markets of one run moved by a quarter between seeds when each
    seed drew its own.  Each market comes with its simulation seed.
    """

    name = "tree_sweep"
    index = 3
    horizon = 3
    n_assets = 3
    paths = 4096
    target_gap = 0.1  # d = rho_0 x0 + target_gap
    corpus_size = 32
    required_spans = (
        "rng.uniform_block", "market.sample_block",
        "solver.backward_recursion", "solver.minimize_over_cone",
        "solver.cost_eval", "solver.linear_form", "cones.project",
        "cones.polar_contains", "policy.control", "sim.simulate",
        "vssm.density_for_paths", "vssm.enumerate_tree",
        "vssm.supermartingale_check", "tcie.check_tcie",
        "tcie.transition_probs")

    def __init__(self, root: Path, seed: int, outdir: Path):
        super().__init__(seed)
        self.setup_samples = 0
        market, _ = self.corpus_market(self.input_key(0))
        self.market = market
        self.config_path = outdir / f"tree_sweep-{seed}.json"
        period = market.periods[0]
        config = {
            "market": {"horizon": self.horizon,
                       "riskless_rates": market.riskless_rates.tolist(),
                       "family": "discrete",
                       "atoms": [[a.tolist(), float(p)] for a, p
                                 in zip(period.atoms, period.probs)]},
            "cones": {"type": "orthant"},
            "policy": {"kind": "precommitted", "x0": X0,
                       "d": market.rho(0) * X0 + self.target_gap},
            "numerics": {"backend": "exact"},
        }
        self.config_path.write_text(json.dumps(config))

    def working_set_bytes(self) -> int:
        m = len(self.market.periods[0].probs)
        tree = m ** self.horizon * self.horizon * self.n_assets
        sim = self.paths * (self.horizon * self.n_assets + self.horizon + 1)
        return 8 * (tree + sim)

    def corpus_market(self, k: int):
        """Market k of the corpus and its cone cycle.

        Markets and random cones are redrawn until every cone admits a
        position with positive mean excess return, so that mean targets
        above the riskless return are attainable.  Convergence plays no
        part in the choice.
        """
        rng = np.random.default_rng([self.corpus_seed, self.index, k])
        fixed = [("orthant", ConvexCone.orthant(self.n_assets)),
                 ("limited_short", limited_short_cone())]
        while True:
            n_atoms = int(rng.integers(4, 7))
            atoms = rng.uniform(-0.6, 0.9, size=(n_atoms, self.n_assets))
            probs = rng.uniform(0.2, 1.0, size=n_atoms)
            period = PeriodDistribution.discrete(atoms, probs / probs.sum())
            market = MarketSpec.iid(self.horizon, float(rng.uniform(1.0, 1.08)),
                                    period)
            try:
                market.validate()
            except InvalidMarket:
                continue
            if not any(c.polar_contains(period.mean) for _, c in fixed):
                break
        while True:
            rows = rng.normal(size=(int(rng.integers(3, 6)), self.n_assets))
            random_cone = ConvexCone.polyhedral(rows)
            if not random_cone.polar_contains(period.mean):
                break
        cones = [fixed[0],
                 ("half_space", ConvexCone.half_space(period.mean)),
                 fixed[1],
                 ("random_polyhedral", random_cone)]
        return market, cones

    def run_round(self, r: int, ledger: Ledger, tracer=None) -> None:
        market, cones = self.corpus_market(self.input_key(r))
        _, sim_seed = self.input_seeds(r, 2)
        backend = solver.ExactDiscreteBackend(market)
        paths = tree_paths(market)
        d = market.rho(0) * X0 + self.target_gap
        for label, cone in cones:
            ok, table = ledger.call("solve", solver.backward_recursion, market, cone,
                                    backend)
            if not ok:
                continue
            ledger.call("frontier", policy.frontier_point, table, X0, d)
            ok, verdict = ledger.call("tcie", _tcie, table, market, backend)
            if ok and label == "half_space":
                ledger.check("tcie_half_space", verdict.is_tcie,
                             f"verdict {verdict.reason} on the mean half-space cone")
            ok, moments = ledger.call("density_moments", vssm.exact_density_moments,
                                      table, market)
            if ok:
                check_exact_moments(ledger, table, market, paths, *moments)
            ok, report = ledger.call("supermartingale", vssm.supermartingale_check,
                                     table, market, cone)
            if ok:
                ledger.check("supermartingale", report.ok,
                             f"{len(report.worst_nodes())} nodes price positively "
                             f"at tol 1e-9 ({label} cone)", wrong=False)
            simulate_and_check(ledger, table, market, d, self.paths, sim_seed)


WORKLOADS = {w.name: w for w in (SaaGaussHalfspace, CliTLimitedShort, TreeSweep)}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env
