#!/usr/bin/env python3
"""Three-index desk study: solve all constraint cases, print the policy
summaries, and write frontier/simulation outputs under --outdir.

Cases: unconstrained, mean half-space, limited-short polyhedral cone;
each solved for the gaussian and student-t(5) calibrations.  All draws
are seeded, so two runs with the same arguments produce identical
files.
"""

import argparse
import json
import pathlib
import time

import numpy as np

from conemv.policy import (frontier_point, mu_star, precommitted,
                           tc_frontier_point, wealth_threshold)
from conemv.presets import (limited_short_cone, mean_half_space_cone,
                            three_index_market)
from conemv.sim import summarize
from conemv.solver import SaaBackend, backward_recursion, unconstrained_table
from conemv.tcie import check_tcie

CASES = (
    ("unconstrained", None),  # closed form, no solve
    ("half_space", mean_half_space_cone),
    ("limited_short", limited_short_cone),
)


def solve_case(market, cone_factory, samples, seed):
    if cone_factory is None:
        return unconstrained_table(market)
    backend = SaaBackend(market, samples, seed)
    return backward_recursion(market, cone_factory(), backend)


def frontier_rows(table, benchmark, x0, mean_grid):
    rows = []
    for mean in mean_grid:
        mean = float(mean)
        point = frontier_point(table, x0, mean)
        tc_var = tc_frontier_point(benchmark, x0, mean).variance
        rows.append({"mean": mean, "variance": point.variance,
                     "variance_time_consistent": tc_var})
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=1_000_000,
                        help="SAA sample count for the constrained solves")
    parser.add_argument("--paths", type=int, default=1_000_000,
                        help="Monte Carlo paths per case")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--x0", type=float, default=1.0)
    parser.add_argument("--target", type=float, default=1.35)
    parser.add_argument("--outdir", default="study_out")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {}

    for family in ("gaussian", "student_t"):
        market = three_index_market(family)
        benchmark = unconstrained_table(market)
        riskless = market.rho(0) * args.x0
        mean_grid = np.linspace(riskless, riskless + 1.0, 50)

        for case, cone_factory in CASES:
            tag = f"{case}_{family}"
            start = time.perf_counter()
            table = solve_case(market, cone_factory, args.samples, args.seed)
            solve_s = time.perf_counter() - start

            mu = mu_star(table, args.x0, args.target)
            verdict = check_tcie(table, market)
            pol = precommitted(table, args.x0, args.target)
            stats, crossing = summarize(pol, market, args.paths, args.seed)

            summary[tag] = {
                "k_plus_0": table.k_plus[0].tolist(),
                "c_plus_0": float(table.c_plus[0]),
                "mu_star": mu,
                "threshold_t0": wealth_threshold(table, args.target, mu, 0),
                "tcie": verdict.is_tcie,
                "tcie_reason": verdict.reason,
                "terminal_mean": stats.mean,
                "terminal_variance": stats.variance,
                "exceedance_prob": crossing.probability,
                "exceedance_se": crossing.standard_error,
                "solve_seconds": solve_s,
            }
            print(f"[{tag}] C0+={table.c_plus[0]:.6f} mu*={mu:.6f} "
                  f"tcie={verdict.is_tcie} "
                  f"exceedance={crossing.probability:.4f} "
                  f"var={stats.variance:.6f} ({solve_s:.1f}s)")

            rows = frontier_rows(table, benchmark, args.x0, mean_grid)
            with open(outdir / f"frontier_{tag}.json", "w") as fh:
                json.dump(rows, fh, indent=2)

    with open(outdir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"wrote {outdir}/summary.json and per-case frontier files")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
