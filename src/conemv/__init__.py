"""Discrete-time mean-variance portfolio selection under cone constraints.

Core pipeline: describe a market (:mod:`conemv.market`) and per-period
constraint cones (:mod:`conemv.cones`), run the backward recursion
(:mod:`conemv.solver`), then derive policies and frontiers
(:mod:`conemv.policy`), the attached signed measure
(:mod:`conemv.vssm`), time-consistency verdicts (:mod:`conemv.tcie`),
and seeded Monte Carlo (:mod:`conemv.sim`).
"""

from .cones import ConvexCone, construct_tcie_cone
from .errors import (BackendMismatch, ConemvError, ConfigError,
                     ConsistencyError, DimensionMismatch, InsufficientMemory,
                     InvalidCone, InvalidMarket, InvalidTarget, NoConvergence,
                     TargetUnattainable, ZeroMeanExcess)
from .market import MarketSpec, PeriodDistribution, from_annual_table
from .policy import (Policy, frontier_point, induced_target, minimum_variance,
                     mu_star, precommitted, tc_frontier_point,
                     time_consistent, truncated)
from .solver import (ExactDiscreteBackend, RecursionTable, SaaBackend,
                     SolverOptions, backward_recursion, dual_value,
                     linear_form, minimize_over_cone, unconstrained_table,
                     value_function)
from .tcie import TcieVerdict, check_tcie, transition_probs
from .vssm import (conditional_expectation, density_for_paths,
                   density_factors, duality_terminal_wealth,
                   exact_density_moments, implied_wealth_path,
                   supermartingale_check, theoretical_moments)

__version__ = "0.1.0"
