"""Mean-field traffic routing under a log-population toll.

Solves the routing game's mean-field equilibrium by a single linear
backward recursion, and validates it against finite-population
simulation, fictitious play, and an exact symmetric-equilibrium solver.
"""

from .fictitious_play import BeliefPath, fp_run
from .finite_population import (
    FiniteBestResponse,
    PopulationSample,
    best_response_finite_n,
    expected_tax_heterogeneous,
    expected_tax_symmetric,
    expected_tax_gap,
    poisson_binomial_pmf,
    realized_taxes,
    simulate_population,
    simulate_replications,
)
from .kl_solver import LogDesirability, PolicyKernel, backward_pass, extract_policy, value
from .mean_field import (
    FlowTrajectory,
    MeanFieldSolution,
    ZeroSupportError,
    equalizer_gap,
    evaluate_policy_cost,
    mfe_solve,
    propagate,
    random_policy,
)
from .scenario import (
    Distribution,
    InvalidScenarioError,
    ReferencePolicy,
    Scenario,
    ScenarioFormatError,
    StageCosts,
    TrafficGraph,
    Violation,
    build_gridworld,
    grid_node,
    truncate_scenario,
    validate,
)
from .symmetric_equilibrium import (
    EquilibriumResult,
    SingleStageGame,
    assumed_cost,
    solve_single_stage_mfe,
    solve_symmetric_ne,
)
from .textio import __version__, deserialize, read_scenario, serialize, write_scenario

__all__ = [
    "BeliefPath",
    "Distribution",
    "EquilibriumResult",
    "FiniteBestResponse",
    "FlowTrajectory",
    "InvalidScenarioError",
    "LogDesirability",
    "MeanFieldSolution",
    "PolicyKernel",
    "PopulationSample",
    "ReferencePolicy",
    "Scenario",
    "ScenarioFormatError",
    "SingleStageGame",
    "StageCosts",
    "TrafficGraph",
    "Violation",
    "ZeroSupportError",
    "assumed_cost",
    "backward_pass",
    "best_response_finite_n",
    "build_gridworld",
    "deserialize",
    "equalizer_gap",
    "evaluate_policy_cost",
    "expected_tax_heterogeneous",
    "expected_tax_symmetric",
    "extract_policy",
    "fp_run",
    "grid_node",
    "expected_tax_gap",
    "mfe_solve",
    "poisson_binomial_pmf",
    "propagate",
    "random_policy",
    "read_scenario",
    "realized_taxes",
    "serialize",
    "simulate_population",
    "simulate_replications",
    "solve_single_stage_mfe",
    "solve_symmetric_ne",
    "truncate_scenario",
    "validate",
    "value",
    "write_scenario",
]
