"""Mean-field population flow and equilibrium certification.

Propagates the population distribution forward under a routing kernel,
evaluates the cost of a unilateral deviation against a population policy
(the toll seen by the deviator is alpha * log(population policy /
reference)), and certifies the equalizer property: at the mean-field
equilibrium every admissible policy attains the same cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kl_solver import LogDesirability, PolicyKernel, backward_pass, extract_policy, value
from .kl_solver import _check_policy_shape
from .scenario import Scenario, _readonly


class ZeroSupportError(ValueError):
    """Deviation places mass on an edge the population policy never uses."""

    def __init__(self, t: int, node: int, dest: int):
        self.t, self.node, self.dest = t, node, dest
        super().__init__(
            f"deviating policy puts mass on edge {node} -> {dest} at stage {t} "
            "where the population policy is zero; the limiting toll is undefined there"
        )


@dataclass(frozen=True, eq=False)
class FlowTrajectory:
    """Population distributions P_0..P_T."""

    distributions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "distributions", _readonly(self.distributions))


@dataclass(frozen=True, eq=False)
class MeanFieldSolution:
    policy: PolicyKernel
    flow: FlowTrajectory
    desirability: LogDesirability


def propagate(scenario: Scenario, policy: PolicyKernel) -> FlowTrajectory:
    """Exact forward recursion of the population distribution from P_0."""
    _check_policy_shape(scenario, policy)
    g = scenario.graph
    dists = np.empty((scenario.horizon + 1, g.node_count))
    dists[0] = scenario.initial.mass
    for t in range(scenario.horizon):
        edge_flow = dists[t][g.edge_src] * policy.probs[t]
        dists[t + 1] = np.bincount(g.edge_dst, weights=edge_flow, minlength=g.node_count)
    return FlowTrajectory(dists)


def evaluate_policy_cost(
    scenario: Scenario, policy: PolicyKernel, population_policy: PolicyKernel
) -> float:
    """Mean-field cost of unilaterally playing ``policy`` against ``population_policy``.

    The deviator's own flow weights each stage; the population enters only
    through the limiting toll alpha * log(population policy / reference).
    Raises ZeroSupportError when the deviation is weighted onto an edge
    with zero population probability.
    """
    _check_policy_shape(scenario, policy)
    _check_policy_shape(scenario, population_policy)
    g = scenario.graph
    toll_log = population_policy.toll_log()
    flow = propagate(scenario, policy)

    total = 0.0
    for t in range(scenario.horizon):
        edge_flow = flow.distributions[t][g.edge_src] * policy.probs[t]
        used = edge_flow > 0
        dead = used & np.isneginf(toll_log[t])
        if np.any(dead):
            e = int(np.flatnonzero(dead)[0])
            raise ZeroSupportError(t, int(g.edge_src[e]), int(g.edge_dst[e]))
        log_ref = np.log(scenario.reference.probs[t])
        stage_cost = scenario.stage_costs(t) + scenario.alpha * (toll_log[t] - log_ref)
        total += float(edge_flow[used] @ stage_cost[used])
    return total


def equalizer_gap(
    scenario: Scenario,
    population_policy: PolicyKernel,
    trial_policies,
    desirability: LogDesirability | None = None,
) -> float:
    """Max |cost(trial vs population) - optimal value| over the trial policies.

    When the population policy is the optimal kernel from the backward
    pass, the gap vanishes (up to float error): the population equalizes
    the cost of every admissible deviation.
    """
    if desirability is None:
        desirability = backward_pass(scenario)
    v0 = value(desirability, scenario.initial, 0)
    gap = 0.0
    for trial in trial_policies:
        cost = evaluate_policy_cost(scenario, trial, population_policy)
        gap = max(gap, abs(cost - v0))
    return gap


def mfe_solve(scenario: Scenario) -> MeanFieldSolution:
    """Backward pass, policy extraction, forward propagation, in that order."""
    desirability = backward_pass(scenario)
    policy = extract_policy(scenario, desirability)
    flow = propagate(scenario, policy)
    return MeanFieldSolution(policy, flow, desirability)


def random_policy(scenario: Scenario, rng: np.random.Generator) -> PolicyKernel:
    """Full-support routing kernel with each row drawn flat over its simplex."""
    g = scenario.graph
    draws = rng.standard_exponential((scenario.horizon, g.edge_count))
    row_sums = np.add.reduceat(draws, g.row_start[:-1], axis=1)
    return PolicyKernel(draws / row_sums[:, g.edge_src])
