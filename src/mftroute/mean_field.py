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
from .kl_solver import _check_desirability, _check_policy_shape, _dot
from .scenario import Scenario, readonly, require_valid


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
        object.__setattr__(self, "distributions", readonly(self.distributions))


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


def _deviation_costs(
    scenario: Scenario, trials: list[PolicyKernel], population_policy: PolicyKernel
) -> list[float]:
    """Cost of each trial deviating alone against ``population_policy``, in one pass over the stages.

    Each stage builds the population's toll row once, stacks the K trials'
    rows into one (K, E) flow, adds each row's masked product-sum, and
    advances all K distributions with one bincount: bin k*V + dest sums
    trial k's edges in edge order, as a bincount over trial k alone would.
    A trial's fault is its first entry that is not finite and >= 0
    (ValueError) or mass on a zero-support edge (ZeroSupportError), its
    rows checked whether reached or not; the lowest failed trial's fault is
    raised, as evaluating the trials one after another would.
    """
    for trial in trials:
        _check_policy_shape(scenario, trial)
    _check_policy_shape(scenario, population_policy)
    g = scenario.graph
    k_count, v = len(trials), g.node_count
    degrees = np.diff(g.row_start)
    toll_log = population_policy.toll_log()
    bins = (np.arange(k_count)[:, None] * v + g.edge_dst).ravel()
    dists = np.tile(scenario.initial.mass, (k_count, 1))
    edge_flow = np.empty((k_count, g.edge_count))
    totals = np.zeros(k_count)
    faults: dict[int, ValueError] = {}
    for t in range(scenario.horizon):
        for row, trial in zip(edge_flow, trials):
            row[:] = trial.probs[t]
        # a NaN entry fails both comparisons, a negative one the first and an infinite one the
        # second; the rows are searched only when the whole block fails
        failed = np.zeros(k_count, dtype=bool)
        if not (edge_flow.min(initial=0.0) >= 0 and edge_flow.max(initial=0.0) < np.inf):
            failed = ~((edge_flow >= 0) & (edge_flow < np.inf)).all(axis=1)
        # each node's mass repeated over its out-degree is the gather dists[:, edge_src], but
        # C-ordered: that fancy index is Fortran-ordered and made this product several times
        # slower, and np.take took twice as long.  An infinite entry where no mass stands makes
        # a NaN here, in a failed row.
        with np.errstate(invalid="ignore"):
            edge_flow *= np.repeat(dists, degrees, axis=1)
        # flow on an edge the population never takes: only the toll row's -inf columns can have it
        zero_support = np.flatnonzero(np.isneginf(toll_log[t]))
        dead = edge_flow[:, zero_support] > 0
        for k in np.flatnonzero(failed | dead.any(axis=1)).tolist():
            if k not in faults:
                faults[k] = _fault(scenario, trials[k], k, t, zero_support[dead[k]])
        if 0 in faults:  # trial 0's fault is the one raised, whatever later stages find
            break
        stage_cost = scenario.stage_costs(t) + scenario.alpha * (toll_log[t] - scenario.log_reference(t))
        if not np.isfinite(stage_cost).all():  # an unused edge adds 0 * cost, which is 0 for a finite cost only
            stage_cost = np.where(edge_flow > 0, stage_cost, 0.0)
        with np.errstate(invalid="ignore"):  # only a failed row, raised after the pass, makes a NaN here
            totals += _dot(edge_flow, stage_cost)
        dists = np.bincount(bins, weights=edge_flow.ravel(), minlength=k_count * v).reshape(k_count, v)
    if faults:
        raise faults[min(faults)]
    return totals.tolist()


def _fault(scenario: Scenario, trial: PolicyKernel, k: int, t: int, dead: np.ndarray) -> ValueError:
    """Trial k's fault at stage t: its first entry that is not finite and >= 0, else the first of its ``dead`` edges.

    ``dead`` lists, in edge order, the edges where trial k has flow and the population none.
    """
    g = scenario.graph
    bad = ~(np.isfinite(trial.probs[t]) & (trial.probs[t] >= 0))
    e = int(np.flatnonzero(bad)[0] if bad.any() else dead[0])
    node, dest = int(g.edge_src[e]), int(g.edge_dst[e])
    if bad.any():
        return ValueError(
            f"trial policy {k} has probability {float(trial.probs[t, e])!r} at stage {t}, node {node}, "
            f"edge to {dest}; routing probabilities must be finite and >= 0"
        )
    return ZeroSupportError(t, node, dest)


def evaluate_policy_cost(
    scenario: Scenario, policy: PolicyKernel, population_policy: PolicyKernel
) -> float:
    """Mean-field cost of unilaterally playing ``policy`` against ``population_policy``.

    The deviator's own flow weights each stage; the population enters only
    through the limiting toll alpha * log(population policy / reference).
    The flow goes forward a stage row at a time, so no (T+1, V) flow table
    is made.  Raises ZeroSupportError when the deviation is weighted onto an
    edge with zero population probability, and ValueError when ``policy``
    has an entry that is not finite and >= 0.
    """
    return _deviation_costs(scenario, [policy], population_policy)[0]


def equalizer_gap(
    scenario: Scenario,
    population_policy: PolicyKernel,
    trial_policies,
    desirability: LogDesirability | None = None,
) -> float:
    """Max |cost(trial vs population) - optimal value| over the trial policies.

    When the population policy is the optimal kernel from the backward
    pass, the gap vanishes (up to float error): the population equalizes
    the cost of every admissible deviation.  ``trial_policies`` is read
    into a list and all trials are evaluated in one forward pass, so every
    trial's table is held at once; the first failed trial's error is raised.
    A NaN cost makes the gap NaN.  A ``desirability`` table of another
    shape (T+1, V) or alpha than the scenario's raises a ValueError.
    """
    trials = list(trial_policies)
    if desirability is None:
        desirability = backward_pass(scenario)
    else:
        _check_desirability(scenario, desirability)
    v0 = value(desirability, scenario.initial, 0)
    costs = np.array(_deviation_costs(scenario, trials, population_policy))
    # np.max keeps a NaN, where max(gap, nan) would keep gap
    return float(np.max(np.abs(costs - v0), initial=0.0))


def mfe_solve(scenario: Scenario) -> MeanFieldSolution:
    """Backward pass, policy extraction, forward propagation, in that order."""
    desirability = backward_pass(scenario)
    policy = extract_policy(scenario, desirability)
    flow = propagate(scenario, policy)
    return MeanFieldSolution(policy, flow, desirability)


def random_policy(scenario: Scenario, rng: np.random.Generator) -> PolicyKernel:
    """Full-support routing kernel with each row drawn flat over its simplex.

    The (T, E) exponential draws are divided by their node sums in place,
    a stage row at a time, so the table is the only whole (T, E) array.
    An invalid scenario raises InvalidScenarioError.
    """
    require_valid(scenario)
    g = scenario.graph
    starts, degrees = g.row_start[:-1], np.diff(g.row_start)
    probs = rng.standard_exponential((scenario.horizon, g.edge_count))
    for row in probs:
        row /= np.repeat(np.add.reduceat(row, starts), degrees)  # each node's sum over its out-edges
    return PolicyKernel(probs)
