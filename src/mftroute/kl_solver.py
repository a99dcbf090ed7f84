"""Linear backward solver for the KL-regularized routing problem.

The routing objective (travel cost plus alpha times the KL divergence from
the reference policy to the chosen policy) has a Bellman equation that
linearizes under an exponential change of variables.  Everything here runs
in log domain with per-row max subtraction so that prohibitive costs
(1e5 and beyond) and small alpha never overflow or underflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import Distribution, Scenario, _readonly, require_valid


@dataclass(frozen=True, eq=False)
class LogDesirability:
    """Log of the exponentiated negative value function, shape (T+1, V).

    The final row is identically zero.  ``alpha`` records the
    aggressiveness the table was computed under, so values can be read off
    without re-threading the scenario.
    """

    log_phi: np.ndarray
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "log_phi", _readonly(self.log_phi))

    @property
    def horizon(self) -> int:
        return self.log_phi.shape[0] - 1


@dataclass(frozen=True, eq=False)
class PolicyKernel:
    """Time-indexed row-stochastic routing kernels, shape (T, E).

    ``log_probs``, when present, holds exact log probabilities and is the
    authoritative source for log-domain toll terms: extracted optimal
    policies can have entries far below the smallest positive float, where
    ``log(probs)`` would collapse to -inf.
    """

    probs: np.ndarray
    log_probs: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "probs", _readonly(np.atleast_2d(self.probs)))
        if self.log_probs is not None:
            object.__setattr__(self, "log_probs", _readonly(np.atleast_2d(self.log_probs)))

    @property
    def horizon(self) -> int:
        return self.probs.shape[0]

    def toll_log(self) -> np.ndarray:
        """Log probabilities for toll evaluation; -inf marks true zeros."""
        if self.log_probs is not None:
            return self.log_probs
        with np.errstate(divide="ignore"):
            return np.log(self.probs)


def _check_policy_shape(scenario: Scenario, policy: PolicyKernel) -> None:
    expect = (scenario.horizon, scenario.graph.edge_count)
    if policy.probs.shape != expect:
        raise ValueError(f"policy shape {policy.probs.shape}, expected {expect}")


def _log_kernel(scenario: Scenario) -> np.ndarray:
    """Per-(t, edge) log of reference * exp(-cost/alpha), shape (T, E)."""
    out = np.log(scenario.reference.probs)
    out -= scenario.edge_costs / scenario.alpha
    return out


def backward_pass(scenario: Scenario) -> LogDesirability:
    """Run the linear backward recursion once, entirely in log domain.

    Stage t's table is the per-node log-sum-exp over out-edges of
    log R - C/alpha + log_phi[t+1][dest], with log_phi[T] = 0; each
    node's out-edges are one contiguous segment, shifted by its own max.
    """
    require_valid(scenario)
    g = scenario.graph
    starts = g.row_start[:-1]
    log_kernel = _log_kernel(scenario)
    log_phi = np.zeros((scenario.horizon + 1, g.node_count))
    for t in range(scenario.horizon - 1, -1, -1):
        weights = log_kernel[t] + log_phi[t + 1][g.edge_dst]
        peak = np.maximum.reduceat(weights, starts)
        log_phi[t] = peak + np.log(np.add.reduceat(np.exp(weights - peak[g.edge_src]), starts))
    return LogDesirability(log_phi, scenario.alpha)


def extract_policy(scenario: Scenario, desirability: LogDesirability) -> PolicyKernel:
    """Optimal routing kernel from a backward pass over the same scenario.

    Rows are renormalized to machine-exact stochasticity after
    exponentiation; the pre-normalization row sums already equal one up to
    float rounding because each row's log normalizer is its own log_phi
    entry.
    """
    g = scenario.graph
    if desirability.horizon != scenario.horizon:
        raise ValueError(f"desirability horizon {desirability.horizon}, scenario horizon {scenario.horizon}")
    # in place, so the (T, E) temporaries stay few
    log_probs = _log_kernel(scenario)
    log_probs += desirability.log_phi[1:, g.edge_dst]
    log_probs -= desirability.log_phi[:-1, g.edge_src]
    probs = np.exp(log_probs)
    row_sums = np.add.reduceat(probs, g.row_start[:-1], axis=1)
    probs /= row_sums[:, g.edge_src]
    log_probs -= np.log(row_sums)[:, g.edge_src]
    return PolicyKernel(probs, log_probs)


def value(desirability: LogDesirability, dist: Distribution, t: int) -> float:
    """Expected optimal cost-to-go from stage t under location distribution dist."""
    mass = dist.mass if isinstance(dist, Distribution) else np.asarray(dist, dtype=np.float64)
    if not 0 <= t <= desirability.horizon:
        raise ValueError(f"stage {t} outside 0..{desirability.horizon}")
    return float(-desirability.alpha * mass @ desirability.log_phi[t])
