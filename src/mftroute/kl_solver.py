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


def _segment_lse(values: np.ndarray, row_start: np.ndarray, seg_id: np.ndarray) -> np.ndarray:
    """Log-sum-exp of each contiguous edge segment (one segment per node)."""
    peak = np.maximum.reduceat(values, row_start[:-1])
    shifted = np.exp(values - peak[seg_id])
    return peak + np.log(np.add.reduceat(shifted, row_start[:-1]))


def _log_weights(scenario: Scenario, log_phi_next: np.ndarray, t: int) -> np.ndarray:
    """Per-edge log of reference * exp(-cost/alpha) * next-stage desirability."""
    return (
        np.log(scenario.reference.probs[t])
        - scenario.edge_costs[t] / scenario.alpha
        + log_phi_next[scenario.graph.edge_dst]
    )


def backward_pass(scenario: Scenario) -> LogDesirability:
    """Run the linear backward recursion once, entirely in log domain.

    Stage t's table is the per-node log-sum-exp over out-edges of
    log R - C/alpha + log_phi[t+1][dest], with log_phi[T] = 0.
    """
    require_valid(scenario)
    g = scenario.graph
    t_count = scenario.horizon
    log_phi = np.zeros((t_count + 1, g.node_count))
    for t in range(t_count - 1, -1, -1):
        log_phi[t] = _segment_lse(
            _log_weights(scenario, log_phi[t + 1], t), g.row_start, g.edge_src
        )
    return LogDesirability(log_phi, scenario.alpha)


def extract_policy(scenario: Scenario, desirability: LogDesirability) -> PolicyKernel:
    """Optimal routing kernel from a backward pass over the same scenario.

    Rows are renormalized to machine-exact stochasticity after
    exponentiation; the pre-normalization row sums already equal one up to
    float rounding because each row's log normalizer is its own log_phi
    entry.
    """
    g = scenario.graph
    t_count = scenario.horizon
    if desirability.horizon != t_count:
        raise ValueError(
            f"desirability horizon {desirability.horizon}, scenario horizon {t_count}"
        )
    probs = np.empty((t_count, g.edge_count))
    log_probs = np.empty((t_count, g.edge_count))
    for t in range(t_count):
        raw_log = _log_weights(scenario, desirability.log_phi[t + 1], t)
        raw_log -= desirability.log_phi[t][g.edge_src]
        raw = np.exp(raw_log)
        row_sums = np.add.reduceat(raw, g.row_start[:-1])
        probs[t] = raw / row_sums[g.edge_src]
        log_probs[t] = raw_log - np.log(row_sums)[g.edge_src]
    return PolicyKernel(probs, log_probs)


def value(desirability: LogDesirability, dist: Distribution, t: int) -> float:
    """Expected optimal cost-to-go from stage t under location distribution dist."""
    mass = dist.mass if isinstance(dist, Distribution) else np.asarray(dist, dtype=np.float64)
    if not 0 <= t <= desirability.horizon:
        raise ValueError(f"stage {t} outside 0..{desirability.horizon}")
    return float(-desirability.alpha * mass @ desirability.log_phi[t])
