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

from .scenario import Distribution, Scenario, readonly, require_valid


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
        object.__setattr__(self, "log_phi", readonly(self.log_phi))

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
        object.__setattr__(self, "probs", readonly(np.atleast_2d(self.probs)))
        if self.log_probs is not None:
            object.__setattr__(self, "log_probs", readonly(np.atleast_2d(self.log_probs)))

    def toll_log(self) -> np.ndarray:
        """Log probabilities for toll evaluation; -inf marks true zeros."""
        if self.log_probs is not None:
            return self.log_probs
        with np.errstate(divide="ignore"):
            return np.log(self.probs)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum of a * b over the last axis: numpy's pairwise sum, whose bits no BLAS thread count enters."""
    return np.add.reduce(a * b, axis=-1)


def _check_policy_shape(scenario: Scenario, policy: PolicyKernel) -> None:
    expect = (scenario.horizon, scenario.graph.edge_count)
    if policy.probs.shape != expect:
        raise ValueError(f"policy shape {policy.probs.shape}, expected {expect}")


def _check_desirability(scenario: Scenario, desirability: LogDesirability) -> None:
    """Raise a ValueError unless the table has the scenario's horizon, (T+1, V) shape and alpha."""
    if desirability.horizon != scenario.horizon:
        raise ValueError(f"desirability horizon {desirability.horizon}, scenario horizon {scenario.horizon}")
    shape = (scenario.horizon + 1, scenario.graph.node_count)
    if desirability.log_phi.shape != shape:
        raise ValueError(f"desirability table of shape {desirability.log_phi.shape}, scenario needs {shape}")
    if desirability.alpha != scenario.alpha:
        raise ValueError(f"desirability alpha {desirability.alpha!r}, scenario alpha {scenario.alpha!r}")


def _log_weights(scenario: Scenario, log_phi_next: np.ndarray, t: int) -> np.ndarray:
    """Stage t's unnormalized log kernel row: log R[t] - C_t/alpha + log_phi[t+1][dest]."""
    weights = np.log(scenario.reference.probs[t])
    weights -= scenario.stage_costs(t) / scenario.alpha
    weights += log_phi_next[scenario.graph.edge_dst]
    return weights


def backward_pass(scenario: Scenario) -> LogDesirability:
    """Run the linear backward recursion once, entirely in log domain.

    Stage t's table is the per-node log-sum-exp over out-edges of
    log R - C/alpha + log_phi[t+1][dest], with log_phi[T] = 0; each
    node's out-edges are one contiguous segment, shifted by its own max.
    The kernel is built a stage row at a time, so no (T, E) table is made.
    """
    require_valid(scenario)
    g = scenario.graph
    starts = g.row_start[:-1]
    log_phi = np.zeros((scenario.horizon + 1, g.node_count))
    for t in range(scenario.horizon - 1, -1, -1):
        weights = _log_weights(scenario, log_phi[t + 1], t)
        peak = np.maximum.reduceat(weights, starts)
        log_phi[t] = peak + np.log(np.add.reduceat(np.exp(weights - peak[g.edge_src]), starts))
    return LogDesirability(log_phi, scenario.alpha)


def extract_policy(scenario: Scenario, desirability: LogDesirability) -> PolicyKernel:
    """Optimal routing kernel from a backward pass over the same scenario.

    Rows are renormalized to machine-exact stochasticity after
    exponentiation; the pre-normalization row sums already equal one up to
    float rounding because each row's log normalizer is its own log_phi
    entry.  The two (T, E) outputs are filled a stage row at a time.  A
    table of another shape (T+1, V) or alpha than the scenario's raises a
    ValueError.
    """
    _check_desirability(scenario, desirability)
    g = scenario.graph
    probs, log_probs = np.empty((2, scenario.horizon, g.edge_count))
    for t, (row, log_row) in enumerate(zip(probs, log_probs)):
        log_row[:] = _log_weights(scenario, desirability.log_phi[t + 1], t)
        log_row -= desirability.log_phi[t][g.edge_src]
        np.exp(log_row, out=row)
        row_sums = np.add.reduceat(row, g.row_start[:-1])
        row /= row_sums[g.edge_src]
        log_row -= np.log(row_sums)[g.edge_src]
    return PolicyKernel(probs, log_probs)


def value(desirability: LogDesirability, dist: Distribution, t: int) -> float:
    """Expected optimal cost-to-go from stage t under location distribution dist."""
    if not 0 <= t <= desirability.horizon:
        raise ValueError(f"stage {t} outside 0..{desirability.horizon}")
    shape = desirability.log_phi.shape[1:]
    if dist.mass.shape != shape:
        raise ValueError(f"distribution of shape {dist.mass.shape}, desirability table needs {shape}")
    return float(_dot(-desirability.alpha * dist.mass, desirability.log_phi[t]))
