"""Symmetric fictitious play for the single-stage parallel-route game.

All players share one belief over the route simplex.  Each day every
player best-responds to the assumed cost of each route (travel cost plus
the exact expected toll if the other N-1 players routed i.i.d. from the
belief), then the belief absorbs the observed choice as a running average.
Symmetric initialization keeps the shared-belief description exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .finite_population import expected_tax_symmetric
from .scenario import ROW_SUM_TOL, _readonly


@dataclass(frozen=True, eq=False)
class SingleStageGame:
    """N players pick one of J parallel routes once; tolls are log-population."""

    travel_cost: np.ndarray
    reference: np.ndarray
    alpha: float
    n_players: int

    def __post_init__(self):
        object.__setattr__(self, "travel_cost", _readonly(self.travel_cost))
        object.__setattr__(self, "reference", _readonly(self.reference))
        if self.travel_cost.ndim != 1 or self.travel_cost.shape != self.reference.shape:
            raise ValueError("travel_cost and reference must be equal-length vectors")
        if self.route_count < 2:
            raise ValueError("need at least two routes")
        if np.any(self.reference <= 0):
            raise ValueError("reference probabilities must be strictly positive")
        if abs(float(self.reference.sum()) - 1.0) > ROW_SUM_TOL:
            raise ValueError(f"reference sums to {self.reference.sum():.17g}, expected 1")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.n_players < 1:
            raise ValueError("n_players must be >= 1")

    @property
    def route_count(self) -> int:
        return self.travel_cost.shape[0]


@dataclass
class BeliefPath:
    """Shared belief per day plus the best responses that produced it.

    ``beliefs[d]`` is the belief held on day d+1; ``choices[d]`` the route
    selected that day (one fewer entry than beliefs once extended).
    """

    beliefs: list[np.ndarray] = field(default_factory=list)
    choices: list[int] = field(default_factory=list)

    @property
    def day(self) -> int:
        return len(self.beliefs)

    @classmethod
    def start(cls, belief: np.ndarray) -> "BeliefPath":
        belief = np.asarray(belief, dtype=np.float64)
        if np.any(belief < 0) or abs(float(belief.sum()) - 1.0) > 1e-9:
            raise ValueError("initial belief must lie in the probability simplex")
        return cls(beliefs=[belief.copy()])


def assumed_cost(game: SingleStageGame, belief: np.ndarray) -> np.ndarray:
    """Per-route cost assuming the other N-1 players each route from ``belief``.

    A stack of beliefs with routes on the last axis gives a stack of costs.
    """
    return game.travel_cost + expected_tax_symmetric(game.n_players, 1.0, belief, game.reference, game.alpha)


def fp_step(game: SingleStageGame, path: BeliefPath) -> BeliefPath:
    """Play one day: best-respond to the current belief, then average it in.

    Ties in the best response break toward the lowest route index.  The
    path is extended in place and returned.
    """
    if not path.beliefs:
        raise ValueError("path must start from an initial belief")
    day = path.day
    belief = path.beliefs[-1]
    choice = int(np.argmin(assumed_cost(game, belief)))
    pulse = np.zeros(game.route_count)
    pulse[choice] = 1.0
    path.choices.append(choice)
    path.beliefs.append((day * belief + pulse) / (day + 1))
    return path


@dataclass(frozen=True, eq=False)
class FictitiousPlayResult:
    path: BeliefPath
    finite_ne: np.ndarray  # unique symmetric equilibrium of the N-player game
    mfe: np.ndarray  # single-stage mean-field equilibrium
    dist_to_finite_ne: np.ndarray  # per-day sup-norm distance of the belief
    dist_to_mfe: np.ndarray


def fp_run(game: SingleStageGame, initial_belief, days: int) -> FictitiousPlayResult:
    """Run fictitious play for ``days`` days with per-day equilibrium distances."""
    if days < 1:
        raise ValueError("days must be >= 1")
    # local import: this module owns the game type the equilibrium solvers consume
    from .symmetric_equilibrium import solve_single_stage_mfe, solve_symmetric_ne

    path = BeliefPath.start(initial_belief)
    for _ in range(days):
        fp_step(game, path)

    finite_ne = solve_symmetric_ne(game).q
    mfe = solve_single_stage_mfe(game)
    beliefs = np.array(path.beliefs)
    dist_ne = np.max(np.abs(beliefs - finite_ne), axis=1)
    dist_mfe = np.max(np.abs(beliefs - mfe), axis=1)
    return FictitiousPlayResult(path, finite_ne, mfe, dist_ne, dist_mfe)
