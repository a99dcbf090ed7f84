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

from .symmetric_equilibrium import SingleStageGame, assumed_cost, solve_single_stage_mfe, solve_symmetric_ne


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
        if np.any(~(belief >= 0)) or not abs(float(belief.sum()) - 1.0) <= 1e-9:
            raise ValueError("initial belief must lie in the probability simplex")
        return cls(beliefs=[belief.copy()])


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
    initial_belief = np.asarray(initial_belief, dtype=np.float64)
    if initial_belief.shape != (game.route_count,):
        raise ValueError(f"initial belief has {initial_belief.size} entries for {game.route_count} routes")
    path = BeliefPath.start(initial_belief)
    for _ in range(days):
        fp_step(game, path)

    finite_ne = solve_symmetric_ne(game).q
    mfe = solve_single_stage_mfe(game)
    beliefs = np.array(path.beliefs)
    dist_ne = np.max(np.abs(beliefs - finite_ne), axis=1)
    dist_mfe = np.max(np.abs(beliefs - mfe), axis=1)
    return FictitiousPlayResult(path, finite_ne, mfe, dist_ne, dist_mfe)
