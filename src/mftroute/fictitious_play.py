"""Symmetric fictitious play for the single-stage parallel-route game.

All players share one belief over the route simplex.  Each day every
player best-responds to the assumed cost of each route (travel cost plus
the exact expected toll if the other N-1 players routed i.i.d. from the
belief), then the belief absorbs the observed choice as a running average.
Symmetric initialization keeps the shared-belief description exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import _readonly
from .symmetric_equilibrium import SingleStageGame, assumed_cost, solve_single_stage_mfe, solve_symmetric_ne


@dataclass(frozen=True, eq=False)
class BeliefPath:
    """Shared belief per day plus the best responses that produced it, as read-only arrays.

    ``beliefs[d]``, a row of the (days + 1, J) array, is the belief held on
    day d+1; ``choices[d]`` the route selected that day, one entry fewer.
    """

    beliefs: np.ndarray
    choices: np.ndarray


@dataclass(frozen=True, eq=False)
class FictitiousPlayResult:
    path: BeliefPath
    finite_ne: np.ndarray  # unique symmetric equilibrium of the N-player game
    mfe: np.ndarray  # single-stage mean-field equilibrium
    dist_to_finite_ne: np.ndarray  # per-day sup-norm distance of the belief
    dist_to_mfe: np.ndarray


def fp_run(game: SingleStageGame, initial_belief, days: int) -> FictitiousPlayResult:
    """Run fictitious play for ``days`` days with per-day equilibrium distances.

    Best responses break ties toward the lowest route index.
    """
    if days < 1:
        raise ValueError("days must be >= 1")
    initial_belief = np.asarray(initial_belief, dtype=np.float64)
    if initial_belief.shape != (game.route_count,):
        raise ValueError(f"initial belief has {initial_belief.size} entries for {game.route_count} routes")
    if np.any(~(initial_belief >= 0)) or not abs(float(initial_belief.sum()) - 1.0) <= 1e-9:
        raise ValueError("initial belief must lie in the probability simplex")

    pulses = np.eye(game.route_count)
    beliefs = np.empty((days + 1, game.route_count))
    beliefs[0] = initial_belief
    choices = np.empty(days, dtype=np.int64)
    for day in range(1, days + 1):
        choices[day - 1] = choice = assumed_cost(game, beliefs[day - 1]).argmin()
        beliefs[day] = (day * beliefs[day - 1] + pulses[choice]) / (day + 1)

    finite_ne = solve_symmetric_ne(game).q
    mfe = solve_single_stage_mfe(game)
    dist_ne = np.max(np.abs(beliefs - finite_ne), axis=1)
    dist_mfe = np.max(np.abs(beliefs - mfe), axis=1)
    path = BeliefPath(_readonly(beliefs), _readonly(choices, np.int64))
    return FictitiousPlayResult(path, finite_ne, mfe, dist_ne, dist_mfe)
