"""Symmetric fictitious play for the single-stage parallel-route game.

All players share one belief over the route simplex.  Each day every
player best-responds to the assumed cost of each route (travel cost plus
the exact expected toll if the other N-1 players routed i.i.d. from the
belief), then the belief absorbs the observed choice as a running average.
Symmetric initialization keeps the shared-belief description exact.

Route j's belief over the next few days depends only on which of those
days pick j, so the run costs a block of ``_LOOKAHEAD`` days at a time:
each route's beliefs form a binary tree over the block, one toll-kernel
call costs every node, and the days then walk the tree.  Each node is the
day update itself, so every belief and choice is the day-by-day one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .finite_population import _player_count
from .scenario import readonly
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


_LOOKAHEAD = 4  # days costed by one kernel call; the fastest of 2-6 on the route-game workload
_PULSE = np.array([[0.0], [1.0]])  # a route's share of a day's choice: not picked, picked


def _belief_tree(belief: np.ndarray, day: int, levels: int) -> np.ndarray:
    """Every route's possible beliefs over the ``levels`` days after ``belief``, as a heap.

    Row 0 is ``belief``, held on ``day``; row n has children 2n + 1 (route
    not picked that day) and 2n + 2 (picked), so level k holds rows
    2**k - 1 .. 2**(k + 1) - 2.  A child is ``(d * b + x) / (d + 1)``, the
    day update with x in {0.0, 1.0}; the added 0.0 turns a -0.0 belief into 0.0.
    """
    tree = [belief[None]]
    for d in range(day, day + levels):
        tree.append(((d * tree[-1])[:, None] + _PULSE).reshape(-1, len(belief)) / (d + 1))
    return np.concatenate(tree)


def fp_run(game: SingleStageGame, initial_belief, days: int) -> FictitiousPlayResult:
    """Run fictitious play for ``days`` days with per-day equilibrium distances.

    Best responses break ties toward the lowest route index.
    """
    days = _player_count(days, "days")
    initial_belief = np.asarray(initial_belief, dtype=np.float64)
    if initial_belief.shape != (game.route_count,):
        raise ValueError(f"initial belief has {initial_belief.size} entries for {game.route_count} routes")
    if np.any(~(initial_belief >= 0)) or not abs(float(initial_belief.sum()) - 1.0) <= 1e-9:
        raise ValueError("initial belief must lie in the probability simplex")

    routes = range(game.route_count)
    beliefs = np.empty((days + 1, game.route_count))
    beliefs[0] = initial_belief
    choices = np.empty(days, dtype=np.int64)
    for first in range(1, days + 1, _LOOKAHEAD):
        block = min(_LOOKAHEAD, days + 1 - first)
        tree = _belief_tree(beliefs[first - 1], first, block)
        table = assumed_cost(game, tree[: 2**block - 1])
        # a NaN cost, which argmin picks first, needs argmin itself; else the list's first minimum is argmin's pick
        exact = not np.isnan(table.min())
        costs = table.tolist()
        node, visited = [0] * len(routes), []
        for day in range(first, first + block):
            row = [costs[n][j] for j, n in zip(routes, node)]
            choices[day - 1] = choice = row.index(min(row)) if exact else np.argmin(row)
            node = [2 * n + 1 + (j == choice) for j, n in zip(routes, node)]
            visited.append(node)
        beliefs[first : first + block] = tree[visited, routes]

    finite_ne = solve_symmetric_ne(game).q
    mfe = solve_single_stage_mfe(game)
    dist_ne = np.max(np.abs(beliefs - finite_ne), axis=1)
    dist_mfe = np.max(np.abs(beliefs - mfe), axis=1)
    path = BeliefPath(readonly(beliefs), readonly(choices, np.int64))
    return FictitiousPlayResult(path, finite_ne, mfe, dist_ne, dist_mfe)
