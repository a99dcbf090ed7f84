"""The single-stage route game and its exact symmetric Nash equilibrium.

At a symmetric equilibrium the per-route cost function f_j(q) (travel cost
plus exact expected toll when everyone routes with probability q) is
equalized across used routes and no unused route is cheaper.  Each f_j is
continuous and strictly increasing, so the equilibrium is the unique
solution of sum_j f_j^{-1}(lambda) = 1, found here by nested bisection:
an inner bisection inverts every f_j at once, an outer one pins lambda.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .finite_population import expected_tax_symmetric
from .scenario import ROW_SUM_TOL, _readonly

INNER_TOL = 1e-12  # |f(q) - lambda| target for the per-route inversion
OUTER_TOL = 1e-12  # width target for the lambda bracket
_MAX_BISECT = 200


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
        if not np.all(np.isfinite(self.travel_cost)):
            raise ValueError("travel costs must be finite")
        if np.any(~(self.reference > 0)):
            raise ValueError("reference probabilities must be strictly positive")
        if not abs(float(self.reference.sum()) - 1.0) <= ROW_SUM_TOL:
            raise ValueError(f"reference sums to {self.reference.sum():.17g}, expected 1")
        if not 0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be a positive real, got {self.alpha}")
        if self.n_players < 1:
            raise ValueError("n_players must be >= 1")

    @property
    def route_count(self) -> int:
        return self.travel_cost.shape[0]


def assumed_cost(game: SingleStageGame, belief: np.ndarray) -> np.ndarray:
    """Per-route cost assuming the other N-1 players each route from ``belief``.

    A stack of beliefs with routes on the last axis gives a stack of costs.
    """
    return game.travel_cost + expected_tax_symmetric(game.n_players, 1.0, belief, game.reference, game.alpha)


@dataclass(frozen=True, eq=False)
class EquilibriumResult:
    """Symmetric equilibrium with its multiplier and stationarity residuals.

    ``residuals[j]`` is |f_j(q_j) - lambda| on active routes and
    max(0, lambda - f_j(0)) on inactive ones; both must vanish at an
    equilibrium.
    """

    q: np.ndarray
    lam: float
    residuals: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _readonly(self.q))
        object.__setattr__(self, "residuals", _readonly(self.residuals))


def _route_loads(game: SingleStageGame, lam) -> np.ndarray:
    """Per-route inverse of the cost at each level in ``lam``, clamped to [0, 1].

    The result has shape ``np.shape(lam) + (J,)``.  All inversions bisect
    side by side with one cost evaluation per step; each is frozen once it
    converges, so it follows the midpoints its own bisection would.
    Frozen ones are probed at q = 0, which costs no binomial sum, and
    their brackets are no longer read.
    """
    lam = np.asarray(lam, dtype=np.float64)[..., None]
    at_zero = assumed_cost(game, np.zeros(game.route_count))
    at_one = assumed_cost(game, np.ones(game.route_count))
    loads = np.where(lam <= at_zero, 0.0, 1.0)
    open_ = (lam > at_zero) & (lam < at_one)
    lo, hi = np.zeros(loads.shape), np.ones(loads.shape)
    for _ in range(_MAX_BISECT):
        if not open_.any():
            break
        mid = 0.5 * (lo + hi)
        val = assumed_cost(game, np.where(open_, mid, 0.0))
        done = open_ & ((mid == lo) | (mid == hi) | (np.abs(val - lam) <= INNER_TOL))
        loads[done] = mid[done]
        open_ &= ~done
        below = val < lam
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    loads[open_] = 0.5 * (lo + hi)[open_]
    return loads


def _mass_bracket(game: SingleStageGame, lo: float, hi: float) -> tuple[float, float]:
    """Bisect for the lambdas where the total mass reaches one and where it exceeds one.

    The two bisections run side by side; they probe the same midpoints
    until the mass hits exactly one, so the cost kernel sees each probe once.
    """
    lo, hi = np.full(2, lo), np.full(2, hi)
    open_ = np.ones(2, dtype=bool)
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        open_ &= (mid != lo) & (mid != hi) & (hi - lo > OUTER_TOL)
        if not open_.any():
            break
        mass = _route_loads(game, mid).sum(axis=1)
        above = np.array([mass[0] >= 1.0, mass[1] > 1.0])
        lo, hi = np.where(open_ & ~above, mid, lo), np.where(open_ & above, mid, hi)
    lam_lo, lam_hi = 0.5 * (lo + hi)
    return float(lam_lo), float(lam_hi)


def solve_symmetric_ne(game: SingleStageGame) -> EquilibriumResult:
    """Unique symmetric equilibrium of the N-player single-stage game.

    The total mass sum_j g_j(lambda) is continuous and nondecreasing with
    flat segments at the clamp boundaries; the set where it equals one is
    a (possibly degenerate) interval whose midpoint is returned.  The
    per-route probabilities are identical across that interval.

    With a single player the route costs do not depend on q at all, so the
    solver splits the mass evenly over the cheapest routes (the symmetric
    member of the equilibrium set).
    """
    at_zero = assumed_cost(game, np.zeros(game.route_count))
    if game.n_players == 1:
        lam = float(at_zero.min())
        best = at_zero == lam
        q = best / best.sum()
        residuals = np.where(best, 0.0, np.maximum(0.0, lam - at_zero))
        return EquilibriumResult(q, lam, residuals)

    lo = float(at_zero.min()) - 1.0
    hi = float(assumed_cost(game, np.ones(game.route_count)).max()) + 1.0
    lam_lo, lam_hi = _mass_bracket(game, lo, hi)
    lam_mid = 0.5 * (lam_lo + lam_hi)

    q = _route_loads(game, lam_mid)
    used = q > 0
    at_q = assumed_cost(game, q)
    # report the multiplier that makes the stationarity conditions sharp
    lam = float(at_q[used].max())
    residuals = np.where(used, np.abs(at_q - lam), np.maximum(0.0, lam - at_zero))
    return EquilibriumResult(q, lam, residuals)


def solve_single_stage_mfe(game: SingleStageGame) -> np.ndarray:
    """Single-stage mean-field equilibrium: exponential tilt of the reference."""
    score = np.log(game.reference) - game.travel_cost / game.alpha
    score -= score.max()
    weights = np.exp(score)
    return weights / weights.sum()
