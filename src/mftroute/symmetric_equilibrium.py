"""The single-stage route game and its exact symmetric Nash equilibrium.

At a symmetric equilibrium the per-route cost function f_j(q) (travel cost
plus exact expected toll when everyone routes with probability q) is
equalized across used routes and no unused route is cheaper.  Each f_j is
continuous and strictly increasing, so the equilibrium is the unique
solution of sum_j f_j^{-1}(lambda) = 1.  An outer bisection pins lambda;
at each of its steps an inner bisection per route inverts f_j.

Two things keep one solve to a few dozen kernel calls.  Every inner
bisection probes dyadic midpoints of [0, 1], so a per-solve probe table
holds every f_j at each q asked so far, and only unseen q go to the
kernel, batched.  And an outer step needs only whether the mass
reaches (or exceeds) one: the inner brackets bound each load, so their
sums decide the step, often long before the inversions converge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .finite_population import _player_count, binomial_expected_log_share
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
        object.__setattr__(self, "n_players", _player_count(self.n_players))

    @property
    def route_count(self) -> int:
        return self.travel_cost.shape[0]


def assumed_cost(game: SingleStageGame, belief: np.ndarray) -> np.ndarray:
    """Per-route cost assuming the other N-1 players each route from ``belief``.

    Travel cost plus the toll alpha * (E[log((K + 1) / N)] - log reference)
    with K ~ Binomial(N - 1, belief); the origin holds every player, so its
    share adds nothing.  Beliefs stacked with routes last give stacked costs.
    """
    share = binomial_expected_log_share(game.n_players, belief)
    return game.travel_cost + (game.alpha * share - game.alpha * np.log(game.reference))


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


class _ProbeTable:
    """Every route's cost at each q one solve has probed, as a tuple keyed by q.

    Every inversion starts at [0, 1] and halves, so its probes are dyadic
    midpoints, and the inversion at each new level repeats the prefix
    that earlier levels walked.  Each q goes to the kernel once.
    """

    def __init__(self, game: SingleStageGame):
        self.game = game
        self.at_zero = assumed_cost(game, np.zeros(game.route_count))
        self.at_one = assumed_cost(game, np.ones(game.route_count))
        self.known: dict[float, tuple[float, ...]] = {}

    def fetch(self, qs: list[float]) -> None:
        """Add the route costs at the unseen probabilities ``qs`` in one batched kernel call."""
        costs = assumed_cost(self.game, np.repeat(np.array(qs)[:, None], self.game.route_count, axis=1))
        self.known.update(zip(qs, map(tuple, costs.tolist())))


class _Inversions:
    """Bisections of every route's cost inverse at each level in ``lam``.

    ``lo`` and ``hi``, of shape ``np.shape(lam) + (J,)``, bracket each
    route's load, clamped to [0, 1]; they are equal once the inversion
    has converged or clamped.  Each inversion walks on through the probes
    the table knows and stops at the first it does not.
    """

    def __init__(self, table: _ProbeTable, lam):
        self.table = table
        lam = np.asarray(lam, dtype=np.float64)[..., None]
        loads = np.where(lam <= table.at_zero, 0.0, 1.0)
        open_ = (lam > table.at_zero) & (lam < table.at_one)
        self.shape = loads.shape
        self._lam = np.broadcast_to(lam, loads.shape).ravel().tolist()
        self._route = np.broadcast_to(np.arange(table.game.route_count), loads.shape).ravel().tolist()
        self._lo = np.where(open_, 0.0, loads).ravel().tolist()
        self._hi = np.where(open_, 1.0, loads).ravel().tolist()
        self._depth = [0] * len(self._lo)
        self._walk(range(len(self._lo)))

    @property
    def lo(self) -> np.ndarray:
        return np.array(self._lo).reshape(self.shape)

    @property
    def hi(self) -> np.ndarray:
        return np.array(self._hi).reshape(self.shape)

    def _walk(self, indices) -> None:
        known = self.table.known
        for i in indices:
            route, lam = self._route[i], self._lam[i]
            lo, hi, depth = self._lo[i], self._hi[i], self._depth[i]
            while lo != hi:
                mid = 0.5 * (lo + hi)
                if depth == _MAX_BISECT:  # still open: take the last midpoint
                    lo = hi = mid
                    break
                if mid not in known:
                    break
                val = known[mid][route]
                depth += 1
                if mid == lo or mid == hi or abs(val - lam) <= INNER_TOL:
                    lo = hi = mid
                elif val < lam:
                    lo = mid
                else:
                    hi = mid
            self._lo[i], self._hi[i], self._depth[i] = lo, hi, depth

    def refine(self, levels) -> bool:
        """Probe the next midpoint of every open inversion at the selected levels, then walk on.

        ``levels`` is a mask over ``lam``, or True for all of them.  The
        new probes cost one kernel call; returns False, without one, when
        no selected inversion is open.
        """
        selected = np.broadcast_to(np.asarray(levels)[..., None], self.shape).ravel().tolist()
        open_ = [i for i, lo in enumerate(self._lo) if lo != self._hi[i] and selected[i]]
        if not open_:
            return False
        self.table.fetch(list(dict.fromkeys(0.5 * (self._lo[i] + self._hi[i]) for i in open_)))
        self._walk(open_)
        return True


def _loads(table: _ProbeTable, lam) -> np.ndarray:
    """Every route's load at each level in ``lam``, each inversion run to the end."""
    inversions = _Inversions(table, lam)
    while inversions.refine(True):
        pass
    return inversions.lo


def _mass_bracket(table: _ProbeTable, lo: float, hi: float) -> tuple[float, float]:
    """Bisect for the lambdas where the total mass reaches one and where it exceeds one.

    The two bisections run side by side as the rows of one (2, J) load
    array.  Each route's load lies in its bracket and a float sum in a
    fixed order is monotone, so the row sums of the brackets bound the
    row sum of the loads: the inversions stop as soon as those bounds
    settle both comparisons.
    """
    lo, hi = np.full(2, lo), np.full(2, hi)
    open_ = np.ones(2, dtype=bool)
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        open_ &= (mid != lo) & (mid != hi) & (hi - lo > OUTER_TOL)
        if not open_.any():
            break
        inversions = _Inversions(table, mid)
        while True:
            low, high = inversions.lo.sum(axis=1), inversions.hi.sum(axis=1)
            above = np.array([low[0] >= 1.0, low[1] > 1.0])
            settled = ~open_ | above | np.array([high[0] < 1.0, high[1] <= 1.0])
            if settled.all() or not inversions.refine(~settled):
                break
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
    table = _ProbeTable(game)
    at_zero = table.at_zero
    if game.n_players == 1:
        lam = float(at_zero.min())
        best = at_zero == lam
        q = best / best.sum()
        residuals = np.where(best, 0.0, np.maximum(0.0, lam - at_zero))
        return EquilibriumResult(q, lam, residuals)

    lo = float(at_zero.min()) - 1.0
    hi = float(table.at_one.max()) + 1.0
    lam_lo, lam_hi = _mass_bracket(table, lo, hi)
    lam_mid = 0.5 * (lam_lo + lam_hi)

    q = _loads(table, lam_mid)
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
