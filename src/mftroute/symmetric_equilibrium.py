"""The single-stage route game and its exact symmetric Nash equilibrium.

At a symmetric equilibrium the per-route cost function f_j(q) (travel cost
plus exact expected toll when everyone routes with probability q) is
equalized across used routes and no unused route is cheaper.  Each f_j is
continuous and strictly increasing, so the equilibrium is the unique
solution of sum_j f_j^{-1}(lambda) = 1.

Two bisections on lambda run in turn, for where the total mass reaches
one and where it exceeds one.  Each of their steps brackets every
f_j^{-1}(lambda) by bisection over dyadic midpoints of [0, 1].  A per-solve
memo holds every f_j at each q probed so far, so only unseen q go to the
kernel, batched, and a step stops once the sums of the brackets decide it.
A kernel call probes each open bracket's midpoint and the two midpoints
below it.  Each route's walk resumes from the deepest bracket that every
lambda left in the bisection's interval passes through.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .finite_population import _player_count, binomial_expected_log_share
from .scenario import ROW_SUM_TOL, readonly

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
    reference_toll: np.ndarray = field(init=False, repr=False)  # alpha * log(reference), the toll's constant part

    def __post_init__(self):
        # own copies (J floats each): the checks below and reference_toll must
        # stay true of the arrays the game reads
        object.__setattr__(self, "travel_cost", readonly(np.array(self.travel_cost, dtype=np.float64)))
        object.__setattr__(self, "reference", readonly(np.array(self.reference, dtype=np.float64)))
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
        object.__setattr__(self, "reference_toll", readonly(self.alpha * np.log(self.reference)))

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
    return game.travel_cost + (game.alpha * share - game.reference_toll)


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
        object.__setattr__(self, "q", readonly(self.q))
        object.__setattr__(self, "residuals", readonly(self.residuals))


def _start(lam: float, at_zero: float, at_one: float) -> tuple:
    """A route's first bracket (lo, hi, steps) at level ``lam``: [0, 1], or closed where lam clamps it."""
    hi = float(lam > at_zero)
    return (hi if lam >= at_one else 0.0), hi, 0


def _step(a: float, b: float, mid: float, val: float, lam: float) -> tuple:
    """The bracket after [a, b] at level ``lam``, given the route's cost ``val`` at its midpoint."""
    if mid == a or mid == b or abs(val - lam) <= INNER_TOL:
        return mid, mid
    return (mid, b) if val < lam else (a, mid)


def _brackets(game: SingleStageGame, memo: dict, lam: float, settled=None, shared=None) -> tuple[list, list]:
    """Bracket every route's load at level ``lam`` by bisecting the inverse of its cost.

    ``memo`` maps each probed q, 0 and 1 among them, to every route's cost
    there.  Each bracket starts from the route's node in ``shared``, a
    (lo, hi, steps) that the walk at ``lam`` passes through, or else at
    [0, 1], closed where lam clamps it, and walks through the probes in the
    memo.  Returns ``(lo, hi)`` once every bracket is closed (lo == hi) or
    ``settled(lo, hi)`` holds; until then the unseen midpoints of the open
    brackets and of their two halves go to the kernel in one call, and the
    walks go on.
    """
    nodes = zip(shared or [None] * len(memo[0.0]), memo[0.0], memo[1.0])
    lo, hi, depth = map(list, zip(*(node or _start(lam, *ends) for node, *ends in nodes)))
    walking = range(len(lo))
    probed = memo.get
    while True:
        for j in walking:
            a, b, steps = lo[j], hi[j], depth[j]
            while a != b:
                mid = 0.5 * (a + b)
                if steps == _MAX_BISECT:  # still open: take the next midpoint
                    a = b = mid
                    break
                row = probed(mid)  # every route's cost at mid, or None if mid is not probed yet
                if row is None:
                    break
                steps += 1
                a, b = _step(a, b, mid, row[j], lam)
            lo[j], hi[j], depth[j] = a, b, steps
        walking = [j for j in walking if lo[j] != hi[j]]
        if not walking or (settled is not None and settled(lo, hi)):
            return lo, hi
        mids = [0.5 * (lo[j] + hi[j]) for j in walking]
        halves = (0.5 * (end + mid) for j, mid in zip(walking, mids) for end in (lo[j], hi[j]))
        # the memo is a function of q alone: probing a half the walk never reaches changes no walk
        qs = [q for q in dict.fromkeys(chain(mids, halves)) if q not in memo]
        # a share depends on q alone: one probe per q, a column that broadcasts over the routes
        costs = assumed_cost(game, np.array(qs)[:, None])
        memo.update(zip(qs, map(tuple, costs.tolist())))


def _shared(memo: dict, nodes: list, lo: float, hi: float) -> list:
    """Per route, the deepest (a, b, steps) that the walk at every level in [lo, hi] passes through.

    Each route descends from its node in ``nodes`` (None: the start) through
    the memo while both ends of the interval take the same branch; the walk
    is monotone in the level, so then every level between them does too.
    A route whose start differs at the two ends gets None.
    """
    out = []
    for j, node in enumerate(nodes):
        if node is None:
            node = _start(lo, memo[0.0][j], memo[1.0][j])
            if node != _start(hi, memo[0.0][j], memo[1.0][j]):
                out.append(None)
                continue
        a, b, steps = node
        while a != b:
            mid = 0.5 * (a + b)
            if steps == _MAX_BISECT:
                a = b = mid
                break
            row = memo.get(mid)
            if row is None:
                break
            low = _step(a, b, mid, row[j], lo)
            if low != _step(a, b, mid, row[j], hi):
                break
            a, b = low
            steps += 1
        out.append((a, b, steps))
    return out


def _pairwise_sum(values: list) -> float:
    """``np.sum`` of a list of floats as a float64 vector, bit for bit, with no array.

    numpy 2 sums a contiguous float64 vector pairwise: in order below 8
    entries, with 8 accumulators up to 128, and above that by halves, the
    first rounded down to a multiple of 8.  The loops add one float at a
    time, as numpy does; Python's ``sum`` compensates float sums from 3.12 on.
    """
    count = len(values)
    if count < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if count > 128:
        half = count // 2 - count // 2 % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    acc = values[:8]
    end = count - count % 8
    for i in range(8, end, 8):
        for j in range(8):
            acc[j] += values[i + j]
    # numpy adds the pairwise sum to the reduction's start, 0.0, which turns -0.0 into 0.0
    total = 0.0 + (((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7])))
    for value in values[end:]:
        total += value
    return total


def _threshold(game: SingleStageGame, memo: dict, lo: float, hi: float, reaches) -> float:
    """Bisect [lo, hi] for the lambda where the total mass starts to satisfy ``reaches(mass, 1.0)``.

    Each load lies in its bracket and a float sum in a fixed order is
    monotone, so the bracket sums bound the mass: a step stops as soon as
    they settle the comparison.  Each step's walks resume from the nodes
    that every level left in [lo, hi] passes through.
    """

    def settled(low, high) -> bool:
        return reaches(_pairwise_sum(low), 1.0) or not reaches(_pairwise_sum(high), 1.0)

    nodes = [None] * game.route_count
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi or not hi - lo > OUTER_TOL:
            break
        low, _ = _brackets(game, memo, mid, settled, nodes)
        lo, hi = (lo, mid) if reaches(_pairwise_sum(low), 1.0) else (mid, hi)
        nodes = _shared(memo, nodes, lo, hi)
    return 0.5 * (lo + hi)


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

    at_one = assumed_cost(game, np.ones(game.route_count))
    memo = {0.0: tuple(at_zero.tolist()), 1.0: tuple(at_one.tolist())}
    lo, hi = float(at_zero.min()) - 1.0, float(at_one.max()) + 1.0
    # mass >= 1, then mass > 1: the second bisection walks the first's probes until its path leaves them
    lam_lo, lam_hi = (_threshold(game, memo, lo, hi, reaches) for reaches in (operator.ge, operator.gt))
    lam_mid = 0.5 * (lam_lo + lam_hi)

    q = np.array(_brackets(game, memo, lam_mid)[0])
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
