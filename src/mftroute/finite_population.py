"""Finite-N game machinery: sampled populations, log-population taxes.

The realized tax for a player taking edge (i, j) is
alpha * (log(K_ij / K_i) - log R_ij), where K_i and K_ij count the players
at node i and on edge (i, j).  Conditioning on the player's own
location-action pair makes the other players' counts binomial (symmetric
policies) or Poisson binomial (heterogeneous policies), so the expected
tax has an exact finite-sum form that this module evaluates directly;
Monte Carlo is a cross-check, not the primary path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .kl_solver import PolicyKernel, _check_policy_shape, _dot
from .mean_field import propagate
from .scenario import Scenario, TrafficGraph, readonly, require_valid, stage_slices

GENERATOR_NAME = "pcg64"

# exp() rounds every argument below about -745.13 to exactly 0.0, so a term
# whose log pmf is below _LOG_FLOOR adds nothing to the binomial sum, and the
# window search may drop it.  Up to _WHOLE_SUPPORT players no term is dropped:
# the sums of the route game (N = 2 to 200 in fig4) keep the bits of the
# full-support kernel.  Which terms are summed depends on N and p only, never
# on the other probabilities of a call.
_LOG_FLOOR = -746.0
# Between _LOG_FLOOR and log(DBL_MIN) ~ -708.40, exp() returns a sub-normal
# pmf, and numpy's vectorized exp takes a slow path for each one (a (64, 1024)
# block with 4 % of them: about 750 us against 130 us).  The sum counts such a
# term as 0.0 and never hands it to exp().  Windows, widths and the order of
# the sum stay those of _LOG_FLOOR.  Dropping the terms can change the partial
# sums of numpy's pairwise summation over a window's tail, which are near
# DBL_MIN too, but by amounts far below the ulp of the later, much larger
# additions (a row's sum is at least about 1e-16 / N in size); no bound here
# proves the final bits equal, and the guarantee is the bit-for-bit test
# against the reference that keeps every term down to _LOG_FLOOR
# (tests/test_toll_kernel.py).
_LOG_NORMAL = math.log(np.finfo(np.float64).tiny)
_WHOLE_SUPPORT = 256
# Elements per block of the toll kernel: rows x window in a sum, probabilities
# per window-search block and per block of logs.  A sum block holds its four
# copied window rows and two buffers, 6 x 8 bytes per element, which must stay
# well inside a core's L2: at 2**16 that is 3 MB and spills a 2 MB L2.  Of 2**12
# to 2**16, 2**13 measured fastest on the finite-n benchmark (x86-64, 2 MB L2).
# On the fig2 ladder 2**14 read up to 10 % faster, and 2**12, which pays for
# twice the blocks, 9-26 % slower than 2**14 at N = 1e5.
_CHUNK_FLOATS = 1 << 13

# The largest player, agent, replication or day count: float64 holds every integer up
# to 2**53, so k, N-1-k, a day index and a rollout's float count sums stay exact
MAX_COUNT = 2**53

# expected_tax_gap's floor on an edge's mean-field flow probability
SUPPORT_TOL = 1e-9

# How far the binomial kernel lets a probability pass 1.  A propagated
# node mass carries rounding (1 + 2**-52 on some random scenarios), and a
# policy read from a file may sum to 1 + ROW_SUM_TOL at every stage; such a
# probability counts as 1.  This covers that slack over 1000 stages.
PROB_TOL = 1e-9
# the least positive float64: the kernel entry's zero slice is the values below it
_LEAST_POSITIVE = math.ulp(0.0)
# How far from 1 the sampler lets P_0 sum: numpy's Generator.choice tolerance, sqrt(eps)
_MASS_TOL = math.sqrt(np.finfo(np.float64).eps)


def _player_count(n_players, name: str = "n_players", least: int = 1) -> int:
    """n_players as an int in least..MAX_COUNT; an integral float or numpy integer passes, any other value raises."""
    try:
        integral = math.isfinite(n_players) and n_players == int(n_players)
    except OverflowError:  # an int beyond the float range, which math.isfinite cannot convert
        integral = True
    if not integral:
        raise ValueError(f"{name} must be an integer, got {n_players}")
    if n_players < least:
        raise ValueError(f"{name} must be >= {least}")
    if n_players > MAX_COUNT:
        raise ValueError(f"{name} must be <= 2**53, got {n_players}")
    return int(n_players)


# Cephes lgam from x = 13 on: log(sqrt(2 pi)) and the coefficients, highest power
# first, of its Stirling series in 1/x**2, one for x < 1000 and one from 1000 on
_LOG_SQRT_2PI = 0.91893853320467274178
_STIRLING_BELOW_1000 = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_STIRLING_FROM_1000 = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3, 0.0833333333333333333333)
# log k! for k = 0..11: below x = 13 lgam takes the log of the exact factorial
_SMALL_LOG_FACTORIALS = np.array([math.log(math.factorial(k)) for k in range(12)])


def _horner(p: np.ndarray, coeffs) -> np.ndarray:
    """The polynomial with ``coeffs`` (highest power first) at p, rounded after each step as Cephes polevl does."""
    out = coeffs[0]
    for coeff in coeffs[1:]:
        out = out * p + coeff
    return out


def _log_factorials(k: np.ndarray) -> np.ndarray:
    """log k! for an integer array of k >= 0, as float64 with the bits of SciPy's ``gammaln(k + 1)``.

    At a positive integer x = k + 1, ``gammaln`` is Cephes ``lgam``: the log
    of the exact factorial below 13, Stirling's series from 13 on (no series
    term above 1e8).  This evaluates the same float64 operations in the same
    order.  The logs come from math.log, not np.log, whose vectorized loop
    may differ from libm in the last ulp.
    """
    x = np.asarray(k, dtype=np.float64) + 1.0
    q = (x - 0.5) * np.fromiter(map(math.log, x.tolist()), np.float64, len(x)) - x + _LOG_SQRT_2PI
    p = 1.0 / (x * x)
    series = np.where(x >= 1000, _horner(p, _STIRLING_FROM_1000), _horner(p, _STIRLING_BELOW_1000))
    q = np.where(x > 1e8, q, q + series / x)
    return np.where(x < 13, _SMALL_LOG_FACTORIALS[np.minimum(k, 11)], q)


@lru_cache(maxsize=8)
def _binomial_tables(n_players: int) -> np.ndarray:
    """Read-only (4, N) float64 rows log C(N-1, k), log((k + 1) / N), k and N-1-k for k = 0..N-1.

    log C(N-1, k) has the bits of SciPy's ``gammaln(N) - gammaln(k + 1) -
    gammaln(N - k)``: ``_log_factorials`` matches ``gammaln`` bit for bit, and
    the subtractions keep its order.  tests/test_toll_kernel.py holds both:
    ``test_log_factorials_are_gammaln_bit_for_bit`` and
    ``test_binomial_coefficients_are_the_gammaln_expression_bit_for_bit``.
    """
    n = n_players - 1
    k = np.arange(n + 1)
    log_fact = _log_factorials(k)
    coeffs = log_fact[n] - log_fact - log_fact[n - k]
    log_share = np.log((k + 1.0) / n_players)
    tables = np.array([coeffs, log_share, k, n - k], dtype=np.float64)
    tables.setflags(write=False)
    return tables


def _log_pmf(coeffs, k, rest, log_p, log_q, out=None, work=None) -> np.ndarray:
    """log P(K = k) = log C(N-1, k) + k log p + (N-1-k) log q, given ``rest`` = N-1-k.

    ``out`` and ``work``, buffers of the result's shape, are overwritten
    when given; the result is formed in ``out``.  The window search and the
    sum share it: integer k and float rows of the same values give the same
    bits, those of (coeffs + k log p) + rest log q, since addition commutes.
    """
    out = np.multiply(k, log_p, out=out)
    out += coeffs
    out += np.multiply(rest, log_q, out=work)
    return out


def _windows(coeffs: np.ndarray, probs: np.ndarray, log_p: np.ndarray, log_q: np.ndarray):
    """First k and width of the rectangle of terms summed for each probability.

    It holds the k whose log pmf is at least _LOG_FLOOR, is the least power
    of two that does (at most N) and lies inside the support.  The binomial
    pmf is log-concave in k, so those k form one interval around the mode,
    where the pmf is at least 1/N.  Each end is bisected between the mode
    and a k outside the interval: the support's end, or Hoeffding's bound if
    that is nearer.
    """
    n_players = len(coeffs)
    count = len(probs)
    mode = np.minimum((n_players * probs).astype(np.int64), n_players - 1)
    # P(K = k) <= exp(-2 t^2 / (N-1)) when |k - (N-1)p| >= t, and the mode is
    # within 1 of (N-1)p, so every k at least reach from the mode has t above
    # sqrt(373 (N-1)) + 1 and a log pmf below -746
    reach = math.isqrt(int(-_LOG_FLOOR) * (n_players - 1) // 2) + 3
    # rows [0, count) bisect the first k, rows [count, 2 count) the last: each
    # row keeps log pmf >= floor at good and < floor at bad, and its midpoint
    # rounds toward good
    good = np.concatenate([mode, mode])
    bad = np.concatenate([np.maximum(mode - reach, -1), np.minimum(mode + reach, n_players)])
    toward_good = np.repeat([1, 0], count)
    log_p, log_q = np.concatenate([log_p, log_p]), np.concatenate([log_q, log_q])
    # a bracket at most reach wide closes in this many halvings; a closed one stays put
    for _ in range((reach - 1).bit_length()):
        mid = (good + bad + toward_good) >> 1
        keep = _log_pmf(coeffs[mid], mid, n_players - 1 - mid, log_p, log_q) >= _LOG_FLOOR
        good, bad = np.where(keep, mid, good), np.where(keep, bad, mid)
    first, last = good[:count], good[count:]
    # 2 ** e with last - first < 2 ** e
    width = np.minimum(np.left_shift(1, np.frexp(last - first)[1]), n_players)
    return np.minimum(first, n_players - width), width


def _block_rows(count: int, width: int) -> int:
    """Rows per block of ``count`` rows whose terms, ``width`` per row, fill at most _CHUNK_FLOATS (one row at least)."""
    return max(1, min(count, _CHUNK_FLOATS // width))


def _window_sums(terms: np.ndarray, log_p: np.ndarray, log_q: np.ndarray, buffers: np.ndarray) -> np.ndarray:
    """Per probability, the sum of log((k + 1) / N) P(K = k) over its row of terms.

    ``terms`` holds the four rows of ``_binomial_tables`` over the k summed:
    (4, N) for the whole support, which broadcasts against every
    probability, or (4, probabilities, width) with one window each.
    The log pmf, the pmf and the products are formed in ``buffers``, a
    (2, at least probabilities, width) float64 array it overwrites.  Only
    terms whose log pmf is at least _LOG_NORMAL reach exp(); the rest count
    as 0.0.
    """
    coeffs, log_share, k, rest = terms
    log_pmf, pmf = buffers[:, : len(log_p)]
    _log_pmf(coeffs, k, rest, log_p[:, None], log_q[:, None], log_pmf, pmf)
    pmf.fill(0.0)
    np.exp(log_pmf, out=pmf, where=log_pmf >= _LOG_NORMAL)
    pmf *= log_share
    return pmf.sum(axis=1)


def _logs(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log p and log(1 - p) for probabilities strictly inside (0, 1).

    math.log and math.log1p, not the ufuncs: an ulp of error in log p is
    multiplied by k in the sum.  They map over the Python floats of
    ``.tolist()``, which they take faster than numpy scalars, a block of
    _CHUNK_FLOATS at a time, so no more than a block of those floats is held.
    """
    if len(probs) > _CHUNK_FLOATS:
        blocks = np.split(probs, range(_CHUNK_FLOATS, len(probs), _CHUNK_FLOATS))
        return tuple(map(np.concatenate, zip(*map(_logs, blocks))))
    return (
        np.fromiter(map(math.log, probs.tolist()), np.float64, len(probs)),
        np.fromiter(map(math.log1p, (-probs).tolist()), np.float64, len(probs)),
    )


def _interior_log_shares(n_players: int, probs: np.ndarray) -> np.ndarray:
    """Binomial sums for distinct probabilities strictly inside (0, 1); see ``_interior_sums``."""
    return _interior_sums(n_players, probs, *_logs(probs))


def _interior_sums(n_players: int, probs: np.ndarray, log_p: np.ndarray, log_q: np.ndarray) -> np.ndarray:
    """Binomial sums for distinct probabilities strictly inside (0, 1), given their ``_logs``.

    Up to _WHOLE_SUPPORT players each sum runs over the whole support,
    above it over the rectangle ``_windows`` picks; rows of one width are
    summed together, in blocks of bounded size that share one set of
    buffers per call.
    """
    tables = _binomial_tables(n_players)
    if n_players <= _WHOLE_SUPPORT:
        rows = _block_rows(len(probs), n_players)
        buffers = np.empty((2, rows, n_players))
        if rows == len(probs):
            # one block, as in every call of the route game: its sums are the result
            return _window_sums(tables, log_p, log_q, buffers)
        out = np.empty(len(probs))
        for lo in range(0, len(probs), rows):
            block = slice(lo, lo + rows)
            out[block] = _window_sums(tables, log_p[block], log_q[block], buffers)
        return out
    out = np.empty(len(probs))
    start = np.empty(len(probs), dtype=np.int64)
    width = np.empty(len(probs), dtype=np.int64)
    # in blocks: the search's temporaries are several times the size of its input
    for lo in range(0, len(probs), _CHUNK_FLOATS):
        block = slice(lo, lo + _CHUNK_FLOATS)
        start[block], width[block] = _windows(tables[0], probs[block], log_p[block], log_q[block])
    widths, counts = (values.tolist() for values in np.unique(width, return_counts=True))
    block_rows = [_block_rows(count, w) for w, count in zip(widths, counts)]
    # room for the largest block of any width, and no more: the allocator's cost grows with the size
    buffers = np.empty(2 * max((rows * w for w, rows in zip(widths, block_rows)), default=0))
    for w, rows in zip(widths, block_rows):
        at = np.flatnonzero(width == w)
        blocks = buffers[: 2 * rows * w].reshape(2, rows, w)
        # windows[:, s] holds the four rows at k = s .. s + w - 1; picking whole
        # windows copies rows, which is cheaper than gathering each k by index.
        # It is sliding_window_view(tables, w, axis=1) without that function's
        # checks, which cost about 10 us a call.
        windows = as_strided(tables, (4, n_players - w + 1, w), tables.strides + tables.strides[1:], writeable=False)
        for lo in range(0, len(at), rows):
            block = at[lo : lo + rows]
            # a window as wide as the support is the table itself, which broadcasts with no copy
            terms = tables if w == n_players else windows[:, start[block]]
            out[block] = _window_sums(terms, log_p[block], log_q[block], blocks)
    return out


def _runs(values: np.ndarray) -> np.ndarray:
    """Mask of the sorted ``values`` that differ from the one before them: the first of each run of equal ones."""
    new = np.empty(len(values), dtype=bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return new


def _check_range(distinct: np.ndarray) -> None:
    """Raise unless a sorted set of probabilities lies in [0, 1 + PROB_TOL]; NaN, which sorts last, fails."""
    if len(distinct) and not (distinct[0] >= 0.0 and distinct[-1] <= 1.0 + PROB_TOL):
        raise ValueError("probabilities must lie in [0, 1]")


def _distinct_shares(n_players: int, distinct: np.ndarray, logs=None) -> np.ndarray:
    """Expected log shares of a sorted distinct set of probabilities in [0, 1 + PROB_TOL].

    The set is cut into slices: 0 (and -0.0) takes math.log(1 / N), below
    2**-60 / N the closed form ``_binomial_tables(N)[1, 0]``, the interior
    is summed, and [1, 1 + PROB_TOL] takes 0.0.  ``logs``, arrays aligned
    with the set that hold its ``_logs`` at least over the interior, spare
    taking them again.
    """
    zero, tiny, one = distinct.searchsorted((_LEAST_POSITIVE, 2.0**-60 / n_players, 1.0)).tolist()
    shares = np.zeros(len(distinct))
    if zero:
        shares[:zero] = math.log(1.0 / n_players)
    if tiny > zero:
        shares[zero:tiny] = _binomial_tables(n_players)[1, 0]
    if one > tiny:
        interior = distinct[tiny:one]
        if logs is None:
            shares[tiny:one] = _interior_log_shares(n_players, interior)
        else:
            shares[tiny:one] = _interior_sums(n_players, interior, *(row[tiny:one] for row in logs))
    return shares


def binomial_expected_log_share(n_players: int, prob):
    """E[log((K + 1) / N)] with K ~ Binomial(N - 1, prob).

    This is the expected log share of the population on an event the
    tagged player is already counted in.  A scalar ``prob`` gives a float,
    an array gives an array of its shape.  Repeated probabilities are
    summed once, each over its exact window: the k where the pmf does not
    underflow, or the whole support up to _WHOLE_SUPPORT players.  A
    probability below 0, above 1 + PROB_TOL or NaN raises a ValueError; one
    within PROB_TOL above 1 counts as 1.

    Probability 0 gives math.log(1 / N).  A probability below 2**-60 / N
    gives the closed form log(1 / N) with no sum: its value is the table's
    ``np.log(1 / N)``, ``_binomial_tables(N)[1, 0]``, which the sum returns
    bit for bit there, since P(K = 0) = exp((N - 1) log1p(-p)) rounds to 1
    and the other terms add at most (N - 1) p log N, below half an ulp of
    log N.  The two logs of 1 / N can differ in the last ulp, so p = 0
    keeps its own.
    """
    n_players = _player_count(n_players)
    prob = np.asarray(prob, dtype=np.float64)
    # one sort of a flat copy, and a search back: the route game's calls hold a few
    # probabilities, where a search is cheaper than the inverse index of a _Ladder
    distinct = prob.flatten()
    distinct.sort()
    distinct = distinct[_runs(distinct)]
    _check_range(distinct)
    out = _distinct_shares(n_players, distinct)[distinct.searchsorted(prob)]
    return float(out) if out.ndim == 0 else out


class _Ladder:
    """The distinct probabilities of some tables, sorted once and read back per N.

    ``shares(N)`` gives each table's expected log shares, as
    ``binomial_expected_log_share`` would, bit for bit, for any N up to
    ``most_players``.  The set is sorted and checked once, each table maps
    into it through the inverse index of the sort rather than a search, and
    the logs are taken once, over the slice summed at ``most_players``,
    which holds that of every smaller N; per N only the slices of
    ``_distinct_shares`` move.
    """

    def __init__(self, tables, most_players: int):
        tables = [np.asarray(table, dtype=np.float64) for table in tables]
        values = np.concatenate([table.ravel() for table in tables])
        size = len(values)
        # np.unique(values, return_inverse=True) without its copies of the input, which at
        # 100x100/T200 raised the peak over the solution from about 400 to 680 MB; the exact
        # zeros, half of a flow's entries there, skip the sort and take rank 0
        order = np.flatnonzero(values)
        order = order[values[order].argsort()]
        values = values[order]
        new = _runs(values)
        distinct = values[new]
        _check_range(distinct)
        del values
        zeros = len(order) < size
        self.distinct = np.concatenate([np.zeros(int(zeros)), distinct])
        rank = np.cumsum(new, dtype=np.intp)
        index = np.zeros(size, dtype=np.intp)
        index[order] = rank if zeros else rank - 1
        del order, rank
        bounds = np.cumsum([table.size for table in tables[:-1]], dtype=np.intp)
        self.index = [part.reshape(table.shape) for part, table in zip(np.split(index, bounds), tables)]
        tiny, one = self.distinct.searchsorted((2.0**-60 / most_players, 1.0)).tolist()
        self.logs = np.empty((2, len(self.distinct)))
        self.logs[:, tiny:one] = _logs(self.distinct[tiny:one])

    def shares(self, n_players: int) -> list[np.ndarray]:
        shares = _distinct_shares(n_players, self.distinct, self.logs)
        return [shares[index] for index in self.index]


def _check_probs(probs) -> None:
    """Raise unless every probability lies in [0, 1 + PROB_TOL]; NaN fails."""
    if not np.all((probs >= 0) & (probs <= 1 + PROB_TOL)):
        raise ValueError("probabilities must lie in [0, 1]")


def _taxes(ladder: _Ladder, n_players: int, alpha: float, edge_src=None) -> np.ndarray:
    """alpha (E log share on the edge - E log share at its node), from a ladder of (joint, node) tables.

    The expected tax is this less alpha log ref, which the caller subtracts;
    ``edge_src`` gathers a (T, V) table of node shares onto the edges.
    """
    share_edge, share_node = ladder.shares(n_players)
    if edge_src is not None:
        share_node = np.take(share_node, edge_src, axis=1)
    # alpha * (share_edge - share_node), bit for bit, with fewer (T, E) temporaries
    share_edge -= share_node
    del share_node
    share_edge *= alpha
    return share_edge


def expected_tax_symmetric(n_players: int, node_prob, edge_prob, ref, alpha: float):
    """Exact expected tax on an edge when all other players are exchangeable.

    ``node_prob`` is the probability that any other single player sits at
    the edge's source node; ``edge_prob`` is her conditional probability of
    then taking the edge; ``ref`` is the reference probability of the edge.
    Array arguments broadcast; scalars give a float.  A probability
    outside [0, 1] (beyond PROB_TOL above 1) or NaN, a reference
    probability that is not positive and finite, and an alpha that is not
    finite raise a ValueError.
    """
    node_prob = np.asarray(node_prob, dtype=np.float64)
    edge_prob = np.asarray(edge_prob, dtype=np.float64)
    _check_probs(edge_prob)
    _check_toll(ref, alpha)
    n_players = _player_count(n_players)
    ladder = _Ladder((np.multiply(node_prob, edge_prob), node_prob), n_players)
    tax = _taxes(ladder, n_players, alpha) - np.log(ref) * alpha
    return float(tax) if np.ndim(tax) == 0 else tax


def _check_toll(ref, alpha: float) -> None:
    """Raise unless every reference probability is positive and finite (NaN fails) and alpha is finite."""
    ref = np.asarray(ref, dtype=np.float64)
    bad = ~((ref > 0) & (ref < math.inf))
    if bad.any():
        value = ref[bad][0]
        raise ValueError(f"reference probability must be {'finite' if value > 0 else 'positive'}, got {value}")
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")


def poisson_binomial_pmf(probs) -> np.ndarray:
    """Distribution of a sum of independent non-identical Bernoulli draws.

    O(n^2) convolution recurrence; exact up to float rounding.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if np.any(~((probs >= 0) & (probs <= 1))):
        raise ValueError("probabilities must lie in [0, 1]")
    pmf = np.array([1.0])
    for p in probs:
        pmf = np.convolve(pmf, [1.0 - p, p])
    return pmf


def expected_tax_heterogeneous(
    n_players: int, edge_probs, node_probs, ref: float, alpha: float
) -> float:
    """Exact expected tax when the other N-1 players have individual policies.

    ``edge_probs[m]`` is the probability that other player m takes the
    edge; ``node_probs[m]`` that she sits at its source node.  Both arrays
    have length N-1.
    """
    edge_probs = np.asarray(edge_probs, dtype=np.float64)
    node_probs = np.asarray(node_probs, dtype=np.float64)
    if edge_probs.shape != (n_players - 1,) or node_probs.shape != (n_players - 1,):
        raise ValueError("need one event probability per other player (N - 1 each)")
    _check_toll(ref, alpha)
    log_share = np.log(np.arange(1, n_players + 1) / n_players)
    share_edge = math.fsum(log_share * poisson_binomial_pmf(edge_probs))
    share_node = math.fsum(log_share * poisson_binomial_pmf(node_probs))
    return alpha * (share_edge - share_node) - alpha * math.log(ref)


# ---------------------------------------------------------------------------
# Monte Carlo population sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PopulationSample:
    """One realized N-player rollout as node and edge counts per stage.

    The players are exchangeable, so the counts are all a toll needs; no
    agent's path is kept.  ``SeedSequence(seed, spawn_key=spawn_key)``
    re-derives the stream the rollout drew from, also for a replication
    spawned from a root seed.
    """

    n_agents: int
    node_counts: np.ndarray  # (T+1, V)
    edge_counts: np.ndarray  # (T, E)
    seed: int | tuple[int, ...]  # the root entropy
    spawn_key: tuple[int, ...] = ()

    def __post_init__(self):
        for name in ("node_counts", "edge_counts"):
            object.__setattr__(self, name, readonly(getattr(self, name), np.int64))


def simulate_population(
    scenario: Scenario, policy: PolicyKernel, n_agents: int, seed
) -> PopulationSample:
    """Sample N players: i.i.d. starts from P_0, i.i.d. route draws per stage.

    The players are exchangeable, so only counts are drawn: the starts are
    one multinomial draw over P_0, and at each stage the agents of each
    occupied node, in ascending node order, are one multinomial draw over
    the node's policy row divided by its total, all in one call per stage.
    The rows are read from a sampling table (see _SamplingTable).  A
    positive row need not sum to 1; an occupied node whose row has an entry
    that is not finite and >= 0, or sums to 0, raises a ValueError that
    names it (the lowest such node of the earliest such stage).  P_0 must
    have no negative or NaN entry and sum to 1 within _MASS_TOL, else a
    ValueError is raised before any draw, as it is for an n_agents that is
    not an integer in 1..2**53.
    """
    draw = _sampler(scenario, policy, n_agents)
    return draw(seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed))


def simulate_replications(scenario: Scenario, policy: PolicyKernel, n_agents: int, seed: int, reps: int):
    """Independent replications on substreams spawned from one root seed, drawn in order as they are iterated.

    One sampling table serves every replication: a row built for one
    replication is read by the later ones.  A fault of replication k is
    raised when it is drawn, after replications 0..k-1 are yielded.  A
    ``reps`` that is negative or not an integer, and every check that
    simulate_population makes before its first draw, raise a ValueError at
    the call, also when ``reps`` is 0.
    """
    children = np.random.SeedSequence(seed).spawn(_player_count(reps, "reps", least=0))
    return map(_sampler(scenario, policy, n_agents), children)


def _sampler(scenario: Scenario, policy: PolicyKernel, n_agents: int):
    """The rollout of n_agents under the policy, as a function of its seed sequence; the checks are made here."""
    n_agents = _player_count(n_agents, "n_agents")
    _check_policy_shape(scenario, policy)
    start = _start_probs(scenario.initial.mass)
    return partial(_rollout, _SamplingTable(scenario.graph, policy.probs), start, n_agents)


def _rollout(
    table: _SamplingTable, start: np.ndarray, n_agents: int, seeds: np.random.SeedSequence
) -> PopulationSample:
    """One rollout drawn from the table on the stream of ``seeds``; see simulate_population."""
    rng = np.random.default_rng(seeds)
    graph = table.graph
    t_count, v_count = table.slots.shape
    node_counts = np.zeros((t_count + 1, v_count), dtype=np.int64)
    edge_counts = np.empty((t_count, graph.edge_count), dtype=np.int64)

    node_counts[0, : len(start)] = rng.multinomial(n_agents, start)
    for t in range(t_count):
        occupied = node_counts[t].nonzero()[0]
        rows, edges = table.stage(t, occupied)
        # row k of taken: how many of occupied node k's agents take each edge of edges[k]
        taken = rng.multinomial(node_counts[t, occupied], rows).ravel()
        edges = edges.ravel()
        edge_counts[t] = np.bincount(edges, weights=taken, minlength=graph.edge_count)
        # float sums of integer counts, exact below 2**53
        node_counts[t + 1] = np.bincount(graph.edge_dst[edges], weights=taken, minlength=v_count)

    entropy = int(seeds.entropy) if np.ndim(seeds.entropy) == 0 else tuple(map(int, seeds.entropy))
    return PopulationSample(n_agents, node_counts, edge_counts, entropy, seeds.spawn_key)


def _start_probs(mass: np.ndarray) -> np.ndarray:
    """P_0 divided by its sum and cut after its last positive entry (see _SamplingTable).

    A negative or NaN entry, or a sum farther than _MASS_TOL from 1, raises
    a ValueError.
    """
    bad = np.flatnonzero(~(mass >= 0.0))
    if len(bad):
        i = int(bad[0])
        raise ValueError(f"initial mass {float(mass[i])!r} at node {i}; initial masses must be >= 0")
    total = float(mass.sum())
    # an infinite entry makes the total fail
    if not abs(total - 1.0) <= _MASS_TOL:
        raise ValueError(f"initial mass sums to {total!r}; it must sum to 1 within {_MASS_TOL!r}")
    probs = mass / total
    return probs[: np.flatnonzero(probs)[-1] + 1]


# A graph whose stage holds at most this many row entries (V·D) builds every
# stage's rows in one pass before the first draw (see _SamplingTable): there
# the pass costs less than the fixed numpy overhead of building stage by stage.
# One rollout of 10 or 1000 agents over 30 stages of a square grid took less
# time that way up to V·D ~ 700-1000.
_WHOLE_STAGE_ENTRIES = 1024


class _SamplingTable:
    """One policy's rows as the stage draws take them, each (stage, node) row built once, when first needed.

    Row (t, i) lists node i's edges in order, padded with zeros to D, the
    graph's largest out-degree (at least 1), divided by its total and
    rolled so that its last positive entry ends the row: the zeros after
    that entry, and the padding, come first.  numpy's multinomial gives the
    last column whatever the earlier columns leave over, which rounding
    makes positive now and then, so a zero there could take agents; a zero
    ahead of the first positive entry takes none and draws nothing.  A
    column rolled to the front names an earlier edge, or edge 0, and takes
    no agents.  The totals are summed in sequence along each row, so
    padding does not change them.

    ``rows[t]`` and ``edges[t]`` hold stage t's rows built so far and the
    edge of each column, and ``slots[t, i]`` is the index of row (t, i) in
    them; it is -1 while the row is not built, and -2 if the row has an
    entry that is not finite and >= 0, or a total that is not positive and
    finite.  Such a row raises only when an occupied node would draw from
    it, so nobody need stand at a node to have its row built.  When there
    are several stages and a stage's V·D entries are at most
    _WHOLE_STAGE_ENTRIES, every row of every stage is built at once, in the
    constructor, which costs less than building the stages one by one.
    Otherwise a stage builds the rows of the occupied nodes it has not
    built yet; its first build is in the occupied nodes' order, so the
    rollout that makes it reads the rows as built.  So the table holds at most
    T·V·D floats and as many edge indices, plus the (T, V) int32 slot map;
    on a grid, where nearly every node has D edges, each of the two is
    about one (T, E) table, and rollouts that reach few nodes hold few rows.
    """

    def __init__(self, graph: TrafficGraph, probs: np.ndarray):
        self.graph, self.probs = graph, probs
        self.degrees = graph.row_start[1:] - graph.row_start[:-1]
        self.columns = np.arange(max(int(self.degrees.max(initial=0)), 1))
        t_count, v_count = len(probs), graph.node_count
        self.slots = np.full((t_count, v_count), -1, dtype=np.int32)
        self.rows, self.edges = [None] * t_count, [None] * t_count
        if t_count > 1 and v_count * len(self.columns) <= _WHOLE_STAGE_ENTRIES:
            # rows t·V to t·V + V - 1 are stage t's, in node order
            lo = np.tile(graph.row_start[:-1], t_count)
            starts = lo + np.repeat(np.arange(t_count) * probs.shape[1], v_count)
            rows, edges, good = self._rows(probs.reshape(-1), starts, np.tile(self.degrees, t_count), lo)
            self.rows, self.edges = list(rows.reshape(t_count, v_count, -1)), list(edges.reshape(t_count, v_count, -1))
            self.slots[:] = np.where(good, np.tile(np.arange(v_count), t_count), -2).reshape(t_count, v_count)

    def stage(self, t: int, occupied: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The occupied nodes' (ascending) rows at stage t, cut to their last max(degree) columns, and their edges."""
        if self.rows[t] is None:
            # the stage's first rows are the occupied nodes', in their order
            slots, bad = slice(None), self._extend(t, occupied) is not True
        else:
            slots = self.slots[t, occupied]
            if slots.min() == -1:
                self._extend(t, occupied[slots == -1])
                slots = self.slots[t, occupied]
            bad = slots.min() < 0
        if bad:
            node = int(occupied[np.argmin(self.slots[t, occupied])])
            lo, hi = self.graph.row_start[node : node + 2]
            raise _row_fault(self.graph, self.probs[t, lo:hi], t, node)
        # as many last columns as the widest occupied row fills; the zeros ahead of a row draw nothing
        first = -max(int(self.degrees[occupied].max()), 1)
        return self.rows[t][slots, first:], self.edges[t][slots, first:]

    def _extend(self, t: int, nodes: np.ndarray):
        """Build the rows of the given nodes at stage t and add them to the stage's rows; return _rows's ``good``."""
        lo = self.graph.row_start[nodes]
        rows, edges, good = self._rows(self.probs[t], lo, self.degrees[nodes], lo)
        kept = 0 if self.rows[t] is None else len(self.rows[t])
        if kept:
            rows, edges = np.concatenate((self.rows[t], rows)), np.concatenate((self.edges[t], edges))
        self.rows[t], self.edges[t] = rows, edges
        self.slots[t, nodes] = np.where(good, np.arange(kept, kept + len(nodes)), -2)
        return good

    def _rows(self, source: np.ndarray, starts: np.ndarray, degree: np.ndarray, lo: np.ndarray):
        """The rows of ``degree`` entries at ``starts`` in ``source``, their edges and which of them are good.

        Row k's first edge is lo[k].  A row that is not good is kept, divided
        by 1; nothing reads it.  ``good`` is True when every row is.
        """
        columns = self.columns
        # an edge-less graph reads one zero column: each of its rows sums to 0
        source = source if len(source) else np.zeros(1)
        # past a row's last entry the index reads the next row, or is clipped at the end; padding overwrites it
        rows = source.take(starts[:, None] + columns, mode="clip")
        rows[columns >= degree[:, None]] = 0.0
        # rows nobody draws from may hold anything: their sums must not warn
        with np.errstate(invalid="ignore", over="ignore"):
            totals = rows.cumsum(axis=1)[:, -1]
        # NaN fails every comparison, and an infinite entry makes its total fail
        good = bool(rows.min() >= 0.0 and totals.min() > 0.0 and totals.max() < math.inf)
        if not good:
            good = (rows.min(axis=1) >= 0.0) & (totals > 0.0) & (totals < math.inf)
            totals[~good] = 1.0
        rows /= totals[:, None]
        # the zeros after each row's last positive entry, which a positive total guarantees; the
        # negative columns of order index them from the row's end
        trailing = np.argmax(rows[:, ::-1] > 0.0, axis=1)
        order = columns - trailing[:, None]
        return rows[np.arange(len(rows))[:, None], order], np.maximum(lo[:, None] + order, 0), good


def _row_fault(graph: TrafficGraph, row: np.ndarray, t: int, node: int) -> ValueError:
    """The fault of an occupied node's policy row: its first entry that is not finite and >= 0, else its zero sum."""
    lo = int(graph.row_start[node])
    bad = np.flatnonzero(~(np.isfinite(row) & (row >= 0.0)))
    if len(bad):
        k = int(bad[0])
        return ValueError(
            f"policy has probability {float(row[k])!r} at stage {t}, node {node}, "
            f"edge to {int(graph.edge_dst[lo + k])}; routing probabilities must be finite and >= 0"
        )
    dests = ", ".join(map(str, graph.edge_dst[lo : lo + len(row)].tolist()))
    return ValueError(
        f"policy row at stage {t}, node {node} ({f'edges to {dests}' if dests else 'no edges'}) "
        f"sums to {float(np.sum(row))!r}; "
        "an occupied node's routing probabilities must have a positive finite sum"
    )


def realized_taxes(sample: PopulationSample, scenario: Scenario) -> tuple[np.ndarray, ...]:
    """Tolls on every populated edge as columns (t, node, dest, count, tax), stage by stage.

    Edges no player took have no row.  A sample whose count tables do not
    have the scenario's (T, E) and (T+1, V) shapes raises a ValueError.
    """
    g = scenario.graph
    for name, expect in (
        ("edge_counts", (scenario.horizon, g.edge_count)),
        ("node_counts", (scenario.horizon + 1, g.node_count)),
    ):
        shape = getattr(sample, name).shape
        if shape != expect:
            raise ValueError(f"sample {name} shape {shape}, expected {expect}")
    t, e = np.nonzero(sample.edge_counts)
    node = g.edge_src[e]
    count = sample.edge_counts[t, e]
    share = count / sample.node_counts[t, node]
    # math.log, not the ufunc, which can differ in the last ulp
    log_share = np.fromiter(map(math.log, share.tolist()), np.float64, len(share))
    log_ref = np.fromiter(map(math.log, scenario.reference.probs[t, e].tolist()), np.float64, len(share))
    return t, node, g.edge_dst[e], count, scenario.alpha * (log_share - log_ref)


# ---------------------------------------------------------------------------
# Convergence diagnostics and finite-N best response
# ---------------------------------------------------------------------------

def expected_tax_gap(scenario: Scenario, population_policy: PolicyKernel, n_list) -> dict[int, float]:
    """Per-N worst gap between the exact expected tax and its large-N limit.

    The limit on a supported edge is alpha * log(policy / reference); the
    maximum runs over edges whose mean-field flow probability exceeds
    ``SUPPORT_TOL``.  One ladder of the supported probabilities serves
    every N.  An invalid scenario raises InvalidScenarioError.
    """
    n_list = [_player_count(n) for n in n_list]
    require_valid(scenario)
    flow = propagate(scenario, population_policy)
    # np.take keeps the gather C-ordered like the policy tables; flow[:, edge_src] is Fortran-ordered
    node_probs = np.take(flow.distributions[:-1], scenario.graph.edge_src, axis=1)
    support = node_probs * population_policy.probs > SUPPORT_TOL
    node_probs = node_probs[support]
    edge_probs = population_policy.probs[support]
    _check_probs(edge_probs)
    log_ref = scenario.log_reference(support)
    limits = scenario.alpha * (population_policy.toll_log()[support] - log_ref)
    ladder = _Ladder((node_probs * edge_probs, node_probs), max(n_list, default=1))
    return {n: _worst_gap(_taxes(ladder, n, scenario.alpha) - log_ref * scenario.alpha, limits) for n in n_list}


def _worst_gap(tax: np.ndarray, limits: np.ndarray) -> float:
    """The largest |tax - limit| over the supported edges, 0.0 when there are none."""
    return float(np.max(np.abs(tax - limits), initial=0.0))


def _nash_gap_rows(scenario: Scenario, population_policy: PolicyKernel, flow, n_list) -> list[tuple[float, float]]:
    """Per N, ``expected_tax_gap``'s gap and ``best_response_finite_n``'s epsilon, bit for bit, given the ``flow``."""
    require_valid(scenario)
    runs = _backward_pass(scenario, population_policy, flow, n_list)
    return [runs[n][:2] for n in n_list]


@dataclass(frozen=True, eq=False)
class FiniteBestResponse:
    """Deterministic best response to a symmetric population of N-1 others."""

    policy: PolicyKernel  # point-mass rows on the argmin edges
    epsilon: float  # cost of the symmetric policy minus best-response cost
    state_values: np.ndarray  # (T+1, V) optimal cost-to-go
    symmetric_cost: float  # J(population policy against itself)


def best_response_finite_n(
    scenario: Scenario, population_policy: PolicyKernel, n_players: int
) -> FiniteBestResponse:
    """Solve the tagged player's finite-N control problem exactly.

    The expected taxes induced by the symmetric population are fixed edge
    costs for the tagged player (her own policy cannot move them), so her
    best response is a deterministic finite-horizon shortest path.  The
    returned epsilon = J(symmetric vs symmetric) - best-response cost is
    the suboptimality of staying with the crowd; it is >= 0 up to float
    rounding.  An invalid scenario raises InvalidScenarioError.
    """
    _check_policy_shape(scenario, population_policy)
    n_players = _player_count(n_players)
    require_valid(scenario)
    runs = _backward_pass(scenario, population_policy, propagate(scenario, population_policy), [n_players], True)
    _, epsilon, values, symmetric_cost, edges = runs[n_players]
    probs = np.zeros((scenario.horizon, scenario.graph.edge_count))
    probs[np.arange(scenario.horizon)[:, None], edges] = 1.0
    return FiniteBestResponse(PolicyKernel(probs), epsilon, values, symmetric_cost)


def _backward_pass(scenario: Scenario, population_policy: PolicyKernel, flow, n_list, best_response: bool = False):
    """Per distinct N: the tax gap, epsilon, the (T+1, V) cost-to-go, the symmetric cost and the best edges.

    The stages run from last to first in validate's blocks (``stage_slices``).
    Per block one ladder serves every N; per N the block's tax rows give the
    gap's max over their supported entries, then, with the stage costs
    added, the block's shortest-path step and each stage's symmetric-cost
    sum, added in ascending t at the end.  For the ``best_response`` the
    pass keeps the (T, V) best edges and takes no gap (None); otherwise it
    keeps no edges (None).
    """
    g, alpha, t_count = scenario.graph, scenario.alpha, scenario.horizon
    gaps, sums = {n: [] for n in n_list}, {n: np.empty(t_count) for n in n_list}
    values = {n: np.zeros((t_count + 1, g.node_count)) for n in n_list}
    edges = {n: np.empty((t_count, g.node_count), dtype=np.intp) if best_response else None for n in n_list}
    for rows in reversed(stage_slices(t_count, g.edge_count)):
        _check_probs(population_policy.probs[rows])
        node = flow.distributions[rows]
        joint = np.take(node, g.edge_src, axis=1)
        joint *= population_policy.probs[rows]
        ladder = _Ladder((joint, node), max(n_list))
        log_ref = scenario.log_reference(rows)
        if not best_response:
            support = joint > SUPPORT_TOL
            limits = alpha * (population_policy.toll_log(rows)[support] - log_ref[support])
        costs = np.array([scenario.stage_costs(t) for t in range(t_count)[rows]])
        for n in gaps:
            tax = _taxes(ladder, n, alpha, g.edge_src)
            tax -= log_ref * alpha
            if not best_response:
                gaps[n].append(_worst_gap(tax[support], limits))
            tax += costs
            best = _shortest_path(g, tax, values[n][rows.start : rows.stop + 1])
            if best_response:
                edges[n][rows] = best
            sums[n][rows] = _dot(joint, tax)
    out = {}
    for n in gaps:
        symmetric_cost = reduce(float.__add__, sums[n].tolist(), 0.0)
        epsilon = symmetric_cost - float(_dot(scenario.initial.mass, values[n][0]))
        gap = None if best_response else float(np.max(gaps[n]))
        out[n] = gap, epsilon, values[n], symmetric_cost, edges[n]
    return out


def _shortest_path(graph: TrafficGraph, total_cost: np.ndarray, values: np.ndarray) -> np.ndarray:
    """A block's step of the deterministic finite-horizon shortest path over its (B, E) costs.

    It reads the last of the block's B + 1 cost-to-go rows ``values`` and
    fills the others, and returns each (t, node)'s cheapest edge; ties go
    to the first edge in the node's slice.  Every node needs an out-edge.
    """
    dst, src, starts = graph.edge_dst, graph.edge_src, graph.row_start[:-1]
    edge_ids = np.arange(len(dst))
    best = np.empty((len(total_cost), graph.node_count), dtype=np.intp)
    for t in range(len(total_cost) - 1, -1, -1):
        through = total_cost[t] + values[t + 1][dst]
        lowest = np.minimum.reduceat(through, starts)
        best[t] = np.minimum.reduceat(np.where(through == lowest[src], edge_ids, len(dst)), starts)
        values[t] = through[best[t]]
    return best
