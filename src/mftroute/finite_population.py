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
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .kl_solver import PolicyKernel, _check_policy_shape
from .mean_field import propagate
from .scenario import Scenario, TrafficGraph, _readonly

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
# elements per block of the toll kernel: rows x window in a sum, probabilities per search block
_CHUNK_FLOATS = 1 << 16

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
    """n_players as an int; an integral float or numpy integer of at least ``least`` passes, any other value raises."""
    if not (math.isfinite(n_players) and n_players == int(n_players)):
        raise ValueError(f"{name} must be an integer, got {n_players}")
    if n_players < least:
        raise ValueError(f"{name} must be >= {least}")
    return int(n_players)


@lru_cache(maxsize=8)
def _binomial_tables(n_players: int) -> np.ndarray:
    """Read-only (4, N) float64 rows log C(N-1, k), log((k + 1) / N), k and N-1-k for k = 0..N-1."""
    # imported here, not at module level: scipy.special is about half of the
    # package's start-up, and most commands never reach the toll kernel
    from scipy.special import gammaln

    n = n_players - 1
    k = np.arange(n + 1)
    coeffs = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
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


def _interior_log_shares(n_players: int, probs: np.ndarray) -> np.ndarray:
    """Binomial sums for distinct probabilities strictly inside (0, 1).

    Up to _WHOLE_SUPPORT players each sum runs over the whole support,
    above it over the rectangle ``_windows`` picks; rows of one width are
    summed together, in blocks of bounded size that share one set of
    buffers per call.
    """
    tables = _binomial_tables(n_players)
    # math.log, not the ufunc: an ulp of error in log p is multiplied by k below
    log_p = np.fromiter(map(math.log, probs), np.float64, len(probs))
    log_q = np.fromiter(map(math.log1p, -probs), np.float64, len(probs))
    out = np.empty(len(probs))
    if n_players <= _WHOLE_SUPPORT:
        rows = _block_rows(len(probs), n_players)
        buffers = np.empty((2, rows, n_players))
        for lo in range(0, len(probs), rows):
            block = slice(lo, lo + rows)
            out[block] = _window_sums(tables, log_p[block], log_q[block], buffers)
        return out
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
    # one sort of a flat copy, then each value that differs from the one before it; NaN sorts last
    distinct = prob.flatten()
    distinct.sort()
    new = np.empty(len(distinct), dtype=bool)
    new[:1] = True
    np.not_equal(distinct[1:], distinct[:-1], out=new[1:])
    distinct = distinct[new]
    if len(distinct) and not (distinct[0] >= 0.0 and distinct[-1] <= 1.0 + PROB_TOL):
        raise ValueError("probabilities must lie in [0, 1]")
    # the sorted set in slices: 0 (and -0.0), negligible, interior, and 1 up to PROB_TOL, which takes 0.0
    zero, tiny, one = distinct.searchsorted((_LEAST_POSITIVE, 2.0**-60 / n_players, 1.0)).tolist()
    shares = np.zeros(len(distinct))
    if zero:
        shares[:zero] = math.log(1.0 / n_players)
    if tiny > zero:
        shares[zero:tiny] = _binomial_tables(n_players)[1, 0]
    if one > tiny:
        shares[tiny:one] = _interior_log_shares(n_players, distinct[tiny:one])
    out = shares[distinct.searchsorted(prob)]
    return float(out) if out.ndim == 0 else out


def expected_tax_symmetric(n_players: int, node_prob, edge_prob, ref, alpha: float):
    """Exact expected tax on an edge when all other players are exchangeable.

    ``node_prob`` is the probability that any other single player sits at
    the edge's source node; ``edge_prob`` is her conditional probability of
    then taking the edge; ``ref`` is the reference probability of the edge.
    Array arguments broadcast; scalars give a float.  A probability
    outside [0, 1] (beyond PROB_TOL above 1) or NaN, and a reference
    probability that is not positive and finite, raise a ValueError.
    """
    node_prob = np.asarray(node_prob, dtype=np.float64)
    edge_prob = np.asarray(edge_prob, dtype=np.float64)
    # the kernel checks node_prob and the joint probability; only edge_prob is not passed to it
    if not np.all((edge_prob >= 0) & (edge_prob <= 1 + PROB_TOL)):
        raise ValueError("probabilities must lie in [0, 1]")
    _check_reference(ref)
    joint = np.multiply(node_prob, edge_prob)
    pair = np.empty((2,) + joint.shape)
    pair[0], pair[1] = joint, node_prob
    share_edge, share_node = binomial_expected_log_share(n_players, pair)
    tax = alpha * (share_edge - share_node) - alpha * np.log(ref)
    return float(tax) if np.ndim(tax) == 0 else tax


def _check_reference(ref) -> None:
    """Raise unless every reference probability is positive and finite; NaN fails."""
    ref = np.asarray(ref, dtype=np.float64)
    bad = ~((ref > 0) & (ref < math.inf))
    if bad.any():
        value = ref[bad][0]
        raise ValueError(f"reference probability must be {'finite' if value > 0 else 'positive'}, got {value}")


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
    _check_reference(ref)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
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
            object.__setattr__(self, name, _readonly(getattr(self, name), np.int64))


def simulate_population(
    scenario: Scenario, policy: PolicyKernel, n_agents: int, seed
) -> PopulationSample:
    """Sample N players: i.i.d. starts from P_0, i.i.d. route draws per stage.

    The players are exchangeable, so only counts are drawn: the starts are
    one multinomial draw over P_0, and at each stage the agents of each
    occupied node, in ascending node order, are one multinomial draw over
    the node's policy row divided by its total, all in one call per stage.
    A positive row need not sum to 1; an occupied node whose row has an
    entry that is not finite and >= 0, or sums to 0, raises a ValueError
    that names it (the lowest such node of the earliest such stage).  P_0
    must have no negative or NaN entry and sum to 1 within _MASS_TOL, else
    a ValueError is raised before any draw.
    """
    n_agents = _player_count(n_agents, "n_agents")
    _check_policy_shape(scenario, policy)
    start = _start_probs(scenario.initial.mass)
    seeds = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(seeds)
    g = scenario.graph
    t_count = scenario.horizon
    degrees = g.row_start[1:] - g.row_start[:-1]

    node_counts = np.zeros((t_count + 1, g.node_count), dtype=np.int64)
    edge_counts = np.empty((t_count, g.edge_count), dtype=np.int64)

    node_counts[0, : len(start)] = rng.multinomial(n_agents, start)
    for t in range(t_count):
        occupied = node_counts[t].nonzero()[0]
        rows, edges = _policy_rows(g, policy.probs[t], t, occupied, degrees[occupied])
        # row k of taken: how many of occupied node k's agents take each edge of edges[k]
        taken = rng.multinomial(node_counts[t, occupied], rows).ravel()
        edges = edges.ravel()
        edge_counts[t] = np.bincount(edges, weights=taken, minlength=g.edge_count)
        # float sums of integer counts, exact below 2**53
        node_counts[t + 1] = np.bincount(g.edge_dst[edges], weights=taken, minlength=g.node_count)

    entropy = int(seeds.entropy) if np.ndim(seeds.entropy) == 0 else tuple(map(int, seeds.entropy))
    return PopulationSample(n_agents, node_counts, edge_counts, entropy, seeds.spawn_key)


def _start_probs(mass: np.ndarray) -> np.ndarray:
    """P_0 divided by its sum and cut after its last positive entry (see _policy_rows).

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


def _policy_rows(graph: TrafficGraph, probs: np.ndarray, t: int, occupied: np.ndarray, degree: np.ndarray):
    """The occupied nodes' policy rows, each divided by its total, and the edges of their columns.

    ``degree`` holds the occupied nodes' degrees.  Row k lists occupied
    node k's edges in order, rolled so that its last positive entry ends
    the row; the zeros after that entry, and the padding past the node's
    degree, come first.  numpy's multinomial gives the last column whatever
    the earlier columns leave over, which rounding makes positive now and
    then, so a zero there could take agents; a zero ahead of the first
    positive entry takes none and draws nothing.  A column rolled to the
    front names an earlier edge, or edge 0, and takes no agents.  The
    totals are summed in sequence along each row, so padding does not
    change them.
    """
    lo = graph.row_start[occupied]
    # at least one column: an occupied node without edges has a zero total
    columns = np.arange(max(int(degree.max()), 1))
    rows = probs.take(lo[:, None] + columns, mode="clip")
    rows[columns >= degree[:, None]] = 0.0
    totals = rows.cumsum(axis=1)[:, -1]
    # NaN fails every comparison, and an infinite entry makes its total fail
    if not (rows.min() >= 0.0 and totals.min() > 0.0 and totals.max() < math.inf):
        good = (rows.min(axis=1) >= 0.0) & (totals > 0.0) & (totals < math.inf)
        k = int(np.argmin(good))
        raise _row_fault(graph, probs[lo[k] : lo[k] + degree[k]], t, int(occupied[k]))
    rows /= totals[:, None]
    # the zeros after each row's last positive entry, which a positive total guarantees; the
    # negative columns of order index them from the row's end
    trailing = np.argmax(rows[:, ::-1] > 0.0, axis=1)
    order = columns - trailing[:, None]
    return rows[np.arange(len(rows))[:, None], order], np.maximum(lo[:, None] + order, 0)


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


def simulate_replications(scenario: Scenario, policy: PolicyKernel, n_agents: int, seed: int, reps: int):
    """Independent replications on substreams spawned from one root seed, drawn as they are iterated.

    A ``reps`` that is negative or not an integer raises a ValueError at the call.
    """
    children = np.random.SeedSequence(seed).spawn(_player_count(reps, "reps", least=0))
    return (simulate_population(scenario, policy, n_agents, child) for child in children)


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
    ``SUPPORT_TOL``.
    """
    flow = propagate(scenario, population_policy)
    # np.take keeps the gather C-ordered like the policy tables; flow[:, edge_src] is Fortran-ordered
    node_probs = np.take(flow.distributions[:-1], scenario.graph.edge_src, axis=1)
    support = node_probs * population_policy.probs > SUPPORT_TOL
    node_probs = node_probs[support]
    edge_probs = population_policy.probs[support]
    ref = scenario.reference.probs[support]
    limits = scenario.alpha * (population_policy.toll_log()[support] - np.log(ref))

    table: dict[int, float] = {}
    for n in map(_player_count, n_list):
        tax = expected_tax_symmetric(n, node_probs, edge_probs, ref, scenario.alpha)
        table[n] = float(np.max(np.abs(tax - limits), initial=0.0))
    return table


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
    rounding.
    """
    _check_policy_shape(scenario, population_policy)
    flow = propagate(scenario, population_policy)
    node_probs = np.take(flow.distributions[:-1], scenario.graph.edge_src, axis=1)
    total_cost = expected_tax_symmetric(
        n_players, node_probs, population_policy.probs, scenario.reference.probs, scenario.alpha
    )
    for t in range(scenario.horizon):
        np.add(scenario.stage_costs(t), total_cost[t], out=total_cost[t])
    probs, values = _shortest_path(scenario.graph, total_cost)

    edge_flow = node_probs * population_policy.probs
    symmetric_cost = 0.0
    for t in range(scenario.horizon):
        symmetric_cost += float(edge_flow[t] @ total_cost[t])
    best_cost = float(scenario.initial.mass @ values[0])
    return FiniteBestResponse(PolicyKernel(probs), symmetric_cost - best_cost, values, symmetric_cost)


def _shortest_path(graph: TrafficGraph, total_cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic finite-horizon shortest path over per-(t, edge) costs.

    Returns point-mass rows on each node's cheapest edge (ties go to the
    first edge in the node's slice) and the (T+1, V) cost-to-go.
    """
    degrees = np.diff(graph.row_start)
    if not np.all(degrees > 0):
        raise ValueError(f"node {int(np.argmin(degrees))} has no out-edges")
    t_count, e_count = total_cost.shape
    starts = graph.row_start[:-1]
    edge_ids = np.arange(e_count)
    values = np.zeros((t_count + 1, graph.node_count))
    probs = np.zeros((t_count, e_count))
    for t in range(t_count - 1, -1, -1):
        through = total_cost[t] + values[t + 1][graph.edge_dst]
        lowest = np.minimum.reduceat(through, starts)
        best = np.minimum.reduceat(np.where(through == lowest[graph.edge_src], edge_ids, e_count), starts)
        values[t] = through[best]
        probs[t, best] = 1.0
    return probs, values
