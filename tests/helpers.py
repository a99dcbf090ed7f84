"""Independent oracles and shared generators for the test suite.

Everything here recomputes expected values through a different route than
the package: naive linear-domain recursions, exhaustive grid search,
exact rational/decimal arithmetic, plain Python loops, breadth-first
search.  Oracles must stay independent of the code paths they check.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from functools import reduce
from typing import NamedTuple
from pathlib import Path
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from mftroute import (
    Distribution,
    PolicyKernel,
    PopulationSample,
    ReferencePolicy,
    Scenario,
    SingleStageGame,
    StageCosts,
    TrafficGraph,
    Violation,
    ZeroSupportError,
    assumed_cost,
    expected_tax_symmetric,
    propagate,
    solve_single_stage_mfe,
    solve_symmetric_ne,
)
from mftroute.cli import OBSTACLE_SENTINEL
from mftroute.fictitious_play import BeliefPath, FictitiousPlayResult
from mftroute.finite_population import SUPPORT_TOL, _WHOLE_SUPPORT, FiniteBestResponse, _Ladder, _row_fault, _taxes
from mftroute.kl_solver import _dot
from mftroute.scenario import ROW_SUM_TOL, ScenarioFormatError, bad_row_sums
from mftroute.symmetric_equilibrium import _MAX_BISECT, INNER_TOL, OUTER_TOL, EquilibriumResult


def edge_slice(graph: TrafficGraph, node: int) -> slice:
    """The node's out-edges, one contiguous run of the flat CSR edge order."""
    return slice(int(graph.row_start[node]), int(graph.row_start[node + 1]))


def out_neighbors(graph: TrafficGraph) -> tuple[tuple[int, ...], ...]:
    """Each node's out-neighbors in edge order, read off the CSR arrays."""
    return tuple(tuple(graph.edge_dst[edge_slice(graph, i)].tolist()) for i in range(graph.node_count))


def csr_loop(rows) -> tuple[list[int], list[int]]:
    """(row_start, edge_dst) of each node's neighbor row, one edge at a time."""
    row_start, edge_dst = [0], []
    for row in rows:
        for j in row:
            edge_dst.append(j)
        row_start.append(len(edge_dst))
    return row_start, edge_dst


def gridworld_neighbors_loop(width: int, height: int) -> list[tuple[int, ...]]:
    """Each cell's stay, north, east, south and west neighbors on the grid, one cell at a time."""
    neighbors = []
    for y in range(height):
        for x in range(width):
            row = [y * width + x]
            for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0)):  # north, east, south, west
                nx, ny = x + dx, y + dy
                if 0 <= nx < width and 0 <= ny < height:
                    row.append(ny * width + nx)
            neighbors.append(tuple(row))
    return neighbors


def folded_costs(scenario: Scenario) -> np.ndarray:
    """Effective (T, E) costs: a copy of the stage table with the terminal cost folded into stage T-1."""
    folded = scenario.costs.stage.copy()
    if scenario.costs.terminal is not None:
        folded[-1] += scenario.costs.terminal[scenario.graph.edge_dst]
    return folded


def random_scenario(
    rng: np.random.Generator,
    max_nodes: int = 10,
    max_horizon: int = 10,
    cost_bound: float = 5.0,
    alpha_range: tuple[float, float] = (0.1, 10.0),
    point_mass_start: bool = False,
    max_degree: int = 4,
) -> Scenario:
    """Random valid scenario within the randomized-fixture parameter box."""
    node_count = int(rng.integers(2, max_nodes + 1))
    horizon = int(rng.integers(1, max_horizon + 1))
    neigh = []
    for _ in range(node_count):
        deg = int(rng.integers(1, min(max_degree, node_count) + 1))
        neigh.append(tuple(sorted(rng.choice(node_count, size=deg, replace=False).tolist())))
    graph = TrafficGraph.from_neighbors(tuple(neigh))

    costs = StageCosts(horizon, rng.uniform(-cost_bound, cost_bound, size=(horizon, graph.edge_count)))
    probs = np.empty((horizon, graph.edge_count))
    for t in range(horizon):
        for i in range(node_count):
            sl = edge_slice(graph, i)
            deg = sl.stop - sl.start
            row = 0.9 * rng.dirichlet(np.ones(deg)) + 0.1 / deg
            probs[t, sl] = row / row.sum()
    if point_mass_start:
        initial = Distribution.point_mass(node_count, int(rng.integers(node_count)))
    else:
        initial = Distribution(rng.dirichlet(np.ones(node_count)))
    alpha = float(np.exp(rng.uniform(math.log(alpha_range[0]), math.log(alpha_range[1]))))
    return Scenario(graph, costs, ReferencePolicy(probs), alpha, initial)


def random_game(rng: np.random.Generator, max_players: int = 400) -> SingleStageGame:
    """Random parallel-route game: 2-6 routes, 2..max_players-1 players."""
    routes = int(rng.integers(2, 7))
    costs = rng.uniform(-3.0, 3.0, size=routes)
    reference = 0.9 * rng.dirichlet(np.ones(routes)) + 0.1 / routes
    reference = reference / reference.sum()
    alpha = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
    n_players = int(rng.integers(2, max_players))
    return SingleStageGame(costs, reference, alpha, n_players)


def backward_pass_linear(scenario: Scenario) -> np.ndarray:
    """Naive linear-domain desirability recursion (plain loops, no LSE)."""
    g = scenario.graph
    t_count = scenario.horizon
    costs = folded_costs(scenario)
    neighbors = out_neighbors(g)
    phi = np.ones((t_count + 1, g.node_count))
    for t in range(t_count - 1, -1, -1):
        for i in range(g.node_count):
            total = 0.0
            for k, j in enumerate(neighbors[i]):
                e = g.row_start[i] + k
                total += (
                    scenario.reference.probs[t, e]
                    * math.exp(-costs[t, e] / scenario.alpha)
                    * phi[t + 1, j]
                )
            phi[t, i] = total
    return phi


def cost_plain_loop(scenario: Scenario, policy: PolicyKernel, population: PolicyKernel) -> float:
    """Deviation cost by direct summation with Python loops and dict state."""
    g = scenario.graph
    costs = folded_costs(scenario)
    neighbors = out_neighbors(g)
    mass = {i: float(scenario.initial.mass[i]) for i in range(g.node_count)}
    total = 0.0
    for t in range(scenario.horizon):
        nxt: dict[int, float] = {i: 0.0 for i in range(g.node_count)}
        for i in range(g.node_count):
            for k, j in enumerate(neighbors[i]):
                e = g.row_start[i] + k
                flow = mass[i] * float(policy.probs[t, e])
                if flow > 0.0:
                    toll = scenario.alpha * (
                        math.log(float(population.probs[t, e]))
                        - math.log(float(scenario.reference.probs[t, e]))
                    )
                    total += flow * (float(costs[t, e]) + toll)
                nxt[j] += flow
        mass = nxt
    return total


def evaluate_policy_cost_table_log(
    scenario: Scenario, policy: PolicyKernel, population: PolicyKernel
) -> float:
    """Deviation cost as ``evaluate_policy_cost`` computed it from the log of the whole reference table."""
    g = scenario.graph
    toll_log = population.toll_log()
    log_ref = np.log(scenario.reference.probs)
    costs = folded_costs(scenario)
    dists = propagate(scenario, policy).distributions
    total = 0.0
    for t in range(scenario.horizon):
        edge_flow = dists[t][g.edge_src] * policy.probs[t]
        used = edge_flow > 0
        stage_cost = costs[t] + scenario.alpha * (toll_log[t] - log_ref[t])
        total += float(np.add.reduce(edge_flow * np.where(used, stage_cost, 0.0)))
    return total


def evaluate_policy_cost_per_trial(
    scenario: Scenario, policy: PolicyKernel, population: PolicyKernel
) -> float:
    """Deviation cost of one trial: its whole flow from ``propagate``, then a second walk over the stages.

    The reference for the one-pass kernel behind ``evaluate_policy_cost``
    and ``equalizer_gap``: the same float operations in the same order,
    the population's toll row rebuilt for every trial.
    """
    g = scenario.graph
    toll_log = population.toll_log()
    dists = propagate(scenario, policy).distributions
    total = 0.0
    for t in range(scenario.horizon):
        edge_flow = dists[t][g.edge_src] * policy.probs[t]
        used = edge_flow > 0
        dead = used & np.isneginf(toll_log[t])
        if np.any(dead):
            e = int(np.flatnonzero(dead)[0])
            raise ZeroSupportError(t, int(g.edge_src[e]), int(g.edge_dst[e]))
        log_ref = np.log(scenario.reference.probs[t])
        stage_cost = scenario.stage_costs(t) + scenario.alpha * (toll_log[t] - log_ref)
        total += float(np.add.reduce(edge_flow * np.where(used, stage_cost, 0.0)))
    return total


def equalizer_gap_per_trial(scenario: Scenario, population: PolicyKernel, trials, v0: float) -> float:
    """Max |cost - v0| over the trials, evaluated one trial after another."""
    gap = 0.0
    for trial in trials:
        gap = max(gap, abs(evaluate_policy_cost_per_trial(scenario, trial, population) - v0))
    return gap


def deviation_costs_stage_log(scenario: Scenario, trials, population: PolicyKernel) -> list[float]:
    """Each trial's deviation cost as the one-pass kernel formed it with a log of the reference at every stage.

    The reference for ``mean_field._deviation_costs`` over stored rows:
    two (K, E) masks (the used and the dead edges) at every stage, the
    (K, V) to (K, E) gather through ``np.take``, and the lowest failed
    trial's fault raised after the pass.
    """
    g = scenario.graph
    k_count, v = len(trials), g.node_count
    toll_log = population.toll_log()
    bins = (np.arange(k_count)[:, None] * v + g.edge_dst).ravel()
    dists = np.tile(scenario.initial.mass, (k_count, 1))
    edge_flow = np.empty((k_count, g.edge_count))
    totals = np.zeros(k_count)
    faults: dict[int, ValueError] = {}
    for t in range(scenario.horizon):
        for row, trial in zip(edge_flow, trials):
            row[:] = trial.probs[t]
        failed = ~((edge_flow >= 0) & (edge_flow < np.inf)).all(axis=1)
        with np.errstate(invalid="ignore"):
            edge_flow *= np.take(dists, g.edge_src, axis=1)
        used = edge_flow > 0
        dead = used & np.isneginf(toll_log[t])
        for k in np.flatnonzero(failed | dead.any(axis=1)).tolist():
            if k in faults:
                continue
            probs = trials[k].probs[t]
            bad = ~(np.isfinite(probs) & (probs >= 0))
            e = int(np.flatnonzero(bad if bad.any() else dead[k])[0])
            node, dest = int(g.edge_src[e]), int(g.edge_dst[e])
            faults[k] = (
                ValueError(
                    f"trial policy {k} has probability {float(probs[e])!r} at stage {t}, node {node}, "
                    f"edge to {dest}; routing probabilities must be finite and >= 0"
                )
                if bad.any()
                else ZeroSupportError(t, node, dest)
            )
        if 0 in faults:
            break
        log_ref = np.log(scenario.reference.probs[t])
        stage_cost = scenario.stage_costs(t) + scenario.alpha * (toll_log[t] - log_ref)
        if not np.isfinite(stage_cost).all():
            stage_cost = np.where(used, stage_cost, 0.0)
        with np.errstate(invalid="ignore"):
            totals += np.add.reduce(edge_flow * stage_cost, axis=-1)
        dists = np.bincount(bins, weights=edge_flow.ravel(), minlength=k_count * v).reshape(k_count, v)
    if faults:
        raise faults[min(faults)]
    return totals.tolist()


def random_policy_one_shot(scenario: Scenario, rng: np.random.Generator) -> PolicyKernel:
    """``random_policy``'s draws normalized in one whole-table division by their (T, V) node sums."""
    g = scenario.graph
    draws = rng.standard_exponential((scenario.horizon, g.edge_count))
    row_sums = np.add.reduceat(draws, g.row_start[:-1], axis=1)
    return PolicyKernel(draws / row_sums[:, g.edge_src])


def expected_tax_gap_table_log(
    scenario: Scenario, policy: PolicyKernel, n_list, support_tol: float = 1e-9
) -> dict:
    """Per-N gaps as ``expected_tax_gap`` computed them from the log of the whole reference table."""
    node_probs = propagate(scenario, policy).distributions[:-1, scenario.graph.edge_src]
    support = node_probs * policy.probs > support_tol
    limits = scenario.alpha * (policy.toll_log() - np.log(scenario.reference.probs))[support]
    table = {}
    for n in n_list:
        tax = expected_tax_symmetric(
            n, node_probs[support], policy.probs[support], scenario.reference.probs[support], scenario.alpha
        )
        table[n] = float(np.max(np.abs(tax - limits), initial=0.0))
    return table


def grid_search_value(scenario: Scenario, step: float) -> tuple[float, float]:
    """Exhaustive stagewise grid search over every policy row (degree-2 rows only).

    Returns (grid-optimal value from the initial distribution, provable
    error bound).  The bound uses convexity of each row objective: the
    true minimizer lies within one grid step of the grid argmin, so the
    overshoot per row is at most step * |objective slope at the argmin|;
    those overshoots accumulate additively backward through the horizon.
    """
    g = scenario.graph
    t_count = scenario.horizon
    costs = folded_costs(scenario)
    grid = np.arange(0.0, 1.0 + step / 2, step)
    grid[-1] = 1.0

    def row_objective(rho0: float, rho1: float, ref0: float, ref1: float, q: np.ndarray):
        with np.errstate(divide="ignore", invalid="ignore"):
            ent0 = np.where(q > 0, q * (np.log(q) - math.log(ref0)), 0.0)
            ent1 = np.where(q < 1, (1 - q) * (np.log(1 - q) - math.log(ref1)), 0.0)
        return q * rho0 + (1 - q) * rho1 + scenario.alpha * (ent0 + ent1)

    values = np.zeros(g.node_count)
    bound = 0.0
    for t in range(t_count - 1, -1, -1):
        new_values = np.empty(g.node_count)
        stage_bound = 0.0
        for i in range(g.node_count):
            sl = edge_slice(g, i)
            assert sl.stop - sl.start == 2, "grid oracle handles out-degree 2 only"
            e0, e1 = sl.start, sl.start + 1
            j0, j1 = int(g.edge_dst[e0]), int(g.edge_dst[e1])
            rho0 = float(costs[t, e0]) + values[j0]
            rho1 = float(costs[t, e1]) + values[j1]
            ref0 = float(scenario.reference.probs[t, e0])
            ref1 = float(scenario.reference.probs[t, e1])
            obj = row_objective(rho0, rho1, ref0, ref1, grid)
            best = int(np.argmin(obj))
            assert 0 < best < len(grid) - 1, "fixture must have interior optima"
            new_values[i] = obj[best]
            q = grid[best]
            slope = rho0 - rho1 + scenario.alpha * (
                math.log(q / ref0) - math.log((1 - q) / ref1)
            )
            stage_bound = max(stage_bound, step * abs(slope))
        values = new_values
        bound += stage_bound
    return float(scenario.initial.mass @ values), bound


def decimal_log_phi_three_route(costs, reference, alpha) -> float:
    """High-precision origin log-desirability for a one-stage parallel game."""
    getcontext().prec = 50
    total = Decimal(0)
    for c, r in zip(costs, reference):
        total += Decimal(repr(r)) * (-Decimal(repr(c)) / Decimal(repr(alpha))).exp()
    return float(total.ln())


def exact_expected_log_share(n_players: int, prob: float) -> float:
    """E[log((K+1)/N)], K ~ Binomial(N-1, prob), with exact rational pmf."""
    n = n_players - 1
    p = Fraction(prob)
    q = 1 - p
    terms = []
    for k in range(n + 1):
        pmf = Fraction(math.comb(n, k)) * p**k * q ** (n - k)
        terms.append(math.log((k + 1) / n_players) * float(pmf))
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Scalar expected-toll reference: the full-support, exactly rounded kernel and
# the per-element caller loops that the batched kernel replaced
# ---------------------------------------------------------------------------

def _log_binom_coeffs(n: int) -> np.ndarray:
    """log of C(n, k) for k = 0..n."""
    k = np.arange(n + 1)
    return gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)


def binomial_expected_log_share_scalar(n_players: int, prob: float) -> float:
    """E[log((K + 1) / N)] with K ~ Binomial(N - 1, prob).

    This is the expected log share of the population on an event the
    tagged player is already counted in.  Terms are accumulated with
    exactly rounded summation.
    """
    if n_players < 1:
        raise ValueError("n_players must be >= 1")
    n = n_players - 1
    if prob <= 0.0:
        return math.log(1.0 / n_players)
    if prob >= 1.0:
        return 0.0
    k = np.arange(n + 1)
    log_pmf = _log_binom_coeffs(n) + k * math.log(prob) + (n - k) * math.log1p(-prob)
    terms = np.log((k + 1.0) / n_players) * np.exp(log_pmf)
    return math.fsum(terms)


# Terms with |k - (N-1)p| > ceil(sqrt(WINDOW_SQ * (N-1))) + 1 have pmf below
# exp(-2 * WINDOW_SQ) = e^-746 by Hoeffding's bound, so exp() rounds them to 0.
_WINDOW_SQ = 373
_HOEFFDING_CHUNK = 1 << 16


def interior_log_shares_hoeffding(n_players: int, probs: np.ndarray) -> np.ndarray:
    """The batched kernel the exact windows replaced: every probability's sum
    runs over one rectangle of Hoeffding half-widths around (N-1)p, for
    distinct probabilities strictly inside (0, 1)."""
    n = n_players - 1
    coeffs = _log_binom_coeffs(n)
    log_share = np.log((np.arange(n + 1) + 1.0) / n_players)
    half = math.ceil(math.sqrt(_WINDOW_SQ * n)) + 1
    offsets = np.arange(min(n + 1, 2 * half + 2))
    width = len(offsets)
    start = np.minimum(np.maximum((n * probs).astype(np.int64) - half, 0), n + 1 - width)
    log_p = np.fromiter(map(math.log, probs), np.float64, len(probs))[:, None]
    log_q = np.fromiter(map(math.log1p, -probs), np.float64, len(probs))[:, None]
    rows = max(1, _HOEFFDING_CHUNK // width)
    out = np.empty(len(probs))
    for lo in range(0, len(probs), rows):
        hi = lo + rows
        k = start[lo:hi, None] + offsets
        log_pmf = coeffs[k] + k * log_p[lo:hi] + (n - k) * log_q[lo:hi]
        out[lo:hi] = (log_share[k] * np.exp(log_pmf)).sum(axis=1)
    return out


_LOG_FLOOR = -746.0
_GATHER_CHUNK = 1 << 16


def interior_log_shares_gather(n_players: int, probs: np.ndarray) -> np.ndarray:
    """The sums as the kernel formed them before its table rows were broadcast
    or copied as whole windows, for distinct probabilities strictly inside
    (0, 1): each block of rows gathers its terms k = start .. start + width - 1
    from the tables by index, and terms below the floor are masked out of
    exp().  The window is the whole support up to 256 players and the one
    ``windows_bisection`` finds above.  The kernel must match it bit for bit."""
    n = n_players - 1
    coeffs = _log_binom_coeffs(n)
    log_share = np.log((np.arange(n + 1) + 1.0) / n_players)
    log_p = np.fromiter(map(math.log, probs), np.float64, len(probs))
    log_q = np.fromiter(map(math.log1p, -probs), np.float64, len(probs))
    if n_players <= _WHOLE_SUPPORT:
        start, width = np.zeros(len(probs), dtype=np.int64), np.full(len(probs), n_players)
    else:
        start, width = windows_bisection(coeffs, probs, log_p, log_q)
    out = np.empty(len(probs))
    for w in np.unique(width).tolist():
        at = np.flatnonzero(width == w)
        rows = max(1, _GATHER_CHUNK // w)
        for lo in range(0, len(at), rows):
            sel = at[lo : lo + rows]
            k = start[sel, None] + np.arange(w)
            log_pmf = coeffs[k] + k * log_p[sel, None] + (n - k) * log_q[sel, None]
            pmf = np.exp(log_pmf, out=np.zeros_like(log_pmf), where=log_pmf >= _LOG_FLOOR)
            out[sel] = (log_share[k] * pmf).sum(axis=1)
    return out


def windows_bisection(coeffs: np.ndarray, probs: np.ndarray, log_p: np.ndarray, log_q: np.ndarray):
    """The window search that the Hoeffding brackets narrowed: first k and width per probability.

    Both ends are bisected for bit_length(N) rounds, between the mode and a
    virtual k (-1 or N) outside the support.
    """
    n_players = len(coeffs)
    count = len(probs)
    mode = np.minimum((n_players * probs).astype(np.int64), n_players - 1)
    good = np.concatenate([mode, mode])
    bad = np.repeat([-1, n_players], count)
    toward_good = np.repeat([1, 0], count)
    log_p, log_q = np.concatenate([log_p, log_p]), np.concatenate([log_q, log_q])
    for _ in range(n_players.bit_length()):
        mid = (good + bad + toward_good) >> 1
        keep = coeffs[mid] + mid * log_p + (n_players - 1 - mid) * log_q >= _LOG_FLOOR
        good, bad = np.where(keep, mid, good), np.where(keep, bad, mid)
    first, last = good[:count], good[count:]
    width = np.minimum(np.left_shift(1, np.frexp(last - first)[1]), n_players)
    return np.minimum(first, n_players - width), width


def expected_tax_symmetric_scalar(
    n_players: int, node_prob: float, edge_prob: float, ref: float, alpha: float
) -> float:
    share_edge = binomial_expected_log_share_scalar(n_players, node_prob * edge_prob)
    share_node = binomial_expected_log_share_scalar(n_players, node_prob)
    return alpha * (share_edge - share_node) - alpha * math.log(ref)


def expected_tax_table_loop(scenario: Scenario, policy: PolicyKernel, n_players: int) -> np.ndarray:
    """Expected tax per (t, edge), one scalar reference evaluation at a time."""
    g = scenario.graph
    flow = propagate(scenario, policy)
    table = np.empty((scenario.horizon, g.edge_count))
    for t in range(scenario.horizon):
        node_probs = flow.distributions[t][g.edge_src]
        for e in range(g.edge_count):
            table[t, e] = expected_tax_symmetric_scalar(
                n_players,
                float(node_probs[e]),
                float(policy.probs[t, e]),
                float(scenario.reference.probs[t, e]),
                scenario.alpha,
            )
    return table


def expected_tax_gap_loop(scenario: Scenario, policy: PolicyKernel, n_list, support_tol: float = 1e-9) -> dict:
    """Worst |expected tax - alpha log(policy / reference)| over supported edges."""
    g = scenario.graph
    flow = propagate(scenario, policy)
    table = {}
    for n in n_list:
        worst = 0.0
        for t in range(scenario.horizon):
            node_probs = flow.distributions[t][g.edge_src]
            for e in range(g.edge_count):
                node_p, edge_p = float(node_probs[e]), float(policy.probs[t, e])
                if node_p * edge_p <= support_tol:
                    continue
                ref = float(scenario.reference.probs[t, e])
                tax = expected_tax_symmetric_scalar(n, node_p, edge_p, ref, scenario.alpha)
                worst = max(worst, abs(tax - scenario.alpha * (math.log(edge_p) - math.log(ref))))
        table[n] = worst
    return table


def assumed_cost_loop(game: SingleStageGame, belief) -> np.ndarray:
    return np.array(
        [
            float(game.travel_cost[j])
            + expected_tax_symmetric_scalar(
                game.n_players, 1.0, float(belief[j]), float(game.reference[j]), game.alpha
            )
            for j in range(game.route_count)
        ]
    )


def fp_run_day_by_day(game: SingleStageGame, initial_belief, days: int) -> FictitiousPlayResult:
    """Fictitious play with one kernel call per day, the loop the lookahead blocks replaced."""
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
    return FictitiousPlayResult(BeliefPath(beliefs, choices), finite_ne, mfe, dist_ne, dist_mfe)


def symmetric_ne_scalar(game: SingleStageGame, tol: float = 1e-12, max_bisect: int = 200) -> np.ndarray:
    """Symmetric equilibrium q by per-route scalar nested bisection (N >= 2)."""

    def cost(j: int, q: float) -> float:
        return float(game.travel_cost[j]) + expected_tax_symmetric_scalar(
            game.n_players, 1.0, q, float(game.reference[j]), game.alpha
        )

    def load(j: int, lam: float) -> float:
        if lam <= cost(j, 0.0):
            return 0.0
        if lam >= cost(j, 1.0):
            return 1.0
        lo, hi = 0.0, 1.0
        for _ in range(max_bisect):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            val = cost(j, mid)
            if abs(val - lam) <= tol:
                return mid
            lo, hi = (mid, hi) if val < lam else (lo, mid)
        return 0.5 * (lo + hi)

    def boundary(lo: float, hi: float, above) -> float:
        for _ in range(max_bisect):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi or hi - lo <= tol:
                break
            if above(sum(load(j, mid) for j in range(game.route_count))):
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    routes = range(game.route_count)
    lo = min(cost(j, 0.0) for j in routes) - 1.0
    hi = max(cost(j, 1.0) for j in routes) + 1.0
    lam = 0.5 * (boundary(lo, hi, lambda m: m >= 1.0) + boundary(lo, hi, lambda m: m > 1.0))
    return np.array([load(j, lam) for j in routes])


def route_loads_bisection(game: SingleStageGame, lam) -> np.ndarray:
    """Per-route inverse of the cost at each level in ``lam``, clamped to [0, 1].

    The nested-bisection solver's inner layer, which probes every route at
    every step afresh.  The result has shape ``np.shape(lam) + (J,)``.  All
    inversions bisect side by side with one cost evaluation per step; each
    is frozen once it converges, so it follows the midpoints its own
    bisection would.  Frozen ones are probed at q = 0, which costs no
    binomial sum, and their brackets are no longer read.
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


def _mass_bracket_bisection(game: SingleStageGame, lo: float, hi: float) -> tuple[float, float]:
    """Bisect for the lambdas where the total mass reaches one and where it exceeds one.

    Every step inverts all route costs to completion.
    """
    lo, hi = np.full(2, lo), np.full(2, hi)
    open_ = np.ones(2, dtype=bool)
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        open_ &= (mid != lo) & (mid != hi) & (hi - lo > OUTER_TOL)
        if not open_.any():
            break
        mass = route_loads_bisection(game, mid).sum(axis=1)
        above = np.array([mass[0] >= 1.0, mass[1] > 1.0])
        lo, hi = np.where(open_ & ~above, mid, lo), np.where(open_ & above, mid, hi)
    lam_lo, lam_hi = 0.5 * (lo + hi)
    return float(lam_lo), float(lam_hi)


def solve_symmetric_ne_bisection(game: SingleStageGame) -> EquilibriumResult:
    """Symmetric equilibrium by plain nested bisection, the solver the probe table replaced.

    An outer bisection pins lambda; at each of its steps the inner
    bisection inverts every route cost to completion, asking the kernel
    for every probe again.
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
    lam_lo, lam_hi = _mass_bracket_bisection(game, lo, hi)
    lam_mid = 0.5 * (lam_lo + lam_hi)

    q = route_loads_bisection(game, lam_mid)
    used = q > 0
    at_q = assumed_cost(game, q)
    lam = float(at_q[used].max())
    residuals = np.where(used, np.abs(at_q - lam), np.maximum(0.0, lam - at_zero))
    return EquilibriumResult(q, lam, residuals)


def shortest_path_loop(graph: TrafficGraph, total_cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Finite-horizon shortest path with a per-node argmin (first minimizer wins)."""
    t_count = total_cost.shape[0]
    values = np.zeros((t_count + 1, graph.node_count))
    probs = np.zeros((t_count, graph.edge_count))
    for t in range(t_count - 1, -1, -1):
        through = total_cost[t] + values[t + 1][graph.edge_dst]
        for i in range(graph.node_count):
            sl = edge_slice(graph, i)
            best = int(np.argmin(through[sl]))
            values[t, i] = through[sl][best]
            probs[t, sl.start + best] = 1.0
    return probs, values


def nash_pass_whole_table(scenario: Scenario, policy: PolicyKernel, n_players: int):
    """(tax gap, best response) at N as one (T, E) tax table per N gave them, before the stage-block pass.

    The taxes come from one ladder of the whole (T, E) joint and (T, V) node
    flows, the gap is their max over the supported entries, and the best
    response is the per-node shortest-path loop over the taxes plus the
    stage costs, with the symmetric cost added one stage at a time.
    """
    g = scenario.graph
    node_table = propagate(scenario, policy).distributions[:-1]
    joint = np.take(node_table, g.edge_src, axis=1)
    joint *= policy.probs
    tax = _taxes(_Ladder((joint, node_table), n_players), n_players, scenario.alpha, g.edge_src)
    tax -= scenario.log_reference() * scenario.alpha
    support = joint > SUPPORT_TOL
    limits = scenario.alpha * (policy.toll_log()[support] - scenario.log_reference(support))
    gap = float(np.max(np.abs(tax[support] - limits), initial=0.0))
    tax[:-1] += scenario.costs.stage[:-1]
    tax[-1] += scenario.stage_costs(scenario.horizon - 1)
    probs, values = shortest_path_loop(g, tax)
    symmetric_cost = 0.0
    for t in range(scenario.horizon):
        symmetric_cost += float(_dot(joint[t], tax[t]))
    epsilon = symmetric_cost - float(_dot(scenario.initial.mass, values[0]))
    return gap, FiniteBestResponse(PolicyKernel(probs), epsilon, values, symmetric_cost)


def bfs_distances(width: int, height: int, obstacles, start: int) -> dict[int, int]:
    """Hop distances over non-obstacle grid cells (4-neighborhood)."""
    obstacle_set = set(obstacles)
    dist = {start: 0}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        x, y = v % width, v // width
        for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < width and 0 <= ny < height:
                w = ny * width + nx
                if w not in obstacle_set and w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
    return dist


def shortest_path_nodes(width: int, height: int, obstacles, origin: int, destination: int) -> set[int]:
    """Nodes lying on at least one hop-shortest origin-destination path."""
    d_from = bfs_distances(width, height, obstacles, origin)
    d_to = bfs_distances(width, height, obstacles, destination)
    best = d_from[destination]
    return {v for v, d in d_from.items() if v in d_to and d + d_to[v] == best}


def assert_rows_stochastic(graph: TrafficGraph, probs: np.ndarray, tol: float = 1e-12) -> None:
    assert np.all(probs >= 0)
    for t in range(probs.shape[0]):
        sums = np.add.reduceat(probs[t], graph.row_start[:-1])
        assert np.max(np.abs(sums - 1.0)) <= tol


# ---------------------------------------------------------------------------
# Loop references for the array validate, backward pass and policy extraction:
# one Violation, one stage and one node at a time
# ---------------------------------------------------------------------------

def validate_loop(scenario: Scenario) -> list[Violation]:
    """Per-stage, per-node validate; NaN fails the positivity and row-sum checks."""
    out: list[Violation] = []
    g = scenario.graph
    t_count = scenario.horizon

    if t_count < 1:
        out.append(Violation("horizon", "horizon must be >= 1"))
    if not (math.isfinite(scenario.alpha) and scenario.alpha > 0):
        out.append(Violation("alpha", f"alpha must be a positive real, got {scenario.alpha}"))

    neighbors = out_neighbors(g)
    for i, row in enumerate(neighbors):
        if not row:
            out.append(Violation("empty_out_neighbors", "node has no out-neighbors", node=i))
        seen = set()
        for j in row:
            if j in seen:
                out.append(Violation("duplicate_out_neighbor", "duplicate edge", node=i, dest=j))
            seen.add(j)

    src = g.edge_src
    dst = g.edge_dst
    for t in range(t_count):
        bad = ~np.isfinite(scenario.costs.stage[t])
        for e in np.flatnonzero(bad):
            out.append(
                Violation("nonfinite_cost", "cost must be finite", t=t, node=int(src[e]), dest=int(dst[e]))
            )
    if scenario.costs.terminal is not None:
        for j in np.flatnonzero(~np.isfinite(scenario.costs.terminal)):
            out.append(Violation("nonfinite_terminal", "terminal cost must be finite", dest=int(j)))

    ref = scenario.reference.probs
    for t in range(t_count):
        nonpos = ~(ref[t] > 0)
        for e in np.flatnonzero(nonpos):
            out.append(
                Violation(
                    "reference_nonpositive",
                    f"reference probability {ref[t, e]} must be > 0",
                    t=t,
                    node=int(src[e]),
                    dest=int(dst[e]),
                )
            )
        for i in range(g.node_count):
            if not neighbors[i]:
                continue
            row_sum = float(ref[t, edge_slice(g, i)].sum())
            if not abs(row_sum - 1.0) <= ROW_SUM_TOL:
                out.append(
                    Violation(
                        "reference_row_sum",
                        f"reference row sums to {row_sum:.17g}, expected 1",
                        t=t,
                        node=i,
                    )
                )

    mass = scenario.initial.mass
    for i in np.flatnonzero(~np.isfinite(mass) | (mass < 0)):
        out.append(Violation("initial_negative", f"mass {mass[i]} must be finite and >= 0", node=int(i)))
    if np.all(np.isfinite(mass)) and abs(float(mass.sum()) - 1.0) > ROW_SUM_TOL:
        out.append(Violation("initial_sum", f"initial mass sums to {mass.sum():.17g}, expected 1"))

    return out


def _segment_lse_loop(values: np.ndarray, row_start: np.ndarray, seg_id: np.ndarray) -> np.ndarray:
    peak = np.maximum.reduceat(values, row_start[:-1])
    shifted = np.exp(values - peak[seg_id])
    return peak + np.log(np.add.reduceat(shifted, row_start[:-1]))


def _log_weights_loop(scenario: Scenario, costs: np.ndarray, log_phi_next: np.ndarray, t: int) -> np.ndarray:
    return (
        np.log(scenario.reference.probs[t])
        - costs[t] / scenario.alpha
        + log_phi_next[scenario.graph.edge_dst]
    )


def backward_pass_loop(scenario: Scenario) -> np.ndarray:
    """Log-desirability table (T+1, V), one stage's log weights at a time."""
    g = scenario.graph
    costs = folded_costs(scenario)
    log_phi = np.zeros((scenario.horizon + 1, g.node_count))
    for t in range(scenario.horizon - 1, -1, -1):
        log_phi[t] = _segment_lse_loop(_log_weights_loop(scenario, costs, log_phi[t + 1], t), g.row_start, g.edge_src)
    return log_phi


def extract_policy_loop(scenario: Scenario, log_phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(probs, log_probs), each (T, E), one stage at a time."""
    g = scenario.graph
    costs = folded_costs(scenario)
    probs = np.empty((scenario.horizon, g.edge_count))
    log_probs = np.empty((scenario.horizon, g.edge_count))
    for t in range(scenario.horizon):
        raw_log = _log_weights_loop(scenario, costs, log_phi[t + 1], t)
        raw_log -= log_phi[t][g.edge_src]
        raw = np.exp(raw_log)
        row_sums = np.add.reduceat(raw, g.row_start[:-1])
        probs[t] = raw / row_sums[g.edge_src]
        log_probs[t] = raw_log - np.log(row_sums)[g.edge_src]
    return probs, log_probs


# ---------------------------------------------------------------------------
# Loop references for the edge-table writers: (t, i, j) columns from a walk
# over each node's out-neighbors, the way serialize and write_policy_csv used to build them
# ---------------------------------------------------------------------------

def edges_loop(graph: TrafficGraph):
    """Yield (flat_index, src, dst) in storage order."""
    e = 0
    for i, row in enumerate(out_neighbors(graph)):
        for j in row:
            yield e, i, j
            e += 1


def serialize_loop(scenario: Scenario) -> str:
    """The sectioned text format, one edge and one stage at a time."""

    def fmt(x: float) -> str:
        return format(float(x), ".17g")

    g = scenario.graph
    t_count = scenario.horizon
    stationary = t_count >= 1 and all(
        np.all(table.view(np.uint64) == table[0].view(np.uint64))
        for table in (scenario.costs.stage, scenario.reference.probs)
    )

    lines = ["[params]"]
    lines.append(f"nodes = {g.node_count}")
    lines.append(f"horizon = {t_count}")
    lines.append(f"alpha = {fmt(scenario.alpha)}")
    support = np.flatnonzero(scenario.initial.mass != 0)
    lines.append("initial = " + ",".join(f"{i}:{fmt(scenario.initial.mass[i])}" for i in support))
    if stationary:
        lines.append("stationary = true")

    lines.append("")
    lines.append("[graph]")
    for e, i, j in edges_loop(g):
        lines.append(f"{i} {j}")

    def table_lines(table: np.ndarray) -> list[str]:
        if stationary:
            return [f"{i} {j} {fmt(table[0, e])}" for e, i, j in edges_loop(g)]
        return [f"{t} {i} {j} {fmt(table[t, e])}" for t in range(t_count) for e, i, j in edges_loop(g)]

    lines.append("")
    lines.append("[costs]")
    lines.extend(table_lines(scenario.costs.stage))
    if scenario.costs.terminal is not None:
        for j in range(g.node_count):
            lines.append(f"terminal {j} {fmt(scenario.costs.terminal[j])}")

    lines.append("")
    lines.append("[reference]")
    lines.extend(table_lines(scenario.reference.probs))

    lines.append("")
    return "\n".join(lines)


def write_csv_loop(path, header: str, rows, manifest) -> None:
    """The CSV writer one cell at a time: str for integers, repr for floats, strings as they are."""

    def cell(x) -> str:
        if isinstance(x, str):
            return x
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return repr(float(x))

    lines = manifest.header_lines()
    lines.append(header)
    for row in rows:
        lines.append(",".join(cell(x) for x in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_policy_csv_loop(path, scenario: Scenario, policy: PolicyKernel, manifest) -> None:
    """The (t, i, j, value) policy CSV, one stage and one edge at a time."""
    rows = []
    for t in range(scenario.horizon):
        for e, i, j in edges_loop(scenario.graph):
            rows.append((t, i, j, policy.probs[t, e]))
    write_csv_loop(path, "t,i,j,value", rows, manifest)


def emit_heatmap_loop(mass: np.ndarray, width: int, height: int, obstacles=(), header_lines=()) -> str:
    """The plain-text graymap of one stage's mass, one cell at a time."""
    peak = float(mass.max())
    obstacle_set = {int(o) for o in obstacles}
    lines = ["P2"]
    lines.append(f"# obstacle cells use sentinel value {OBSTACLE_SENTINEL}; data range is 0..255")
    lines.extend(header_lines)
    lines.append(f"{width} {height}")
    lines.append(str(OBSTACLE_SENTINEL))
    for y in range(height):
        row = []
        for x in range(width):
            node = y * width + x
            if node in obstacle_set:
                row.append(str(OBSTACLE_SENTINEL))
            elif peak == 0.0:
                row.append("0")
            else:
                row.append(str(int(round(255.0 * float(mass[node]) / peak))))
        lines.append(" ".join(row))
    return "\n".join(lines) + "\n"


class AgentSample(NamedTuple):
    """A reference rollout: every agent's path, and the counts and seed record of ``PopulationSample``."""

    n_agents: int
    locations: np.ndarray  # (T+1, N) node ids
    node_counts: np.ndarray  # (T+1, V)
    edge_counts: np.ndarray  # (T, E)
    seed: int | tuple[int, ...]
    spawn_key: tuple[int, ...]


def simulate_population_mask_loop(
    scenario: Scenario, policy: PolicyKernel, n_agents: int, seed
) -> AgentSample:
    """N-player rollout with one draw call and one full-population mask per occupied node and stage."""
    seeds = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(seeds)
    g = scenario.graph
    t_count = scenario.horizon

    locations = np.empty((t_count + 1, n_agents), dtype=np.int64)
    node_counts = np.empty((t_count + 1, g.node_count), dtype=np.int64)
    edge_counts = np.empty((t_count, g.edge_count), dtype=np.int64)

    locations[0] = rng.choice(g.node_count, size=n_agents, p=scenario.initial.mass)
    for t in range(t_count):
        here = locations[t]
        node_counts[t] = np.bincount(here, minlength=g.node_count)
        chosen_edge = np.empty(n_agents, dtype=np.int64)
        for i in np.flatnonzero(node_counts[t]):
            sel = here == i
            lo, hi = int(g.row_start[i]), int(g.row_start[i + 1])
            cum = np.cumsum(policy.probs[t, lo:hi])
            draws = rng.random(int(node_counts[t, i])) * cum[-1]
            chosen_edge[sel] = lo + np.searchsorted(cum, draws, side="right")
        edge_counts[t] = np.bincount(chosen_edge, minlength=g.edge_count)
        locations[t + 1] = g.edge_dst[chosen_edge]
    node_counts[t_count] = np.bincount(locations[t_count], minlength=g.node_count)

    entropy = int(seeds.entropy) if np.ndim(seeds.entropy) == 0 else tuple(map(int, seeds.entropy))
    return AgentSample(n_agents, locations, node_counts, edge_counts, entropy, seeds.spawn_key)


def simulate_population_multinomial_loop(
    scenario: Scenario, policy: PolicyKernel, n_agents: int, seed
) -> PopulationSample:
    """N-player rollout as one multinomial draw of P_0, then one per occupied node and stage in ascending order.

    A policy row is divided by its total, summed in sequence; each draw's
    probabilities stop at their last positive entry.  A bad occupied row
    raises the sampler's located error.
    """
    seeds = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(seeds)
    g = scenario.graph
    node_counts = np.zeros((scenario.horizon + 1, g.node_count), dtype=np.int64)
    edge_counts = np.zeros((scenario.horizon, g.edge_count), dtype=np.int64)

    def draw(out: np.ndarray, count: int, probs: np.ndarray) -> None:
        stop = int(np.flatnonzero(probs)[-1]) + 1
        out[:stop] = rng.multinomial(count, probs[:stop])

    draw(node_counts[0], n_agents, scenario.initial.mass / scenario.initial.mass.sum())
    for t in range(scenario.horizon):
        for i in np.flatnonzero(node_counts[t]).tolist():
            row = policy.probs[t, edge_slice(g, i)]
            total = reduce(operator.add, row.tolist(), 0.0)
            if not (0.0 < total < math.inf and (row >= 0.0).all()):
                raise _row_fault(g, row, t, i)
            draw(edge_counts[t, edge_slice(g, i)], int(node_counts[t, i]), row / total)
        node_counts[t + 1] = np.bincount(g.edge_dst, weights=edge_counts[t], minlength=g.node_count)

    entropy = int(seeds.entropy) if np.ndim(seeds.entropy) == 0 else tuple(map(int, seeds.entropy))
    return PopulationSample(n_agents, node_counts, edge_counts, entropy, seeds.spawn_key)


def realized_taxes_loop(sample, scenario: Scenario) -> list[tuple]:
    """(t, node, dest, count, tax) of every populated edge, one stage and one edge at a time."""
    g = scenario.graph
    records = []
    for t in range(sample.edge_counts.shape[0]):
        for e in np.flatnonzero(sample.edge_counts[t]):
            i, j = int(g.edge_src[e]), int(g.edge_dst[e])
            k_edge = int(sample.edge_counts[t, e])
            k_node = int(sample.node_counts[t, i])
            tax = scenario.alpha * (math.log(k_edge / k_node) - math.log(scenario.reference.probs[t, e]))
            records.append((t, i, j, k_edge, tax))
    return records


# ---------------------------------------------------------------------------
# Line-at-a-time references for the edge-table readers: each line is parsed
# and checked in turn, and the first fault met is raised
# ---------------------------------------------------------------------------

_PARAM_KEYS = ("nodes", "horizon", "alpha", "initial", "stationary")


def _parse_loop(kind, token: str, lineno: int, what: str):
    try:
        return kind(token)
    except ValueError:
        raise ScenarioFormatError(f"line {lineno}: cannot parse {what} '{token}'") from None


def fill_table_loop(graph: TrafficGraph, stages: int, entries, label: str, undeclared: str, missing: str):
    """Fill a (stages, E) table from (lineno, t, i, j, value) entries, one entry at a time."""
    pairs = list(enumerate(zip(graph.edge_src.tolist(), graph.edge_dst.tolist())))
    edge_ids = {pair: e for e, pair in reversed(pairs)}  # the first of duplicate edges wins
    table = np.empty((stages, graph.edge_count))
    seen = np.zeros(table.shape, dtype=bool)
    for lineno, t, i, j, value in entries:
        if not 0 <= t < stages:
            raise ScenarioFormatError(f"line {lineno}: stage {t} outside 0..{stages - 1}")
        if (i, j) not in edge_ids:
            raise ScenarioFormatError(f"line {lineno}: edge {i} -> {j} {undeclared}")
        e = edge_ids[i, j]
        if seen[t, e]:
            raise ScenarioFormatError(f"line {lineno}: duplicate {label} for stage {t} edge {i} -> {j}")
        seen[t, e] = True
        table[t, e] = value
    if not seen.all():
        t, e = (int(x) for x in np.argwhere(~seen)[0])
        raise ScenarioFormatError(f"{missing} stage {t} edge {int(graph.edge_src[e])} -> {int(graph.edge_dst[e])}")
    return table


def deserialize_loop(text: str) -> Scenario:
    """The sectioned text format read one line at a time."""
    sections: dict[str, list[tuple[int, str]]] = {"params": [], "graph": [], "costs": [], "reference": []}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in sections:
                raise ScenarioFormatError(f"line {lineno}: unknown section [{name}]")
            current = name
            continue
        if current is None:
            raise ScenarioFormatError(f"line {lineno}: content before any section header")
        sections[current].append((lineno, line))

    params: dict[str, tuple[int, str]] = {}
    for lineno, line in sections["params"]:
        if "=" not in line:
            raise ScenarioFormatError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _PARAM_KEYS:
            raise ScenarioFormatError(f"line {lineno}: unknown key '{key}' in [params]")
        if key in params:
            first = params[key][0]
            raise ScenarioFormatError(f"line {lineno}: duplicate key '{key}' in [params] (first on line {first})")
        params[key] = (lineno, value)
    for field in ("nodes", "horizon", "alpha", "initial"):
        if field not in params:
            raise ScenarioFormatError(f"missing required field '{field}' in [params]")

    node_count = _parse_loop(int, params["nodes"][1], params["nodes"][0], "nodes")
    horizon = _parse_loop(int, params["horizon"][1], params["horizon"][0], "horizon")
    alpha = _parse_loop(float, params["alpha"][1], params["alpha"][0], "alpha")
    if node_count < 1:
        raise ScenarioFormatError(f"line {params['nodes'][0]}: nodes must be >= 1")
    if horizon < 1:
        raise ScenarioFormatError(f"line {params['horizon'][0]}: horizon must be >= 1")
    stationary = False
    if "stationary" in params:
        lineno, value = params["stationary"]
        if value.lower() not in ("true", "false"):
            raise ScenarioFormatError(f"line {lineno}: stationary must be true or false")
        stationary = value.lower() == "true"

    mass = np.zeros(node_count)
    seen: set[int] = set()
    lineno, value = params["initial"]
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ScenarioFormatError(f"line {lineno}: initial entries must be 'node:mass'")
        node_tok, mass_tok = part.split(":", 1)
        node = _parse_loop(int, node_tok.strip(), lineno, "initial node")
        if not 0 <= node < node_count:
            raise ScenarioFormatError(f"line {lineno}: initial node {node} outside 0..{node_count - 1}")
        if node in seen:
            raise ScenarioFormatError(f"line {lineno}: duplicate initial node {node}")
        seen.add(node)
        mass[node] = _parse_loop(float, mass_tok.strip(), lineno, "initial mass")

    if not sections["graph"]:
        raise ScenarioFormatError("missing or empty [graph] section")
    neighbors: list[list[int]] = [[] for _ in range(node_count)]
    for lineno, line in sections["graph"]:
        tokens = line.split()
        if len(tokens) != 2:
            raise ScenarioFormatError(f"line {lineno}: graph lines are 'i j'")
        i = _parse_loop(int, tokens[0], lineno, "source node")
        j = _parse_loop(int, tokens[1], lineno, "destination node")
        for name, n in (("source", i), ("destination", j)):
            if not 0 <= n < node_count:
                raise ScenarioFormatError(f"line {lineno}: {name} node {n} outside 0..{node_count - 1}")
        neighbors[i].append(j)
    graph = TrafficGraph.from_neighbors(tuple(tuple(row) for row in neighbors))

    terminal = np.zeros(node_count)
    terminal_lines: dict[int, int] = {}

    def entries(section: str, label: str):
        for lineno, line in sections[section]:
            tokens = line.split()
            if tokens[0].lower() == "terminal":
                if section != "costs" or len(tokens) != 3:
                    raise ScenarioFormatError(f"line {lineno}: terminal lines are 'terminal j c' in [costs]")
                j = _parse_loop(int, tokens[1], lineno, "terminal node")
                if not 0 <= j < node_count:
                    raise ScenarioFormatError(f"line {lineno}: terminal node {j} outside 0..{node_count - 1}")
                if j in terminal_lines:
                    raise ScenarioFormatError(
                        f"line {lineno}: duplicate terminal cost for node {j} (first on line {terminal_lines[j]})"
                    )
                terminal_lines[j] = lineno
                terminal[j] = _parse_loop(float, tokens[2], lineno, "terminal cost")
                continue
            if len(tokens) != (3 if stationary else 4):
                form = "stationary {} lines are 'i j value'" if stationary else "{} lines are 't i j value'"
                raise ScenarioFormatError(f"line {lineno}: " + form.format(label))
            t = 0 if stationary else _parse_loop(int, tokens[0], lineno, "stage")
            i = _parse_loop(int, tokens[-3], lineno, "source node")
            j = _parse_loop(int, tokens[-2], lineno, "destination node")
            yield lineno, t, i, j, _parse_loop(float, tokens[-1], lineno, label)

    def table(section: str, label: str) -> np.ndarray:
        stages, missing = (1 if stationary else horizon), f"[{section}] missing {label} for"
        filled = fill_table_loop(graph, stages, entries(section, label), label, "not declared in [graph]", missing)
        return np.broadcast_to(filled, (horizon, graph.edge_count))

    cost_table = table("costs", "cost")
    ref_table = table("reference", "reference probability")
    return Scenario(
        graph=graph,
        costs=StageCosts(horizon, cost_table, terminal if terminal_lines else None),
        reference=ReferencePolicy(ref_table),
        alpha=alpha,
        initial=Distribution(mass),
    )


def read_policy_csv_loop(path, scenario: Scenario) -> PolicyKernel:
    """The (t, i, j, value) policy CSV read one line at a time."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read policy file {path}: {exc}") from exc

    def entries():
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line or line == "t,i,j,value":
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise ScenarioFormatError(f"line {lineno}: policy rows are 't,i,j,value'")
            try:
                t, i, j, p = int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
            except ValueError:
                raise ScenarioFormatError(f"line {lineno}: cannot parse policy row") from None
            if not math.isfinite(p):
                raise ScenarioFormatError(f"line {lineno}: policy value '{parts[3]}' is not finite")
            if p < 0:
                raise ScenarioFormatError(f"line {lineno}: policy value '{parts[3]}' is negative")
            yield lineno, t, i, j, p

    g = scenario.graph
    missing = "policy file missing"
    probs = fill_table_loop(g, scenario.horizon, entries(), "policy row", "not in scenario graph", missing)
    bad_rows = bad_row_sums(g, probs)
    if bad_rows:
        raise ScenarioFormatError("policy rows of stage {} node {} sum to {:.17g}, expected 1".format(*bad_rows[0]))
    return PolicyKernel(probs)
