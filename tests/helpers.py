"""Independent oracles and shared generators for the test suite.

Everything here recomputes expected values through a different route than
the package: naive linear-domain recursions, exhaustive grid search,
exact rational/decimal arithmetic, plain Python loops, breadth-first
search.  Oracles must stay independent of the code paths they check.
"""

from __future__ import annotations

import math
from collections import deque
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from mftroute import (
    Distribution,
    PolicyKernel,
    ReferencePolicy,
    Scenario,
    SingleStageGame,
    StageCosts,
    TrafficGraph,
    propagate,
)


def random_scenario(
    rng: np.random.Generator,
    max_nodes: int = 10,
    max_horizon: int = 10,
    cost_bound: float = 5.0,
    alpha_range: tuple[float, float] = (0.1, 10.0),
    point_mass_start: bool = False,
) -> Scenario:
    """Random valid scenario within the randomized-fixture parameter box."""
    node_count = int(rng.integers(2, max_nodes + 1))
    horizon = int(rng.integers(1, max_horizon + 1))
    neigh = []
    for _ in range(node_count):
        deg = int(rng.integers(1, min(4, node_count) + 1))
        neigh.append(tuple(sorted(rng.choice(node_count, size=deg, replace=False).tolist())))
    graph = TrafficGraph(tuple(neigh))

    costs = StageCosts(horizon, rng.uniform(-cost_bound, cost_bound, size=(horizon, graph.edge_count)))
    probs = np.empty((horizon, graph.edge_count))
    for t in range(horizon):
        for i in range(node_count):
            sl = graph.edge_slice(i)
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
    phi = np.ones((t_count + 1, g.node_count))
    for t in range(t_count - 1, -1, -1):
        for i in range(g.node_count):
            total = 0.0
            for k, j in enumerate(g.out_neighbors[i]):
                e = g.row_start[i] + k
                total += (
                    scenario.reference.probs[t, e]
                    * math.exp(-scenario.edge_costs[t, e] / scenario.alpha)
                    * phi[t + 1, j]
                )
            phi[t, i] = total
    return phi


def cost_plain_loop(scenario: Scenario, policy: PolicyKernel, population: PolicyKernel) -> float:
    """Deviation cost by direct summation with Python loops and dict state."""
    g = scenario.graph
    mass = {i: float(scenario.initial.mass[i]) for i in range(g.node_count)}
    total = 0.0
    for t in range(scenario.horizon):
        nxt: dict[int, float] = {i: 0.0 for i in range(g.node_count)}
        for i in range(g.node_count):
            for k, j in enumerate(g.out_neighbors[i]):
                e = g.row_start[i] + k
                flow = mass[i] * float(policy.probs[t, e])
                if flow > 0.0:
                    toll = scenario.alpha * (
                        math.log(float(population.probs[t, e]))
                        - math.log(float(scenario.reference.probs[t, e]))
                    )
                    total += flow * (float(scenario.edge_costs[t, e]) + toll)
                nxt[j] += flow
        mass = nxt
    return total


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
            sl = g.edge_slice(i)
            assert sl.stop - sl.start == 2, "grid oracle handles out-degree 2 only"
            e0, e1 = sl.start, sl.start + 1
            j0, j1 = int(g.edge_dst[e0]), int(g.edge_dst[e1])
            rho0 = float(scenario.edge_costs[t, e0]) + values[j0]
            rho1 = float(scenario.edge_costs[t, e1]) + values[j1]
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


def shortest_path_loop(graph: TrafficGraph, total_cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Finite-horizon shortest path with a per-node argmin (first minimizer wins)."""
    t_count = total_cost.shape[0]
    values = np.zeros((t_count + 1, graph.node_count))
    probs = np.zeros((t_count, graph.edge_count))
    for t in range(t_count - 1, -1, -1):
        through = total_cost[t] + values[t + 1][graph.edge_dst]
        for i in range(graph.node_count):
            sl = graph.edge_slice(i)
            best = int(np.argmin(through[sl]))
            values[t, i] = through[sl][best]
            probs[t, sl.start + best] = 1.0
    return probs, values


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
