"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.  Every expected value here is either a published regression
value, a closed-form fact, or derived from an independent oracle in
tests/helpers.py (grid search, exact rational sums, BFS, plain loops).
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from helpers import grid_search_value, random_scenario
from mftroute import (
    Distribution,
    PolicyKernel,
    ReferencePolicy,
    Scenario,
    SingleStageGame,
    StageCosts,
    TrafficGraph,
    backward_pass,
    best_response_finite_n,
    equalizer_gap,
    expected_tax_heterogeneous,
    expected_tax_symmetric,
    extract_policy,
    fp_run,
    expected_tax_gap,
    mfe_solve,
    propagate,
    random_policy,
    solve_single_stage_mfe,
    solve_symmetric_ne,
    truncate_scenario,
    value,
)
from mftroute.cli import FIG2_DESTINATION, FIG2_WIDTH, fig2_scenario, main, three_route_scenario

THREE_ROUTE_MFE = np.array([0.245, 0.665, 0.090])  # published regression value


def _report(criterion: int, elapsed: float, budget: float, detail: str) -> None:
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.2f}s, budget {budget}s"
    print(f"ACCEPTANCE {criterion} PASS ({elapsed:.2f}s < {budget:.0f}s): {detail}")


def test_criterion_1_single_stage_mfe_regression():
    start = time.perf_counter()
    game = SingleStageGame(np.array([2.0, 1.0, 3.0]), np.full(3, 1 / 3), 1.0, 200)
    direct = solve_single_stage_mfe(game)
    network = mfe_solve(three_route_scenario()).policy.probs[0, :3]
    finite = solve_symmetric_ne(game).q
    elapsed = time.perf_counter() - start

    assert np.max(np.abs(direct - THREE_ROUTE_MFE)) <= 0.001
    assert np.max(np.abs(network - THREE_ROUTE_MFE)) <= 0.001
    assert np.max(np.abs(finite - direct)) <= 0.05  # finite-N point sits nearby
    _report(1, elapsed, 1.0, f"mfe = {np.round(direct, 3)} within 0.001 of {THREE_ROUTE_MFE}")


def test_criterion_2_equalizer_property():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        scenario = random_scenario(
            rng, max_nodes=10, max_horizon=10, cost_bound=5.0, alpha_range=(0.1, 10.0)
        )
        solution = mfe_solve(scenario)
        trials = [random_policy(scenario, rng) for _ in range(100)]
        worst = max(worst, equalizer_gap(scenario, solution.policy, trials, solution.desirability))
    elapsed = time.perf_counter() - start

    assert worst <= 1e-8
    _report(2, elapsed, 30.0, f"max deviation-cost gap {worst:.2e} over 50 scenarios x 100 policies")


def test_criterion_3_backward_pass_matches_grid_search_oracle():
    start = time.perf_counter()
    graph = TrafficGraph.from_neighbors(((0, 1), (0, 1)))
    costs = np.array([[0.5, 0.3, 0.2, 0.6], [0.1, 0.4, 0.3, 0.2]])
    scenario = Scenario(
        graph,
        StageCosts(2, costs),
        ReferencePolicy(np.full((2, 4), 0.5)),
        1.0,
        Distribution.point_mass(2, 0),
    )
    solver_value = value(backward_pass(scenario), scenario.initial, 0)
    oracle_value, bound = grid_search_value(scenario, step=0.001)
    elapsed = time.perf_counter() - start

    assert oracle_value >= solver_value - 1e-9  # grid points cannot beat the optimum
    assert abs(oracle_value - solver_value) <= bound + 1e-9
    _report(3, elapsed, 60.0, f"|grid - solver| = {abs(oracle_value - solver_value):.2e} <= bound {bound:.2e}")


def test_criterion_4_expected_tax_convergence():
    start = time.perf_counter()
    scenario = three_route_scenario()
    solution = mfe_solve(scenario)
    n_list = [10, 100, 1000, 10000]
    gaps = expected_tax_gap(scenario, solution.policy, n_list)
    elapsed = time.perf_counter() - start

    values = [gaps[n] for n in n_list]
    assert all(a > b for a, b in zip(values, values[1:])), f"gaps not strictly decreasing: {values}"
    assert values[-1] <= 0.01
    _report(4, elapsed, 5.0, f"tax gaps {['%.3g' % v for v in values]} strictly decreasing")


def test_criterion_5_epsilon_nash_trend():
    start = time.perf_counter()
    scenario = three_route_scenario()
    solution = mfe_solve(scenario)
    n_list = [10, 100, 1000, 100000]
    eps = [best_response_finite_n(scenario, solution.policy, n).epsilon for n in n_list]
    elapsed = time.perf_counter() - start

    assert all(e >= -1e-10 for e in eps)
    assert all(a >= b for a, b in zip(eps, eps[1:])), f"epsilon not non-increasing: {eps}"
    assert eps[-1] <= 0.01
    _report(5, elapsed, 10.0, f"epsilon_N {['%.3g' % e for e in eps]} non-increasing, final <= 0.01")


def test_criterion_6_fictitious_play_limit_points():
    start = time.perf_counter()
    days = 10000
    big = fp_run(
        SingleStageGame(np.array([2.0, 1.0, 3.0]), np.full(3, 1 / 3), 1.0, 200),
        np.full(3, 1 / 3),
        days,
    )
    small = fp_run(
        SingleStageGame(np.array([2.0, 1.0, 3.0]), np.full(3, 1 / 3), 1.0, 20),
        np.full(3, 1 / 3),
        days,
    )
    elapsed = time.perf_counter() - start

    assert big.dist_to_mfe[days] <= 0.05
    assert small.dist_to_mfe[days] > small.dist_to_finite_ne[days]
    _report(
        6,
        elapsed,
        60.0,
        f"N=200 belief within {big.dist_to_mfe[days]:.3f} of the mfe; "
        f"N=20 offset {small.dist_to_mfe[days]:.3f} exceeds its equilibrium distance "
        f"{small.dist_to_finite_ne[days]:.2e}",
    )


def test_criterion_7_grid_world_reproduction(tmp_path):
    start = time.perf_counter()
    flows = {}
    for alpha in (0.1, 1.0):
        out_dir = tmp_path / f"fig2_alpha{alpha}"
        assert main(["reproduce", "fig2", "--alpha", str(alpha), "--out-dir", str(out_dir)]) == 0
        solution = mfe_solve(fig2_scenario(alpha))
        assert np.all(np.isfinite(solution.desirability.log_phi))
        assert np.all(np.isfinite(solution.policy.probs))
        flows[alpha] = solution.flow.distributions

    def entropy(p):
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())

    dest_x, dest_y = FIG2_DESTINATION % FIG2_WIDTH, FIG2_DESTINATION // FIG2_WIDTH
    manhattan = np.array(
        [abs(i % FIG2_WIDTH - dest_x) + abs(i // FIG2_WIDTH - dest_y) for i in range(100)]
    )
    near_mass = flows[0.1][-1][manhattan <= 2].sum()
    elapsed = time.perf_counter() - start

    assert entropy(flows[1.0][35]) > entropy(flows[0.1][35])
    assert near_mass >= 0.99
    _report(
        7,
        elapsed,
        10.0,
        f"entropies {entropy(flows[0.1][35]):.3f} < {entropy(flows[1.0][35]):.3f}; "
        f"{100 * near_mass:.2f}% of mass ends within distance 2 of the destination",
    )


def test_criterion_8_strong_time_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    worst = 0.0
    checked = 0
    while checked < 20:
        scenario = random_scenario(rng, max_horizon=10)
        if scenario.horizon < 2:
            continue
        checked += 1
        t_star = int(rng.integers(1, scenario.horizon))
        injected = Distribution(rng.dirichlet(np.ones(scenario.graph.node_count)))
        sub = truncate_scenario(scenario, t_star, injected)
        full_phi = backward_pass(scenario)
        sub_phi = backward_pass(sub)
        full_policy = extract_policy(scenario, full_phi)
        sub_policy = extract_policy(sub, sub_phi)
        worst = max(worst, float(np.max(np.abs(sub_phi.log_phi - full_phi.log_phi[t_star:]))))
        worst = max(worst, float(np.max(np.abs(sub_policy.probs - full_policy.probs[t_star:]))))
    elapsed = time.perf_counter() - start

    assert worst <= 1e-14
    _report(8, elapsed, 10.0, f"20 truncated subgames reproduce their tails; worst gap {worst:.2e}")


def test_criterion_9_property_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(909)

    # simplex / row-stochasticity preservation and mass conservation
    for _ in range(10):
        scenario = random_scenario(rng)
        policy = extract_policy(scenario, backward_pass(scenario))
        g = scenario.graph
        for t in range(scenario.horizon):
            sums = np.add.reduceat(policy.probs[t], g.row_start[:-1])
            assert np.all(policy.probs[t] >= 0)
            assert np.max(np.abs(sums - 1.0)) <= 1e-12
        flow = propagate(scenario, random_policy(scenario, rng))
        assert np.max(np.abs(flow.distributions.sum(axis=1) - 1.0)) <= 1e-12

    # Poisson-binomial degeneracy onto the binomial form
    for _ in range(10):
        n_players = int(rng.integers(2, 30))
        node_p = float(rng.uniform(0.05, 1.0))
        edge_p = float(rng.uniform(0.0, 1.0))
        ref = float(rng.uniform(0.05, 0.95))
        alpha = float(rng.uniform(0.1, 5.0))
        hetero = expected_tax_heterogeneous(
            n_players,
            np.full(n_players - 1, node_p * edge_p),
            np.full(n_players - 1, node_p),
            ref,
            alpha,
        )
        symmetric = expected_tax_symmetric(n_players, node_p, edge_p, ref, alpha)
        assert abs(hetero - symmetric) <= 1e-12

    # belief-averaging identity in fictitious play
    game = SingleStageGame(np.array([2.0, 1.0, 3.0]), np.full(3, 1 / 3), 1.0, 40)
    result = fp_run(game, np.full(3, 1 / 3), days=300)
    beliefs = result.path.beliefs
    for day in range(1, len(beliefs)):
        pulse = np.zeros(3)
        pulse[result.path.choices[day - 1]] = 1.0
        expected = beliefs[day - 1] * (day / (day + 1)) + pulse / (day + 1)
        assert np.max(np.abs(beliefs[day] - expected)) <= 1e-14
        assert np.all(beliefs[day] >= 0)
        assert abs(beliefs[day].sum() - 1.0) <= 1e-12

    # KKT residuals of the symmetric-equilibrium solver
    for _ in range(5):
        routes = int(rng.integers(2, 6))
        costs = rng.uniform(-3.0, 3.0, size=routes)
        reference = 0.9 * rng.dirichlet(np.ones(routes)) + 0.1 / routes
        game = SingleStageGame(
            costs, reference / reference.sum(), float(rng.uniform(0.1, 5.0)), int(rng.integers(2, 250))
        )
        result = solve_symmetric_ne(game)
        assert result.residuals.max() <= 1e-8
    elapsed = time.perf_counter() - start

    _report(9, elapsed, 30.0, "stochasticity, conservation, degeneracy, averaging, KKT all green")
