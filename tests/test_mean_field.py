from __future__ import annotations

import math
import re

import numpy as np
import pytest

from helpers import (
    cost_plain_loop,
    edge_slice,
    equalizer_gap_per_trial,
    evaluate_policy_cost_per_trial,
    random_policy_one_shot,
    random_scenario,
    shortest_path_nodes,
)
from mftroute import (
    Distribution,
    PolicyKernel,
    ReferencePolicy,
    Scenario,
    StageCosts,
    ZeroSupportError,
    backward_pass,
    build_gridworld,
    equalizer_gap,
    evaluate_policy_cost,
    mfe_solve,
    propagate,
    random_policy,
    simulate_population,
    value,
)
from mftroute import mean_field
from mftroute.cli import (
    FIG2_DESTINATION,
    FIG2_HEIGHT,
    FIG2_OBSTACLES,
    FIG2_ORIGIN,
    FIG2_WIDTH,
    fig2_scenario,
)


def _self_loop_policy(scenario: Scenario) -> PolicyKernel:
    probs = np.zeros((scenario.horizon, scenario.graph.edge_count))
    for i in range(scenario.graph.node_count):
        e = scenario.graph.edge_index(i, i)
        probs[:, e] = 1.0
    return PolicyKernel(probs)


def test_propagate_self_loops_freeze_the_distribution():
    scenario = fig2_scenario(1.0)
    flow = propagate(scenario, _self_loop_policy(scenario))
    for t in range(scenario.horizon + 1):
        np.testing.assert_array_equal(flow.distributions[t], scenario.initial.mass)


def test_propagate_three_route_first_step_is_the_policy_row(three_route):
    solution = mfe_solve(three_route)
    np.testing.assert_allclose(
        solution.flow.distributions[1][1:], solution.policy.probs[0, :3], rtol=0, atol=1e-15
    )


def test_propagate_matches_large_population_monte_carlo():
    rng = np.random.default_rng(21)
    scenario = random_scenario(rng, max_nodes=5, max_horizon=4)
    policy = random_policy(scenario, rng)
    flow = propagate(scenario, policy)

    n_agents = 1_000_000
    sample = simulate_population(scenario, policy, n_agents, seed=123)
    for t in range(scenario.horizon + 1):
        empirical = sample.node_counts[t] / n_agents
        stderr = np.sqrt(flow.distributions[t] * (1 - flow.distributions[t]) / n_agents)
        assert np.all(np.abs(empirical - flow.distributions[t]) <= 3 * stderr + 1e-9)


def test_propagate_is_linear_in_the_initial_distribution():
    rng = np.random.default_rng(22)
    scenario = random_scenario(rng)
    policy = random_policy(scenario, rng)
    v = scenario.graph.node_count
    p_a = rng.dirichlet(np.ones(v))
    p_b = rng.dirichlet(np.ones(v))

    def with_initial(mass):
        return Scenario(
            scenario.graph, scenario.costs, scenario.reference, scenario.alpha, Distribution(mass)
        )

    mixed = propagate(with_initial((p_a + p_b) / 2), policy)
    flow_a = propagate(with_initial(p_a), policy)
    flow_b = propagate(with_initial(p_b), policy)
    np.testing.assert_allclose(
        mixed.distributions,
        (flow_a.distributions + flow_b.distributions) / 2,
        rtol=0,
        atol=1e-12,
    )


def test_mass_conservation():
    rng = np.random.default_rng(23)
    for _ in range(10):
        scenario = random_scenario(rng)
        flow = propagate(scenario, random_policy(scenario, rng))
        np.testing.assert_allclose(flow.distributions.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_cost_of_equilibrium_against_itself_is_the_optimal_value(three_route):
    solution = mfe_solve(three_route)
    v0 = value(solution.desirability, three_route.initial, 0)
    cost = evaluate_policy_cost(three_route, solution.policy, solution.policy)
    assert cost == pytest.approx(v0, abs=1e-10)


def test_reference_deviation_attains_the_same_cost(three_route):
    solution = mfe_solve(three_route)
    v0 = value(solution.desirability, three_route.initial, 0)
    reference = PolicyKernel(three_route.reference.probs)
    cost = evaluate_policy_cost(three_route, reference, solution.policy)
    assert cost == pytest.approx(v0, abs=1e-10)
    assert cost == pytest.approx(cost_plain_loop(three_route, reference, solution.policy), abs=1e-12)


def test_population_at_reference_means_toll_free_travel_cost(three_route):
    reference = PolicyKernel(three_route.reference.probs)
    cost = evaluate_policy_cost(three_route, reference, reference)
    assert cost == pytest.approx(2.0, abs=1e-12)  # mean travel cost of the uniform row


def test_zero_support_edge_is_reported():
    rng = np.random.default_rng(24)
    scenario = random_scenario(rng, point_mass_start=True)
    population = random_policy(scenario, rng).probs.copy()
    start = int(np.flatnonzero(scenario.initial.mass)[0])
    sl = edge_slice(scenario.graph, start)
    population[0, sl.start] = 0.0
    population[0, sl] /= population[0, sl].sum()
    deviation = np.zeros_like(population)
    deviation[:, :] = random_policy(scenario, rng).probs
    deviation[0, sl] = 0.0
    deviation[0, sl.start] = 1.0
    with pytest.raises(ZeroSupportError) as excinfo:
        evaluate_policy_cost(scenario, PolicyKernel(deviation), PolicyKernel(population))
    assert excinfo.value.t == 0
    assert excinfo.value.node == start


def test_equalizer_gap_at_the_fixed_point_itself(three_route):
    solution = mfe_solve(three_route)
    gap = equalizer_gap(three_route, solution.policy, [solution.policy], solution.desirability)
    assert gap <= 1e-12


def test_equalizer_gap_over_random_deviations():
    rng = np.random.default_rng(25)
    scenario = random_scenario(rng, max_nodes=6, max_horizon=8)
    solution = mfe_solve(scenario)
    trials = [random_policy(scenario, rng) for _ in range(100)]
    assert equalizer_gap(scenario, solution.policy, trials, solution.desirability) <= 1e-8


def test_reference_policy_is_not_an_equalizer(three_route):
    solution = mfe_solve(three_route)
    reference = PolicyKernel(three_route.reference.probs)
    trials = [solution.policy, reference]
    gap = equalizer_gap(three_route, reference, trials)
    assert gap > 0.1


def _bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def _stationary(scenario: Scenario, rng: np.random.Generator) -> Scenario:
    """The scenario's stage-0 cost and reference rows broadcast over every stage, plus a terminal cost."""
    shape = scenario.costs.stage.shape
    costs = StageCosts(
        scenario.horizon,
        np.broadcast_to(scenario.costs.stage[0], shape),
        rng.uniform(-2.0, 2.0, scenario.graph.node_count),
    )
    reference = ReferencePolicy(np.broadcast_to(scenario.reference.probs[0], shape))
    return Scenario(scenario.graph, costs, reference, scenario.alpha, scenario.initial)


@pytest.mark.parametrize("trial_count", [1, 3, 8])
@pytest.mark.parametrize("stationary", [False, True], ids=["per-stage", "stationary"])
@pytest.mark.parametrize("seed", range(8))
def test_one_pass_kernels_match_the_per_trial_references(seed, stationary, trial_count):
    """random_policy, evaluate_policy_cost and equalizer_gap keep every bit of the per-trial kernels."""
    rng = np.random.default_rng(seed)
    scenario = random_scenario(rng, point_mass_start=seed % 2 == 1)
    if stationary:
        scenario = _stationary(scenario, rng)
    solution = mfe_solve(scenario)
    v0 = value(solution.desirability, scenario.initial, 0)
    draws, reference_draws = np.random.default_rng(seed), np.random.default_rng(seed)
    trials = [random_policy(scenario, draws) for _ in range(trial_count)]
    for trial in trials:
        want = random_policy_one_shot(scenario, reference_draws)
        assert trial.probs.tobytes() == want.probs.tobytes()
    # the extracted policy has log_probs; a random population tolls through log(probs)
    for population in (solution.policy, random_policy(scenario, draws)):
        for trial in [*trials, solution.policy]:
            got = evaluate_policy_cost(scenario, trial, population)
            assert _bits(got) == _bits(evaluate_policy_cost_per_trial(scenario, trial, population))
        got = equalizer_gap(scenario, population, trials, solution.desirability)
        assert _bits(got) == _bits(equalizer_gap_per_trial(scenario, population, trials, v0))
    # a population with zeros tolls -inf on edges that a trial of its own support never uses
    g = scenario.graph
    probs = random_policy(scenario, draws).probs
    kept = np.where(2 * probs >= np.maximum.reduceat(probs, g.row_start[:-1], axis=1)[:, g.edge_src], probs, 0.0)
    sparse = PolicyKernel(kept / np.add.reduceat(kept, g.row_start[:-1], axis=1)[:, g.edge_src])
    assert np.isneginf(sparse.toll_log()).any()
    got = equalizer_gap(scenario, sparse, [sparse, sparse], solution.desirability)
    assert _bits(got) == _bits(equalizer_gap_per_trial(scenario, sparse, [sparse], v0))


def _fault_grid() -> tuple[Scenario, PolicyKernel]:
    scenario = build_gridworld(6, 5, [8, 14, 21], 0, 29, 12, 0.3)
    return scenario, mfe_solve(scenario).policy


def _spoiled_trial(scenario: Scenario, seed: int, spoil) -> PolicyKernel:
    probs = random_policy(scenario, np.random.default_rng(seed)).probs.copy()
    spoil(probs)
    return PolicyKernel(probs)


def _nan_entry(probs):
    probs[3, 7] = np.nan


def _negative_entry(probs):
    probs[3, 7] = -probs[3, 7]


def _nan_row(probs):
    probs[3, :] = np.nan


@pytest.mark.parametrize("spoil", [_nan_entry, _negative_entry, _nan_row], ids=["nan", "negative", "nan-row"])
def test_a_trial_entry_that_is_not_nonnegative_is_rejected_with_its_place(spoil):
    scenario, population = _fault_grid()
    g = scenario.graph
    bad = _spoiled_trial(scenario, 0, spoil)
    e = int(np.flatnonzero(~(bad.probs[3] >= 0))[0])
    place = f"at stage 3, node {int(g.edge_src[e])}, edge to {int(g.edge_dst[e])}"
    with pytest.raises(ValueError, match=f"trial policy 0 has probability .* {place}") as excinfo:
        evaluate_policy_cost(scenario, bad, population)
    assert type(excinfo.value) is ValueError
    trials = [random_policy(scenario, np.random.default_rng(seed)) for seed in (1, 2)] + [bad]
    with pytest.raises(ValueError, match=f"trial policy 2 has probability .* {place}") as excinfo:
        equalizer_gap(scenario, population, trials)
    assert type(excinfo.value) is ValueError


@pytest.mark.parametrize("node", [FIG2_ORIGIN, FIG2_DESTINATION], ids=["reached", "unreached"])
def test_an_infinite_trial_entry_is_rejected_with_its_place(node):
    # fig2 starts as a point mass at its origin: at stage 0 no mass stands at the destination
    scenario = fig2_scenario(1.0)
    solution = mfe_solve(scenario)
    g = scenario.graph
    e = edge_slice(g, node).start
    bad = _spoiled_trial(scenario, 0, lambda probs: probs.__setitem__((0, e), np.inf))
    place = f"at stage 0, node {node}, edge to {int(g.edge_dst[e])}; routing probabilities must be finite and >= 0"
    with pytest.raises(ValueError, match=f"^trial policy 0 has probability inf {re.escape(place)}$"):
        evaluate_policy_cost(scenario, bad, solution.policy)
    trials = [random_policy(scenario, np.random.default_rng(1)), bad]
    with pytest.raises(ValueError, match=f"^trial policy 1 has probability inf {re.escape(place)}$"):
        equalizer_gap(scenario, solution.policy, trials, solution.desirability)


def test_a_nan_cost_makes_the_equalizer_gap_nan(monkeypatch, three_route):
    solution = mfe_solve(three_route)
    monkeypatch.setattr(mean_field, "_deviation_costs", lambda *args: [1.0, math.nan, 2.0])
    assert math.isnan(equalizer_gap(three_route, solution.policy, [], solution.desirability))
    monkeypatch.setattr(mean_field, "_deviation_costs", lambda *args: [])
    assert equalizer_gap(three_route, solution.policy, [], solution.desirability) == 0.0


def test_equalizer_gap_raises_the_first_failed_trials_zero_support_error():
    """Trial 2 meets a zero-support edge at stage 1, trial 1 only at stage 5; trial 1's error is raised."""
    scenario, _ = _fault_grid()
    g = scenario.graph
    start = int(np.flatnonzero(scenario.initial.mass)[0])
    early, late = edge_slice(g, start).start, edge_slice(g, start).stop - 1

    def without(probs, *cells):
        for t, e in cells:
            probs[t, e] = 0.0
            row = edge_slice(g, int(g.edge_src[e]))
            probs[t, row] /= probs[t, row].sum()

    population = _spoiled_trial(scenario, 10, lambda p: without(p, (1, early), (5, late)))
    trials = [
        _spoiled_trial(scenario, 11, lambda p: without(p, (1, early), (5, late))),
        _spoiled_trial(scenario, 12, lambda p: without(p, (1, early))),
        random_policy(scenario, np.random.default_rng(13)),
    ]
    with pytest.raises(ZeroSupportError) as excinfo:
        equalizer_gap(scenario, population, trials)
    want = (5, start, int(g.edge_dst[late]))
    assert (excinfo.value.t, excinfo.value.node, excinfo.value.dest) == want
    with pytest.raises(ZeroSupportError) as excinfo:
        equalizer_gap_per_trial(scenario, population, trials, 0.0)
    assert (excinfo.value.t, excinfo.value.node, excinfo.value.dest) == want
    with pytest.raises(ZeroSupportError) as excinfo:
        evaluate_policy_cost(scenario, trials[2], population)
    assert (excinfo.value.t, excinfo.value.node, excinfo.value.dest) == (1, start, int(g.edge_dst[early]))
    evaluate_policy_cost(scenario, trials[0], population)
    misshaped = PolicyKernel(trials[0].probs[:-1])
    with pytest.raises(ValueError, match=r"policy shape \(11, \d+\), expected \(12, \d+\)") as excinfo:
        equalizer_gap(scenario, population, [*trials, misshaped])
    assert type(excinfo.value) is ValueError


def test_mfe_concentrates_on_shortest_paths_for_small_alpha():
    scenario = fig2_scenario(0.1)
    solution = mfe_solve(scenario)
    geodesic = shortest_path_nodes(
        FIG2_WIDTH, FIG2_HEIGHT, FIG2_OBSTACLES, FIG2_ORIGIN, FIG2_DESTINATION
    )
    mass_on_geodesics = solution.flow.distributions[35][sorted(geodesic)].sum()
    assert mass_on_geodesics >= 0.90


def test_larger_alpha_spreads_the_population():
    def entropy_at_35(alpha):
        flow = mfe_solve(fig2_scenario(alpha)).flow
        p = flow.distributions[35]
        p = p[p > 0]
        return float(-(p * np.log(p)).sum())

    assert entropy_at_35(1.0) > entropy_at_35(0.1)
