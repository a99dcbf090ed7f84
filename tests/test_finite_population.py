from __future__ import annotations

import contextlib
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import (
    edge_slice,
    exact_expected_log_share,
    interior_log_shares_gather,
    random_scenario,
    realized_taxes_loop,
    simulate_population_mask_loop,
    simulate_population_multinomial_loop,
)
from mftroute import (
    Distribution,
    PolicyKernel,
    PopulationSample,
    ReferencePolicy,
    Scenario,
    StageCosts,
    TrafficGraph,
    best_response_finite_n,
    build_gridworld,
    expected_tax_heterogeneous,
    expected_tax_symmetric,
    expected_tax_gap,
    mfe_solve,
    poisson_binomial_pmf,
    random_policy,
    realized_taxes,
    simulate_population,
    simulate_replications,
)
from mftroute import finite_population
from mftroute.cli import fig2_scenario
from mftroute.finite_population import _CHUNK_FLOATS, PROB_TOL, binomial_expected_log_share


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_single_agent_counts_are_indicator_valued(three_route):
    solution = mfe_solve(three_route)
    sample = simulate_population(three_route, solution.policy, 1, seed=0)
    assert set(np.unique(sample.node_counts)) <= {0, 1}
    assert set(np.unique(sample.edge_counts)) <= {0, 1}


def test_sampling_is_reproducible_and_seed_sensitive(three_route):
    solution = mfe_solve(three_route)
    a = simulate_population(three_route, solution.policy, 500, seed=7)
    b = simulate_population(three_route, solution.policy, 500, seed=7)
    c = simulate_population(three_route, solution.policy, 500, seed=8)
    for name in ("node_counts", "edge_counts"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert not np.array_equal(a.edge_counts, c.edge_counts)


def test_tally_consistency_and_deterministic_motion():
    rng = np.random.default_rng(31)
    scenario = random_scenario(rng, max_nodes=6, max_horizon=5)
    policy = random_policy(scenario, rng)
    n_agents = 400
    sample = simulate_population(scenario, policy, n_agents, seed=2)

    assert np.all(sample.node_counts.sum(axis=1) == n_agents)
    g = scenario.graph
    for t in range(scenario.horizon):
        per_node = np.add.reduceat(sample.edge_counts[t], g.row_start[:-1])
        np.testing.assert_array_equal(per_node, sample.node_counts[t])


def test_deterministic_policy_comoves_everybody(three_route):
    probs = np.zeros((1, three_route.graph.edge_count))
    probs[0, 1] = 1.0  # everyone picks the middle route
    probs[0, 3:] = 1.0  # sink self-loops
    sample = simulate_population(three_route, PolicyKernel(probs), 64, seed=3)
    assert set(np.unique(sample.edge_counts[0])) <= {0, 64}


@pytest.mark.parametrize("n_agents", [127, 128, 255, 256, 32767, 32768, 65535, 65536])
def test_a_whole_population_on_one_edge_is_counted_at_the_count_type_limits(three_route, n_agents):
    # one node holds all N agents and every one takes the same edge, N on each side of 8- and 16-bit limits
    probs = np.zeros((1, three_route.graph.edge_count))
    probs[0, 1] = 1.0
    probs[0, 3:] = 1.0
    sample = simulate_population(three_route, PolicyKernel(probs), n_agents, seed=3)
    assert sample.edge_counts.tolist() == [[0, n_agents, 0, 0, 0, 0]]
    assert sample.node_counts[:, 2].tolist() == [0, n_agents]


def test_route_frequencies_match_policy_within_three_standard_errors(three_route):
    solution = mfe_solve(three_route)
    n_agents = 1_000_000
    sample = simulate_population(three_route, solution.policy, n_agents, seed=11)
    freqs = sample.edge_counts[0, :3] / n_agents
    target = solution.policy.probs[0, :3]
    stderr = np.sqrt(target * (1 - target) / n_agents)
    assert np.all(np.abs(freqs - target) <= 3 * stderr)


def _sharp_policy(scenario: Scenario, rng: np.random.Generator) -> PolicyKernel:
    """0.97 on one random edge of each row: the population stays near one node for a few stages."""
    g = scenario.graph
    probs = np.empty((scenario.horizon, g.edge_count))
    for t in range(scenario.horizon):
        for i in range(g.node_count):
            sl = edge_slice(g, i)
            deg = sl.stop - sl.start
            row = np.full(deg, 0.03 / max(deg - 1, 1))
            row[rng.integers(deg)] = 0.97 if deg > 1 else 1.0
            probs[t, sl] = row
    return PolicyKernel(probs)


def test_sampler_is_bit_identical_to_the_multinomial_loop():
    rng = np.random.default_rng(40)
    hub_visits = 0  # samples in which a node of degree above 5 was occupied
    for case in range(12):
        scenario = random_scenario(rng, max_nodes=10, max_horizon=6, point_mass_start=case % 2 == 0, max_degree=8)
        hubs = np.diff(scenario.graph.row_start) > 5
        policy = (random_policy if case % 4 < 2 else _sharp_policy)(scenario, rng)
        for n_agents in (1, 2, 37, 400, 5000):
            for seed in (int(rng.integers(1000)), *np.random.SeedSequence(int(rng.integers(1000))).spawn(2)):
                got = simulate_population(scenario, policy, n_agents, seed)
                want = simulate_population_multinomial_loop(scenario, policy, n_agents, seed)
                for name in ("node_counts", "edge_counts"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
                assert (got.n_agents, got.seed, got.spawn_key) == (want.n_agents, want.seed, want.spawn_key)
                hub_visits += bool(got.node_counts[:-1, hubs].any())
    assert hub_visits >= 1


def test_a_non_stochastic_row_at_an_occupied_node_is_located():
    scenario = build_gridworld(6, 5, [8, 14, 21], 0, 29, 12, 0.3)
    policy = mfe_solve(scenario).policy
    g = scenario.graph
    sample = simulate_population(scenario, policy, 50, seed=6)
    # stage 0 is the point mass at node 0; at stage 3 take the last occupied node
    for t, node in ((0, 0), (3, int(np.flatnonzero(sample.node_counts[3])[-1]))):
        sl = edge_slice(g, node)
        dests = g.edge_dst[sl].tolist()
        last = sl.stop - 1
        bad_entry = f"at stage {t}, node {node}, edge to {dests[-1]}; routing probabilities must be finite and >= 0"
        cases = [
            (sl, 0.0, f"policy row at stage {t}, node {node} (edges to {', '.join(map(str, dests))}) sums to 0.0; "
             "an occupied node's routing probabilities must have a positive finite sum"),
            (last, math.nan, f"policy has probability nan {bad_entry}"),
            (last, -0.25, f"policy has probability -0.25 {bad_entry}"),
            (last, math.inf, f"policy has probability inf {bad_entry}"),
        ]
        for where, value, message in cases:
            probs = policy.probs.copy()
            probs[t, where] = value
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                simulate_population(scenario, PolicyKernel(probs), 50, seed=6)

    # rows are scaled by their totals, and rows where nobody stands are not read
    doubled = simulate_population(scenario, PolicyKernel(policy.probs * 2.0), 50, seed=6)
    probs = policy.probs.copy()
    probs[0, edge_slice(g, 29)] = math.nan
    unread = simulate_population(scenario, PolicyKernel(probs), 50, seed=6)
    for other in (doubled, unread):
        for name in ("node_counts", "edge_counts"):
            assert getattr(other, name).tobytes() == getattr(sample, name).tobytes()


def _hub_scenario(rng, nodes: int, hub_degree: int, horizon: int, start: str, zeros: float, scale: float):
    """Node 0 is a hub of the given degree and most nodes lead back to it; the rest have degree 1-6.

    The policy zeroes about ``zeros`` of each row's entries (never all of
    them) and multiplies the row by ``scale``; the reference has no zeros.
    """
    neigh = [tuple(sorted(rng.choice(nodes, size=hub_degree, replace=False).tolist()))]
    for _ in range(1, nodes):
        row = set(rng.choice(nodes, size=int(rng.integers(1, min(6, nodes) + 1)), replace=False).tolist())
        if rng.random() < 0.7:
            row.add(0)
        neigh.append(tuple(sorted(row)))
    graph = TrafficGraph(tuple(neigh))
    reference = np.empty((horizon, graph.edge_count))
    probs = np.empty((horizon, graph.edge_count))
    for t in range(horizon):
        for i in range(nodes):
            sl = edge_slice(graph, i)
            reference[t, sl] = rng.dirichlet(np.ones(sl.stop - sl.start))
            row = rng.dirichlet(np.ones(sl.stop - sl.start))
            cut = rng.random(len(row)) < zeros
            cut[rng.integers(len(row))] = False
            row[cut] = 0.0
            probs[t, sl] = scale * row
    initial = {
        "hub": Distribution.point_mass(nodes, 0),
        "uniform": Distribution(np.full(nodes, 1.0 / nodes)),
        "dirichlet": Distribution(rng.dirichlet(np.ones(nodes))),
    }[start]
    costs = StageCosts(horizon, np.zeros((horizon, graph.edge_count)))
    return Scenario(graph, costs, ReferencePolicy(reference), 1.0, initial), PolicyKernel(probs)


def _same_as_multinomial_loop(scenario, policy, n_agents, seed) -> set[str]:
    """Assert the sampler matches the per-node loop bit for bit, error message included; name what the sample used."""
    try:
        want = simulate_population_multinomial_loop(scenario, policy, n_agents, seed)
    except ValueError as error:
        with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
            simulate_population(scenario, policy, n_agents, seed)
        return {"bad row"}
    got = simulate_population(scenario, policy, n_agents, seed)
    for name in ("node_counts", "edge_counts"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    g = scenario.graph
    degrees = np.diff(g.row_start)
    uses = set()
    for t, counts in enumerate(got.node_counts[:-1]):
        at = np.flatnonzero(counts)
        rows = [policy.probs[t, edge_slice(g, i)] for i in at]
        if len(set(degrees[at].tolist())) > 1:
            uses.add("padding")
        # the totals are summed in sequence: from 8 entries np.sum would add pairwise, and padding would change it
        if degrees[at].max() >= 8:
            uses.add("rows of 8 entries or more")
        if any((row[: np.flatnonzero(row)[-1]] == 0.0).any() for row in rows):
            uses.add("zeros before the last positive entry")
        if any(row[-1] == 0.0 for row in rows):
            uses.add("zeros after the last positive entry")
        if any(row.sum() != 1.0 for row in rows):
            uses.add("totals other than 1")
    return uses


_BAD_VALUES = (math.nan, -0.5, math.inf)


def _with_bad_rows(scenario, policy, rng, bad: int):
    """The policy with ``bad`` random stage-0 rows spoiled: one entry NaN, negative or inf, or the whole row 0."""
    probs = policy.probs.copy()
    for i in rng.choice(scenario.graph.node_count, size=min(bad, scenario.graph.node_count), replace=False).tolist():
        sl = edge_slice(scenario.graph, i)
        kind = int(rng.integers(len(_BAD_VALUES) + 1))
        if kind == len(_BAD_VALUES):
            probs[0, sl] = 0.0
        else:
            probs[0, sl.start + int(rng.integers(sl.stop - sl.start))] = _BAD_VALUES[kind]
    return PolicyKernel(probs)


@given(
    seed=st.integers(0, 2**32 - 1),
    nodes=st.integers(2, 320),
    hub_degree=st.integers(1, 320),
    horizon=st.integers(1, 4),
    start=st.sampled_from(["hub", "uniform", "dirichlet"]),
    zeros=st.sampled_from([0.0, 0.3, 0.6]),
    scale=st.sampled_from([1.0, 2.0, 0.37]),
    n_agents=st.integers(1, 3000),
    bad=st.integers(0, 3),
)
@example(seed=1, nodes=300, hub_degree=300, horizon=3, start="uniform", zeros=0.3, scale=2.0, n_agents=3000, bad=0)
@example(seed=2, nodes=300, hub_degree=290, horizon=2, start="hub", zeros=0.6, scale=1.0, n_agents=2000, bad=0)
@example(seed=3, nodes=300, hub_degree=5, horizon=1, start="uniform", zeros=0.0, scale=1.0, n_agents=3000, bad=3)
# every agent starts at a hub of one edge and takes it, at N = 2**7 and 2**15
@example(seed=4, nodes=40, hub_degree=1, horizon=2, start="hub", zeros=0.3, scale=1.0, n_agents=128, bad=0)
@example(seed=5, nodes=40, hub_degree=1, horizon=2, start="hub", zeros=0.0, scale=2.0, n_agents=32768, bad=0)
def test_hub_stages_are_bit_identical_to_the_multinomial_loop(
    seed, nodes, hub_degree, horizon, start, zeros, scale, n_agents, bad
):
    rng = np.random.default_rng(seed)
    scenario, policy = _hub_scenario(rng, nodes, min(hub_degree, nodes), horizon, start, zeros, scale)
    if bad:
        policy = _with_bad_rows(scenario, policy, rng, bad)
    _same_as_multinomial_loop(scenario, policy, n_agents, int(rng.integers(1000)))


def test_the_hub_cases_cover_every_row_layout():
    uses = set()
    for case, (nodes, hub_degree, start, n_agents) in enumerate(
        [(300, 300, "uniform", 3000), (300, 290, "hub", 2000), (12, 9, "dirichlet", 500), (40, 3, "hub", 37)]
    ):
        rng = np.random.default_rng(60 + case)
        scenario, policy = _hub_scenario(rng, nodes, hub_degree, 3, start, 0.3, 2.0)
        uses |= _same_as_multinomial_loop(scenario, policy, n_agents, case)
    assert uses == {
        "padding",
        "rows of 8 entries or more",
        "zeros before the last positive entry",
        "zeros after the last positive entry",
        "totals other than 1",
    }


def test_the_lowest_bad_occupied_row_is_named():
    rng = np.random.default_rng(61)
    scenario, policy = _hub_scenario(rng, 40, 10, 2, "uniform", 0.0, 1.0)
    g = scenario.graph
    assert simulate_population(scenario, policy, 4000, seed=1).node_counts[0].all()
    probs = policy.probs.copy()
    spoiled = [(33, math.inf), (7, -0.5), (21, math.nan)]
    for node, value in spoiled:
        probs[0, edge_slice(g, node).stop - 1] = value
    probs[1, edge_slice(g, 2)] = 0.0  # a later stage's fault comes second
    for node, value in sorted(spoiled) + [(2, None)]:
        if value is None:
            message = f"policy row at stage 1, node 2 (edges to {', '.join(map(str, g.out_neighbors[2]))}) sums to 0.0"
        else:
            message = f"policy has probability {value!r} at stage 0, node {node}, edge to {g.out_neighbors[node][-1]};"
        for sampler in (simulate_population, simulate_population_multinomial_loop):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                sampler(scenario, PolicyKernel(probs.copy()), 4000, seed=1)
        if value is not None:
            probs[0, edge_slice(g, node)] = policy.probs[0, edge_slice(g, node)]


@pytest.mark.parametrize("row", [[1e-320, 0.0], [0.0, 1e-320], [5e-324, 5e-324], [1e-310, 3e-310]])
def test_a_sub_normal_row_total_keeps_agents_on_their_node(row):
    scenario = build_gridworld(3, 1, [], 0, 2, 1, 1.0)
    g = scenario.graph
    probs = mfe_solve(scenario).policy.probs.copy()
    probs[0, edge_slice(g, 0)] = row
    sample = simulate_population(scenario, PolicyKernel(probs), 20_000, seed=1)
    for t in range(scenario.horizon):
        np.testing.assert_array_equal(np.add.reduceat(sample.edge_counts[t], g.row_start[:-1]), sample.node_counts[t])
    assert not sample.edge_counts[probs == 0.0].any()


class _RecordingGenerator:
    """A Generator that keeps every probability table handed to its multinomial."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.pvals = []

    def multinomial(self, n, pvals):
        self.pvals.append(np.array(pvals))
        return self.rng.multinomial(n, pvals)


def test_every_multinomial_row_ends_at_a_positive_probability(monkeypatch):
    # numpy's multinomial gives its last column whatever the earlier ones leave over: for this row
    # 0.5774932122512072 / (1 - 0.42250678774879274) rounds below 1, so a zero last would take agents
    graph = TrafficGraph(((0, 1, 2, 3, 4, 5), *((0, i, (i + 1) % 6) for i in range(1, 6))))
    probs = np.zeros((2, graph.edge_count))
    for t in range(2):
        probs[t, :6] = [0.1, 0.2, 0.3, 0.4, 0.0, 0.0]
        for i in range(1, 6):
            probs[t, edge_slice(graph, i)] = [0.42250678774879274, 0.5774932122512072, 0.0]
    scenario = Scenario(
        graph,
        StageCosts(2, np.zeros((2, graph.edge_count))),
        ReferencePolicy(np.full((2, graph.edge_count), 1.0 / 3.0)),
        1.0,
        Distribution(np.array([0.0, 0.2, 0.2, 0.2, 0.2, 0.2])),
    )
    rng = _RecordingGenerator(np.random.default_rng(3))
    monkeypatch.setattr(np.random, "default_rng", lambda seeds: rng)
    sample = simulate_population(scenario, PolicyKernel(probs), 5000, seed=3)
    # P_0, then stage 0 (nodes 1-5) and stage 1 (the hub too: the other rows are padded to its degree)
    assert [pvals.shape for pvals in rng.pvals] == [(6,), (5, 3), (6, 6)]
    assert all((pvals[..., -1] > 0.0).all() for pvals in rng.pvals)
    assert not sample.edge_counts[probs == 0.0].any()
    assert not sample.node_counts[0, 0]


@pytest.mark.parametrize(
    "mass, message",
    [
        ([0.5, -0.25, 0.75, 0.0], "initial mass -0.25 at node 1; initial masses must be >= 0"),
        ([0.5, math.nan, 0.5, 0.0], "initial mass nan at node 1; initial masses must be >= 0"),
        ([0.5, 0.5, 2e-8, 0.0], "initial mass sums to 1.00000002; it must sum to 1 within 1.4901161193847656e-08"),
        ([0.5, math.inf, 0.0, 0.0], "initial mass sums to inf; it must sum to 1 within 1.4901161193847656e-08"),
        ([0.0, 0.0, 0.0, 0.0], "initial mass sums to 0.0; it must sum to 1 within 1.4901161193847656e-08"),
        ([0.5, 0.5, 1e-8, -0.0], None),
        ([0.25, 0.25, 0.25, 0.25 - 1e-8], None),
    ],
)
def test_the_initial_mass_is_checked_as_generator_choice_checks_it(monkeypatch, three_route, mass, message):
    scenario = dataclasses.replace(three_route, initial=Distribution(np.array(mass)))
    policy = mfe_solve(three_route).policy
    with pytest.raises(ValueError) if message else contextlib.nullcontext():
        np.random.default_rng(0).choice(4, p=scenario.initial.mass)
    if message is None:
        sample = simulate_population(scenario, policy, 1000, seed=2)
        assert not sample.node_counts[0, scenario.initial.mass == 0.0].any()
        return
    # rejected before a generator is made
    monkeypatch.setattr(np.random, "default_rng", None)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        simulate_population(scenario, policy, 1000, seed=2)


def test_an_occupied_node_without_edges_is_located():
    dead_end = Scenario(
        TrafficGraph(((1,), ())),
        StageCosts(2, np.ones((2, 1))),
        ReferencePolicy(np.ones((2, 1))),
        1.0,
        Distribution.point_mass(2, 0),
    )
    message = "policy row at stage 1, node 1 (no edges) sums to 0.0; "
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        simulate_population(dead_end, PolicyKernel(np.ones((2, 1))), 5, seed=1)


def test_a_rollout_keeps_counts_not_agent_paths():
    # fig2 at N = 1e5: one (T+1, N) int64 table of agent paths would be 56.8 MB
    scenario = fig2_scenario(1.0)
    policy = mfe_solve(scenario).policy
    n_agents = 100_000
    tracemalloc.start()
    try:
        simulate_population(scenario, policy, n_agents, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (scenario.horizon + 1) * n_agents * 8 / 4


def test_a_hub_stage_holds_no_table_of_agents_by_edge():
    # every agent at a hub of degree 300: a table of 20 000 agents by 300 edges would be 48 MB
    rng = np.random.default_rng(70)
    scenario, policy = _hub_scenario(rng, 300, 300, 1, "hub", 0.0, 1.0)
    n_agents = 20_000
    tracemalloc.start()
    try:
        simulate_population(scenario, policy, n_agents, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak


def test_simulate_replications_rejects_a_bad_rep_count(three_route):
    policy = mfe_solve(three_route).policy
    for reps, message in ((-1, "reps must be >= 0"), (2.5, "reps must be an integer, got 2.5")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            simulate_replications(three_route, policy, 10, 0, reps)
    assert list(simulate_replications(three_route, policy, 10, 0, 0)) == []
    assert [sample.spawn_key for sample in simulate_replications(three_route, policy, 10, 0, 2.0)] == [(0,), (1,)]


# ---------------------------------------------------------------------------
# Exact expected taxes
# ---------------------------------------------------------------------------

def test_single_player_tax_is_reference_surcharge_only():
    assert expected_tax_symmetric(1, 1.0, 0.42, 0.25, 2.0) == pytest.approx(
        -2.0 * math.log(0.25), abs=1e-15
    )


def test_certain_edge_choice_cancels_the_binomial_sums():
    # everyone at the node takes the edge: both count distributions coincide
    for n in (2, 17, 400):
        tax = expected_tax_symmetric(n, 0.6, 1.0, 0.5, 1.3)
        assert tax == pytest.approx(-1.3 * math.log(0.5), abs=1e-12)


def test_expected_log_share_matches_exact_rational_oracle():
    rng = np.random.default_rng(32)
    for n_players in (2, 3, 9, 33, 64):
        for prob in rng.uniform(0.02, 0.98, size=3):
            ours = binomial_expected_log_share(n_players, float(prob))
            oracle = exact_expected_log_share(n_players, float(prob))
            assert ours == pytest.approx(oracle, abs=1e-12)


# at N = 15 105 the table's np.log(1 / N) and math.log(1.0 / N) differ in the last ulp
@pytest.mark.parametrize("n_players", [2, 3, 10, 255, 256, 257, 1000, 5000, 15_105, 100_000])
def test_a_negligible_probability_takes_the_closed_form_bit_for_bit(monkeypatch, n_players):
    """Below 2**-60 / N the kernel returns the table's log(1 / N) without a sum, and the sum gives the same bits."""
    cut = 2.0**-60 / n_players
    probs = np.array([5e-324, cut / 3, math.nextafter(cut, 0.0), cut, math.nextafter(cut, 1.0)])
    summed = []
    kernel = finite_population._interior_log_shares

    def spy(n, values):
        summed.extend(values.tolist())
        return kernel(n, values)

    monkeypatch.setattr(finite_population, "_interior_log_shares", spy)
    want = interior_log_shares_gather(n_players, probs)
    assert binomial_expected_log_share(n_players, probs).tobytes() == want.tobytes()
    for p, value in zip(probs.tolist(), want.tolist()):
        assert binomial_expected_log_share(n_players, p).hex() == value.hex()
    # only the probabilities at or above the cut were summed
    assert summed and min(summed) == cut
    assert binomial_expected_log_share(n_players, 0.0).hex() == math.log(1.0 / n_players).hex()
    assert binomial_expected_log_share(n_players, np.array([0.0, cut / 3]))[0] == math.log(1.0 / n_players)


_SHARE_PROBS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0 + PROB_TOL, 5e-324, 1.0 - 1e-16]),
    st.floats(-300.0, -1.0).map(lambda e: 10.0**e),
    st.floats(0.0, 1.0),
)


@given(
    n_players=st.one_of(st.integers(2, 2000), st.integers(2, 100_000)),
    probs=st.lists(_SHARE_PROBS, min_size=1, max_size=40),
)
# above 256 players, windows as wide as the support (log pmf >= -746 at k = 0 and k = N - 1)
# and windows far narrower than it
@example(n_players=300, probs=[0.5, 0.4])
@example(n_players=1000, probs=[0.5, 1e-3, 0.999])
@example(n_players=100_000, probs=[0.5, 1e-4])
# more distinct interior probabilities than the smaller blocks hold: several blocks of logs,
# of window searches and of sums, over the whole support and over windows
@example(n_players=100, probs=[k / 61 for k in range(1, 61)])
@example(n_players=300, probs=[k / 97 for k in range(1, 97)])
@example(n_players=5000, probs=[10.0**-e for e in range(1, 40)] + [k / 41 for k in range(1, 41)])
def test_kernel_bits_do_not_depend_on_the_block_size(n_players, probs):
    """Blocks of 2**4 up to 2**16 floats give every share the same bits, through the entry and a ladder."""
    probs = np.array(probs)
    node = probs[::-1].copy()
    results = []
    for exponent in (4, 10, _CHUNK_FLOATS.bit_length() - 1, 16):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(finite_population, "_CHUNK_FLOATS", 1 << exponent)
            shares = binomial_expected_log_share(n_players, probs)
            ladder = finite_population._Ladder((probs, node), n_players)
            results.append([shares.tobytes(), *(share.tobytes() for share in ladder.shares(n_players))])
    assert results[0][1] == results[0][0]
    assert results[0][2] == binomial_expected_log_share(n_players, node).tobytes()
    assert all(result == results[0] for result in results[1:])


@pytest.mark.parametrize("n_players", [1, 2, 10, 255, 256, 257, 1000, 100_000])
def test_a_ladder_reads_back_the_entry_bits_over_many_blocks(n_players):
    """One sorted set of a (T, E) and a (T, V) table, with repeats and every slice, maps back to each entry."""
    rng = np.random.default_rng(n_players)
    pool = np.concatenate(
        [
            [0.0, -0.0, 1.0, 1.0 + PROB_TOL, 5e-324, 2.0**-60 / n_players],
            10.0 ** rng.uniform(-300.0, -1.0, 300),
            rng.uniform(0.0, 1.0, 300),
        ]
    )
    joint, node = rng.choice(pool, (7, 120)), rng.choice(pool, (7, 30))
    with pytest.MonkeyPatch.context() as patch:
        # several blocks of logs, of window searches and of sums
        patch.setattr(finite_population, "_CHUNK_FLOATS", 1 << 6)
        share_joint, share_node = finite_population._Ladder((joint, node), n_players).shares(n_players)
    assert share_joint.shape == joint.shape and share_node.shape == node.shape
    assert share_joint.tobytes() == binomial_expected_log_share(n_players, joint).tobytes()
    assert share_node.tobytes() == binomial_expected_log_share(n_players, node).tobytes()
    for bad in (np.nan, -1e-300, 1.0 + 2 * PROB_TOL):
        with pytest.raises(ValueError, match=r"^probabilities must lie in \[0, 1\]$"):
            finite_population._Ladder((joint, np.append(node, bad)), n_players)


@pytest.mark.parametrize(
    "node_prob, edge_prob, ref, error",
    [
        (0.5, 1.5, 0.5, r"probabilities must lie in \[0, 1\]"),
        (-0.1, 0.5, 0.5, r"probabilities must lie in \[0, 1\]"),
        (np.nan, 0.5, 0.5, r"probabilities must lie in \[0, 1\]"),
        (0.5, [0.2, np.nan], 0.5, r"probabilities must lie in \[0, 1\]"),
        (0.5, 0.5, np.nan, "reference probability must be positive, got nan"),
        (0.5, 0.5, 0.0, "reference probability must be positive, got 0.0"),
        (0.5, 0.5, [0.5, -0.5], "reference probability must be positive, got -0.5"),
        (0.5, 0.5, np.inf, "reference probability must be finite, got inf"),
    ],
)
def test_the_symmetric_toll_rejects_bad_probabilities_and_references(node_prob, edge_prob, ref, error):
    with pytest.raises(ValueError, match=f"^{error}$"):
        expected_tax_symmetric(10, node_prob, edge_prob, ref, 1.0)


def test_the_symmetric_toll_counts_a_rounded_flow_above_one_as_one():
    # propagate can sum a node's mass to 1 + 2**-52; the toll is that of mass 1
    above = np.nextafter(1.0, 2.0)
    assert expected_tax_symmetric(10, above, 0.5, 0.5, 1.0) == expected_tax_symmetric(10, 1.0, 0.5, 0.5, 1.0)
    assert expected_tax_symmetric(10, 0.5, above, 0.5, 1.0) == expected_tax_symmetric(10, 0.5, 1.0, 0.5, 1.0)


@pytest.mark.parametrize(
    "ref, alpha, error",
    [
        (np.inf, 1.0, "reference probability must be finite, got inf"),
        (0.5, np.nan, "alpha must be finite, got nan"),
        (0.5, np.inf, "alpha must be finite, got inf"),
        (0.5, -np.inf, "alpha must be finite, got -inf"),
    ],
)
def test_the_heterogeneous_toll_rejects_an_infinite_reference_and_a_nonfinite_alpha(ref, alpha, error):
    with pytest.raises(ValueError, match=f"^{error}$"):
        expected_tax_heterogeneous(3, [0.1, 0.2], [0.2, 0.3], ref, alpha)


def test_large_population_tax_approaches_the_log_ratio(three_route):
    solution = mfe_solve(three_route)
    q2 = float(solution.policy.probs[0, 1])
    tax = expected_tax_symmetric(2000, 1.0, q2, 1 / 3, 1.0)
    assert abs(tax - math.log(q2 / (1 / 3))) <= 0.05


def test_poisson_binomial_small_cases():
    p1, p2 = 0.3, 0.55
    np.testing.assert_allclose(
        poisson_binomial_pmf([p1, p2]),
        [(1 - p1) * (1 - p2), p1 * (1 - p2) + p2 * (1 - p1), p1 * p2],
        rtol=0,
        atol=1e-15,
    )
    rng = np.random.default_rng(33)
    probs = rng.uniform(0, 1, size=25)
    pmf = poisson_binomial_pmf(probs)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert pmf @ np.arange(26) == pytest.approx(probs.sum(), abs=1e-10)


def test_heterogeneous_tax_generalizes_hand_expansion():
    p1, p2 = 0.4, 0.7
    n1, n2 = 0.9, 0.8
    tax = expected_tax_heterogeneous(3, [p1, p2], [n1, n2], ref=0.5, alpha=1.0)
    edge_pmf = [(1 - p1) * (1 - p2), p1 * (1 - p2) + p2 * (1 - p1), p1 * p2]
    node_pmf = [(1 - n1) * (1 - n2), n1 * (1 - n2) + n2 * (1 - n1), n1 * n2]
    shares = [math.log((k + 1) / 3) for k in range(3)]
    by_hand = (
        sum(s * w for s, w in zip(shares, edge_pmf))
        - sum(s * w for s, w in zip(shares, node_pmf))
        - math.log(0.5)
    )
    assert tax == pytest.approx(by_hand, abs=1e-14)


def test_identical_players_collapse_to_the_binomial_form():
    rng = np.random.default_rng(34)
    for n_players in (2, 5, 12, 40):
        node_p = float(rng.uniform(0.1, 1.0))
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
        assert hetero == pytest.approx(symmetric, abs=1e-12)


def test_heterogeneous_tax_matches_monte_carlo():
    rng = np.random.default_rng(35)
    n_players = 12
    node_probs = rng.uniform(0.2, 1.0, size=n_players - 1)
    edge_probs = node_probs * rng.uniform(0.1, 1.0, size=n_players - 1)
    ref, alpha = 0.3, 1.0
    exact = expected_tax_heterogeneous(n_players, edge_probs, node_probs, ref, alpha)

    # simulate the other 11 players: at the node w.p. node_p, on the edge
    # w.p. edge_p conditional on being there; tagged player always counted
    total_draws = 10_000_000
    chunk = 1_000_000
    samples = np.empty(total_draws)
    done = 0
    while done < total_draws:
        size = min(chunk, total_draws - done)
        u_node = rng.random((size, n_players - 1))
        u_edge = rng.random((size, n_players - 1))
        at_node = u_node < node_probs
        on_edge = at_node & (u_edge < edge_probs / node_probs)
        k_node = 1 + at_node.sum(axis=1)
        k_edge = 1 + on_edge.sum(axis=1)
        samples[done : done + size] = alpha * (np.log(k_edge / k_node) - math.log(ref))
        done += size
    stderr = samples.std(ddof=1) / math.sqrt(total_draws)
    assert abs(samples.mean() - exact) <= 3 * stderr


def test_realized_tax_mean_matches_the_exact_expectation(three_route):
    # tagged player's conditional tax, averaged over many replications
    solution = mfe_solve(three_route)
    n_agents = 8
    route_edge = 1  # the heavily used middle route
    q = float(solution.policy.probs[0, route_edge])
    exact = expected_tax_symmetric(n_agents, 1.0, q, 1 / 3, 1.0)

    # the agent-level reference keeps agent paths, so it can tag a player; it draws from the same law
    # as the sampler, not the same numbers
    taxes = []
    for seeds in np.random.SeedSequence(99).spawn(100_000):
        sample = simulate_population_mask_loop(three_route, solution.policy, n_agents, seeds)
        if sample.locations[1, 0] == 2:  # tagged player 0 took the middle route
            k_edge = sample.edge_counts[0, route_edge]
            k_node = sample.node_counts[0, 0]
            taxes.append(math.log(k_edge / k_node) - math.log(1 / 3))
    taxes = np.array(taxes)
    stderr = taxes.std(ddof=1) / math.sqrt(len(taxes))
    assert abs(taxes.mean() - exact) <= 3 * stderr


def test_realized_tax_records_cover_populated_edges_only():
    rng = np.random.default_rng(36)
    scenario = random_scenario(rng, max_nodes=5, max_horizon=3)
    policy = random_policy(scenario, rng)
    sample = simulate_population(scenario, policy, 30, seed=5)
    t, node, dest, _, tax = (column.tolist() for column in realized_taxes(sample, scenario))
    seen = set(zip(t, node, dest))
    g = scenario.graph
    for stage in range(scenario.horizon):
        for e in range(g.edge_count):
            key = (stage, int(g.edge_src[e]), int(g.edge_dst[e]))
            assert (sample.edge_counts[stage, e] >= 1) == (key in seen)
    for r_t, r_node, r_dest, r_tax in zip(t, node, dest, tax):
        e = g.edge_index(r_node, r_dest)
        expected = scenario.alpha * (
            math.log(sample.edge_counts[r_t, e] / sample.node_counts[r_t, r_node])
            - math.log(scenario.reference.probs[r_t, e])
        )
        assert r_tax == pytest.approx(expected, abs=1e-14)


def test_realized_tax_columns_are_bit_identical_to_the_edge_loop():
    rng = np.random.default_rng(37)
    for _ in range(20):
        scenario = random_scenario(rng, max_nodes=8, max_horizon=5)
        policy = random_policy(scenario, rng)
        sample = simulate_population(scenario, policy, int(rng.integers(1, 300)), seed=int(rng.integers(1000)))
        got = list(zip(*(column.tolist() for column in realized_taxes(sample, scenario))))
        want = realized_taxes_loop(sample, scenario)
        assert [r[:4] for r in got] == [r[:4] for r in want]
        assert np.array([r[4] for r in got]).tobytes() == np.array([r[4] for r in want]).tobytes()


def test_realized_taxes_reject_a_sample_of_another_scenario():
    small = build_gridworld(4, 3, [], 0, 11, 6, 1.0)
    large = build_gridworld(5, 3, [], 0, 14, 8, 1.0)
    of_small, of_large = (simulate_population(s, mfe_solve(s).policy, 20, seed=1) for s in (small, large))
    for sample, scenario in ((of_small, large), (of_large, small)):
        got, want = sample.edge_counts.shape, (scenario.horizon, scenario.graph.edge_count)
        with pytest.raises(ValueError, match=f"^{re.escape(f'sample edge_counts shape {got}, expected {want}')}$"):
            realized_taxes(sample, scenario)
    # edge counts of the right shape, node counts of another scenario
    mixed = PopulationSample(20, of_large.node_counts, of_small.edge_counts, of_small.seed)
    got, want = mixed.node_counts.shape, (small.horizon + 1, small.graph.node_count)
    with pytest.raises(ValueError, match=f"^{re.escape(f'sample node_counts shape {got}, expected {want}')}$"):
        realized_taxes(mixed, small)


@pytest.mark.parametrize("root", [123, [4, 5, 6]], ids=["int root", "sequence root"])
def test_a_replication_is_re_derived_from_its_own_record(root):
    rng = np.random.default_rng(38)
    scenario = random_scenario(rng, max_nodes=6, max_horizon=4)
    policy = random_policy(scenario, rng)
    children = np.random.SeedSequence(root).spawn(3)
    for child in children:
        sample = simulate_population(scenario, policy, 50, child)
        assert sample.spawn_key == child.spawn_key
        seeds = np.random.SeedSequence(sample.seed, spawn_key=sample.spawn_key)
        again = simulate_population(scenario, policy, 50, seeds)
        for name in ("node_counts", "edge_counts"):
            assert getattr(again, name).tobytes() == getattr(sample, name).tobytes()
    first, second = (simulate_population(scenario, policy, 50, c) for c in children[:2])
    assert first.spawn_key != second.spawn_key


# ---------------------------------------------------------------------------
# Convergence diagnostics
# ---------------------------------------------------------------------------

def test_tax_gap_single_player_closed_form(three_route):
    solution = mfe_solve(three_route)
    gaps = expected_tax_gap(three_route, solution.policy, [1])
    expected = float(np.abs(np.log(solution.policy.probs[0, :3])).max())
    assert gaps[1] == pytest.approx(expected, abs=1e-12)


def test_tax_gaps_decrease_and_vanish(three_route):
    solution = mfe_solve(three_route)
    n_list = [10, 100, 1000, 10000]
    gaps = expected_tax_gap(three_route, solution.policy, n_list)
    values = [gaps[n] for n in n_list]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] <= 0.01


def test_gap_is_pure_finite_size_bias_when_policy_matches_reference():
    # single node, two self-loop-free edges with policy equal to reference
    rng = np.random.default_rng(37)
    scenario = random_scenario(rng, max_nodes=4, max_horizon=2)
    reference = PolicyKernel(scenario.reference.probs)
    gaps = expected_tax_gap(scenario, reference, [10, 10000])
    assert gaps[10000] < gaps[10]
    assert gaps[10000] <= 0.02


def test_best_response_epsilon_nonnegative_on_random_scenarios():
    rng = np.random.default_rng(38)
    for _ in range(5):
        scenario = random_scenario(rng, max_nodes=6, max_horizon=5)
        solution = mfe_solve(scenario)
        br = best_response_finite_n(scenario, solution.policy, int(rng.integers(2, 40)))
        assert br.epsilon >= -1e-10


def test_best_response_single_player_hand_value(three_route):
    solution = mfe_solve(three_route)
    br = best_response_finite_n(three_route, solution.policy, 1)
    # alone, the toll is the constant reference surcharge on every route
    q = solution.policy.probs[0, :3]
    costs = np.array([2.0, 1.0, 3.0])
    expected_symmetric = float(q @ (costs + math.log(3)))
    expected_best = float((costs + math.log(3)).min())
    assert br.symmetric_cost == pytest.approx(expected_symmetric, abs=1e-12)
    assert br.epsilon == pytest.approx(expected_symmetric - expected_best, abs=1e-12)
    assert br.epsilon > 0


def test_best_response_epsilon_shrinks_with_population(three_route):
    solution = mfe_solve(three_route)
    eps = [best_response_finite_n(three_route, solution.policy, n).epsilon for n in (10, 1000, 100000)]
    assert eps[0] > eps[1] > eps[2]
    assert eps[-1] <= 0.01


def test_best_response_output_can_be_fed_back(three_route):
    solution = mfe_solve(three_route)
    br = best_response_finite_n(three_route, solution.policy, 50)
    again = best_response_finite_n(three_route, br.policy, 50)
    assert again.epsilon >= -1e-10


def test_integral_player_counts_of_any_type_give_the_int_results(three_route):
    policy = mfe_solve(three_route).policy
    for n, alias in ((2, 2.0), (3, np.int64(3)), (40, np.float64(40.0))):
        assert binomial_expected_log_share(alias, 0.3) == binomial_expected_log_share(n, 0.3)
        assert expected_tax_gap(three_route, policy, [alias]) == expected_tax_gap(three_route, policy, [n])
        got, want = best_response_finite_n(three_route, policy, alias), best_response_finite_n(three_route, policy, n)
        assert got.epsilon == want.epsilon and np.array_equal(got.state_values, want.state_values)
    assert [type(n) for n in expected_tax_gap(three_route, policy, [2.0, np.int64(3)])] == [int, int]
    for n, alias in ((3, 3.0), (3, np.int32(3)), (40, np.float64(40.0))):
        got, want = simulate_population(three_route, policy, alias, seed=4), simulate_population(three_route, policy, n, seed=4)
        assert type(got.n_agents) is int and got.n_agents == n
        assert got.node_counts.tobytes() == want.node_counts.tobytes()
        assert got.edge_counts.tobytes() == want.edge_counts.tobytes()


@pytest.mark.parametrize("n_players", [2.5, math.nan, math.inf])
def test_a_non_integral_player_count_is_rejected(three_route, n_players):
    policy = mfe_solve(three_route).policy
    message = f"n_players must be an integer, got {n_players}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        binomial_expected_log_share(n_players, 0.3)
    with pytest.raises(ValueError, match=f"^{message}$"):
        best_response_finite_n(three_route, policy, n_players)
    with pytest.raises(ValueError, match=f"^{message}$"):
        expected_tax_gap(three_route, policy, [10, n_players])


def test_kernels_reject_bad_probabilities_counts_and_graphs(three_route):
    for probs in ([0.5, 1.5], [-0.1], [0.5, np.nan]):
        with pytest.raises(ValueError, match=r"^probabilities must lie in \[0, 1\]$"):
            poisson_binomial_pmf(probs)
    with pytest.raises(ValueError, match=r"^need one event probability per other player \(N - 1 each\)$"):
        expected_tax_heterogeneous(5, [0.1] * 3, [0.2] * 4, 0.5, 1.0)
    with pytest.raises(ValueError, match=r"^probabilities must lie in \[0, 1\]$"):
        expected_tax_heterogeneous(3, [0.1, np.nan], [0.2, 0.3], 0.5, 1.0)
    for ref, shown in ((np.nan, "nan"), (0.0, "0.0"), (-0.5, "-0.5")):
        with pytest.raises(ValueError, match=rf"^reference probability must be positive, got {shown}$"):
            expected_tax_heterogeneous(3, [0.1, 0.2], [0.2, 0.3], ref, 1.0)
    with pytest.raises(ValueError, match="^n_agents must be >= 1$"):
        simulate_population(three_route, mfe_solve(three_route).policy, 0, seed=1)
    with pytest.raises(ValueError, match=r"^n_agents must be an integer, got 2\.5$"):
        simulate_population(three_route, mfe_solve(three_route).policy, 2.5, seed=1)
    # node 1 is a dead end: the shortest path has no edge to take there
    dead_end = Scenario(
        TrafficGraph(((1,), ())),
        StageCosts(2, np.ones((2, 1))),
        ReferencePolicy(np.ones((2, 1))),
        1.0,
        Distribution.point_mass(2, 0),
    )
    with pytest.raises(ValueError, match="^node 1 has no out-edges$"):
        best_response_finite_n(dead_end, PolicyKernel(np.ones((2, 1))), 5)
