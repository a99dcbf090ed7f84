from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import random_scenario
from mftroute import (
    Distribution,
    ReferencePolicy,
    Scenario,
    ScenarioFormatError,
    StageCosts,
    TrafficGraph,
    build_gridworld,
    deserialize,
    grid_node,
    serialize,
    truncate_scenario,
    validate,
)


def test_validate_accepts_three_route(three_route):
    assert validate(three_route) == []


def test_validate_flags_bad_reference_row_sum(three_route):
    probs = three_route.reference.probs.copy()
    probs[0, :3] = np.array([0.3, 0.3, 0.3])  # origin row sums to 0.9
    bad = Scenario(
        three_route.graph,
        three_route.costs,
        ReferencePolicy(probs),
        three_route.alpha,
        three_route.initial,
    )
    violations = validate(bad)
    assert any(v.code == "reference_row_sum" and v.t == 0 and v.node == 0 for v in violations)


def test_validate_flags_empty_out_neighbors():
    graph = TrafficGraph(((0,), ()))
    scenario = Scenario(
        graph,
        StageCosts(1, np.zeros((1, 1))),
        ReferencePolicy(np.ones((1, 1))),
        1.0,
        Distribution.point_mass(2, 0),
    )
    violations = validate(scenario)
    assert any(v.code == "empty_out_neighbors" and v.node == 1 for v in violations)


def test_validate_flags_duplicates_nonfinite_and_bad_initial():
    graph = TrafficGraph(((0, 1, 1), (0,)))
    costs = np.zeros((1, 4))
    costs[0, 1] = np.inf
    ref = np.array([[0.5, 0.25, 0.25, 1.0]])
    scenario = Scenario(
        graph,
        StageCosts(1, costs),
        ReferencePolicy(ref),
        -1.0,
        Distribution(np.array([0.7, 0.7])),
    )
    codes = {v.code for v in validate(scenario)}
    assert {"duplicate_out_neighbor", "nonfinite_cost", "alpha", "initial_sum"} <= codes


def test_negative_costs_are_permitted():
    rng = np.random.default_rng(3)
    scenario = random_scenario(rng)
    assert np.any(scenario.costs.stage < 0)
    assert validate(scenario) == []


def test_dimension_mismatch_rejected_at_construction(three_route):
    with pytest.raises(ValueError, match="shape"):
        Scenario(
            three_route.graph,
            StageCosts(1, np.zeros((1, 2))),
            three_route.reference,
            1.0,
            three_route.initial,
        )


def test_graph_edge_layout():
    graph = TrafficGraph(((1, 2), (1,), (0, 2)))
    assert graph.node_count == 3
    assert graph.edge_count == 5
    assert list(graph.edge_src) == [0, 0, 1, 2, 2]
    assert list(graph.edge_dst) == [1, 2, 1, 0, 2]
    assert graph.edge_index(2, 0) == 3
    with pytest.raises(KeyError):
        graph.edge_index(1, 0)
    with pytest.raises(ValueError):
        TrafficGraph(((3,),))


# ---------------------------------------------------------------------------
# Grid world
# ---------------------------------------------------------------------------

def test_gridworld_matches_experiment_dimensions():
    scenario = build_gridworld(10, 10, (), 0, 99, 70, 0.1)
    assert scenario.graph.node_count == 100
    assert scenario.horizon == 70
    assert validate(scenario) == []
    # interior cell: self plus four moves, uniform reference
    interior = grid_node(10, 5, 5)
    assert scenario.graph.degree(interior) == 5
    row = scenario.reference.probs[0, scenario.graph.edge_slice(interior)]
    np.testing.assert_allclose(row, 0.2)
    assert scenario.initial.mass[0] == 1.0


def test_gridworld_single_cell_degenerates_to_self_loop():
    scenario = build_gridworld(1, 1, (), 0, 0, 3, 1.0)
    assert scenario.graph.out_neighbors == ((0,),)
    assert scenario.reference.probs[0, 0] == 1.0
    assert validate(scenario) == []


def test_gridworld_obstacle_edges_carry_move_plus_penalty():
    # 2 x 2 grid, obstacle at (1, 1)
    obstacle = grid_node(2, 1, 1)
    scenario = build_gridworld(2, 2, (obstacle,), 0, grid_node(2, 1, 0), 2, 1.0)
    g = scenario.graph
    e = g.edge_index(grid_node(2, 0, 1), obstacle)  # move east into the obstacle
    assert scenario.costs.stage[0, e] == 100001.0
    # terminal stage folds in 10 * sqrt(manhattan distance to the destination)
    expected_terminal = 10.0 * math.sqrt(abs(1 - 1) + abs(1 - 0))
    assert scenario.edge_costs[1, e] == 100001.0 + expected_terminal
    # staying put is free, plain moves cost one
    self_e = g.edge_index(0, 0)
    move_e = g.edge_index(0, grid_node(2, 1, 0))
    assert scenario.costs.stage[0, self_e] == 0.0
    assert scenario.costs.stage[0, move_e] == 1.0


def test_gridworld_rejects_bad_endpoints_and_horizon():
    with pytest.raises(ValueError, match="obstacle"):
        build_gridworld(2, 2, (0,), 0, 3, 2, 1.0)
    with pytest.raises(ValueError, match="off-grid"):
        build_gridworld(2, 2, (), 0, 4, 2, 1.0)
    with pytest.raises(ValueError, match="horizon"):
        build_gridworld(2, 2, (), 0, 3, 0, 1.0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_round_trip_three_route(three_route):
    assert deserialize(serialize(three_route)) == three_route


def test_round_trip_gridworld_with_terminal():
    scenario = build_gridworld(4, 3, (5,), 0, 11, 6, 0.25)
    text = serialize(scenario)
    assert "stationary = true" in text
    assert deserialize(text) == scenario


def test_round_trip_nonstationary_random_scenario():
    rng = np.random.default_rng(11)
    scenario = random_scenario(rng)
    again = deserialize(serialize(scenario))
    assert again == scenario
    assert deserialize(serialize(again)) == again


def test_missing_alpha_is_named():
    scenario_text = serialize(build_gridworld(2, 2, (), 0, 3, 2, 1.0))
    stripped = "\n".join(line for line in scenario_text.splitlines() if not line.startswith("alpha"))
    with pytest.raises(ScenarioFormatError, match="alpha"):
        deserialize(stripped)


def test_zero_horizon_rejected():
    scenario_text = serialize(build_gridworld(2, 2, (), 0, 3, 2, 1.0))
    mangled = scenario_text.replace("horizon = 2", "horizon = 0")
    with pytest.raises(ScenarioFormatError, match="horizon must be >= 1"):
        deserialize(mangled)


def test_parse_errors_carry_line_numbers(three_route):
    lines = serialize(three_route).splitlines()
    idx = lines.index("[graph]") + 1
    lines[idx] = "0 nonsense"
    with pytest.raises(ScenarioFormatError, match=f"line {idx + 1}"):
        deserialize("\n".join(lines))


def test_unknown_params_key_rejected_with_its_line(three_route):
    lines = serialize(three_route).splitlines()
    lines.insert(1, "horizn = 9")
    with pytest.raises(ScenarioFormatError, match="line 2: unknown key 'horizn'"):
        deserialize("\n".join(lines))


def test_duplicate_params_key_rejected_with_its_line(three_route):
    lines = serialize(three_route).splitlines()
    first = next(n for n, line in enumerate(lines, start=1) if line.startswith("alpha"))
    lines.insert(first, "ALPHA = 2")
    with pytest.raises(
        ScenarioFormatError, match=rf"line {first + 1}: duplicate key 'alpha' .*line {first}\)"
    ):
        deserialize("\n".join(lines))


def test_undeclared_edge_rejected(three_route):
    text = serialize(three_route)
    mangled = text.replace("[costs]", "[costs]\n0 0 5.0", 1)
    with pytest.raises(ScenarioFormatError, match="not declared"):
        deserialize(mangled)


def test_missing_cost_entry_rejected(three_route):
    lines = serialize(three_route).splitlines()
    idx = lines.index("[costs]") + 1
    del lines[idx]
    with pytest.raises(ScenarioFormatError, match="missing cost"):
        deserialize("\n".join(lines))


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------

def test_truncate_slices_stages_and_keeps_terminal():
    scenario = build_gridworld(3, 3, (), 0, 8, 5, 1.0)
    injected = Distribution(np.full(9, 1.0 / 9.0))
    sub = truncate_scenario(scenario, 2, injected)
    assert sub.horizon == 3
    np.testing.assert_array_equal(sub.costs.stage, scenario.costs.stage[2:])
    np.testing.assert_array_equal(sub.costs.terminal, scenario.costs.terminal)
    np.testing.assert_array_equal(sub.initial.mass, injected.mass)
    with pytest.raises(ValueError):
        truncate_scenario(scenario, 5, injected)
