from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest

from helpers import csr_loop, edge_slice, folded_costs, gridworld_neighbors_loop, out_neighbors, random_scenario
from mftroute import (
    Distribution,
    InvalidScenarioError,
    LogDesirability,
    ReferencePolicy,
    Scenario,
    ScenarioFormatError,
    StageCosts,
    TrafficGraph,
    backward_pass,
    build_gridworld,
    deserialize,
    extract_policy,
    grid_node,
    random_policy,
    serialize,
    truncate_scenario,
    validate,
    write_scenario,
)
from mftroute.textio import _OTHER_BREAKS


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


def test_validate_flags_nan_reference_entries(three_route):
    probs = three_route.reference.probs.copy()
    probs[0, 1] = np.nan  # edge 0 -> 2
    bad = Scenario(
        three_route.graph, three_route.costs, ReferencePolicy(probs), three_route.alpha, three_route.initial
    )
    violations = validate(bad)
    assert [(v.code, v.t, v.node, v.dest) for v in violations] == [
        ("reference_nonpositive", 0, 0, 2),
        ("reference_row_sum", 0, 0, None),
    ]
    with pytest.raises(InvalidScenarioError):
        backward_pass(bad)


def test_validate_reports_an_inf_minus_inf_row_without_a_warning(three_route):
    probs = three_route.reference.probs.copy()
    probs[0, :3] = [np.inf, -np.inf, 0.5]
    bad = Scenario(
        three_route.graph, three_route.costs, ReferencePolicy(probs), three_route.alpha, three_route.initial
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        violations = validate(bad)
    row_sum = [v for v in violations if v.code == "reference_row_sum"]
    assert [(v.t, v.node, v.message) for v in row_sum] == [(0, 0, "reference row sums to nan, expected 1")]


def test_validate_flags_empty_out_neighbors():
    graph = TrafficGraph.from_neighbors(((0,), ()))
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
    graph = TrafficGraph.from_neighbors(((0, 1, 1), (0,)))
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


def _graph_with_a_dead_end() -> Scenario:
    """Node 2 has no out-edges, and node 1 has an edge into it."""
    graph = TrafficGraph.from_neighbors(((0, 1), (0, 1, 2), ()))
    return Scenario(
        graph,
        StageCosts(2, np.zeros((2, 5))),
        ReferencePolicy.uniform(graph, 2),
        1.0,
        Distribution.point_mass(3, 0),
    )


def test_uniform_reference_divides_nothing_for_a_node_without_out_edges():
    scenario = _graph_with_a_dead_end()  # a RuntimeWarning here is an error under the test settings
    row = np.array([1 / 2, 1 / 2, 1 / 3, 1 / 3, 1 / 3])
    assert scenario.reference.probs.tobytes() == np.tile(row, (2, 1)).tobytes()


@pytest.mark.parametrize(
    "solve",
    [
        lambda s: random_policy(s, np.random.default_rng(0)),
        lambda s: extract_policy(s, LogDesirability(np.zeros((3, 3)), 1.0)),
    ],
    ids=["random_policy", "extract_policy"],
)
def test_policy_builders_name_an_empty_out_neighborhood(solve):
    with pytest.raises(InvalidScenarioError, match=re.escape("empty_out_neighbors[i=2]")):
        solve(_graph_with_a_dead_end())


def test_serialize_names_a_repeated_edge_no_reader_could_take(tmp_path):
    graph = TrafficGraph.from_neighbors(((0, 1, 1), (0,)))
    scenario = Scenario(
        graph,
        StageCosts(1, np.zeros((1, 4))),
        ReferencePolicy(np.array([[0.5, 0.25, 0.25, 1.0]])),
        1.0,
        Distribution.point_mass(2, 0),
    )
    with pytest.raises(ValueError, match=re.escape("edge 0 -> 1 is repeated")):
        serialize(scenario)
    with pytest.raises(ValueError, match=re.escape("edge 0 -> 1 is repeated")):
        write_scenario(scenario, tmp_path / "grid.scn")
    assert not (tmp_path / "grid.scn").exists()
    assert [str(v) for v in validate(scenario)] == ["duplicate_out_neighbor[i=0, j=1]: duplicate edge"]


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
    graph = TrafficGraph.from_neighbors(((1, 2), (1,), (0, 2)))
    assert graph.node_count == 3
    assert graph.edge_count == 5
    assert list(graph.edge_src) == [0, 0, 1, 2, 2]
    assert list(graph.edge_dst) == [1, 2, 1, 0, 2]
    assert graph.edge_index(2, 0) == 3
    for node, dest in ((1, 0), (-1, 2), (3, 0)):  # absent edge, then nodes outside 0..2
        with pytest.raises(KeyError, match=f"no edge {node} -> {dest}"):
            graph.edge_index(node, dest)
    assert TrafficGraph.from_neighbors(((1, 1), (0,))).edge_index(0, 1) == 0  # the first of duplicate edges
    with pytest.raises(ValueError):
        TrafficGraph.from_neighbors(((3,),))


@pytest.mark.parametrize("rows, message", [
    (((1.5,), (0,)), "node 0: out-neighbor 1.5 is not an integer"),
    (((), (0, "1")), "node 1: out-neighbor '1' is not an integer"),
    (((0,), (), (np.float64(2.0),)), "node 2: out-neighbor np.float64(2.0) is not an integer"),
    (((1,), (0, 2)), "node 1: out-neighbor 2 outside 0..1"),
    (((), (2**70,)), "node 1: out-neighbor 1180591620717411303424 outside 0..1"),
    (((0,), (), (-1, 3)), "node 2: out-neighbor -1 outside 0..2"),
])
def test_a_neighbor_that_is_no_integer_or_no_node_is_named(rows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TrafficGraph.from_neighbors(rows)


@pytest.mark.parametrize("row_start, edge_dst, message", [
    ([0, 1], [0.0], "node 0: out-neighbor 0.0 is not an integer"),
    ([0, 0, 2], [1, 2], "node 1: out-neighbor 2 outside 0..1"),
    ([0, 2], [0], "row_start must be integers rising from 0 to the edge count 1"),
    ([1, 1], [0], "row_start must be integers rising from 0 to the edge count 1"),
    ([0, 2, 1], [0], "row_start must be integers rising from 0 to the edge count 1"),
    ([0.0, 1.0], [0], "row_start must be integers rising from 0 to the edge count 1"),
    ([], [], "row_start must be integers rising from 0 to the edge count 0"),
])
def test_the_csr_arrays_are_checked_at_construction(row_start, edge_dst, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TrafficGraph(np.array(row_start), np.array(edge_dst))


def _random_rows(rng: np.random.Generator, node_count: int) -> list[list[int]]:
    """0 to 4 ids per node drawn with replacement: nodes with no edges, self-loops and duplicate edges."""
    return [rng.integers(0, node_count, int(rng.integers(0, 5))).tolist() for _ in range(node_count)]


@pytest.mark.parametrize("seed", range(4))
def test_graphs_from_neighbor_rows_and_from_a_file_equal_the_loop_reference(seed):
    rng = np.random.default_rng(seed)
    for _ in range(50):
        node_count = int(rng.integers(1, 9))
        rows = _random_rows(rng, node_count)
        graph = TrafficGraph.from_neighbors(rows)
        assert (graph.row_start.tolist(), graph.edge_dst.tolist()) == csr_loop(rows)
        assert graph.edge_src.tolist() == [i for i, row in enumerate(rows) for _ in row]
        assert graph.row_start.dtype == graph.edge_dst.dtype == graph.edge_src.dtype == np.int64
        assert not (graph.row_start.flags.writeable or graph.edge_dst.flags.writeable)
        assert graph == TrafficGraph(np.array(graph.row_start), np.array(graph.edge_dst))

        # a file names each edge's cost by its (i, j), so it cannot hold a duplicate edge
        rows = [list(dict.fromkeys(row)) for row in rows]
        graph = TrafficGraph.from_neighbors(rows)
        if not graph.edge_count:
            continue
        table = np.ones((1, graph.edge_count))
        mass = Distribution.point_mass(node_count, 0)
        text = serialize(Scenario(graph, StageCosts(1, table), ReferencePolicy(table), 1.0, mass))
        assert deserialize(text).graph == graph
        # [graph] lines in any order: each node's edges keep the order of their lines
        lines = text.split("\n")
        first = lines.index("[graph]") + 1
        edges = lines[first : first + graph.edge_count]
        shuffled = [edges[k] for k in rng.permutation(len(edges))]
        by_line = [[int(line.split()[1]) for line in shuffled if int(line.split()[0]) == i] for i in range(node_count)]
        text = "\n".join(lines[:first] + shuffled + lines[first + graph.edge_count :])
        got = deserialize(text).graph
        assert (got.row_start.tolist(), got.edge_dst.tolist()) == csr_loop(by_line)


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
    assert len(out_neighbors(scenario.graph)[interior]) == 5
    row = scenario.reference.probs[0, edge_slice(scenario.graph, interior)]
    np.testing.assert_allclose(row, 0.2)
    assert scenario.initial.mass[0] == 1.0


@pytest.mark.parametrize("width, height, obstacles", [(1, 1, ()), (1, 7, (3,)), (7, 1, (2, 5)), (6, 5, (8, 14, 21))])
def test_gridworld_graph_equals_the_per_cell_loop(width, height, obstacles):
    graph = build_gridworld(width, height, obstacles, 0, width * height - 1, 3, 1.0).graph
    assert (graph.row_start.tolist(), graph.edge_dst.tolist()) == csr_loop(gridworld_neighbors_loop(width, height))


def test_gridworld_single_cell_degenerates_to_self_loop():
    scenario = build_gridworld(1, 1, (), 0, 0, 3, 1.0)
    assert out_neighbors(scenario.graph) == ((0,),)
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
    assert folded_costs(scenario)[1, e] == 100001.0 + expected_terminal
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
    with pytest.raises(ValueError, match=r"^obstacle 9 is off-grid \(0\.\.8\)$"):
        build_gridworld(3, 3, (9,), 0, 8, 4, 1.0)


@pytest.mark.parametrize("node", [-1, 4])
def test_point_mass_rejects_a_node_off_the_graph(node):
    with pytest.raises(ValueError, match=rf"^point mass node {node} outside 0\.\.3$"):
        Distribution.point_mass(4, node)


@pytest.mark.parametrize("alpha, shown", [(-1, "-1.0"), (0.0, "0.0"), (float("nan"), "nan"), (float("inf"), "inf")])
def test_gridworld_rejects_an_alpha_validate_would_reject(alpha, shown):
    with pytest.raises(ValueError, match=f"^alpha must be a positive real, got {shown}$"):
        build_gridworld(3, 3, (), 0, 8, 2, alpha)


@pytest.mark.parametrize("width, height", [(-2, -3), (3, 0), (0, 3)])
def test_gridworld_rejects_an_empty_grid_naming_both_sizes(width, height):
    with pytest.raises(ValueError, match=f"^grid width {width} and height {height} must both be >= 1$"):
        build_gridworld(width, height, (), 0, 0, 3, 1.0)


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


def test_the_reader_knows_every_line_boundary_of_str_splitlines():
    # every code point once, then "\n": each line splitlines gives ends in one of its boundaries
    text = "".join(map(chr, range(0x110000))) + "\n"
    boundaries = {line[-1] for line in text.splitlines(keepends=True)}
    assert boundaries == {"\n", *_OTHER_BREAKS}
    assert len(_OTHER_BREAKS) == len(set(_OTHER_BREAKS))


@pytest.mark.parametrize("extra", [*_OTHER_BREAKS, "\r\n"])
def test_line_numbers_count_every_line_boundary_of_a_long_file(extra):
    # a per-stage file of several chunks: one blank line of [costs] ends in a boundary other
    # than "\n", in a chunk with no header, and the bad entry sits in the next section
    grid = build_gridworld(10, 10, (), 0, 99, 40, 1.0)
    costs = StageCosts(40, grid.costs.stage + np.arange(40.0)[:, None], grid.costs.terminal)
    text = serialize(Scenario(grid.graph, costs, grid.reference, grid.alpha, grid.initial))
    gap = text.index("\n", text.index("[costs]") + 70_000) + 1
    bad = text.index("\n", text.index("[reference]") + 1000) + 1
    assert "[" not in text[gap - 70_000 : gap + 70_000]
    text = text[:gap] + extra + text[gap:bad] + "x" + text[bad:]
    line = next(n for n, row in enumerate(text.splitlines(), start=1) if row.startswith("x"))
    with pytest.raises(ScenarioFormatError, match=f"^line {line}: "):
        deserialize(text)


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
    for i, j in ((0, 0), (-1, 3), (-2, 2), (9, 1)):  # the last three name nodes outside 0..3
        mangled = text.replace("[costs]", f"[costs]\n{i} {j} 5.0", 1)
        with pytest.raises(ScenarioFormatError, match=f"edge {i} -> {j} not declared"):
            deserialize(mangled)


def test_duplicate_terminal_line_rejected_with_its_line():
    lines = serialize(build_gridworld(2, 2, (), 0, 3, 2, 1.0)).splitlines()
    first = lines.index("[costs]") + 2
    lines[first - 1 : first - 1] = ["terminal 0 5", "terminal 0 7"]
    with pytest.raises(
        ScenarioFormatError, match=rf"^line {first + 1}: duplicate terminal cost for node 0 \(first on line {first}\)$"
    ):
        deserialize("\n".join(lines))


@pytest.mark.parametrize("initial", ["0:1,0:1", "0:0.25,1:0.75,0:0.25"])
def test_duplicate_initial_node_rejected_with_its_line(initial):
    lines = serialize(build_gridworld(2, 2, (), 0, 3, 2, 1.0)).splitlines()
    at = next(n for n, line in enumerate(lines, start=1) if line.startswith("initial"))
    lines[at - 1] = f"initial = {initial}"
    with pytest.raises(ScenarioFormatError, match=rf"^line {at}: duplicate initial node 0$"):
        deserialize("\n".join(lines))


def test_missing_cost_entry_rejected(three_route):
    lines = serialize(three_route).splitlines()
    idx = lines.index("[costs]") + 1
    del lines[idx]
    with pytest.raises(ScenarioFormatError, match="missing cost"):
        deserialize("\n".join(lines))


@pytest.mark.parametrize("stationary", [True, False])
def test_nan_and_inf_values_in_a_file_reach_validate(stationary):
    grid = build_gridworld(2, 2, (), 0, 3, 2, 1.0)
    stage = grid.costs.stage if stationary else grid.costs.stage + np.arange(2.0)[:, None]
    costs = StageCosts(2, stage, grid.costs.terminal)
    scenario = Scenario(grid.graph, costs, grid.reference, grid.alpha, grid.initial)
    lines = serialize(scenario).splitlines()
    for section, value in (("[costs]", "nan"), ("[reference]", "inf")):
        idx = lines.index(section) + 1  # the entry of edge 0 -> 0 at stage 0
        lines[idx] = " ".join(lines[idx].split()[:-1] + [value])
    stages = [0, 1] if stationary else [0]
    located = [(v.code, v.t, v.node, v.dest) for v in validate(deserialize("\n".join(lines)))]
    assert [v[1:] for v in located if v[0] == "nonfinite_cost"] == [(t, 0, 0) for t in stages]
    assert [v[1:] for v in located if v[0] == "reference_row_sum"] == [(t, 0, None) for t in stages]


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


@pytest.mark.parametrize(
    "edit, error",
    [
        (("nodes = 4", "nodes = 0"), "^line 2: nodes must be >= 1$"),
        (("initial = 0:1", "initial = 0:0.5,1"), "^line 5: initial entries must be 'node:mass'$"),
        (("initial = 0:1", "initial = 4:1"), r"^line 5: initial node 4 outside 0\.\.3$"),
        (("[graph]", "[grph]"), r"^line 8: unknown section \[grph\]$"),
    ],
    ids=["zero-nodes", "initial-without-colon", "initial-node-out-of-range", "misspelt-graph"],
)
def test_params_faults_are_located(three_route, edit, error):
    with pytest.raises(ScenarioFormatError, match=error):
        deserialize(serialize(three_route).replace(*edit))


def test_a_file_without_a_graph_section_is_rejected(three_route):
    text = serialize(three_route)
    params, rest = text.split("[graph]")
    without_graph = params + "[costs]" + rest.split("[costs]")[1]
    with pytest.raises(ScenarioFormatError, match=r"^missing or empty \[graph\] section$"):
        deserialize(without_graph)


def test_stage_costs_and_scenario_reject_mis_shaped_tables(three_route):
    with pytest.raises(ValueError, match="^stage cost table has 2 stages, horizon is 3$"):
        StageCosts(3, np.ones((2, 4)))
    g, costs, ref, init = three_route.graph, three_route.costs, three_route.reference, three_route.initial
    cases = [
        ((StageCosts(1, costs.stage, np.zeros(3)), ref, init), r"^terminal cost shape \(3,\), expected \(4,\)$"),
        ((costs, ReferencePolicy(np.ones((2, 6))), init), r"^reference table shape \(2, 6\), expected \(1, 6\)$"),
        ((costs, ref, Distribution(np.full(5, 0.2))), r"^initial distribution shape \(5,\), expected \(4,\)$"),
    ]
    for (c, r, i), error in cases:
        with pytest.raises(ValueError, match=error):
            Scenario(g, c, r, 1.0, i)
