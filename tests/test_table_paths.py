"""The whole-table validate, parse, write and solver paths against their loop references.

The references (tests/helpers.py) walk one stage, node and edge at a time.
``validate`` must report the same violations in the same order; the only
text allowed to differ is the printed sum of ``reference_row_sum``, since
``np.add.reduceat`` and ``ndarray.sum`` may add a long row in a different
order.  The backward pass and policy extraction must agree bit for bit, and
the two edge-table writers byte for byte.  The two edge-table readers, the
scenario file and the policy CSV, must report one fault with one message.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    backward_pass_loop,
    extract_policy_loop,
    random_scenario,
    serialize_loop,
    validate_loop,
    write_policy_csv_loop,
)
from mftroute import (
    Distribution,
    PolicyKernel,
    ReferencePolicy,
    Scenario,
    ScenarioFormatError,
    StageCosts,
    TrafficGraph,
    backward_pass,
    deserialize,
    extract_policy,
    serialize,
    validate,
)
from mftroute.cli import RunManifest, read_policy_csv, write_policy_csv

SPECIAL = (0.0, -0.0, -0.5, 1.0, 1e5, np.inf, -np.inf, np.nan)


def _values(draw, count: int, finite: st.SearchStrategy) -> list[float]:
    return draw(st.lists(st.one_of(finite, st.sampled_from(SPECIAL)), min_size=count, max_size=count))


@st.composite
def defective_scenarios(draw):
    """Scenarios with empty and duplicate out-neighborhoods, non-finite costs and bad rows."""
    node_count = draw(st.integers(1, 6))
    graph = TrafficGraph(
        tuple(tuple(draw(st.lists(st.integers(0, node_count - 1), max_size=10))) for _ in range(node_count))
    )
    horizon = draw(st.integers(0, 4))
    shape = (horizon, graph.edge_count)
    costs = np.array(_values(draw, horizon * graph.edge_count, st.floats(-5, 5))).reshape(shape)
    terminal = None
    if draw(st.booleans()):
        terminal = np.array(_values(draw, node_count, st.floats(0, 10)), dtype=np.float64)
    degs = np.diff(graph.row_start)
    ref = np.tile((1.0 / np.maximum(degs, 1))[graph.edge_src], (horizon, 1))
    for t in range(horizon):
        for i in draw(st.lists(st.integers(0, node_count - 1), max_size=node_count)):
            sl = graph.edge_slice(i)
            ref[t, sl] = _values(draw, sl.stop - sl.start, st.floats(0.01, 1.0))
    alpha = draw(st.sampled_from([1.0, 0.1, 0.0, -1.0, np.inf, np.nan]))
    mass = np.array(_values(draw, node_count, st.floats(0, 1)), dtype=np.float64)
    stage_costs = StageCosts(horizon, costs, terminal)
    return Scenario(graph, stage_costs, ReferencePolicy(ref), alpha, Distribution(mass))


def _loc(v) -> tuple:
    return (v.code, v.t, v.node, v.dest)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf in a row sum
@given(defective_scenarios())
def test_validate_matches_the_loop_reference(scenario):
    got, want = validate(scenario), validate_loop(scenario)
    assert [_loc(v) for v in got] == [_loc(v) for v in want]
    assert [str(v) for v in got if v.code != "reference_row_sum"] == [
        str(v) for v in want if v.code != "reference_row_sum"
    ]


@st.composite
def solvable_scenarios(draw):
    """Valid scenarios: long rows, prohibitive costs, small alpha, terminal costs, stationary tables."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = random_scenario(rng, max_nodes=14, max_horizon=8, max_degree=draw(st.integers(1, 12)))
    stage = base.costs.stage + 1e5 * (rng.random(base.costs.stage.shape) < 0.2)
    probs = base.reference.probs
    if draw(st.booleans()):
        stage, probs = np.tile(stage[0], (base.horizon, 1)), np.tile(probs[0], (base.horizon, 1))
    terminal = rng.uniform(0.0, 10.0, base.graph.node_count) if draw(st.booleans()) else None
    alpha = draw(st.sampled_from([1e-3, 0.1, base.alpha]))
    costs = StageCosts(base.horizon, stage, terminal)
    return Scenario(base.graph, costs, ReferencePolicy(probs), alpha, base.initial)


@given(solvable_scenarios())
def test_backward_pass_and_extract_policy_are_bit_identical_to_the_stage_loop(scenario):
    desirability = backward_pass(scenario)
    assert desirability.log_phi.tobytes() == backward_pass_loop(scenario).tobytes()
    policy = extract_policy(scenario, desirability)
    probs, log_probs = extract_policy_loop(scenario, desirability.log_phi)
    assert policy.probs.tobytes() == probs.tobytes()
    assert policy.log_probs.tobytes() == log_probs.tobytes()


@st.composite
def serializable_scenarios(draw):
    """Stationary and per-stage tables of arbitrary non-NaN floats, signed zeros included."""
    node_count = draw(st.integers(1, 5))
    dests = st.lists(st.integers(0, node_count - 1), min_size=1, max_size=3, unique=True)
    graph = TrafficGraph(tuple(tuple(draw(dests)) for _ in range(node_count)))
    horizon = draw(st.integers(1, 4))
    rows = 1 if draw(st.booleans()) else horizon
    value = st.floats(allow_nan=False)

    def table():
        flat = [draw(value) for _ in range(rows * graph.edge_count)]
        return np.tile(np.array(flat, dtype=np.float64).reshape(rows, graph.edge_count), (horizon // rows, 1))

    terminal = np.array([draw(value) for _ in range(node_count)]) if draw(st.booleans()) else None
    initial = Distribution.point_mass(node_count, draw(st.integers(0, node_count - 1)))
    alpha = draw(st.floats(allow_nan=False))
    return Scenario(graph, StageCosts(horizon, table(), terminal), ReferencePolicy(table()), alpha, initial)


@given(serializable_scenarios())
def test_serialize_round_trips_exactly(scenario):
    text = serialize(scenario)
    again = deserialize(text)
    assert again == scenario
    assert again.costs.stage.tobytes() == scenario.costs.stage.tobytes()
    assert again.reference.probs.tobytes() == scenario.reference.probs.tobytes()
    if scenario.costs.terminal is not None:
        assert again.costs.terminal.tobytes() == scenario.costs.terminal.tobytes()
    assert serialize(again) == text


def test_serialize_keeps_the_signed_zeros_of_later_stages():
    graph = TrafficGraph(((0, 1), (1,)))
    stage = np.array([[0.0, 1.0, -0.0], [-0.0, 1.0, 0.0]])
    ref = np.array([[0.5, 0.5, 1.0]] * 2)
    scenario = Scenario(graph, StageCosts(2, stage), ReferencePolicy(ref), 1.0, Distribution.point_mass(2, 0))
    text = serialize(scenario)
    assert "stationary = true" not in text
    assert deserialize(text).costs.stage.tobytes() == stage.tobytes()


@given(st.one_of(serializable_scenarios(), defective_scenarios()))
def test_writers_are_byte_identical_to_the_edge_loop_writers(tmp_path_factory, scenario):
    assert serialize(scenario) == serialize_loop(scenario)
    policy = PolicyKernel(scenario.reference.probs)
    manifest = RunManifest("mfe", {"scenario": "x.scn"})
    out = tmp_path_factory.mktemp("policy")
    write_policy_csv(out / "new.csv", scenario, policy, manifest)
    write_policy_csv_loop(out / "loop.csv", scenario, policy, manifest)
    assert (out / "new.csv").read_bytes() == (out / "loop.csv").read_bytes()


# Both readers get the same (t, i, j, value) rows on lines 18-23: the scenario
# file after its [costs] header, the policy CSV after its manifest and header.
_GRAPH_AND_REFERENCE = """[params]
nodes = 2
horizon = 2
alpha = 1
initial = 0:1
[graph]
0 0
0 1
1 1
[reference]
0 0 0 0.5
0 0 1 0.5
0 1 1 1
1 0 0 0.5
1 0 1 0.5
1 1 1 1
"""
_ROWS = [(0, 0, 0, 0.5), (0, 0, 1, 0.5), (0, 1, 1, 1), (1, 0, 0, 0.5), (1, 0, 1, 0.5), (1, 1, 1, 1)]


def _scenario_text(rows) -> str:
    return _GRAPH_AND_REFERENCE + "[costs]\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def _edited(changes: dict) -> list:
    """_ROWS with the row on each given line replaced, or dropped where the new row is None."""
    by_line = {18 + k: row for k, row in enumerate(_ROWS)} | changes
    return [row for _, row in sorted(by_line.items()) if row is not None]


READER_FAULTS = {
    "stage out of range": (
        _edited({21: (2, 0, 0, 0.5)}),
        "line 21: stage 2 outside 0..1",
        "line 21: stage 2 outside 0..1",
    ),
    "undeclared edge": (
        _edited({21: (1, 1, 0, 0.5)}),
        "line 21: edge 1 -> 0 not declared in [graph]",
        "line 21: edge 1 -> 0 not in scenario graph",
    ),
    "duplicate row": (
        _edited({21: (0, 0, 0, 0.5)}),
        "line 21: duplicate cost for stage 0 edge 0 -> 0",
        "line 21: duplicate policy row for stage 0 edge 0 -> 0",
    ),
    "missing row": (
        _edited({21: None}),
        "[costs] missing cost for stage 1 edge 0 -> 0",
        "policy file missing stage 1 edge 0 -> 0",
    ),
    "wrong field count": (
        _edited({21: (1, 0, 0)}),
        "line 21: cost lines are 't i j value'",
        "line 21: policy rows are 't,i,j,value'",
    ),
    "first of two faults": (
        _edited({19: (0, 1, 0, 0.5), 22: (5, 0, 1, 0.5)}),
        "line 19: edge 1 -> 0 not declared in [graph]",
        "line 19: edge 1 -> 0 not in scenario graph",
    ),
    "first fault, ahead of a later one and a missing row": (
        _edited({20: (0, 0, 0, 0.5), 23: (7, 1, 1, 1)}),
        "line 20: duplicate cost for stage 0 edge 0 -> 0",
        "line 20: duplicate policy row for stage 0 edge 0 -> 0",
    ),
}


@pytest.mark.parametrize("rows, scenario_error, policy_error", READER_FAULTS.values(), ids=READER_FAULTS.keys())
def test_both_edge_table_readers_report_a_fault_alike(tmp_path, rows, scenario_error, policy_error):
    with pytest.raises(ScenarioFormatError) as scenario_fault:
        deserialize(_scenario_text(rows))
    assert str(scenario_fault.value) == scenario_error

    policy_csv = tmp_path / "policy.csv"
    header = "# manifest\n" * 16 + "t,i,j,value\n"
    policy_csv.write_text(header + "".join(",".join(map(str, r)) + "\n" for r in rows))
    with pytest.raises(ScenarioFormatError) as policy_fault:
        read_policy_csv(policy_csv, deserialize(_scenario_text(_ROWS)))
    assert str(policy_fault.value) == policy_error
