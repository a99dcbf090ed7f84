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

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    backward_pass_loop,
    deserialize_loop,
    deviation_costs_stage_log,
    edge_slice,
    extract_policy_loop,
    out_neighbors,
    random_scenario,
    read_policy_csv_loop,
    serialize_loop,
    validate_loop,
    write_csv_loop,
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
    equalizer_gap,
    extract_policy,
    random_policy,
    serialize,
    validate,
    value,
)
from mftroute.cli import RunManifest, read_policy_csv, write_csv, write_policy_csv
from mftroute.mean_field import _deviation_costs

SPECIAL = (0.0, -0.0, -0.5, 1.0, 1e5, np.inf, -np.inf, np.nan)


def _values(draw, count: int, finite: st.SearchStrategy) -> list[float]:
    return draw(st.lists(st.one_of(finite, st.sampled_from(SPECIAL)), min_size=count, max_size=count))


@st.composite
def defective_scenarios(draw):
    """Scenarios with empty and duplicate out-neighborhoods, non-finite costs and bad rows."""
    node_count = draw(st.integers(1, 6))
    graph = TrafficGraph.from_neighbors(
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
            sl = edge_slice(graph, i)
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


def _laid_out(draw, rows: np.ndarray, horizon: int) -> np.ndarray:
    """A (T, E) table from per-stage rows: as given, or its first row tiled or broadcast (stage stride 0)."""
    layout = draw(st.sampled_from(["per-stage", "tiled", "broadcast"]))
    if layout == "per-stage":
        return rows
    if layout == "tiled":
        return np.tile(rows[0], (horizon, 1))
    return np.broadcast_to(rows[0], (horizon, rows.shape[1]))


def _with_fault(draw, rows: np.ndarray, fault) -> np.ndarray:
    """rows with one edge's entries replaced by fault(entries) in one stage, in every stage, or in none."""
    where = draw(st.sampled_from(["none", "one stage", "all stages"]))
    if where == "none" or rows.shape[1] == 0:
        return rows
    rows = rows.copy()
    e = draw(st.integers(0, rows.shape[1] - 1))
    stages = [draw(st.integers(0, len(rows) - 1))] if where == "one stage" else slice(None)
    rows[stages, e] = fault(rows[stages, e])
    return rows


@st.composite
def stored_row_scenarios(draw):
    """Stationary and per-stage tables with faults in one stage or in all of them.

    The faults are a NaN or infinite cost, a reference entry that is not
    positive, and a positive reference entry that throws its row sum off.
    A table whose stages all hold its first row may be stored as that one
    row, broadcast with stage stride 0.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = random_scenario(rng, max_nodes=8, max_horizon=6)
    t_count = base.horizon

    def table(rows: np.ndarray, *faults) -> np.ndarray:
        if draw(st.booleans()):
            rows = np.tile(rows[0], (t_count, 1))
        for fault in faults:
            rows = _with_fault(draw, rows, fault)
        if np.all(rows.view(np.uint64) == rows[0].view(np.uint64)) and draw(st.booleans()):
            return np.broadcast_to(rows[0], rows.shape)
        return rows

    costs = table(base.costs.stage, lambda _: draw(st.sampled_from([np.nan, np.inf, -np.inf])))
    ref = table(
        base.reference.probs, lambda _: draw(st.sampled_from([0.0, -0.0, -0.5, np.nan])), lambda column: 1.5 * column
    )
    terminal = np.zeros(base.graph.node_count) if draw(st.booleans()) else None
    return Scenario(base.graph, StageCosts(t_count, costs, terminal), ReferencePolicy(ref), base.alpha, base.initial)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf in a row sum
@given(stored_row_scenarios(), st.sampled_from([1, 5, 1 << 16]))
def test_validate_over_stored_rows_matches_the_loop_reference_and_every_layout(scenario, block):
    """Each stored row is checked once, in blocks of any size, and reported at every stage as the loop does."""
    copied = Scenario(scenario.graph, StageCosts(scenario.horizon, scenario.costs.stage.copy(),
                                                 scenario.costs.terminal),
                      ReferencePolicy(scenario.reference.probs.copy()), scenario.alpha, scenario.initial)
    with patch("mftroute.scenario.CHECK_BLOCK", block):
        got, whole = validate(scenario), validate(copied)
    want = validate_loop(scenario)
    assert [_loc(v) for v in got] == [_loc(v) for v in want]
    assert [str(v) for v in got if v.code != "reference_row_sum"] == [
        str(v) for v in want if v.code != "reference_row_sum"
    ]
    # one stored row, read by every stage, is reported as its copies in a per-stage table are
    assert list(map(str, got)) == list(map(str, whole))


@st.composite
def solvable_scenarios(draw):
    """Valid scenarios: long rows, prohibitive costs, small alpha, terminal costs, stationary tables.

    Each table is per-stage, or its first row tiled or broadcast with stage stride 0.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = random_scenario(rng, max_nodes=14, max_horizon=8, max_degree=draw(st.integers(1, 12)))
    stage = base.costs.stage + 1e5 * (rng.random(base.costs.stage.shape) < 0.2)
    stage = _laid_out(draw, stage, base.horizon)
    probs = _laid_out(draw, base.reference.probs, base.horizon)
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


def _sparse_policy(scenario: Scenario, rng: np.random.Generator, support: np.ndarray | None = None) -> PolicyKernel:
    """A policy with about a third of its entries exactly 0, and each within ``support`` when given; no log_probs.

    Each node's first edge stays positive.
    """
    g = scenario.graph
    shape = (scenario.horizon, g.edge_count)
    draws = rng.standard_exponential(shape) * (rng.random(shape) < 0.7)
    draws[:, g.row_start[:-1]] += 0.5
    if support is not None:
        draws *= support
    return PolicyKernel(draws / np.add.reduceat(draws, g.row_start[:-1], axis=1)[:, g.edge_src])


@given(solvable_scenarios(), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_equalizer_gap_is_bit_identical_to_the_stage_log_certificate(scenario, seed, count):
    desirability = backward_pass(scenario)
    optimal = extract_policy(scenario, desirability)
    rng = np.random.default_rng(seed)
    trials = [random_policy(scenario, rng) for _ in range(count)]
    v0 = value(desirability, scenario.initial, 0)
    costs = np.array(deviation_costs_stage_log(scenario, trials, optimal))
    want = float(np.max(np.abs(costs - v0), initial=0.0))
    got = equalizer_gap(scenario, optimal, trials, desirability)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@given(solvable_scenarios(), st.integers(0, 2**32 - 1), st.integers(1, 4))
def test_deviation_costs_keep_the_stage_log_certificate_costs_and_faults(scenario, seed, count):
    """Zero-support edges, zero and faulty trial entries: the same costs bit for bit, or the same fault."""
    rng = np.random.default_rng(seed)
    population = _sparse_policy(scenario, rng)
    # a trial within the population's support has a cost; one outside it meets a zero-support edge
    trials = [_sparse_policy(scenario, rng, population.probs > 0 if rng.random() < 0.7 else None) for _ in range(count)]
    for k in np.flatnonzero(rng.random(count) < 0.3):
        probs = trials[k].probs.copy()
        t, e = rng.integers(scenario.horizon), rng.integers(scenario.graph.edge_count)
        probs[t, e] = rng.choice([np.nan, -0.25, np.inf])
        trials[k] = PolicyKernel(probs)
    try:
        want = deviation_costs_stage_log(scenario, trials, population)
    except ValueError as error:
        with pytest.raises(type(error)) as raised:
            _deviation_costs(scenario, trials, population)
        assert type(raised.value) is type(error) and str(raised.value) == str(error)
    else:
        assert np.array(_deviation_costs(scenario, trials, population)).tobytes() == np.array(want).tobytes()


@st.composite
def serializable_scenarios(draw):
    """Stationary and per-stage tables of arbitrary non-NaN floats, signed zeros included."""
    node_count = draw(st.integers(1, 5))
    dests = st.lists(st.integers(0, node_count - 1), min_size=1, max_size=3, unique=True)
    graph = TrafficGraph.from_neighbors(tuple(tuple(draw(dests)) for _ in range(node_count)))
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
    graph = TrafficGraph.from_neighbors(((0, 1), (1,)))
    stage = np.array([[0.0, 1.0, -0.0], [-0.0, 1.0, 0.0]])
    ref = np.array([[0.5, 0.5, 1.0]] * 2)
    scenario = Scenario(graph, StageCosts(2, stage), ReferencePolicy(ref), 1.0, Distribution.point_mass(2, 0))
    text = serialize(scenario)
    assert "stationary = true" not in text
    assert deserialize(text).costs.stage.tobytes() == stage.tobytes()


@given(st.one_of(serializable_scenarios(), defective_scenarios()), st.sampled_from([1, 3, 1 << 12]))
def test_writers_are_byte_identical_to_the_edge_loop_writers(tmp_path_factory, scenario, chunk):
    policy = PolicyKernel(scenario.reference.probs)
    manifest = RunManifest("mfe", {"scenario": "x.scn"})
    out = tmp_path_factory.mktemp("policy")
    g = scenario.graph
    with patch("mftroute.textio._CHUNK_ROWS", chunk):
        if len(set(zip(g.edge_src.tolist(), g.edge_dst.tolist()))) < g.edge_count:
            # a repeated edge (i, j) could not be read back, so serialize refuses the graph
            with pytest.raises(ValueError, match="is repeated"):
                serialize(scenario)
        else:
            assert serialize(scenario) == serialize_loop(scenario)
        write_policy_csv(out / "new.csv", scenario, policy, manifest)
    write_policy_csv_loop(out / "loop.csv", scenario, policy, manifest)
    assert (out / "new.csv").read_bytes() == (out / "loop.csv").read_bytes()


_INT64 = st.integers(-(2**63), 2**63 - 1)
_FLOATS = st.one_of(st.floats(), st.sampled_from([-0.0, 5e-324, 1e-300, 1 / 3, 0.1, 2.0**53]))
_COLUMN_KINDS = {
    "int": _INT64,
    "float": _FLOATS,
    "record": st.sampled_from(["q", "kkt_residual", "mfe", "lambda"]),
}


@st.composite
def csv_tables(draw):
    """Columns of one length: int64 and float arrays or lists, and string columns."""
    rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=6))
    columns = []
    for kind in kinds:
        values = draw(st.lists(_COLUMN_KINDS[kind], min_size=rows, max_size=rows))
        as_array = kind != "record" and draw(st.booleans())
        columns.append(np.array(values, dtype=np.int64 if kind == "int" else np.float64) if as_array else values)
    return columns


@given(csv_tables(), st.sampled_from([1, 5, 1 << 12]), st.booleans())
def test_write_csv_is_byte_identical_to_the_cell_loop(tmp_path_factory, columns, chunk, as_rows):
    manifest = RunManifest("nash-gap", {"agents": "10,100"})
    out = tmp_path_factory.mktemp("csv")
    # an iterator of rows, as older callers pass them, holds numpy scalars taken from the arrays
    table = zip(*columns) if as_rows else columns
    with patch("mftroute.textio._CHUNK_ROWS", chunk):
        write_csv(out / "new.csv", "a,b", table, manifest)
    write_csv_loop(out / "loop.csv", "a,b", list(zip(*columns)), manifest)
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


# ---------------------------------------------------------------------------
# Differential fuzz: the chunked column readers against the line-at-a-time
# references on mutated scenario files and policy CSVs
# ---------------------------------------------------------------------------

MUTATIONS = ("replace token", "replace value", "swap tokens", "truncate", "stray character", "duplicate line",
             "delete line", "swap lines", "terminal line", "comment or blank")
# spellings where numpy's C reader and int()/float() could part ways: signs, bare dots, exponents in
# integer columns, NaN spellings, C-only float forms, quotes, and characters numpy strips or misreads
TOKENS = ("", "x", "-1", "0", "1", "2", "99", "-0.0", "0.5", "1e400", "nan", "-inf", "0x10", "1_0", "٣",
          "9" * 30, "-" + "9" * 25, "terminal", "TERMINAL", "[costs]", "[bogus]", "# note", "t,i,j,value",
          "+1", "-0", "1.", ".5", "1.0", "1e3", "infinity", "+nan", "-nan", "NaN", "1d5", "0x1p3", '"1"')
STRAY = (" ", "\t", ",", "#", "[", "]", "=", ":", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", " ", "\xa0",
         "\xe9", "\x00", "\u3000", "\x1f", "\u01fe")
FILLERS = ("", "   ", "\t", "# comment", "  # comment, with, commas")
mutations = st.lists(
    st.tuples(st.sampled_from(MUTATIONS), st.integers(0, 10**6), st.integers(0, 10**6), st.sampled_from(TOKENS),
              st.sampled_from(STRAY + FILLERS)),
    max_size=4,
)


def _mutate(text: str, ops, sep: str) -> str:
    lines = text.split("\n")
    for op, a, b, token, extra in ops:
        k = a % len(lines)
        line = lines[k]
        parts = line.split(sep)
        if op in ("replace token", "replace value") and "=" not in line:  # [params] stays small
            parts[-1 if op == "replace value" else b % len(parts)] = token
            lines[k] = sep.join(parts)
        elif op == "swap tokens":
            i, j = b % len(parts), (b // 7) % len(parts)
            parts[i], parts[j] = parts[j], parts[i]
            lines[k] = sep.join(parts)
        elif op == "truncate":
            lines[k] = line[: b % (len(line) + 1)]
        elif op == "stray character":
            at = b % (len(line) + 1)
            lines[k] = line[:at] + extra + line[at:]
        elif op == "duplicate line":
            lines.insert(b % (len(lines) + 1), line)
        elif op == "delete line":
            del lines[k]
        elif op == "swap lines":
            j = b % len(lines)
            lines[k], lines[j] = lines[j], lines[k]
        elif op == "terminal line":
            lines.insert(k, sep.join(["terminal", token or str(b % 7), "1.5"]))
        elif op == "comment or blank":
            lines.insert(k, extra)
        if not lines:
            lines = [""]
    return "\n".join(lines)


@st.composite
def readable_scenarios(draw):
    """Small valid scenarios, stationary or per stage, with or without terminal costs."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = random_scenario(rng, max_nodes=5, max_horizon=3)
    stage, probs = base.costs.stage, base.reference.probs
    if draw(st.booleans()):
        stage, probs = np.tile(stage[0], (base.horizon, 1)), np.tile(probs[0], (base.horizon, 1))
    terminal = rng.uniform(0.0, 10.0, base.graph.node_count) if draw(st.booleans()) else None
    return Scenario(base.graph, StageCosts(base.horizon, stage, terminal), ReferencePolicy(probs), base.alpha,
                    base.initial)


def _outcome(read, *args):
    """The ScenarioFormatError message of a read, or None; any other exception propagates."""
    try:
        return None, read(*args)
    except ScenarioFormatError as exc:
        return str(exc), None


def _scenario_bytes(scenario: Scenario) -> tuple:
    terminal = scenario.costs.terminal
    return (
        out_neighbors(scenario.graph),
        np.float64(scenario.alpha).tobytes(),
        scenario.initial.mass.tobytes(),
        scenario.costs.stage.tobytes(),
        None if terminal is None else terminal.tobytes(),
        scenario.reference.probs.tobytes(),
    )


@settings(max_examples=400)
@given(readable_scenarios(), mutations, st.sampled_from([16, 64, 1 << 16]))
def test_deserialize_matches_the_line_reference_on_mutated_files(scenario, ops, chunk):
    text = _mutate(serialize(scenario), ops, " ")
    with patch("mftroute.textio._CHUNK_CHARS", chunk):
        got_error, got = _outcome(deserialize, text)
    want_error, want = _outcome(deserialize_loop, text)
    assert got_error == want_error
    if want is not None:
        assert _scenario_bytes(got) == _scenario_bytes(want)


@settings(max_examples=400)
@given(readable_scenarios(), mutations, st.sampled_from([16, 64, 1 << 16]))
def test_read_policy_csv_matches_the_line_reference_on_mutated_files(tmp_path_factory, scenario, ops, chunk):
    out = tmp_path_factory.mktemp("policy")
    write_policy_csv(out / "policy.csv", scenario, PolicyKernel(scenario.reference.probs), RunManifest("mfe", {}))
    path = out / "mutated.csv"
    path.write_text(_mutate((out / "policy.csv").read_text(encoding="utf-8"), ops, ","), encoding="utf-8")
    with patch("mftroute.textio._CHUNK_CHARS", chunk):
        got_error, got = _outcome(read_policy_csv, path, scenario)
    want_error, want = _outcome(read_policy_csv_loop, path, scenario)
    assert got_error == want_error
    if want is not None:
        assert got.probs.tobytes() == want.probs.tobytes()


# every spelling the fuzz draws, and each character numpy strips or misreads, in front of and behind a digit
SPELLINGS = TOKENS + tuple(f"{c}1" for c in STRAY) + tuple(f"1{c}" for c in STRAY)


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_each_spelling_in_each_column_reads_as_the_line_reference(tmp_path, spelling):
    """The fourth row of a cost table and of a policy CSV with one of its four fields spelled otherwise."""
    scenario = deserialize(_scenario_text(_ROWS))
    for column in range(4):
        row = list(_ROWS[3])
        row[column] = spelling
        rows = _ROWS[:3] + [row] + _ROWS[4:]
        got_error, got = _outcome(deserialize, _scenario_text(rows))
        want_error, want = _outcome(deserialize_loop, _scenario_text(rows))
        assert got_error == want_error
        if want is not None:
            assert _scenario_bytes(got) == _scenario_bytes(want)

        path = tmp_path / f"policy{column}.csv"
        path.write_text("t,i,j,value\n" + "".join(",".join(map(str, r)) + "\n" for r in rows), encoding="utf-8")
        got_error, got = _outcome(read_policy_csv, path, scenario)
        want_error, want = _outcome(read_policy_csv_loop, path, scenario)
        assert got_error == want_error
        if want is not None:
            assert got.probs.tobytes() == want.probs.tobytes()


@pytest.mark.parametrize("stationary", [False, True])
def test_writer_output_is_read_without_the_token_walk(tmp_path, stationary):
    """Clean files go through numpy's C reader alone: the Python line walk is never called."""
    rng = np.random.default_rng(15)
    base = random_scenario(rng, max_nodes=40, max_horizon=6, max_degree=6)
    stage, probs = base.costs.stage, base.reference.probs
    if stationary:
        stage, probs = np.tile(stage[0], (base.horizon, 1)), np.tile(probs[0], (base.horizon, 1))
    terminal = rng.uniform(0.0, 10.0, base.graph.node_count)
    scenario = Scenario(base.graph, StageCosts(base.horizon, stage, terminal), ReferencePolicy(probs), base.alpha,
                        base.initial)
    text = serialize(scenario)
    assert ("stationary = true" in text) == stationary
    policy = PolicyKernel(scenario.reference.probs)
    write_policy_csv(tmp_path / "policy.csv", scenario, policy, RunManifest("mfe", {"scenario": "x.scn"}))
    walk = AssertionError("the line walk was called on a clean chunk")
    with patch("mftroute.textio._walk_lines", side_effect=walk):
        for chunk in (64, 1 << 16):
            with patch("mftroute.textio._CHUNK_CHARS", chunk):
                again = deserialize(text)
                back = read_policy_csv(tmp_path / "policy.csv", scenario)
            assert _scenario_bytes(again) == _scenario_bytes(scenario)
            assert back.probs.tobytes() == policy.probs.tobytes()


_COSTS_WITH_TERMINALS = _GRAPH_AND_REFERENCE + "[costs]\n" + "".join(" ".join(map(str, r)) + "\n" for r in _ROWS)
CHUNK_FAULTS = {
    # the terminal lines go on lines 24-25, after the six cost rows on lines 18-23
    "terminal fault, then a repeated row": (
        _COSTS_WITH_TERMINALS + "terminal 1 2\nterminal 1 3\n0 0 0 0.5\n",
        "line 25: duplicate terminal cost for node 1 (first on line 24)",
    ),
    "repeated row, then a terminal fault": (
        _COSTS_WITH_TERMINALS + "0 0 0 0.5\nterminal 1 2\nterminal 1 3\n",
        "line 24: duplicate cost for stage 0 edge 0 -> 0",
    ),
    "terminal fault, then a line that does not parse": (
        _COSTS_WITH_TERMINALS + "terminal 7 2\n0 x 0 0.5\n",
        "line 24: terminal node 7 outside 0..1",
    ),
    "line that does not parse, then a terminal fault": (
        _COSTS_WITH_TERMINALS + "0 x 0 0.5\nterminal 7 2\n",
        "line 24: cannot parse source node 'x'",
    ),
    "content after a long comment block": (
        "# a comment\n" * 12 + "\n  \nnodes = 2\n" + _COSTS_WITH_TERMINALS,
        "line 15: content before any section header",
    ),
}


@pytest.mark.parametrize("chunk", [16, 64, 1 << 16])
@pytest.mark.parametrize("text, error", CHUNK_FAULTS.values(), ids=CHUNK_FAULTS.keys())
def test_the_first_faulty_line_wins_across_chunks_and_terminal_lines(text, error, chunk):
    with patch("mftroute.textio._CHUNK_CHARS", chunk):
        with pytest.raises(ScenarioFormatError) as fault:
            deserialize(text)
    assert str(fault.value) == error
    with pytest.raises(ScenarioFormatError) as reference_fault:
        deserialize_loop(text)
    assert str(reference_fault.value) == error


_POLICY_LINES = ["t,i,j,value"] + [",".join(map(str, r)) for r in _ROWS]  # the rows on lines 2-7
POLICY_CHUNK_FAULTS = {
    "negative value, then a line that does not parse": (
        {4: "0,1,1,-1", 6: "1,0,x,0.5"},
        "line 4: policy value '-1' is negative",
    ),
    "line that does not parse, then a negative value": (
        {4: "0,1,x,1", 6: "1,0,1,-0.5"},
        "line 4: cannot parse policy row",
    ),
    # at _CHUNK_CHARS = 16 the second chunk starts on line 3
    "non-finite value on the first line of a chunk": (
        {3: "0,0,1,inf"},
        "line 3: policy value 'inf' is not finite",
    ),
    "wrong field count after a value fault": (
        {4: "0,1,1,nan", 5: "1,0,0"},
        "line 4: policy value 'nan' is not finite",
    ),
}


@pytest.mark.parametrize("chunk", [16, 64, 1 << 16])
@pytest.mark.parametrize("changes, error", POLICY_CHUNK_FAULTS.values(), ids=POLICY_CHUNK_FAULTS.keys())
def test_the_first_faulty_policy_line_wins_across_chunks(tmp_path, changes, error, chunk):
    lines = [changes.get(lineno, line) for lineno, line in enumerate(_POLICY_LINES, start=1)]
    path = tmp_path / "policy.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    scenario = deserialize(_scenario_text(_ROWS))
    with patch("mftroute.textio._CHUNK_CHARS", chunk):
        with pytest.raises(ScenarioFormatError) as fault:
            read_policy_csv(path, scenario)
    assert str(fault.value) == error
    with pytest.raises(ScenarioFormatError) as reference_fault:
        read_policy_csv_loop(path, scenario)
    assert str(reference_fault.value) == error
