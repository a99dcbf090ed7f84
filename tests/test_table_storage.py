"""Scenario tables are stored as they are given, and a Scenario is checked once.

A stationary table is one row broadcast over the stages (a read-only view
with stride 0 along the stages); no result may depend on that layout.
The value-level checks run once per Scenario, however many times
``validate`` and ``require_valid`` are called on it.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from helpers import edge_slice, evaluate_policy_cost_table_log, expected_tax_gap_table_log, folded_costs
from mftroute import (
    Distribution,
    InvalidScenarioError,
    PolicyKernel,
    ReferencePolicy,
    Scenario,
    StageCosts,
    backward_pass,
    best_response_finite_n,
    build_gridworld,
    equalizer_gap,
    evaluate_policy_cost,
    expected_tax_gap,
    extract_policy,
    mfe_solve,
    propagate,
    random_policy,
    read_scenario,
    realized_taxes,
    serialize,
    simulate_population,
    truncate_scenario,
    validate,
    value,
    write_scenario,
)
from mftroute.cli import main
from mftroute.finite_population import _nash_gap_rows
from mftroute.scenario import require_valid
from mftroute.textio import RunManifest, file_digest, read_policy_csv, write_policy_csv


def _bits(values) -> np.ndarray:
    return np.array(values, dtype=np.float64).view(np.uint64)


def _random_grid(seed: int, stationary: bool, terminal: bool) -> list[Scenario]:
    """One random grid three times: on broadcast tables, then on C- and Fortran-ordered copies of them.

    A per-stage grid has a per-stage cost table and a stationary reference.
    """
    rng = np.random.default_rng(seed)
    width, height = (int(n) for n in rng.integers(2, 7, size=2))
    cells = width * height
    obstacles = rng.choice(np.arange(1, cells - 1), size=int(rng.integers(0, cells // 4 + 1)), replace=False)
    horizon = int(rng.integers(1, 12))
    base = build_gridworld(width, height, obstacles, 0, cells - 1, horizon, float(rng.choice([0.05, 0.3, 2.0])))
    g = base.graph
    shape = (horizon, g.edge_count)
    moves = g.edge_src != g.edge_dst
    if stationary:
        stage = np.broadcast_to(base.costs.stage[0] + rng.uniform(0.0, 0.5, g.edge_count) * moves, shape)
    else:
        stage = base.costs.stage + rng.uniform(0.0, 2.0, shape) * moves
    ref_row = np.empty(g.edge_count)
    for i in range(g.node_count):
        sl = edge_slice(g, i)
        ref_row[sl] = rng.dirichlet(np.ones(sl.stop - sl.start))
    reference = np.broadcast_to(ref_row, shape)
    final = base.costs.terminal if terminal else None

    def scenario(copy) -> Scenario:
        costs = StageCosts(horizon, copy(stage), None if final is None else copy(final))
        return Scenario(g, costs, ReferencePolicy(copy(reference)), base.alpha, base.initial)

    return [scenario(lambda a: a), scenario(lambda a: np.array(a, order="C")), scenario(np.asfortranarray)]


@pytest.mark.parametrize("terminal", [False, True], ids=["no-terminal", "terminal"])
@pytest.mark.parametrize("stationary", [True, False], ids=["stationary", "per-stage"])
@pytest.mark.parametrize("seed", range(6))
def test_results_are_bit_identical_on_broadcast_and_contiguous_tables(seed, stationary, terminal):
    scenarios = _random_grid(seed, stationary, terminal)
    views, c_copies, f_copies = scenarios
    assert views.reference.probs.strides[0] == 0 and (views.costs.stage.strides[0] == 0) == stationary
    assert c_copies.reference.probs.flags.c_contiguous and c_copies.costs.stage.flags.c_contiguous
    assert f_copies.reference.probs.flags.f_contiguous and f_copies.costs.stage.flags.f_contiguous
    results = []
    for scenario in scenarios:
        desirability = backward_pass(scenario)
        policy = extract_policy(scenario, desirability)
        flow = propagate(scenario, policy)
        rng = np.random.default_rng(seed)
        trials = [random_policy(scenario, rng) for _ in range(3)]
        gaps = expected_tax_gap(scenario, policy, [2, 10, 1000])
        sample = simulate_population(scenario, policy, 40, seed)
        results.append(
            {
                "log_phi": _bits(desirability.log_phi),
                "probs": _bits(policy.probs),
                "log_probs": _bits(policy.log_probs),
                "flow": _bits(flow.distributions),
                "equalizer_gap": _bits(equalizer_gap(scenario, policy, trials, desirability)),
                "expected_tax_gap": _bits([gaps[n] for n in (2, 10, 1000)]),
                "epsilon": _bits([best_response_finite_n(scenario, policy, n).epsilon for n in (2, 50)]),
                "realized_taxes": [np.asarray(column) for column in realized_taxes(sample, scenario)],
                "serialize": serialize(scenario),
            }
        )
    got = results[0]
    for want in results[1:]:
        for key in ("log_phi", "probs", "log_probs", "flow", "equalizer_gap", "expected_tax_gap", "epsilon"):
            assert np.array_equal(got[key], want[key]), key
        for column, other in zip(got["realized_taxes"], want["realized_taxes"], strict=True):
            assert column.dtype == other.dtype and column.tobytes() == other.tobytes()
        assert got["serialize"] == want["serialize"]


@pytest.mark.parametrize("terminal", [False, True], ids=["no-terminal", "terminal"])
@pytest.mark.parametrize("stationary", [True, False], ids=["stationary", "per-stage"])
@pytest.mark.parametrize("seed", range(4))
def test_stage_costs_are_the_folded_table_row_by_row(seed, stationary, terminal):
    """stage_costs(t) has the bits of the folded (T, E) table and, before the terminal fold, is a view."""
    for scenario in _random_grid(seed, stationary, terminal):
        folded = folded_costs(scenario)
        for t in range(scenario.horizon):
            row = scenario.stage_costs(t)
            assert row.shape == (scenario.graph.edge_count,)
            assert _bits(row).tobytes() == _bits(folded[t]).tobytes()
            if t < scenario.horizon - 1 or not terminal:
                assert np.shares_memory(row, scenario.costs.stage) and not row.flags.writeable
        for t in (-1, scenario.horizon):
            with pytest.raises(ValueError, match=f"stage {t} outside"):
                scenario.stage_costs(t)


def _stage_strides(scenario: Scenario) -> tuple[int, int]:
    return scenario.costs.stage.strides[0], scenario.reference.probs.strides[0]


def test_stationary_tables_stay_one_row_from_generator_and_file_through_truncation(tmp_path):
    grid = build_gridworld(6, 5, [8, 14, 21], 0, 29, 12, 0.3)
    assert _stage_strides(grid) == (0, 0)
    path = tmp_path / "grid.scn"
    write_scenario(grid, path)
    assert "stationary = true" in path.read_text()
    parsed = read_scenario(path)
    assert parsed == grid and _stage_strides(parsed) == (0, 0)
    for scenario in (grid, parsed):
        tail = truncate_scenario(scenario, 5, Distribution.point_mass(30, 3))
        assert tail.horizon == 7 and _stage_strides(tail) == (0, 0)
        assert not tail.costs.stage.flags.writeable and not tail.reference.probs.flags.writeable


def test_solve_holds_few_whole_tables(tmp_path):
    """build_gridworld + require_valid + mfe_solve on 40x40/T60 peaks below 3.0 (T, E) float64 tables.

    Stationary inputs cost one row each, the terminal cost is added to one
    stage row when it is read, and policy extraction fills its two output
    tables a row at a time; what remains is those two tables.
    """
    width = height = 40
    horizon = 60
    wall = [y * width + 20 for y in range(30)]
    tracemalloc.start()
    try:
        scenario = build_gridworld(width, height, wall, 0, width * height - 1, horizon, 0.1)
        require_valid(scenario)
        mfe_solve(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = horizon * scenario.graph.edge_count * 8
    assert peak / table_bytes <= 3.0


def test_require_valid_checks_each_stored_row_once():
    """require_valid on a stationary 40x40/T60 grid peaks within 5 % of one (T, E) float64 table.

    Each table stores one row, which is checked once; masks over the
    broadcast (T, E) tables took the peak to 0.65 of a table.
    """
    width = height = 40
    horizon = 60
    wall = [y * width + 20 for y in range(30)]
    scenario = build_gridworld(width, height, wall, 0, width * height - 1, horizon, 0.1)
    tracemalloc.start()
    try:
        require_valid(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = horizon * scenario.graph.edge_count * 8
    assert peak / table_bytes <= 0.05


@pytest.mark.parametrize("stationary", [True, False], ids=["stationary", "per-stage"])
@pytest.mark.parametrize("seed", range(4))
def test_stage_row_logs_of_the_reference_keep_every_bit(seed, stationary):
    """The deviation cost and the tax gap log the reference per stage or per edge, keeping every bit."""
    for scenario in _random_grid(seed, stationary, terminal=True):
        desirability = backward_pass(scenario)
        policy = extract_policy(scenario, desirability)
        rng = np.random.default_rng(seed)
        trials = [random_policy(scenario, rng) for _ in range(3)]
        v0 = value(desirability, scenario.initial, 0)
        want_gap = max(abs(evaluate_policy_cost_table_log(scenario, trial, policy) - v0) for trial in trials)
        got_gap = equalizer_gap(scenario, policy, trials, desirability)
        assert _bits(got_gap).tobytes() == _bits(want_gap).tobytes()
        got = expected_tax_gap(scenario, policy, [2, 10, 1000])
        want = expected_tax_gap_table_log(scenario, policy, [2, 10, 1000])
        assert _bits(list(got.values())).tobytes() == _bits(list(want.values())).tobytes()


def test_deviation_cost_holds_no_whole_table():
    """evaluate_policy_cost on a stationary 40x40/T60 grid peaks below half of one (T, E) table.

    The (T+1, V) flow is a fifth of a table and every other array is one
    stage's; the policies and the scenario exist before the call.  A
    whole-table log of the reference took the peak to 1.28 tables.
    """
    width = height = 40
    horizon = 60
    wall = [y * width + 20 for y in range(30)]
    scenario = build_gridworld(width, height, wall, 0, width * height - 1, horizon, 0.1)
    population = mfe_solve(scenario).policy
    trial = random_policy(scenario, np.random.default_rng(0))
    tracemalloc.start()
    try:
        evaluate_policy_cost(scenario, trial, population)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = horizon * scenario.graph.edge_count * 8
    assert peak / table_bytes <= 0.5


def test_plain_mfe_holds_no_whole_table(tmp_path, capsys):
    """mft-route mfe without outputs, on a stationary 40x40/T60 file, peaks below one (T, E) float64 table.

    It reads and validates the file, runs the backward pass and prints the
    optimal cost: 0.84 of a table, most of it the file's text and the
    (T+1, V) log-desirability.  Extracting the policy, which no output here
    reads, would add two tables.
    """
    scenario = build_gridworld(40, 40, [], 0, 40 * 40 - 1, 60, 1.0)
    path = tmp_path / "grid.scn"
    write_scenario(scenario, path)
    tracemalloc.start()
    try:
        assert main(["mfe", "--scenario", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "optimal expected cost" in capsys.readouterr().out
    table_bytes = scenario.horizon * scenario.graph.edge_count * 8
    assert peak / table_bytes < 1.0


def _walled_grid_40x40() -> Scenario:
    width = height = 40
    wall = [y * width + 20 for y in range(30)]
    return build_gridworld(width, height, wall, 0, width * height - 1, 60, 0.1)


def test_random_policy_holds_one_whole_table():
    """random_policy on a 40x40/T60 grid peaks within 1.1 (T, E) tables: the draws, normalized in place.

    A whole-table division by gathered (T, E) row sums took the peak to 3.4 tables.
    """
    scenario = _walled_grid_40x40()
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        random_policy(scenario, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = scenario.horizon * scenario.graph.edge_count * 8
    assert peak / table_bytes <= 1.1


def test_equalizer_gap_over_five_trials_holds_no_whole_table():
    """equalizer_gap over 5 trials on a 40x40/T60 grid peaks below half of one (T, E) table.

    The trials and the population exist before the call; the pass holds a
    few (K, E) stage arrays, K/T of a table each, and no (T+1, V) flow.
    """
    scenario = _walled_grid_40x40()
    solution = mfe_solve(scenario)
    rng = np.random.default_rng(0)
    trials = [random_policy(scenario, rng) for _ in range(5)]
    tracemalloc.start()
    try:
        equalizer_gap(scenario, solution.policy, trials, solution.desirability)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = scenario.horizon * scenario.graph.edge_count * 8
    assert peak / table_bytes <= 0.5


def _per_stage_walled_grid_40x40() -> Scenario:
    """The walled 40x40/T60 grid with random per-stage moving costs and reference."""
    base = _walled_grid_40x40()
    g = base.graph
    shape = (base.horizon, g.edge_count)
    rng = np.random.default_rng(0)
    stage = base.costs.stage + rng.uniform(0.0, 1.0, shape) * (g.edge_src != g.edge_dst)
    weights = rng.uniform(0.5, 1.5, shape)
    reference = weights / np.take(np.add.reduceat(weights, g.row_start[:-1], axis=1), g.edge_src, axis=1)
    costs = StageCosts(base.horizon, stage, base.costs.terminal)
    return Scenario(g, costs, ReferencePolicy(reference), base.alpha, base.initial)


def test_best_response_on_a_per_stage_reference_holds_no_log_table():
    """best_response_finite_n on a per-stage 40x40/T60 grid peaks below 5.8 (T, E) float64 tables.

    The stage-block pass, with the point-mass policy it returns, reads 2.1
    tables; whole-table flows, their ladder and the taxes read 5.4, with
    alpha log R subtracted once the shares are formed.  Logging and
    scaling the reference beside the unscaled taxes took the peak to 6.1
    tables, and a log table held next to the shares to 7.1.
    """
    scenario = _per_stage_walled_grid_40x40()
    g = scenario.graph
    population = mfe_solve(scenario).policy
    tracemalloc.start()
    try:
        best_response_finite_n(scenario, population, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = scenario.horizon * g.edge_count * 8
    assert peak / table_bytes <= 5.8, peak / table_bytes


def test_nash_gap_rows_on_a_per_stage_grid_hold_no_tax_table_per_n():
    """_nash_gap_rows for N = 10, 100, 1000 on a per-stage 40x40/T60 grid peaks within 3.5 (T, E) tables.

    The solution and its flow exist before the call.  The stage-block pass reads 2.1 tables;
    one (T, E) tax table per N, beside a ladder of the whole joint and node flows and a
    point-mass policy per N, read 6.5.
    """
    scenario = _per_stage_walled_grid_40x40()
    solution = mfe_solve(scenario)
    tracemalloc.start()
    try:
        _nash_gap_rows(scenario, solution.policy, solution.flow, [10, 100, 1000])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = scenario.horizon * scenario.graph.edge_count * 8
    assert peak / table_bytes <= 3.5, peak / table_bytes


@pytest.fixture
def counted_checks(monkeypatch):
    """Counts the runs of the scenario checks."""
    calls = []
    checks = Scenario._violations.func

    def counted(scenario):
        calls.append(scenario)
        return checks(scenario)

    monkeypatch.setattr(Scenario._violations, "func", counted)
    return calls


@pytest.mark.parametrize("run", ["validate", "mfe-policy", "mfe", "simulate", "nash-gap"])
def test_each_cli_run_checks_its_scenario_once(tmp_path, counted_checks, run):
    path = tmp_path / "grid.scn"
    write_scenario(build_gridworld(4, 3, [5], 0, 11, 6, 0.3), path)
    policy = tmp_path / "policy.csv"
    assert main(["mfe", "--scenario", str(path), "--out-policy", str(policy)]) == 0
    counted_checks.clear()
    argv = {
        "validate": ["validate"],
        "mfe-policy": ["mfe", "--out-policy", str(tmp_path / "solved.csv"), "--out-logphi", str(tmp_path / "phi.csv")],
        "mfe": ["mfe", "--certify-equalizer", "3", "--out-flow", str(tmp_path / "flow.csv")],
        "simulate": ["simulate", "--policy", str(policy), "--agents", "20", "--reps", "2", "--out", str(tmp_path / "sim.csv")],
        "nash-gap": ["nash-gap", "--agents", "10,100", "--out", str(tmp_path / "gaps.csv")],
    }[run]
    assert main([*argv, "--scenario", str(path)]) == 0
    assert len(counted_checks) == 1


def test_validate_then_solve_checks_once(counted_checks):
    scenario = build_gridworld(4, 3, [5], 0, 11, 6, 0.3)
    assert validate(scenario) == []
    require_valid(scenario)
    mfe_solve(scenario)
    assert counted_checks == [scenario]


def _invalid_scenario() -> Scenario:
    grid = build_gridworld(3, 3, [], 0, 8, 4, 0.3)
    reference = grid.reference.probs.copy()
    reference[2, :2] = [-0.5, 1.5]
    return Scenario(grid.graph, grid.costs, ReferencePolicy(reference), float("nan"), grid.initial)


def test_require_valid_raises_the_same_error_every_time():
    scenario = _invalid_scenario()
    errors = []
    for _ in range(3):
        with pytest.raises(InvalidScenarioError) as info:
            require_valid(scenario)
        errors.append(info.value)
        info.value.violations.clear()  # the caller's list, not the scenario's
    assert [str(e) for e in errors] == [str(errors[0])] * 3
    assert str(errors[0]).startswith("invalid scenario: alpha: alpha must be a positive real, got nan; ")
    assert "reference_nonpositive[t=2, i=0, j=0]" in str(errors[0])


def test_validate_returns_a_fresh_list():
    scenario = _invalid_scenario()
    first = validate(scenario)
    assert [v.code for v in first] == ["alpha", "reference_nonpositive", "reference_row_sum"]
    first.clear()
    first.append("not a violation")
    again = validate(scenario)
    assert [v.code for v in again] == ["alpha", "reference_nonpositive", "reference_row_sum"]
    assert again is not validate(scenario)


def test_best_response_logs_a_policy_without_cached_logs_per_stage_block():
    """best_response_finite_n on a PolicyKernel of bare probabilities, per-stage 40x40/T60, peaks within 2.3 tables.

    It takes no tax gap and so no log of the policy; a whole (T, E) log table took the peak to 3.05.
    Epsilon and the values are those of the policy with its cached logs, bit for bit.
    """
    scenario = _per_stage_walled_grid_40x40()
    population = mfe_solve(scenario).policy
    bare = PolicyKernel(population.probs.copy())
    tracemalloc.start()
    try:
        got = best_response_finite_n(scenario, bare, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = scenario.horizon * scenario.graph.edge_count * 8
    assert peak / table_bytes <= 2.3, peak / table_bytes
    want = best_response_finite_n(scenario, population, 10)
    assert _bits(got.epsilon).tobytes() == _bits(want.epsilon).tobytes()
    assert got.state_values.tobytes() == want.state_values.tobytes()


def _traced_peak(read, *args) -> int:
    tracemalloc.start()
    try:
        read(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("per_stage", [False, True], ids=["stationary", "per-stage"])
def test_file_readers_hold_a_chunk_of_text_not_the_file(tmp_path, per_stage):
    """The readers and the digest on 40x40/T60 files hold a chunk of the file, not its text.

    read_policy_csv peaks within 1.5 (T, E) tables: the table it fills, its
    mask of filled entries and a chunk.  read_scenario on the per-stage file
    peaks within 2.5: the two tables and a chunk.  file_digest holds a block,
    within 0.3.  Reading each file whole took them to 8.0-8.1, 14.6 and 4.0.
    """
    scenario = _per_stage_walled_grid_40x40() if per_stage else _walled_grid_40x40()
    write_scenario(scenario, tmp_path / "grid.scn")
    write_policy_csv(tmp_path / "policy.csv", scenario, mfe_solve(scenario).policy, RunManifest("mfe", {}))
    table_bytes = scenario.horizon * scenario.graph.edge_count * 8
    assert _traced_peak(read_policy_csv, tmp_path / "policy.csv", scenario) / table_bytes <= 1.5
    assert _traced_peak(file_digest, tmp_path / "policy.csv") / table_bytes <= 0.3
    if per_stage:
        assert _traced_peak(read_scenario, tmp_path / "grid.scn") / table_bytes <= 2.5
