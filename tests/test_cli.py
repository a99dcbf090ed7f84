from __future__ import annotations

import numpy as np
import pytest

from helpers import random_scenario
from mftroute import ScenarioFormatError, build_gridworld, mfe_solve, read_scenario, serialize, write_scenario
from mftroute.cli import (
    FIG2_OBSTACLES,
    FIG2_WIDTH,
    emit_heatmap,
    main,
    read_policy_csv,
    three_route_scenario,
)


def _payload(path):
    """Non-comment lines of an output file (the deterministic part)."""
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


@pytest.fixture
def three_route_file(tmp_path):
    path = tmp_path / "threeroute.scn"
    write_scenario(three_route_scenario(), path)
    return path


def test_mfe_subcommand_writes_the_equilibrium_policy(tmp_path, three_route_file):
    out = tmp_path / "policy.csv"
    flow = tmp_path / "flow.csv"
    code = main(
        ["mfe", "--scenario", str(three_route_file), "--out-policy", str(out), "--out-flow", str(flow)]
    )
    assert code == 0
    rows = {}
    for line in _payload(out)[1:]:
        t, i, j, v = line.split(",")
        rows[(int(t), int(i), int(j))] = float(v)
    assert round(rows[(0, 0, 1)], 3) == 0.245
    assert round(rows[(0, 0, 2)], 3) == 0.665
    assert round(rows[(0, 0, 3)], 3) == 0.090
    flow_rows = [line.split(",") for line in _payload(flow)[1:]]
    assert flow_rows[0] == ["0", "0", "1.0"]


def test_missing_scenario_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["solve"])
    assert excinfo.value.code == 2


def test_unknown_flag_is_a_usage_error(tmp_path, three_route_file):
    scenario = str(three_route_file)
    out_dir = str(tmp_path / "unused")
    for argv in (
        ["mfe", "--scenario", scenario, "--frobnicate"],
        # --seed and --threads exist only where a handler reads them
        ["mfe", "--scenario", scenario, "--threads", "2"],
        ["solve", "--scenario", scenario, "--seed", "1"],
        ["reproduce", "fig4", "--out-dir", out_dir, "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2


def test_help_exits_zero():
    for args in (["--help"],):
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 0


def test_validation_failure_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    text = (tmp_path / "bad.scn").name  # build from a valid file, then break it
    good = three_route_scenario()
    write_scenario(good, bad)
    mangled = bad.read_text().replace("alpha = 1", "alpha = -1")
    bad.write_text(mangled)
    code = main(["validate", "--scenario", str(bad)])
    assert code == 1
    assert "alpha" in capsys.readouterr().err


def test_parse_failure_exits_one(tmp_path, capsys):
    bad = tmp_path / "garbage.scn"
    bad.write_text("[params]\nnodes = 2\n")
    code = main(["solve", "--scenario", str(bad)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unwritable_output_exits_one(tmp_path, three_route_file, capsys):
    out = tmp_path / "missing_dir" / "gaps.csv"
    code = main(["nash-gap", "--scenario", str(three_route_file), "--agents", "10", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_read_policy_csv_rejects_duplicate_rows(tmp_path, three_route_file):
    policy_csv = tmp_path / "policy.csv"
    main(["mfe", "--scenario", str(three_route_file), "--out-policy", str(policy_csv)])
    lines = policy_csv.read_text().splitlines()
    row = next(line for line in lines if line.startswith("0,0,2,"))
    policy_csv.write_text("\n".join(lines + [row]) + "\n")
    expected = rf"line {len(lines) + 1}: duplicate policy row for stage 0 edge 0 -> 2"
    with pytest.raises(ScenarioFormatError, match=expected):
        read_policy_csv(policy_csv, read_scenario(three_route_file))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_read_policy_csv_rejects_non_finite_values(tmp_path, three_route_file, capsys, value):
    policy_csv = tmp_path / "policy.csv"
    main(["mfe", "--scenario", str(three_route_file), "--out-policy", str(policy_csv)])
    lines = policy_csv.read_text().splitlines()
    n = next(k for k, line in enumerate(lines) if line.startswith("0,0,2,"))
    lines[n] = f"0,0,2,{value}"
    policy_csv.write_text("\n".join(lines) + "\n")
    expected = f"line {n + 1}: policy value '{value}' is not finite"
    with pytest.raises(ScenarioFormatError, match=expected):
        read_policy_csv(policy_csv, read_scenario(three_route_file))
    out = tmp_path / "sim.csv"
    args = ["simulate", "--scenario", str(three_route_file), "--policy", str(policy_csv), "--agents", "10"]
    assert main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {expected}\n"


@pytest.mark.parametrize(
    "values, error",
    [
        (("0.5", "0.9", "-0.4"), "line {n}: policy value '-0.4' is negative"),
        (("0.5", "0.25", "0.125"), "policy rows of stage 0 node 0 sum to 0.875, expected 1"),
    ],
    ids=["negative entry", "row sum"],
)
def test_simulate_rejects_a_bad_policy_row(tmp_path, three_route_file, capsys, values, error):
    policy_csv = tmp_path / "policy.csv"
    main(["mfe", "--scenario", str(three_route_file), "--out-policy", str(policy_csv)])
    lines = policy_csv.read_text().splitlines()
    first = next(k for k, line in enumerate(lines) if line.startswith("0,0,1,"))
    for k, (j, value) in enumerate(zip((1, 2, 3), values)):
        lines[first + k] = f"0,0,{j},{value}"
    policy_csv.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    out = tmp_path / "sim.csv"
    args = ["simulate", "--scenario", str(three_route_file), "--policy", str(policy_csv), "--agents", "10"]
    assert main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {error.format(n=first + 3)}\n"
    assert not out.exists()


def test_every_policy_mfe_writes_reads_back(tmp_path):
    rng = np.random.default_rng(5)
    # alpha 0.1 against the obstacle penalty drives some probabilities to exactly 0
    scenarios = [three_route_scenario(), build_gridworld(5, 4, (6, 7, 12), 0, 19, 12, 0.1)]
    scenarios += [random_scenario(rng, max_degree=6) for _ in range(8)]
    zeros = 0
    for k, scenario in enumerate(scenarios):
        scenario_file, policy_csv = tmp_path / f"{k}.scn", tmp_path / f"{k}.csv"
        write_scenario(scenario, scenario_file)
        assert main(["mfe", "--scenario", str(scenario_file), "--out-policy", str(policy_csv)]) == 0
        parsed = read_policy_csv(policy_csv, read_scenario(scenario_file))
        assert parsed.probs.tobytes() == mfe_solve(read_scenario(scenario_file)).policy.probs.tobytes()
        zeros += int(np.count_nonzero(parsed.probs == 0))
    assert zeros > 0


def test_simulate_rejects_negative_reps_and_writes_a_header_for_zero(tmp_path, three_route_file, capsys):
    policy_csv = tmp_path / "policy.csv"
    main(["mfe", "--scenario", str(three_route_file), "--out-policy", str(policy_csv)])
    out = tmp_path / "sim.csv"
    args = ["simulate", "--scenario", str(three_route_file), "--policy", str(policy_csv), "--agents", "10"]
    assert main(args + ["--reps", "-1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --reps must be >= 0\n"
    assert main(args + ["--reps", "0", "--out", str(out)]) == 0
    assert _payload(out) == ["rep,t,i,j,count,realized_tax"]


def test_validate_reports_a_nan_cost_with_its_location(tmp_path, capsys):
    lines = serialize(three_route_scenario()).splitlines()
    lines[lines.index("[costs]") + 1] = "0 1 nan"
    path = tmp_path / "nan.scn"
    path.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "nonfinite_cost[t=0, i=0, j=1]: cost must be finite\n1 violation(s) found\n"


def test_solve_outputs_log_desirability(tmp_path, three_route_file):
    out = tmp_path / "logphi.csv"
    code = main(["solve", "--scenario", str(three_route_file), "--out-logphi", str(out)])
    assert code == 0
    rows = {tuple(line.split(",")[:2]): float(line.split(",")[2]) for line in _payload(out)[1:]}
    assert rows[("1", "0")] == 0.0  # terminal stage
    assert rows[("0", "0")] == pytest.approx(np.log((np.exp(-2) + np.exp(-1) + np.exp(-3)) / 3))


def test_simulate_round_trips_policy_and_is_deterministic(tmp_path, three_route_file):
    policy_csv = tmp_path / "policy.csv"
    main(["mfe", "--scenario", str(three_route_file), "--out-policy", str(policy_csv)])

    scenario = read_scenario(three_route_file)
    parsed = read_policy_csv(policy_csv, scenario)
    np.testing.assert_allclose(parsed.probs, mfe_solve(scenario).policy.probs, rtol=0, atol=1e-15)

    out_a = tmp_path / "sim_a.csv"
    out_b = tmp_path / "sim_b.csv"
    base = ["simulate", "--scenario", str(three_route_file), "--policy", str(policy_csv),
            "--agents", "200", "--reps", "3", "--seed", "42"]
    assert main(base + ["--out", str(out_a)]) == 0
    assert main(base + ["--out", str(out_b), "--threads", "2"]) == 0
    assert _payload(out_a) == _payload(out_b)
    header = _payload(out_a)[0]
    assert header == "rep,t,i,j,count,realized_tax"


def test_nash_gap_table(tmp_path, three_route_file):
    out = tmp_path / "gaps.csv"
    code = main(["nash-gap", "--scenario", str(three_route_file), "--agents", "10,100", "--out", str(out)])
    assert code == 0
    lines = _payload(out)
    assert lines[0] == "n_agents,expected_tax_gap,epsilon_nash"
    table = {int(line.split(",")[0]): [float(x) for x in line.split(",")[1:]] for line in lines[1:]}
    assert table[10][0] > table[100][0]
    assert table[10][1] > table[100][1] >= 0


def test_fp_subcommand_emits_diagnostics(tmp_path):
    out = tmp_path / "fp.csv"
    code = main(
        ["fp", "--routes", "3", "--costs", "2,1,3", "--ref",
         f"{1/3!r},{1/3!r},{1/3!r}", "--alpha", "1", "--agents", "50",
         "--days", "40", "--init", "uniform", "--out", str(out)]
    )
    assert code == 0
    lines = _payload(out)
    assert lines[0] == "day,q1,q2,q3,r,dist_to_ne,dist_to_mfe"
    assert len(lines) == 1 + 41  # initial belief plus one row per day
    first = lines[1].split(",")
    assert first[0] == "1" and first[4] == "1"  # day one best response: middle route


def test_fp_payload_matches_reproduce_fig4(tmp_path):
    out = tmp_path / "fp.csv"
    code = main(
        ["fp", "--routes", "3", "--costs", "2.0,1.0,3.0", "--ref",
         f"{1/3!r},{1/3!r},{1/3!r}", "--alpha", "1", "--agents", "20", "--days", "50", "--out", str(out)]
    )
    assert code == 0
    assert main(["reproduce", "fig4", "--days", "50", "--out-dir", str(tmp_path / "fig4")]) == 0
    assert _payload(out) == _payload(tmp_path / "fig4" / "fp_n20.csv")


def test_symmetric_ne_subcommand(tmp_path):
    out = tmp_path / "ne.csv"
    code = main(
        ["symmetric-ne", "--routes", "3", "--costs", "2,1,3", "--ref",
         f"{1/3!r},{1/3!r},{1/3!r}", "--alpha", "1", "--agents", "200", "--out", str(out)]
    )
    assert code == 0
    lines = _payload(out)
    assert lines[0] == "record,route,value"
    q = {int(line.split(",")[1]): float(line.split(",")[2]) for line in lines if line.startswith("q,")}
    assert abs(q[1] - 0.665) <= 0.05
    assert any(line.startswith("lambda,") for line in lines)


def test_gridworld_subcommand_writes_loadable_scenario(tmp_path):
    out = tmp_path / "grid.scn"
    code = main(
        ["gridworld", "--width", "3", "--height", "2", "--obstacles", "4",
         "--origin", "0", "--dest", "5", "--horizon", "4", "--alpha", "0.5", "--out", str(out)]
    )
    assert code == 0
    scenario = read_scenario(out)
    assert scenario.graph.node_count == 6
    assert scenario.horizon == 4


def test_mfe_determinism_across_runs(tmp_path, three_route_file):
    outs = []
    for name in ("p1.csv", "p2.csv"):
        out = tmp_path / name
        main(["mfe", "--scenario", str(three_route_file), "--out-policy", str(out),
              "--certify-equalizer", "5", "--seed", "9"])
        outs.append(_payload(out))
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# Heatmaps and reproduction presets
# ---------------------------------------------------------------------------

def test_heatmap_point_mass_and_uniform():
    class FakeFlow:
        def __init__(self, dist):
            self.distributions = np.asarray([dist])

    point = np.zeros(6)
    point[3] = 1.0
    text = emit_heatmap(FakeFlow(point), 0, 3, 2)
    pixels = [int(x) for row in text.splitlines()[4:] for x in row.split()]
    assert pixels[3] == 255 and sum(pixels) == 255

    uniform = np.full(6, 1 / 6)
    text = emit_heatmap(FakeFlow(uniform), 0, 3, 2)
    pixels = [int(x) for row in text.splitlines()[4:] for x in row.split()]
    assert pixels == [255] * 6


def test_heatmap_rejects_non_grid_scenarios(three_route):
    flow = mfe_solve(three_route).flow
    with pytest.raises(ValueError, match="grid"):
        emit_heatmap(flow, 0, 3, 3)


def test_reproduce_fig2_outputs(tmp_path):
    out_dir = tmp_path / "fig2"
    code = main(["reproduce", "fig2", "--alpha", "0.1", "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "flow.csv").exists()
    for t in (20, 35, 50):
        frame = out_dir / f"heatmap_t{t}.pgm"
        lines = [l for l in frame.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "P2"
        assert lines[1] == "10 10"
        assert lines[2] == "256"
        pixels = np.array([int(x) for row in lines[3:] for x in row.split()])
        assert pixels.shape == (100,)
        # obstacle cells carry the sentinel, data stays in 0..255
        assert np.all(pixels[list(FIG2_OBSTACLES)] == 256)
        data = np.delete(pixels, list(FIG2_OBSTACLES))
        assert data.max() == 255 and data.min() >= 0


def test_reproduce_fig4_outputs(tmp_path):
    out_dir = tmp_path / "fig4"
    code = main(["reproduce", "fig4", "--days", "50", "--out-dir", str(out_dir)])
    assert code == 0
    for n in (20, 200):
        lines = _payload(out_dir / f"fp_n{n}.csv")
        assert lines[0] == "day,q1,q2,q3,r,dist_to_ne,dist_to_mfe"
        assert len(lines) == 1 + 51
