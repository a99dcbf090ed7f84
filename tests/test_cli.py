from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import emit_heatmap_loop, random_scenario
from mftroute import (
    ReferencePolicy,
    Scenario,
    ScenarioFormatError,
    StageCosts,
    best_response_finite_n,
    build_gridworld,
    cli,
    expected_tax_gap,
    mfe_solve,
    read_scenario,
    serialize,
    write_scenario,
)
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


@pytest.mark.parametrize(
    "args, error",
    [
        (["simulate", "--policy", "{policy}", "--agents", "10", "--threads", "-3", "--out", "{out}"],
         "--threads must be >= 0"),
        (["mfe", "--certify-equalizer", "-1"], "--certify-equalizer must be >= 0"),
        # checked before any replication runs, so --reps 0 cannot hide it
        (["simulate", "--policy", "{policy}", "--agents", "-5", "--reps", "0", "--out", "{out}"],
         "--agents must be >= 1"),
        (["simulate", "--policy", "{policy}", "--agents", "0", "--reps", "1", "--out", "{out}"],
         "--agents must be >= 1"),
    ],
    ids=["threads", "certify-equalizer", "agents-negative-no-reps", "agents-zero"],
)
def test_negative_counts_are_data_errors(tmp_path, three_route_file, capsys, args, error):
    policy_csv = tmp_path / "policy.csv"
    main(["mfe", "--scenario", str(three_route_file), "--out-policy", str(policy_csv)])
    capsys.readouterr()
    args = [a.format(policy=policy_csv, out=tmp_path / "sim.csv") for a in args]
    assert main(args[:1] + ["--scenario", str(three_route_file)] + args[1:]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not (tmp_path / "sim.csv").exists()


_THIRDS = f"{1/3!r},{1/3!r},{1/3!r}"


@pytest.mark.parametrize(
    "args, error",
    [
        (["symmetric-ne", "--ref", "nan,0.5,0.5"], "reference probabilities must be strictly positive"),
        (["symmetric-ne", "--ref", "0.5,0.5,inf"], "reference sums to inf, expected 1"),
        (["symmetric-ne", "--costs", "nan,1,3"], "travel costs must be finite"),
        (["symmetric-ne", "--alpha", "inf"], "alpha must be a positive real, got inf"),
        (["symmetric-ne", "--alpha", "nan"], "alpha must be a positive real, got nan"),
        (["fp", "--ref", "nan,0.5,0.5"], "reference probabilities must be strictly positive"),
        (["fp", "--init", "nan,nan,nan"], "initial belief must lie in the probability simplex"),
        (["fp", "--init", "0.5,0.5"], "initial belief has 2 entries for 3 routes"),
        (["fp", "--routes", "4"], "--routes 4 but 3 costs given"),
        (["symmetric-ne", "--routes", "2"], "--routes 2 but 3 costs given"),
    ],
)
def test_route_game_rejects_non_finite_and_misshapen_inputs(tmp_path, capsys, args, error):
    options = {"--routes": "3", "--costs": "2,1,3", "--ref": _THIRDS, "--alpha": "1", "--agents": "20"}
    if args[0] == "fp":
        options["--days"] = "5"
    options.update(zip(args[1::2], args[2::2]))
    out = tmp_path / "out.csv"
    assert main(args[:1] + [tok for item in options.items() for tok in item] + ["--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not out.exists()


def test_manifest_lines_of_every_handler(tmp_path, three_route_file):
    policy_csv = tmp_path / "policy.csv"
    policy_csv.write_text("t,i,j,value\n0,0,1,0.25\n0,0,2,0.5\n0,0,3,0.25\n0,1,1,1.0\n0,2,2,1.0\n0,3,3,1.0\n")
    scenario = ["--scenario", str(three_route_file)]
    game = ["--routes", "3", "--costs", "2,1,3", "--ref", _THIRDS, "--alpha", "1", "--agents", "20"]
    runs = {
        "solve": ["solve", *scenario, "--out-policy"],
        "mfe": ["mfe", *scenario, "--certify-equalizer", "2", "--seed", "5", "--out-flow"],
        "simulate": ["simulate", *scenario, "--policy", str(policy_csv), "--agents", "20", "--reps", "2",
                     "--seed", "7", "--out"],
        "nash-gap": ["nash-gap", *scenario, "--agents", "10,100", "--out"],
        "fp": ["fp", *game, "--days", "5", "--out"],
        "symmetric-ne": ["symmetric-ne", *game, "--out"],
    }
    digest = "sha256[scenario]=a9125cd67f722ab0e10b424224711516651d3f78dd5cc75fc9b82b6b9db0bf82"
    game_params = ["agents=20", "alpha=1.0", "costs=2,1,3"]
    expected = {
        "solve": ["scenario=<tmp>/threeroute.scn", digest],
        "mfe": ["certify_equalizer=2", "scenario=<tmp>/threeroute.scn", f"seed=5 generator=pcg64 numpy={np.__version__}", digest],
        "simulate": [
            "agents=20", "policy=<tmp>/policy.csv", "reps=2", "scenario=<tmp>/threeroute.scn", "threads=0",
            f"seed=7 generator=pcg64 numpy={np.__version__}",
            "sha256[policy]=d4f1ff4fd65d9d6178d8aa28982adec406ac035021a7263d664fb5408a2ea965", digest,
        ],
        "nash-gap": ["agents=10,100", "scenario=<tmp>/threeroute.scn", digest],
        "fp": [*game_params, "days=5", "init=uniform", f"ref={_THIRDS}", "routes=3"],
        "symmetric-ne": [*game_params, f"ref={_THIRDS}", "routes=3"],
    }
    for name, args in runs.items():
        out = tmp_path / f"{name}.csv"
        assert main(args + [str(out)]) == 0
        lines = [line.replace(str(tmp_path), "<tmp>") for line in out.read_text().splitlines() if line.startswith("#")]
        assert lines[-1].startswith("# manifest: duration_s=")
        want = ["tool=mft-route version=0.1.0", f"subcommand={name}", *expected[name]]
        assert lines[:-1] == [f"# manifest: {line}" for line in want]


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


@pytest.mark.parametrize(
    "agents, error",
    [
        ("10,0", "--agents must be >= 1"),
        ("10,-3", "--agents must be >= 1"),
        ("1.5", "--agents must be an integer, got 1.5"),
        ("10, x", "--agents must be an integer, got x"),
        (" , ", "--agents needs at least one player count"),
    ],
)
def test_nash_gap_checks_its_agent_counts_before_reading_the_scenario(tmp_path, capsys, agents, error):
    # the scenario file does not exist: the count is checked before any read or solve
    out = tmp_path / "gaps.csv"
    args = ["nash-gap", "--scenario", str(tmp_path / "missing.scn"), "--agents", agents, "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not out.exists()


def _random_tolled_scenario(seed: int, stationary: bool):
    """A random scenario: a grid with jittered stationary tables, or a random graph with per-stage tables."""
    rng = np.random.default_rng(seed)
    if not stationary:
        return random_scenario(rng, max_nodes=8, max_horizon=6, alpha_range=(0.05, 3.0))
    width, height = (int(n) for n in rng.integers(2, 6, size=2))
    base = build_gridworld(width, height, (), 0, width * height - 1, int(rng.integers(2, 10)), 0.3)
    g = base.graph
    shape = (base.horizon, g.edge_count)
    stage = np.broadcast_to(base.costs.stage[0] + rng.uniform(0.0, 0.5, g.edge_count), shape)
    ref_row = np.concatenate([rng.dirichlet(np.ones(degree)) for degree in np.diff(g.row_start).tolist()])
    reference = ReferencePolicy(np.broadcast_to(ref_row, shape))
    return Scenario(g, StageCosts(base.horizon, stage), reference, 0.3, base.initial)


@pytest.mark.parametrize("stationary", [True, False], ids=["stationary", "per-stage"])
@pytest.mark.parametrize("seed", range(3))
def test_nash_gap_rows_equal_the_public_per_call_path(tmp_path, seed, stationary):
    path = tmp_path / "net.scn"
    write_scenario(_random_tolled_scenario(seed, stationary), path)
    scenario = read_scenario(path)
    policy = mfe_solve(scenario).policy
    # unsorted and repeated lists, on both sides of the whole-support sum's 256 players
    for agents in ("2,255,256,257,1000", "1000,10,1000", "100000,10,300,10"):
        out = tmp_path / "gaps.csv"
        assert main(["nash-gap", "--scenario", str(path), "--agents", agents, "--out", str(out)]) == 0
        n_list = [int(tok) for tok in agents.split(",")]
        gaps = expected_tax_gap(scenario, policy, n_list)
        want = [f"{n},{gaps[n]!r},{best_response_finite_n(scenario, policy, n).epsilon!r}" for n in n_list]
        assert _payload(out) == ["n_agents,expected_tax_gap,epsilon_nash", *want]


def test_fp_subcommand_emits_diagnostics(tmp_path, capsys):
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
    distance = lines[-1].split(",")[-2]  # a plain float repr, as in the table
    assert capsys.readouterr().out.endswith(f"final distance to the finite-N equilibrium: {distance}\n")


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


@pytest.mark.parametrize("width, height", [("-2", "-3"), ("3", "0")])
def test_gridworld_subcommand_rejects_an_empty_grid(tmp_path, capsys, width, height):
    out = tmp_path / "grid.scn"
    args = ["gridworld", "--width", width, "--height", height, "--origin", "0", "--dest", "0",
            "--horizon", "3", "--alpha", "1", "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr() == ("", f"error: grid width {width} and height {height} must both be >= 1\n")
    assert not out.exists()


def test_unreadable_inputs_and_an_empty_agent_list_are_data_errors(tmp_path, three_route_file, capsys):
    missing = tmp_path / "missing"
    out = tmp_path / "out.csv"
    assert main(["solve", "--scenario", str(missing)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read scenario file {missing}: ")
    args = ["simulate", "--scenario", str(three_route_file), "--policy", str(missing), "--agents", "10"]
    assert main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot read policy file {missing}: ")
    assert main(["nash-gap", "--scenario", str(three_route_file), "--agents", ",", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --agents needs at least one player count\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "bad, fault",
    [(b"\xff", "byte 0xff is not UTF-8 (invalid start byte)"),
     (b"\xc3(", "byte 0xc3 is not UTF-8 (invalid continuation byte)")],
)
def test_a_file_that_is_not_utf8_is_an_error_at_its_line(tmp_path, three_route_file, capsys, bad, fault):
    """Both readers name the path and the bad byte's line, counted past read()'s first block and across
    the line breaks other than '\\n' as the readers count them."""
    head = b"# a comment\r\n" * 10000 + b"# one\xe2\x80\xa8# two\r# three\n"  # lines 1-10003
    policy_csv = tmp_path / "policy.csv"
    main(["mfe", "--scenario", str(three_route_file), "--out-policy", str(policy_csv)])
    out = tmp_path / "sim.csv"
    for source, what in ((three_route_file, "scenario"), (policy_csv, "policy")):
        lines = source.read_bytes().split(b"\n")
        k = next(k for k, line in enumerate(lines) if line in (b"[costs]", b"t,i,j,value")) + 1
        lines[k] += bad
        path = tmp_path / f"bad_{what}"
        path.write_bytes(head + b"\n".join(lines))
        if what == "scenario":
            assert main(["validate", "--scenario", str(path)]) == 1
        else:
            args = ["simulate", "--scenario", str(three_route_file), "--policy", str(path), "--agents", "10"]
            assert main(args + ["--out", str(out)]) == 1
        expected = f"error: cannot read {what} file {path}: line {10003 + k + 1}: {fault}\n"
        assert capsys.readouterr().err == expected
    assert not out.exists()


BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark some editors write at the start of a file


def test_a_leading_byte_order_mark_is_ignored(tmp_path, three_route_file):
    """A scenario file, and a policy CSV with and without its manifest lines, read as they do without a BOM."""
    policy_csv = tmp_path / "policy.csv"
    main(["mfe", "--scenario", str(three_route_file), "--out-policy", str(policy_csv)])
    bare_csv = tmp_path / "bare.csv"
    bare_csv.write_bytes(b"".join(line for line in policy_csv.read_bytes().splitlines(True) if line[:1] != b"#"))
    scenario = read_scenario(three_route_file)
    with_bom = tmp_path / "bom.scn"
    with_bom.write_bytes(BOM + three_route_file.read_bytes())
    # serialize writes every float so that it reads back exactly: equal texts are equal bits
    assert serialize(read_scenario(with_bom)) == serialize(scenario)
    for source in (policy_csv, bare_csv):
        path = tmp_path / f"bom_{source.name}"
        path.write_bytes(BOM + source.read_bytes())
        assert read_policy_csv(path, scenario).probs.tobytes() == read_policy_csv(source, scenario).probs.tobytes()


def test_a_bad_byte_after_a_byte_order_mark_is_an_error_at_its_line(tmp_path, three_route_file, capsys):
    policy_csv = tmp_path / "policy.csv"
    main(["mfe", "--scenario", str(three_route_file), "--out-policy", str(policy_csv)])
    out = tmp_path / "sim.csv"
    for source, what in ((three_route_file, "scenario"), (policy_csv, "policy")):
        lines = source.read_bytes().split(b"\n")
        lines[3] += b"\xff"
        path = tmp_path / f"bad_{what}"
        path.write_bytes(BOM + b"\n".join(lines))
        if what == "scenario":
            assert main(["validate", "--scenario", str(path)]) == 1
        else:
            args = ["simulate", "--scenario", str(three_route_file), "--policy", str(path), "--agents", "10"]
            assert main(args + ["--out", str(out)]) == 1
        fault = "byte 0xff is not UTF-8 (invalid start byte)"
        assert capsys.readouterr().err == f"error: cannot read {what} file {path}: line 4: {fault}\n"
    assert not out.exists()


class _SerialPool:
    """Stands in for ThreadPoolExecutor: records the requested pool size and maps in the caller."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.mark.parametrize(
    "threads, reps, cpus, size",
    [("5000", "5000", 2, 2), ("0", "5000", 3, 3), ("0", "2", None, 1), ("4", "0", 8, 1), ("3", "2", 8, 2)],
)
def test_simulate_pool_is_capped_by_cpus_and_reps(tmp_path, three_route_file, monkeypatch, threads, reps, cpus, size):
    policy_csv = tmp_path / "policy.csv"
    main(["mfe", "--scenario", str(three_route_file), "--out-policy", str(policy_csv)])
    monkeypatch.setattr(cli, "ThreadPoolExecutor", _SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(_SerialPool, "sizes", [])
    out = tmp_path / "sim.csv"
    args = ["simulate", "--scenario", str(three_route_file), "--policy", str(policy_csv), "--agents", "2",
            "--threads", threads, "--reps", reps, "--out", str(out)]
    assert main(args) == 0
    assert _SerialPool.sizes == [size]
    assert len({line.split(",")[0] for line in _payload(out)[1:]}) == int(reps)


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


@given(
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["random", "half steps", "all zero", "one cell"]),
)
def test_heatmap_is_byte_equal_to_the_cell_loop(width, height, seed, layout):
    rng = np.random.default_rng(seed)
    cells = width * height
    mass = {
        "random": rng.random(cells) ** 4,
        "half steps": rng.integers(0, 511, cells) / 510,  # many exact .5 intensities: round half to even
        "all zero": np.zeros(cells),
        "one cell": np.eye(cells)[rng.integers(cells)],
    }[layout]
    # obstacle ids may fall outside the grid, which both ignore
    obstacles = rng.choice(np.arange(-2, cells + 2), size=rng.integers(0, cells + 1), replace=False)
    header = ["# manifest: subcommand=test"]
    text = emit_heatmap(SimpleNamespace(distributions=mass[None]), 0, width, height, obstacles, header)
    assert text == emit_heatmap_loop(mass, width, height, obstacles, header)


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
