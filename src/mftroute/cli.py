"""Command-line entry point: solve, simulate, learn, and reproduce.

Every output file carries its run manifest as leading comment lines, so a
run can be reproduced exactly; the tables are read and written by
mftroute.textio.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

import numpy as np

from .fictitious_play import fp_run
from .finite_population import MAX_COUNT, _nash_gap_rows, realized_taxes, simulate_replications
from .kl_solver import backward_pass, extract_policy, value
from .mean_field import FlowTrajectory, equalizer_gap, mfe_solve, propagate, random_policy
from .scenario import (
    Distribution,
    InvalidScenarioError,
    ReferencePolicy,
    Scenario,
    ScenarioFormatError,
    StageCosts,
    TrafficGraph,
    build_gridworld,
    grid_node,
    require_valid,
    validate,
)
from .symmetric_equilibrium import SingleStageGame, solve_single_stage_mfe, solve_symmetric_ne
from .textio import (
    PROG,
    RunManifest,
    read_policy_csv,
    read_scenario,
    write_csv,
    write_fp_csv,
    write_node_table,
    write_policy_csv,
    write_scenario,
)

# Reproduction preset for the grid-world experiment: 10 x 10 cells, two
# staggered walls forcing an S-shaped detour from the north-west origin to
# the south-east destination, horizon 70.
FIG2_WIDTH = 10
FIG2_HEIGHT = 10
FIG2_HORIZON = 70
FIG2_ORIGIN = grid_node(FIG2_WIDTH, 0, 0)
FIG2_DESTINATION = grid_node(FIG2_WIDTH, 9, 9)
FIG2_OBSTACLES = tuple(
    [grid_node(FIG2_WIDTH, 3, y) for y in range(0, 7)]
    + [grid_node(FIG2_WIDTH, 6, y) for y in range(3, 10)]
)
FIG2_FRAMES = (20, 35, 50)

# Reproduction preset for the three-route fictitious play experiment.
FIG4_COSTS = (2.0, 1.0, 3.0)
FIG4_REFERENCE = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
FIG4_ALPHA = 1.0
FIG4_PLAYERS = (20, 200)
FIG4_DAYS = 10000

OBSTACLE_SENTINEL = 256  # outside the 0..255 data range by construction


def fig2_scenario(alpha: float) -> Scenario:
    return build_gridworld(FIG2_WIDTH, FIG2_HEIGHT, FIG2_OBSTACLES, FIG2_ORIGIN, FIG2_DESTINATION, FIG2_HORIZON, alpha)


def three_route_scenario(costs=FIG4_COSTS, reference=FIG4_REFERENCE, alpha=FIG4_ALPHA) -> Scenario:
    """Origin plus one sink per route; sinks self-loop at zero cost."""
    routes = len(costs)
    graph = TrafficGraph.from_neighbors([range(1, routes + 1), *([j] for j in range(1, routes + 1))])
    cost_row = np.concatenate([np.asarray(costs, dtype=np.float64), np.zeros(routes)])
    ref_row = np.concatenate([np.asarray(reference, dtype=np.float64), np.ones(routes)])
    return Scenario(
        graph=graph,
        costs=StageCosts(1, cost_row[None]),
        reference=ReferencePolicy(ref_row[None]),
        alpha=float(alpha),
        initial=Distribution.point_mass(routes + 1, 0),
    )


def emit_heatmap(flow: FlowTrajectory, t: int, width: int, height: int, obstacles=(), header_lines=()) -> str:
    """Plain-text graymap of the stage-t distribution, one pixel per cell.

    Intensities are round(255 * mass / max mass); obstacle cells are drawn
    at the reserved sentinel 256, which no data pixel can reach.
    """
    mass = flow.distributions[t]
    if mass.shape[0] != width * height:
        raise ValueError(f"scenario has {mass.shape[0]} nodes, not a {width} x {height} grid")
    peak = float(mass.max())
    # round() and np.rint both round half to even
    levels = np.rint(255.0 * mass / peak).astype(np.int64) if peak != 0.0 else np.zeros(mass.shape, np.int64)
    obstacle_ids = np.array(sorted({int(o) for o in obstacles}), dtype=np.int64)
    levels[obstacle_ids[(obstacle_ids >= 0) & (obstacle_ids < len(levels))]] = OBSTACLE_SENTINEL
    lines = ["P2", f"# obstacle cells use sentinel value {OBSTACLE_SENTINEL}; data range is 0..255", *header_lines]
    lines += [f"{width} {height}", str(OBSTACLE_SENTINEL)]
    lines.extend(" ".join(map(str, row)) for row in levels.reshape(height, width).tolist())
    return "\n".join(lines) + "\n"


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _manifest(args, start: float, input_digests: dict | None = None) -> RunManifest:
    """The handler's manifest: its parsed options except the subcommand, the handler, the seed and the out* paths."""
    skipped = ("subcommand", "handler", "seed")
    params = {k: v for k, v in vars(args).items() if k not in skipped and not k.startswith("out")}
    return RunManifest(
        args.subcommand, params, getattr(args, "seed", None), input_digests, time.perf_counter() - start
    )


def _load_scenario(args) -> tuple[Scenario, dict]:
    scenario = read_scenario(args.scenario)
    require_valid(scenario)
    return scenario, {"scenario": _digest(args.scenario)}


def _cmd_validate(args) -> int:
    scenario = read_scenario(args.scenario)
    violations = validate(scenario)
    if violations:
        for v in violations:
            print(str(v), file=sys.stderr)
        print(f"{len(violations)} violation(s) found", file=sys.stderr)
        return 1
    print("scenario is valid")
    return 0


def _cmd_mfe(args) -> int:
    """Backward pass; the policy is extracted only for an output that reads it, the flow only for --out-flow."""
    start = time.perf_counter()
    scenario, digests = _load_scenario(args)
    desirability = backward_pass(scenario)
    reads_policy = args.out_policy or args.out_flow or args.certify_equalizer
    policy = extract_policy(scenario, desirability) if reads_policy else None
    flow = propagate(scenario, policy) if args.out_flow else None
    manifest = _manifest(args, start, digests)
    if not args.certify_equalizer:
        manifest.seed = None  # nothing is drawn
    if args.out_policy:
        write_policy_csv(args.out_policy, scenario, policy, manifest)
    if args.out_logphi:
        write_node_table(args.out_logphi, "t,i,value", desirability.log_phi, manifest)
    if flow is not None:
        write_node_table(args.out_flow, "t,i,mass", flow.distributions, manifest)
    if args.certify_equalizer:
        rng = np.random.default_rng(args.seed)
        trials = [random_policy(scenario, rng) for _ in range(args.certify_equalizer)]
        gap = equalizer_gap(scenario, policy, trials, desirability)
        print(f"equalizer gap over {args.certify_equalizer} random policies: {gap!r}")
    print(f"optimal expected cost from the initial distribution: {value(desirability, scenario.initial, 0)!r}")
    print(f"mean-field equilibrium computed over {scenario.horizon} stages")
    return 0


def _cmd_simulate(args) -> int:
    start = time.perf_counter()
    scenario, digests = _load_scenario(args)
    policy = read_policy_csv(args.policy, scenario)
    digests["policy"] = _digest(args.policy)

    samples = simulate_replications(scenario, policy, args.agents, args.seed, args.reps)
    tables = [realized_taxes(sample, scenario) for sample in samples]
    reps = np.repeat(np.arange(args.reps), [len(table[0]) for table in tables])
    columns = [reps, *(np.concatenate(column) for column in zip(*tables))]
    write_csv(args.out, "rep,t,i,j,count,realized_tax", columns, _manifest(args, start, digests))
    print(f"simulated {args.reps} replication(s) of {args.agents} agents")
    return 0


def _cmd_nash_gap(args) -> int:
    n_list = _comma_list(args.agents, "--agents", int, least=1, most=MAX_COUNT)
    if not n_list:
        raise ValueError("--agents needs at least one player count")
    start = time.perf_counter()
    scenario, digests = _load_scenario(args)
    solution = mfe_solve(scenario)
    rows = _nash_gap_rows(scenario, solution.policy, solution.flow, n_list)
    columns = [n_list, *zip(*rows)]
    write_csv(args.out, "n_agents,expected_tax_gap,epsilon_nash", columns, _manifest(args, start, digests))
    print(f"computed tax-convergence and best-response gaps for N in {n_list}")
    return 0


def _comma_list(text: str, flag: str, kind=float, least=None, most=None) -> list:
    """The entries of a comma-separated option, empty tokens skipped; a bad token or one outside least..most raises."""
    what = "an integer" if kind is int else "a number"
    values = []
    for tok in filter(str.strip, text.split(",")):
        try:
            values.append(kind(tok))
        except ValueError:
            raise ValueError(f"{flag} must be {what}, got {tok.strip()}") from None
        _check_range(values[-1], flag, least, most)
    return values


def _check_range(value, flag: str, least=None, most=None) -> None:
    if least is not None and value < least:
        raise ValueError(f"{flag} must be >= {least}")
    if most is not None and value > most:
        raise ValueError(f"{flag} must be <= {most}")


def _route_list(text: str, flag: str, routes: int) -> np.ndarray:
    """A comma list of one entry per route; another length raises, naming the flag and --costs."""
    values = np.array(_comma_list(text, flag))
    if len(values) != routes:
        raise ValueError(f"{flag} has {len(values)} entries, --costs has {routes}")
    return values


def _parse_game(args) -> SingleStageGame:
    costs = np.array(_comma_list(args.costs, "--costs"))
    return SingleStageGame(costs, _route_list(args.ref, "--ref", len(costs)), args.alpha, args.agents)


def _cmd_fp(args) -> int:
    start = time.perf_counter()
    game = _parse_game(args)
    if args.init == "uniform":
        initial = np.full(game.route_count, 1.0 / game.route_count)
    else:
        initial = _route_list(args.init, "--init", game.route_count)
    result = fp_run(game, initial, args.days)
    write_fp_csv(args.out, result, _manifest(args, start))
    print(
        f"fictitious play finished after {args.days} days; final distance to the "
        f"finite-N equilibrium: {float(result.dist_to_finite_ne[-1])!r}"
    )
    return 0


def _cmd_symmetric_ne(args) -> int:
    start = time.perf_counter()
    game = _parse_game(args)
    result = solve_symmetric_ne(game)
    mfe = solve_single_stage_mfe(game)
    manifest = _manifest(args, start)
    routes = list(range(game.route_count))
    records = [name for name in ("q", "kkt_residual", "mfe") for _ in routes] + ["lambda"]
    values = np.concatenate([result.q, result.residuals, mfe, [result.lam]])
    write_csv(args.out, "record,route,value", [records, routes * 3 + [-1], values], manifest)
    print(f"symmetric equilibrium: {np.array2string(np.asarray(result.q), precision=6)}")
    return 0


def _cmd_gridworld(args) -> int:
    obstacles = _comma_list(args.obstacles, "--obstacles", int)
    scenario = build_gridworld(
        args.width, args.height, obstacles, args.origin, args.dest, args.horizon, args.alpha
    )
    write_scenario(scenario, args.out)
    print(f"wrote {args.width} x {args.height} grid-world scenario to {args.out}")
    return 0


def _cmd_reproduce_fig2(args) -> int:
    start = time.perf_counter()
    solution = mfe_solve(fig2_scenario(args.alpha))  # a bad alpha fails here, before the directory is made
    duration = time.perf_counter() - start
    manifest = RunManifest("reproduce fig2", {"alpha": args.alpha}, duration_s=duration)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for t in FIG2_FRAMES:
        text = emit_heatmap(solution.flow, t, FIG2_WIDTH, FIG2_HEIGHT, FIG2_OBSTACLES, manifest.header_lines())
        (out_dir / f"heatmap_t{t}.pgm").write_text(text, encoding="utf-8")
    write_node_table(out_dir / "flow.csv", "t,i,mass", solution.flow.distributions, manifest)
    print(f"wrote {len(FIG2_FRAMES)} heatmap frames and flow.csv to {out_dir}")
    return 0


def _cmd_reproduce_fig4(args) -> int:
    """Fictitious play at both population sizes."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for n_players in FIG4_PLAYERS:
        game = SingleStageGame(
            np.array(FIG4_COSTS), np.array(FIG4_REFERENCE), FIG4_ALPHA, n_players
        )
        start = time.perf_counter()
        initial = np.full(game.route_count, 1.0 / game.route_count)
        result = fp_run(game, initial, args.days)
        duration = time.perf_counter() - start
        manifest = RunManifest(
            "reproduce fig4", {"agents": n_players, "days": args.days}, duration_s=duration
        )
        write_fp_csv(out_dir / f"fp_n{n_players}.csv", result, manifest)
    print(f"wrote fictitious play paths for N in {FIG4_PLAYERS} to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and each handler's count options with the least and greatest values main accepts of each."""
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Mean-field traffic routing under a log-population toll.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    bounds = {}

    def command(parent, name, handler, summary):
        """A subcommand parser whose parsed args name its handler."""
        p = parent.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        return p

    def count(p, flag, least, most=None, **kwargs):
        """An integer option of p; main rejects a value outside least..most as a data error, before p's handler runs."""
        action = p.add_argument(flag, type=int, **kwargs)
        bounds.setdefault(p.get_default("handler"), []).append((action, least, most))

    def scenario_parser(name, handler, summary):
        p = command(sub, name, handler, summary)
        p.add_argument("--scenario", required=True, help="scenario file path")
        return p

    def game_parser(name, handler, summary):
        p = command(sub, name, handler, summary)
        p.add_argument("--costs", required=True, help="comma-separated route travel costs, one per route")
        p.add_argument("--ref", required=True, help="comma-separated reference probabilities")
        p.add_argument("--alpha", type=float, required=True, help="toll aggressiveness")
        count(p, "--agents", 1, MAX_COUNT, required=True, help="number of players")
        return p

    scenario_parser("validate", _cmd_validate, "check a scenario file against all invariants")

    p = scenario_parser("mfe", _cmd_mfe, "mean-field equilibrium: optimal policy, log-desirability and flow")
    p.add_argument("--out-policy", help="write the equilibrium policy CSV (t,i,j,value)")
    p.add_argument("--out-logphi", help="write the log-desirability CSV (t,i,value)")
    p.add_argument("--out-flow", help="write the population flow CSV (t,i,mass)")
    count(p, "--certify-equalizer", 0, default=0, metavar="N",
          help="also check the equalizer property over N random policies")
    count(p, "--seed", 0, default=0, help="RNG seed of the random policies")

    p = scenario_parser("simulate", _cmd_simulate, "finite-population Monte Carlo with realized tolls")
    count(p, "--seed", 0, default=0, help="root RNG seed of the replication substreams")
    p.add_argument("--policy", required=True, help="policy CSV to simulate under")
    count(p, "--agents", 1, MAX_COUNT, required=True, help="number of players")
    count(p, "--reps", 0, default=1, help="independent replications")
    p.add_argument("--out", required=True, help="output CSV (rep,t,i,j,count,realized_tax)")

    p = scenario_parser("nash-gap", _cmd_nash_gap, "expected-tax convergence and best-response gaps per N")
    p.add_argument("--agents", required=True, help="comma-separated player counts")
    p.add_argument("--out", required=True, help="output CSV (n_agents,expected_tax_gap,epsilon_nash)")

    p = game_parser("fp", _cmd_fp, "symmetric fictitious play on a parallel-route game")
    count(p, "--days", 1, MAX_COUNT, required=True, help="days to play")
    p.add_argument("--init", default="uniform", help="'uniform' or comma-separated belief")
    p.add_argument("--out", required=True, help="output CSV (day,q...,r,dist_to_ne,dist_to_mfe)")

    p = game_parser("symmetric-ne", _cmd_symmetric_ne, "exact symmetric equilibrium of the route game")
    p.add_argument("--out", required=True, help="output CSV (record,route,value)")

    p = command(sub, "gridworld", _cmd_gridworld, "generate a grid-world scenario file")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--obstacles", default="", help="comma-separated obstacle node ids")
    p.add_argument("--origin", type=int, required=True, help="origin node id")
    p.add_argument("--dest", type=int, required=True, help="destination node id")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", required=True, help="scenario file to write")

    reproduce = sub.add_parser("reproduce", help="rerun a packaged experiment preset")
    presets = reproduce.add_subparsers(dest="preset", required=True)
    p = command(presets, "fig2", _cmd_reproduce_fig2, "grid-world heatmaps at t = 20, 35, 50 and flow.csv")
    p.add_argument("--alpha", type=float, default=0.1, help="toll aggressiveness")
    p.add_argument("--out-dir", required=True, help="directory for output files")
    p = command(presets, "fig4", _cmd_reproduce_fig4, "fictitious play for N = 20 and N = 200")
    count(p, "--days", 1, MAX_COUNT, default=FIG4_DAYS, help="days to play")
    p.add_argument("--out-dir", required=True, help="directory for output files")

    return parser, bounds


def main(argv=None) -> int:
    parser, bounds = _build_parser()
    args = parser.parse_args(argv)
    try:
        for action, least, most in bounds.get(args.handler, ()):
            _check_range(getattr(args, action.dest), action.option_strings[0], least, most)
        return args.handler(args)
    except (ScenarioFormatError, InvalidScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
