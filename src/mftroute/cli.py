"""Command-line entry point: solve, simulate, learn, and reproduce.

Every output file carries its run manifest as leading comment lines, so a
run can be reproduced exactly; with a fixed seed the numeric payload
(every non-comment line) is byte-identical across runs on one platform.
Numeric formatting is locale-independent (dot decimal separator).
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .fictitious_play import FictitiousPlayResult, fp_run
from .finite_population import GENERATOR_NAME, _nash_gap_rows, realized_taxes, simulate_population
from .kl_solver import PolicyKernel, backward_pass, extract_policy, value
from .mean_field import FlowTrajectory, equalizer_gap, mfe_solve, random_policy
from .scenario import (
    Distribution,
    InvalidScenarioError,
    ReferencePolicy,
    Scenario,
    ScenarioFormatError,
    StageCosts,
    TrafficGraph,
    _CHUNK_ROWS,
    _bad_row_sums,
    _edge_prefixes,
    _fill_table,
    _line_blocks,
    _read_rows,
    _read_text,
    _stage_table_text,
    _uncommented,
    build_gridworld,
    grid_node,
    read_scenario,
    require_valid,
    validate,
    write_scenario,
)
from .symmetric_equilibrium import SingleStageGame, solve_single_stage_mfe, solve_symmetric_ne

PROG = "mft-route"

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
    return build_gridworld(
        FIG2_WIDTH,
        FIG2_HEIGHT,
        FIG2_OBSTACLES,
        FIG2_ORIGIN,
        FIG2_DESTINATION,
        FIG2_HORIZON,
        alpha,
    )


def three_route_scenario(costs=FIG4_COSTS, reference=FIG4_REFERENCE, alpha=FIG4_ALPHA) -> Scenario:
    """Origin plus one sink per route; sinks self-loop at zero cost."""
    routes = len(costs)
    graph = TrafficGraph(
        (tuple(range(1, routes + 1)),) + tuple((j,) for j in range(1, routes + 1))
    )
    cost_row = np.concatenate([np.asarray(costs, dtype=np.float64), np.zeros(routes)])
    ref_row = np.concatenate([np.asarray(reference, dtype=np.float64), np.ones(routes)])
    return Scenario(
        graph=graph,
        costs=StageCosts(1, cost_row[None]),
        reference=ReferencePolicy(ref_row[None]),
        alpha=float(alpha),
        initial=Distribution.point_mass(routes + 1, 0),
    )


# ---------------------------------------------------------------------------
# Manifests and output plumbing
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    subcommand: str
    params: dict
    seed: int | None = None
    input_digests: dict | None = None
    duration_s: float | None = None

    def header_lines(self) -> list[str]:
        lines = [
            f"# manifest: tool={PROG} version={__version__}",
            f"# manifest: subcommand={self.subcommand}",
        ]
        for key in sorted(self.params):
            lines.append(f"# manifest: {key}={self.params[key]}")
        if self.seed is not None:
            # NEP 19 lets numpy's samplers change their streams between releases
            lines.append(f"# manifest: seed={self.seed} generator={GENERATOR_NAME} numpy={np.__version__}")
        for name, digest in sorted((self.input_digests or {}).items()):
            lines.append(f"# manifest: sha256[{name}]={digest}")
        if self.duration_s is not None:
            lines.append(f"# manifest: duration_s={self.duration_s:.3f}")
        return lines


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_text(path, header: str, manifest: RunManifest, blocks) -> None:
    """Write the manifest lines, the header and each block of newline-joined rows."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join([*manifest.header_lines(), header]) + "\n")
        for block in blocks:
            fh.write(block + "\n")


def _column_text(values) -> list[str]:
    """One column's cells: str for integers, repr for floats, strings as they are."""
    array = np.asarray(values)
    if array.dtype.kind in "iu":
        return list(map(str, array.tolist()))
    if array.dtype.kind == "f":
        return list(map(repr, array.tolist()))
    return list(values)


def write_csv(path, header: str, columns, manifest: RunManifest) -> None:
    """Write one row per index of the equal-length columns, _CHUNK_ROWS rows at a time.

    Each column is formatted once per chunk by _column_text.  An iterator
    of rows is read a chunk of rows at a time and transposed to columns.
    """
    if isinstance(columns, Iterator):
        chunks = (list(zip(*rows)) for rows in iter(lambda: list(islice(columns, _CHUNK_ROWS)), []))
    else:
        count = len(columns[0]) if columns else 0
        chunks = ([c[lo : lo + _CHUNK_ROWS] for c in columns] for lo in range(0, count, _CHUNK_ROWS))
    blocks = ("\n".join(map(",".join, zip(*map(_column_text, chunk)))) for chunk in chunks)
    _write_text(path, header, manifest, blocks)


def _write_node_table(path, header: str, table: np.ndarray, manifest: RunManifest) -> None:
    """Write a (T+1, V) per-stage node table as (t, i, value) rows."""
    prefixes = [f"{i}," for i in range(table.shape[1])]
    _write_text(path, header, manifest, _stage_table_text(prefixes, table, ",", repr))


def _write_fp_csv(path, result: FictitiousPlayResult, manifest: RunManifest) -> None:
    """One row per day; the final day-after belief has no choice and is written with r = -1."""
    beliefs = result.path.beliefs
    days = np.arange(1, len(beliefs) + 1)
    choices = np.append(result.path.choices, -1)
    columns = [days, *beliefs.T, choices, result.dist_to_finite_ne, result.dist_to_mfe]
    belief_cols = ",".join(f"q{j + 1}" for j in range(len(result.mfe)))
    write_csv(path, f"day,{belief_cols},r,dist_to_ne,dist_to_mfe", columns, manifest)


def emit_heatmap(
    flow: FlowTrajectory,
    t: int,
    width: int,
    height: int,
    obstacles=(),
    header_lines=(),
) -> str:
    """Plain-text graymap of the stage-t distribution, one pixel per cell.

    Intensities are round(255 * mass / max mass); obstacle cells are drawn
    at the reserved sentinel 256, which no data pixel can reach.
    """
    mass = flow.distributions[t]
    if mass.shape[0] != width * height:
        raise ValueError(
            f"scenario has {mass.shape[0]} nodes, not a {width} x {height} grid"
        )
    peak = float(mass.max())
    # round() and np.rint both round half to even
    levels = np.rint(255.0 * mass / peak).astype(np.int64) if peak != 0.0 else np.zeros(mass.shape, np.int64)
    obstacle_ids = np.array(sorted({int(o) for o in obstacles}), dtype=np.int64)
    levels[obstacle_ids[(obstacle_ids >= 0) & (obstacle_ids < len(levels))]] = OBSTACLE_SENTINEL
    lines = ["P2"]
    lines.append(f"# obstacle cells use sentinel value {OBSTACLE_SENTINEL}; data range is 0..255")
    lines.extend(header_lines)
    lines.append(f"{width} {height}")
    lines.append(str(OBSTACLE_SENTINEL))
    lines.extend(" ".join(map(str, row)) for row in levels.reshape(height, width).tolist())
    return "\n".join(lines) + "\n"


def write_policy_csv(path, scenario: Scenario, policy: PolicyKernel, manifest: RunManifest) -> None:
    blocks = _stage_table_text(_edge_prefixes(scenario.graph, ","), policy.probs, ",", repr)
    _write_text(path, "t,i,j,value", manifest, blocks)


def read_policy_csv(path, scenario: Scenario) -> PolicyKernel:
    """Parse a (t, i, j, value) policy CSV against the scenario's edge set; rows must be stochastic.

    Lines are parsed a chunk at a time; the fault reported is the first
    faulty line, with its first failing check: field count, parse, finite
    value, sign, then the stage, edge and repeat checks of the fill.
    """
    text = _read_text(path, "policy")

    def policy_row(lineno: int, line: str) -> tuple[int, int, int, float]:
        """The (t, i, j, value) of one policy row, or its fault."""
        parts = line.split(",")
        if len(parts) != 4:
            raise ScenarioFormatError(f"line {lineno}: policy rows are 't,i,j,value'")
        try:
            t, i, j, p = int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
        except ValueError:
            raise ScenarioFormatError(f"line {lineno}: cannot parse policy row") from None
        if not math.isfinite(p):
            raise ScenarioFormatError(f"line {lineno}: policy value '{parts[3]}' is not finite")
        if p < 0:
            raise ScenarioFormatError(f"line {lineno}: policy value '{parts[3]}' is negative")
        return t, i, j, p

    def columns():
        for _, first, piece, lines in _line_blocks(text, 0, len(text), 1):
            lines = list(map(str.strip, _uncommented(piece, lines)))
            if "t,i,j,value" in piece:  # the header is blanked, so the rows keep their line numbers
                lines = ["" if line == "t,i,j,value" else line for line in lines]
            rows = _read_rows(first, piece, lines, (int, int, int, float), ",", policy_row)
            t, i, j, p = rows.columns
            values = np.asarray(p, dtype=np.float64)
            bad = np.flatnonzero(~np.isfinite(values) | (values < 0))
            n = int(bad[0]) if len(bad) else len(values)
            yield rows.lineno, t[:n], i[:n], j[:n], values[:n]
            if n < len(values):
                policy_row(rows.lineno(n), rows.line(n))
            if rows.fault is not None:
                raise rows.fault

    g = scenario.graph
    probs = _fill_table(g, scenario.horizon, columns(), "policy row", "not in scenario graph", "policy file missing")
    bad_rows = _bad_row_sums(g, probs)
    if bad_rows:
        raise ScenarioFormatError("policy rows of stage {} node {} sum to {:.17g}, expected 1".format(*bad_rows[0]))
    return PolicyKernel(probs)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _manifest(args, start: float, input_digests: dict | None = None) -> RunManifest:
    """The handler's manifest: its parsed options except the subcommand, the seed and the out* paths."""
    params = {k: v for k, v in vars(args).items() if k not in ("subcommand", "seed") and not k.startswith("out")}
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


def _cmd_solve(args) -> int:
    start = time.perf_counter()
    scenario, digests = _load_scenario(args)
    desirability = backward_pass(scenario)
    policy = extract_policy(scenario, desirability)
    manifest = _manifest(args, start, digests)
    if args.out_policy:
        write_policy_csv(args.out_policy, scenario, policy, manifest)
    if args.out_logphi:
        _write_node_table(args.out_logphi, "t,i,value", desirability.log_phi, manifest)
    print(f"optimal expected cost from the initial distribution: {value(desirability, scenario.initial, 0)!r}")
    return 0


def _cmd_mfe(args) -> int:
    if args.certify_equalizer < 0:
        raise ValueError("--certify-equalizer must be >= 0")
    start = time.perf_counter()
    scenario, digests = _load_scenario(args)
    solution = mfe_solve(scenario)
    manifest = _manifest(args, start, digests)
    if args.out_policy:
        write_policy_csv(args.out_policy, scenario, solution.policy, manifest)
    if args.out_flow:
        _write_node_table(args.out_flow, "t,i,mass", solution.flow.distributions, manifest)
    if args.certify_equalizer:
        rng = np.random.default_rng(args.seed)
        trials = [random_policy(scenario, rng) for _ in range(args.certify_equalizer)]
        gap = equalizer_gap(scenario, solution.policy, trials, solution.desirability)
        print(f"equalizer gap over {args.certify_equalizer} random policies: {gap!r}")
    print(f"mean-field equilibrium computed over {scenario.horizon} stages")
    return 0


def _cmd_simulate(args) -> int:
    if args.reps < 0:
        raise ValueError("--reps must be >= 0")
    if args.threads < 0:
        raise ValueError("--threads must be >= 0")
    if args.agents < 1:
        raise ValueError("--agents must be >= 1")
    start = time.perf_counter()
    scenario, digests = _load_scenario(args)
    policy = read_policy_csv(args.policy, scenario)
    digests["policy"] = _digest(args.policy)

    def replication(seeds) -> tuple[np.ndarray, ...]:
        return realized_taxes(simulate_population(scenario, policy, args.agents, seeds), scenario)

    cpus = os.cpu_count() or 1
    children = np.random.SeedSequence(args.seed).spawn(args.reps)
    # at most one worker per CPU and per replication; at least one, so --reps 0 writes a header
    with ThreadPoolExecutor(max_workers=max(1, min(args.threads or cpus, cpus, args.reps))) as pool:
        # substreams make replications order-independent; map keeps output order
        tables = list(pool.map(replication, children))
    reps = np.repeat(np.arange(args.reps), [len(table[0]) for table in tables])
    columns = [reps, *(np.concatenate(column) for column in zip(*tables))]
    write_csv(args.out, "rep,t,i,j,count,realized_tax", columns, _manifest(args, start, digests))
    print(f"simulated {args.reps} replication(s) of {args.agents} agents")
    return 0


def _cmd_nash_gap(args) -> int:
    n_list = _agent_counts(args.agents)
    start = time.perf_counter()
    scenario, digests = _load_scenario(args)
    solution = mfe_solve(scenario)
    rows = _nash_gap_rows(scenario, solution.policy, solution.flow, n_list)
    columns = [n_list, *zip(*rows)]
    write_csv(args.out, "n_agents,expected_tax_gap,epsilon_nash", columns, _manifest(args, start, digests))
    print(f"computed tax-convergence and best-response gaps for N in {n_list}")
    return 0


def _agent_counts(text: str) -> list[int]:
    """The player counts of a comma-separated --agents list; a count that is not an integer >= 1 raises."""
    counts = []
    for tok in filter(str.strip, text.split(",")):
        try:
            count = int(tok)
        except ValueError:
            raise ValueError(f"--agents must be an integer, got {tok.strip()}") from None
        if count < 1:
            raise ValueError("--agents must be >= 1")
        counts.append(count)
    if not counts:
        raise ValueError("--agents needs at least one player count")
    return counts


def _parse_game(args) -> SingleStageGame:
    costs = np.array([float(tok) for tok in args.costs.split(",")])
    reference = np.array([float(tok) for tok in args.ref.split(",")])
    if args.routes != len(costs):
        raise ValueError(f"--routes {args.routes} but {len(costs)} costs given")
    return SingleStageGame(costs, reference, args.alpha, args.agents)


def _cmd_fp(args) -> int:
    start = time.perf_counter()
    game = _parse_game(args)
    if args.init == "uniform":
        initial = np.full(game.route_count, 1.0 / game.route_count)
    else:
        initial = np.array([float(tok) for tok in args.init.split(",")])
    result = fp_run(game, initial, args.days)
    _write_fp_csv(args.out, result, _manifest(args, start))
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
    obstacles = [int(tok) for tok in args.obstacles.split(",") if tok.strip()] if args.obstacles else []
    scenario = build_gridworld(
        args.width, args.height, obstacles, args.origin, args.dest, args.horizon, args.alpha
    )
    write_scenario(scenario, args.out)
    print(f"wrote {args.width} x {args.height} grid-world scenario to {args.out}")
    return 0


def _cmd_reproduce(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.preset == "fig2":
        start = time.perf_counter()
        scenario = fig2_scenario(args.alpha)
        solution = mfe_solve(scenario)
        duration = time.perf_counter() - start
        manifest = RunManifest("reproduce fig2", {"alpha": args.alpha}, duration_s=duration)
        for t in FIG2_FRAMES:
            text = emit_heatmap(
                solution.flow,
                t,
                FIG2_WIDTH,
                FIG2_HEIGHT,
                FIG2_OBSTACLES,
                manifest.header_lines(),
            )
            (out_dir / f"heatmap_t{t}.pgm").write_text(text, encoding="utf-8")
        _write_node_table(out_dir / "flow.csv", "t,i,mass", solution.flow.distributions, manifest)
        print(f"wrote {len(FIG2_FRAMES)} heatmap frames and flow.csv to {out_dir}")
        return 0

    # fig4: fictitious play at both population sizes
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
        _write_fp_csv(out_dir / f"fp_n{n_players}.csv", result, manifest)
    print(f"wrote fictitious play paths for N in {FIG4_PLAYERS} to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Mean-field traffic routing under a log-population toll.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def scenario_parser(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--scenario", required=True, help="scenario file path")
        return p

    def game_parser(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--routes", type=int, required=True, help="number of parallel routes")
        p.add_argument("--costs", required=True, help="comma-separated route travel costs")
        p.add_argument("--ref", required=True, help="comma-separated reference probabilities")
        p.add_argument("--alpha", type=float, required=True, help="toll aggressiveness")
        p.add_argument("--agents", type=int, required=True, help="number of players")
        return p

    scenario_parser("validate", "check a scenario file against all invariants")

    p = scenario_parser("solve", "backward pass and optimal policy extraction")
    p.add_argument("--out-policy", help="write the optimal policy CSV (t,i,j,value)")
    p.add_argument("--out-logphi", help="write the log-desirability CSV (t,i,value)")

    p = scenario_parser("mfe", "mean-field equilibrium policy and population flow")
    p.add_argument("--out-policy", help="write the equilibrium policy CSV (t,i,j,value)")
    p.add_argument("--out-flow", help="write the population flow CSV (t,i,mass)")
    p.add_argument(
        "--certify-equalizer",
        type=int,
        default=0,
        metavar="N",
        help="also check the equalizer property over N random policies",
    )
    p.add_argument("--seed", type=int, default=0, help="RNG seed of the random policies")

    p = scenario_parser("simulate", "finite-population Monte Carlo with realized tolls")
    p.add_argument("--seed", type=int, default=0, help="root RNG seed of the replication substreams")
    p.add_argument("--threads", type=int, default=0, help="worker threads, 0 = auto")
    p.add_argument("--policy", required=True, help="policy CSV to simulate under")
    p.add_argument("--agents", type=int, required=True, help="number of players")
    p.add_argument("--reps", type=int, default=1, help="independent replications")
    p.add_argument("--out", required=True, help="output CSV (rep,t,i,j,count,realized_tax)")

    p = scenario_parser("nash-gap", "expected-tax convergence and best-response gaps per N")
    p.add_argument("--agents", required=True, help="comma-separated player counts")
    p.add_argument("--out", required=True, help="output CSV (n_agents,expected_tax_gap,epsilon_nash)")

    p = game_parser("fp", "symmetric fictitious play on a parallel-route game")
    p.add_argument("--days", type=int, required=True, help="days to play")
    p.add_argument("--init", default="uniform", help="'uniform' or comma-separated belief")
    p.add_argument("--out", required=True, help="output CSV (day,q...,r,dist_to_ne,dist_to_mfe)")

    p = game_parser("symmetric-ne", "exact symmetric equilibrium of the route game")
    p.add_argument("--out", required=True, help="output CSV (record,route,value)")

    p = sub.add_parser("gridworld", help="generate a grid-world scenario file")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--obstacles", default="", help="comma-separated obstacle node ids")
    p.add_argument("--origin", type=int, required=True, help="origin node id")
    p.add_argument("--dest", type=int, required=True, help="destination node id")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out", required=True, help="scenario file to write")

    p = sub.add_parser("reproduce", help="rerun a packaged experiment preset")
    p.add_argument("preset", choices=("fig2", "fig4"))
    p.add_argument("--alpha", type=float, default=0.1, help="toll aggressiveness (fig2)")
    p.add_argument("--days", type=int, default=FIG4_DAYS, help="days to play (fig4)")
    p.add_argument("--out-dir", required=True, help="directory for output files")

    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "mfe": _cmd_mfe,
    "simulate": _cmd_simulate,
    "nash-gap": _cmd_nash_gap,
    "fp": _cmd_fp,
    "symmetric-ne": _cmd_symmetric_ne,
    "gridworld": _cmd_gridworld,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.subcommand](args)
    except (ScenarioFormatError, InvalidScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
