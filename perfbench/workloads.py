"""The benchmark's four workloads: input generation, one job, its checks and counts.

Each job calls ``mftroute``'s public functions in the order the matching
``mft-route`` subcommand does, wrapping every call into a package module
in ``span(name)``.  Span names are ``<module>.<call>``; the module prefix
is the layer a per-layer metric is charged to.  Spans sit at the job's
call sites only, so a call's span also covers whatever it calls inside
the package (``backward_pass`` re-runs ``require_valid``, ``fp_run``
solves its own symmetric equilibrium, ``mfe_solve`` runs the backward
pass, extraction and propagation).

Sizes are scaled so that one job takes about a second on a 2-core
machine while keeping the share of time each module takes; ``TINY``
sizes only exercise the code paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from mftroute import (
    InvalidScenarioError,
    Scenario,
    SingleStageGame,
    StageCosts,
    backward_pass,
    best_response_finite_n,
    build_gridworld,
    equalizer_gap,
    expected_tax_gap,
    extract_policy,
    fp_run,
    grid_node,
    mfe_solve,
    propagate,
    random_policy,
    read_scenario,
    realized_taxes,
    simulate_replications,
    solve_symmetric_ne,
    validate,
    write_scenario,
)
from mftroute import cli

# Tolerances of the output checks; they hold for every seed, not one stored answer.
EQUALIZER_TOL = 1e-8
ROW_SUM_TOL = 1e-12
MASS_TOL = 1e-12
EPSILON_FLOOR = -1e-12
KKT_TOL = 1e-9
SIMPLEX_TOL = 1e-12
# expected_tax_gap's default support threshold, used to count the tolls it requests
SUPPORT_TOL = 1e-9

SCENARIO_FILE = "scenario.scn"
PARAMS_FILE = "params.json"
FLOW_FILE = "flow.csv"
POLICY_FILE = "policy.csv"

FULL = {
    "grid-stationary": {"width": 32, "height": 32, "horizon": 64, "alpha": 0.1, "trials": 20},
    "grid-rushhour": {"width": 14, "height": 14, "horizon": 60, "alpha": 0.1},
    "finite-n": {
        "width": 5, "height": 5, "horizon": 24, "alpha": 0.1,
        "agents": [10, 100, 1000], "mc_agents": 15000, "reps": 4,
    },
    "route-game": {"fp_agents": [20, 200], "days": 500, "ne_agents": 200},
}
TINY = {
    "grid-stationary": {"width": 6, "height": 6, "horizon": 8, "alpha": 0.1, "trials": 3},
    "grid-rushhour": {"width": 5, "height": 5, "horizon": 6, "alpha": 0.1},
    "finite-n": {
        "width": 4, "height": 4, "horizon": 10, "alpha": 0.1,
        "agents": [2, 10, 50], "mc_agents": 200, "reps": 2,
    },
    "route-game": {"fp_agents": [3, 10], "days": 30, "ne_agents": 10},
}


@dataclass(frozen=True)
class Workload:
    """One workload; ``generate`` runs in set-up, the rest in the measured process.

    ``job(inputs, workdir, span)`` returns the outputs that
    ``check(inputs, outputs, workdir, span)`` turns into a list of failure
    messages (empty when correct) and ``counts(inputs, outputs)`` into the
    per-job work counts, which repeat exactly for a given seed.
    """

    name: str
    generate: Callable[[int, Path, dict], None]
    load: Callable[[Path], dict]
    job: Callable
    check: Callable
    counts: Callable


# ---------------------------------------------------------------------------
# Shared grid helpers
# ---------------------------------------------------------------------------

def staggered_walls(width: int, height: int) -> list[int]:
    """The fig2 obstacle layout scaled to any grid.

    A wall at x = w/3 for y < 0.7h and one at x = 2w/3 for y >= 0.3h force
    an S-shaped detour; at 10 x 10 this is exactly the fig2 preset.
    """
    x1, x2 = width // 3, 2 * width // 3
    return [grid_node(width, x1, y) for y in range(height) if y < round(0.7 * height)] + [
        grid_node(width, x2, y) for y in range(height) if y >= round(0.3 * height)
    ]


def _base_grid(size: dict) -> Scenario:
    w, h = size["width"], size["height"]
    return build_gridworld(w, h, staggered_walls(w, h), 0, w * h - 1, size["horizon"], size["alpha"])


def _with_stage_costs(scenario: Scenario, stage: np.ndarray) -> Scenario:
    costs = StageCosts(scenario.horizon, stage, scenario.costs.terminal)
    return Scenario(scenario.graph, costs, scenario.reference, scenario.alpha, scenario.initial)


def _write_params(workdir: Path, seed: int, size: dict, **extra) -> None:
    (workdir / PARAMS_FILE).write_text(json.dumps({"seed": seed, "size": size, **extra}))


def _read_params(workdir: Path) -> dict:
    return json.loads((workdir / PARAMS_FILE).read_text())


def _load_grid(workdir: Path) -> dict:
    path = workdir / SCENARIO_FILE
    text = path.read_text(encoding="utf-8")
    return {**_read_params(workdir), "path": path, "lines": text.count("\n") + 1, "bytes": len(text.encode())}


def _solve_grid(path: Path, span) -> dict:
    """``_load_scenario`` then ``mfe_solve`` of ``mft-route mfe``, one call per span."""
    with span("scenario.read"):
        scenario = read_scenario(path)
    with span("scenario.validate"):
        violations = validate(scenario)
    if violations:
        raise InvalidScenarioError(violations)
    with span("kl_solver.backward_pass"):
        desirability = backward_pass(scenario)
    with span("kl_solver.extract_policy"):
        policy = extract_policy(scenario, desirability)
    with span("mean_field.propagate"):
        flow = propagate(scenario, policy)
    return {"scenario": scenario, "desirability": desirability, "policy": policy, "flow": flow}


def _check_grid(outputs: dict) -> list[str]:
    g = outputs["scenario"].graph
    problems = []
    row_sums = np.add.reduceat(outputs["policy"].probs, g.row_start[:-1], axis=1)
    worst_row = float(np.max(np.abs(row_sums - 1.0)))
    if not worst_row <= ROW_SUM_TOL:
        problems.append(f"policy row sum off by {worst_row:.3g}")
    mass = outputs["flow"].distributions.sum(axis=1)
    worst_mass = float(np.max(np.abs(mass - mass[0])))
    if not worst_mass <= MASS_TOL:
        problems.append(f"flow mass drifts by {worst_mass:.3g}")
    return problems


def _grid_counts(inputs: dict, outputs: dict, rows: int, bytes_key: str) -> dict:
    scenario = outputs["scenario"]
    return {
        "scenario.lines": inputs["lines"],
        "scenario.input_mb": inputs["bytes"] / 1e6,
        "kl_solver.stage_edges": scenario.horizon * scenario.graph.edge_count,
        "cli.rows_written": rows,
        "cli.output_mb": outputs[bytes_key] / 1e6,
    }


# ---------------------------------------------------------------------------
# grid-stationary: mft-route mfe --out-flow --certify-equalizer 20
# ---------------------------------------------------------------------------

def _stationary_generate(seed: int, workdir: Path, size: dict) -> None:
    """Stationary scenario file; the seed adds U[0, 0.2) to each move cost, at every stage alike."""
    base = _base_grid(size)
    g = base.graph
    rng = np.random.default_rng(seed)
    jitter = rng.uniform(0.0, 0.2, g.edge_count) * (g.edge_src != g.edge_dst)
    stage = np.broadcast_to(base.costs.stage[0] + jitter, base.costs.stage.shape)
    write_scenario(_with_stage_costs(base, stage), workdir / SCENARIO_FILE)
    _write_params(workdir, seed, size)


def _stationary_job(inputs: dict, workdir: Path, span) -> dict:
    out = _solve_grid(inputs["path"], span)
    scenario, flow = out["scenario"], out["flow"]
    manifest = cli.RunManifest("mfe", {"certify_equalizer": inputs["size"]["trials"]}, seed=inputs["seed"])
    rows = (
        (t, i, flow.distributions[t, i])
        for t in range(scenario.horizon + 1)
        for i in range(scenario.graph.node_count)
    )
    flow_path = workdir / FLOW_FILE
    with span("cli.write_csv"):
        cli.write_csv(flow_path, "t,i,mass", rows, manifest)
    rng = np.random.default_rng(inputs["seed"])
    trials = []
    for _ in range(inputs["size"]["trials"]):
        with span("mean_field.random_policy"):
            trials.append(random_policy(scenario, rng))
    with span("mean_field.equalizer_gap"):
        out["gap"] = equalizer_gap(scenario, out["policy"], trials, out["desirability"])
    out["flow_bytes"] = flow_path.stat().st_size
    return out


def _stationary_check(inputs: dict, outputs: dict, workdir: Path, span) -> list[str]:
    problems = _check_grid(outputs)
    if not outputs["gap"] <= EQUALIZER_TOL:
        problems.append(f"equalizer gap {outputs['gap']:.3g} above {EQUALIZER_TOL}")
    return problems


def _stationary_counts(inputs: dict, outputs: dict) -> dict:
    scenario = outputs["scenario"]
    rows = (scenario.horizon + 1) * scenario.graph.node_count
    return {**_grid_counts(inputs, outputs, rows, "flow_bytes"), "mean_field.trials": inputs["size"]["trials"]}


# ---------------------------------------------------------------------------
# grid-rushhour: mft-route mfe --out-policy on a per-stage scenario file
# ---------------------------------------------------------------------------

def _rushhour_generate(seed: int, workdir: Path, size: dict) -> None:
    """Per-stage scenario file: moving edges get a cost bump peaking at t = T/3.

    The seed draws each moving edge's bump amplitude from U[0.5, 2).
    """
    base = _base_grid(size)
    g = base.graph
    horizon = base.horizon
    rng = np.random.default_rng(seed)
    amplitude = rng.uniform(0.5, 2.0, g.edge_count) * (g.edge_src != g.edge_dst)
    t = np.arange(horizon)[:, None]
    bump = np.exp(-0.5 * ((t - horizon / 3) / (horizon / 10)) ** 2)
    write_scenario(_with_stage_costs(base, base.costs.stage + amplitude * bump), workdir / SCENARIO_FILE)
    _write_params(workdir, seed, size)


def _rushhour_job(inputs: dict, workdir: Path, span) -> dict:
    out = _solve_grid(inputs["path"], span)
    manifest = cli.RunManifest("mfe", {"certify_equalizer": 0}, seed=inputs["seed"])
    policy_path = workdir / POLICY_FILE
    with span("cli.write_policy_csv"):
        cli.write_policy_csv(policy_path, out["scenario"], out["policy"], manifest)
    out["policy_bytes"] = policy_path.stat().st_size
    return out


def _rushhour_check(inputs: dict, outputs: dict, workdir: Path, span) -> list[str]:
    problems = _check_grid(outputs)
    with span("cli.read_policy_csv"):
        back = cli.read_policy_csv(workdir / POLICY_FILE, outputs["scenario"])
    if not np.array_equal(back.probs.view(np.uint64), outputs["policy"].probs.view(np.uint64)):
        problems.append("policy CSV does not read back bit for bit")
    return problems


def _rushhour_counts(inputs: dict, outputs: dict) -> dict:
    scenario = outputs["scenario"]
    return _grid_counts(inputs, outputs, scenario.horizon * scenario.graph.edge_count, "policy_bytes")


# ---------------------------------------------------------------------------
# finite-n: mft-route nash-gap --agents 10,100,1000 plus simulate --reps 4
# ---------------------------------------------------------------------------

def _finite_generate(seed: int, workdir: Path, size: dict) -> None:
    """The grid does not depend on the seed; the seed is the Monte Carlo root seed."""
    write_scenario(_base_grid(size), workdir / SCENARIO_FILE)
    _write_params(workdir, seed, size)


def _finite_load(workdir: Path) -> dict:
    return {**_read_params(workdir), "scenario": read_scenario(workdir / SCENARIO_FILE)}


def _finite_job(inputs: dict, workdir: Path, span) -> dict:
    scenario, size = inputs["scenario"], inputs["size"]
    with span("mean_field.mfe_solve"):
        solution = mfe_solve(scenario)
    with span("finite_population.expected_tax_gap"):
        gaps = expected_tax_gap(scenario, solution.policy, size["agents"])
    epsilon = {}
    for n in size["agents"]:
        with span("finite_population.best_response"):
            epsilon[n] = best_response_finite_n(scenario, solution.policy, n).epsilon
    with span("finite_population.simulate"):
        samples = list(
            simulate_replications(scenario, solution.policy, size["mc_agents"], inputs["seed"], size["reps"])
        )
    taxes = []
    for sample in samples:
        with span("finite_population.realized_taxes"):
            taxes.append(realized_taxes(sample, scenario))
    return {"solution": solution, "gaps": gaps, "epsilon": epsilon, "samples": samples, "taxes": taxes}


def _finite_check(inputs: dict, outputs: dict, workdir: Path, span) -> list[str]:
    agents = inputs["size"]["agents"]
    gaps = [outputs["gaps"][n] for n in agents]
    eps = [outputs["epsilon"][n] for n in agents]
    problems = []
    if not all(a > b for a, b in zip(gaps, gaps[1:])):
        problems.append(f"expected-toll gap does not strictly decrease in N: {gaps}")
    if not all(e >= EPSILON_FLOOR for e in eps) or not all(b <= a for a, b in zip(eps, eps[1:])):
        problems.append(f"epsilon-Nash negative or increasing in N: {eps}")
    n = inputs["size"]["mc_agents"]
    for rep, sample in enumerate(outputs["samples"]):
        if not np.all(sample.node_counts.sum(axis=1) == n):
            problems.append(f"replication {rep}: node counts do not sum to {n}")
    return problems


def _finite_counts(inputs: dict, outputs: dict) -> dict:
    scenario, size = inputs["scenario"], inputs["size"]
    policy = outputs["solution"].policy
    node_probs = outputs["solution"].flow.distributions[:-1, scenario.graph.edge_src]
    support = int(np.count_nonzero(node_probs * policy.probs > SUPPORT_TOL))
    per_n = support + scenario.horizon * scenario.graph.edge_count
    return {
        "finite_population.toll_evals": per_n * len(size["agents"]),
        "finite_population.agent_steps": size["mc_agents"] * size["reps"] * scenario.horizon,
    }


# ---------------------------------------------------------------------------
# route-game: mft-route fp at N = 20 and 200, then symmetric-ne
# ---------------------------------------------------------------------------

FIG4_COST_JITTER = 0.25


def _route_generate(seed: int, workdir: Path, size: dict) -> None:
    """The fig4 game; the seed adds U[-0.25, 0.25) to each route cost."""
    rng = np.random.default_rng(seed)
    costs = np.array(cli.FIG4_COSTS) + rng.uniform(-FIG4_COST_JITTER, FIG4_COST_JITTER, len(cli.FIG4_COSTS))
    _write_params(
        workdir, seed, size, costs=costs.tolist(), reference=list(cli.FIG4_REFERENCE), alpha=cli.FIG4_ALPHA
    )


def _route_job(inputs: dict, workdir: Path, span) -> dict:
    size = inputs["size"]
    costs, reference = np.array(inputs["costs"]), np.array(inputs["reference"])
    initial = np.full(len(costs), 1.0 / len(costs))
    runs = []
    for n in size["fp_agents"]:
        game = SingleStageGame(costs, reference, inputs["alpha"], n)
        with span("fictitious_play.fp_run"):
            runs.append(fp_run(game, initial, size["days"]))
    game = SingleStageGame(costs, reference, inputs["alpha"], size["ne_agents"])
    with span("symmetric_equilibrium.solve"):
        ne = solve_symmetric_ne(game)
    return {"runs": runs, "ne": ne}


def _route_check(inputs: dict, outputs: dict, workdir: Path, span) -> list[str]:
    problems = []
    worst_kkt = float(np.max(outputs["ne"].residuals))
    if not worst_kkt <= KKT_TOL:
        problems.append(f"KKT residual {worst_kkt:.3g} above {KKT_TOL}")
    for n, run in zip(inputs["size"]["fp_agents"], outputs["runs"]):
        beliefs = np.array(run.path.beliefs)
        if not (np.all(beliefs >= 0.0) and np.all(np.abs(beliefs.sum(axis=1) - 1.0) <= SIMPLEX_TOL)):
            problems.append(f"N={n}: a belief leaves the probability simplex")
    return problems


def _route_counts(inputs: dict, outputs: dict) -> dict:
    return {"fictitious_play.days": inputs["size"]["days"] * len(inputs["size"]["fp_agents"])}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-stationary", _stationary_generate, _load_grid, _stationary_job, _stationary_check, _stationary_counts),
        Workload("grid-rushhour", _rushhour_generate, _load_grid, _rushhour_job, _rushhour_check, _rushhour_counts),
        Workload("finite-n", _finite_generate, _finite_load, _finite_job, _finite_check, _finite_counts),
        Workload("route-game", _route_generate, _read_params, _route_job, _route_check, _route_counts),
    )
}
