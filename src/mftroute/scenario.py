"""Problem instances for the log-toll routing game.

A scenario bundles a directed traffic graph, per-stage edge travel costs
(with an optional terminal cost folded into the last stage), a strictly
positive reference routing policy, the toll aggressiveness alpha, and the
initial population distribution.  Node ids are 0-based everywhere,
including the text file format (see docs/scenario_format.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

ROW_SUM_TOL = 1e-12

_REQUIRED_PARAMS = ("nodes", "horizon", "alpha", "initial")
_PARAM_KEYS = _REQUIRED_PARAMS + ("stationary",)

# Grid-world cost structure: staying is free, moving costs one unit, and
# entering an obstacle cell adds a prohibitive penalty on top.
GRID_MOVE_COST = 1.0
GRID_OBSTACLE_PENALTY = 100000.0
GRID_TERMINAL_WEIGHT = 10.0


class ScenarioFormatError(ValueError):
    """Scenario file cannot be parsed or has inconsistent dimensions."""


class InvalidScenarioError(ValueError):
    """A solver was handed a scenario that fails validation."""

    def __init__(self, violations: list["Violation"]):
        self.violations = violations
        lines = "; ".join(str(v) for v in violations[:5])
        more = "" if len(violations) <= 5 else f" (+{len(violations) - 5} more)"
        super().__init__(f"invalid scenario: {lines}{more}")


def _readonly(arr: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TrafficGraph:
    """Directed routing graph; node i's admissible next hops are out_neighbors[i].

    Edges are also exposed flattened in CSR-like order (sorted by source
    node, then by position within the node's neighbor list), which is the
    layout every per-edge array in this package uses.
    """

    out_neighbors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        neigh = tuple(tuple(int(j) for j in row) for row in self.out_neighbors)
        v = len(neigh)
        for i, row in enumerate(neigh):
            for j in row:
                if not 0 <= j < v:
                    raise ValueError(f"node {i}: out-neighbor {j} outside 0..{v - 1}")
        object.__setattr__(self, "out_neighbors", neigh)

    @property
    def node_count(self) -> int:
        return len(self.out_neighbors)

    @property
    def edge_count(self) -> int:
        return int(self.row_start[-1])

    @cached_property
    def edge_src(self) -> np.ndarray:
        src = [i for i, row in enumerate(self.out_neighbors) for _ in row]
        return _readonly(np.array(src, dtype=np.int64), np.int64)

    @cached_property
    def edge_dst(self) -> np.ndarray:
        dst = [j for row in self.out_neighbors for j in row]
        return _readonly(np.array(dst, dtype=np.int64), np.int64)

    @cached_property
    def row_start(self) -> np.ndarray:
        degs = np.array([len(row) for row in self.out_neighbors], dtype=np.int64)
        return _readonly(np.concatenate([[0], np.cumsum(degs)]), np.int64)

    def degree(self, node: int) -> int:
        return len(self.out_neighbors[node])

    def edge_slice(self, node: int) -> slice:
        return slice(int(self.row_start[node]), int(self.row_start[node + 1]))

    @cached_property
    def _edge_ids(self) -> dict[tuple[int, int], int]:
        # built from the last edge back, so the first of duplicate edges wins
        pairs = list(enumerate(zip(self.edge_src.tolist(), self.edge_dst.tolist())))
        return {pair: e for e, pair in reversed(pairs)}

    def edge_index(self, node: int, dest: int) -> int:
        """Flat index of edge (node, dest); raises KeyError if absent."""
        try:
            return self._edge_ids[node, dest]
        except KeyError:
            raise KeyError(f"no edge {node} -> {dest}") from None

    def __eq__(self, other) -> bool:
        return isinstance(other, TrafficGraph) and self.out_neighbors == other.out_neighbors


@dataclass(frozen=True, eq=False)
class StageCosts:
    """Per-stage edge travel costs, stage array shape (T, E).

    ``terminal``, when present, is a per-node cost charged on the final
    location; it is folded additively into the stage T-1 edge costs (by
    destination node) when solvers ask for effective costs.
    """

    horizon: int
    stage: np.ndarray
    terminal: np.ndarray | None = None

    def __post_init__(self):
        stage = _readonly(np.atleast_2d(self.stage))
        if stage.shape[0] != self.horizon:
            raise ValueError(
                f"stage cost table has {stage.shape[0]} stages, horizon is {self.horizon}"
            )
        object.__setattr__(self, "stage", stage)
        if self.terminal is not None:
            object.__setattr__(self, "terminal", _readonly(self.terminal))

    @classmethod
    def stationary(cls, values: np.ndarray, horizon: int, terminal: np.ndarray | None = None):
        """Replicate one per-edge cost row across all stages."""
        row = np.asarray(values, dtype=np.float64)
        return cls(horizon, np.tile(row, (horizon, 1)), terminal)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StageCosts):
            return False
        if self.horizon != other.horizon or not np.array_equal(self.stage, other.stage):
            return False
        if (self.terminal is None) != (other.terminal is None):
            return False
        return self.terminal is None or np.array_equal(self.terminal, other.terminal)


@dataclass(frozen=True, eq=False)
class ReferencePolicy:
    """Strictly positive row-stochastic reference kernels, shape (T, E)."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", _readonly(np.atleast_2d(self.probs)))

    @classmethod
    def uniform(cls, graph: TrafficGraph, horizon: int):
        degs = np.diff(graph.row_start)
        row = (1.0 / degs.astype(np.float64))[graph.edge_src]
        return cls(np.tile(row, (horizon, 1)))

    @classmethod
    def stationary(cls, values: np.ndarray, horizon: int):
        return cls(np.tile(np.asarray(values, dtype=np.float64), (horizon, 1)))

    def __eq__(self, other) -> bool:
        return isinstance(other, ReferencePolicy) and np.array_equal(self.probs, other.probs)


@dataclass(frozen=True, eq=False)
class Distribution:
    """Probability mass over nodes."""

    mass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mass", _readonly(self.mass))

    @classmethod
    def point_mass(cls, node_count: int, node: int):
        mass = np.zeros(node_count)
        mass[node] = 1.0
        return cls(mass)

    def __eq__(self, other) -> bool:
        return isinstance(other, Distribution) and np.array_equal(self.mass, other.mass)


@dataclass(frozen=True, eq=False)
class Scenario:
    """Immutable problem instance; safe to share across workers."""

    graph: TrafficGraph
    costs: StageCosts
    reference: ReferencePolicy
    alpha: float
    initial: Distribution

    def __post_init__(self):
        e = self.graph.edge_count
        v = self.graph.node_count
        t = self.costs.horizon
        if self.costs.stage.shape != (t, e):
            raise ValueError(f"cost table shape {self.costs.stage.shape}, expected {(t, e)}")
        if self.costs.terminal is not None and self.costs.terminal.shape != (v,):
            raise ValueError(f"terminal cost shape {self.costs.terminal.shape}, expected {(v,)}")
        if self.reference.probs.shape != (t, e):
            raise ValueError(
                f"reference table shape {self.reference.probs.shape}, expected {(t, e)}"
            )
        if self.initial.mass.shape != (v,):
            raise ValueError(f"initial distribution shape {self.initial.mass.shape}, expected {(v,)}")

    @property
    def horizon(self) -> int:
        return self.costs.horizon

    @cached_property
    def edge_costs(self) -> np.ndarray:
        """Effective (T, E) costs with the terminal cost folded into stage T-1."""
        if self.costs.terminal is None:
            return self.costs.stage
        folded = self.costs.stage.copy()
        folded[-1] += self.costs.terminal[self.graph.edge_dst]
        return _readonly(folded)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scenario)
            and self.graph == other.graph
            and self.costs == other.costs
            and self.reference == other.reference
            and self.alpha == other.alpha
            and self.initial == other.initial
        )


@dataclass(frozen=True)
class Violation:
    """One invariant violation; locations use t/node/dest where applicable."""

    code: str
    message: str
    t: int | None = None
    node: int | None = None
    dest: int | None = None

    def __str__(self) -> str:
        loc = ", ".join(
            f"{k}={v}" for k, v in (("t", self.t), ("i", self.node), ("j", self.dest)) if v is not None
        )
        return f"{self.code}[{loc}]: {self.message}" if loc else f"{self.code}: {self.message}"


def _bad_row_sums(graph: TrafficGraph, table: np.ndarray) -> list[tuple[int, int, float]]:
    """(t, node, sum) of every non-empty out-neighborhood row of a (T, E) table that does not sum to 1."""
    rows = np.flatnonzero(np.diff(graph.row_start) > 0)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf and overflow: NaN and inf sums fail below
        sums = np.add.reduceat(table, graph.row_start[rows], axis=1)
    bad = np.argwhere(~(np.abs(sums - 1.0) <= ROW_SUM_TOL))
    return [(int(t), int(rows[k]), float(sums[t, k])) for t, k in bad]


def validate(scenario: Scenario) -> list[Violation]:
    """Check every value-level invariant; an empty list means valid.

    Violations are data, not exceptions: a Scenario can always be
    constructed from shape-consistent inputs and inspected afterwards.
    """
    out: list[Violation] = []
    g = scenario.graph

    if scenario.horizon < 1:
        out.append(Violation("horizon", "horizon must be >= 1"))
    if not (math.isfinite(scenario.alpha) and scenario.alpha > 0):
        out.append(Violation("alpha", f"alpha must be a positive real, got {scenario.alpha}"))

    src, dst = g.edge_src, g.edge_dst

    def at(t, e) -> dict:
        return {"t": int(t), "node": int(src[e]), "dest": int(dst[e])}

    # an edge is a duplicate unless edge_index finds it: the first of its node with that dest
    duplicate = np.ones(g.edge_count, dtype=bool)
    duplicate[list(g._edge_ids.values())] = False
    graph_violations = [
        Violation("empty_out_neighbors", "node has no out-neighbors", node=int(i))
        for i in np.flatnonzero(np.diff(g.row_start) == 0)
    ] + [
        Violation("duplicate_out_neighbor", "duplicate edge", node=int(src[e]), dest=int(dst[e]))
        for e in np.flatnonzero(duplicate)
    ]
    out.extend(sorted(graph_violations, key=lambda v: v.node))

    for t, e in np.argwhere(~np.isfinite(scenario.costs.stage)):
        out.append(Violation("nonfinite_cost", "cost must be finite", **at(t, e)))
    if scenario.costs.terminal is not None:
        for j in np.flatnonzero(~np.isfinite(scenario.costs.terminal)):
            out.append(Violation("nonfinite_terminal", "terminal cost must be finite", dest=int(j)))

    # written as ~(ok) so that NaN entries fail
    ref = scenario.reference.probs
    ref_violations = [
        Violation("reference_nonpositive", f"reference probability {ref[t, e]} must be > 0", **at(t, e))
        for t, e in np.argwhere(~(ref > 0))
    ] + [
        Violation("reference_row_sum", f"reference row sums to {total:.17g}, expected 1", t=t, node=i)
        for t, i, total in _bad_row_sums(g, ref)
    ]
    # stable: each stage's entry violations stay ahead of its row-sum violations
    out.extend(sorted(ref_violations, key=lambda v: v.t))

    mass = scenario.initial.mass
    for i in np.flatnonzero(~np.isfinite(mass) | (mass < 0)):
        out.append(Violation("initial_negative", f"mass {mass[i]} must be finite and >= 0", node=int(i)))
    if np.all(np.isfinite(mass)) and abs(float(mass.sum()) - 1.0) > ROW_SUM_TOL:
        out.append(Violation("initial_sum", f"initial mass sums to {mass.sum():.17g}, expected 1"))

    return out


def require_valid(scenario: Scenario) -> None:
    violations = validate(scenario)
    if violations:
        raise InvalidScenarioError(violations)


# ---------------------------------------------------------------------------
# Grid world generator
# ---------------------------------------------------------------------------

def grid_node(width: int, x: int, y: int) -> int:
    """Node id of grid cell (x, y); ids are row-major, y grows southward."""
    return y * width + x


def build_gridworld(
    width: int,
    height: int,
    obstacles,
    origin: int,
    destination: int,
    horizon: int,
    alpha: float,
) -> Scenario:
    """Grid-world scenario: stay/north/east/south/west moves with obstacle penalties.

    Obstacle cells stay in the graph; every edge entering one carries the
    prohibitive penalty on top of the unit move cost.  A terminal cost of
    10 * sqrt(manhattan distance to the destination) is attached per node
    and folded into the final stage.  The reference policy is uniform over
    each neighborhood and the population starts as a point mass at the
    origin.
    """
    node_count = width * height
    obstacle_set = {int(o) for o in obstacles}
    for name, node in (("origin", origin), ("destination", destination)):
        if not 0 <= node < node_count:
            raise ValueError(f"{name} {node} is off-grid (0..{node_count - 1})")
        if node in obstacle_set:
            raise ValueError(f"{name} {node} is an obstacle cell")
    for o in obstacle_set:
        if not 0 <= o < node_count:
            raise ValueError(f"obstacle {o} is off-grid (0..{node_count - 1})")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")

    neighbors = []
    for y in range(height):
        for x in range(width):
            row = [grid_node(width, x, y)]
            for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0)):  # north, east, south, west
                nx, ny = x + dx, y + dy
                if 0 <= nx < width and 0 <= ny < height:
                    row.append(grid_node(width, nx, ny))
            neighbors.append(tuple(row))
    graph = TrafficGraph(tuple(neighbors))

    cost_row = np.where(graph.edge_src == graph.edge_dst, 0.0, GRID_MOVE_COST)
    cost_row = cost_row + GRID_OBSTACLE_PENALTY * np.isin(
        graph.edge_dst, np.array(sorted(obstacle_set), dtype=np.int64)
    )

    dest_x, dest_y = destination % width, destination // width
    cells = np.arange(node_count)
    dist = np.abs(cells % width - dest_x) + np.abs(cells // width - dest_y)
    terminal = GRID_TERMINAL_WEIGHT * np.sqrt(dist)

    return Scenario(
        graph=graph,
        costs=StageCosts.stationary(cost_row, horizon, terminal),
        reference=ReferencePolicy.uniform(graph, horizon),
        alpha=float(alpha),
        initial=Distribution.point_mass(node_count, origin),
    )


def truncate_scenario(scenario: Scenario, start: int, initial: Distribution) -> Scenario:
    """Subgame over stages start..T-1 with an arbitrary injected start distribution."""
    if not 0 <= start < scenario.horizon:
        raise ValueError(f"start stage {start} outside 0..{scenario.horizon - 1}")
    costs = StageCosts(
        scenario.horizon - start, scenario.costs.stage[start:], scenario.costs.terminal
    )
    reference = ReferencePolicy(scenario.reference.probs[start:])
    return Scenario(scenario.graph, costs, reference, scenario.alpha, initial)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _table_rows(graph: TrafficGraph, table: np.ndarray):
    """(t, i, j, value) rows of a (T, E) table: stage by stage, edges in storage order."""
    edges = list(zip(graph.edge_src.tolist(), graph.edge_dst.tolist()))
    return ((t, i, j, x) for t, row in enumerate(table.tolist()) for (i, j), x in zip(edges, row))


def serialize(scenario: Scenario) -> str:
    """Render a scenario in the sectioned text format (exact round trip)."""
    g = scenario.graph
    t_count = scenario.horizon
    # compared bit for bit, so a -0.0 in a later stage is not written as stage 0's 0.0
    stationary = t_count >= 1 and all(
        np.all(table.view(np.uint64) == table[0].view(np.uint64))
        for table in (scenario.costs.stage, scenario.reference.probs)
    )

    lines = ["[params]"]
    lines.append(f"nodes = {g.node_count}")
    lines.append(f"horizon = {t_count}")
    lines.append(f"alpha = {_fmt(scenario.alpha)}")
    support = np.flatnonzero(scenario.initial.mass != 0)
    lines.append("initial = " + ",".join(f"{i}:{_fmt(scenario.initial.mass[i])}" for i in support))
    if stationary:
        lines.append("stationary = true")

    lines.append("")
    lines.append("[graph]")
    lines.extend(f"{i} {j}" for i, j in zip(g.edge_src.tolist(), g.edge_dst.tolist()))

    def table_lines(table: np.ndarray) -> list[str]:
        if stationary:
            return [f"{i} {j} {_fmt(x)}" for _, i, j, x in _table_rows(g, table[:1])]
        return [f"{t} {i} {j} {_fmt(x)}" for t, i, j, x in _table_rows(g, table)]

    lines.append("")
    lines.append("[costs]")
    lines.extend(table_lines(scenario.costs.stage))
    if scenario.costs.terminal is not None:
        lines.extend(f"terminal {j} {_fmt(c)}" for j, c in enumerate(scenario.costs.terminal.tolist()))

    lines.append("")
    lines.append("[reference]")
    lines.extend(table_lines(scenario.reference.probs))

    lines.append("")
    return "\n".join(lines)


def _parse(kind, token: str, lineno: int, what: str):
    try:
        return kind(token)
    except ValueError:
        raise ScenarioFormatError(f"line {lineno}: cannot parse {what} '{token}'") from None


def _fill_table(graph: TrafficGraph, stages: int, entries, label: str, undeclared: str, missing: str) -> np.ndarray:
    """Fill a (stages, E) table from (lineno, t, i, j, value) entries; reject bad, repeated and absent rows."""
    table = np.empty((stages, graph.edge_count))
    seen = np.zeros(table.shape, dtype=bool)
    for lineno, t, i, j, value in entries:
        if not 0 <= t < stages:
            raise ScenarioFormatError(f"line {lineno}: stage {t} outside 0..{stages - 1}")
        try:
            e = graph.edge_index(i, j)
        except KeyError:
            raise ScenarioFormatError(f"line {lineno}: edge {i} -> {j} {undeclared}") from None
        if seen[t, e]:
            raise ScenarioFormatError(f"line {lineno}: duplicate {label} for stage {t} edge {i} -> {j}")
        seen[t, e] = True
        table[t, e] = value
    if not seen.all():
        t, e = (int(x) for x in np.argwhere(~seen)[0])
        raise ScenarioFormatError(f"{missing} stage {t} edge {int(graph.edge_src[e])} -> {int(graph.edge_dst[e])}")
    return table


def deserialize(text: str) -> Scenario:
    """Parse the sectioned text format; raises ScenarioFormatError with line info."""
    sections: dict[str, list[tuple[int, str]]] = {"params": [], "graph": [], "costs": [], "reference": []}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in sections:
                raise ScenarioFormatError(f"line {lineno}: unknown section [{name}]")
            current = name
            continue
        if current is None:
            raise ScenarioFormatError(f"line {lineno}: content before any section header")
        sections[current].append((lineno, line))

    params: dict[str, tuple[int, str]] = {}
    for lineno, line in sections["params"]:
        if "=" not in line:
            raise ScenarioFormatError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.lower()
        if key not in _PARAM_KEYS:
            raise ScenarioFormatError(f"line {lineno}: unknown key '{key}' in [params]")
        if key in params:
            first = params[key][0]
            raise ScenarioFormatError(f"line {lineno}: duplicate key '{key}' in [params] (first on line {first})")
        params[key] = (lineno, value)

    for field in _REQUIRED_PARAMS:
        if field not in params:
            raise ScenarioFormatError(f"missing required field '{field}' in [params]")

    node_count = _parse(int, params["nodes"][1], params["nodes"][0], "nodes")
    horizon = _parse(int, params["horizon"][1], params["horizon"][0], "horizon")
    alpha = _parse(float, params["alpha"][1], params["alpha"][0], "alpha")
    if node_count < 1:
        raise ScenarioFormatError(f"line {params['nodes'][0]}: nodes must be >= 1")
    if horizon < 1:
        raise ScenarioFormatError(f"line {params['horizon'][0]}: horizon must be >= 1")
    stationary = False
    if "stationary" in params:
        lineno, value = params["stationary"]
        if value.lower() not in ("true", "false"):
            raise ScenarioFormatError(f"line {lineno}: stationary must be true or false")
        stationary = value.lower() == "true"

    mass = np.zeros(node_count)
    lineno, value = params["initial"]
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ScenarioFormatError(f"line {lineno}: initial entries must be 'node:mass'")
        node_tok, mass_tok = part.split(":", 1)
        node = _parse(int, node_tok.strip(), lineno, "initial node")
        if not 0 <= node < node_count:
            raise ScenarioFormatError(f"line {lineno}: initial node {node} outside 0..{node_count - 1}")
        mass[node] = _parse(float, mass_tok.strip(), lineno, "initial mass")

    if not sections["graph"]:
        raise ScenarioFormatError("missing or empty [graph] section")
    neighbors: list[list[int]] = [[] for _ in range(node_count)]
    for lineno, line in sections["graph"]:
        tokens = line.split()
        if len(tokens) != 2:
            raise ScenarioFormatError(f"line {lineno}: graph lines are 'i j'")
        i = _parse(int, tokens[0], lineno, "source node")
        j = _parse(int, tokens[1], lineno, "destination node")
        for name, n in (("source", i), ("destination", j)):
            if not 0 <= n < node_count:
                raise ScenarioFormatError(f"line {lineno}: {name} node {n} outside 0..{node_count - 1}")
        neighbors[i].append(j)
    graph = TrafficGraph(tuple(tuple(row) for row in neighbors))

    terminal = np.zeros(node_count)
    terminal_lines: dict[int, int] = {}

    def entries(section: str, label: str):
        """Parse each table line as the fill consumes it, so faults surface in line order."""
        for lineno, line in sections[section]:
            tokens = line.split()
            if tokens[0].lower() == "terminal":
                if section != "costs" or len(tokens) != 3:
                    raise ScenarioFormatError(f"line {lineno}: terminal lines are 'terminal j c' in [costs]")
                j = _parse(int, tokens[1], lineno, "terminal node")
                if not 0 <= j < node_count:
                    raise ScenarioFormatError(f"line {lineno}: terminal node {j} outside 0..{node_count - 1}")
                if j in terminal_lines:
                    raise ScenarioFormatError(
                        f"line {lineno}: duplicate terminal cost for node {j} (first on line {terminal_lines[j]})"
                    )
                terminal_lines[j] = lineno
                terminal[j] = _parse(float, tokens[2], lineno, "terminal cost")
                continue
            if len(tokens) != (3 if stationary else 4):
                form = "stationary {} lines are 'i j value'" if stationary else "{} lines are 't i j value'"
                raise ScenarioFormatError(f"line {lineno}: " + form.format(label))
            t = 0 if stationary else _parse(int, tokens[0], lineno, "stage")
            i = _parse(int, tokens[-3], lineno, "source node")
            j = _parse(int, tokens[-2], lineno, "destination node")
            yield lineno, t, i, j, _parse(float, tokens[-1], lineno, label)

    def table(section: str, label: str) -> np.ndarray:
        # a stationary file fills one row, broadcast to every stage
        stages, missing = (1 if stationary else horizon), f"[{section}] missing {label} for"
        filled = _fill_table(graph, stages, entries(section, label), label, "not declared in [graph]", missing)
        return np.broadcast_to(filled, (horizon, graph.edge_count))

    cost_table = table("costs", "cost")
    ref_table = table("reference", "reference probability")

    return Scenario(
        graph=graph,
        costs=StageCosts(horizon, cost_table, terminal if terminal_lines else None),
        reference=ReferencePolicy(ref_table),
        alpha=alpha,
        initial=Distribution(mass),
    )


def write_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(scenario))


def read_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read scenario file {path}: {exc}") from exc
    return deserialize(text)
