"""Problem instances for the log-toll routing game.

A scenario bundles a directed traffic graph, per-stage edge travel costs
(with an optional terminal cost folded into the last stage), a strictly
positive reference routing policy, the toll aggressiveness alpha, and the
initial population distribution.  Node ids are 0-based everywhere,
including the text file format (see docs/scenario_format.md).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, compress

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
    """A read-only view of arr; it is copied only to change its dtype, so a broadcast view stays a view.

    The flag is set on a new view, never on the caller's own array, which stays writeable.
    """
    out = np.asarray(arr, dtype=dtype).view()
    out.setflags(write=False)
    return out


def _int64(values) -> np.ndarray:
    """Integers as int64; one beyond int64 becomes -1, which every node and stage range rejects."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array([v if -(2**63) <= v < 2**63 else -1 for v in values], dtype=np.int64)


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

    @cached_property
    def _edge_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted distinct src * V + dst keys and the first edge with each, then a key no edge reaches."""
        keys, first = np.unique(self.edge_src * self.node_count + self.edge_dst, return_index=True)
        return np.append(keys, np.iinfo(np.int64).max), np.append(first, -1)

    def edge_ids(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Flat index of each edge (src[k], dst[k]), or -1 where there is none; the first of duplicate edges wins."""
        v = self.node_count
        keys, first = self._edge_keys
        inside = (src >= 0) & (src < v) & (dst >= 0) & (dst < v)
        query = np.where(inside, src, 0) * v + np.where(inside, dst, 0)
        pos = np.searchsorted(keys, query)  # never past the last key
        return np.where(inside & (keys[pos] == query), first[pos], -1)

    def edge_index(self, node: int, dest: int) -> int:
        """Flat index of edge (node, dest); raises KeyError if absent."""
        e = int(self.edge_ids(_int64([node]), _int64([dest]))[0])
        if e < 0:
            raise KeyError(f"no edge {node} -> {dest}")
        return e

    def __eq__(self, other) -> bool:
        return isinstance(other, TrafficGraph) and self.out_neighbors == other.out_neighbors


@dataclass(frozen=True, eq=False)
class StageCosts:
    """Per-stage edge travel costs, stage array shape (T, E).

    A stationary table may be one row broadcast over the stages; every
    table is kept as given, read-only, with no copy.  ``terminal``, when
    present, is a per-node cost charged on the final location; it is
    folded additively into the stage T-1 edge costs (by destination node)
    when solvers ask for effective costs.
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
        """Uniform over each out-neighborhood at every stage: one row, broadcast."""
        degs = np.diff(graph.row_start)
        row = (1.0 / degs.astype(np.float64))[graph.edge_src]
        return cls(np.broadcast_to(row, (horizon, graph.edge_count)))

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

    def stage_costs(self, t: int) -> np.ndarray:
        """Stage t's effective (E,) edge costs, 0 <= t < T: a view of costs.stage[t], plus terminal[dest] at T-1."""
        if not 0 <= t < self.horizon:
            raise ValueError(f"stage {t} outside 0..{self.horizon - 1}")
        row = self.costs.stage[t]
        if t < self.horizon - 1 or self.costs.terminal is None:
            return row
        return row + self.costs.terminal[self.graph.edge_dst]

    @cached_property
    def _violations(self) -> tuple[Violation, ...]:
        """Every value-level invariant violation, in report order, checked once (see validate)."""
        out: list[Violation] = []
        g = self.graph

        if self.horizon < 1:
            out.append(Violation("horizon", "horizon must be >= 1"))
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            out.append(Violation("alpha", f"alpha must be a positive real, got {self.alpha}"))

        src, dst = g.edge_src, g.edge_dst

        def at(t, e) -> dict:
            return {"t": int(t), "node": int(src[e]), "dest": int(dst[e])}

        # an edge is a duplicate unless edge_ids finds it: the first of its node with that dest
        duplicate = g.edge_ids(src, dst) != np.arange(g.edge_count)
        graph_violations = [
            Violation("empty_out_neighbors", "node has no out-neighbors", node=int(i))
            for i in np.flatnonzero(np.diff(g.row_start) == 0)
        ] + [
            Violation("duplicate_out_neighbor", "duplicate edge", node=int(src[e]), dest=int(dst[e]))
            for e in np.flatnonzero(duplicate)
        ]
        out.extend(sorted(graph_violations, key=lambda v: v.node))

        for t, e in np.argwhere(~np.isfinite(self.costs.stage)):
            out.append(Violation("nonfinite_cost", "cost must be finite", **at(t, e)))
        if self.costs.terminal is not None:
            for j in np.flatnonzero(~np.isfinite(self.costs.terminal)):
                out.append(Violation("nonfinite_terminal", "terminal cost must be finite", dest=int(j)))

        # written as ~(ok) so that NaN entries fail
        ref = self.reference.probs
        ref_violations = [
            Violation("reference_nonpositive", f"reference probability {ref[t, e]} must be > 0", **at(t, e))
            for t, e in np.argwhere(~(ref > 0))
        ] + [
            Violation("reference_row_sum", f"reference row sums to {total:.17g}, expected 1", t=t, node=i)
            for t, i, total in _bad_row_sums(g, ref)
        ]
        # stable: each stage's entry violations stay ahead of its row-sum violations
        out.extend(sorted(ref_violations, key=lambda v: v.t))

        mass = self.initial.mass
        for i in np.flatnonzero(~np.isfinite(mass) | (mass < 0)):
            out.append(Violation("initial_negative", f"mass {mass[i]} must be finite and >= 0", node=int(i)))
        if np.all(np.isfinite(mass)) and abs(float(mass.sum()) - 1.0) > ROW_SUM_TOL:
            out.append(Violation("initial_sum", f"initial mass sums to {mass.sum():.17g}, expected 1"))

        return tuple(out)

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
    The checks run once per Scenario; each call returns a fresh list.
    """
    return list(scenario._violations)


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
    if width < 1 or height < 1:
        raise ValueError(f"grid width {width} and height {height} must both be >= 1")
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
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be a positive real, got {float(alpha)}")

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
        costs=StageCosts(horizon, np.broadcast_to(cost_row, (horizon, graph.edge_count)), terminal),
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

_SECTIONS = ("params", "graph", "costs", "reference")
_CHUNK_CHARS = 1 << 16  # characters of text split into lines and parsed at once
# rows formatted at once by the table writers; few enough that one chunk of row
# tuples read from an iterator is freed before it fills the garbage collector's
# youngest generation (700 objects), which would promote it and trigger full collections
_CHUNK_ROWS = 1 << 9


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _stage_table_text(prefixes: list[str], table: np.ndarray, sep: str, fmt, stage_column: bool = True):
    """Rows 't{sep}{prefixes[k]}{value}' of a (T, K) table, stage by stage, as blocks of newline-joined rows.

    Column k's fixed text ``prefixes[k]`` is built once and reused for every
    stage; the values are formatted by ``fmt`` from ``.tolist()``.  A block
    holds at most _CHUNK_ROWS rows of one stage.
    """
    for t, row in enumerate(table):
        lead = f"{t}{sep}" if stage_column else ""
        for lo in range(0, len(prefixes), _CHUNK_ROWS):
            values = map(fmt, row[lo : lo + _CHUNK_ROWS].tolist())
            yield lead + ("\n" + lead).join(map(str.__add__, prefixes[lo : lo + _CHUNK_ROWS], values))


def _edge_prefixes(graph: TrafficGraph, sep: str) -> list[str]:
    """'i{sep}j{sep}' of every edge, in storage order."""
    return [f"{i}{sep}{j}{sep}" for i, j in zip(graph.edge_src.tolist(), graph.edge_dst.tolist())]


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

    prefixes = _edge_prefixes(g, " ")

    def table_blocks(table: np.ndarray):
        # a stationary table is written once, without the stage column
        return _stage_table_text(prefixes, table[:1] if stationary else table, " ", _fmt, not stationary)

    lines.append("")
    lines.append("[costs]")
    lines.extend(table_blocks(scenario.costs.stage))
    if scenario.costs.terminal is not None:
        lines.extend(f"terminal {j} {_fmt(c)}" for j, c in enumerate(scenario.costs.terminal.tolist()))

    lines.append("")
    lines.append("[reference]")
    lines.extend(table_blocks(scenario.reference.probs))

    lines.append("")
    return "\n".join(lines)


def _pieces(text: str, start: int, stop: int):
    """(start, end) of text[start:stop] in pieces of about _CHUNK_CHARS, each cut just after a newline."""
    while start < stop:
        end = text.find("\n", min(start + _CHUNK_CHARS, stop), stop) + 1 or stop
        yield start, end
        start = end


def _line_blocks(text: str, start: int, stop: int, lineno: int):
    """(offset, first line number, piece, lines) of text[start:stop] in pieces of about _CHUNK_CHARS.

    Pieces are cut just after a newline, so each holds whole lines and
    ``str.splitlines`` numbers them as it would the whole text.
    """
    for start, end in _pieces(text, start, stop):
        piece = text[start:end]
        lines = piece.splitlines()
        yield start, lineno, piece, lines
        lineno += len(lines)


# the line boundaries of str.splitlines other than "\n" (tests/test_scenario.py derives them from it)
_OTHER_BREAKS = ("\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _uncommented(piece: str, lines: list[str]) -> list[str]:
    """The piece's lines with any '#' comment dropped."""
    return [line.split("#", 1)[0] for line in lines] if "#" in piece else lines


def _section_spans(text: str) -> dict[str, list[tuple[int, int, int]]]:
    """(start, stop, first line number) of the text under each section header, in file order.

    Raises at the first unknown header or line of content ahead of every header.
    """
    spans: dict[str, list[tuple[int, int, int]]] = {name: [] for name in _SECTIONS}
    current = None  # (name, start, first line number) of the open section
    lineno = 1
    for offset, end in _pieces(text, 0, len(text)):
        piece = text[offset:end]
        if current is not None and "[" not in piece and not any(map(piece.__contains__, _OTHER_BREAKS)):
            # no header and nothing to check: count the lines without splitting them
            lineno += piece.count("\n") + (not piece.endswith("\n"))
            continue
        lines = piece.splitlines(keepends=True)
        heads = []
        if "[" in piece:
            for k in [k for k, line in enumerate(lines) if "[" in line]:
                line = lines[k].split("#", 1)[0].strip()
                if line.startswith("[") and line.endswith("]"):
                    heads.append((k, line[1:-1].strip().lower()))
        if current is None:
            ahead = lines[: heads[0][0]] if heads else lines
            for k, line in enumerate(_uncommented(piece, ahead)):
                if line.strip():
                    raise ScenarioFormatError(f"line {lineno + k}: content before any section header")
        if heads:
            starts = list(accumulate(map(len, lines), initial=offset))
        for k, name in heads:
            if name not in spans:
                raise ScenarioFormatError(f"line {lineno + k}: unknown section [{name}]")
            if current is not None:
                spans[current[0]].append((current[1], starts[k], current[2]))
            current = (name, starts[k + 1], lineno + k + 1)
        lineno += len(lines)
    if current is not None:
        spans[current[0]].append((current[1], len(text), current[2]))
    return spans


def _section_lines(text: str, spans):
    """(first line number, lines without comments, piece) of the spans' text, a chunk at a time."""
    for start, stop, lineno in spans:
        for _, first, piece, lines in _line_blocks(text, start, stop, lineno):
            yield first, _uncommented(piece, lines), piece


@dataclass(eq=False)
class _Rows:
    """A chunk's table rows, one per line that is not blank, as parsed columns.

    ``columns`` holds the rows ahead of the first line whose grammar fails,
    and ``fault`` that line's error (None when every row reads).  A row's
    line number and text are looked up only when a fault is reported.
    """

    first: int
    lines: list[str]
    columns: list
    fault: ScenarioFormatError | None = None

    @cached_property
    def linenos(self) -> list[int]:
        return list(compress(range(self.first, self.first + len(self.lines)), map(str.strip, self.lines)))

    def lineno(self, k: int) -> int:
        return self.linenos[k]

    def line(self, k: int) -> str:
        return self.lines[self.linenos[k] - self.first]


def _walk_lines(first: int, lines: list[str], kinds, row) -> _Rows:
    """The rows of a chunk read one line at a time by its grammar ``row``, up to the first line it rejects."""
    values, fault = [], None
    try:
        for lineno, line in enumerate(lines, first):
            if line.strip():
                values.append(row(lineno, line))
    except ScenarioFormatError as exc:
        fault = exc
    return _Rows(first, lines, list(zip(*values)) or [()] * len(kinds), fault)


def _read_rows(first: int, piece: str, lines: list[str], kinds, sep: str | None, row) -> _Rows:
    """The rows of a chunk of uncommented lines, column c parsed by kinds[c], split at sep or whitespace.

    numpy's C text reader parses a chunk in one call and gives the bits
    int() and float() give.  A chunk it rejects is read one line at a time
    by the line's grammar ``row(lineno, line)``, which returns the line's
    values or raises its ScenarioFormatError; it reads every spelling int()
    and float() accept (1_0, non-ASCII digits, integers beyond int64).  The
    C reader never sees a chunk that is blank, holds non-ASCII text (it
    reads some letters as digits) or, split at sep, a '\\x1f' (it strips one
    around a field; int() and float() do not).
    """
    if not any(map(str.strip, lines)):
        return _Rows(first, lines, [()] * len(kinds))
    if (piece.isascii() or "".join(lines).isascii()) and (sep is None or "\x1f" not in piece):
        dtype = [(f"c{c}", np.int64 if kind is int else np.float64) for c, kind in enumerate(kinds)]
        try:
            table = np.loadtxt(lines, dtype=dtype, comments=None, delimiter=sep, ndmin=1)
        except (ValueError, OverflowError):
            pass
        else:
            return _Rows(first, lines, [table[name] for name in table.dtype.names])
    return _walk_lines(first, lines, kinds, row)


def _parse(kind, token: str, lineno: int, what: str):
    try:
        return kind(token)
    except ValueError:
        raise ScenarioFormatError(f"line {lineno}: cannot parse {what} '{token}'") from None


def _fill_table(graph: TrafficGraph, stages: int, columns, label: str, undeclared: str, missing: str) -> np.ndarray:
    """Fill a (stages, E) table from chunks of (line number of row k, t, i, j, values) columns.

    Each chunk is checked as whole columns.  The row reported is the first
    faulty one in line order, with the first of its checks that fails:
    stage range, edge lookup, repeat of an earlier row.  After the last
    chunk the first absent row is reported.
    """
    e_count = graph.edge_count
    table = np.empty((stages, e_count))
    seen = np.zeros(table.shape, dtype=bool)
    cells, cells_seen = table.reshape(-1), seen.reshape(-1)
    for lineno, t, i, j, values in columns:
        stage = _int64(t)
        edge = graph.edge_ids(_int64(i), _int64(j))
        ok = (stage >= 0) & (stage < stages) & (edge >= 0)
        cell = stage[ok] * e_count + edge[ok]
        first = np.zeros(len(cell), dtype=bool)
        first[np.unique(cell, return_index=True)[1]] = True
        bad = ~ok
        bad[ok] = cells_seen[cell] | ~first
        if bad.any():
            k = int(np.argmax(bad))
            where = f"line {lineno(k)}:"
            if not 0 <= t[k] < stages:
                raise ScenarioFormatError(f"{where} stage {t[k]} outside 0..{stages - 1}")
            if edge[k] < 0:
                raise ScenarioFormatError(f"{where} edge {i[k]} -> {j[k]} {undeclared}")
            raise ScenarioFormatError(f"{where} duplicate {label} for stage {t[k]} edge {i[k]} -> {j[k]}")
        cells[cell] = values
        cells_seen[cell] = True
    if not seen.all():
        t, e = (int(x) for x in np.argwhere(~seen)[0])
        raise ScenarioFormatError(f"{missing} stage {t} edge {int(graph.edge_src[e])} -> {int(graph.edge_dst[e])}")
    return table


def deserialize(text: str) -> Scenario:
    """Parse the sectioned text format; raises ScenarioFormatError with line info.

    Sections are read in the order params, graph, costs, reference, each a
    chunk of lines at a time.  Within a section the fault reported is the
    first faulty line (see docs/scenario_format.md for the check order).
    """
    spans = _section_spans(text)

    params: dict[str, tuple[int, str]] = {}
    for first, lines, _ in _section_lines(text, spans["params"]):
        for lineno, line in enumerate(lines, start=first):
            line = line.strip()
            if not line:
                continue
            if "=" not in line:
                raise ScenarioFormatError(f"line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.lower()
            if key not in _PARAM_KEYS:
                raise ScenarioFormatError(f"line {lineno}: unknown key '{key}' in [params]")
            if key in params:
                raise ScenarioFormatError(
                    f"line {lineno}: duplicate key '{key}' in [params] (first on line {params[key][0]})"
                )
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
    seen: set[int] = set()
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
        if node in seen:
            raise ScenarioFormatError(f"line {lineno}: duplicate initial node {node}")
        seen.add(node)
        mass[node] = _parse(float, mass_tok.strip(), lineno, "initial mass")

    def graph_row(lineno: int, line: str) -> tuple[int, int]:
        """The (i, j) of one graph line, or its fault."""
        tokens = line.split()
        if len(tokens) != 2:
            raise ScenarioFormatError(f"line {lineno}: graph lines are 'i j'")
        i = _parse(int, tokens[0], lineno, "source node")
        j = _parse(int, tokens[1], lineno, "destination node")
        for name, n in (("source", i), ("destination", j)):
            if not 0 <= n < node_count:
                raise ScenarioFormatError(f"line {lineno}: {name} node {n} outside 0..{node_count - 1}")
        return i, j

    neighbors: list[list[int]] = [[] for _ in range(node_count)]
    edge_lines = 0
    for first, lines, piece in _section_lines(text, spans["graph"]):
        rows = _read_rows(first, piece, lines, (int, int), None, graph_row)
        ends = np.concatenate([_int64(src) for src in rows.columns]).reshape(2, -1)
        outside = np.flatnonzero(((ends < 0) | (ends >= node_count)).any(axis=0))
        if len(outside):
            graph_row(rows.lineno(outside[0]), rows.line(outside[0]))
        if rows.fault is not None:
            raise rows.fault
        for i, j in zip(*ends.tolist()):
            neighbors[i].append(j)
        edge_lines += ends.shape[1]
    if not edge_lines:
        raise ScenarioFormatError("missing or empty [graph] section")
    graph = TrafficGraph(tuple(tuple(row) for row in neighbors))

    terminal = np.zeros(node_count)
    terminal_lines: dict[int, int] = {}

    def terminal_line(lineno: int, tokens: list[str], section: str) -> None:
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

    fields = ([] if stationary else [(int, "stage")]) + [(int, "source node"), (int, "destination node")]
    kinds = [kind for kind, _ in fields] + [float]

    def table_row(lineno: int, line: str, label: str) -> list:
        """The values of one table line, or its fault."""
        tokens = line.split()
        if len(tokens) != len(kinds):
            form = "stationary {} lines are 'i j value'" if stationary else "{} lines are 't i j value'"
            raise ScenarioFormatError(f"line {lineno}: " + form.format(label))
        try:
            return [kind(token) for kind, token in zip(kinds, tokens)]
        except ValueError:
            for (kind, what), token in zip(fields + [(float, label)], tokens):
                _parse(kind, token, lineno, what)

    def columns(section: str, label: str):
        """(line numbers, t, i, j, values) of a table section's rows, a chunk at a time.

        A chunk ends ahead of its first faulty line, a table line that does
        not parse or a terminal line that fails; once the fill has checked
        the rows ahead of it, that line's fault is raised.  Terminal lines
        are read first and then blanked, so the table rows keep their line
        numbers.
        """
        for first, lines, piece in _section_lines(text, spans[section]):
            fault = None  # (line number, error) of the first faulty line
            if "terminal" in piece.lower():
                for k in [k for k, line in enumerate(lines) if "terminal" in line.lower()]:
                    tokens = lines[k].split()
                    if tokens[0].lower() != "terminal":
                        continue
                    lines[k] = ""
                    if fault is None:
                        try:
                            terminal_line(first + k, tokens, section)
                        except ScenarioFormatError as exc:
                            fault = (first + k, exc)
            rows = _read_rows(first, piece, lines, kinds, None, partial(table_row, label=label))
            cols = rows.columns
            parsed = len(cols[-1])
            if rows.fault is not None and (fault is None or rows.lineno(parsed) < fault[0]):
                fault = (rows.lineno(parsed), rows.fault)
            n = parsed if fault is None else bisect_left(rows.linenos, fault[0])
            t = [0] * n if stationary else cols[0][:n]
            yield rows.lineno, t, cols[-3][:n], cols[-2][:n], np.asarray(cols[-1][:n], dtype=np.float64)
            if fault is not None:
                raise fault[1]

    def table(section: str, label: str) -> np.ndarray:
        # a stationary file fills one row, broadcast to every stage
        stages, missing = (1 if stationary else horizon), f"[{section}] missing {label} for"
        filled = _fill_table(graph, stages, columns(section, label), label, "not declared in [graph]", missing)
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


def _read_text(path, what: str) -> str:
    """A UTF-8 file's text with universal newlines, a leading byte-order mark dropped.

    Its error names the path, and the line of a bad byte.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        # read() decodes the whole file in one call, so exc.object holds every byte ahead of the bad one
        ahead = exc.object[: exc.start].decode("utf-8")
        line = len((ahead + "x").splitlines())  # the line that a character in the bad byte's place would be on
        fault = f"line {line}: byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})"
        raise ScenarioFormatError(f"cannot read {what} file {path}: {fault}") from None
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read {what} file {path}: {exc}") from exc


def read_scenario(path) -> Scenario:
    return deserialize(_read_text(path, "scenario"))
