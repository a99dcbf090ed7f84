"""Problem instances for the log-toll routing game.

A scenario bundles a directed traffic graph, per-stage edge travel costs
(with an optional terminal cost folded into the last stage), a strictly
positive reference routing policy, the toll aggressiveness alpha, and the
initial population distribution.  Node ids are 0-based everywhere,
including the text file format that mftroute.textio reads and writes
(see docs/scenario_format.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from numbers import Integral

import numpy as np

ROW_SUM_TOL = 1e-12

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


def readonly(arr: np.ndarray, dtype=np.float64) -> np.ndarray:
    """A read-only view of arr; it is copied only to change its dtype, so a broadcast view stays a view.

    The flag is set on a new view, never on the caller's own array, which stays writeable.
    """
    out = np.asarray(arr, dtype=dtype).view()
    out.setflags(write=False)
    return out


def as_int64(values) -> np.ndarray:
    """Integers as int64; one beyond int64 becomes -1, which every node and stage range rejects."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array([v if -(2**63) <= v < 2**63 else -1 for v in values], dtype=np.int64)


@dataclass(frozen=True, eq=False)
class TrafficGraph:
    """Directed routing graph as CSR arrays: node i's out-neighbors are edge_dst[row_start[i]:row_start[i + 1]].

    Both are read-only int64 arrays, row_start of length V+1 and edge_dst of
    length E.  This flat edge order, sorted by source node, is the layout
    every per-edge array in this package uses.
    """

    row_start: np.ndarray
    edge_dst: np.ndarray

    def __post_init__(self):
        row_start, dst = np.asarray(self.row_start), np.asarray(self.edge_dst)
        if not (row_start.ndim == dst.ndim == 1 and row_start.dtype.kind in "iu" and row_start[:1].tolist() == [0]
                and row_start[-1] == len(dst) and np.all(row_start[1:] >= row_start[:-1])):
            raise ValueError(f"row_start must be integers rising from 0 to the edge count {len(dst)}")
        if dst.dtype.kind not in "iu":  # ids held as Python objects, as from_neighbors passes them
            ids = dst.tolist()
            integral = list(map(isinstance, ids, repeat(Integral)))
            if not all(integral):
                e = integral.index(False)
                node = np.searchsorted(row_start, e, side="right") - 1
                raise ValueError(f"node {node}: out-neighbor {ids[e]!r} is not an integer")
        v = len(row_start) - 1
        outside = np.flatnonzero((dst < 0) | (dst >= v))
        if len(outside):
            e = outside[0]
            node = np.searchsorted(row_start, e, side="right") - 1  # the last node whose edges start at or before e
            raise ValueError(f"node {node}: out-neighbor {dst[e]} outside 0..{v - 1}")
        object.__setattr__(self, "row_start", readonly(row_start, np.int64))
        object.__setattr__(self, "edge_dst", readonly(dst, np.int64))

    @classmethod
    def from_neighbors(cls, rows) -> TrafficGraph:
        """The graph whose node i has the out-neighbors rows[i], in that order."""
        rows = list(map(tuple, rows))
        ids = list(chain.from_iterable(rows))
        return cls(np.cumsum([0, *map(len, rows)]), np.fromiter(ids, object, len(ids)))

    @property
    def node_count(self) -> int:
        return len(self.row_start) - 1

    @property
    def edge_count(self) -> int:
        return len(self.edge_dst)

    @cached_property
    def edge_src(self) -> np.ndarray:
        return readonly(np.repeat(np.arange(self.node_count), np.diff(self.row_start)), np.int64)

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
        e = int(self.edge_ids(as_int64([node]), as_int64([dest]))[0])
        if e < 0:
            raise KeyError(f"no edge {node} -> {dest}")
        return e

    def __eq__(self, other) -> bool:
        same = isinstance(other, TrafficGraph) and np.array_equal(self.row_start, other.row_start)
        return same and np.array_equal(self.edge_dst, other.edge_dst)


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
        stage = readonly(np.atleast_2d(self.stage))
        if stage.shape[0] != self.horizon:
            raise ValueError(
                f"stage cost table has {stage.shape[0]} stages, horizon is {self.horizon}"
            )
        object.__setattr__(self, "stage", stage)
        if self.terminal is not None:
            object.__setattr__(self, "terminal", readonly(self.terminal))

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
        object.__setattr__(self, "probs", readonly(np.atleast_2d(self.probs)))

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
        object.__setattr__(self, "mass", readonly(self.mass))

    @classmethod
    def point_mass(cls, node_count: int, node: int):
        if not 0 <= node < node_count:
            raise ValueError(f"point mass node {node} outside 0..{node_count - 1}")
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
            for t, i, total in bad_row_sums(g, ref)
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


def bad_row_sums(graph: TrafficGraph, table: np.ndarray) -> list[tuple[int, int, float]]:
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

    y, x = np.divmod(np.arange(node_count), width)
    # each cell's (V, 5) stay, north, east, south and west moves, masked to those that stay on the grid
    nx, ny = x[:, None] + np.array([0, 0, 1, 0, -1]), y[:, None] + np.array([0, -1, 0, 1, 0])
    inside = (nx >= 0) & (nx < width) & (ny >= 0) & (ny < height)
    graph = TrafficGraph(np.append(0, np.cumsum(inside.sum(axis=1))), grid_node(width, nx, ny)[inside])

    cost_row = np.where(graph.edge_src == graph.edge_dst, 0.0, GRID_MOVE_COST)
    cost_row = cost_row + GRID_OBSTACLE_PENALTY * np.isin(
        graph.edge_dst, np.array(sorted(obstacle_set), dtype=np.int64)
    )

    dist = np.abs(x - destination % width) + np.abs(y - destination // width)
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
