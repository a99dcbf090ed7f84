"""Every reader and writer of a table file: the scenario format, the policy CSV and the output tables.

Every output file carries its run manifest as leading comment lines, so a
run can be reproduced exactly; with a fixed seed the numeric payload
(every non-comment line) is byte-identical across runs on one platform.
Numeric formatting is locale-independent (dot decimal separator).  Every
table section of a scenario and the rows of a policy CSV are read by one
chunk walker (see docs/scenario_format.md).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, compress, islice

import numpy as np

from .fictitious_play import FictitiousPlayResult
from .finite_population import GENERATOR_NAME
from .kl_solver import PolicyKernel
from .scenario import (
    Distribution,
    ReferencePolicy,
    Scenario,
    ScenarioFormatError,
    StageCosts,
    TrafficGraph,
    as_int64,
    bad_row_sums,
)

__version__ = "0.1.0"  # the package's version, written into every run manifest
PROG = "mft-route"

_REQUIRED_PARAMS = ("nodes", "horizon", "alpha", "initial")
_PARAM_KEYS = _REQUIRED_PARAMS + ("stationary",)
_SECTIONS = ("params", "graph", "costs", "reference")
_CHUNK_CHARS = 1 << 16  # characters of text split into lines and parsed at once
# rows formatted at once by the table writers; few enough that one chunk of row
# tuples read from an iterator is freed before it fills the garbage collector's
# youngest generation (700 objects), which would promote it and trigger full collections
_CHUNK_ROWS = 1 << 9


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
            text = str(self.params[key])  # a value the readers' str.splitlines would split is written as its repr
            lines.append(f"# manifest: {key}={text if len(f'{text}.'.splitlines()) == 1 else repr(text)}")
        if self.seed is not None:
            # NEP 19 lets numpy's samplers change their streams between releases
            lines.append(f"# manifest: seed={self.seed} generator={GENERATOR_NAME} numpy={np.__version__}")
        for name, digest in sorted((self.input_digests or {}).items()):
            lines.append(f"# manifest: sha256[{name}]={digest}")
        if self.duration_s is not None:
            lines.append(f"# manifest: duration_s={self.duration_s:.3f}")
        return lines


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


def write_node_table(path, header: str, table: np.ndarray, manifest: RunManifest) -> None:
    """Write a (T+1, V) per-stage node table as (t, i, value) rows."""
    prefixes = [f"{i}," for i in range(table.shape[1])]
    _write_text(path, header, manifest, _stage_table_text(prefixes, table, ",", repr))


def write_policy_csv(path, scenario: Scenario, policy: PolicyKernel, manifest: RunManifest) -> None:
    blocks = _stage_table_text(_edge_prefixes(scenario.graph, ","), policy.probs, ",", repr)
    _write_text(path, "t,i,j,value", manifest, blocks)


def write_fp_csv(path, result: FictitiousPlayResult, manifest: RunManifest) -> None:
    """One row per day; the final day-after belief has no choice and is written with r = -1."""
    beliefs = result.path.beliefs
    days = np.arange(1, len(beliefs) + 1)
    choices = np.append(result.path.choices, -1)
    columns = [days, *beliefs.T, choices, result.dist_to_finite_ne, result.dist_to_mfe]
    belief_cols = ",".join(f"q{j + 1}" for j in range(len(result.mfe)))
    write_csv(path, f"day,{belief_cols},r,dist_to_ne,dist_to_mfe", columns, manifest)


def serialize(scenario: Scenario) -> str:
    """Render a scenario in the sectioned text format (exact round trip)."""
    g = scenario.graph
    t_count = scenario.horizon
    # compared bit for bit, so a -0.0 in a later stage is not written as stage 0's 0.0
    stationary = t_count >= 1 and all(
        np.all(table.view(np.uint64) == table[0].view(np.uint64))
        for table in (scenario.costs.stage, scenario.reference.probs)
    )

    support = np.flatnonzero(scenario.initial.mass != 0)
    lines = [
        "[params]",
        f"nodes = {g.node_count}",
        f"horizon = {t_count}",
        f"alpha = {_fmt(scenario.alpha)}",
        "initial = " + ",".join(f"{i}:{_fmt(scenario.initial.mass[i])}" for i in support),
        *(["stationary = true"] if stationary else []),
        "",
        "[graph]",
        *(f"{i} {j}" for i, j in zip(g.edge_src.tolist(), g.edge_dst.tolist())),
    ]
    prefixes = _edge_prefixes(g, " ")

    def table_blocks(table: np.ndarray):
        # a stationary table is written once, without the stage column
        return _stage_table_text(prefixes, table[:1] if stationary else table, " ", _fmt, not stationary)

    lines += ["", "[costs]", *table_blocks(scenario.costs.stage)]
    if scenario.costs.terminal is not None:
        lines.extend(f"terminal {j} {_fmt(c)}" for j, c in enumerate(scenario.costs.terminal.tolist()))
    lines += ["", "[reference]", *table_blocks(scenario.reference.probs), ""]
    return "\n".join(lines)


def write_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(scenario))


def _pieces(text: str, start: int, stop: int):
    """(start, end) of text[start:stop] in pieces of about _CHUNK_CHARS, each cut just after a newline."""
    while start < stop:
        end = text.find("\n", min(start + _CHUNK_CHARS, stop), stop) + 1 or stop
        yield start, end
        start = end


# the line boundaries of str.splitlines other than "\n" (tests/test_scenario.py derives them from it)
_OTHER_BREAKS = ("\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _uncommented(piece: str, lines: list[str]) -> list[str]:
    """The piece's lines with any '#' comment dropped."""
    return [line.split("#", 1)[0] for line in lines] if "#" in piece else lines


def _line_blocks(text: str, spans):
    """(first line number, lines without comments, piece) of each (start, stop, first line number) span's text.

    The pieces, of about _CHUNK_CHARS, are cut just after a newline, so each
    holds whole lines and ``str.splitlines`` numbers them as in the whole text.
    """
    for start, stop, lineno in spans:
        for lo, hi in _pieces(text, start, stop):
            piece = text[lo:hi]
            lines = piece.splitlines()
            yield lineno, _uncommented(piece, lines), piece
            lineno += len(lines)


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


def _table_chunks(blocks, kinds, sep: str | None, row, claim=None, bad_rows=None):
    """(line number of row k, columns) of a table section's rows, a chunk at a time.

    Per chunk of ``blocks``, ``claim(first, lines, piece)`` blanks the lines
    a pre-pass reads (terminal lines, a CSV header), keeping the rows' line
    numbers, and returns the pass's first fault as (line number, error) or
    None.  _read_rows parses the rest, and the grammar ``row`` words the
    first row that ``bad_rows(columns)`` marks.  A chunk ends ahead of its
    earliest faulty line, whose fault is raised once the caller has read the rows.
    """
    for first, lines, piece in blocks:
        faults = [claim(first, lines, piece)] if claim is not None else []
        rows = _read_rows(first, piece, lines, kinds, sep, row)
        parsed = len(rows.columns[0])
        if rows.fault is not None:
            faults.append((rows.lineno(parsed), rows.fault))
        bad = np.flatnonzero(bad_rows(rows.columns)) if bad_rows is not None else ()
        if len(bad):
            try:
                row(rows.lineno(bad[0]), rows.line(bad[0]))
            except ScenarioFormatError as exc:
                faults.append((rows.lineno(bad[0]), exc))
        fault = min(filter(None, faults), default=None, key=lambda f: f[0])
        n = parsed if fault is None else bisect_left(rows.linenos, fault[0])
        yield rows.lineno, [column[:n] for column in rows.columns]
        if fault is not None:
            raise fault[1]


def _parse(kind, token: str, lineno: int, what: str):
    try:
        return kind(token)
    except ValueError:
        raise ScenarioFormatError(f"line {lineno}: cannot parse {what} '{token}'") from None


def _fill_table(graph: TrafficGraph, stages: int, chunks, label: str, undeclared: str, missing: str) -> np.ndarray:
    """Fill a (stages, E) table from the chunks of _table_chunks; keys without a stage column fill stage 0.

    Each chunk is checked as whole columns.  The row reported is the first
    faulty one in line order, with the first of its checks that fails:
    stage range, edge lookup, repeat of an earlier row.  After the last
    chunk the first absent row is reported.
    """
    e_count = graph.edge_count
    table = np.empty((stages, e_count))
    seen = np.zeros(table.shape, dtype=bool)
    cells, cells_seen = table.reshape(-1), seen.reshape(-1)
    for lineno, (*keys, values) in chunks:
        t, i, j = keys if len(keys) == 3 else ([0] * len(values), *keys)
        stage = as_int64(t)
        edge = graph.edge_ids(as_int64(i), as_int64(j))
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
    for first, lines, _ in _line_blocks(text, spans["params"]):
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

    def outside(columns) -> np.ndarray:
        """The rows whose source or destination is no node."""
        ends = np.array([as_int64(column) for column in columns])
        return ((ends < 0) | (ends >= node_count)).any(axis=0)

    chunks = _table_chunks(_line_blocks(text, spans["graph"]), (int, int), None, graph_row, None, outside)
    src, dst = np.concatenate([np.empty((2, 0), np.int64), *(as_int64(columns) for _, columns in chunks)], axis=1)
    if not len(src):
        raise ScenarioFormatError("missing or empty [graph] section")
    # a stable sort by source keeps each node's edges in the order of their lines
    row_start = np.append(0, np.cumsum(np.bincount(src, minlength=node_count)))
    graph = TrafficGraph(row_start, dst[np.argsort(src, kind="stable")])

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

    def terminals(first: int, lines: list[str], piece: str, section: str):
        """Read and blank terminal lines up to a faulty one (a later one fails the table grammar); its fault."""
        if "terminal" not in piece.lower():
            return None
        for k in [k for k, line in enumerate(lines) if "terminal" in line.lower()]:
            tokens = lines[k].split()
            if tokens[0].lower() == "terminal":
                lines[k] = ""
                try:
                    terminal_line(first + k, tokens, section)
                except ScenarioFormatError as exc:
                    return first + k, exc
        return None

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

    def table(section: str, label: str) -> np.ndarray:
        # a stationary file fills one row, broadcast to every stage
        stages, missing = (1 if stationary else horizon), f"[{section}] missing {label} for"
        chunks = _table_chunks(_line_blocks(text, spans[section]), kinds, None, partial(table_row, label=label),
                               partial(terminals, section=section))
        filled = _fill_table(graph, stages, chunks, label, "not declared in [graph]", missing)
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

    def header(first: int, lines: list[str], piece: str) -> None:
        """Strip every line and blank the header."""
        lines[:] = map(str.strip, lines)
        if "t,i,j,value" in piece:
            lines[:] = ["" if line == "t,i,j,value" else line for line in lines]

    def bad_value(columns) -> np.ndarray:
        """The rows whose value is not finite or is negative."""
        values = np.asarray(columns[-1], dtype=np.float64)
        return ~np.isfinite(values) | (values < 0)

    chunks = _table_chunks(_line_blocks(text, [(0, len(text), 1)]), (int, int, int, float), ",", policy_row, header,
                           bad_value)
    g = scenario.graph
    probs = _fill_table(g, scenario.horizon, chunks, "policy row", "not in scenario graph", "policy file missing")
    bad_rows = bad_row_sums(g, probs)
    if bad_rows:
        raise ScenarioFormatError("policy rows of stage {} node {} sum to {:.17g}, expected 1".format(*bad_rows[0]))
    return PolicyKernel(probs)
