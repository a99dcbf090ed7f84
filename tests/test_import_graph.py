"""Structure of the package's own imports: acyclic, and all at module level."""

from __future__ import annotations

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import mftroute

PACKAGE_DIR = Path(mftroute.__file__).parent


def _relative_imports(tree: ast.Module, modules: set[str]):
    """Yield (import node, target module) for every relative import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is not None:
                yield node, node.module.split(".")[0]
            else:  # ``from . import name`` loads a submodule or the package itself
                for alias in node.names:
                    yield node, alias.name if alias.name in modules else "__init__"


def _package_modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE_DIR.glob("*.py"))}


def test_relative_import_graph_is_acyclic():
    modules = _package_modules()
    graph = {
        name: {target for _, target in _relative_imports(tree, set(modules))}
        for name, tree in modules.items()
    }
    assert set().union(*graph.values()) <= set(modules)
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        # graphlib reads the mapping as node -> predecessors, so its cycle runs against the imports
        pytest.fail("import cycle: " + " -> ".join(reversed(exc.args[1])))


def test_package_imports_sit_at_module_level():
    modules = _package_modules()
    local = [
        f"{name}.py:{node.lineno}"
        for name, tree in modules.items()
        for node, _ in _relative_imports(tree, set(modules))
        if node not in tree.body
    ]
    assert local == []
