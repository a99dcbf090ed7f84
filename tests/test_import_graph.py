"""Structure of the package's own imports: acyclic, and all at module level."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def test_scipy_special_loads_with_the_toll_kernel_not_with_the_cli():
    """Importing scipy.special is about half of the start-up; commands that skip the toll kernel skip it."""
    script = (
        "import sys\n"
        "import mftroute.cli\n"
        "print('scipy.special' in sys.modules)\n"
        "from mftroute.finite_population import binomial_expected_log_share\n"
        "binomial_expected_log_share(3, 0.5)\n"
        "print('scipy.special' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "True"]
