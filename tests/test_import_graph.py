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


def test_no_private_name_leaves_the_data_model_or_the_text_module():
    """Every other module reaches scenario and textio through their public names only."""
    modules = _package_modules()
    private = [
        f"{name}.py:{node.lineno} imports {alias.name} from {target}"
        for name, tree in modules.items()
        for node, target in _relative_imports(tree, set(modules))
        if target in ("scenario", "textio")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert private == []


def test_toll_commands_run_without_scipy(tmp_path):
    """Every command that reaches the toll kernel runs in a process where importing scipy fails."""
    script = """\
import sys

sys.modules["scipy"] = None  # any import of scipy or a submodule now raises ImportError
from mftroute.cli import main

out = sys.argv[1]
game = ["--costs", "2,1,3", "--ref", "0.2,0.5,0.3", "--alpha", "1"]
runs = [
    ["gridworld", "--width", "4", "--height", "3", "--origin", "0", "--dest", "11", "--horizon", "6",
     "--alpha", "1", "--out", f"{out}/grid.scn"],
    ["mfe", "--scenario", f"{out}/grid.scn", "--out-policy", f"{out}/policy.csv"],
    ["nash-gap", "--scenario", f"{out}/grid.scn", "--agents", "10,1000", "--out", f"{out}/gaps.csv"],
    ["fp", *game, "--agents", "1000", "--days", "20", "--out", f"{out}/fp.csv"],
    ["symmetric-ne", *game, "--agents", "20000", "--out", f"{out}/ne.csv"],
    ["simulate", "--scenario", f"{out}/grid.scn", "--policy", f"{out}/policy.csv", "--agents", "50",
     "--out", f"{out}/simulate.csv"],
]
for argv in runs:
    status = main(argv)
    if status != 0:
        sys.exit(f"{argv[0]} exited {status}")
"""
    path = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""


def test_importing_the_cli_loads_no_hashlib():
    """hashlib maps OpenSSL's libcrypto; only file_digest imports it, when it runs."""
    script = "import sys\nimport mftroute.cli\nprint(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
