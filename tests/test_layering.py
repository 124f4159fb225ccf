"""The package's import graph: the problem's inputs sit below both solvers.

scenario owns the instance, the primal-dual settings, their rules and the
file readers, so neither solver is imported to read a scenario file, and
the ZF math in channel needs no other module.
"""
import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mupower"

# module -> the package modules it imports; cli and __init__ sit on top
LAYERS = {
    "utility": set(),
    "channel": set(),
    "scenario": {"channel"},
    "solver": {"scenario", "utility"},
    "primal_dual": {"scenario", "solver"},
}


def _package_imports(path):
    """The mupower modules a source file imports; the package itself counts as __init__."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            # from .x import y, or from . import x
            found.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "mupower":
            found.add((node.module.split(".") + ["__init__"])[1])
        elif isinstance(node, ast.Import):
            names = [a.name.split(".") for a in node.names]
            found.update((parts + ["__init__"])[1] for parts in names if parts[0] == "mupower")
    return found


def test_every_module_has_a_layer():
    assert {path.stem for path in SRC.glob("*.py")} == set(LAYERS) | {"cli", "__init__"}


def test_import_graph():
    graph = {name: _package_imports(SRC / f"{name}.py") for name in LAYERS}
    assert graph == LAYERS


def test_moved_names_left_no_alias():
    for module, name in (("channel", "_naming"), ("channel", "load_channel_csv"), ("primal_dual", "integer"),
                         ("primal_dual", "solve_centralized"), ("solver", "BudgetCase"), ("primal_dual", "utility")):
        assert not hasattr(importlib.import_module(f"mupower.{module}"), name), f"mupower.{module}.{name}"
