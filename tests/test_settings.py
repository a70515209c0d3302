"""Guards on the package's shape: each mapping setting is a module constant,
not a per-call parameter; mapping runs without the simulator; and every
public name has a caller outside the tests."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

from thermoslam import core, monitor, pose_graph, scan_frontend, thermal_map
from thermoslam.cli_io import formats, pipeline

MAPPING_MODULES = [scan_frontend, pose_graph, monitor, thermal_map, formats, pipeline]
REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "thermoslam"


@pytest.mark.parametrize("module", MAPPING_MODULES)
def test_public_functions_take_no_numeric_defaults(module):
    # A bool default, such as a data mask, is not a setting; bool is an int
    # subclass, so it is excluded explicitly.
    offenders = [
        f"{name}({parameter.name}={parameter.default!r})"
        for name, function in inspect.getmembers(module, inspect.isfunction)
        if function.__module__ == module.__name__ and not name.startswith("_")
        for parameter in inspect.signature(function).parameters.values()
        if isinstance(parameter.default, (int, float)) and not isinstance(parameter.default, bool)
    ]
    assert offenders == [], f"{module.__name__}: make these module constants: {offenders}"


@pytest.mark.parametrize("module", [core, *MAPPING_MODULES])
def test_mapping_modules_do_not_import_the_simulator(module):
    # A real session is loaded and mapped without thermoslam.sim: `from .sim`,
    # `from ..sim`, `from . import sim` and `import thermoslam.sim` all count.
    offenders = []
    for node in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        else:
            continue
        if any("sim" in target.split(".") for target in targets):
            offenders.append(f"line {node.lineno}")
    assert offenders == [], f"{module.__name__} imports the simulator at {offenders}"


def _public_definitions(tree: ast.Module):
    """(qualified name, bare name) of each public module-level function or
    class and each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def _referenced_names(tree: ast.Module, is_init: bool) -> set[str]:
    """Every Name, Attribute and import-alias name in a module; a package
    __init__'s re-exports are not references."""
    names = set()
    for node in ast.walk(tree):
        if is_init and isinstance(node, ast.ImportFrom):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    # A name matches by its bare spelling, so a method is referenced by any
    # attribute of the same name: the check is loose, but it never misses a
    # name that nothing spells.
    sources = sorted(PACKAGE.rglob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    referenced = set().union(*(_referenced_names(tree, path.name == "__init__.py") for path, tree in trees.items()))
    unreached = [
        f"{path.relative_to(PACKAGE)}: {qualified}"
        for path, tree in trees.items()
        if path.is_relative_to(PACKAGE)
        for qualified, name in _public_definitions(tree)
        if name not in referenced
    ]
    assert unreached == [], f"public names only tests reach; delete them or make them private: {unreached}"
