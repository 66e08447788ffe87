"""Every module-level import of the package is used or re-exported, and every
private module-level function or class is referenced somewhere in it."""

import ast
from pathlib import Path

import pytest

import rosen_bkerr

PACKAGE = Path(rosen_bkerr.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every module-level import (not __future__)."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {
        name: line
        for name, line in _imported(tree).items()
        if name not in used and name not in _exported(tree)
    }
    assert not unused, f"{path.name}: unused imports {unused}"


def _referenced(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_private_definitions_are_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    referenced = set().union(*map(_referenced, trees.values()))
    orphans = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert not orphans, f"private definitions with no reference in the package: {orphans}"
