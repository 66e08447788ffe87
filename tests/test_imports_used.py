"""Every module-level import of the package is used or re-exported, every
private module-level function or class is referenced somewhere in it, and
numpy is its only third-party runtime import."""

import ast
import subprocess
import sys
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


def test_package_does_not_load_scipy():
    # A fresh interpreter, so that scipy imported by the test suite's own
    # helpers cannot mask an import made by the package.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); "
        "import rosen_bkerr, rosen_bkerr.cli; "
        "print(rosen_bkerr.__file__); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(PACKAGE.parent)],
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()
    assert Path(out[0]).parent == PACKAGE
    assert out[1] == "[]", f"importing rosen_bkerr loaded scipy: {out[1]}"
