"""Static checks on the package source."""

import ast
from pathlib import Path

import pytest

import rasper

MODULES = sorted(Path(rasper.__file__).parent.glob("*.py"))


def unused_imports(source, exported=()):
    """Names bound by the module-level imports of ``source`` that nothing in
    the module reads; a name listed in ``exported`` counts as read."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in read and name not in exported)


def exported_names(source):
    """Strings listed in a module-level ``__all__``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_checker_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os, sys\nimport scipy.linalg\n"
              "from x import a, b as c\n"
              "def f(v: c) -> None:\n    return scipy.linalg.solve(sys, v)\n")
    assert unused_imports(source) == ["a", "os"]
    assert unused_imports(source, exported={"a", "os"}) == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_level_import_is_used(path):
    source = path.read_text(encoding="utf-8")
    exported = exported_names(source) if path.name == "__init__.py" else set()
    assert unused_imports(source, exported) == []
