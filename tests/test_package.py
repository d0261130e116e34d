"""Static checks on the package source."""

import ast
import os
import subprocess
import sys
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


def unreferenced_definitions(sources):
    """Module-level functions and classes of ``sources`` (a list of module
    sources) that no code of theirs reads, as a name or an attribute,
    outside the definition itself."""
    defined, read = set(), set()
    for source in sources:
        for node in ast.parse(source).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
                names.discard(node.name)
            read |= names
    return defined - read


# Kept only because the benchmark (perfbench/) wraps or imports them. They
# wait for its upkeep (ROADMAP item 1); every other name has a caller here.
BENCHMARK_ONLY = {"degrees_of_freedom", "local_minimizer", "mm_step", "objective_gradient",
                  "penalized_objective"}


def test_checker_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import os, sys\nimport scipy.linalg\n"
              "from x import a, b as c\n"
              "def f(v: c) -> None:\n    return scipy.linalg.solve(sys, v)\n")
    assert unused_imports(source) == ["a", "os"]
    assert unused_imports(source, exported={"a", "os"}) == []


def test_checker_sees_unreferenced_definitions():
    sources = ["def f(n):\n    return f(n - 1)\n\nclass A:\n    pass\n\n"
               "def g():\n    return h\n",
               "import m\n\ndef h():\n    return m.A()\n"]
    assert unreferenced_definitions(sources) == {"f", "g"}


def test_only_benchmark_entry_points_lack_a_package_caller():
    # A test-only helper belongs under tests/, not in the package.
    sources = [p.read_text(encoding="utf-8") for p in MODULES if p.name != "__init__.py"]
    assert unreferenced_definitions(sources) == BENCHMARK_ONLY


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_level_import_is_used(path):
    source = path.read_text(encoding="utf-8")
    exported = exported_names(source) if path.name == "__init__.py" else set()
    assert unused_imports(source, exported) == []


def test_runtime_imports_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone.
    code = ("import sys\nimport rasper, rasper.cli, rasper.simbench\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(rasper.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
