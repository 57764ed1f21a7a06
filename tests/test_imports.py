"""Every module of the package uses what it imports.

No lint tool is a dependency, so this is a small stdlib-`ast` check.
`__init__.py` re-exports by design and is skipped.  A name counts as
used when it appears as a bare name anywhere in the module, including
annotations and quoted forward references such as `-> "HermTuple"`.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import ncconvex

PACKAGE = Path(ncconvex.__file__).resolve().parent


def _imported(tree) -> dict:
    """Bound name -> line for every import outside `__future__`."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _used(tree) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used(ast.parse(ann.value, mode="eval"))
    return used


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used(tree)
    return sorted(f"{path.stem}.{name} (line {line})"
                  for name, line in _imported(tree).items()
                  if name not in used)


def test_checker_flags_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from __future__ import annotations\n"
                   "import math\nimport numpy as np\n"
                   "from .errors import NcError, ShapeError\n\n"
                   "def f(x: 'ShapeError') -> float:\n"
                   "    return np.sqrt(x) or 'math'\n")
    assert unused_imports(mod) == ["mod.NcError (line 4)",
                                   "mod.math (line 2)"]


def test_package_modules_have_no_unused_imports():
    found = [u for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"
             for u in unused_imports(path)]
    assert found == []


def unreferenced_definitions(paths, exported) -> list:
    """Top-level functions and classes that no other top-level statement
    of the given modules names (as a bare name or an attribute) and that
    `exported` does not list.  A definition naming itself does not count."""
    defs, uses = [], []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for k, stmt in enumerate(tree.body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs.append((path, k, stmt))
            used = _used(stmt) | {node.attr for node in ast.walk(stmt)
                                  if isinstance(node, ast.Attribute)}
            uses.append((path, k, used))
    return sorted(f"{path.stem}.{stmt.name} (line {stmt.lineno})"
                  for path, k, stmt in defs
                  if stmt.name not in exported
                  and not any(stmt.name in used for p, j, used in uses
                              if (p, j) != (path, k)))


def test_checker_flags_an_unreferenced_definition(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("def kept():\n    return helper()\n\n"
                 "def helper():\n    return 1\n\n"
                 "def lonely(n):\n    return lonely(n - 1) if n else 0\n\n"
                 "class Shown:\n    pass\n")
    b.write_text("from . import a\n\nVALUE = a.kept()\n")
    assert unreferenced_definitions([a, b], {"Shown"}) == ["a.lonely (line 7)"]


def test_package_has_no_unreferenced_definitions():
    paths = sorted(PACKAGE.glob("*.py"))
    assert unreferenced_definitions(paths, set(ncconvex.__all__)) == []


def test_package_import_loads_no_more_of_numpy():
    # numpy loads numpy.random on first use; the package defers it to
    # its first generator, so every process start stays as cheap
    code = ("import sys, numpy; before = set(sys.modules); import ncconvex; "
            "print(sorted(m for m in set(sys.modules) - before "
            "if m.startswith('numpy.random')))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out.strip() == "[]"
