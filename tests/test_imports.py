"""Every module of the package uses what it imports.

No lint tool is a dependency, so this is a small stdlib-`ast` check.
`__init__.py` re-exports by design and is skipped.  A name counts as
used when it appears as a bare name anywhere in the module, including
annotations and quoted forward references such as `-> "HermTuple"`.
"""

import ast
import contextlib
import functools
import importlib
import inspect
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ncconvex
from readme_examples import EXAMPLES as README_EXAMPLES, run_example

PACKAGE = Path(ncconvex.__file__).resolve().parent
PACKAGE_FILES = sorted(PACKAGE.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


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


def _referred(tree) -> set:
    """Attribute names the module accesses (`x.name`), each counted only
    where no enclosing method has that name.  A bare name is a local or
    a module global, never a method."""
    found: set = set()

    def visit(node, inside: frozenset, in_class: bool):
        if in_class and isinstance(node, (ast.FunctionDef,
                                          ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Attribute) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside, isinstance(node, ast.ClassDef))

    visit(tree, frozenset(), False)
    return found


def _defined(stmt) -> list:
    """The names a top-level statement defines: its function or class,
    or the plain names an assignment binds.  Dunder names such as
    `__all__` are read by the interpreter and are not checked."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign)
               else [])
    return [t.id for t in targets
            if isinstance(t, ast.Name) and not t.id.startswith("__")]


def unreferenced_definitions(paths, roots) -> list:
    """Definitions in the given modules that nothing refers to and that
    `roots` (top-level names and `Class.method` names) does not list.

    A top-level function, class or assigned name is referred to when
    another top-level statement names it, as a bare name or an
    attribute; a definition naming itself does not count.  A method of
    a top-level class is referred to when it is accessed as an attribute
    (`x.name`) anywhere outside every method of that name, so a local
    variable of the same name does not keep it, and methods of one name
    that only call each other (a recursive printer over a tree of
    classes) count as unreferenced.  Dunder methods are reached through
    syntax (`+`, `==`, a call) that names no method, and are not
    checked."""
    defs, uses, referred = [], [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        referred |= _referred(tree)
        for k, stmt in enumerate(tree.body):
            defs += [(path, k, stmt, name) for name in _defined(stmt)]
            used = _used(stmt) | {node.attr for node in ast.walk(stmt)
                                  if isinstance(node, ast.Attribute)}
            uses.append((path, k, used))
    found = [f"{path.stem}.{name} (line {stmt.lineno})"
             for path, k, stmt, name in defs
             if name not in roots
             and not any(name in used for p, j, used in uses
                         if (p, j) != (path, k))]
    found += [f"{path.stem}.{cls.name}.{meth.name} (line {meth.lineno})"
              for path, _, cls, _ in defs if isinstance(cls, ast.ClassDef)
              for meth in cls.body
              if isinstance(meth, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not (meth.name.startswith("__")
                       and meth.name.endswith("__"))
              and f"{cls.name}.{meth.name}" not in roots
              and meth.name not in referred]
    return sorted(found)


def test_checker_flags_an_unreferenced_definition(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("def kept():\n    return helper()\n\n"
                 "def helper():\n    return 1\n\n"
                 "def lonely(n):\n    return lonely(n - 1) if n else 0\n\n"
                 "class Shown:\n    pass\n\n"
                 "__all__ = ['Shown']\nLIMIT = 3\nTABLE: dict = {}\n"
                 "ORPHAN = TABLE\n")
    b.write_text("from . import a\n\nVALUE = a.kept() + a.LIMIT\n")
    # module-level assignments count too: VALUE and ORPHAN are read by
    # no other statement, TABLE only by ORPHAN; __all__ is not checked
    assert unreferenced_definitions([a, b], {"Shown"}) == [
        "a.ORPHAN (line 16)", "a.lonely (line 7)", "b.VALUE (line 3)"]


def _layer_roots(tracing: Path = TRACING) -> set:
    """(module, name) of every function the tracer's LAYERS wraps, read
    with `ast`: `Tracer.install` looks each one up by name, and the
    benchmark's files are not imported here."""
    tree = ast.parse(tracing.read_text(encoding="utf-8"))
    layers = next(ast.literal_eval(stmt.value) for stmt in tree.body
                  if isinstance(stmt, ast.Assign)
                  and stmt.targets[0].id == "LAYERS")
    return {(module, qual) for _, module, quals in layers for qual in quals}


def test_checker_flags_an_unreferenced_method(tmp_path):
    a, tracing = tmp_path / "a.py", tmp_path / "tracing.py"
    a.write_text("class Leaf:\n"
                 "    def show(self):\n        return 'leaf'\n\n"
                 "    def size(self):\n        return 1\n\n"
                 "    def traced(self):\n        return 2\n\n"
                 "    def kept(self):\n        return 3\n\n"
                 "    def __add__(self, other):\n        return self\n\n"
                 "    def words(self):\n        return []\n\n"
                 "    def parse(self):\n        return 4\n\n\n"
                 "class Node(Leaf):\n"
                 "    def show(self):\n"
                 "        return self.child.show() + self.label()\n\n"
                 "    def label(self):\n        return ''\n\n"
                 "    def size(self):\n"
                 "        return 1 + self.child.size()\n\n\n"
                 "TOTAL = Node().size()\n\n\n"
                 "def count(words):\n    return len(words)\n\n\n"
                 "def parse():\n    return Leaf().parse()\n")
    tracing.write_text("LAYERS = (('a', 'pkg.a', ('Leaf.traced',)),)\n")
    roots = {"Leaf", "Node"} | {q for _, q in _layer_roots(tracing)}
    # show recurses only through its namesakes, so both count as
    # unreferenced; label is named in show, size from the module, parse
    # from a function (not a method) of its name, and the dunder is not
    # checked; words is only a bare name, a parameter, which no method is
    survivors = {"Leaf.kept": "called from outside the package"}
    roots |= {"TOTAL", "count", "parse"}
    assert unreferenced_definitions([a], roots | set(survivors)) == [
        "a.Leaf.show (line 2)", "a.Leaf.words (line 17)",
        "a.Node.show (line 25)"]
    assert unreferenced_definitions([a], roots) == [
        "a.Leaf.kept (line 11)", "a.Leaf.show (line 2)",
        "a.Leaf.words (line 17)", "a.Node.show (line 25)"]
    assert "a.Leaf.traced (line 8)" in unreferenced_definitions([a], set())


# methods no package code calls, kept on purpose
SURVIVORS = {
    "HermTuple.direct_sum": "the point-by-point reference that "
    "tests/test_axioms_golden.py checks the stacked axioms check against",
    "NcPolynomial.coefficient": "reads the polynomials test_parsing "
    "compiles, term by term",
    "NcPolynomial.involute": "the algebra's involution: test_algebra "
    "checks that it reverses the operators' products, and test_evaluate "
    "that evaluation is a *-homomorphism",
    "random_hermitian": "one Gaussian Hermitian matrix; the reference "
    "tests build tuples from it one entry at a time",
}


# definitions no package code calls that only perfbench/tracing.py's
# LAYERS keeps alive; each goes once the tracer stops wrapping it
TRACER_ONLY = {
    "slices.slice_scalar": "one slice value; the extractor runs whole "
    "stacks of slices instead",
    "tuples.sample_x_ball": "x-ball tuples one call at a time; the "
    "testers build theirs from draw_x_ball stacks",
    "tuples.haar_unitary": "one Haar unitary; also the point-by-point "
    "reference that tests/test_axioms_golden.py checks the stacked "
    "axioms check against",
    "tuples.tuple_norm": "the norm of one tuple; the package takes "
    "stack_norms of whole stacks",
    "tuples.HermTuple.scale": "a tuple times a real number; "
    "random_base_tuple rescales whole stacks instead",
}


def test_package_has_no_unreferenced_definitions():
    # the check flags exactly the survivors, so one that gains a caller
    # must leave the dict
    roots = set(ncconvex.__all__) | {qual for _, qual in _layer_roots()}
    found = unreferenced_definitions(PACKAGE_FILES, roots)
    assert {f.split(" ")[0].split(".", 1)[1] for f in found} == set(SURVIVORS)


def test_tracer_only_definitions_are_named():
    # without the tracer's roots the check flags exactly TRACER_ONLY's
    # functions, so no new definition lives on the tracer alone
    # unnoticed; its methods are the runtime gate's below
    roots = set(ncconvex.__all__) | set(SURVIVORS)
    found = unreferenced_definitions(PACKAGE_FILES, roots)
    assert {f.split(" ")[0] for f in found} == {
        name for name in TRACER_ONLY if name.count(".") == 1}
    assert {name.split(".", 1)[1] for name in TRACER_ONLY} <= {
        qual for _, qual in _layer_roots()}


# methods that no README run calls: library users reach them, or
# command lines the README does not show
LIBRARY_ONLY = {
    **dict.fromkeys(
        [f"NcPolynomial.{m}" for m in (
            "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
            "__mul__", "__rmul__", "__pow__", "_operate", "scale",
            "__eq__", "__hash__")],
        "polynomial arithmetic and equality for library users; an "
        "expression compiles straight to its trie"),
    **dict.fromkeys(
        [f"{cls}.__repr__" for cls in (
            "CallableNcFunction", "HermTuple", "KrausLiftFunction",
            "NcPolynomial", "NcPowerSeries", "PolynomialNcFunction",
            "ScalarFn", "SeriesNcFunction")] + ["NcPolynomial.__str__"],
        "how a value prints in a session or a failing test"),
    **dict.fromkeys(
        ["HermTuple.__getitem__", "HermTuple.__len__",
         "NcPowerSeries.__iter__", "SliceCoefficients.__getitem__"],
        "container access for library users; the package reads the "
        "arrays directly"),
    **dict.fromkeys(
        ["CallableNcFunction.__init__", "CallableNcFunction.__call__",
         "NcFunction.__call__", "NcFunction.at_points"],
        "the black-box evaluator contract and its per-point defaults; "
        "every function the command line builds overrides them"),
    **dict.fromkeys(
        ["NcPolynomial.to_json_dict", "NcPolynomial.from_json_dict",
         "NcPowerSeries.to_json_dict", "NcPowerSeries.from_json_dict",
         "SeriesNcFunction.__init__", "SeriesNcFunction.__call__",
         "SeriesNcFunction.x_parts"],
        "the --series-file path, which no README command line takes"),
    **dict.fromkeys(
        ["Signature.check_letter", "Signature.check_word",
         "ParseError.__init__"],
        "refusals of bad input: a term map handed to NcPolynomial, an "
        "expression that does not parse"),
    "HermTuple.conjugate": "the point-by-point reference that "
    "tests/test_axioms_golden.py checks the stacked axioms conjugates "
    "against",
}


def package_methods():
    """(class, name, attribute) of every function defined in a package
    class body, dunders, properties and class and static methods
    included.  The methods that dataclass and NamedTuple generate are
    compiled from strings or live in the standard library, not in the
    package's files, and are left out."""
    for path in PACKAGE_FILES:
        if path.stem in ("__init__", "__main__"):   # no classes; runs main
            continue
        mod = importlib.import_module(f"ncconvex.{path.stem}")
        for cls in vars(mod).values():
            if not (isinstance(cls, type) and cls.__module__ == mod.__name__):
                continue
            for name, attr in vars(cls).items():
                fn = (attr.fget if isinstance(attr, property)
                      else getattr(attr, "__func__", attr))
                if (inspect.isfunction(fn) and Path(
                        fn.__code__.co_filename).resolve().parent == PACKAGE):
                    yield cls, name, attr


def _probed(attr, key: str, called: set):
    """attr with its functions wrapped to add key to called when run."""
    def probe(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            called.add(key)
            return fn(*args, **kwargs)
        return run

    if isinstance(attr, property):                  # none has a setter
        return property(probe(attr.fget), doc=attr.__doc__)
    if isinstance(attr, (staticmethod, classmethod)):
        return type(attr)(probe(attr.__func__))
    return probe(attr)


def test_every_method_a_readme_run_skips_is_named(tmp_path, monkeypatch):
    # the static check above cannot see a method whose name another
    # class shares (TrieAlgebra.scale, complex.conjugate) or a dunder;
    # this one runs the README's library quick start and command lines
    # with every package method probed, and the methods they never call
    # are exactly the named ones
    called, probed = set(), set()
    for cls, name, attr in list(package_methods()):
        key = f"{cls.__name__}.{name}"
        probed.add(key)
        monkeypatch.setattr(cls, name, _probed(attr, key, called))
    assert "Signature.check_letter" in probed
    assert {"Report.__init__", "Signature.__new__"}.isdisjoint(probed)
    monkeypatch.chdir(tmp_path)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    with contextlib.redirect_stdout(io.StringIO()):
        exec(block, {})
        for argv in README_EXAMPLES:
            run_example(argv)
    named = ({name for name in SURVIVORS if "." in name}
             | {name.split(".", 1)[1] for name in TRACER_ONLY
                if name.count(".") == 2}
             | set(LIBRARY_ONLY))
    assert probed - called == named


# the Hermiticity checks on arrays that enter the package, and the
# functions that may run them: a stack the package builds itself is
# Hermitian exactly, so checking it again is waste
INGESTS = ("hermitian_stack", "_ingest_hermitian")
INGEST_SITES = ["onevar.kraus_eval", "onevar.matrix_apply",
                "tuples.HermTuple.__init__", "tuples.ca_lift"]


def ingest_sites(paths) -> list:
    """`module.scope` of every place the modules name an ingest other
    than its own definition, one entry per mention, sorted; the scope
    is the chain of enclosing classes and functions."""
    found = []

    def visit(node, path, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name in INGESTS:
            found.append(".".join((path.stem,) + scope))
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8")), path, ())
    return sorted(found)


def test_checker_finds_every_ingest_site(tmp_path):
    a = tmp_path / "a.py"
    a.write_text("from .tuples import hermitian_stack\n"
                 "from . import onevar\n\n\n"
                 "def hermitian_stack_of(M):\n    return M\n\n\n"
                 "class T:\n    def __init__(self, M):\n"
                 "        self.M = hermitian_stack(M)\n\n\n"
                 "def f(Ms):\n"
                 "    def g(M):\n"
                 "        return onevar._ingest_hermitian(M)\n"
                 "    return list(map(hermitian_stack, Ms)), g\n")
    # imports and definitions are no mentions; a bare reference is one
    assert ingest_sites([a]) == ["a.T.__init__", "a.f", "a.f.g"]


def test_only_the_boundary_ingests():
    # HermTuple's constructor, C_A's lift (its product is checked) and
    # the one-variable calculus on its caller's matrices
    assert ingest_sites(PACKAGE_FILES) == INGEST_SITES


def test_every_traced_layer_resolves():
    # the way Tracer.install resolves them: a module attribute, a method
    # in the class __dict__, or the Preset.make field of every preset
    from ncconvex.presets import PRESETS
    for module, qual in sorted(_layer_roots()):
        mod = importlib.import_module(module)
        if qual == "Preset.make":
            assert all(callable(p.make) for p in PRESETS.values())
        elif "." in qual:
            cls, meth = qual.split(".")
            assert meth in vars(getattr(mod, cls)), qual
        else:
            assert callable(getattr(mod, qual)), qual


def test_every_public_name_is_in_the_readme():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert len(ncconvex.__all__) <= 45
    assert [name for name in ncconvex.__all__
            if not re.search(rf"\b{name}\b", readme)] == []
    # and the list under "Public API" is exactly __all__
    lines = readme.split("### Public API\n", 1)[1].splitlines()
    start = next(k for k, line in enumerate(lines) if line.startswith("- "))
    end = lines.index("", start)
    listed = re.findall(r"`(\w+)`", "\n".join(lines[start:end]))
    assert sorted(listed) == sorted(ncconvex.__all__)


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


def test_a_failing_property_fails_without_aborting_the_run(tmp_path):
    # hypothesis imports its patch writer (libcst) on the first failing
    # example; a warning raised there as an error ended the whole run
    # with INTERNALERROR, so no later test ran
    pytest.importorskip("hypothesis.extra._patching")
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n    assert n < 5\n\n\n"
        "def test_runs_after():\n    pass\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_property.py"],
        capture_output=True, text=True, cwd=tmp_path)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("1 failed, 1 passed")
