"""Every name a ``lagtp`` module imports is used in that module and is
imported at module level, and every function or method it defines, private
ones included, has a caller outside the tests.

Stdlib ``ast`` stand-ins for a linter's unused-import and import-position
rules and a dead-code finder: deleting code tends to leave imports behind,
an import inside a function hides a module's dependencies, and public API
that only tests call, or a private helper a refactor left behind, is code
to delete.  ``__init__.py`` only re-exports, so it is exempt from the
unused-import and dead-code checks.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lagtp"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# where a function name counts as called: the library, the benchmark harness
# (its own tests excluded) and the demos
CALLERS = MODULES + sorted(p for p in (ROOT / "perfbench").rglob("*.py")
                           if "tests" not in p.relative_to(ROOT).parts) \
    + sorted((ROOT / "demos").glob("*.py"))


def _annotation_names(node) -> set:
    """Names in an annotation, string annotations ("Poly") included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.arg) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_sees_unused_and_used_imports():
    source = ("from fractions import Fraction\nfrom typing import Union\nimport os.path\n"
              "from .polyring import Poly as P, _p\n"
              "def f(x: 'Union[int, None]') -> P:\n    return _p(x)\n")
    assert unused_imports(source) == [(1, "Fraction"), (3, "os")]


def local_imports(source: str) -> list:
    """(line, function) of every import inside a function body."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [(sub.lineno, node.name) for sub in ast.walk(node)
                      if isinstance(sub, (ast.Import, ast.ImportFrom))]
    return sorted(set(found))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert local_imports(path.read_text()) == []


def test_the_guard_sees_function_local_imports():
    source = ("import math\ndef f():\n    from .series import Series\n"
              "    def g():\n        import os\n    return Series\n")
    assert local_imports(source) == [(3, "f"), (5, "f"), (5, "g")]


def defined_names(source: str) -> tuple:
    """(names of the module-level functions, names of the class methods),
    private ones included; dunders are left out, since the language calls
    them and no source names them."""
    tree = ast.parse(source)
    methods = [sub for node in tree.body if isinstance(node, ast.ClassDef) for sub in node.body]

    def named(defs):
        return {node.name for node in defs
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (node.name.startswith("__") and node.name.endswith("__"))}

    return named(tree.body), named(methods)


def referenced_names(source: str) -> tuple:
    """(bare names, attribute names) the source refers to.  Bare: names and
    imported names.  Attribute: ``x.name`` accesses and the parts of
    dotted-name strings (a tracer's "srpaths.sr_poly").  A def's own name
    is not a reference."""
    bare, attrs = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            bare |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                attrs |= set(parts)
    return bare, attrs


def uncalled(library_sources, caller_sources) -> set:
    """Functions no caller names and methods no caller reaches through an
    attribute or a dotted string (a bare name such as the builtin ``map``
    does not call a method ``map``)."""
    functions, methods, bare, attrs = set(), set(), set(), set()
    for source in library_sources:
        f, m = defined_names(source)
        functions |= f
        methods |= m
    for source in caller_sources:
        b, a = referenced_names(source)
        bare |= b
        attrs |= a
    return (functions - bare - attrs) | (methods - attrs)


def test_every_function_and_method_has_a_caller():
    assert sorted(uncalled([p.read_text() for p in MODULES],
                           [p.read_text() for p in CALLERS])) == []


def test_the_guard_sees_uncalled_and_called_functions():
    library = ("def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
               "def _helper(): pass\ndef __getattr__(name): pass\n"
               "class C:\n    def method(self): pass\n    def traced(self): pass\n"
               "    def dead(self): pass\n    def map(self): pass\n"
               "    def _step(self): pass\n    def _stale(self): pass\n"
               "    def __len__(self): return 0\n")
    caller = ("from m import used\nC().method()\nTRACED = ('m.C.traced',)\n"
              "print(list(map(str, [])))\n_helper()\nC()._step()\n")
    assert uncalled([library], [caller]) == {"unused", "dead", "map", "_private", "_stale"}
