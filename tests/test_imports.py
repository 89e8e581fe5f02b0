"""Every name a ``lagtp`` module imports is used in that module, is
imported at module level and from the module that defines it, and every
function or method it defines, private ones included, has a caller outside
the tests.  No check in ``checks.py`` compares entries in a hand-written
loop, and no module raises ``AssertionError`` itself.

Stdlib ``ast`` stand-ins for a linter's unused-import and import-position
rules and a dead-code finder: deleting code tends to leave imports behind,
an import inside a function hides a module's dependencies, a name imported
through a module that only imports it hides where it lives, and public API
that only tests call, or a private helper a refactor left behind, is code
to delete.  ``__init__.py`` only re-exports, so it is exempt from the
unused-import and dead-code checks.  A ``return False`` inside a loop is
the mark of a hand-written comparison, which reports no witness; the
checks compare through ``matrices.first_difference`` instead.  A bare
``AssertionError`` (or an ``assert``) carries no witness either, and
``verify`` reports it as an error: a builder whose cross-check fails raises
``RouteMismatchError`` with the ``Mismatch``, which ``run_suite`` reports as
a failed check.
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


def top_level_names(source: str) -> set:
    """Names a module defines at its top level: functions, classes and
    assignment targets, not imports."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {sub.id for target in targets for sub in ast.walk(target)
                      if isinstance(sub, ast.Name)}
    return names


def borrowed_imports(source: str, package: dict) -> list:
    """(line, name) of every ``from .X import name`` whose module X, looked
    up in ``package`` (module name -> source), does not define ``name`` at
    its top level."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            defined = top_level_names(package.get(node.module, ""))
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name not in defined]
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_names_are_imported_from_their_home(path):
    package = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert borrowed_imports(path.read_text(), package) == []


def test_the_guard_sees_borrowed_imports():
    package = {"matrices": "from .polyring import Poly\nclass Mismatch:\n    pass\n"
                           "LIMIT: int = 3\nA, (B, C) = 1, (2, 3)\ndef det(m):\n    return m\n",
               "laguerre": "from .matrices import Mismatch, det\nPRODMAT_KINDS = ()\n"}
    source = ("from __future__ import annotations\nfrom . import matrices\n"
              "from .matrices import Mismatch, Poly, LIMIT, C, det\n"
              "from .laguerre import PRODMAT_KINDS, Mismatch as M\nfrom .series import Series\n"
              "from lagtp.laguerre import det\n")
    assert borrowed_imports(source, package) == [(3, "Poly"), (4, "Mismatch"), (5, "Series")]


def attribute_defaults(source: str) -> list:
    """(line, function) of every parameter default that is an attribute,
    such as ``dot=Poly.dot``: the default is read once, when the def runs
    at import, so a later wrapper or patch of ``Poly.dot`` (a tracer's,
    say) never reaches the function."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found += [(d.lineno, getattr(node, "name", "<lambda>"))
                      for d in node.args.defaults + node.args.kw_defaults
                      if isinstance(d, ast.Attribute)]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_attribute_defaults(path):
    assert attribute_defaults(path.read_text()) == []


def test_the_guard_sees_attribute_defaults():
    source = ("import operator\nfrom .polyring import Poly\n"
              "def f(grid, dot=Poly.dot, order=2, *, neg=operator.neg, name=None):\n"
              "    return (lambda v, test=Poly.is_zero: test(v))(dot(grid))\n"
              "def g(grid, dot, seed=1, names=(), kind='x'):\n    return Poly.dot(grid)\n")
    assert attribute_defaults(source) == [(3, "f"), (3, "f"), (4, "<lambda>")]


def loop_false_returns(source: str) -> list:
    """Lines of every ``return False`` inside the body of a ``for`` or
    ``while`` loop (its ``else`` block excluded)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            found |= {sub.lineno for stmt in node.body for sub in ast.walk(stmt)
                      if isinstance(sub, ast.Return) and isinstance(sub.value, ast.Constant)
                      and sub.value.value is False}
    return sorted(found)


def test_no_false_returns_in_check_loops():
    assert loop_false_returns((SRC / "checks.py").read_text()) == []


def test_the_guard_sees_false_returns_in_loops():
    source = ("def f(rows):\n    for row in rows:\n        if row:\n            return False\n"
              "    else:\n        return False\n    while rows:\n        return False\n"
              "    for row in rows:\n        return True\n    return False\n"
              "def g(rows):\n    return all(r == 0 for r in rows)\n")
    assert loop_false_returns(source) == [4, 8]


def raised_assertions(source: str) -> list:
    """Lines of every ``raise AssertionError`` (called or not) and every
    ``assert`` statement."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert) or (isinstance(node, ast.Raise) and any(
                      isinstance(sub, ast.Name) and sub.id == "AssertionError"
                      for sub in ast.walk(node.exc or ast.Pass()))))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_bare_assertion_errors(path):
    assert raised_assertions(path.read_text()) == []


def test_the_guard_sees_raised_assertion_errors():
    source = ("class RouteMismatchError(AssertionError):\n    pass\n"
              "def f(m):\n    if not m:\n        raise AssertionError(f'at {m}')\n"
              "    assert m, 'bare'\n    if m is None:\n        raise AssertionError\n"
              "    if m == 0:\n        raise RouteMismatchError(m)\n"
              "    try:\n        f(m)\n    except AssertionError:\n        raise\n"
              "    raise ValueError('m')\n")
    assert raised_assertions(source) == [5, 6, 8]


# the names that read the bit layout of a monomial key
KEY_LAYOUT = frozenset({"FIELD_BITS", "MAX_EXPONENT", "_FIELD_MASK", "_offsets", "_names",
                        "_guard", "_degree", "_finish", "_fields", "_vectors"})


def key_layout_reads(source: str) -> list:
    """(line, name) of every ``KEY_LAYOUT`` name the source imports from
    ``polyring`` or reads as ``polyring.<name>``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "polyring":
            found |= {(node.lineno, alias.name) for alias in node.names
                      if alias.name in KEY_LAYOUT}
        elif isinstance(node, ast.Attribute) and node.attr in KEY_LAYOUT:
            owner = node.value
            if getattr(owner, "id", None) == "polyring" or getattr(owner, "attr", None) == "polyring":
                found.add((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "polyring.py"],
                         ids=lambda p: p.name)
def test_only_polyring_reads_keys(path):
    assert key_layout_reads(path.read_text()) == []


def test_the_guard_sees_key_layout_reads():
    source = ("from .polyring import Poly, FIELD_BITS as W, _local_keys\n"
              "from lagtp.polyring import _finish\nfrom . import polyring\nimport lagtp\n"
              "def f(p):\n    return p.num, polyring._offsets, lagtp.polyring._guard\n"
              "def g(p):\n    return polyring._vars_of([p]), p._names, _degree(p)\n")
    assert key_layout_reads(source) == [(1, "FIELD_BITS"), (2, "_finish"), (6, "_guard"),
                                        (6, "_offsets")]


# the only functions of ``polyring`` that extract a key's fields
FIELD_READERS = frozenset({"_fields", "_vectors"})


def field_extractions(source: str) -> list:
    """(line, owner) of every read of ``_FIELD_MASK`` outside
    ``FIELD_READERS``: masking a key with it is how a field is extracted.
    The owner is the outermost function or method around the read, or
    "<module>"; a nested def counts as part of its owner."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if owner is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Name) and child.id == "_FIELD_MASK"
                    and isinstance(child.ctx, ast.Load) and owner not in FIELD_READERS):
                found.append((child.lineno, owner or "<module>"))
            visit(child, owner)

    visit(ast.parse(source), None)
    return sorted(found)


def test_only_two_readers_extract_key_fields():
    assert field_extractions((SRC / "polyring.py").read_text()) == []


def test_the_guard_sees_a_third_field_reader():
    source = ("FIELD_BITS = 16\n_FIELD_MASK = (1 << FIELD_BITS) - 1\n_TOP = _FIELD_MASK << 4\n"
              "def _fields(key):\n    return [(0, key & _FIELD_MASK)]\n"
              "def _vectors(keys, off):\n    return [k >> off & _FIELD_MASK for k in keys]\n"
              "def _degree(key):\n    d = 0\n    while key:\n        d += key & _FIELD_MASK\n"
              "        key >>= FIELD_BITS\n    return d\n"
              "class Poly:\n    def coeff(self, off):\n        mask = _FIELD_MASK\n"
              "        return [k >> off & mask for k in self.num]\n"
              "    def width(self):\n        return FIELD_BITS\n"
              "def outer(key):\n    def _fields(k):\n        return k & _FIELD_MASK\n"
              "    return _fields(key)\n")
    assert field_extractions(source) == [(3, "<module>"), (11, "_degree"), (16, "coeff"),
                                         (22, "outer")]


def _is_def(node) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__")))


def _is_static(node) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)


def defined_names(source: str) -> tuple:
    """(names of the module-level functions, names of the other class
    methods, (class, name) of the static methods), private ones included;
    dunders are left out, since the language calls them and no source
    names them."""
    tree = ast.parse(source)
    functions = {node.name for node in tree.body if _is_def(node)}
    methods, statics = set(), set()
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in filter(_is_def, cls.body):
                if _is_static(node):
                    statics.add((cls.name, node.name))
                else:
                    methods.add(node.name)
    return functions, methods, statics


def referenced_names(source: str) -> tuple:
    """(bare names, attribute names, (owner, attribute) pairs) the source
    refers to.  Bare: names and imported names.  Attribute: ``x.name``
    accesses and the parts of dotted-name strings (a tracer's
    "srpaths.sr_poly").  Pairs: ``Owner.name`` and ``m.Owner.name``
    accesses and adjacent parts of dotted-name strings.  A def's own name
    is not a reference."""
    bare, attrs, pairs = set(), set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            bare.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            owner = node.value
            if isinstance(owner, (ast.Name, ast.Attribute)):
                pairs.add((owner.id if isinstance(owner, ast.Name) else owner.attr, node.attr))
        elif isinstance(node, ast.ImportFrom):
            bare |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                attrs |= set(parts)
                pairs |= set(zip(parts, parts[1:]))
    return bare, attrs, pairs


def uncalled(library_sources, caller_sources) -> set:
    """Functions no caller names, methods no caller reaches through an
    attribute or a dotted string (a bare name such as the builtin ``map``
    does not call a method ``map``), and, as "Class.name", static methods
    no caller reaches through their own class (``Poly.zero`` does not call
    ``Series.zero``)."""
    functions, methods, statics, bare, attrs, pairs = (set() for _ in range(6))
    for source in library_sources:
        f, m, s = defined_names(source)
        functions |= f
        methods |= m
        statics |= s
    for source in caller_sources:
        b, a, p = referenced_names(source)
        bare |= b
        attrs |= a
        pairs |= p
    return ((functions - bare - attrs) | (methods - attrs)
            | {f"{cls}.{name}" for cls, name in statics - pairs})


def test_every_function_and_method_has_a_caller():
    assert sorted(uncalled([p.read_text() for p in MODULES],
                           [p.read_text() for p in CALLERS])) == []


def test_the_guard_sees_uncalled_and_called_functions():
    library = ("def used(): pass\ndef unused(): pass\ndef _private(): pass\n"
               "def _helper(): pass\ndef __getattr__(name): pass\n"
               "class C:\n    def method(self): pass\n    def traced(self): pass\n"
               "    def dead(self): pass\n    def map(self): pass\n"
               "    def _step(self): pass\n    def _stale(self): pass\n"
               "    def __len__(self): return 0\n"
               "    @staticmethod\n    def build(): pass\n"
               "    @staticmethod\n    def traced_static(): pass\n"
               "    @staticmethod\n    def zero(): pass\n"
               "class D:\n    @staticmethod\n    def zero(): pass\n")
    caller = ("from m import used\nC().method()\nTRACED = ('m.C.traced', 'm.C.traced_static')\n"
              "print(list(map(str, [])))\n_helper()\nC()._step()\n"
              "m.C.build()\nD.zero()\nC().zero\n")
    # C.zero is reached only through D and an instance, not through C
    assert uncalled([library], [caller]) == {"unused", "dead", "map", "_private", "_stale",
                                             "C.zero"}
