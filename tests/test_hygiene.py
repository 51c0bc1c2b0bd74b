"""Source hygiene the test suite can check without a linter."""

import ast
import importlib
import pathlib

import pytest

import reeseq

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "reeseq"
TESTS = pathlib.Path(__file__).resolve().parent

# __init__.py imports to re-export, so its names count as used
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(SRC.glob("*.py"))


def _unused_imports(tree):
    """Names bound by the module's imports that nothing else refers to."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert _unused_imports(tree) == []


def test_unused_import_is_caught():
    tree = ast.parse("import os, sys\nfrom x import a as b, c\nprint(sys, c)\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "b")]


def _nested_imports(tree):
    """(line, module) for every import that is not a statement of the
    module's top level."""
    top = {id(node) for node in tree.body}
    return sorted((node.lineno, "." * node.level + (node.module or "")
                   if isinstance(node, ast.ImportFrom)
                   else node.names[0].name)
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and id(node) not in top)


# the function-level imports a module makes on purpose: the CLI's json,
# about 2 ms of every CLI process, is imported only where JSON is written
# (a verdict in JSON format, analyze-matrix and reduce)
DEFERRED_IMPORTS = {"cli.py": ["json"] * 3}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_at_top_level(path):
    # a function-level import hides a module's dependencies and pays the
    # import lookup on every call
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert [module for _, module in _nested_imports(tree)] == \
        DEFERRED_IMPORTS.get(path.name, [])


def test_nested_import_is_caught():
    tree = ast.parse("import os\n\n"
                     "def f():\n    from .core import x\n    return x\n\n"
                     "class K:\n    import sys\n\n"
                     "if os:\n    import json\n")
    assert _nested_imports(tree) == [(4, ".core"), (8, "sys"), (11, "json")]


def _loads(node):
    return {n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _unreferenced_private(tree):
    """Module-level _private functions and classes that no other statement
    of the module refers to."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and node.name.startswith("_") \
                and not node.name.startswith("__"):
            used = set().union(*(_loads(other) for other in tree.body
                                 if other is not node))
            if node.name not in used:
                out.append((node.lineno, node.name))
    return out


def _unread_parameters(tree):
    """(line, function, parameter) for every parameter of a function or
    lambda that its body never reads; a method's self or cls is the
    receiver its class hands it, so it does not count."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + \
            [x for x in (a.vararg, a.kwarg) if x is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = set().union(*(_loads(stmt) for stmt in body))
        name = getattr(node, "name", "<lambda>")
        out += [(node.lineno, name, x.arg) for x in params
                if x.arg not in read and x.arg not in ("self", "cls")]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_private_definitions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert _unreferenced_private(tree) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert _unread_parameters(tree) == []


def test_unreferenced_private_is_caught():
    tree = ast.parse("def _a():\n    return _a()\n\n"
                     "def _b():\n    pass\n\n"
                     "class _C:\n    pass\n\n"
                     "def f():\n    return _b()\n")
    assert _unreferenced_private(tree) == [(1, "_a"), (7, "_C")]


def test_unread_parameter_is_caught():
    tree = ast.parse("def f(a, b=1, *c, d, **e):\n    return a + d\n\n"
                     "g = lambda x, y: x\n\n"
                     "class K:\n    def m(self, z):\n        return 0\n")
    assert _unread_parameters(tree) == [(1, "f", "b"), (1, "f", "c"),
                                        (1, "f", "e"), (4, "<lambda>", "y"),
                                        (7, "m", "z")]


def _is_dataclass(node):
    """Is the class decorated with dataclass, called or not?"""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _defined_fields(tree):
    """(line, class, name) for every dataclass field and every __slots__
    name that a class of the module defines."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        is_dataclass = _is_dataclass(node)
        for stmt in node.body:
            if is_dataclass and isinstance(stmt, ast.AnnAssign) and \
                    isinstance(stmt.target, ast.Name):
                out.append((stmt.lineno, node.name, stmt.target.id))
            elif isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in stmt.targets):
                out += [(stmt.lineno, node.name, elt.value)
                        for elt in ast.walk(stmt.value)
                        if isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)]
    return out


def _attribute_reads(tree):
    """Every attribute name the module reads, as in obj.name."""
    return {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _unread_fields(tree, reads):
    """The fields the module defines whose names are not in reads."""
    return [f for f in _defined_fields(tree) if f[2] not in reads]


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_every_field_is_read():
    # a field that no line of the package or its tests reads is a value
    # computed and carried for nothing
    paths = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
    reads = set().union(*(_attribute_reads(_parse(path)) for path in paths))
    unread = {path.name: _unread_fields(_parse(path), reads)
              for path in MODULES}
    assert {name: fields for name, fields in unread.items() if fields} == {}


def test_unread_field_is_caught():
    tree = ast.parse("from dataclasses import dataclass\n"
                     "@dataclass(frozen=True)\nclass A:\n"
                     "    x: int\n    y: int = 0\n\n"
                     "class B:\n    __slots__ = ('u', 'v')\n"
                     "    w: int\n\n"
                     "print(A(1).x, B().v)\n")
    fields = _defined_fields(tree)
    assert fields == [(4, "A", "x"), (5, "A", "y"), (8, "B", "u"),
                      (8, "B", "v")]
    assert _unread_fields(tree, _attribute_reads(tree)) == [(5, "A", "y"),
                                                            (8, "B", "u")]


def _imported_modules(tree):
    """The absolute module names the module's import statements name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module)
    return out


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    # importing dataclasses loads inspect, ast, dis and tokenize, which
    # every CLI process would pay for; values derive from reeseq.frozen
    assert "dataclasses" not in {name.split(".")[0]
                                 for name in _imported_modules(_parse(path))}


def test_imported_modules_are_found():
    tree = ast.parse("import os.path, sys as system\n"
                     "from dataclasses import dataclass\n"
                     "from . import core\nfrom .words import var\n")
    assert _imported_modules(tree) == {"os.path", "sys", "dataclasses"}


def _cached_property_uses(tree):
    """The lines that import cached_property or read it as an attribute,
    as in functools.cached_property."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and any(a.name == "cached_property" for a in node.names)
                  or isinstance(node, ast.Attribute)
                  and node.attr == "cached_property")


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_cached_property(path):
    # functools.cached_property takes a lock on every first read under
    # CPython 3.11, which was measured to cost more than computing a short
    # word's variables; the values that are cached (a group's orders, a
    # graph's adjacency, a compiled word's records) go through
    # reeseq.frozen.cached_value
    assert _cached_property_uses(_parse(path)) == []


def test_cached_property_is_caught():
    tree = ast.parse("from functools import partial, cached_property as c\n"
                     "import functools\n\n"
                     "class K:\n    @functools.cached_property\n"
                     "    def v(self):\n        return partial\n")
    assert _cached_property_uses(tree) == [1, 5]


def _dynamic_imports(tree):
    """For each call of import_module or __import__, the name of the
    top-level definition around it, or "<module>"."""
    def callee(node):
        f = node.func
        return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
    out = []
    for stmt in tree.body:
        where = stmt.name if isinstance(stmt, (
            ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
            else "<module>"
        out += [where for node in ast.walk(stmt)
                if isinstance(node, ast.Call)
                and callee(node) in ("import_module", "__import__")]
    return out


def test_one_dynamic_import():
    # the package's one dynamic import is its PEP 562 hook, and it serves
    # fields, oracles and reductions only: every other module is imported
    # where the code that uses it can be read
    found = {path.name: _dynamic_imports(_parse(path))
             for path in ALL_MODULES}
    assert {name: calls for name, calls in found.items() if calls} == \
        {"__init__.py": ["__getattr__"]}
    served = set()
    for path in ALL_MODULES:
        try:
            module = reeseq.__getattr__(path.stem)
        except AttributeError:
            continue
        assert module is importlib.import_module(f"reeseq.{path.stem}")
        served.add(path.stem)
    assert served == {"fields", "oracles", "reductions"}


def test_dynamic_import_is_found():
    tree = ast.parse("import importlib\nos = __import__('os')\n\n"
                     "def f(name):\n"
                     "    return importlib.import_module(name)\n\n"
                     "class K:\n    m = importlib.import_module('json')\n")
    assert _dynamic_imports(tree) == ["<module>", "f", "K"]
