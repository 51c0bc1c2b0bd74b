"""Source hygiene the test suite can check without a linter."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "reeseq"

# __init__.py imports to re-export, so its names count as used
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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
