"""Source hygiene: no module of littleq imports a name it never uses, and
none defines a name that nothing reads.

A module-level import counts as used when its bound name is read anywhere in
the module (as a name or the base of an attribute).  An import kept on
purpose carries `# noqa: F401` on its line.  A name bound at module level by
def, class or assignment counts as used when the module reads it or another
Python file of the project names it.  The package's __init__ is skipped:
importing is how it re-exports the public names.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "littleq"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
PROJECT = sorted(path for tree in ("src", "tests", "qbench", "tools", "demos")
                 for path in (ROOT / tree).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names bound by module-level imports of source that nothing reads,
    apart from those on a line marked noqa: F401."""
    tree, lines = ast.parse(source), source.splitlines()
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "noqa: F401" not in lines[alias.lineno - 1]:
                    bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["%s (line %d)" % (name, line) for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import_and_honours_noqa():
    source = ("from __future__ import annotations\nimport os, sys\n"
              "from math import (\n    pi,\n    tau,  # noqa: F401\n)\nprint(sys.argv, pi)\n")
    assert unused_imports(source) == ["os (line 2)"]


def unread_names(source: str) -> list[str]:
    """The names bound at module level of source by def, class or assignment
    that the source never reads."""
    tree, bound = ast.parse(source), {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound[name.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return ["%s (line %d)" % (name, line) for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_module_level_name_is_read_somewhere(path):
    elsewhere = "\n".join(other.read_text() for other in PROJECT if other != path)
    dead = [entry for entry in unread_names(path.read_text())
            if not re.search(r"\b%s\b" % entry.split()[0], elsewhere)]
    assert dead == []


def test_the_check_sees_an_unread_definition():
    source = ("import os\nLIMIT = 3\nAlias = int\nx, (y, z) = 1, (2, 3)\n"
              "def used(n):\n    return used(n - 1) if n else LIMIT + y\n"
              "def unused():\n    os.getcwd()\nclass Spare:\n    field = LIMIT\n")
    assert unread_names(source) == ["Alias (line 3)", "x (line 4)", "z (line 4)",
                                    "unused (line 7)", "Spare (line 9)"]
