"""Source hygiene: no module of littleq imports a name it never uses.

A module-level import counts as used when its bound name is read anywhere in
the module (as a name or the base of an attribute).  An import kept on
purpose carries `# noqa: F401` on its line.  The package's __init__ is
skipped: importing is how it re-exports the public names.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "littleq"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


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
