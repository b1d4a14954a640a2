"""Checks on the package source, read with the standard library's ast:
every module-level import in src/pcrefine is used in its module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pcrefine"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """The (line, name) of each name a module-level import binds that no
    expression in the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_checker_finds_unused_imports():
    source = "from __future__ import annotations\nimport os, os.path as p\nfrom x import y, z\nz()\n"
    assert unused_imports(source) == [(2, "os"), (2, "p"), (3, "y")]


# __init__.py imports the names it exports; every other module imports
# only what it uses.
@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_module_level_import(module):
    assert unused_imports((SRC / module).read_text()) == []
