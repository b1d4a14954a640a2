"""Checks on the package source, read with the standard library's ast:
every module-level import in src/pcrefine is used in its module, the CLI
has one output path, every embedding file is read through one row check,
every file is mapped, walked and replaced by scene_io alone, and
selection's keep rule is stated once."""

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


# The CLI's one output path: main stamps the version on a command's document,
# writes it and prints it, and _error_object does the same for a fault.
OUTPUT_FUNCTIONS = ("main", "_error_object")


def nodes_outside(source: str, functions) -> list[ast.AST]:
    """Every node of the module source outside its module-level functions
    named in functions."""
    tree = ast.parse(source)
    inside = {id(node) for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name in functions
              for node in ast.walk(fn)}
    return [node for node in ast.walk(tree) if id(node) not in inside]


def output_code(source: str) -> list[tuple[int, str]]:
    """The (line, name) of each json.dump or json.dumps, and each read of
    REPORT_SCHEMA_VERSION, outside the module-level OUTPUT_FUNCTIONS."""
    found = []
    for node in nodes_outside(source, OUTPUT_FUNCTIONS):
        if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps"):
            found.append((node.lineno, f"json.{node.attr}"))
        elif (isinstance(node, ast.Name) and node.id == "REPORT_SCHEMA_VERSION"
              and isinstance(node.ctx, ast.Load)):
            found.append((node.lineno, node.id))
    return sorted(found)


def test_output_checker_finds_output_code():
    source = ("REPORT_SCHEMA_VERSION = 1\n"
              "def main():\n    print(json.dumps({'version': REPORT_SCHEMA_VERSION}))\n"
              "def cmd_x(args):\n    json.dump({'v': REPORT_SCHEMA_VERSION}, args.out)\n"
              "    def main():\n        json.dumps({})\n")
    assert output_code(source) == [(5, "REPORT_SCHEMA_VERSION"), (5, "json.dump"),
                                   (7, "json.dumps")]


def test_cli_writes_output_only_in_main():
    assert output_code((SRC / "cli.py").read_text()) == []


# The one embedding read: _scene_embedding loads a scene's embedding file and
# checks one feature row per PLY point, for train and support scenes alike.
EMBEDDING_READERS = ("_scene_embedding",)


def embedding_reads(source: str) -> list[int]:
    """The line of each read of the name load_embeddings, bare or as an
    attribute, outside the module-level EMBEDDING_READERS."""
    return sorted(node.lineno for node in nodes_outside(source, EMBEDDING_READERS)
                  if (isinstance(node, ast.Name) and node.id == "load_embeddings"
                      and isinstance(node.ctx, ast.Load))
                  or (isinstance(node, ast.Attribute) and node.attr == "load_embeddings"))


def test_embedding_read_checker_finds_reads():
    source = ("from .embeddings import load_embeddings\n"
              "def _scene_embedding(ply, n, e):\n    return load_embeddings(e)\n"
              "def cmd_x(args):\n    read = load_embeddings\n"
              "    return embeddings.load_embeddings(args.path)\n")
    assert embedding_reads(source) == [5, 6]


def test_embeddings_are_read_only_through_the_row_check():
    found = {path.name: embedding_reads(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


# The one file layer: scene_io._mapped is the only code that maps a file,
# PLY or embedding file alike, and scene_io alone defines _replacing, the
# atomic writer both formats are written through.
OPENERS = {"scene_io.py": ("_mapped",)}


def mmap_reads(source: str, functions=()) -> list[int]:
    """The line of each read of the attribute mmap.mmap outside the
    module-level functions named in functions."""
    return sorted(node.lineno for node in nodes_outside(source, functions)
                  if isinstance(node, ast.Attribute) and node.attr == "mmap"
                  and isinstance(node.value, ast.Name) and node.value.id == "mmap")


def test_mmap_checker_finds_reads():
    source = ("import mmap\n"
              "def _mapped(f):\n    return mmap.mmap(f.fileno(), 0)\n"
              "def load(f):\n    opener = mmap.mmap\n    return mmap.mmap(f.fileno(), 0)\n")
    assert mmap_reads(source, ("_mapped",)) == [5, 6]
    assert mmap_reads(source) == [3, 5, 6]


def test_files_are_mapped_only_by_scene_io_mapped():
    found = {path.name: mmap_reads(path.read_text(), OPENERS.get(path.name, ()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def defined_in(name: str) -> list[str]:
    """The modules of src/pcrefine that define a function called name."""
    return [path.name for path in sorted(SRC.glob("*.py"))
            if any(isinstance(node, ast.FunctionDef) and node.name == name
                   for node in ast.walk(ast.parse(path.read_text())))]


def test_replacing_is_defined_only_in_scene_io():
    assert defined_in("_replacing") == ["scene_io.py"]


# The one file-order walker: scene_io._windows reads a mapped array, PLY
# record or feature matrix, a window at a time and releases each window's
# pages behind it; no other code releases pages.
WALKERS = {"scene_io.py": ("_windows",)}


def page_drops(source: str, functions=()) -> list[int]:
    """The line of each call of _drop_mapped_pages, bare or as an attribute,
    outside the module-level functions named in functions."""
    return sorted(node.lineno for node in nodes_outside(source, functions)
                  if isinstance(node, ast.Call)
                  and "_drop_mapped_pages" in (getattr(node.func, "id", None),
                                               getattr(node.func, "attr", None)))


def test_page_drop_checker_finds_calls():
    source = ("def _windows(rec, size):\n    _drop_mapped_pages(rec, 0, 1)\n"
              "def read(rec):\n    _drop_mapped_pages(rec, 0, 1)\n"
              "    scene_io._drop_mapped_pages(rec, 1, 2)\n")
    assert page_drops(source, ("_windows",)) == [4, 5]
    assert page_drops(source) == [2, 4, 5]


def test_pages_are_dropped_only_by_the_walker():
    found = {path.name: page_drops(path.read_text(), WALKERS.get(path.name, ()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_walker_is_defined_only_in_scene_io():
    assert defined_in("_windows") == ["scene_io.py"]


def tau_comparisons(source: str) -> list[int]:
    """The line of each `>= tau` comparison, against a name or attribute tau."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Compare)
                  and any(isinstance(op, ast.GtE)
                          and "tau" in (getattr(right, "id", None), getattr(right, "attr", None))
                          for op, right in zip(node.ops, node.comparators)))


def test_tau_checker_finds_comparisons():
    source = "a >= tau\nb >= cfg.tau\nc > cfg.tau\nd >= delta\ne = tau >= f\n"
    assert tau_comparisons(source) == [1, 2]


def test_keep_rule_is_stated_once():
    found = [(path.name, line) for path in sorted(SRC.glob("*.py"))
             for line in tau_comparisons(path.read_text())]
    assert len(found) == 1, found
