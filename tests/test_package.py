"""Package hygiene: a standard-library-only runtime and exports that exist."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import chainflow

SOURCES = sorted(Path(chainflow.__file__).parent.glob("*.py"))
EXPORTING = [m.__name__ for m in (
    importlib.import_module(f"chainflow.{p.stem}") for p in SOURCES
    if p.stem not in ("__init__", "__main__")) if hasattr(m, "__all__")]


def imported_roots(path):
    """Top-level names of the absolute imports in ``path``, with their line
    numbers; relative imports stay inside the package and are skipped."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, node.module.split(".")[0]


def unused_imports(path):
    """Names that ``path`` imports and never reads, with their line numbers.

    An import counts as read when its name occurs in the scope that holds
    the import: the module, or the function for a local import.  Names
    listed in the module's ``__all__`` are exports and count as read.
    """
    tree = ast.parse(path.read_text(), str(path))
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    scopes = [tree] + [n for n in ast.walk(tree) if isinstance(
        n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for scope in scopes:
        read = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        if scope is tree:
            read |= exported
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            stack.extend(ast.iter_child_nodes(node))
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    yield node.lineno, name


def test_sources_are_found():
    assert {"flows", "linalg", "cli"} <= {p.stem for p in SOURCES}
    assert {"chainflow.flows", "chainflow.splittings"} <= set(EXPORTING)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_standard_library_or_chainflow(path):
    outside = [(line, root) for line, root in imported_roots(path)
               if root != "chainflow" and root not in sys.stdlib_module_names]
    assert outside == []


@pytest.mark.parametrize("name", EXPORTING)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [e for e in exported if not hasattr(module, e)] == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.stem != "__init__"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert sorted(unused_imports(path)) == []


def test_unused_import_check_sees_local_imports(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "import os\nfrom sys import argv as av, path\n__all__ = ['path']\n"
        "def f():\n    from json import dumps, loads\n    return loads\n"
        "def g():\n    return os, dumps\n")
    assert sorted(unused_imports(src)) == [(2, "av"), (5, "dumps")]
