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
