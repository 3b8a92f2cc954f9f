"""Module structure: imports at module level only, and every exported name exists."""

import ast
import importlib
import pathlib

import pytest

import algflow

MODULES = sorted(pathlib.Path(algflow.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_import_inside_a_function(path):
    # An import in a function body is how an import cycle between modules hides.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nested = [
        node.lineno
        for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == [], f"{path.name}: imports inside functions at lines {nested}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_exported_names_resolve(path):
    module = importlib.import_module(
        "algflow" if path.stem == "__init__" else f"algflow.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
