"""Module structure: imports at module level only, every exported name exists,
and every name the benchmark calls or its tracer patches is still there."""

import ast
import importlib
import importlib.util
import inspect
import pathlib

import pytest

import algflow
from algflow import checks

MODULES = sorted(pathlib.Path(algflow.__file__).parent.glob("*.py"))
BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
BENCH_TRACING = BENCH / "tracing.py"


def load_bench_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
def test_no_private_name_imported_from_another_module(path):
    # A _-prefixed name belongs to its module; another module that needs it
    # should use a public name instead.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("algflow"))
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == [], f"{path.name} imports private names {private}"

@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_exported_names_resolve(path):
    module = importlib.import_module(
        "algflow" if path.stem == "__init__" else f"algflow.{path.stem}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


# The tracer wraps these names in place; a rename or a reshaped registry entry
# should fail here rather than in a benchmark run.
def test_benchmark_traced_names_resolve():
    tracing = load_bench_tracing()
    missing = []
    for module_name, names in tracing.TRACED.values():
        module = importlib.import_module(module_name)
        for name in names:
            owner = module
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{module_name}.{name}")
    assert missing == []


def _algflow_chains(tree: ast.AST) -> set[str]:
    """The dotted names x.y.z of every attribute chain algflow.x.y.z in a tree."""
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "algflow" and parts:
            chains.add(".".join(reversed(parts)))
    return chains


# The benchmark reaches these names through the package (algflow.cli.main,
# algflow.BasisChange.identity...); deleting one should fail here rather than
# in a benchmark run.
def test_benchmark_attribute_chains_resolve():
    chains = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("algflow."):
                        importlib.import_module(alias.name)
        chains |= _algflow_chains(tree)
    missing = []
    for chain in sorted(chains):
        owner = algflow
        for part in chain.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(chain)
    assert len(chains) >= 19 and missing == []


def test_benchmark_checks_are_registered():
    for name in load_bench_tracing().CHECKS:
        fn, tol_arg = checks._REGISTRY[name]
        assert callable(fn)
        assert tol_arg is None or tol_arg in inspect.signature(fn).parameters
