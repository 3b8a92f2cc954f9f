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
def test_no_tensor_read_as_nested_lists(path):
    # Every scalar kernel reads a tensor as its eight entries c_ijk in (i, j, k) order,
    # ``constants.values.ravel().tolist()``; ``constants.values.tolist()`` would hand
    # one nested 2 x 2 x 2 lists, a second layout.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nested = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
              and ast.unparse(node.func).endswith(".constants.values.tolist")]
    assert nested == [], f"{path.name}: tensors read as nested lists at lines {nested}"


def _linalg_uses(tree: ast.AST) -> list[int]:
    """Lines of a use of numpy's linalg (``np.linalg``, or an import of it) within an AST node."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("linalg", "_umath_linalg")
            or isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "")
            or isinstance(node, ast.Import) and any("linalg" in a.name for a in node.names)]


def _blas_calls(tree: ast.AST) -> list[int]:
    """Lines of a matmul (``@`` or ``matmul``) or a linalg use within an AST node."""
    return _linalg_uses(tree) + [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
        or isinstance(node, ast.Attribute) and node.attr == "matmul"
        or isinstance(node, ast.Name) and node.id == "matmul"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_linalg_use(path):
    # No LAPACK call anywhere in algflow: the bits of a solve or an inverse follow the
    # kernel numpy's BLAS picks for the CPU, and no result or check line should.
    found = _linalg_uses(ast.parse(path.read_text(encoding="utf-8")))
    assert found == [], f"{path.name}: linalg at lines {found}"


def test_search_module_makes_no_blas_call():
    # The descent, its solve and the certificate residual run in Python floats: a matmul
    # or np.linalg call would tie the search's verdict bits to the BLAS kernel numpy
    # picks for the CPU at load time.
    path = pathlib.Path(algflow.__file__).parent / "isomorphism.py"
    found = _blas_calls(ast.parse(path.read_text(encoding="utf-8")))
    assert found == [], f"isomorphism.py: matmul or linalg at lines {found}"


def _blas_calls_in(module: str, names: tuple) -> dict:
    """``_blas_calls`` of each named top-level function of an algflow module file."""
    path = pathlib.Path(algflow.__file__).parent / module
    functions = {node.name: node for node in ast.parse(path.read_text(encoding="utf-8")).body
                 if isinstance(node, ast.FunctionDef)}
    return {name: _blas_calls(functions[name]) for name in names}


def test_iso_residual_kernel_makes_no_blas_call():
    # iso_residuals runs the operator-only kernel of iso_residual_entries on arrays, so
    # verify-theorems's residual lines do not follow the BLAS kernel either.
    found = _blas_calls_in("algebra.py", ("_iso_defects", "iso_residuals"))
    assert found == {"_iso_defects": [], "iso_residuals": []}


def test_reduction_kernel_makes_no_blas_call():
    # to_bekbaev and certified_reductions run one operator-only kernel and bound, so the
    # canonical line of verify-theorems does not follow the BLAS kernel either.
    names = ("_acos_reduction", "_reduction_bound", "certified_reductions")
    assert _blas_calls_in("classification.py", names) == dict.fromkeys(names, [])


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


def test_one_skip_rule_for_both_entry_points():
    # ``decide`` alone asks the skip rule and runs the descents; ``iso_search`` is
    # ``decide`` under another verdict, and the margin-less signature decides nothing.
    path = pathlib.Path(algflow.__file__).parent / "isomorphism.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    callers: dict[str, set[str]] = {}  # callee -> the top-level definitions that call it
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                callers.setdefault(node.func.id, set()).add(getattr(top, "name", "<module>"))
    assert callers["_search_ruled_out"] == callers["_levenberg_descent"] == {"decide"}
    assert "iso_search" in callers["decide"]
    assert "invariant_signature" not in callers


def test_unchecked_builds_only_where_a_kernel_made_the_values():
    # ``_unchecked`` skips ``__post_init__``: only the functions whose values come
    # from this module's own kernels may call it, never one that reads outside input.
    path = pathlib.Path(algflow.__file__).parent / "classification.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    callers = {getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "_unchecked"}
    # (no other module imports it: ``test_no_private_name_imported_from_another_module``)
    assert callers == {"_certified"}


def test_one_realness_test():
    # ``algebra.is_real`` alone asks whether a value is a real number; a second test
    # (``numbers.Real``, or numpy's float types alone) would let two entry points disagree.
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if getattr(top, "name", None) == "is_real":
                continue
            found += [f"{path.name}:{node.lineno}" for node in ast.walk(top)
                      if isinstance(node, ast.Attribute)
                      and ast.unparse(node) in ("numbers.Real", "np.floating")]
    assert found == []


def _definition(module: str, name: str) -> ast.AST:
    """The AST of a function or method (dotted, ``Class.method``) of an algflow module."""
    node = ast.parse((pathlib.Path(algflow.__file__).parent / module).read_text(encoding="utf-8"))
    for part in name.split("."):
        node = next(n for n in node.body if getattr(n, "name", None) == part)
    return node


@pytest.mark.parametrize("module, name", [
    ("algebra.py", "check_tol"), ("flow.py", "check_time"),
    ("classification.py", "FlowClassLabel.__post_init__"),
    ("classification.py", "BekbaevForm.__post_init__")])
def test_outside_numbers_converted_by_real_float_alone(module, name):
    # ``algebra.real_float`` alone turns an outside real into a float and catches the
    # OverflowError of one beyond the float range: its readers neither test realness
    # nor convert a second time.
    found = [node.lineno for node in ast.walk(_definition(module, name))
             if isinstance(node, ast.Try) or isinstance(node, ast.Call)
             and ast.unparse(node.func) in ("float", "is_real")]
    assert found == [], f"{module}: {name} tests or converts at lines {found}"


def test_one_overflow_handler_around_a_conversion():
    # real_float's, and rank_2x4_entries' around the ldexp of its singular-value bar.
    found = [f"{path.name}:{fn.name}" for path in MODULES
             for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if isinstance(node, ast.ExceptHandler)
             and "OverflowError" in ast.unparse(node.type or ast.Constant(None))]
    assert found == ["algebra.py:real_float", "algebra.py:rank_2x4_entries"]


def _functions(tree: ast.AST, prefix: str = ""):
    """(name, node) of each function and method of a module, nested ones dotted."""
    for node in ast.iter_child_nodes(tree):
        name = f"{prefix}{getattr(node, 'name', '')}"
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield name, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _functions(node, f"{name}.")


def _root_name(node: ast.AST) -> str | None:
    """The name an expression such as ``self.values[0]`` starts from."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _float_conversions_of_parameters(fn: ast.AST) -> list[int]:
    """Lines where fn converts one of its own parameters to floats with a dtype: by
    ``np.asarray`` or ``np.array`` (the second argument or ``dtype=``), or ``.astype``.
    A name a comprehension binds from a parameter, such as x in ``for x in (s, t)``,
    counts as one."""
    params = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    for comp in ast.walk(fn):
        if isinstance(comp, ast.comprehension) and any(
                isinstance(n, ast.Name) and n.id in params for n in ast.walk(comp.iter)):
            params |= {n.id for n in ast.walk(comp.target) if isinstance(n, ast.Name)}
    found = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        func = ast.unparse(node.func)
        if func in ("np.asarray", "np.array") and node.args:
            source, dtypes = node.args[0], node.args[1:2]
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "astype":
            source, dtypes = node.func.value, node.args[:1]
        else:
            continue
        dtypes += [k.value for k in node.keywords if k.arg == "dtype"]
        if _root_name(source) in params and any(
                "float" in ast.unparse(d) or "double" in ast.unparse(d) for d in dtypes):
            found.append(node.lineno)
    return found


def test_outside_arrays_converted_by_real_array_alone():
    # ``cubic.real_array`` alone turns an outside array into float64, by its dtype: a
    # second ``np.asarray(x, dtype=float)`` on a parameter would take bools and strings.
    found = [f"{path.name}:{name}:{line}" for path in MODULES
             for name, fn in _functions(ast.parse(path.read_text(encoding="utf-8")))
             if (path.name, name) != ("cubic.py", "real_array")
             for line in _float_conversions_of_parameters(fn)]
    assert found == []


def test_refuse_other_kinds_read_by_real_array_and_the_integer_table():
    # ``BinaryOpTable`` is the one integer reader ("iu"); every float reader is ``real_array``.
    found = {f"{path.name}:{name}" for path in MODULES
             for name, fn in _functions(ast.parse(path.read_text(encoding="utf-8")))
             for node in ast.walk(fn) if isinstance(node, ast.Call)
             and ast.unparse(node.func).endswith("refuse_other_kinds")}
    assert found == {"cubic.py:real_array", "cubic.py:BinaryOpTable.__post_init__"}


# The operator-only kernels: each is run on Python floats and on numpy arrays with the
# same bits, so it does its arithmetic by operators. It may call only the builtins and
# the reduce that act on either, the functions it is handed and the other kernels; it
# may read a constant such as math.pi, but a call of np or math would be float-only,
# array-only or a second rounding.
_OPERATOR_KERNELS = {
    "algebra.py": {"det_entries", "inverse_entries", "_commutativity_defects",
                   "_associativity_defects", "_iso_defects"},
    "classification.py": {"class_codes", "_acos_reduction", "_reduction_bound"},
    "flow.py": {"reduce_mod_pi"},
    "isomorphism.py": {"_parity"},
}
_KERNEL_CALLS = {"abs", "zip", "map", "functools.reduce"}.union(*_OPERATOR_KERNELS.values())


def test_operator_only_kernels_are_the_listed_ones():
    # A function whose docstring says "operators only" is held to the guard below.
    found = {}
    for path in MODULES:
        for name, fn in _functions(ast.parse(path.read_text(encoding="utf-8"))):
            if "operators only" in " ".join((ast.get_docstring(fn) or "").split()):
                found.setdefault(path.name, set()).add(name)
    assert found == _OPERATOR_KERNELS


@pytest.mark.parametrize("module, name", sorted(
    (module, name) for module, names in _OPERATOR_KERNELS.items() for name in names))
def test_operator_only_kernel_calls_no_other_function(module, name):
    fn = _definition(module, name)
    allowed = _KERNEL_CALLS | {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    calls = [f"{ast.unparse(node.func)}:{node.lineno}" for node in ast.walk(fn)
             if isinstance(node, ast.Call) and ast.unparse(node.func) not in allowed]
    assert calls == [], f"{module}: {name} calls {calls}"


@pytest.mark.parametrize("path", MODULES + sorted(BENCH.glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_parses_as_the_oldest_supported_python(path):
    # pyproject.toml says requires-python >= 3.10: no syntax newer than 3.10.
    ast.parse(path.read_text(encoding="utf-8"), feature_version=(3, 10))
