"""Spans around the public algflow functions, recorded from outside the library.

``Tracer.enable`` swaps in a wrapper for each traced function wherever an
algflow module (or the package namespace) holds a reference to it, so every
call is seen the way its calling module sees it.  The functions of
``checks`` are reached through its check registry, and
``BinaryOpTable.is_associative`` through its class.  Spans are kept in
memory and written once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> (module, names); a dotted name is a method of a class.
TRACED = {
    "cli": ("algflow.cli", ("main",)),
    "flow": ("algflow.flow", ("flow_algebra", "verify_kce")),
    "algebra": ("algflow.algebra",
                ("is_commutative", "is_associative", "change_of_basis", "rank_2x4")),
    "classification": ("algflow.classification",
                       ("classify_time", "to_bekbaev", "class_representative")),
    "isomorphism": ("algflow.isomorphism",
                    ("rotation_iso", "iso_search", "invariant_signature", "iso_residual")),
    "cubic": ("algflow.cubic", ("mul_type_c", "mul_general",
                                "BinaryOpTable.is_associative", "from_middle_slices")),
}
CHECKS = ("kce", "locus", "mirror", "iso-grid", "canonical", "census", "separation",
          "basis-oracle", "product-assoc")

# Floating-point operations per call, counted from the definitions:
# type-C is m matrix products of m x m (2m^4), the general product m^2 (2m^5).
FLOPS = {
    "cubic.mul_type_c": lambda a, b: 2 * a.dim ** 4,
    "cubic.mul_general": lambda a, b, op: 2 * a.dim ** 5,
}


def span_names() -> list[str]:
    names = [f"{layer}.{fn}" for layer, (_, fns) in TRACED.items() for fn in fns]
    return names + [f"checks.{name}" for name in CHECKS]


class Tracer:
    """Records (name, start_ns, end_ns, parent, op) spans in memory.

    The wrappers are prepared once; ``enable`` and ``disable`` swap them in
    and out, so traced and untraced rounds can alternate in one process.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.flops: dict[str, int] = {name: 0 for name in FLOPS}
        self.op = 0
        self._open: list[int] = []
        self._patches = self._plan()

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._open, time.perf_counter_ns
        count = FLOPS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
                if count is not None:
                    self.flops[name] += count(*args, **kwargs)

        return traced

    def _plan(self) -> list[tuple]:
        """(owner, key, original, wrapped) for every reference to a traced function."""
        modules = [m for n, m in sys.modules.items()
                   if n == "algflow" or n.startswith("algflow.")]
        patches = []
        for layer, (module_name, fns) in TRACED.items():
            module = sys.modules[module_name]
            for fn in fns:
                name = f"{layer}.{fn}"
                if "." in fn:
                    cls_name, method = fn.split(".")
                    cls = getattr(module, cls_name)
                    original = getattr(cls, method)
                    patches.append((cls, method, original, self.wrap(name, original)))
                    continue
                original = getattr(module, fn)
                wrapped = self.wrap(name, original)
                patches += [(holder, attr, original, wrapped)
                            for holder in modules
                            for attr, value in vars(holder).items() if value is original]
        registry = sys.modules["algflow.checks"]._REGISTRY
        for check in CHECKS:
            fn, tol_arg = registry[check]
            patches.append((registry, check, (fn, tol_arg),
                            (self.wrap(f"checks.{check}", fn), tol_arg)))
        return patches

    def _apply(self, traced: bool) -> None:
        for owner, key, original, wrapped in self._patches:
            value = wrapped if traced else original
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def enable(self) -> None:
        self._apply(True)

    def disable(self) -> None:
        self._apply(False)

    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds); self time excludes child spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: [0, 0] for name in span_names()}
        for (name, start, end, _, _), children in zip(self.spans, child_ns):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start - children
        return {name: (calls, ns / 1e9) for name, (calls, ns) in out.items()}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for span in self.spans:
                fh.write("%s,%d,%d,%d,%d\n" % span)
