"""End-to-end verification suite for the library's headline claims.

Each check exercises one closed-form result at desk scale and reports a
pass/fail with a one-line detail.  The suite backs the ``verify-theorems``
CLI command and the acceptance test module; a check's one argument is the
headline tolerance the CLI can override, and its sizes and seeds are constants.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import (
    associativity_residual,
    change_of_basis,
    commutativity_residuals,
    iso_residuals,
    random_invertible,
    to_2x4,
)
from .classification import (
    A1,
    A2,
    A0_PLUS,
    ACOS_MINUS,
    ACOS_PLUS,
    C_GRID,
    FlowClassLabel,
    bekbaev_matrix,
    class_representative,
    classify_time,
    associativity_census,
    residue_times,
    to_bekbaev,
    _branch,
    _family_tensor,
)
from .cubic import type_c_products
from .flow import commutativity_defect, flow_tensors, kce_residuals, paired_tensors, time_blocks
from .isomorphism import (
    KIND_NOT_FOUND_WITHIN_BUDGET,
    invariant_signature,
    iso_search,
    rotation_iso,
)

__all__ = ["CheckResult", "CHECK_NAMES", "run_checks"]

_SEED = 20260811
# Sample sizes, grids and bounds other than the headline tolerances.
_KCE_TRIPLES, _KCE_T_MAX = 1000, 20.0
_LOCUS_POINTS, _LOCUS_SPAN = 10_000, 4 * math.pi
_ISO_GRID_N = 50
# Pairs with tol < |sin(t2 - t1)| < _ISO_EXCLUSION straddle the locus boundary.
_ISO_EXCLUSION = 1e-6
_CANONICAL_TIMES, _MINUS_RESIDUAL_TOL = 50, 1e-10
_ORACLE_TRIALS, _PRODUCT_TRIALS = 500, 1000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name:<14} {self.detail}"


def check_kce(tol: float = 1e-12) -> CheckResult:
    """Composition law of the rotation flow on random ordered time triples:
    ``flow.kce_residuals``, taken for all triples at once."""
    rng = np.random.default_rng(_SEED)
    start = time.perf_counter()
    s, tau, t = np.sort(rng.uniform(0.0, _KCE_T_MAX, size=(_KCE_TRIPLES, 3)), axis=1).T
    ordered = (s < tau) & (tau < t)  # coincident draws carry no information
    worst = float(np.max(kce_residuals(s[ordered], tau[ordered], t[ordered]), initial=0.0))
    elapsed = time.perf_counter() - start
    return CheckResult(
        "kce", worst < tol,
        f"max residual {worst:.2e} over {_KCE_TRIPLES} triples (tol {tol:.0e}, "
        f"{elapsed:.2f}s)",
    )


def check_commutative_locus(tol: float = 1e-9) -> CheckResult:
    """Commutativity holds exactly on the grid points at 3*pi/4 + pi*n."""
    base = 3 * math.pi / 4
    grid = np.concatenate((np.linspace(0.0, _LOCUS_SPAN, _LOCUS_POINTS),
                           residue_times(base, _LOCUS_SPAN)))
    locus_distance = np.abs(grid - (base + np.round((grid - base) / math.pi) * math.pi))
    expected = locus_distance <= tol
    commutative = np.concatenate(
        [commutativity_residuals(flow_tensors(block)) for block in time_blocks(grid)]
    ) <= tol
    defect_zero = np.abs(commutativity_defect(grid)) <= tol
    mismatches = int(np.count_nonzero((commutative != expected) | (commutative != defect_zero)))
    return CheckResult(
        "locus", mismatches == 0,
        f"{mismatches} mismatches over {len(grid)} points in [0, {_LOCUS_SPAN:.4g}] "
        f"(tol {tol:.0e})",
    )


def check_plus_minus_mirror(tol: float = 1e-12) -> CheckResult:
    """Negating the basis carries the (c, s) algebra onto the (-c, -s) one."""
    c = np.array(C_GRID)
    s = np.sqrt(1.0 - c * c)
    plus, mirrored = paired_tensors(c, s, -s, c), paired_tensors(-c, -s, s, -c)
    worst = float(np.max(iso_residuals(plus, mirrored, np.array([-np.eye(2)] * len(c)))))
    return CheckResult(
        "mirror", worst <= tol,
        f"max residual {worst:.2e} over c grid {C_GRID[0]}..{C_GRID[-1]} (tol {tol:.0e})",
    )


def check_iso_grid(tol: float = 1e-9) -> CheckResult:
    """Isomorphism holds iff sin(t2-t1)=0, and the class labels agree with it."""
    start = time.perf_counter()
    times = [k * 2 * math.pi / _ISO_GRID_N for k in range(_ISO_GRID_N)]
    labels = [classify_time(t) for t in times]
    mismatches = 0
    checked = 0
    for i, t1 in enumerate(times):
        for j, t2 in enumerate(times):
            gap = abs(math.sin(t2 - t1))
            if tol < gap < _ISO_EXCLUSION:
                continue  # ambiguous band around the locus boundary
            checked += 1
            expected = gap <= tol
            if rotation_iso(t1, t2, tol).is_isomorphic != expected:
                mismatches += 1
            if labels[i].same_class(labels[j], tol) != expected:
                mismatches += 1
    elapsed = time.perf_counter() - start
    return CheckResult(
        "iso-grid", mismatches == 0,
        f"{mismatches} mismatches over {checked} pairs on a {_ISO_GRID_N}x{_ISO_GRID_N} grid "
        f"({elapsed:.2f}s)",
    )


def check_canonical_reduction(tol: float = 1e-12) -> CheckResult:
    """Explicit basis changes reach the canonical matrices.

    The generic plus branch is driven directly from the flow tensors; the
    minus branch and the certified reductions go through ``to_bekbaev``,
    whose residual postcondition is re-measured here; the A1 and A0Plus
    reductions must reproduce their targets exactly.
    """
    times = np.linspace(0.05, math.pi / 2 - 0.05, _CANONICAL_TIMES)
    a, b = 1 / (4 * np.cos(times)), 1 / (2 * np.sqrt(np.sin(2 * times)))
    p = np.stack((a, a, b, -b), axis=-1).reshape(-1, 2, 2)
    target = np.zeros((_CANONICAL_TIMES, 2, 4))
    target[:, 0, 0], target[:, 0, 3], target[:, 1, 2] = 0.5, 1.0, 0.5
    target[:, 1, 1] = -np.sin(times) / (2 * np.cos(times))
    target = target.transpose(0, 2, 1).reshape(-1, 2, 2, 2)  # read as from_2x4 does
    worst_plus = float(np.max(iso_residuals(flow_tensors(times), target, p)))

    labels = [FlowClassLabel(ACOS_MINUS, float(c)) for c in np.linspace(0.05, 0.95, _CANONICAL_TIMES)]
    reductions = [to_bekbaev(label) for label in labels]
    c, s = np.array([_branch(label) for label in labels]).T
    worst_minus = float(np.max(iso_residuals(
        paired_tensors(c, s, -s, c),
        np.array([_family_tensor(form) for form, _ in reductions]),
        np.array([cert.matrix for _, cert in reductions]),
    )))

    exact_ok = True
    for variant in (A1, A0_PLUS):
        label = FlowClassLabel(variant)
        form, cert = to_bekbaev(label)
        moved = change_of_basis(class_representative(label), cert)
        exact_ok &= bool(
            np.array_equal(to_2x4(moved).values, bekbaev_matrix(form).values)
        )

    # Certified reductions across a time grid covering all five classes.
    grid_ok = True
    for t in np.linspace(0.0, 2 * math.pi, _CANONICAL_TIMES):
        try:
            to_bekbaev(classify_time(float(t)))
        except AssertionError:
            grid_ok = False

    passed = worst_plus < tol and worst_minus <= _MINUS_RESIDUAL_TOL and exact_ok and grid_ok
    return CheckResult(
        "canonical", passed,
        f"plus-branch max err {worst_plus:.2e} (tol {tol:.0e}), minus-branch "
        f"max residual {worst_minus:.2e} (tol {_MINUS_RESIDUAL_TOL:.0e}), fixed targets "
        f"{'exact' if exact_ok else 'INEXACT'}, label grid "
        f"{'certified' if grid_ok else 'FAILED'}",
    )


def check_associativity_census(margin: float = 0.1) -> CheckResult:
    """Only A1 and A2 are associative; the defect is large off those classes."""
    census = associativity_census()
    expected_true = {A1, A2}
    census_ok = all(
        flag == (label.variant in expected_true) for label, flag in census
    )
    half = associativity_residual(class_representative(FlowClassLabel(ACOS_PLUS, 0.5)))
    return CheckResult(
        "census", census_ok and half > margin,
        f"census over {len(census)} classes "
        f"{'matches' if census_ok else 'DIVERGES'}, residual at c=0.5 is "
        f"{half:.3f} (> {margin})",
    )


def check_invariant_separation() -> CheckResult:
    """A0Plus and A1 differ on associativity and defeat the numeric search."""
    a0 = class_representative(FlowClassLabel(A0_PLUS))
    a1 = class_representative(FlowClassLabel(A1))
    sig_gap = invariant_signature(a0).first_difference(invariant_signature(a1))
    verdict = iso_search(a0, a1)
    passed = sig_gap == "associative" and verdict.kind == KIND_NOT_FOUND_WITHIN_BUDGET
    return CheckResult(
        "separation", passed,
        f"signatures differ at {sig_gap!r}, search verdict {verdict.kind}",
    )


def check_basis_change_oracle(tol: float = 1e-10) -> CheckResult:
    """Transformation formula (the kernel of ``iso_residuals``) vs a re-derivation:
    the new coordinates x of e'_i e'_j solve P^T x = P_i * P_j in the old basis."""
    rng = np.random.default_rng(_SEED)
    draws = [(rng.uniform(-1.0, 1.0, size=(2, 2, 2)), random_invertible(rng, 0.5, 2.0))
             for _ in range(_ORACLE_TRIALS)]
    c = np.array([alg for alg, _ in draws])
    p = np.array([mat for _, mat in draws])
    old_coords = np.einsum("nip,njq,npqk->nijk", p, p, c).reshape(-1, 4, 2)
    by_oracle = np.linalg.solve(p.transpose(0, 2, 1), old_coords.transpose(0, 2, 1))
    # max |formula - oracle| is the residual of P carrying c onto the oracle's tensors.
    worst = float(np.max(iso_residuals(c, by_oracle.transpose(0, 2, 1).reshape(-1, 2, 2, 2), p)))
    return CheckResult(
        "basis-oracle", worst < tol,
        f"max difference {worst:.2e} over {_ORACLE_TRIALS} trials (tol {tol:.0e})",
    )


def check_product_associativity(tol: float = 1e-12) -> CheckResult:
    """(A*B)*C = A*(B*C) for the slice-wise product, random tensors of dim <= 4."""
    rng = np.random.default_rng(_SEED)
    by_dim: dict[int, list[np.ndarray]] = {}
    for _ in range(_PRODUCT_TRIALS):
        m = int(rng.integers(2, 5))
        by_dim.setdefault(m, []).append(rng.uniform(-1.0, 1.0, size=(3, m, m, m)))
    worst = 0.0
    for triples in by_dim.values():
        a, b, c = np.moveaxis(np.array(triples), 1, 0)
        left = type_c_products(type_c_products(a, b), c)
        right = type_c_products(a, type_c_products(b, c))
        worst = max(worst, float(np.max(np.abs(left - right))))
    return CheckResult(
        "product-assoc", worst < tol,
        f"max |(AB)C - A(BC)| = {worst:.2e} over {_PRODUCT_TRIALS} triples (tol {tol:.0e})",
    )


# Check name -> (function, name of its headline tolerance argument).
_REGISTRY: dict[str, tuple[Callable[..., CheckResult], str]] = {
    "kce": (check_kce, "tol"),
    "locus": (check_commutative_locus, "tol"),
    "mirror": (check_plus_minus_mirror, "tol"),
    "iso-grid": (check_iso_grid, "tol"),
    "canonical": (check_canonical_reduction, "tol"),
    "census": (check_associativity_census, "margin"),
    "separation": (check_invariant_separation, None),
    "basis-oracle": (check_basis_change_oracle, "tol"),
    "product-assoc": (check_product_associativity, "tol"),
}

CHECK_NAMES = tuple(_REGISTRY)


def run_checks(only: list[str] | None = None,
               tol_overrides: dict[str, float] | None = None) -> list[CheckResult]:
    """Run the suite (or a named subset), with optional tolerance injection."""
    names = list(only) if only else list(CHECK_NAMES)
    overrides = tol_overrides or {}
    for name in list(names) + list(overrides):
        if name not in _REGISTRY:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    results = []
    for name in names:
        fn, tol_arg = _REGISTRY[name]
        kwargs = {}
        if name in overrides:
            if tol_arg is None:
                raise ValueError(f"check {name!r} takes no tolerance")
            kwargs[tol_arg] = overrides[name]
        results.append(fn(**kwargs))
    return results
