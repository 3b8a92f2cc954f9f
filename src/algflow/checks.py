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

from .algebra import (associativity_residual, change_of_basis, commutativity_residuals,
                      det_in_window, is_associative, is_commutative, iso_residuals, to_2x4)
from .classification import (
    A1,
    A0_PLUS,
    ACOS_MINUS,
    ACOS_PLUS,
    C_GRID,
    CLASS_PREDICATES,
    EXCEPTIONAL_RESIDUES,
    VARIANTS,
    FlowClassLabel,
    bekbaev_matrix,
    certified_reductions,
    class_representative,
    classify_times,
    residue_times,
    to_bekbaev,
)
from .cubic import type_c_products
from .flow import (commutativity_defect, flow_tensors, kce_residuals, paired_tensors,
                   reduce_mod_pi, time_blocks)
from .isomorphism import KIND_SEPARATED_BY_INVARIANT, decide, rotation_isomorphic

__all__ = ["CheckResult", "CHECK_NAMES", "run_checks"]

_SEED = 20260811
# Sample sizes, grids and bounds other than the headline tolerances.
_KCE_TRIPLES, _KCE_T_MAX = 1000, 20.0
_LOCUS_POINTS, _LOCUS_SPAN = 10_000, 4 * math.pi
_LOCUS_ROUNDING = 8 * math.ulp(_LOCUS_SPAN)  # rounding of t mod pi over the locus span
_ISO_GRID_N = 50
# Pairs with tol < |sin(t2 - t1)| < _ISO_EXCLUSION straddle the locus boundary.
_ISO_EXCLUSION = 1e-6
# Rounding of a certificate residual and of t mod pi over the grid: below it, a
# tol cannot tell t + pi from t.
_ISO_ROUNDING = 8 * math.ulp(2 * math.pi)
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
    """Commutativity holds exactly on the grid points at 3*pi/4 + pi*n.  tol is a
    distance in t (plus rounding) to that locus, and the commutativity residual
    and defect, sqrt(2) |sin distance|, are held to the bound it converts to."""
    base = 3 * math.pi / 4
    grid = np.concatenate((np.linspace(0.0, _LOCUS_SPAN, _LOCUS_POINTS),
                           residue_times(base, _LOCUS_SPAN)))
    r = reduce_mod_pi(grid)[1]
    reach = tol + _LOCUS_ROUNDING
    expected = np.minimum(np.abs(r - base), r + (math.pi - base)) <= reach
    bound = math.sqrt(2.0) * math.sin(min(reach, math.pi / 2))
    residuals = [commutativity_residuals(flow_tensors(block)) for block in time_blocks(grid)]
    commutative = np.concatenate(residuals) <= bound
    defect_zero = np.abs(commutativity_defect(grid)) <= bound
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
    """Isomorphism holds iff sin(t2-t1)=0, and labels agree.  tol bounds |sin(t2 - t1)| and,
    in one continuous variant, the labels' distance in t mod pi; from sin(2*pi/N) it is refused.
    Below the rounding scale, distinct times within tol of the locus are not judged."""
    if tol >= (limit := math.sin(2 * math.pi / _ISO_GRID_N)):
        raise ValueError(f"iso-grid tol {tol:g} is not below sin(2 pi / {_ISO_GRID_N}) = "
                         f"{limit:.4g}, the least gap between its grid points")
    start = time.perf_counter()
    judged, expected, isomorphic, same = _iso_grid_pairs(tol)
    mismatches = int(np.count_nonzero((isomorphic != expected) & judged)
                     + np.count_nonzero((same != expected) & judged))
    elapsed = time.perf_counter() - start
    return CheckResult(
        "iso-grid", mismatches == 0,
        f"{mismatches} mismatches over {np.count_nonzero(judged)} pairs on a "
        f"{_ISO_GRID_N}x{_ISO_GRID_N} grid ({elapsed:.2f}s)",
    )


def _iso_grid_pairs(tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The iso-grid's judged, expected, isomorphic and same-label matrices over
    all pairs at once; entry [i, j] is the pair (t_i, t_j) of grid times."""
    times = np.arange(_ISO_GRID_N) * 2 * math.pi / _ISO_GRID_N
    codes, c = classify_times(times)
    r = reduce_mod_pi(times)[1]
    t1, t2 = times[:, np.newaxis], times
    gap = np.abs(np.sin(t2 - t1))
    # Not judged: the ambiguous band around the locus boundary, and below rounding.
    judged = ~(((tol < gap) & (gap < _ISO_EXCLUSION))
               | ((0.0 < gap) & (gap <= tol) & (tol < _ISO_ROUNDING)))
    same = (codes[:, np.newaxis] == codes) & (np.isnan(c)[:, np.newaxis]
                                              | (np.abs(r - r[:, np.newaxis]) <= tol))
    return judged, gap <= tol, rotation_isomorphic(t1, t2, tol), same


def check_canonical_reduction(tol: float = 1e-12) -> CheckResult:
    """Explicit basis changes reach the canonical matrices.

    The generic plus branch is driven directly from the flow tensors.  The minus
    branch and the continuous labels of a time grid are certified in one array
    call each (``certified_reductions``, the kernel of ``to_bekbaev`` on arrays),
    and the minus branch's residual postcondition is re-measured here on its
    stacks; the grid's exceptional labels take their stored reductions through
    ``to_bekbaev``, and the A1 and A0Plus reductions must reproduce their
    targets exactly.
    """
    times = np.linspace(0.05, math.pi / 2 - 0.05, _CANONICAL_TIMES)
    a, b = 1 / (4 * np.cos(times)), 1 / (2 * np.sqrt(np.sin(2 * times)))
    p = np.stack((a, a, b, -b), axis=-1).reshape(-1, 2, 2)
    target = np.zeros((_CANONICAL_TIMES, 2, 4))
    target[:, 0, 0], target[:, 0, 3], target[:, 1, 2] = 0.5, 1.0, 0.5
    target[:, 1, 1] = -np.sin(times) / (2 * np.cos(times))
    target = target.transpose(0, 2, 1).reshape(-1, 2, 2, 2)  # read as from_2x4 does
    worst_plus = float(np.max(iso_residuals(flow_tensors(times), target, p)))

    c = np.linspace(0.05, 0.95, _CANONICAL_TIMES)
    s = -np.sqrt(1.0 - c * c)
    _, p, target, certified = certified_reductions(c, s)
    minus_ok = bool(certified.all())
    minus = "reduction FAILED"
    if minus_ok:
        worst_minus = float(np.max(iso_residuals(paired_tensors(c, s, -s, c), target, p)))
        minus_ok = worst_minus <= _MINUS_RESIDUAL_TOL
        minus = f"max residual {worst_minus:.2e}"

    exact_ok = True
    for variant in (A1, A0_PLUS):
        label = FlowClassLabel(variant)
        reduction = _certified_reduction(label)
        exact_ok &= reduction is not None and bool(np.array_equal(
            to_2x4(change_of_basis(class_representative(label), reduction[1])),
            bekbaev_matrix(reduction[0])))

    # Certified reductions across a time grid covering all five classes: the
    # exceptional ones at their own times, which a uniform grid mostly misses.
    grid = np.concatenate((np.linspace(0.0, 2 * math.pi, _CANONICAL_TIMES), *(
        residue_times(residue, 2 * math.pi) for residue, _ in EXCEPTIONAL_RESIDUES)))
    codes, c = classify_times(grid)
    exceptional = np.isnan(c)
    grid_ok = all(_certified_reduction(FlowClassLabel(VARIANTS[code])) is not None
                  for code in set(codes[exceptional].tolist()))
    c, codes = c[~exceptional], codes[~exceptional]
    s = np.sqrt(1.0 - c * c)
    grid_ok &= bool(certified_reductions(
        c, np.where(codes == VARIANTS.index(ACOS_PLUS), s, -s))[-1].all())

    passed = worst_plus < tol and minus_ok and exact_ok and grid_ok
    return CheckResult(
        "canonical", passed,
        f"plus-branch max err {worst_plus:.2e} (tol {tol:.0e}), minus-branch "
        f"{minus} (tol {_MINUS_RESIDUAL_TOL:.0e}), fixed targets "
        f"{'exact' if exact_ok else 'INEXACT'}, label grid "
        f"{'certified' if grid_ok else 'FAILED'}",
    )


def _certified_reduction(label: FlowClassLabel):
    """``to_bekbaev(label)``, or None where its certificate misses the residual bound."""
    try:
        return to_bekbaev(label)
    except AssertionError:
        return None


def check_associativity_census(margin: float = 0.1) -> CheckResult:
    """Representatives of the exceptional classes, and of the continuous ones at
    ``C_GRID``, have the predicates of ``CLASS_PREDICATES``; large defect off A1, A2."""
    census = [FlowClassLabel(variant) for _, variant in EXCEPTIONAL_RESIDUES]
    census += [FlowClassLabel(variant, c) for variant in (ACOS_PLUS, ACOS_MINUS) for c in C_GRID]
    census_ok = all((is_commutative(rep := class_representative(label)), is_associative(rep))
                    == CLASS_PREDICATES[label.variant] for label in census)
    half = associativity_residual(class_representative(FlowClassLabel(ACOS_PLUS, 0.5)))
    return CheckResult(
        "census", census_ok and half > margin,
        f"census over {len(census)} classes "
        f"{'matches' if census_ok else 'DIVERGES'}, residual at c=0.5 is "
        f"{half:.3f} (> {margin})",
    )


def check_invariant_separation() -> CheckResult:
    """``decide`` (``iso --a --b``) separates A0Plus from A1 by associativity, no descent run."""
    verdict = decide(class_representative(FlowClassLabel(A0_PLUS)),
                     class_representative(FlowClassLabel(A1)))
    passed = verdict.kind == KIND_SEPARATED_BY_INVARIANT and verdict.reason == "associative"
    return CheckResult("separation", passed, f"decide: {verdict.kind} by {verdict.reason!r}")


def check_basis_change_oracle(tol: float = 1e-10) -> CheckResult:
    """Transformation formula (the kernel of ``iso_residuals``) vs a re-derivation:
    the new coordinates x of e'_i e'_j solve P^T x = P_i * P_j in the old basis, here by
    Cramer's rule, reading no code of algebra's inverse; |det P| in (0.5, 2] needs no pivot."""
    c, p = _oracle_draws(np.random.default_rng(_SEED), _ORACLE_TRIALS)
    y = _old_coordinates(c, p)
    p00, p01, p10, p11 = p.reshape(-1, 4).T[..., np.newaxis, np.newaxis]
    det = p00 * p11 - p01 * p10
    by_oracle = np.stack(((y[..., 0] * p11 - p10 * y[..., 1]) / det,
                          (p00 * y[..., 1] - p01 * y[..., 0]) / det), axis=-1)
    # max |formula - oracle| is the residual of P carrying c onto the oracle's tensors.
    worst = float(np.max(iso_residuals(c, by_oracle, p)))
    return CheckResult(
        "basis-oracle", worst < tol,
        f"max difference {worst:.2e} over {_ORACLE_TRIALS} trials (tol {tol:.0e})",
    )


def _old_coordinates(c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_{p,q} P_ip P_jq c_pqk, e'_i e'_j in the old basis, for stacks c and p: the
    terms of einsum("nip,njq,npqk->nijk") summed as it sums them, from 0 in (p, q) order."""
    terms = [p[:, :, i, None, None] * p[:, None, :, j, None] * c[:, None, None, i, j]
             for i, j in np.ndindex(2, 2)]
    return 0.0 + terms[0] + terms[1] + terms[2] + terms[3]


def _oracle_draws(rng: np.random.Generator, trials: int) -> tuple[np.ndarray, np.ndarray]:
    """``trials`` tensors with entries uniform in [-1, 1), then the first ``trials``
    matrices P with entries uniform in [-2, 2) and ``det_in_window(P, 0.5, 2.0)``,
    drawn ``trials`` at a time from the same stream until enough are kept."""
    c = rng.uniform(-1.0, 1.0, size=(trials, 2, 2, 2))
    p = np.empty((0, 2, 2))
    while len(p) < trials:
        more = rng.uniform(-2.0, 2.0, size=(trials, 2, 2))
        p = np.concatenate((p, more[det_in_window(more, 0.5, 2.0)]))
    return c, p[:trials]


def check_product_associativity(tol: float = 1e-12) -> CheckResult:
    """(A*B)*C = A*(B*C) for the slice-wise product, random tensors of dim <= 4."""
    rng = np.random.default_rng(_SEED)
    dims = rng.integers(2, 5, size=_PRODUCT_TRIALS)
    worst = 0.0
    for m in range(2, 5):
        a, b, c = rng.uniform(-1.0, 1.0, size=(3, np.count_nonzero(dims == m), m, m, m))
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
    """Run the suite (or a named subset, each name once), with optional tolerance injection."""
    names = list(dict.fromkeys(only)) if only else list(CHECK_NAMES)
    overrides = tol_overrides or {}
    for name in names + list(overrides):
        if name not in _REGISTRY:
            raise ValueError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    # Refuse an override that would go unused before any check runs.
    for name in overrides:
        if _REGISTRY[name][1] is None:
            raise ValueError(f"check {name!r} takes no tolerance")
        if name not in names:
            raise ValueError(f"a tolerance is given for check {name!r}, which is not run")
    results = []
    for name in names:
        fn, tol_arg = _REGISTRY[name]
        results.append(fn(**({tol_arg: overrides[name]} if name in overrides else {})))
    return results
