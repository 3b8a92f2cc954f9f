"""Isomorphism testing for two-dimensional algebras.

Three complementary tools:

* ``rotation_iso`` decides isomorphism of two rotation-flow algebras A^[t1],
  A^[t2] exactly, by case analysis on the times: the algebras are isomorphic
  precisely when sin(t2 - t1) = 0, and the decider returns an explicit
  basis-change certificate on the positive side or the violated case
  condition on the negative side.  ``rotation_isomorphic`` takes the same
  decisions over arrays of times, without verdicts.

* ``iso_search`` attacks the general problem numerically: an isomorphism is
  an invertible P solving the quadratic system

      sum_{p,q} P_ip P_jq cA_{pqk} = sum_r cB_{ijr} P_rk     (all i, j, k),

  eight polynomial equations in the four entries of P.  A multi-start
  Gauss-Newton descent with Levenberg damping hunts for a root with
  |det P| bounded away from zero.  Failure to find one is NOT a proof of
  non-isomorphism, and the verdict says so.  The equations and their
  Jacobian are closed forms in Python floats, summed from 0.0 in the order
  of ``np.einsum`` on C-ordered arrays: the tests pin certificates to the
  last bit and keep the einsum forms as the oracle.  The damped normal
  equations go to numpy's LAPACK gufunc directly, without the checks of
  ``np.linalg.solve``.  The restarts run one at a time, in index order, and
  the first certificate is the verdict.

* ``invariant_signature`` separates algebras by cheap isomorphism
  invariants (commutativity, associativity, rank of the 2 x 4 form), and
  ``trace_separation`` by the continuous invariants of the trace form
  B(x, y) = tr(L_x L_y), where B is nondegenerate.  ``iso_search`` runs no
  descent where one of two rules rules out every certificate: a trace-form
  invariant where B is nondegenerate on both sides, else associativity with
  a gap of 1e9 between the two residuals.

Certificates are sound by construction: an Isomorphic verdict always
carries a basis change P whose transformation residual is below tolerance,
and P^-1 carries the second algebra back onto the first.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    EPS_DET,
    AlgebraFD,
    BasisChange,
    associativity_residual_entries,
    check_tol,
    commutativity_residual_entries,
    det_entries,
    determinant,
    iso_residual,
    iso_residual_entries,
    max_abs,
    random_invertible,
    rank_2x4_entries,
    unit_entries,
)
from .classification import A0_PLUS, A1, A2, VARIANTS, class_codes
from .flow import check_time, check_times, reduce_mod_pi

__all__ = [
    "KIND_ISOMORPHIC",
    "KIND_NOT_ISOMORPHIC_EXACT",
    "KIND_SEPARATED_BY_INVARIANT",
    "KIND_NOT_FOUND_WITHIN_BUDGET",
    "IsoVerdict",
    "SearchConfig",
    "InvariantSignature",
    "iso_residual",
    "iso_search",
    "rotation_iso",
    "rotation_isomorphic",
    "invariant_signature",
    "trace_separation",
]

log = logging.getLogger(__name__)

KIND_ISOMORPHIC = "Isomorphic"
KIND_NOT_ISOMORPHIC_EXACT = "NotIsomorphicExact"
KIND_SEPARATED_BY_INVARIANT = "SeparatedByInvariant"
KIND_NOT_FOUND_WITHIN_BUDGET = "NotFoundWithinBudget"


@dataclass(frozen=True)
class IsoVerdict:
    """Outcome of an isomorphism test.

    ``certificate`` and ``residual`` are set for Isomorphic verdicts;
    ``reason`` carries the violated condition or separating invariant for
    the two exact negative kinds.  NotFoundWithinBudget asserts nothing.
    """

    kind: str
    certificate: BasisChange | None = None
    residual: float | None = None
    reason: str | None = None

    @property
    def is_isomorphic(self) -> bool:
        return self.kind == KIND_ISOMORPHIC

    @classmethod
    def isomorphic(cls, certificate: BasisChange, residual: float) -> "IsoVerdict":
        return cls(KIND_ISOMORPHIC, certificate=certificate, residual=residual)

    @classmethod
    def not_isomorphic_exact(cls, reason: str) -> "IsoVerdict":
        return cls(KIND_NOT_ISOMORPHIC_EXACT, reason=reason)

    @classmethod
    def separated(cls, invariant: str) -> "IsoVerdict":
        return cls(KIND_SEPARATED_BY_INVARIANT, reason=invariant)

    @classmethod
    def not_found(cls) -> "IsoVerdict":
        return cls(KIND_NOT_FOUND_WITHIN_BUDGET)

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.certificate is not None:
            out["certificate"] = self.certificate.matrix.tolist()
        if self.residual is not None:
            out["residual"] = self.residual
        if self.reason is not None:
            out["reason"] = self.reason
        return out


# Levenberg iterations per restart of the numeric search.
_MAX_ITERATIONS = 200
_EYE4 = np.eye(4)
# The LAPACK gufunc behind np.linalg.solve for one right-hand side, called without
# the wrapper's checks and conversions: the same bits, and a singular system gives
# a step of nan (warning "invalid" unless ignored) where the wrapper raises LinAlgError.
_SOLVE = np.linalg._umath_linalg.solve1


@dataclass(frozen=True)
class SearchConfig:
    """Budget and reproducibility knobs for the numeric search."""

    restarts: int = 64
    tol: float = DEFAULT_TOL
    seed: int = 0

    def __post_init__(self) -> None:
        for name, value in (("restarts", self.restarts), ("seed", self.seed)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        check_tol(self.tol)
        if self.tol == 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class InvariantSignature:
    """Cheap isomorphism invariants; differing signatures certify non-isomorphism."""

    commutative: bool
    associative: bool
    rank_2x4: int

    def first_difference(self, other: "InvariantSignature") -> str | None:
        for name in ("commutative", "associative", "rank_2x4"):
            if getattr(self, name) != getattr(other, name):
                return name
        return None


# --- numeric search -----------------------------------------------------------


def _transform_residual(p, ca, cb) -> np.ndarray:
    """The 8 equations P.P.cA - cB.P, flattened; P, cA, cB as arrays or ``tolist()``."""
    (p00, p01), (p10, p11) = p
    ((a000, a001), (a010, a011)), ((a100, a101), (a110, a111)) = ca
    ((b000, b001), (b010, b011)), ((b100, b101), (b110, b111)) = cb
    # P_ip P_jq for rows (i, j) = (0, 0), (0, 1) and (1, 1); (1, 0) reuses v, as a b = b a.
    u00, u01, u11 = p00 * p00, p00 * p01, p01 * p01
    v00, v01, v10, v11 = p00 * p10, p00 * p11, p01 * p10, p01 * p11
    w00, w01, w11 = p10 * p10, p10 * p11, p11 * p11
    return np.array([
        0.0 + u00 * a000 + u01 * a010 + u01 * a100 + u11 * a110 - (b000 * p00 + b001 * p10),
        0.0 + u00 * a001 + u01 * a011 + u01 * a101 + u11 * a111 - (b000 * p01 + b001 * p11),
        0.0 + v00 * a000 + v01 * a010 + v10 * a100 + v11 * a110 - (b010 * p00 + b011 * p10),
        0.0 + v00 * a001 + v01 * a011 + v10 * a101 + v11 * a111 - (b010 * p01 + b011 * p11),
        0.0 + v00 * a000 + v10 * a010 + v01 * a100 + v11 * a110 - (b100 * p00 + b101 * p10),
        0.0 + v00 * a001 + v10 * a011 + v01 * a101 + v11 * a111 - (b100 * p01 + b101 * p11),
        0.0 + w00 * a000 + w01 * a010 + w01 * a100 + w11 * a110 - (b110 * p00 + b111 * p10),
        0.0 + w00 * a001 + w01 * a011 + w01 * a101 + w11 * a111 - (b110 * p01 + b111 * p11),
    ])


def _transform_jacobian(p, ca, cb) -> np.ndarray:
    """Analytic 8 x 4 Jacobian of ``_transform_residual`` in the entries of P:

        dR_ijk/dP_ab = delta_ia x_jbk + delta_ja y_ibk - delta_kb cB_ija,
        x_jbk = sum_q P_jq cA_bqk,    y_ibk = sum_p P_ip cA_pbk,

    row (i, j, k), column (a, b), in Python floats as (x + y) - cB with absent
    terms 0.0: the order of einsum, on which the pinned certificates depend.
    """
    (p00, p01), (p10, p11) = p
    ((a000, a001), (a010, a011)), ((a100, a101), (a110, a111)) = ca
    ((b000, b001), (b010, b011)), ((b100, b101), (b110, b111)) = cb
    x000, x001 = 0.0 + p00 * a000 + p01 * a010, 0.0 + p00 * a001 + p01 * a011
    x010, x011 = 0.0 + p00 * a100 + p01 * a110, 0.0 + p00 * a101 + p01 * a111
    x100, x101 = 0.0 + p10 * a000 + p11 * a010, 0.0 + p10 * a001 + p11 * a011
    x110, x111 = 0.0 + p10 * a100 + p11 * a110, 0.0 + p10 * a101 + p11 * a111
    y000, y001 = 0.0 + p00 * a000 + p01 * a100, 0.0 + p00 * a001 + p01 * a101
    y010, y011 = 0.0 + p00 * a010 + p01 * a110, 0.0 + p00 * a011 + p01 * a111
    y100, y101 = 0.0 + p10 * a000 + p11 * a100, 0.0 + p10 * a001 + p11 * a101
    y110, y111 = 0.0 + p10 * a010 + p11 * a110, 0.0 + p10 * a011 + p11 * a111
    return np.array([
        x000 + y000 - b000, x010 + y010, 0.0 - b001, 0.0,
        x001 + y001, x011 + y011 - b000, 0.0, 0.0 - b001,
        x100 - b010, x110, y000 - b011, y010,
        x101, x111 - b010, y001, y011 - b011,
        y100 - b100, y110, x000 - b101, x010,
        y101, y111 - b100, x001, x011 - b101,
        0.0 - b110, 0.0, x100 + y100 - b111, x110 + y110,
        0.0, 0.0 - b110, x101 + y101, x111 + y111 - b111,
    ]).reshape(8, 4)


# Past max|r| of about 1e154, r @ r and J^T J overflow: no numpy warnings.
@np.errstate(all="ignore")
def _levenberg_descent(p0: np.ndarray, ca, cb, cfg: SearchConfig) -> tuple[np.ndarray, float]:
    """Gauss-Newton with Levenberg damping from one starting matrix.

    P, ``ca`` and ``cb`` are nested lists.  Damping starts at 1e-3 and adapts
    by factors of 10.  A step holding a nan, which makes a residual nan and so is
    rejected, ends the descent where it stands: the solve fills the step with nan
    where the damped system is singular (lam below the rounding of an exactly
    singular J^T J), and a nan in J^T J or J^T r passes into it.  Returns the best
    point reached and its max-abs equation residual.
    """
    p = p0.tolist()
    r = _transform_residual(p, ca, cb)
    cost = float(r @ r)
    lam = 1e-3
    moved = True
    for _ in range(_MAX_ITERATIONS):
        if moved:  # a rejected step leaves p and r, and so J^T J and J^T r, as they were
            if max_abs(r.tolist()) <= cfg.tol:
                break
            jac = _transform_jacobian(p, ca, cb)
            grad = jac.T @ r
            if max_abs(grad.tolist()) < 1e-14:
                break  # stationary point, further iterations cannot move
            normal, descent = jac.T @ jac, -grad
        step = _SOLVE(normal + lam * _EYE4, descent, signature="dd->d").tolist()
        candidate = [[p[0][0] + step[0], p[0][1] + step[1]], [p[1][0] + step[2], p[1][1] + step[3]]]
        r_new = _transform_residual(candidate, ca, cb)
        cost_new = float(r_new @ r_new)
        moved = cost_new < cost
        if moved:
            p, r, cost = candidate, r_new, cost_new
            lam = max(lam / 10.0, 1e-12)
            if max_abs(step) < 1e-14:
                break
        else:
            lam *= 10.0
            if lam > 1e12 or any(map(math.isnan, step)):
                break
    return np.array(p), max_abs(r.tolist())


def iso_search(a: AlgebraFD, b: AlgebraFD, cfg: SearchConfig | None = None) -> IsoVerdict:
    """Hunt for a basis-change certificate between two algebras.

    Runs ``cfg.restarts`` Levenberg descents from random invertible starts
    (entries uniform in [-2, 2]), one at a time in index order, and returns
    the first certificate found.  A root P counts only if it carries a onto b
    within ``cfg.tol`` and P^-1 carries b back onto a (``_carries_back``); else
    the next restart runs.

    Where ``_search_ruled_out`` names an invariant that differs (of the trace
    form, or associativity where B is degenerate), no certificate exists, and
    the verdict is NotFoundWithinBudget at once, with no descent run.  A pair
    that neither rule decides and that has no certificate pays for every
    restart: about 11 ms for A0Plus against ACosPlus(0.5) at 64 restarts.

    A NotFoundWithinBudget verdict is not a proof of non-isomorphism.
    """
    if cfg is None:
        cfg = SearchConfig()
    ruled_out = _search_ruled_out(a, b)
    if ruled_out is not None:
        log.debug("iso_search skipped: %s", ruled_out)
        return IsoVerdict.not_found()
    ca, cb = a.constants.values.tolist(), b.constants.values.tolist()
    rng = np.random.default_rng(cfg.seed)
    verdict = IsoVerdict.not_found()
    overflowed = 0
    for _ in range(cfg.restarts):
        p0 = random_invertible(rng, EPS_DET, np.inf)
        p, eq_residual = _levenberg_descent(p0, ca, cb, cfg)
        # Where max|r| passes about 1e154 the descent cannot move: logged once below.
        overflowed += not math.isfinite(eq_residual * eq_residual)
        if eq_residual > cfg.tol:
            continue
        if abs(determinant(p)) <= EPS_DET:
            continue  # root of the polynomial system, but a singular one
        certificate = BasisChange(p)
        with np.errstate(all="ignore"):  # P P c P^-1 may overflow where c is huge
            residual = iso_residual(a, b, certificate)
        if residual <= cfg.tol and _carries_back(a, b, p, cfg.tol):
            verdict = IsoVerdict.isomorphic(certificate, residual)
            break
    if overflowed:
        log.debug("iso_search: %d descents ended where r @ r overflows", overflowed)
    return verdict


# The back residual of a certificate is held to this fraction of the scale of the two
# tensors, max(1, max|c|), where it exceeds tol: the cap of ``to_bekbaev``'s bound.
_BACK_MARGIN = 1e-6


def _carries_back(a: AlgebraFD, b: AlgebraFD, p: np.ndarray, tol: float) -> bool:
    """Whether P^-1 carries b back onto a, within max(tol, _BACK_MARGIN * max(1, max|c|)).

    As det P -> 0, P can carry a to within tol of an algebra b it is not isomorphic to
    (a degeneration: Bekbaev families 12 and 13 onto 14); P^-1 then misses a by about
    max|c|.  P^-1 = adj(P) / det P is taken in Python floats, since ``BasisChange``
    refuses P^-1 where |det P| >= 1e10.
    """
    ca, cb = a.constants.values.ravel().tolist(), b.constants.values.ravel().tolist()
    (p00, p01), (p10, p11) = p.tolist()
    det = det_entries(p00, p01, p10, p11)
    back = iso_residual_entries(cb, ca, ((p11 / det, -p01 / det), (-p10 / det, p00 / det)))
    return back <= tol or back <= _BACK_MARGIN * max(1.0, *map(abs, ca + cb))


# --- exact decision for the rotation flow ------------------------------------

# The certificate the rotation flow hands out, (-1)^k I, indexed by the parity of k.
_CERTIFICATES = (BasisChange(np.eye(2)), BasisChange(-np.eye(2)))

# What a NotIsomorphicExact verdict names first: an exceptional class (``class_codes``)
# that holds at one time only, since an isomorphism needs its condition at both or neither.
_ONE_TIME_ONLY = {
    A1: "sin t = 0 at one time only (isomorphism forces sin t1 = sin t2 = 0)",
    A0_PLUS: "cos t = 0 at one time only (isomorphism forces cos t1 = cos t2 = 0)",
    A2: "commutative at one time only (cos t + sin t = 0 must hold at both)",
}


# x + _HALF_EVEN - _HALF_EVEN rounds |x| < 2**51 to an integer, half to even (as round
# and np.rint do), with operators only, for floats and arrays alike.
_HALF_EVEN = 1.5 * 2.0**52


def _parity(k1, k2, d):
    """Parity of k in t2 = t1 + k*pi, from the half turns k1, k2 of ``reduce_mod_pi``
    and d = r2 - r1, near 0 or near +-pi where one residue wrapped round; for floats
    or equal-shaped arrays, operators only: 0.0 or 1.0 each."""
    return (k2 - k1 + ((d / math.pi + _HALF_EVEN) - _HALF_EVEN)) % 2


def _sign_residual(t1, t2, parity):
    """``iso_residual`` of (-1)^parity I from A^[t1] to A^[t2], for floats or
    equal-shaped arrays: max(|+-cos t1 - cos t2|, |+-sin t1 - sin t2|).  Every
    entry of a flow tensor is +-cos t or +-sin t and +-I moves a tensor to +-itself,
    so this is the transform's residual to the bit, with no tensor built."""
    sign = 1 - 2 * parity
    return np.maximum(abs(sign * np.cos(t1) - np.cos(t2)), abs(sign * np.sin(t1) - np.sin(t2)))


def rotation_iso(t1: float, t2: float, tol: float = DEFAULT_TOL) -> IsoVerdict:
    """Decide isomorphism of the rotation-flow algebras A^[t1] and A^[t2].

    The complete case analysis reduces to one condition: the algebras are
    isomorphic iff sin(t2 - t1) = 0, i.e. t2 = t1 + pi*k.  The certificate is
    (-1)^k I for the generic case, the cos t = 0 times and the commutative
    times alike.  Where sin t1 = 0 the isomorphisms form the family x1 = gamma,
    x2 = u - gamma, y1 = mu, y2 = u - mu (gamma != mu, u = cos t2 / cos t1),
    and (-1)^k I is its member gamma = u, mu = 0.

    Its residual is the closed form max(|+-cos t1 - cos t2|, |+-sin t1 - sin t2|),
    sign (-1)^k, which equals ``iso_residual`` of the two flow algebras to the bit.

    k and sin(r2 - r1) come from ``reduce_mod_pi``; times too large for
    ``tol`` are refused.  Times within ``tol`` of the locus count as on it if
    the certificate meets ``tol``, else not: distinct floats never differ by an
    exact multiple of pi, and equal times get the identity, residual 0.
    ``rotation_isomorphic`` gives the same decisions over arrays of times.  Any
    real times are taken as floats, so numpy float32 times get the verdict of
    their float64 values.
    """
    check_tol(tol)
    check_time(t1, tol)
    check_time(t2, tol)
    t1, t2 = float(t1), float(t2)  # a float32 time would reduce in float32
    k1, r1 = reduce_mod_pi(t1)
    k2, r2 = reduce_mod_pi(t2)

    d = r2 - r1
    residual = None
    if abs(math.sin(d)) <= tol:
        parity = int(_parity(k1, k2, d))
        certificate = _CERTIFICATES[parity]
        residual = float(_sign_residual(t1, t2, parity))
        if residual <= tol:
            log.debug("rotation_iso k %s, certificate %s", ("even", "odd")[parity],
                      certificate.matrix)
            return IsoVerdict.isomorphic(certificate, residual)
    variant1, variant2 = (VARIANTS[class_codes(r, tol)] for r in (r1, r2))
    reason = next((condition for variant, condition in _ONE_TIME_ONLY.items()
                   if (variant1 == variant) != (variant2 == variant)), None)
    if reason is None and residual is not None:
        reason = (f"certificate residual {residual!r} exceeds tol {tol!r}, "
                  "although |sin(t2 - t1)| is within it")
    return IsoVerdict.not_isomorphic_exact(
        reason or "sin(t2 - t1) != 0 (cos t2 / cos t1 and sin t2 / sin t1 cannot agree)")


def rotation_isomorphic(t1, t2, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``rotation_iso(t1, t2, tol).is_isomorphic`` for each pair of two arrays of
    times of one shape (or shapes that broadcast to one), as a bool array.

    Refuses what ``rotation_iso`` refuses (``flow.check_times``).  The closed-form
    certificate residual of ``rotation_iso`` is taken only on the pairs within tol
    of the locus.
    """
    t1, t2 = np.broadcast_arrays(np.asarray(t1, dtype=float), np.asarray(t2, dtype=float))
    check_tol(tol)
    check_times(t1, tol)
    check_times(t2, tol)
    (k1, r1), (k2, r2) = reduce_mod_pi(t1), reduce_mod_pi(t2)
    d = r2 - r1
    isomorphic = np.asarray(np.abs(np.sin(d)) <= tol)
    parity = _parity(k1[isomorphic], k2[isomorphic], d[isomorphic])
    isomorphic[isomorphic] = _sign_residual(t1[isomorphic], t2[isomorphic], parity) <= tol
    return isomorphic


def invariant_signature(a: AlgebraFD) -> InvariantSignature:
    """The (commutative, associative, rank of 2 x 4 form) triple.

    c -> lambda c is an isomorphism (P = lambda I), so the triple is taken of
    the tensor scaled by a power of two (exact) to max|c| in [1/2, 1): the
    absolute bounds of the predicates (``DEFAULT_TOL``, and 1e-8 on the singular
    values) then do not see the scale.  The one-tensor kernels of ``algebra``
    read the scaled entries as Python floats; no tensor or algebra is built.
    """
    c = unit_entries(a.constants.values.ravel().tolist())
    return InvariantSignature(
        commutative=commutativity_residual_entries(c) <= DEFAULT_TOL,
        associative=associativity_residual_entries(c) <= DEFAULT_TOL,
        rank_2x4=rank_2x4_entries(c),
    )


# The trace-form invariants, as a SeparatedByInvariant reason names them.
_TRACE_INVARIANTS = ("I1 = B^-1(tr L, tr L)", "I2 = B^-1(tr L, tr R)", "I3 = B^-1(tr R, tr R)")
# How far |det B| must stand above the scale of its rounding, and two invariants
# apart (in units of max(1, |I|)), for the invariants to separate.  Its square and
# square root bound the associativity rule of ``_search_ruled_out``.
_TRACE_MARGIN = 1e-6


def _trace_invariants(c: list) -> tuple[float, float, float] | None:
    """(I1, I2, I3) of the tensor c (nested lists), or None where B is near degenerate.

    With B(x, y) = tr(L_x L_y), B_ab = sum_jk c_ajk c_bkj, and the covectors
    l = tr L, r = tr R, the invariants are I1 = B^-1(l, l), I2 = B^-1(l, r) and
    I3 = B^-1(r, r).  Each is unchanged by a basis change and by c -> lambda c,
    so c is first scaled by a power of two (exact) to max|c| in [1/2, 1).

    An entry of c is known only to about the rounding of max|c|: a tensor moved
    in floats errs by that much in every entry, zeros included.  So B counts as
    nondegenerate only where |det B| > _TRACE_MARGIN * 2 S^4, S = sum |c_ijk|,
    2 S^4 bounding |det B|.  The rounding of B from c alone, sum_jk |c_ajk c_bkj|,
    is too small a floor: against it a family-2 member, with parameters
    (0, 4e-13, 0), and its move by [[1.5, 0], [0.4375, 1]] differ in I2 by 4e-4.
    Python floats throughout.
    """
    entries = unit_entries([x for plane in c for row in plane for x in row])
    a000, a001, a010, a011, a100, a101, a110, a111 = entries
    b00 = a000 * a000 + a001 * a010 + a010 * a001 + a011 * a011
    b01 = a000 * a100 + a001 * a110 + a010 * a101 + a011 * a111
    b11 = a100 * a100 + a101 * a110 + a110 * a101 + a111 * a111
    det = b00 * b11 - b01 * b01
    if not abs(det) > _TRACE_MARGIN * 2.0 * sum(map(abs, entries)) ** 4:
        return None
    l0, l1 = a000 + a011, a100 + a111
    r0, r1 = a000 + a101, a010 + a111

    def inverse_form(u0, u1, v0, v1):  # B^-1(u, v), from the adjugate of B
        return (u0 * v0 * b11 - (u0 * v1 + u1 * v0) * b01 + u1 * v1 * b00) / det

    return inverse_form(l0, l1, l0, l1), inverse_form(l0, l1, r0, r1), inverse_form(r0, r1, r0, r1)


def trace_separation(a: AlgebraFD, b: AlgebraFD) -> str | None:
    """The trace-form invariant that separates a from b, with both values, or None.

    None unless B is nondegenerate on both sides (``_trace_invariants``) and some
    invariant differs by more than _TRACE_MARGIN * max(1, |I(a)|, |I(b)|).  A
    separated pair is not isomorphic: no basis change carries a onto b.
    """
    ia = _trace_invariants(a.constants.values.tolist())
    ib = _trace_invariants(b.constants.values.tolist()) if ia is not None else None
    return None if ib is None else _trace_difference(ia, ib)


def _trace_difference(ia: tuple, ib: tuple) -> str | None:
    """The first invariant of ia and ib that differs beyond the margin, with both values."""
    for name, x, y in zip(_TRACE_INVARIANTS, ia, ib):
        if abs(x - y) > _TRACE_MARGIN * max(1.0, abs(x), abs(y)):
            return f"{name}: {x!r} vs {y!r}"
    return None


def _search_ruled_out(a: AlgebraFD, b: AlgebraFD) -> str | None:
    """The invariant that rules out every certificate from a to b, or None.

    Where B is nondegenerate on both sides, ``trace_separation(a, b)``.  Else
    associativity, with a gap of 1e9: of the residuals of a and b, each scaled
    as in ``invariant_signature``, one at most _TRACE_MARGIN**2, the other above
    _TRACE_MARGIN**0.5.  Measured, a move with |det P| >= 1e-3 keeps an associative
    member below 4e-13 and changes a perturbed member's residual at most 3.4e5-fold.
    Its first lines are those of ``trace_separation``: a helper for the pair of
    invariants would add as many lines as it removes.
    """
    ia = _trace_invariants(a.constants.values.tolist())
    ib = _trace_invariants(b.constants.values.tolist()) if ia is not None else None
    if ib is not None:
        return _trace_difference(ia, ib)
    ra, rb = (associativity_residual_entries(unit_entries(x.constants.values.ravel().tolist()))
              for x in (a, b))
    if min(ra, rb) <= _TRACE_MARGIN**2 and max(ra, rb) > _TRACE_MARGIN**0.5:
        return f"associativity residual: {ra!r} vs {rb!r}"
    return None
