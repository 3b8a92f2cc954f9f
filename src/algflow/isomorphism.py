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
  last bit and keep the einsum forms as the oracle.

* ``invariant_signature`` separates algebras by cheap isomorphism
  invariants (commutativity, associativity, rank of the 2 x 4 form).

Certificates are sound by construction: an Isomorphic verdict always
carries a basis change whose transformation residual is below tolerance.
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
    check_tol,
    determinant,
    is_associative,
    is_commutative,
    iso_residual,
    random_invertible,
    rank_2x4,
)
from .classification import A0_PLUS, A1, A2, VARIANTS, class_codes
from .cubic import CubicTensor
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


def _max_abs(values: list[float]) -> float:
    """``np.max(np.abs(values))`` of a list of floats: nan if any value is nan."""
    mags = list(map(abs, values))
    return math.nan if math.isnan(sum(mags)) else max(mags)


def _levenberg_descent(p0: np.ndarray, ca, cb, cfg: SearchConfig) -> tuple[np.ndarray, float]:
    """Gauss-Newton with Levenberg damping from one starting matrix.

    P, ``ca`` and ``cb`` are nested lists.  Damping starts at 1e-3 and adapts
    by factors of 10.  Returns the best point reached and its max-abs equation residual.
    """
    p = p0.tolist()
    r = _transform_residual(p, ca, cb)
    cost = float(r @ r)
    lam = 1e-3
    for _ in range(_MAX_ITERATIONS):
        if _max_abs(r.tolist()) <= cfg.tol:
            break
        jac = _transform_jacobian(p, ca, cb)
        grad = jac.T @ r
        if _max_abs(grad.tolist()) < 1e-14:
            break  # stationary point, further iterations cannot move
        step = np.linalg.solve(jac.T @ jac + lam * _EYE4, -grad).tolist()
        candidate = [[p[0][0] + step[0], p[0][1] + step[1]], [p[1][0] + step[2], p[1][1] + step[3]]]
        r_new = _transform_residual(candidate, ca, cb)
        cost_new = float(r_new @ r_new)
        if cost_new < cost:
            p, r, cost = candidate, r_new, cost_new
            lam = max(lam / 10.0, 1e-12)
            if _max_abs(step) < 1e-14:
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    return np.array(p), _max_abs(r.tolist())


def iso_search(a: AlgebraFD, b: AlgebraFD, cfg: SearchConfig | None = None) -> IsoVerdict:
    """Hunt for a basis-change certificate between two algebras.

    Runs ``cfg.restarts`` Levenberg descents from random invertible starts
    (entries uniform in [-2, 2]).  Restarts are independent, so they could
    run concurrently; this implementation walks them in index order and
    returns the first certificate found, which gives the same result as a
    parallel first-found merge with index tie-break.

    A NotFoundWithinBudget verdict is not a proof of non-isomorphism.
    """
    if cfg is None:
        cfg = SearchConfig()
    ca, cb = a.constants.values.tolist(), b.constants.values.tolist()
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.restarts):
        p0 = random_invertible(rng, EPS_DET, np.inf)
        p, eq_residual = _levenberg_descent(p0, ca, cb, cfg)
        if eq_residual > cfg.tol:
            continue
        if abs(determinant(p)) <= EPS_DET:
            continue  # root of the polynomial system, but a singular one
        certificate = BasisChange(p)
        residual = iso_residual(a, b, certificate)
        if residual <= cfg.tol:
            return IsoVerdict.isomorphic(certificate, residual)
    return IsoVerdict.not_found()


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
    ``rotation_isomorphic`` gives the same decisions over arrays of times.
    """
    check_tol(tol)
    check_time(t1, tol)
    check_time(t2, tol)
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
    absolute bounds of the predicates then do not see the scale.
    """
    c = a.constants.values
    scaled = AlgebraFD(CubicTensor(np.ldexp(c, -math.frexp(float(np.abs(c).max()))[1])))
    return InvariantSignature(
        commutative=is_commutative(scaled),
        associative=is_associative(scaled),
        rank_2x4=rank_2x4(scaled),
    )
