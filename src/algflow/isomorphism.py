"""Isomorphism testing for two-dimensional algebras.

Three complementary tools:

* ``rotation_iso`` decides isomorphism of two rotation-flow algebras A^[t1],
  A^[t2] exactly, by case analysis on the times: the algebras are isomorphic
  precisely when sin(t2 - t1) = 0, and the decider returns an explicit
  basis-change certificate on the positive side or the violated case
  condition on the negative side.

* ``iso_search`` attacks the general problem numerically: an isomorphism is
  an invertible P solving the quadratic system

      sum_{p,q} P_ip P_jq cA_{pqk} = sum_r cB_{ijr} P_rk     (all i, j, k),

  eight polynomial equations in the four entries of P.  A multi-start
  Gauss-Newton descent with Levenberg damping hunts for a root with
  |det P| bounded away from zero.  Failure to find one is NOT a proof of
  non-isomorphism, and the verdict says so.

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
    check_dim2,
    check_tol,
    determinant,
    is_associative,
    is_commutative,
    iso_residual,
    iso_residuals,
    random_invertible,
    rank_2x4,
)
from .flow import check_time, flow_tensors, reduce_mod_pi

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


@dataclass(frozen=True)
class SearchConfig:
    """Budget and reproducibility knobs for the numeric search."""

    restarts: int = 64
    tol: float = DEFAULT_TOL
    seed: int = 0

    def __post_init__(self) -> None:
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


def _transform_residual(p: np.ndarray, ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """The 8 polynomial equations, flattened: P.P.cA - cB.P."""
    lhs = np.einsum("ip,jq,pqk->ijk", p, p, ca)
    rhs = np.einsum("ijr,rk->ijk", cb, p)
    return (lhs - rhs).ravel()


def _transform_jacobian(p: np.ndarray, ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """Analytic 8 x 4 Jacobian of ``_transform_residual`` in the entries of P.

    Row (i, j, k), column (a, b):

        dR_ijk/dP_ab = delta_ia sum_q P_jq cA_bqk + delta_ja sum_p P_ip cA_pbk
                       - delta_kb cB_ija.
    """
    eye = np.eye(2)
    jac = (
        np.einsum("ia,jbk->ijkab", eye, np.einsum("jq,bqk->jbk", p, ca))
        + np.einsum("ja,ibk->ijkab", eye, np.einsum("ip,pbk->ibk", p, ca))
        - np.einsum("kb,ija->ijkab", eye, cb)
    )
    return jac.reshape(8, 4)


def _levenberg_descent(
    p0: np.ndarray, ca: np.ndarray, cb: np.ndarray, cfg: SearchConfig
) -> tuple[np.ndarray, float]:
    """Gauss-Newton with Levenberg damping from one starting matrix.

    Damping starts at 1e-3 and adapts by factors of 10.  Returns the best
    point reached and its max-abs equation residual.
    """
    p = p0.copy()
    r = _transform_residual(p, ca, cb)
    cost = float(r @ r)
    lam = 1e-3
    for _ in range(_MAX_ITERATIONS):
        if float(np.max(np.abs(r))) <= cfg.tol:
            break
        jac = _transform_jacobian(p, ca, cb)
        grad = jac.T @ r
        if float(np.max(np.abs(grad))) < 1e-14:
            break  # stationary point, further iterations cannot move
        step = np.linalg.solve(jac.T @ jac + lam * np.eye(4), -grad)
        candidate = p + step.reshape(2, 2)
        r_new = _transform_residual(candidate, ca, cb)
        cost_new = float(r_new @ r_new)
        if cost_new < cost:
            p, r, cost = candidate, r_new, cost_new
            lam = max(lam / 10.0, 1e-12)
            if float(np.max(np.abs(step))) < 1e-14:
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    return p, float(np.max(np.abs(r)))


def iso_search(a: AlgebraFD, b: AlgebraFD, cfg: SearchConfig | None = None) -> IsoVerdict:
    """Hunt for a basis-change certificate between two dim-2 algebras.

    Runs ``cfg.restarts`` Levenberg descents from random invertible starts
    (entries uniform in [-2, 2]).  Restarts are independent, so they could
    run concurrently; this implementation walks them in index order and
    returns the first certificate found, which gives the same result as a
    parallel first-found merge with index tie-break.

    A NotFoundWithinBudget verdict is not a proof of non-isomorphism.
    """
    check_dim2(a, b)
    if cfg is None:
        cfg = SearchConfig()
    ca, cb = a.constants.values, b.constants.values
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

# The certificates rotation_iso hands out, keyed by (sin t1 = 0, (-1)^k), built once.
_CERTIFICATES = {(sin_zero, sign): BasisChange(
    np.array([[1.0, sign - 1.0], [0.0, sign]]) if sin_zero else sign * np.eye(2))
    for sin_zero in (False, True) for sign in (1.0, -1.0)}


def rotation_iso(t1: float, t2: float, tol: float = DEFAULT_TOL) -> IsoVerdict:
    """Decide isomorphism of the rotation-flow algebras A^[t1] and A^[t2].

    The complete case analysis reduces to one condition: the algebras are
    isomorphic iff sin(t2 - t1) = 0, i.e. t2 = t1 + pi*k.  Certificates:

    * sin t1 = 0 (both times multiples of pi): a representative of the
      solution family x1 = gamma, x2 = u - gamma, y1 = mu, y2 = u - mu
      (gamma != mu), taken at gamma = 1, mu = 0, where u = cos t2 / cos t1,
      but where its residual, up to some 14 |sin t1|, exceeds tol, the one below;
    * otherwise x1 = y2 = cos t2 / cos t1, x2 = y1 = 0, which covers the
      generic case, the cos t = 0 times and the commutative times alike.

    On the locus cos t2 / cos t1 equals (-1)^k exactly, and that value is
    used, keeping the certificate residual at rounding level even when the
    inputs sit at the edge of the tolerance band.

    k and sin(r2 - r1) come from ``reduce_mod_pi``; times too large for
    ``tol`` are refused.  Times within ``tol`` of the locus count as on it.
    """
    check_tol(tol)
    check_time(t1, tol)
    check_time(t2, tol)
    k1, r1 = reduce_mod_pi(t1)
    k2, r2 = reduce_mod_pi(t2)

    d = r2 - r1
    if abs(math.sin(d)) <= tol:
        # r2 - r1 is near 0, or near +-pi where one residue wrapped round.
        k = k2 - k1 + round(d / math.pi)
        tensors = flow_tensors(np.array([t1, t2]))
        for sin_zero in (abs(math.sin(r1)) <= tol, False):
            certificate = _CERTIFICATES[sin_zero, -1.0 if k % 2 else 1.0]
            residual = float(iso_residuals(tensors[:1], tensors[1:],
                                           certificate.matrix[np.newaxis])[0])
            if residual <= tol:
                break
        else:
            raise AssertionError(
                f"certificate soundness violated: residual {residual:.3e} > {tol:.1e}"
            )
        log.debug("rotation_iso case sin t1 %s 0, k %s, certificate %s",
                  "=" if sin_zero else "!=", "odd" if k % 2 else "even", certificate.matrix)
        return IsoVerdict.isomorphic(certificate, residual)

    return IsoVerdict.not_isomorphic_exact(_violated_condition(r1, r2, tol))


def _violated_condition(r1: float, r2: float, tol: float) -> str:
    """Name the case condition that rules out an isomorphism, from the times
    reduced mod pi (a shift by pi flips the signs of cos t and sin t only)."""
    for condition, value in (
        ("sin t = 0 at one time only (isomorphism forces sin t1 = sin t2 = 0)", math.sin),
        ("cos t = 0 at one time only (isomorphism forces cos t1 = cos t2 = 0)", math.cos),
        ("commutative at one time only (cos t + sin t = 0 must hold at both)",
         lambda r: math.cos(r) + math.sin(r)),
    ):
        if (abs(value(r1)) <= tol) != (abs(value(r2)) <= tol):
            return condition
    return "sin(t2 - t1) != 0 (cos t2 / cos t1 and sin t2 / sin t1 cannot agree)"


def invariant_signature(a: AlgebraFD) -> InvariantSignature:
    """The (commutative, associative, rank of 2 x 4 form) triple."""
    check_dim2(a)
    return InvariantSignature(
        commutative=is_commutative(a),
        associative=is_associative(a),
        rank_2x4=rank_2x4(a),
    )
