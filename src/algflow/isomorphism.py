"""Isomorphism testing for two-dimensional algebras.

Three complementary tools:

* ``rotation_iso`` decides isomorphism of two rotation-flow algebras A^[t1],
  A^[t2] exactly, by case analysis on the times: the algebras are isomorphic
  precisely when sin(t2 - t1) = 0, and the decider returns an explicit
  basis-change certificate on the positive side or the violated case
  condition on the negative side.  ``rotation_isomorphic`` takes the same
  decisions over arrays of times, without verdicts.

* ``decide`` attacks the general problem numerically: an isomorphism is
  an invertible P solving the quadratic system

      sum_{p,q} P_ip P_jq cA_{pqk} = sum_r cB_{ijr} P_rk     (all i, j, k),

  eight polynomial equations in the four entries of P.  A multi-start
  Gauss-Newton descent with Levenberg damping hunts for a root with
  |det P| bounded away from zero.  Failure to find one is NOT a proof of
  non-isomorphism, and the verdict says so.  The equations and their
  Jacobian are closed forms in Python floats, summed from 0.0 in the order
  of ``np.einsum`` on C-ordered arrays: the tests pin certificates to the
  last bit and keep the einsum forms as the oracle.  So are the normal
  equations, their damped Cholesky solve and the certificate's residual
  (``iso_residual_entries``): no BLAS or LAPACK call runs in the search, and
  its verdict bits do not depend on the kernel numpy's BLAS picks for the CPU.
  The restarts run one at a time, in index order, and the first certificate
  is the verdict.  The kernels read a tensor as those of
  ``algebra`` do, its eight Python floats c_ijk in (i, j, k) order, and P as
  its rows ((a, b), (c, d)); ``decide`` reads each side twice, in
  ``_search_ruled_out`` and for the descent.

* ``invariant_signature`` separates algebras by cheap isomorphism
  invariants (commutativity, associativity, rank of the 2 x 4 form).
  ``decide``, the one decision for two algebras, runs no descent where one
  skip rule rules out every certificate (SeparatedByInvariant): a field of
  the signature with a grey zone of 1e9 between the two residuals, else an
  invariant of the trace form B(x, y) = tr(L_x L_y) where B is nondegenerate
  on both sides.  ``iso_search`` is ``decide`` that reports such a pair
  NotFoundWithinBudget.

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
    CERTIFICATE_CAP,
    DEFAULT_TOL,
    EPS_DET,
    AlgebraFD,
    BasisChange,
    associativity_residual_entries,
    check_tol,
    commutativity_residual_entries,
    det_entries,
    gram_2x4_entries,
    inverse_entries,
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
    "decide",
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
_TINY = 2.0**-1022  # the smallest normal float


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


def _transform_residual(p, ca, cb) -> list:
    """The 8 equations P.P.cA - cB.P, flattened: P its rows ((a, b), (c, d)), cA and cB
    their eight entries c_ijk in (i, j, k) order, as Python floats."""
    (p00, p01), (p10, p11) = p
    a000, a001, a010, a011, a100, a101, a110, a111 = ca
    b000, b001, b010, b011, b100, b101, b110, b111 = cb
    # P_ip P_jq for rows (i, j) = (0, 0), (0, 1) and (1, 1); (1, 0) reuses v, as a b = b a.
    u00, u01, u11 = p00 * p00, p00 * p01, p01 * p01
    v00, v01, v10, v11 = p00 * p10, p00 * p11, p01 * p10, p01 * p11
    w00, w01, w11 = p10 * p10, p10 * p11, p11 * p11
    return [
        0.0 + u00 * a000 + u01 * a010 + u01 * a100 + u11 * a110 - (b000 * p00 + b001 * p10),
        0.0 + u00 * a001 + u01 * a011 + u01 * a101 + u11 * a111 - (b000 * p01 + b001 * p11),
        0.0 + v00 * a000 + v01 * a010 + v10 * a100 + v11 * a110 - (b010 * p00 + b011 * p10),
        0.0 + v00 * a001 + v01 * a011 + v10 * a101 + v11 * a111 - (b010 * p01 + b011 * p11),
        0.0 + v00 * a000 + v10 * a010 + v01 * a100 + v11 * a110 - (b100 * p00 + b101 * p10),
        0.0 + v00 * a001 + v10 * a011 + v01 * a101 + v11 * a111 - (b100 * p01 + b101 * p11),
        0.0 + w00 * a000 + w01 * a010 + w01 * a100 + w11 * a110 - (b110 * p00 + b111 * p10),
        0.0 + w00 * a001 + w01 * a011 + w01 * a101 + w11 * a111 - (b110 * p01 + b111 * p11),
    ]


def _transform_jacobian(p, ca, cb) -> list:
    """Analytic 8 x 4 Jacobian of ``_transform_residual`` in the entries of P, row by row:

        dR_ijk/dP_ab = delta_ia x_jbk + delta_ja y_ibk - delta_kb cB_ija,
        x_jbk = sum_q P_jq cA_bqk,    y_ibk = sum_p P_ip cA_pbk,

    row (i, j, k), column (a, b), in Python floats as (x + y) - cB with absent
    terms 0.0: the order of einsum, on which the pinned certificates depend.
    """
    (p00, p01), (p10, p11) = p
    a000, a001, a010, a011, a100, a101, a110, a111 = ca
    b000, b001, b010, b011, b100, b101, b110, b111 = cb
    x000, x001 = 0.0 + p00 * a000 + p01 * a010, 0.0 + p00 * a001 + p01 * a011
    x010, x011 = 0.0 + p00 * a100 + p01 * a110, 0.0 + p00 * a101 + p01 * a111
    x100, x101 = 0.0 + p10 * a000 + p11 * a010, 0.0 + p10 * a001 + p11 * a011
    x110, x111 = 0.0 + p10 * a100 + p11 * a110, 0.0 + p10 * a101 + p11 * a111
    y000, y001 = 0.0 + p00 * a000 + p01 * a100, 0.0 + p00 * a001 + p01 * a101
    y010, y011 = 0.0 + p00 * a010 + p01 * a110, 0.0 + p00 * a011 + p01 * a111
    y100, y101 = 0.0 + p10 * a000 + p11 * a100, 0.0 + p10 * a001 + p11 * a101
    y110, y111 = 0.0 + p10 * a010 + p11 * a110, 0.0 + p10 * a011 + p11 * a111
    return [
        x000 + y000 - b000, x010 + y010, 0.0 - b001, 0.0,
        x001 + y001, x011 + y011 - b000, 0.0, 0.0 - b001,
        x100 - b010, x110, y000 - b011, y010,
        x101, x111 - b010, y001, y011 - b011,
        y100 - b100, y110, x000 - b101, x010,
        y101, y111 - b100, x001, x011 - b101,
        0.0 - b110, 0.0, x100 + y100 - b111, x110 + y110,
        0.0, 0.0 - b110, x101 + y101, x111 + y111 - b111,
    ]


def _frobenius2(p) -> float:
    """|P|_F^2 of a 2 x 2 matrix as its rows, in Python floats."""
    (p00, p01), (p10, p11) = p
    return p00 * p00 + p01 * p01 + p10 * p10 + p11 * p11


def _dot(u, v) -> float:
    """0.0 + u0 v0 + ... + u7 v7 of two sequences of 8 Python floats, summed in that
    order: the builtin sum compensates its rounding from Python 3.12 on."""
    u0, u1, u2, u3, u4, u5, u6, u7 = u
    v0, v1, v2, v3, v4, v5, v6, v7 = v
    return 0.0 + u0 * v0 + u1 * v1 + u2 * v2 + u3 * v3 + u4 * v4 + u5 * v5 + u6 * v6 + u7 * v7


def _normal_equations(jac: list, r: list) -> tuple[list, list]:
    """The 10 upper-triangle entries of J^T J, row by row, and the 4 of J^T r, from the
    32 entries of J row by row (``_transform_jacobian``) and the 8 of r, each sum
    written out as ``_dot`` writes it."""
    (a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3,
     e0, e1, e2, e3, f0, f1, f2, f3, g0, g1, g2, g3, h0, h1, h2, h3) = jac
    r0, r1, r2, r3, r4, r5, r6, r7 = r
    return [
        0.0 + a0 * a0 + b0 * b0 + c0 * c0 + d0 * d0 + e0 * e0 + f0 * f0 + g0 * g0 + h0 * h0,
        0.0 + a0 * a1 + b0 * b1 + c0 * c1 + d0 * d1 + e0 * e1 + f0 * f1 + g0 * g1 + h0 * h1,
        0.0 + a0 * a2 + b0 * b2 + c0 * c2 + d0 * d2 + e0 * e2 + f0 * f2 + g0 * g2 + h0 * h2,
        0.0 + a0 * a3 + b0 * b3 + c0 * c3 + d0 * d3 + e0 * e3 + f0 * f3 + g0 * g3 + h0 * h3,
        0.0 + a1 * a1 + b1 * b1 + c1 * c1 + d1 * d1 + e1 * e1 + f1 * f1 + g1 * g1 + h1 * h1,
        0.0 + a1 * a2 + b1 * b2 + c1 * c2 + d1 * d2 + e1 * e2 + f1 * f2 + g1 * g2 + h1 * h2,
        0.0 + a1 * a3 + b1 * b3 + c1 * c3 + d1 * d3 + e1 * e3 + f1 * f3 + g1 * g3 + h1 * h3,
        0.0 + a2 * a2 + b2 * b2 + c2 * c2 + d2 * d2 + e2 * e2 + f2 * f2 + g2 * g2 + h2 * h2,
        0.0 + a2 * a3 + b2 * b3 + c2 * c3 + d2 * d3 + e2 * e3 + f2 * f3 + g2 * g3 + h2 * h3,
        0.0 + a3 * a3 + b3 * b3 + c3 * c3 + d3 * d3 + e3 * e3 + f3 * f3 + g3 * g3 + h3 * h3,
    ], [
        0.0 + a0 * r0 + b0 * r1 + c0 * r2 + d0 * r3 + e0 * r4 + f0 * r5 + g0 * r6 + h0 * r7,
        0.0 + a1 * r0 + b1 * r1 + c1 * r2 + d1 * r3 + e1 * r4 + f1 * r5 + g1 * r6 + h1 * r7,
        0.0 + a2 * r0 + b2 * r1 + c2 * r2 + d2 * r3 + e2 * r4 + f2 * r5 + g2 * r6 + h2 * r7,
        0.0 + a3 * r0 + b3 * r1 + c3 * r2 + d3 * r3 + e3 * r4 + f3 * r5 + g3 * r6 + h3 * r7,
    ]


def _damped_solve(normal: list, grad: list, lam: float) -> list:
    """The step s of (J^T J + lam I) s = -J^T r, from ``_normal_equations``, by the
    Cholesky factor L of the damped matrix (L L^T), in Python floats.

    A pivot that is not > 0, nan included, is taken as nan, which passes into every
    entry of the step: four nan where the damped matrix is not numerically positive
    definite (lam below the rounding of a singular J^T J) or holds a nan.
    """
    n00, n01, n02, n03, n11, n12, n13, n22, n23, n33 = normal
    g0, g1, g2, g3 = grad
    d = n00 + lam
    l00 = math.sqrt(d) if d > 0.0 else math.nan
    l10, l20, l30 = n01 / l00, n02 / l00, n03 / l00
    d = n11 + lam - l10 * l10
    l11 = math.sqrt(d) if d > 0.0 else math.nan
    l21, l31 = (n12 - l20 * l10) / l11, (n13 - l30 * l10) / l11
    d = n22 + lam - l20 * l20 - l21 * l21
    l22 = math.sqrt(d) if d > 0.0 else math.nan
    l32 = (n23 - l30 * l20 - l31 * l21) / l22
    d = n33 + lam - l30 * l30 - l31 * l31 - l32 * l32
    l33 = math.sqrt(d) if d > 0.0 else math.nan
    # L y = -J^T r, then L^T s = y.
    y0 = -g0 / l00
    y1 = (-g1 - l10 * y0) / l11
    y2 = (-g2 - l20 * y0 - l21 * y1) / l22
    y3 = (-g3 - l30 * y0 - l31 * y1 - l32 * y2) / l33
    s3 = y3 / l33
    s2 = (y2 - l32 * s3) / l22
    s1 = (y1 - l21 * s2 - l31 * s3) / l11
    return [(y0 - l10 * s1 - l20 * s2 - l30 * s3) / l00, s1, s2, s3]


def _trivial_root_radius2(ca, cb) -> float:
    """(rho* / 4)^2 for the entries ca, cb of two tensors, where rho* = sigma / |cA|_F.

    No root P != 0 has |P|_F < rho*: |cB.P|_F >= sigma |P|_F and |P.P.cA|_F <= |P|_F^2 |cA|_F,
    with sigma the smaller singular value of the 4 x 2 matrix M = (cB_ijr).  sigma^2 is taken
    as det(M^T M) / sigma_max^2, det the sum of the squared 2 x 2 minors of M
    (``gram_2x4_entries`` of cb).  Returns 0.0, no exit, below sigma = 1e-8 sigma_max (b of
    rank one) and where a value is not a normal positive float.  Python floats only: it
    never raises or warns.
    """
    smax2, (m01, m02, m03, m12, m13, m23) = gram_2x4_entries(cb)
    det = m01 * m01 + m02 * m02 + m03 * m03 + m12 * m12 + m13 * m13 + m23 * m23
    a2 = _frobenius2((ca[:2], ca[2:4])) + _frobenius2((ca[4:6], ca[6:]))  # plane by plane
    if not (_TINY <= det and _TINY <= smax2 < math.inf and _TINY <= a2 < math.inf):
        return 0.0
    r2 = det / smax2 / (16.0 * a2) if det / smax2 > 1e-16 * smax2 else 0.0
    return r2 if _TINY <= r2 < math.inf else 0.0


def _levenberg_descent(p, ca, cb, tol: float, radius2: float) -> tuple[list, float]:
    """Gauss-Newton with Levenberg damping from P = p down to ``tol``; P as its rows and
    ``ca``, ``cb`` as the eight entries c_ijk in (i, j, k) order, Python floats, and
    so is all its arithmetic: past max|r| of about 1e154 r.r and J^T J overflow
    quietly.

    Damping starts at 1e-3 and adapts by factors of 10.  A step holding a nan, which
    makes a residual nan and so is rejected, ends the descent where it stands: the solve
    fills the step with nan where the damped system is not positive definite (lam below
    the rounding of a singular J^T J), and a nan in J^T J or J^T r passes into it.  So
    does an accepted step into |P|_F^2 < radius2 (``_trivial_root_radius2`` of ca, cb),
    where no root but P = 0 lies; the start is not tested.  Returns the best point
    reached, as rows, and its max-abs residual.
    """
    r = _transform_residual(p, ca, cb)
    cost = _dot(r, r)
    lam = 1e-3
    moved = True
    for _ in range(_MAX_ITERATIONS):
        if moved:  # a rejected step leaves p and r, and so J^T J and J^T r, as they were
            if max_abs(r) <= tol:
                break
            normal, grad = _normal_equations(_transform_jacobian(p, ca, cb), r)
            if max_abs(grad) < 1e-14:
                break  # stationary point, further iterations cannot move
        step = _damped_solve(normal, grad, lam)
        candidate = [[p[0][0] + step[0], p[0][1] + step[1]], [p[1][0] + step[2], p[1][1] + step[3]]]
        r_new = _transform_residual(candidate, ca, cb)
        cost_new = _dot(r_new, r_new)
        moved = cost_new < cost
        if moved:
            p, r, cost = candidate, r_new, cost_new
            lam = max(lam / 10.0, 1e-12)
            if max_abs(step) < 1e-14 or _frobenius2(p) < radius2:
                break
        else:
            lam *= 10.0
            if lam > 1e12 or any(map(math.isnan, step)):
                break
    return p, max_abs(r)


def iso_search(a: AlgebraFD, b: AlgebraFD, cfg: SearchConfig | None = None) -> IsoVerdict:
    """``decide``, with SeparatedByInvariant reported as NotFoundWithinBudget: no descent
    runs on such a pair.  A NotFoundWithinBudget verdict is not a proof of non-isomorphism."""
    verdict = decide(a, b, cfg)
    return IsoVerdict.not_found() if verdict.kind == KIND_SEPARATED_BY_INVARIANT else verdict


def decide(a: AlgebraFD, b: AlgebraFD, cfg: SearchConfig | None = None) -> IsoVerdict:
    """The one decision for two algebras: SeparatedByInvariant where ``_search_ruled_out``
    names an invariant that rules out every certificate, else the first certificate of
    the restarts, or NotFoundWithinBudget.

    Runs ``cfg.restarts`` Levenberg descents from random invertible starts
    (entries uniform in [-2, 2]), one at a time in index order.  A root P counts
    only if it carries a onto b within ``cfg.tol`` and P^-1 carries b back onto a
    (``_carries_back``); else the next restart runs.

    Most restarts head for P = 0, which solves the equations but is no basis change.
    A descent ends once an accepted step takes it inside |P|_F < rho* / 4, a ball
    around P = 0 that holds no other root (``_trivial_root_radius2``).  That no
    descent would have left the ball for a certificate is measured, not proved.
    A pair that the rule leaves and that has no certificate pays for every
    restart: about 2.3 ms for A0Plus against ACosPlus(0.5) at 64 restarts.
    """
    separating = _search_ruled_out(a, b)
    if separating is not None:
        return IsoVerdict.separated(separating)
    if cfg is None:
        cfg = SearchConfig()
    ca, cb = a.constants.values.ravel().tolist(), b.constants.values.ravel().tolist()
    rng = np.random.default_rng(cfg.seed)
    verdict = IsoVerdict.not_found()
    overflowed = inside = 0
    radius2 = _trivial_root_radius2(ca, cb)
    for _ in range(cfg.restarts):
        p0 = random_invertible(rng, EPS_DET, np.inf).tolist()
        p, eq_residual = _levenberg_descent(p0, ca, cb, cfg.tol, radius2)
        # Where max|r| passes about 1e154 the descent cannot move: logged once below.
        overflowed += not math.isfinite(eq_residual * eq_residual)
        inside += _frobenius2(p) < radius2
        if eq_residual > cfg.tol:
            continue
        if abs(det_entries(*p[0], *p[1])) <= EPS_DET:
            continue  # root of the polynomial system, but a singular one
        residual = iso_residual_entries(ca, cb, p)
        if residual <= cfg.tol and _carries_back(ca, cb, p, cfg.tol):
            verdict = IsoVerdict.isomorphic(BasisChange(p), residual)
            break
    if overflowed:
        log.debug("decide: %d descents ended where r @ r overflows", overflowed)
    if inside:
        log.debug("decide: %d descents ended in the root-free ball around P = 0", inside)
    return verdict


def _carries_back(ca: list, cb: list, p: list, tol: float) -> bool:
    """Whether P^-1 carries b back onto a, within max(tol, CERTIFICATE_CAP * max(1, max|c|)).

    As det P -> 0, P can carry a to within tol of an algebra b it is not isomorphic to
    (a degeneration: Bekbaev families 12 and 13 onto 14); P^-1 then misses a by about
    max|c|.  P^-1 is taken in Python floats (``inverse_entries``), since ``BasisChange``
    refuses P^-1 where |det P| >= 1e10.
    """
    back = iso_residual_entries(cb, ca, inverse_entries(*p[0], *p[1]))
    return back <= tol or back <= CERTIFICATE_CAP * max(1.0, *map(abs, ca + cb))


# --- exact decision for the rotation flow ------------------------------------

# The certificate the rotation flow hands out, (-1)^k I, indexed by the parity of k.
_CERTIFICATES = (BasisChange(np.eye(2)), BasisChange(-np.eye(2)))

# What a NotIsomorphicExact verdict names first: an exceptional class (``class_codes``)
# that holds at one time only, since an isomorphism needs its condition at both or
# neither; then the times off the locus.  These verdicts hold no numbers, so each is
# built once (a verdict is immutable).
_ONE_TIME_ONLY = {variant: IsoVerdict.not_isomorphic_exact(reason) for variant, reason in (
    (A1, "sin t = 0 at one time only (isomorphism forces sin t1 = sin t2 = 0)"),
    (A0_PLUS, "cos t = 0 at one time only (isomorphism forces cos t1 = cos t2 = 0)"),
    (A2, "commutative at one time only (cos t + sin t = 0 must hold at both)"),
)}
_OFF_LOCUS = IsoVerdict.not_isomorphic_exact(
    "sin(t2 - t1) != 0 (cos t2 / cos t1 and sin t2 / sin t1 cannot agree)")


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
    real times are read as the floats ``check_time`` returns, so numpy float32 times
    get the verdict of their float64 values; a bool or a time that is not real is
    refused.  The two certificates and the NotIsomorphicExact verdicts that hold no
    numbers are built once and shared (a verdict is immutable); the Isomorphic
    verdict and the one naming a missed certificate's residual are built per call.
    """
    check_tol(tol)
    t1, t2 = check_time(t1, tol), check_time(t2, tol)  # floats: no float32 reduction
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
    variants = {VARIANTS[class_codes(r1, tol)], VARIANTS[class_codes(r2, tol)]}
    if len(variants) == 2:  # the first variant in table order that holds at one time only
        for variant, verdict in _ONE_TIME_ONLY.items():
            if variant in variants:
                return verdict
    if residual is not None:
        return IsoVerdict.not_isomorphic_exact(
            f"certificate residual {residual!r} exceeds tol {tol!r}, "
            "although |sin(t2 - t1)| is within it")
    return _OFF_LOCUS


def rotation_isomorphic(t1, t2, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``rotation_iso(t1, t2, tol).is_isomorphic`` for each pair of two arrays of
    times of one shape (or shapes that broadcast to one), as a bool array.

    Reads the float64 arrays ``flow.check_times`` returns: refuses what ``rotation_iso``
    refuses, and an array of a dtype other than integer or float (a list of Fractions).
    The closed-form certificate residual is taken only on the pairs within tol of the locus.
    """
    check_tol(tol)
    t1, t2 = np.broadcast_arrays(check_times(t1, tol), check_times(t2, tol))
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
# square root bound the grey zone of the signature's fields in ``_search_ruled_out``.
_TRACE_MARGIN = 1e-6


def _trace_invariants(entries: list) -> tuple[float, float, float] | None:
    """(I1, I2, I3) of a tensor, or None where B is near degenerate.

    ``entries`` are its eight c_ijk in (i, j, k) order, scaled by ``unit_entries``: each
    invariant is unchanged by a basis change and by c -> lambda c.  With B(x, y) =
    tr(L_x L_y), B_ab = sum_jk c_ajk c_bkj, and the covectors l = tr L, r = tr R, the
    invariants are I1 = B^-1(l, l), I2 = B^-1(l, r) and I3 = B^-1(r, r).

    An entry of c is known only to about the rounding of max|c|: a tensor moved
    in floats errs by that much in every entry, zeros included.  So B counts as
    nondegenerate only where |det B| > _TRACE_MARGIN * 2 S^4, S = sum |c_ijk|,
    2 S^4 bounding |det B|.  The rounding of B from c alone, sum_jk |c_ajk c_bkj|,
    is too small a floor: against it a family-2 member, with parameters
    (0, 4e-13, 0), and its move by [[1.5, 0], [0.4375, 1]] differ in I2 by 4e-4.
    Python floats throughout.
    """
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


# The fields of ``InvariantSignature``, one per residual of ``_signature_residuals``.
_SIGNATURE_FIELDS = ("commutative", "associative", "rank_2x4", "rank_2x4")


def _signature_residuals(c: list) -> tuple[float, float, float, float]:
    """Residuals of the signature's predicates on entries scaled by ``unit_entries``, each
    0.0 where its predicate holds exactly: commutativity, associativity, and of the
    2 x 4 form sigma_max^2 (rank 0; at least 1/4 unless c = 0) and sigma_min / sigma_max
    (rank at most 1; 0.0 where c = 0)."""
    smax2, minors = gram_2x4_entries(c)
    return (commutativity_residual_entries(c), associativity_residual_entries(c),
            smax2, math.hypot(*minors) / (smax2 or 1.0))


def _search_ruled_out(a: AlgebraFD, b: AlgebraFD) -> str | None:
    """The invariant that rules out every certificate from a to b, or None: the one skip
    rule of ``decide``, and so of ``iso_search``.  Each side is read once, scaled by
    ``unit_entries``.

    First the signature's fields, in its order, by name: each only where one side's
    residual (``_signature_residuals``) is at most _TRACE_MARGIN**2 and the other's above
    _TRACE_MARGIN**0.5.  That grey zone straddles the thresholds of ``invariant_signature``,
    so a field fires only where the signatures differ.  Measured over 60,000 members moved
    by |det P| in (1e-3, 3], where one side read at most 1e-12 the other stayed below 6e-6.
    Then, where B is nondegenerate on both sides (``_trace_invariants``), the first
    trace-form invariant that differs by more than _TRACE_MARGIN * max(1, |I(a)|, |I(b)|),
    with both values.
    """
    ca, cb = (unit_entries(x.constants.values.ravel().tolist()) for x in (a, b))
    for name, x, y in zip(_SIGNATURE_FIELDS, _signature_residuals(ca), _signature_residuals(cb)):
        if min(x, y) <= _TRACE_MARGIN**2 and max(x, y) > _TRACE_MARGIN**0.5:
            return name
    ia = _trace_invariants(ca)
    ib = _trace_invariants(cb) if ia is not None else None
    if ib is not None:
        for name, x, y in zip(_TRACE_INVARIANTS, ia, ib):
            if abs(x - y) > _TRACE_MARGIN * max(1.0, abs(x), abs(y)):
                return f"{name}: {x!r} vs {y!r}"
    return None
