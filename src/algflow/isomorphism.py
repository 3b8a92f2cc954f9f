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
  last bit and keep the einsum forms as the oracle.  The first
  ``_SCALAR_RESTARTS`` restarts run one at a time, where a certificate is
  usually found; the rest run in lockstep, the same closed forms on lane
  arrays of P (2, 2, n), each lane with the float operations of the scalar
  descent.  Restarts are checked in index order as they end, so the verdict
  is that of the one-by-one walk, to the bit.

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
    On P of shape (2, 2, n), the n lanes of the lockstep, it returns (8, 4, n).
    """
    (p00, p01), (p10, p11) = p
    lanes = p00.shape if isinstance(p00, np.ndarray) else ()
    zero = np.zeros(lanes) if lanes else 0.0  # the absent terms, broadcast over the lanes
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
        x000 + y000 - b000, x010 + y010, zero - b001, zero,
        x001 + y001, x011 + y011 - b000, zero, zero - b001,
        x100 - b010, x110, y000 - b011, y010,
        x101, x111 - b010, y001, y011 - b011,
        y100 - b100, y110, x000 - b101, x010,
        y101, y111 - b100, x001, x011 - b101,
        zero - b110, zero, x100 + y100 - b111, x110 + y110,
        zero, zero - b110, x101 + y101, x111 + y111 - b111,
    ]).reshape((8, 4) + lanes)


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
    return _levenberg_iterations(p, r, cost, 1e-3, _MAX_ITERATIONS, ca, cb, cfg)


def _levenberg_iterations(p: list, r: np.ndarray, cost: float, lam: float, iterations: int,
                          ca, cb, cfg: SearchConfig) -> tuple[np.ndarray, float]:
    """At most ``iterations`` iterations of the descent from P (nested lists) with
    its residual r, cost r @ r and damping ``lam``."""
    for _ in range(iterations):
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


# The first restarts run one at a time: a found pair usually ends among them.  The
# rest run together, in lockstep over lane arrays.
_SCALAR_RESTARTS = 8
# The lockstep runs while this many lanes are live; fewer finish one at a time.
_LOCKSTEP_LANES = 8


def _lane_residuals(p: np.ndarray, ca, cb) -> np.ndarray:
    """``_transform_residual`` of each lane of P (2, 2, n), as C-contiguous rows (n, 8)."""
    return np.ascontiguousarray(_transform_residual(p, ca, cb).T)


def _lane_costs(r: np.ndarray) -> np.ndarray:
    """r @ r of each row of r (n, 8), each a (1, 8) @ (8, 1) matmul: the scalar dot."""
    return np.matmul(r[:, np.newaxis, :], r[:, :, np.newaxis])[:, 0, 0]


def _lockstep_descents(starts: np.ndarray, ca, cb, cfg: SearchConfig):
    """``_levenberg_descent`` from each start of ``starts`` (n, 2, 2), run in lockstep.

    Yields each lane's (P, max-abs residual) in index order, as soon as it and
    every lane before it have ended.  Each lane keeps its own P, residual, cost
    and damping, and makes the float operations of the scalar descent: the
    kernels on P of shape (2, 2, n), and each BLAS call in the scalar call's
    shape on C-contiguous per-lane blocks, so the results are the same to the
    bit.  The lane arithmetic ignores floating-point warnings: a stacked call
    would raise one for all its lanes, not where the walk meets it.

    Lanes still live when fewer than ``_LOCKSTEP_LANES`` remain, or when a
    stacked solve meets a singular system, finish in the scalar loop from where
    they stand (the scalar solve then raises LinAlgError where the walk would).
    """
    n = len(starts)
    p = starts.transpose(1, 2, 0).copy()  # lane i is p[:, :, i]
    with np.errstate(all="ignore"):
        r = _lane_residuals(p, ca, cb)
        cost = _lane_costs(r)
    lam = np.full(n, 1e-3)
    ended = np.zeros(n, dtype=bool)
    live = np.arange(n)
    walked = iteration = 0

    def finish(i):
        left = 0 if ended[i] else _MAX_ITERATIONS - iteration
        return _levenberg_iterations(p[:, :, i].tolist(), r[i], float(cost[i]), float(lam[i]),
                                     left, ca, cb, cfg)

    while live.size >= _LOCKSTEP_LANES and iteration < _MAX_ITERATIONS:
        try:
            with np.errstate(all="ignore"):
                met = np.abs(r[live]).max(axis=1) <= cfg.tol
                ended[live[met]] = True
                live = live[~met]
                jac = _transform_jacobian(p[:, :, live], ca, cb)
                jac = np.ascontiguousarray(jac.transpose(2, 0, 1))  # (k, 8, 4), as the scalar's
                grad = jac.transpose(0, 2, 1) @ r[live, :, np.newaxis]
                flat = np.abs(grad).max(axis=(1, 2)) < 1e-14  # stationary point
                ended[live[flat]] = True
                live, jac, grad = live[~flat], jac[~flat], grad[~flat]
                normal = jac.transpose(0, 2, 1) @ jac + lam[live, np.newaxis, np.newaxis] * _EYE4
                step = np.linalg.solve(normal, -grad)
                candidate = p[:, :, live] + step[:, :, 0].T.reshape(2, 2, -1)
                r_new = _lane_residuals(candidate, ca, cb)
                cost_new = _lane_costs(r_new)
                better = cost_new < cost[live]
                moved, stuck = live[better], live[~better]
                p[:, :, moved] = candidate[:, :, better]
                r[moved], cost[moved] = r_new[better], cost_new[better]
                lam[moved] = np.maximum(lam[moved] / 10.0, 1e-12)
                ended[moved[np.abs(step[better]).max(axis=(1, 2)) < 1e-14]] = True
                lam[stuck] *= 10.0
                ended[stuck[lam[stuck] > 1e12]] = True
                live = live[~ended[live]]
        except np.linalg.LinAlgError:
            break
        iteration += 1
        while walked < n and ended[walked]:
            yield finish(walked)
            walked += 1
    for i in range(walked, n):
        yield finish(i)


def _descents(ca, cb, cfg: SearchConfig):
    """(P, max-abs residual) of the descent from each of ``cfg.restarts`` seeded
    random starts, in index order: the first ``_SCALAR_RESTARTS`` one at a time,
    the rest in lockstep from starts drawn in bulk, the same doubles."""
    rng = np.random.default_rng(cfg.seed)
    scalar = min(cfg.restarts, _SCALAR_RESTARTS)
    for _ in range(scalar):
        yield _levenberg_descent(random_invertible(rng, EPS_DET, np.inf), ca, cb, cfg)
    if cfg.restarts > scalar:
        starts = random_invertible(rng, EPS_DET, np.inf, cfg.restarts - scalar)
        yield from _lockstep_descents(starts, ca, cb, cfg)


def iso_search(a: AlgebraFD, b: AlgebraFD, cfg: SearchConfig | None = None) -> IsoVerdict:
    """Hunt for a basis-change certificate between two algebras.

    Runs ``cfg.restarts`` Levenberg descents from random invertible starts
    (entries uniform in [-2, 2]).  The first ``_SCALAR_RESTARTS`` run one at a
    time; if none of them gives a certificate, the rest run together in
    lockstep, each lane with the arithmetic of the scalar descent.  The
    descents are checked in index order, each as soon as it and all before it
    have ended, and the first certificate is returned: the result of walking
    the restarts one by one, to the bit.

    A NotFoundWithinBudget verdict is not a proof of non-isomorphism.
    """
    if cfg is None:
        cfg = SearchConfig()
    ca, cb = a.constants.values.tolist(), b.constants.values.tolist()
    for p, eq_residual in _descents(ca, cb, cfg):
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
