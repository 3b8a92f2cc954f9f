"""Two-dimensional algebras over a structure tensor.

An algebra with basis e_1, e_2 is encoded by its structure constants
c_{ijk}: the bilinear product is e_i e_j = sum_k c_{ijk} e_k.  This module
provides the product of coordinate vectors, commutativity and associativity
predicates, change of basis with an explicit transformation formula, and the
2 x 4 matrix form (row k holds c_{ijk} with columns ordered (1,1), (1,2),
(2,1), (2,2)).  The stacked residual kernels take tensors of any dimension m.

Everything is immutable and pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cubic import CubicTensor, floats_from_json, tensor_from_json_dict

__all__ = [
    "DEFAULT_TOL",
    "EPS_DET",
    "AlgebraFD",
    "BasisChange",
    "determinant",
    "random_invertible",
    "product",
    "is_commutative",
    "commutativity_residual",
    "commutativity_residuals",
    "is_associative",
    "associativity_residual",
    "associativity_residuals",
    "change_of_basis",
    "check_tol",
    "iso_residual",
    "iso_residuals",
    "to_2x4",
    "from_2x4",
    "rank_2x4",
    "algebra_to_json_dict",
    "algebra_from_json_dict",
]

# Inputs are O(1) trig values, so double precision leaves ample margin.
DEFAULT_TOL = 1e-9
# Minimum |det| for a change of basis to count as invertible.
EPS_DET = 1e-10


@dataclass(frozen=True, eq=False)
class AlgebraFD:
    """A two-dimensional algebra: its 2 x 2 x 2 structure-constant tensor."""

    constants: CubicTensor

    def __post_init__(self) -> None:
        if self.constants.dim != 2:
            raise ValueError(f"algebras are two-dimensional, got dim {self.constants.dim}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlgebraFD):
            return NotImplemented
        return self.constants == other.constants


@dataclass(frozen=True, eq=False)
class BasisChange:
    """An invertible 2 x 2 change of basis.

    Row i of ``matrix`` holds the coordinates of the new basis vector e'_i in
    the old basis: e'_i = sum_p P_ip e_p.

    Degenerate matrices are rejected at construction, not at use.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.matrix, dtype=float)
        if arr.shape != (2, 2):
            raise ValueError(f"expected a 2 x 2 matrix, got shape {arr.shape}")
        (a, b), (c, d) = arr.tolist()  # Python floats: cheaper than numpy scalars
        if not all(map(math.isfinite, (a, b, c, d))):
            raise ValueError("all entries must be finite")
        det = det_entries(a, b, c, d)
        if abs(det) <= EPS_DET:
            raise ValueError(f"matrix is singular to tolerance: |det| = {abs(det):.3e}")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @classmethod
    def identity(cls, m: int) -> "BasisChange":
        return cls(np.eye(m))

    def inverse(self) -> np.ndarray:
        """adj(P) / det P (exact for exact inputs)."""
        return _inverse(self.matrix)

    def __repr__(self) -> str:
        return f"BasisChange({self.matrix.tolist()})"


def det_entries(a, b, c, d):
    """det [[a, b], [c, d]] = ad - bc for floats or arrays (operators only)."""
    return a * d - b * c


def determinant(p: np.ndarray) -> np.ndarray:
    """det P = ad - bc of each 2 x 2 matrix of p, shape (..., 2, 2)."""
    return det_entries(p[..., 0, 0], p[..., 0, 1], p[..., 1, 0], p[..., 1, 1])


# Signs of the 2 x 2 adjugate: adj [[a, b], [c, d]] = [[d, -b], [-c, a]].
_ADJ_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _inverse(p: np.ndarray) -> np.ndarray:
    """P^-1 = adj(P) / det P of each 2 x 2 matrix of p, shape (..., 2, 2)."""
    det = determinant(p)
    return p[..., ::-1, ::-1].swapaxes(-1, -2) * _ADJ_SIGNS / det[..., np.newaxis, np.newaxis]


def det_in_window(p: np.ndarray, det_low: float, det_high: float) -> np.ndarray:
    """det_low < |det P| <= det_high for each 2 x 2 matrix of p, shape (..., 2, 2)."""
    d = abs(determinant(p))  # the builtin: cheap on the numpy scalar of one matrix
    return (det_low < d) & (d <= det_high)


def random_invertible(rng: np.random.Generator, det_low: float,
                      det_high: float) -> np.ndarray:
    """A 2 x 2 matrix with entries uniform in [-2, 2], drawn again until
    ``det_in_window(p, det_low, det_high)``."""
    while True:
        p = rng.uniform(-2.0, 2.0, size=(2, 2))
        if det_in_window(p, det_low, det_high):
            return p


def product(algebra: AlgebraFD, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The algebra product of coordinate vectors: z_k = sum_{i,j} x_i y_j c_{ijk}."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    # einsum would broadcast a length-1 vector without complaint.
    if x.shape != (2,) or y.shape != (2,):
        raise ValueError(f"expected two vectors of length 2, got shapes {x.shape}, {y.shape}")
    return np.einsum("i,j,ijk->k", x, y, algebra.constants.values)


def _check_stack(c: np.ndarray) -> tuple[int, int]:
    if c.ndim != 4 or not c.shape[1] == c.shape[2] == c.shape[3]:
        raise ValueError(f"expected a stack of m x m x m tensors, got shape {c.shape}")
    return c.shape[0], c.shape[1]


def commutativity_residuals(c: np.ndarray) -> np.ndarray:
    """max |c_ijk - c_jik| for each tensor of a stack c of shape (n, m, m, m)."""
    _check_stack(c)
    return np.max(np.abs(c - c.transpose(0, 2, 1, 3)), axis=(1, 2, 3))


def commutativity_residual(algebra: AlgebraFD) -> float:
    """max |c_ijk - c_jik|; zero iff the algebra is commutative."""
    return float(commutativity_residuals(algebra.constants.values[np.newaxis])[0])


def check_tol(tol: float) -> None:
    """Refuse a tolerance that is nan, infinite or negative."""
    if not 0 <= tol < np.inf:
        raise ValueError(f"tolerance must be finite and nonnegative, got {tol}")


def is_commutative(algebra: AlgebraFD, tol: float = DEFAULT_TOL) -> bool:
    check_tol(tol)
    return commutativity_residual(algebra) <= tol


def associativity_residuals(c: np.ndarray) -> np.ndarray:
    """max |sum_r c_ijr c_rkl - sum_r c_irl c_jkr| over (i,j,k,l), for each
    tensor of a stack c of shape (n, m, m, m).

    The two contractions are the coefficients of (e_i e_j) e_k and
    e_i (e_j e_k).  Each is a sum over r of broadcast elementwise products,
    laid out on axes (n, i, j, k, l): for a 2 x 2 x 2 stack that is a few
    whole-array operations, where a stacked matrix product pays per tensor.
    """
    _check_stack(c)
    lhs = rhs = 0.0
    for r in range(c.shape[1]):
        lhs = lhs + c[:, :, :, r, None, None] * c[:, None, None, r]      # c_ijr c_rkl
        rhs = rhs + c[:, :, None, None, r] * c[:, None, :, :, r, None]   # c_irl c_jkr
    return np.max(np.abs(lhs - rhs), axis=(1, 2, 3, 4))


def associativity_residual(algebra: AlgebraFD) -> float:
    """Residual of the associativity law; zero iff the algebra is associative."""
    return float(associativity_residuals(algebra.constants.values[np.newaxis])[0])


def is_associative(algebra: AlgebraFD, tol: float = DEFAULT_TOL) -> bool:
    check_tol(tol)
    return associativity_residual(algebra) <= tol


def change_of_basis(algebra: AlgebraFD, p: BasisChange) -> AlgebraFD:
    """The same algebra expressed in the basis e'_i = sum_p P_ip e_p.

    New constants: c'_{ijk} = sum_{p,q,r} P_ip P_jq c_pqr (P^-1)_rk.
    """
    c = algebra.constants.values
    new = np.einsum("ip,jq,pqr,rk->ijk", p.matrix, p.matrix, c, p.inverse())
    return AlgebraFD(CubicTensor(new))


def iso_residuals(ca: np.ndarray, cb: np.ndarray, p: np.ndarray) -> np.ndarray:
    """max |P.P.cA.P^-1 - cB| entrywise for each pair of stacks ca, cb (n, 2, 2, 2)
    and p (n, 2, 2); zero iff p[n] carries ca[n] onto cb[n].

    The transform of ``change_of_basis`` as three stacked matrix products (equal
    up to rounding to its einsum), with the closed-form P^-1 = adj(P) / det P.
    """
    n = len(p)
    if ca.shape != (n, 2, 2, 2) or cb.shape != (n, 2, 2, 2) or p.shape != (n, 2, 2):
        raise ValueError(f"expected shapes (n, 2, 2, 2), (n, 2, 2, 2) and (n, 2, 2), "
                         f"got {ca.shape}, {cb.shape} and {p.shape}")
    # The sums over r, q and p of c'_ijk, one stacked matrix product each.
    moved = np.matmul(ca.reshape(n, 4, 2), _inverse(p)).reshape(n, 2, 2, 2)  # [p, q, k]
    moved = np.matmul(p[:, np.newaxis], moved)                               # [p, j, k]
    moved = np.matmul(p, moved.reshape(n, 2, 4))                             # [i, (j, k)]
    return np.abs(moved.reshape(n, 8) - cb.reshape(n, 8)).max(axis=1)


def iso_residual_entries(ca, cb, p) -> float:
    """``iso_residuals`` of one pair in Python floats: ca and cb are the eight entries
    of 2 x 2 x 2 tensors in (i, j, k) order, p the rows ((a, b), (c, d)) of P.  Equal
    to it up to rounding, not to the bit: matmul may fuse its sums with FMA."""
    (a, b), (c, d) = p
    x, det = ca, det_entries(a, b, c, d)
    # The sums over r, q and p: (P^-1)^T, P and P along the last axis, each pass
    # writing that axis first, so [i, j, k] -> [k, i, j] -> [j, k, i] -> [i, j, k].
    for (e, f), (g, h) in (((d / det, -c / det), (-b / det, a / det)), p, p):
        x0, x1, x2, x3, x4, x5, x6, x7 = x
        x = (e * x0 + f * x1, e * x2 + f * x3, e * x4 + f * x5, e * x6 + f * x7,
             g * x0 + h * x1, g * x2 + h * x3, g * x4 + h * x5, g * x6 + h * x7)
    diffs = [abs(u - v) for u, v in zip(x, cb)]
    return math.nan if math.isnan(sum(diffs)) else max(diffs)  # max alone can drop a nan


def iso_residual(a: AlgebraFD, b: AlgebraFD, p: BasisChange) -> float:
    """max |P.P.a.P^-1 - b| entrywise (``iso_residuals``); zero iff p certifies a ~ b."""
    return float(iso_residuals(a.constants.values[np.newaxis], b.constants.values[np.newaxis],
                               p.matrix[np.newaxis])[0])


def to_2x4(algebra: AlgebraFD) -> np.ndarray:
    """The 2 x 4 structure-constant matrix, a read-only view of the tensor.

    Row k lists c_{ijk} over columns (i,j) = (1,1), (1,2), (2,1), (2,2); the
    rows are often written (alpha_1..alpha_4) and (beta_1..beta_4).
    """
    return algebra.constants.values.reshape(4, 2).T


def from_2x4(rows: np.ndarray) -> AlgebraFD:
    """The algebra whose 2 x 4 form is ``rows`` (the inverse of ``to_2x4``)."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape != (2, 4):
        raise ValueError(f"expected shape (2, 4), got {rows.shape}")
    return AlgebraFD(CubicTensor(rows.T.reshape(2, 2, 2)))


def rank_2x4(algebra: AlgebraFD) -> int:
    """Numerical rank of the 2 x 4 form: its singular values above 1e-8."""
    s = np.linalg.svd(to_2x4(algebra), compute_uv=False)
    return int(np.sum(s > 1e-8))


def algebra_to_json_dict(algebra: AlgebraFD) -> dict:
    """The JSON form {"dim": 2, "c2x4": [[...], [...]]}."""
    return {"dim": 2, "c2x4": to_2x4(algebra).tolist()}


def algebra_from_json_dict(data: dict) -> AlgebraFD:
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    if "c2x4" in data:
        if data.get("dim", 2) != 2:
            raise ValueError(f'"c2x4" form requires dim 2, got {data["dim"]!r}')
        return from_2x4(floats_from_json(data, "c2x4"))
    return AlgebraFD(tensor_from_json_dict(data))
