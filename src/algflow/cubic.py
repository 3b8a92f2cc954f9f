"""Dense cubic-matrix arithmetic.

A cubic matrix is an m*m*m real array q_{ijk}, regarded as a vector in the
m^3-dimensional space spanned by the unit matrices E_{ijk} (a single 1 at
position (i,j,k)).  Two multiplications are provided:

* the type-C product
      c_{ijr} = sum_k a_{ijk} * b_{kjr},
  which is an ordinary square-matrix product on each slice of fixed middle
  index j;
* the general delta-based family
      E_{ijk} *_a E_{lnr} = delta_{kl} * E_{i a(j,n) r},
  extended bilinearly, where a is an arbitrary associative binary operation
  on the index set {1..m}.

The formulas are 1-based, as in the usual structure-constant notation; the
numpy arrays behind every value are 0-based, so E_{ijk} is a 1 at
values[i-1, j-1, k-1] and a table holds a(j, n) - 1 at values[j-1, n-1].
All values are immutable after construction and every operation is a pure
function, so everything in this module is safe to call concurrently.

Both products fix their evaluation order, so their bits do not depend on how
they are batched.  The type-C product is one stacked matmul over the slices
of fixed j.  The general product makes one stacked matmul per table row j,
giving A_j B_n for every n, and adds each product into the output slice
p = a(j, n) in (j, n) order.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CubicTensor",
    "BinaryOpTable",
    "type_c_products",
    "mul_type_c",
    "mul_general",
    "from_middle_slices",
    "tensor_from_json_dict",
    "floats_from_json",
    "refuse_other_kinds",
    "real_array",
]


def refuse_other_kinds(values, arr: np.ndarray, kinds: str, message: str) -> None:
    """Refuse ``arr = np.asarray(values)`` unless its dtype kind is in ``kinds``.
    numpy reads a nested list that mixes booleans with numbers as numbers, so
    the leaves of a list are also searched for booleans; a scalar's dtype shows one."""
    if arr.dtype.kind not in kinds:
        raise ValueError(f"{message}, got {arr.dtype} entries")
    if not isinstance(values, np.ndarray) and arr.ndim and any(
            isinstance(x, (bool, np.bool_)) for x in np.array(values, dtype=object).flat):
        raise ValueError(f"{message}, got a boolean entry")


def _is_number_leaf(x) -> bool:
    """Whether a leaf of an outside nested list is a finite number: an int or a float,
    not a bool, within the float range (a JSON number, or a Python one)."""
    return type(x) in (int, float) and abs(x) <= sys.float_info.max


def real_array(values, what: str) -> np.ndarray:
    """``np.asarray(values, dtype=float)``, the one way in for an outside array: ValueError
    naming ``what`` unless numpy reads values as integers or floats (``refuse_other_kinds``).
    numpy reads a list of ints and floats as objects where an int is beyond int64 and
    uint64 alike; a list that holds such an int is read by the leaf rule of
    ``floats_from_json`` (``_is_number_leaf``).  Other object arrays are refused."""
    arr = np.asarray(values)
    if arr.dtype.kind == "O" and not isinstance(values, np.ndarray):
        leaves = arr.ravel().tolist()
        if all(map(_is_number_leaf, leaves)) and any(
                type(x) is int and x.bit_length() > 63 for x in leaves):
            return arr.astype(float)
    refuse_other_kinds(values, arr, "iuf", f"{what} must be real numbers")
    return np.asarray(arr, dtype=float)


@dataclass(frozen=True, eq=False)
class CubicTensor:
    """An m x m x m real array of entries c_{ijk}, all finite: read by ``real_array``
    (booleans, strings and other objects are refused, not converted) into a float64
    copy of its own."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(real_array(self.values, "entries"))
        if arr.ndim != 3 or len(set(arr.shape)) != 1:
            raise ValueError(f"expected an m x m x m array, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("dimension must be at least 1")
        if not np.isfinite(arr).all():
            raise ValueError("all entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CubicTensor):
            return NotImplemented
        return self.dim == other.dim and bool(np.array_equal(self.values, other.values))

    def __repr__(self) -> str:
        return f"CubicTensor(dim={self.dim})"


@dataclass(frozen=True, eq=False)
class BinaryOpTable:
    """A total binary operation a(j,n) on the index set {1..m}, stored 0-based.

    Entries are Python ints or of any numpy integer dtype.  A float is refused
    even when it is integral, such as 2.0, and so are booleans and strings:
    no entry is rounded or truncated into an index.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square table, got shape {arr.shape}")
        m = arr.shape[0]
        if m < 1:
            raise ValueError("dimension must be at least 1")
        refuse_other_kinds(self.values, arr, "iu", "table values must be integers")
        if np.any(arr < 0) or np.any(arr >= m):
            raise ValueError("table values must map into the index set")
        arr = np.array(arr, dtype=int)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.shape[0]

    def is_associative(self) -> bool:
        """a(a(j,n),r) = a(j,a(n,r)) over all index triples, as two m^3 tables."""
        t = self.values
        return bool(np.array_equal(t[t], t[:, t]))

    def check_associative(self) -> None:
        if not self.is_associative():
            raise ValueError("binary operation table is not associative")


def _check_same_dim(a: CubicTensor, b: CubicTensor) -> None:
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} != {b.dim}")


def type_c_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Type-C products of two stacks of cubic matrices of shape (..., m, m, m).

    One stacked matrix product over the slices of fixed middle index j, so
    each slice of the result equals a[..., :, j, :] @ b[..., :, j, :] bit-exactly
    (same summation path).
    """
    if a.shape != b.shape or a.ndim < 3 or len(set(a.shape[-3:])) != 1:
        raise ValueError(f"expected two stacks of m x m x m arrays, got {a.shape} and {b.shape}")
    return np.swapaxes(np.matmul(np.swapaxes(a, -3, -2), np.swapaxes(b, -3, -2)), -3, -2)


def mul_type_c(a: CubicTensor, b: CubicTensor) -> CubicTensor:
    """Type-C product: c_{ijr} = sum_k a_{ijk} * b_{kjr}."""
    return CubicTensor(type_c_products(a.values, b.values))


def mul_general(a: CubicTensor, b: CubicTensor, op: BinaryOpTable) -> CubicTensor:
    """Bilinear extension of E_{ijk} *_op E_{lnr} = delta_{kl} E_{i op(j,n) r}.

    The middle output index collects every (j, n) pair in the fiber of op:
    c_{i,p,r} = sum over op(j,n)=p of sum_k a_{ijk} * b_{knr}.

    The evaluation order fixes every output bit.  Row j of the table costs
    one stacked matmul of A_j = a[:, j, :] with every B_n = b[:, n, :], which
    is the same BLAS call per n as the 2-D product A_j @ B_n.  Each product
    is added into output slice p = op(j, n) in (j, n) order, from +0.0, so a
    p that op never yields keeps a slice of +0.0.  op need not be associative.
    """
    _check_same_dim(a, b)
    if op.dim != a.dim:
        raise ValueError(f"dimension mismatch: op has dim {op.dim}, tensors {a.dim}")
    m = a.dim
    b_by_n = np.swapaxes(b.values, 0, 1)
    products = np.empty((m, m, m))  # [n, i, r]: A_j B_n for the current row j
    out = np.zeros((m, m, m))  # [p, i, r]
    for j, row in enumerate(op.values.tolist()):
        np.matmul(a.values[:, j, :], b_by_n, out=products)
        for n, p in enumerate(row):
            out[p] += products[n]
    return CubicTensor(np.swapaxes(out, 0, 1))


def from_middle_slices(slices: list[np.ndarray] | tuple[np.ndarray, ...]) -> CubicTensor:
    """Assemble a tensor from its fixed-middle-index slices, in order j = 1..m."""
    m = len(slices)
    stacked = real_array(slices, "entries")
    if stacked.shape != (m, m, m):
        raise ValueError(f"expected {m} slices of shape {(m, m)}, got shape {stacked.shape}")
    return CubicTensor(np.swapaxes(stacked, 0, 1))


def floats_from_json(data: dict, key: str) -> np.ndarray:
    """The nested list under ``key`` as a float array.  A ragged nesting, or a leaf
    that is not a finite JSON number (a boolean, a string, null), raises ValueError."""
    values = np.array(data[key], dtype=object)
    if not all(map(_is_number_leaf, values.flat)):
        raise ValueError(f'"{key}" is not a rectangular array of numbers')
    return values.astype(float)


def tensor_from_json_dict(data: dict) -> CubicTensor:
    if "dim" not in data or "c" not in data:
        raise ValueError('expected keys "dim" and "c"')
    tensor = CubicTensor(floats_from_json(data, "c"))
    # Compared, not converted: a "dim" of any other JSON type is a mismatch,
    # and a boolean is one although true == 1 in Python.
    if isinstance(data["dim"], bool) or tensor.dim != data["dim"]:
        raise ValueError(f'entry shape {tensor.dim} disagrees with "dim": {data["dim"]!r}')
    return tensor
