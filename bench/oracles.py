"""Reference results computed apart from algflow.

Nothing here imports algflow.  Each oracle derives the expected answer from
the mathematics (a 40-digit reduction of t mod pi, the closed-form canonical
families, an explicit change-of-basis formula, the slice definition of the
type-C product, a fiber sum for the general product) so that the benchmark
can reject a wrong output without trusting the code it times.

Algebras are plain 2 x 2 x 2 nested lists or numpy arrays of structure
constants c[i][j][k] (e_i e_j = sum_k c_ijk e_k), 0-based.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal

import numpy as np

# pi to 60 digits; reductions run at 40 significant digits.
PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
_CTX = Context(prec=40)
_HALF_PI = _CTX.divide(PI, 2)
_THREE_QUARTER_PI = _CTX.divide(_CTX.multiply(PI, 3), 4)

# Half-width of the band around the exceptional residues, as documented for
# the time classification.
CLASS_BAND = Decimal("1e-9")

A1, A0_PLUS, A2, ACOS_PLUS, ACOS_MINUS = "A1", "A0Plus", "A2", "ACosPlus", "ACosMinus"
EXCEPTIONAL = {A1: Decimal(0), A0_PLUS: _HALF_PI, A2: _THREE_QUARTER_PI}


class OracleMismatch(Exception):
    """An output disagrees with the reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise OracleMismatch(message)


# --- time classification ------------------------------------------------------


def residue_mod_pi(t: float) -> Decimal:
    """t mod pi in [0, pi), from the exact value of the float t."""
    x = Decimal(t)
    k = _CTX.divide_int(x, PI)
    return _CTX.subtract(x, _CTX.multiply(k, PI))


def flow_class(t: float) -> tuple[str, float | None]:
    """(variant, c) of the flow algebra at time t, with c = |cos t|."""
    r = residue_mod_pi(t)
    if r <= CLASS_BAND or PI - r <= CLASS_BAND:
        return A1, None
    for variant in (A0_PLUS, A2):
        if abs(r - EXCEPTIONAL[variant]) <= CLASS_BAND:
            return variant, None
    c = abs(math.cos(float(r)))
    return (ACOS_PLUS if r < _HALF_PI else ACOS_MINUS), c


def canonical_form(variant: str, c: float | None) -> tuple[int, tuple[float, ...]]:
    """Family and parameters of the canonical form each flow class reduces to."""
    if variant == A1:
        return 5, (0.5, 0.0)
    if variant == A0_PLUS:
        return 8, (0.0, 0.0)
    if variant == A2:
        return 3, (0.5, 0.0, 0.5)
    s = math.sqrt(1.0 - c * c)
    if variant == ACOS_PLUS:
        return 2, (0.5, 0.0, -s / (2.0 * c))
    return 3, (0.5, 0.0, s / (2.0 * c))


def family_matrix(family: int, p: tuple[float, ...]) -> list[list[float]]:
    """2 x 4 matrix of the canonical families the flow classes reach."""
    if family == 2:
        return [[p[0], 0.0, 0.0, 1.0], [p[1], p[2], 1.0 - p[0], 0.0]]
    if family == 3:
        return [[p[0], 0.0, 0.0, -1.0], [p[1], p[2], 1.0 - p[0], 0.0]]
    if family == 5:
        return [[p[0], 0.0, 0.0, 0.0], [0.0, p[1], 1.0 - p[0], 0.0]]
    if family == 8:
        return [[p[0], 0.0, 0.0, -1.0], [p[1], 1.0 - p[0], -p[0], 0.0]]
    raise ValueError(f"no flow class reduces to family {family}")


def from_2x4(rows: list[list[float]]) -> np.ndarray:
    """Tensor of a 2 x 4 matrix: row k lists c_ijk over (i,j) = 11, 12, 21, 22."""
    c = np.empty((2, 2, 2))
    for k in range(2):
        for i in range(2):
            for j in range(2):
                c[i, j, k] = rows[k][2 * i + j]
    return c


def rotation_pair_tensor(cosine: float, sine: float) -> np.ndarray:
    """Flow-shaped tensor: c_i1r = a_ir, c_i2r = a_ri for a = [[cos, sin], [-sin, cos]]."""
    a = [[cosine, sine], [-sine, cosine]]
    c = np.empty((2, 2, 2))
    for i in range(2):
        for r in range(2):
            c[i, 0, r] = a[i][r]
            c[i, 1, r] = a[r][i]
    return c


def flow_tensor(t: float) -> np.ndarray:
    return rotation_pair_tensor(math.cos(t), math.sin(t))


def class_tensor(variant: str, c: float | None) -> np.ndarray:
    """Representative of a flow class with exact (cos, sin) entries."""
    if variant == A1:
        return rotation_pair_tensor(1.0, 0.0)
    if variant == A0_PLUS:
        return rotation_pair_tensor(0.0, 1.0)
    if variant == A2:
        h = math.sqrt(0.5)
        return rotation_pair_tensor(h, -h)
    s = math.sqrt(1.0 - c * c)
    return rotation_pair_tensor(c, s if variant == ACOS_PLUS else -s)


# --- change of basis ----------------------------------------------------------


def move(c: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Constants in the basis e'_i = sum_q P_iq e_q, for dim 2.

    c'_ijk = sum_{q,s,r} P_iq P_js c_qsr Q_rk with Q = P^-1 by the adjugate.
    """
    p = np.asarray(p, dtype=float)
    det = p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0]
    q = [[p[1, 1] / det, -p[0, 1] / det], [-p[1, 0] / det, p[0, 0] / det]]
    out = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            # coordinates of e'_i e'_j in the old basis
            old = [0.0, 0.0]
            for a in range(2):
                for b in range(2):
                    w = p[i, a] * p[j, b]
                    old[0] += w * c[a, b, 0]
                    old[1] += w * c[a, b, 1]
            for k in range(2):
                out[i, j, k] = old[0] * q[0][k] + old[1] * q[1][k]
    return out


def certificate_residual(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> float:
    """max |move(a, p) - b|; zero iff p carries a onto b."""
    return float(np.max(np.abs(move(a, p) - np.asarray(b))))


# --- invariants of dim-2 algebras --------------------------------------------


def invariants(c: np.ndarray, tol: float = 1e-9) -> dict[str, object]:
    """Commutativity, associativity (from products of basis vectors) and rank."""
    commutative = all(
        abs(c[i, j, k] - c[j, i, k]) <= tol
        for i in range(2) for j in range(2) for k in range(2)
    )

    def mul(x, y):
        return [sum(x[i] * y[j] * c[i, j, k] for i in range(2) for j in range(2))
                for k in range(2)]

    basis = ([1.0, 0.0], [0.0, 1.0])
    associative = all(
        max(abs(u - v) for u, v in zip(mul(mul(x, y), z), mul(x, mul(y, z)))) <= tol
        for x in basis for y in basis for z in basis
    )
    rows = [[c[i, j, k] for i in range(2) for j in range(2)] for k in range(2)]
    scale = max(1.0, max(abs(v) for row in rows for v in row))
    minors = [rows[0][x] * rows[1][y] - rows[0][y] * rows[1][x]
              for x in range(4) for y in range(x + 1, 4)]
    if max(abs(m) for m in minors) > 1e-8 * scale:
        rank = 2
    else:
        rank = 1 if any(abs(v) > 1e-8 for row in rows for v in row) else 0
    return {"commutative": commutative, "associative": associative, "rank_2x4": rank}


def first_difference(a: np.ndarray, b: np.ndarray) -> str | None:
    ia, ib = invariants(a), invariants(b)
    for name in ("commutative", "associative", "rank_2x4"):
        if ia[name] != ib[name]:
            return name
    return None


# --- cubic products -----------------------------------------------------------


def type_c(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Type-C product by its slice definition: slice j of the result is A_j B_j."""
    out = np.empty_like(a)
    for j in range(a.shape[1]):
        out[:, j, :] = np.einsum("ik,kr->ir", a[:, j, :], b[:, j, :])
    return out


def check_general_product(a: np.ndarray, b: np.ndarray, table: np.ndarray,
                          c: np.ndarray, rng: np.random.Generator, probes: int = 2) -> None:
    """Fiber-sum check of c_ipr = sum_{op(j,n)=p} sum_k a_ijk b_knr.

    Both sides are contracted with random vectors x (over i) and z (over r):
    the reference sums g_jn = (x^T A_j)(B_n z) over each fiber of the table.
    A wrong entry survives a probe only on a measure-zero set of vectors.
    """
    m = a.shape[0]
    abs_a, abs_b = np.abs(a), np.abs(b)
    for _ in range(probes):
        x = rng.standard_normal(m)
        z = rng.standard_normal(m)
        u = np.einsum("i,ijk->jk", x, a)        # row j: x^T A_j
        w = np.einsum("knr,r->nk", b, z)        # row n: B_n z
        g = u @ w.T
        expected = np.bincount(table.ravel(), weights=g.ravel(), minlength=m)
        got = np.einsum("i,ipr,r->p", x, c, z)
        # Rounding bound: 4 m eps times the sum of |x_i a_ijk b_knr z_r|.
        scale = float((np.einsum("i,ijk->jk", np.abs(x), abs_a)
                       @ np.einsum("knr,r->nk", abs_b, np.abs(z)).T).sum())
        tol = 4 * m * np.finfo(float).eps * scale
        err = float(np.max(np.abs(got - expected)))
        expect(err <= tol, f"general product differs from its fiber sum by {err:.3e}")


# --- associative tables -------------------------------------------------------


def associative_table(kind: str, m: int) -> np.ndarray:
    """0-based tables of associative operations on {0..m-1}."""
    idx = np.arange(m)
    tables = {
        "left": np.repeat(idx[:, None], m, axis=1),
        "right": np.repeat(idx[None, :], m, axis=0),
        "max": np.maximum.outer(idx, idx),
        "min": np.minimum.outer(idx, idx),
        "add": np.add.outer(idx, idx) % m,
    }
    return tables[kind]


TABLE_KINDS = ("left", "right", "max", "min", "add")


# --- partition rows -----------------------------------------------------------


def expected_row_count(t_max: float, step: float) -> int:
    """Rows of a partition: grid points k*step < t_max, t_max, exceptional points.

    The grid and t_max are counted in floating point, as the grid is built;
    the exceptional points are counted exactly.  Point 0 is both a grid point
    and an exceptional point.
    """
    k = math.ceil(t_max / step)
    while k > 0 and (k - 1) * step >= t_max:
        k -= 1
    while k * step < t_max:
        k += 1
    return k + 1 + len(exceptional_times(t_max)) - 1


def exceptional_times(t_max: float) -> list[tuple[str, Decimal]]:
    """The exact exceptional times base + n*pi <= t_max, with their class."""
    x = Decimal(t_max)
    out = []
    for variant, base in EXCEPTIONAL.items():
        n = 0
        while (t := _CTX.add(base, _CTX.multiply(n, PI))) <= x:
            out.append((variant, t))
            n += 1
    return out


def check_partition_row(t: float, variant: str, commutative: bool, associative: bool,
                        c: float | None) -> None:
    """One partition row against the class oracle and the two algebra rules."""
    want_variant, want_c = flow_class(t)
    expect(variant == want_variant, f"t={t!r}: class {variant}, expected {want_variant}")
    if want_c is None:
        expect(c is None, f"t={t!r}: {variant} carries no parameter")
    else:
        expect(c is not None and abs(c - want_c) <= 1e-12,
               f"t={t!r}: c={c!r}, expected {want_c!r}")
    expect(commutative == (want_variant == A2),
           f"t={t!r}: commutative={commutative}, true exactly for A2")
    expect(associative == (want_variant in (A1, A2)),
           f"t={t!r}: associative={associative}, true exactly for A1 and A2")
