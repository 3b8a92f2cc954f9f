"""The rotational flow of two-dimensional algebras.

A flow assigns to each pair of times 0 <= s <= t an algebra A^[s,t] whose
structure tensors satisfy the Kolmogorov-Chapman equation under the type-C
product:

    M^[s,t] = M^[s,tau] * M^[tau,t]   for all 0 <= s < tau < t.

Because the type-C product acts independently on each fixed-middle-index
slice, a one-parameter family of 2 x 2 matrices a(d) with the semigroup
property a(d1 + d2) = a(d1) a(d2) induces such a flow by pairing a(d) with
its transpose:

    c_{i1r} = a_{ir},   c_{i2r} = a_{ri}.

``paired_tensors`` is the one place that writes this layout; every flow
tensor, class representative and check builds on it.

The built-in solution is the rotation family a(d) = [[cos d, sin d],
[-sin d, cos d]]; the resulting flow is time-homogeneous, so the tensor
depends only on the elapsed time d = t - s and we expose it as A^[d].

The flow algebra is commutative exactly when cos d = -sin d, i.e. on the
locus d = 3*pi/4 + pi*n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .algebra import DEFAULT_TOL, AlgebraFD
from .cubic import CubicTensor, mul_type_c

__all__ = [
    "FlowFamily",
    "ROTATION_FAMILY",
    "rotation_matrix",
    "paired_tensors",
    "paired_tensor",
    "build_from_pair",
    "flow_tensor",
    "flow_tensors",
    "SWEEP_BLOCK",
    "time_blocks",
    "flow_algebra",
    "MAX_TIME",
    "reduce_mod_pi",
    "check_time",
    "verify_kce",
    "verify_base_system",
    "commutativity_defect",
]

_GENERATOR_AT_ZERO_TOL = 1e-12

# pi in three parts, the first two of 26 significant bits, so that k * _PI1 and
# k * _PI2 are exact for k < 2**27 (Cody-Waite reduction).
_PI1, _PI2, _PI3 = 3.1415926218032837, 3.1786509424591713e-08, 1.2246467991473532e-16

# Largest time reduced mod pi: k stays below 2**26, where r is good to a few ulps.
MAX_TIME = 2.0**26 * math.pi

# Times per array-kernel call in a sweep over many times; keeps the kernels'
# temporaries to some hundred kilobytes however long the sweep.
SWEEP_BLOCK = 1024


@dataclass(frozen=True)
class FlowFamily:
    """A one-parameter semigroup of 2 x 2 matrices and its induced flow.

    ``generator`` maps the elapsed time d to a 2 x 2 matrix a(d); the flow
    tensor pairs a(d) with its transpose as the two middle-index slices.
    The generator must satisfy a(0) = I (checked at construction to 1e-12);
    the semigroup property itself is what ``verify_base_system`` and
    ``verify_kce`` measure.
    """

    generator: Callable[[float], np.ndarray]
    name: str = field(default="custom")

    def __post_init__(self) -> None:
        at_zero = np.asarray(self.generator(0.0), dtype=float)
        if at_zero.shape != (2, 2):
            raise ValueError(f"generator must return 2 x 2 matrices, got {at_zero.shape}")
        if np.max(np.abs(at_zero - np.eye(2))) > _GENERATOR_AT_ZERO_TOL:
            raise ValueError("generator(0) must be the identity matrix")


def rotation_matrix(d: float) -> np.ndarray:
    """[[cos d, sin d], [-sin d, cos d]], the rotation solution of the base system."""
    c, s = math.cos(d), math.sin(d)
    return np.array([[c, s], [-s, c]])


ROTATION_FAMILY = FlowFamily(rotation_matrix, name="rotation")


def paired_tensors(a11, a12, a21, a22) -> np.ndarray:
    """The tensors with slices (a, a^T) of the 2 x 2 matrices a = [[a11, a12],
    [a21, a22]], for floats or equal-shaped arrays: shape (..., 2, 2, 2), with
    out[..., i, 0, r] = a_ir and out[..., i, 1, r] = a_ri.  Entries are copied,
    never computed, so every bit of the inputs (signed zeros too) is kept."""
    entries = np.array((a11, a12, a11, a21, a21, a22, a12, a22), dtype=float)
    return entries.reshape(8, -1).T.reshape(entries.shape[1:] + (2, 2, 2))


def paired_tensor(mat: np.ndarray) -> CubicTensor:
    """The type-C structure tensor with slices (mat, mat^T)."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (2, 2):
        raise ValueError(f"expected a 2 x 2 matrix, got shape {mat.shape}")
    return CubicTensor(paired_tensors(*mat.ravel()))


def build_from_pair(family: FlowFamily, d: float) -> CubicTensor:
    """Structure tensor of the family's algebra at elapsed time d."""
    return paired_tensor(family.generator(d))


def flow_tensor(d: float) -> CubicTensor:
    """Structure tensor of the rotation flow at elapsed time d."""
    c, s = math.cos(d), math.sin(d)
    return CubicTensor(paired_tensors(c, s, -s, c))


def flow_tensors(d: np.ndarray) -> np.ndarray:
    """Structure tensors of the rotation flow at an array of elapsed times.

    Returns shape d.shape + (2, 2, 2); entry [n] equals ``flow_tensor(d[n]).values``
    wherever ``np.cos``/``np.sin`` agree with ``math.cos``/``math.sin``.
    """
    d = np.asarray(d, dtype=float)
    c, s = np.cos(d), np.sin(d)
    return paired_tensors(c, s, -s, c)


def time_blocks(times: np.ndarray):
    """Consecutive slices of ``times``, each at most ``SWEEP_BLOCK`` long."""
    return (times[i:i + SWEEP_BLOCK] for i in range(0, len(times), SWEEP_BLOCK))


def flow_algebra(d: float) -> AlgebraFD:
    return AlgebraFD(flow_tensor(d))


def reduce_mod_pi(t):
    """(k, r) with t = k*pi + r, 0 <= r < pi, for a float or an ndarray (operators
    only).  Cody-Waite, so the 1.2e-16 by which the float pi falls short of pi is
    not multiplied by k.  Good to a few ulps for t <= MAX_TIME."""
    k = t // math.pi
    r = ((t - k * _PI1) - k * _PI2) - k * _PI3
    below = r < 0  # t // pi overshoots by one just below a multiple of pi
    return k - below, r + below * math.pi


def check_time(t: float, tol: float | None = None) -> None:
    """Refuse a time at which the flow is undefined: non-finite or negative.

    Given the tolerance of a test mod pi, also refuse a time beyond MAX_TIME, or
    one whose float spacing exceeds half of both tol and DEFAULT_TOL (so that
    every tolerance accepts t < 2**22).  Past that, t and t + n*pi as floats
    can miss a multiple of pi by more than tol: each rounding costs up to half
    a spacing, and the float pi, 1.2e-16 short, n times as much.
    """
    if not math.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    if tol is not None and (t > MAX_TIME
                            or (2 * math.ulp(t) > tol and 2 * math.ulp(t) > DEFAULT_TOL)):
        raise ValueError(f"time {t} is too large for tolerance {tol:g} (float spacing "
                         f"{math.ulp(t):.2g}; reduction mod pi up to {MAX_TIME:.4g})")


def _check_triple(s: float, tau: float, t: float) -> None:
    for value in (s, tau, t):
        check_time(value)
    if not s < tau < t:
        raise ValueError(f"need 0 <= s < tau < t, got ({s}, {tau}, {t})")


def verify_kce(family: FlowFamily, s: float, tau: float, t: float) -> float:
    """Kolmogorov-Chapman residual of a time-homogeneous family.

    Returns max |M^[t-s] - M^[tau-s] * M^[t-tau]| entrywise, with * the
    type-C product.  Zero (up to rounding) certifies the composition law at
    this triple.
    """
    _check_triple(s, tau, t)
    whole = build_from_pair(family, t - s)
    split = mul_type_c(build_from_pair(family, tau - s), build_from_pair(family, t - tau))
    return float(np.max(np.abs(whole.values - split.values)))


def verify_base_system(family: FlowFamily, s: float, tau: float, t: float) -> float:
    """Residual of the 2 x 2 semigroup system a(t-s) = a(tau-s) a(t-tau)."""
    _check_triple(s, tau, t)
    whole = np.asarray(family.generator(t - s), dtype=float)
    split = np.asarray(family.generator(tau - s), dtype=float) @ np.asarray(
        family.generator(t - tau), dtype=float
    )
    return float(np.max(np.abs(whole - split)))


def commutativity_defect(d: float | np.ndarray) -> float | np.ndarray:
    """cos d + sin d, elementwise for an array of times; zero exactly on the
    commutative locus d = 3*pi/4 + pi*n."""
    return np.cos(d) + np.sin(d)
