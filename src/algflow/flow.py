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

The flow here is that of the rotation a(d) = [[cos d, sin d], [-sin d, cos d]];
it is time-homogeneous, so the tensor depends only on the elapsed time
d = t - s and we expose it as A^[d].

The flow algebra is commutative exactly when cos d = -sin d, i.e. on the
locus d = 3*pi/4 + pi*n.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import DEFAULT_TOL, AlgebraFD
from .cubic import CubicTensor, type_c_products

__all__ = [
    "paired_tensors",
    "flow_tensors",
    "SWEEP_BLOCK",
    "time_blocks",
    "flow_algebra",
    "MAX_TIME",
    "reduce_mod_pi",
    "check_time",
    "kce_residuals",
    "verify_kce",
    "commutativity_defect",
]

# pi in three parts, the first two of 26 significant bits, so that k * _PI1 and
# k * _PI2 are exact for k < 2**27 (Cody-Waite reduction).
_PI1, _PI2, _PI3 = 3.1415926218032837, 3.1786509424591713e-08, 1.2246467991473532e-16

# Largest time reduced mod pi: k stays below 2**26, where r is good to a few ulps.
MAX_TIME = 2.0**26 * math.pi

# Times per array-kernel call in a sweep over many times; keeps the kernels'
# temporaries to some hundred kilobytes however long the sweep.
SWEEP_BLOCK = 1024


def paired_tensors(a11, a12, a21, a22) -> np.ndarray:
    """The tensors with slices (a, a^T) of the 2 x 2 matrices a = [[a11, a12],
    [a21, a22]], for floats or equal-shaped arrays: shape (..., 2, 2, 2), with
    out[..., i, 0, r] = a_ir and out[..., i, 1, r] = a_ri.  Entries are copied,
    never computed, so every bit of the inputs (signed zeros too) is kept."""
    entries = np.array((a11, a12, a11, a21, a21, a22, a12, a22), dtype=float)
    return entries.reshape(8, -1).T.reshape(entries.shape[1:] + (2, 2, 2))


def flow_tensors(d: float | np.ndarray) -> np.ndarray:
    """Structure tensors of the rotation flow at a float or an array of elapsed
    times: shape d.shape + (2, 2, 2)."""
    d = np.asarray(d, dtype=float)
    c, s = np.cos(d), np.sin(d)
    return paired_tensors(c, s, -s, c)


def time_blocks(times: np.ndarray):
    """Consecutive slices of ``times``, each at most ``SWEEP_BLOCK`` long."""
    return (times[i:i + SWEEP_BLOCK] for i in range(0, len(times), SWEEP_BLOCK))


def flow_algebra(d: float) -> AlgebraFD:
    return AlgebraFD(CubicTensor(flow_tensors(d)))


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


def kce_residuals(s, tau, t) -> np.ndarray:
    """Kolmogorov-Chapman residuals of the rotation flow at time triples given
    as floats or equal-shaped arrays: max |M^[t-s] - M^[tau-s] * M^[t-tau]|
    entrywise for each triple, with * the type-C product.  Zero (up to
    rounding) certifies the composition law at that triple."""
    s, tau, t = (np.asarray(x, dtype=float) for x in (s, tau, t))
    split = type_c_products(flow_tensors(tau - s), flow_tensors(t - tau))
    return np.max(np.abs(flow_tensors(t - s) - split), axis=(-3, -2, -1))


def verify_kce(s: float, tau: float, t: float) -> float:
    """``kce_residuals`` at one triple 0 <= s < tau < t."""
    _check_triple(s, tau, t)
    return float(kce_residuals(s, tau, t))


def commutativity_defect(d: float | np.ndarray) -> float | np.ndarray:
    """cos d + sin d, elementwise for an array of times; zero exactly on the
    commutative locus d = 3*pi/4 + pi*n."""
    return np.cos(d) + np.sin(d)
