"""Time classification of the rotation flow and canonical-form reduction.

The flow algebra A^[t] falls into one of five isomorphism classes,
pi-periodically in t:

    A1        at t = pi*k,
    A0Plus    at t = pi/2 + pi*k,
    A2        at t = 3*pi/4 + pi*k           (the commutative class),
    ACosPlus(|cos t|)   for t mod pi in (0, pi/2),
    ACosMinus(|cos t|)  for t mod pi in (pi/2, pi) minus the A2 times.

The parameter of the two continuous classes is |cos t| in (0, 1); the flip
of sign between cos t and sin t is absorbed into the plus/minus variant,
since the algebra with parameters (c, s) is carried onto (-c, -s) by
negating the basis.

Every nontrivial two-dimensional real algebra is isomorphic to exactly one
member of the fifteen parametrized canonical families A_1..A_15 of Bekbaev's
classification, given here as 2 x 4 structure-constant matrices.  Each flow
class reduces to its canonical family by an explicit change of basis:

    A1           -> family 5 (1/2, 0)          via e1* = e1/2, e2* = -e1 + e2
    A0Plus       -> family 8 (0, 0)            via e1* = -(e1+e2)/2, e2* = (e1-e2)/2
    A2           -> family 3 (1/2, 0, 1/2)
    ACosPlus(c)  -> family 2 (1/2, 0, -s/(2c)) via e1* = (e1+e2)/(4c),
                                                    e2* = (e1-e2)/(2*sqrt(2cs))
    ACosMinus(c) -> family 3 (1/2, 0, s/(2c))  via the same matrix

with s = sqrt(1 - c^2); the returned basis change is validated against the
class representative before being handed out.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraFD,
    BasisChange,
    StructMatrix2x4,
    check_tol,
    determinant,
    is_associative,
    iso_residuals,
)
from .cubic import CubicTensor
from .flow import check_time, paired_tensors, reduce_mod_pi

__all__ = [
    "A1",
    "A0_PLUS",
    "A2",
    "ACOS_PLUS",
    "ACOS_MINUS",
    "FlowClassLabel",
    "BekbaevForm",
    "PARAM_COUNTS",
    "VARIANTS",
    "EXCEPTIONAL_RESIDUES",
    "C_GRID",
    "classify_time",
    "classify_times",
    "residue_times",
    "class_representative",
    "bekbaev_matrix",
    "to_bekbaev",
    "associativity_census",
    "label_to_json_dict",
]

A1 = "A1"
A0_PLUS = "A0Plus"
A2 = "A2"
ACOS_PLUS = "ACosPlus"
ACOS_MINUS = "ACosMinus"

_FIXED_VARIANTS = (A1, A0_PLUS, A2)
_PARAMETRIZED_VARIANTS = (ACOS_PLUS, ACOS_MINUS)
# The variant codes of ``classify_times`` index this tuple.
VARIANTS = _FIXED_VARIANTS + _PARAMETRIZED_VARIANTS

# Band half-width around the exceptional residues 0, pi/2, 3*pi/4 (mod pi).
CLASSIFY_TOL = 1e-9

# The exceptional residues of t mod pi and their classes.
EXCEPTIONAL_RESIDUES = ((0.0, A1), (math.pi / 2, A0_PLUS), (3 * math.pi / 4, A2))

# The bands of half-width tol around them, in the order both classifiers
# test them; t mod pi just below pi lies in the A1 band of 0, wrapped round.
_BANDS = ((math.pi, A1),) + EXCEPTIONAL_RESIDUES

# Largest parameter below 1: just outside the band |cos t| can round to 1.0.
_C_MAX = math.nextafter(1.0, 0.0)

# Reduction certificate residual bound, in units of its transform's rounding scale.
_REDUCTION_TOL = 1e-10

# Parameters at which the census and the mirror check sample the continuous classes.
C_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class FlowClassLabel:
    """An isomorphism class of the rotation flow; c is |cos t| in (0, 1)."""

    variant: str
    c: float | None = None

    def __post_init__(self) -> None:
        if self.variant in _FIXED_VARIANTS:
            if self.c is not None:
                raise ValueError(f"{self.variant} carries no parameter")
        elif self.variant in _PARAMETRIZED_VARIANTS:
            if self.c is None or not 0.0 < self.c < 1.0:
                raise ValueError(f"{self.variant} needs a parameter strictly in (0, 1)")
        else:
            raise ValueError(f"unknown class variant {self.variant!r}")

    def same_class(self, other: "FlowClassLabel", tol: float = CLASSIFY_TOL) -> bool:
        """Equal variant, and parameters equal to within tol where present."""
        check_tol(tol)
        if self.variant != other.variant:
            return False
        if self.c is None:
            return True
        return abs(self.c - other.c) <= tol

    def __str__(self) -> str:
        if self.c is None:
            return self.variant
        return f"{self.variant}({self.c:.12g})"


# Parameter vector length per canonical family 1..15.
PARAM_COUNTS = {
    1: 4, 2: 3, 3: 3, 4: 2, 5: 2, 6: 1, 7: 2, 8: 2, 9: 1, 10: 1,
    11: 0, 12: 0, 13: 0, 14: 0, 15: 0,
}

# Families whose first second-row parameter is constrained nonnegative.
_NONNEG_BETA1 = frozenset({2, 3, 7, 8})


@dataclass(frozen=True)
class BekbaevForm:
    """One of the fifteen canonical families with its parameter vector."""

    family: int
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.family not in PARAM_COUNTS:
            raise ValueError(f"family must be 1..15, got {self.family}")
        params = tuple(float(x) for x in self.params)
        if len(params) != PARAM_COUNTS[self.family]:
            raise ValueError(
                f"family {self.family} takes {PARAM_COUNTS[self.family]} parameters, "
                f"got {len(params)}"
            )
        if self.family in _NONNEG_BETA1 and params[1] < 0:
            raise ValueError(f"family {self.family} requires beta1 >= 0")
        object.__setattr__(self, "params", params)

    def to_json_dict(self) -> dict:
        return {"family": self.family, "params": list(self.params)}


# Rows of the fifteen canonical 2 x 4 matrices.  An entry is a constant or
# c + k*p_i, written "p1", "-p0", "1-p0", "p1+1", "2p0-1".
_FAMILY_ROWS = {
    1: ("p0 p1 p1+1 p2", "p3 -p0 1-p0 -p1"),
    2: ("p0 0 0 1", "p1 p2 1-p0 0"),
    3: ("p0 0 0 -1", "p1 p2 1-p0 0"),
    4: ("0 1 1 0", "p0 p1 1 -1"),
    5: ("p0 0 0 0", "0 p1 1-p0 0"),
    6: ("p0 0 0 0", "1 2p0-1 1-p0 0"),
    7: ("p0 0 0 1", "p1 1-p0 -p0 0"),
    8: ("p0 0 0 -1", "p1 1-p0 -p0 0"),
    9: ("0 1 1 0", "p0 1 0 -1"),
    10: ("p0 0 0 0", "0 1-p0 -p0 0"),
    11: ("1/3 0 0 0", "1 2/3 -1/3 0"),
    12: ("0 1 1 0", "1 0 0 -1"),
    13: ("0 1 1 0", "-1 0 0 -1"),
    14: ("0 1 1 0", "0 0 0 -1"),
    15: ("0 0 0 0", "1 0 0 0"),
}


def _parse_entry(text: str) -> tuple[float, float, int]:
    """(c, k, i) of the entry c + k*p_i; i = 4, a padding zero, for a constant.
    c defaults to -0.0, the additive identity, so "-p0" at p0 = 0 stays -0.0."""
    term = re.fullmatch(r"(.*?)([+-]?\d*)p(\d)(.*)", text)
    if term is None:
        const, coef, index = text, 0.0, 4
    else:
        const, coef, index = term[1] + term[4] or "-0", term[2], int(term[3])
        coef = float(coef + "1" if coef in "+-" else coef)
    numerator, _, denominator = const.partition("/")
    return float(numerator) / float(denominator or 1), coef, index


# (c, k, i) of the family tensors' entries in (i, j, k) order: row k, column (i, j).
_ENTRIES = tuple(tuple(_parse_entry(rows[k].split()[2 * i + j])
                       for i in (0, 1) for j in (0, 1) for k in (0, 1))
                 for rows in (_FAMILY_ROWS[f] for f in range(1, 16)))


def _family_tensor(form: BekbaevForm) -> np.ndarray:
    """The tensor of a canonical form, read off the table in Python floats
    (for one form, 2.5x as fast as gathering from arrays)."""
    padded = form.params + (0.0,) * (5 - len(form.params))
    return np.array([c + k * padded[i] for c, k, i in _ENTRIES[form.family - 1]]).reshape(2, 2, 2)


def bekbaev_matrix(form: BekbaevForm) -> StructMatrix2x4:
    """The 2 x 4 structure-constant matrix of a canonical form."""
    return StructMatrix2x4(_family_tensor(form).reshape(4, 2).T)


def classify_time(t: float, tol: float = CLASSIFY_TOL) -> FlowClassLabel:
    """Map a time to its flow class; congruences mod pi are tested to tol.

    The scalar twin of ``classify_times``, kept free of numpy for speed.
    Times too large for tol are refused (``flow.check_time``).
    """
    check_tol(tol)
    check_time(t, tol)
    _, r = reduce_mod_pi(t)
    for residue, variant in _BANDS:
        if abs(r - residue) <= tol:
            return FlowClassLabel(variant)
    c = min(abs(math.cos(t)), _C_MAX)
    return FlowClassLabel(ACOS_PLUS if r < math.pi / 2 else ACOS_MINUS, c)


def classify_times(t: np.ndarray, tol: float = CLASSIFY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """``classify_time`` over an array of times.

    Returns the variant codes (indices into ``VARIANTS``) and the parameter
    c = |cos t|, which is nan where the variant carries none.
    """
    t = np.asarray(t, dtype=float)
    check_tol(tol)
    # The times check_time accepts form an interval, so the least and the greatest
    # time decide (np.min returns nan if any time is nan).
    if t.size:
        check_time(float(t.min()), tol)
        check_time(float(t.max()), tol)
    _, r = reduce_mod_pi(t)
    codes = np.where(r < math.pi / 2, VARIANTS.index(ACOS_PLUS), VARIANTS.index(ACOS_MINUS))
    c = np.minimum(np.abs(np.cos(t)), _C_MAX)
    # Assigned in reverse, so that the first band that holds t wins.
    for residue, variant in reversed(_BANDS):
        hit = np.abs(r - residue) <= tol
        codes[hit] = VARIANTS.index(variant)
        c[hit] = np.nan
    return codes, c


def residue_times(residue: float, t_max: float) -> np.ndarray:
    """The times residue + n*pi <= t_max, n = 0, 1, ..., each moved onto its
    residue as ``reduce_mod_pi`` measures it, undoing the drift of n * float pi."""
    n = np.arange(max(math.floor((t_max - residue) / math.pi) + 2, 0))
    times = residue + n * math.pi
    drift = reduce_mod_pi(times)[1] - residue
    times = times - (drift - np.round(drift / math.pi) * math.pi)
    return times[times <= t_max]


def _branch(label: FlowClassLabel) -> tuple[float, float]:
    """The (cos, sin) entries of the representative of a flow class."""
    if label.variant == A1:
        return 1.0, 0.0
    if label.variant == A0_PLUS:
        return 0.0, 1.0
    if label.variant == A2:
        r = math.sqrt(0.5)
        return r, -r
    s = math.sqrt(1.0 - label.c * label.c)
    return (label.c, s) if label.variant == ACOS_PLUS else (label.c, -s)


def class_representative(label: FlowClassLabel) -> AlgebraFD:
    """The representative structure tensor of a flow class, with exact entries."""
    c, s = _branch(label)
    return AlgebraFD(CubicTensor(paired_tensors(c, s, -s, c)))


def _reduction(label: FlowClassLabel) -> tuple[BekbaevForm, np.ndarray]:
    if label.variant == A1:
        return BekbaevForm(5, (0.5, 0.0)), np.array([[0.5, 0.0], [-1.0, 1.0]])
    if label.variant == A0_PLUS:
        return BekbaevForm(8, (0.0, 0.0)), np.array([[-0.5, -0.5], [0.5, -0.5]])
    if label.variant == A2:
        # The generic minus-branch formula at c = s = sqrt(1/2), where the
        # normalizer 2*sqrt(2cs) collapses to 2 exactly.
        a = math.sqrt(2.0) / 4.0
        return BekbaevForm(3, (0.5, 0.0, 0.5)), np.array([[a, a], [0.5, -0.5]])
    c = label.c
    s = math.sqrt(1.0 - c * c)
    a = 1.0 / (4.0 * c)
    b = 1.0 / (2.0 * math.sqrt(2.0 * c * s))
    p = np.array([[a, a], [b, -b]])
    if label.variant == ACOS_PLUS:
        return BekbaevForm(2, (0.5, 0.0, -s / (2.0 * c))), p
    return BekbaevForm(3, (0.5, 0.0, s / (2.0 * c))), p


def to_bekbaev(label: FlowClassLabel) -> tuple[BekbaevForm, BasisChange]:
    """Canonical form of a flow class plus the basis change that reaches it.

    The certificate is checked before being returned: the transformed class
    representative must reproduce the canonical matrix to 1e-10 times the
    rounding scale max(1, max|P|^2 max|P^-1|), large as c -> 0 or 1.
    """
    form, p_matrix = _reduction(label)
    certificate = BasisChange(p_matrix)
    c, s = _branch(label)
    representative = paired_tensors(c, s, -s, c)[np.newaxis]
    residual = float(iso_residuals(representative, _family_tensor(form)[np.newaxis],
                                   p_matrix[np.newaxis])[0])
    if residual > _REDUCTION_TOL:  # the bound is never smaller, so work it out only here
        # P is 2 x 2, so P^-1 = adj(P) / det P and max|P^-1| = max|P| / |det P|.
        p_max = float(np.abs(p_matrix).max())
        bound = _REDUCTION_TOL * max(1.0, p_max ** 3 / abs(determinant(p_matrix)))
        if residual > bound:
            raise AssertionError(
                f"canonical reduction residual {residual:.3e} exceeds {bound:.1e} for {label}"
            )
    return form, certificate


def associativity_census() -> list[tuple[FlowClassLabel, bool]]:
    """Associativity of every class representative; true exactly for A1 and A2."""
    labels = [FlowClassLabel(A1), FlowClassLabel(A0_PLUS), FlowClassLabel(A2)]
    labels += [FlowClassLabel(ACOS_PLUS, c) for c in C_GRID]
    labels += [FlowClassLabel(ACOS_MINUS, c) for c in C_GRID]
    return [(label, is_associative(class_representative(label), CLASSIFY_TOL))
            for label in labels]


def label_to_json_dict(label: FlowClassLabel) -> dict:
    out: dict = {"class": label.variant}
    if label.c is not None:
        out["c"] = label.c
    return out
