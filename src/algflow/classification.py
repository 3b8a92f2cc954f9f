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
member of the fifteen canonical families A_1..A_15 of Ahmed, Bekbaev and
Rakhimov (2017), each given here as a function of its parameters that returns
the two rows of its 2 x 4 structure-constant matrix.  Each flow class reduces
to its canonical family by an explicit change of basis:

    A1           -> family 5 (1/2, 0)          via e1* = e1/2, e2* = -e1 + e2
    A0Plus       -> family 8 (0, 0)            via e1* = -(e1+e2)/2, e2* = (e1-e2)/2
    A2           -> family 3 (1/2, 0, 1/2)
    ACosPlus(c)  -> family 2 (1/2, 0, -s/(2c)) via e1* = (e1+e2)/(4c),
                                                    e2* = (e1-e2)/(2*sqrt(2cs))
    ACosMinus(c) -> family 3 (1/2, 0, s/(2c))  via the same matrix

with s = sqrt(1 - c^2); the returned basis change is validated against the
class representative before being handed out (for A1, A0Plus and A2 once, at
import).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    CERTIFICATE_CAP,
    AlgebraFD,
    BasisChange,
    check_tol,
    det_entries,
    iso_residual_entries,
    iso_residuals,
    real_float,
)
from .cubic import CubicTensor, real_array
from .flow import check_time, check_times, paired_entries, paired_tensors, reduce_mod_pi

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
    "CLASS_PREDICATES",
    "EXCEPTIONAL_RESIDUES",
    "C_GRID",
    "class_codes",
    "classify_time",
    "classify_times",
    "residue_times",
    "class_representative",
    "bekbaev_matrix",
    "to_bekbaev",
    "certified_reductions",
    "label_to_json_dict",
]

A1 = "A1"
A0_PLUS = "A0Plus"
A2 = "A2"
ACOS_PLUS = "ACosPlus"
ACOS_MINUS = "ACosMinus"

_PARAMETRIZED_VARIANTS = (ACOS_PLUS, ACOS_MINUS)

# Band half-width around the exceptional residues 0, pi/2, 3*pi/4 (mod pi).
CLASSIFY_TOL = 1e-9

# Largest parameter below 1: just outside the band |cos t| can round to 1.0.
_C_MAX = math.nextafter(1.0, 0.0)

# Reduction certificate residual bound, in units of its transform's rounding scale;
# ``CERTIFICATE_CAP`` caps it in units of the canonical tensor's scale max(1, max|target|).
_REDUCTION_TOL = 1e-10

# Parameters at which the census and the mirror check sample the continuous classes.
C_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass(frozen=True)
class FlowClassLabel:
    """An isomorphism class of the rotation flow; c is |cos t| in (0, 1)."""

    variant: str
    c: float | None = None

    def __post_init__(self) -> None:
        if self.variant in _EXCEPTIONAL:
            if self.c is not None:
                raise ValueError(f"{self.variant} carries no parameter")
        elif self.variant in _PARAMETRIZED_VARIANTS:
            if type(self.c) is not float and self.c is not None:  # float64, whatever real c is
                object.__setattr__(self, "c", real_float(self.c, f"{self.variant} parameter"))
            if self.c is None or not 0.0 < self.c < 1.0:
                raise ValueError(f"{self.variant} needs a parameter strictly in (0, 1)")
        else:
            raise ValueError(f"unknown class variant {self.variant!r}")

    def __str__(self) -> str:
        if self.c is None:
            return self.variant
        return f"{self.variant}({self.c:.12g})"


# The fifteen canonical 2 x 4 matrices as functions of their parameters, row by row.
_FAMILY_ROWS = {
    1: lambda p0, p1, p2, p3: ((p0, p1, p1 + 1, p2), (p3, -p0, 1 - p0, -p1)),
    2: lambda p0, p1, p2: ((p0, 0.0, 0.0, 1.0), (p1, p2, 1 - p0, 0.0)),
    3: lambda p0, p1, p2: ((p0, 0.0, 0.0, -1.0), (p1, p2, 1 - p0, 0.0)),
    4: lambda p0, p1: ((0.0, 1.0, 1.0, 0.0), (p0, p1, 1.0, -1.0)),
    5: lambda p0, p1: ((p0, 0.0, 0.0, 0.0), (0.0, p1, 1 - p0, 0.0)),
    6: lambda p0: ((p0, 0.0, 0.0, 0.0), (1.0, 2 * p0 - 1, 1 - p0, 0.0)),
    7: lambda p0, p1: ((p0, 0.0, 0.0, 1.0), (p1, 1 - p0, -p0, 0.0)),
    8: lambda p0, p1: ((p0, 0.0, 0.0, -1.0), (p1, 1 - p0, -p0, 0.0)),
    9: lambda p0: ((0.0, 1.0, 1.0, 0.0), (p0, 1.0, 0.0, -1.0)),
    10: lambda p0: ((p0, 0.0, 0.0, 0.0), (0.0, 1 - p0, -p0, 0.0)),
    11: lambda: ((1 / 3, 0.0, 0.0, 0.0), (1.0, 2 / 3, -1 / 3, 0.0)),
    12: lambda: ((0.0, 1.0, 1.0, 0.0), (1.0, 0.0, 0.0, -1.0)),
    13: lambda: ((0.0, 1.0, 1.0, 0.0), (-1.0, 0.0, 0.0, -1.0)),
    14: lambda: ((0.0, 1.0, 1.0, 0.0), (0.0, 0.0, 0.0, -1.0)),
    15: lambda: ((0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)),
}

# Parameter vector length per canonical family 1..15.
PARAM_COUNTS = {family: rows.__code__.co_argcount for family, rows in _FAMILY_ROWS.items()}

# Families whose first second-row parameter is constrained nonnegative.
_NONNEG_BETA1 = frozenset({2, 3, 7, 8})


def _unchecked(cls, proved: bool, **fields):
    """``cls(**fields)`` of a frozen dataclass, built without ``__post_init__`` where
    ``proved``: for values that ``_acos_reduction`` has just made and ``_certified``
    shows to meet the constructor's conditions; else with its checks and refusals."""
    if not proved:
        return cls(**fields)
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


@dataclass(frozen=True)
class BekbaevForm:
    """One of the fifteen canonical families with its parameter vector."""

    family: int
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        family = self.family
        if isinstance(family, bool) or not isinstance(family, (int, np.integer)):
            raise ValueError(f"family must be an integer, got {family!r}")
        family = int(family)
        count = PARAM_COUNTS.get(family)
        if count is None:
            raise ValueError(f"family must be 1..15, got {family}")
        params = tuple(real_float(x, "parameter") for x in self.params)
        if len(params) != count:
            raise ValueError(f"family {family} takes {count} parameters, got {len(params)}")
        if not all(map(math.isfinite, params)):
            raise ValueError(f"parameters must be finite, got {params}")
        if family in _NONNEG_BETA1 and params[1] < 0:
            raise ValueError(f"family {family} requires beta1 >= 0")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)

    def to_json_dict(self) -> dict:
        return {"family": self.family, "params": list(self.params)}


# The exceptional classes: residue of t mod pi, (cos, sin) of the representative,
# canonical form and the rows of the basis change that reaches it, checked at
# import (``_EXCEPTIONAL_REDUCTIONS``, below ``to_bekbaev``).  A2 takes the
# minus-branch reduction at c = s = sqrt(1/2), where the normalizer 2*sqrt(2cs)
# is 2 exactly.
_EXCEPTIONAL = {
    A1: (0.0, (1.0, 0.0), BekbaevForm(5, (0.5, 0.0)), ((0.5, 0.0), (-1.0, 1.0))),
    A0_PLUS: (math.pi / 2, (0.0, 1.0), BekbaevForm(8, (0.0, 0.0)), ((-0.5, -0.5), (0.5, -0.5))),
    A2: (3 * math.pi / 4, (math.sqrt(0.5), -math.sqrt(0.5)), BekbaevForm(3, (0.5, 0.0, 0.5)),
         ((math.sqrt(2.0) / 4.0,) * 2, (0.5, -0.5))),
}
# The variant codes of ``class_codes`` index this tuple.
VARIANTS = tuple(_EXCEPTIONAL) + _PARAMETRIZED_VARIANTS
# (commutative, associative) of each class's representative: A2 both, A1 associative only.
CLASS_PREDICATES = dict.fromkeys(VARIANTS, (False, False)) | {A1: (False, True), A2: (True, True)}
EXCEPTIONAL_RESIDUES = tuple((residue, variant) for variant, (residue, *_) in _EXCEPTIONAL.items())
# The constants of ``class_codes``: pi/2 splits ACosPlus from ACosMinus, and the
# (residue, code) of each exceptional class's band.
_HALF_PI = math.pi / 2
_ACOS_PLUS_CODE = VARIANTS.index(ACOS_PLUS)
(_A1_RESIDUE, _A1_CODE), (_A0_PLUS_RESIDUE, _A0_PLUS_CODE), (_A2_RESIDUE, _A2_CODE) = (
    (residue, VARIANTS.index(variant)) for residue, variant in EXCEPTIONAL_RESIDUES)
# The label of each exceptional class, indexed by its variant code (a label is immutable).
_EXCEPTIONAL_LABELS = tuple(map(FlowClassLabel, _EXCEPTIONAL))


def _family_entries(form: BekbaevForm) -> tuple[float, ...]:
    """The eight tensor entries of a canonical form in (i, j, k) order: the two
    rows interleaved column by column, in Python floats."""
    (a0, a1, a2, a3), (b0, b1, b2, b3) = _FAMILY_ROWS[form.family](*form.params)
    return a0, b0, a1, b1, a2, b2, a3, b3


def bekbaev_matrix(form: BekbaevForm) -> np.ndarray:
    """The 2 x 4 structure-constant matrix of a canonical form, laid out as by
    ``algebra.to_2x4``."""
    return np.array(_FAMILY_ROWS[form.family](*form.params))


def class_codes(r, tol: float):
    """Indices into ``VARIANTS`` of the classes of times r reduced mod pi, for a
    float or an ndarray (operators only): the first band of half-width tol that
    holds r, else ACosPlus below pi/2 and ACosMinus above.  The one band test.

    The bands are A1's about pi (t mod pi just below pi, wrapped round) and about 0,
    then A0Plus's and A2's; each update sets the code where r lies in its band, so the
    first band that holds r is assigned last."""
    code = (r >= _HALF_PI) + _ACOS_PLUS_CODE
    code += (abs(r - _A2_RESIDUE) <= tol) * (_A2_CODE - code)
    code += (abs(r - _A0_PLUS_RESIDUE) <= tol) * (_A0_PLUS_CODE - code)
    code += (abs(r - _A1_RESIDUE) <= tol) * (_A1_CODE - code)
    code += (abs(r - math.pi) <= tol) * (_A1_CODE - code)
    return code


def classify_time(t: float, tol: float = CLASSIFY_TOL) -> FlowClassLabel:
    """Map a time to its flow class: ``class_codes`` of t reduced mod pi, with
    |cos t| as the parameter of the continuous classes.  Times too large for
    tol are refused (``flow.check_time``), as are a bool, a time that is not
    real and an int beyond the float range.  Any other real t is read as the float
    ``check_time`` returns: a numpy float32 time or a Fraction gets the class of its
    float64 value.  An exceptional class gets its one shared label; ``FlowClassLabel``
    builds a continuous one, and refuses c = min(|cos t|, _C_MAX) = 0.
    """
    check_tol(tol)
    t = check_time(t, tol)
    code = class_codes(reduce_mod_pi(t)[1], tol)
    if code < len(_EXCEPTIONAL):
        return _EXCEPTIONAL_LABELS[code]
    return FlowClassLabel(VARIANTS[code], min(abs(math.cos(t)), _C_MAX))


def classify_times(t: np.ndarray, tol: float = CLASSIFY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """``classify_time`` over the float64 array of times ``flow.check_times`` returns:
    one that numpy does not read as integers or floats (a list of Fractions) is refused.

    Returns the variant codes (indices into ``VARIANTS``) and the parameter
    c = |cos t|, which is nan where the variant carries none.
    """
    check_tol(tol)
    t = check_times(t, tol)
    codes = class_codes(reduce_mod_pi(t)[1], tol)
    return codes, np.where(codes < len(_EXCEPTIONAL), np.nan,
                           np.minimum(np.abs(np.cos(t)), _C_MAX))


def residue_times(residue, t_max: float, t_min: float = 0.0) -> np.ndarray:
    """The times residue + n*pi in [t_min, t_max], n = 0, 1, ..., each moved onto
    its residue as ``reduce_mod_pi`` measures it, undoing the drift of n * float pi.
    For an array of residues in [0, pi), the times of each residue in turn.  Each
    time is computed from its own residue and n alone, so a window of times has the
    bits it has in the whole list."""
    residue = real_array(residue, "residues")[..., np.newaxis]
    n = np.arange(max(math.floor((t_min - residue.max()) / math.pi) - 1, 0),
                  max(math.floor((t_max - residue.min()) / math.pi) + 2, 0))
    times = residue + n * math.pi
    drift = reduce_mod_pi(times)[1] - residue
    times = times - (drift - np.round(drift / math.pi) * math.pi)
    return times[(t_min <= times) & (times <= t_max)]


def _branch(label: FlowClassLabel) -> tuple[float, float]:
    """The (cos, sin) entries of the representative of a flow class."""
    if label.c is None:
        return _EXCEPTIONAL[label.variant][1]
    s = math.sqrt(1.0 - label.c * label.c)
    return (label.c, s) if label.variant == ACOS_PLUS else (label.c, -s)


def class_representative(label: FlowClassLabel) -> AlgebraFD:
    """The representative structure tensor of a flow class, with exact entries."""
    c, s = _branch(label)
    return AlgebraFD(CubicTensor(paired_tensors(c, s, -s, c)))


def _acos_reduction(c, s, sqrt):
    """The reduction of ACosPlus(c) (s > 0) or ACosMinus(c) (s < 0), where s =
    +-sqrt(1 - c^2) is the sine entry of the class representative, for Python
    floats or arrays of one shape; operators only, with the root ``sqrt`` given
    (``math.sqrt`` or ``np.sqrt``, both correctly rounded, so an array element
    has the bits of the float call).  Returns the family-2/3 parameter -s/(2c),
    the rows ((a, a), (b, -b)) of P and the eight entries of the target in
    (i, j, k) order; the two families differ in the sign of the e1 e2 entry,
    which is the sign of s."""
    a, b = 1.0 / (4.0 * c), 1.0 / (2.0 * sqrt(2.0 * c * abs(s)))
    param = -s / (2.0 * c)
    return param, ((a, a), (b, -b)), (0.5, 0.0, 0.0, param, 0.0, 0.5, s / abs(s), 0.0)


def _reduction_bound(p, target, maximum, minimum):
    """The bound on the residual of the rows p of P carrying a representative onto
    the eight target entries, for floats (``max``, ``min``) or arrays (``np.maximum``,
    ``np.minimum``), operators only: 1e-10 times the rounding scale
    max(1, max|P|^3 / |det P|), at most ``CERTIFICATE_CAP`` times max(1, max|target|), as
    ``to_bekbaev`` describes.
    A nan residual is never within it."""
    (a, b), (c, d) = p
    p_max = maximum(maximum(abs(a), abs(b)), maximum(abs(c), abs(d)))
    # P is 2 x 2, so P^-1 = adj(P) / det P and max|P^-1| = max|P| / |det P|.  Not
    # p_max ** 3, which raises OverflowError, nor cubed first, which can reach inf.
    rounding = maximum(1.0, p_max / abs(det_entries(a, b, c, d)) * p_max * p_max)
    scale = maximum(1.0, functools.reduce(maximum, map(abs, target)))
    return minimum(_REDUCTION_TOL * rounding, CERTIFICATE_CAP * scale)


def _certified(label: FlowClassLabel) -> tuple[BekbaevForm, BasisChange]:
    """The canonical form of a flow class and the basis change that reaches it, checked
    as ``to_bekbaev`` describes: an exceptional class's from its table row, a continuous
    one's (parameter, P and target entries) from ``_acos_reduction`` on Python floats."""
    c, s = _branch(label)
    if label.c is None:
        form, p = _EXCEPTIONAL[label.variant][2:4]
        target = _family_entries(form)
    else:
        param, p, target = _acos_reduction(c, s, math.sqrt)
        # Family 2 or 3 and three Python floats, beta1 = 0.0: only a finite param is unproved.
        form = _unchecked(BekbaevForm, math.isfinite(param), family=2 if s > 0 else 3,
                          params=(0.5, 0.0, param))
    (a, _), (b, _) = p
    matrix = np.array(p)
    matrix.setflags(write=False)
    # A continuous class's P is ((a, a), (b, -b)), a = 1/(4c) >= 1/4 and b = 1/(2 sqrt(2c|s|))
    # about 1/2 or more (2c|s| <= c^2 + s^2 = 1), so |det P| = 2ab is about 1/4 or more,
    # inf where ab overflows, never nan: finite rows meet every condition.  Else
    # ``BasisChange`` refuses rows that are not finite, before any residual.
    proved = label.c is not None and math.isfinite(a) and math.isfinite(b)
    certificate = _unchecked(BasisChange, proved, matrix=matrix)
    residual = iso_residual_entries(paired_entries(c, s, -s, c), target, p)
    if not residual <= _REDUCTION_TOL:  # the bound is never smaller, so work it out only here
        bound = _reduction_bound(p, target, max, min)
        if not residual <= bound:
            raise AssertionError(
                f"canonical reduction residual {residual:.3e} exceeds {bound:.1e} for {label}"
            )
    return form, certificate


def certified_reductions(c: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, ...]:
    """``to_bekbaev`` of the continuous classes over arrays: ``_acos_reduction`` on
    arrays c and s of shape (n,), s the sine entries (s > 0 for ACosPlus, s < 0 for
    ACosMinus), with each certificate checked by ``to_bekbaev``'s residual and bound.

    Returns the family-2/3 parameters, the stacks (n, 2, 2) of P and (n, 2, 2, 2)
    of the target tensors, and a mask that is False exactly where ``to_bekbaev``
    raises; elsewhere each element has the bits of ``to_bekbaev``'s form and
    certificate.  That is where the residual misses its bound, and where c is
    below about 3e-309: there the parameter or P is not finite, which makes the
    residual or the bound inf or nan (np.maximum and np.minimum keep a nan).
    |det P| = 2ab is at least 1/4, so no P is refused as singular.
    """
    with np.errstate(all="ignore"):  # overflow and nan are where the mask is False
        param, p, target = _acos_reduction(c, s, np.sqrt)
        p_stack = np.stack(p[0] + p[1], axis=-1).reshape(-1, 2, 2)  # four arrays of c's shape
        target_stack = np.empty((len(c), 2, 2, 2))  # six of the eight entries are floats
        for k, entry in enumerate(target):
            target_stack.reshape(-1, 8)[:, k] = entry
        residual = iso_residuals(paired_tensors(c, s, -s, c), target_stack, p_stack)
        certified = residual <= _reduction_bound(p, target, np.maximum, np.minimum)
    return param, p_stack, target_stack, certified


def to_bekbaev(label: FlowClassLabel) -> tuple[BekbaevForm, BasisChange]:
    """Canonical form of a flow class plus the basis change that reaches it.

    The continuous classes reduce by ``_acos_reduction`` on Python floats, the
    scalar case of the kernel that ``certified_reductions`` runs on arrays.  The
    certificate is checked before being returned: the transformed class
    representative must reproduce the canonical matrix to 1e-10 times the
    rounding scale max(1, max|P|^2 max|P^-1|), large as c -> 0 or 1, and never
    beyond 1e-6 times the canonical tensor's scale max(1, max|target|): that cap
    binds within about 3e-10 of c = 0 or 1, and below c of about 1e-21 the
    rounding scale alone would outgrow the target.  A certificate that misses
    it (or a nan residual) raises AssertionError, and c so small (below about
    3e-309) that the parameter or P is not finite raises ValueError.  The
    reductions of A1, A0Plus and A2 never change: they are checked once, at
    import, and handed out as stored (both objects are immutable).  Only a
    continuous class's form and certificate skip their constructors' checks, where
    the kernel's values are proved to meet them (see ``_certified``); elsewhere the
    validating constructors build them, so every refusal is theirs.
    """
    if label.c is None:
        return _EXCEPTIONAL_REDUCTIONS[label.variant]
    return _certified(label)


# The exceptional reductions, checked here once on the path of every label.
_EXCEPTIONAL_REDUCTIONS = {label.variant: _certified(label) for label in _EXCEPTIONAL_LABELS}


def label_to_json_dict(label: FlowClassLabel) -> dict:
    out: dict = {"class": label.variant}
    if label.c is not None:
        out["c"] = label.c
    return out
