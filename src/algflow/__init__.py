"""Cubic structure-constant tensors and the rotational flow of 2D algebras.

The package represents finite-dimensional algebras by their m x m x m
structure-constant arrays, implements the slice-wise (type C) cubic-matrix
product, builds the rotation flow of two-dimensional algebras, verifies the
Kolmogorov-Chapman composition law, decides isomorphism of flow algebras at
different times, and reduces each flow class to its canonical form with an
explicit basis-change certificate.
"""

from .algebra import (
    AlgebraFD,
    BasisChange,
    StructMatrix2x4,
    algebra_from_json_dict,
    algebra_to_json_dict,
    associativity_residual,
    associativity_residuals,
    change_of_basis,
    commutativity_residual,
    commutativity_residuals,
    from_2x4,
    is_associative,
    is_commutative,
    product,
    rank_2x4,
    to_2x4,
)
from .classification import (
    BekbaevForm,
    FlowClassLabel,
    associativity_census,
    bekbaev_matrix,
    class_representative,
    classify_time,
    classify_times,
    label_to_json_dict,
    to_bekbaev,
)
from .cubic import (
    BinaryOpTable,
    CubicTensor,
    add,
    basis_unit,
    from_middle_slices,
    mul_general,
    mul_type_c,
    scale,
    slice_j,
    tensor_from_json_dict,
    tensor_to_json_dict,
)
from .flow import (
    commutativity_defect,
    flow_algebra,
    flow_tensors,
    kce_residuals,
    verify_kce,
)
from .isomorphism import (
    InvariantSignature,
    IsoVerdict,
    SearchConfig,
    invariant_signature,
    iso_residual,
    iso_search,
    rotation_iso,
)

__version__ = "0.1.0"
