"""invgeo: the algebra and geometry of square roots of +-I2.

The package covers, for 2x2 real matrices:

- closed-form families of square roots of I2 and -I2 and their
  classification (``roots``);
- the locus S(alpha, beta) of fixed trace and determinant, its Bell
  coordinates, quadric type, and the rulings of the involution hyperboloid
  (``quadric``);
- order-2 Householder reflections and Pythagorean rational roots
  (``householder``);
- the split-quaternion algebra, its matrix isomorphism, and parametrized
  roots of +-1 (``splitquat``);
- closed-form square roots and root counts, Jordan-form matrix
  functions, and a brute-force root oracle (``matfun``);
- plane-transformation factorizations and orbits (``xform``).

A CLI (``invgeo``) exposes each capability with JSON/CSV output.
"""

from .errors import InvGeoError
from .mat2 import DEFAULT_TOL, Mat2, Tolerance, Vec2, approx_eq
from .roots import (
    RootFamily,
    RootTag,
    classify_involution,
    is_involution,
    is_skew_involution,
    make_case_root,
    make_general_root,
    make_root,
    make_skew_root,
    sample_involutions,
    sample_skew_involutions,
)
from .quadric import (
    BELL_BASIS,
    BellPoint,
    GeneratorPair,
    LocusParams,
    SurfaceClass,
    SurfacePoint,
    SurfaceTag,
    classify_quadric,
    from_bell,
    generator_directions,
    generator_point,
    in_locus,
    on_asymptotic_cone,
    principal_axis_point,
    quadric_residual,
    sample_surface,
    to_bell,
)
from .householder import (
    UnitVec2,
    householder_angle,
    householder_from_angle,
    householder_from_unit,
    pythagorean_root,
    reflection_axis,
)
from .splitquat import (
    CausalClass,
    SplitQuat,
    decompose_root,
    from_matrix,
    root_matrix_identity,
    root_matrix_neg,
    sq_classify,
    sq_inverse,
    sq_mul,
    to_matrix,
    unit_root_identity,
    unit_root_neg,
)
from .matfun import (
    Cardinality,
    Jordan2,
    JordanKind,
    RootCardinality,
    RootSearchGrid,
    SQRT,
    SQUARE,
    ScalarFunction,
    brute_force_roots,
    conjugated_roots,
    count_real_roots,
    eigen2,
    jordan2,
    matrix_function,
    principal_sqrt,
    scaled_roots,
    sqrt_branches,
)
from .xform import (
    Decomposition,
    ElementaryTransform,
    TransformKind,
    decompose,
    decompose_case,
    decompose_general,
    orbit,
)

__version__ = "0.1.0"

__all__ = [
    "BELL_BASIS",
    "BellPoint",
    "Cardinality",
    "CausalClass",
    "DEFAULT_TOL",
    "Decomposition",
    "ElementaryTransform",
    "GeneratorPair",
    "InvGeoError",
    "Jordan2",
    "JordanKind",
    "LocusParams",
    "Mat2",
    "RootCardinality",
    "RootFamily",
    "RootSearchGrid",
    "RootTag",
    "SQRT",
    "SQUARE",
    "ScalarFunction",
    "SplitQuat",
    "SurfaceClass",
    "SurfacePoint",
    "SurfaceTag",
    "Tolerance",
    "TransformKind",
    "UnitVec2",
    "Vec2",
    "approx_eq",
    "brute_force_roots",
    "classify_involution",
    "classify_quadric",
    "conjugated_roots",
    "count_real_roots",
    "decompose",
    "decompose_case",
    "decompose_general",
    "decompose_root",
    "eigen2",
    "from_bell",
    "from_matrix",
    "generator_directions",
    "generator_point",
    "householder_angle",
    "householder_from_angle",
    "householder_from_unit",
    "in_locus",
    "is_involution",
    "is_skew_involution",
    "jordan2",
    "make_case_root",
    "make_general_root",
    "make_root",
    "make_skew_root",
    "matrix_function",
    "on_asymptotic_cone",
    "orbit",
    "principal_axis_point",
    "principal_sqrt",
    "pythagorean_root",
    "quadric_residual",
    "reflection_axis",
    "root_matrix_identity",
    "root_matrix_neg",
    "sample_involutions",
    "sample_skew_involutions",
    "sample_surface",
    "scaled_roots",
    "sq_classify",
    "sq_inverse",
    "sq_mul",
    "sqrt_branches",
    "to_bell",
    "to_matrix",
    "unit_root_identity",
    "unit_root_neg",
]
