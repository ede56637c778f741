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
- closed-form square roots and root counts, and matrix functions f(A) by
  two-point interpolation (``matfun``);
- plane-transformation factorizations and orbits (``xform``).

A CLI (``invgeo``) exposes each capability with JSON/CSV output.

Importing the package loads none of these modules.  Each name in
``__all__`` is imported from its home module on first use, so
``import invgeo`` and the CLI's start pay only for what they touch.
"""

from importlib import import_module as _import_module

#: Home module of each exported name.  Nothing below is imported until first
#: use: ``invgeo.Mat2`` loads ``invgeo.mat2``, ``invgeo.sqrt_branches`` loads
#: ``invgeo.matfun``, so a caller pays only for the modules it touches.
_EXPORTS = {
    "errors": ("InvGeoError",),
    "mat2": ("DEFAULT_TOL", "Mat2", "Tolerance", "Vec2", "approx_eq"),
    "roots": (
        "RootFamily", "RootTag", "classify_involution", "is_involution",
        "is_skew_involution", "make_case_root", "make_general_root", "make_root",
        "make_skew_root", "sample_involutions", "sample_skew_involutions",
    ),
    "quadric": (
        "BELL_BASIS", "BellPoint", "GeneratorPair", "LocusParams", "SurfaceClass",
        "SurfacePoint", "SurfaceTag", "classify_quadric", "from_bell",
        "generator_directions", "generator_point", "in_locus", "on_asymptotic_cone",
        "principal_axis_point", "quadric_residual", "sample_surface", "surface_rows",
        "to_bell",
    ),
    "householder": (
        "UnitVec2", "householder_angle", "householder_from_angle",
        "householder_from_unit", "pythagorean_root", "reflection_axis",
    ),
    "splitquat": (
        "CausalClass", "SplitQuat", "decompose_root", "from_matrix",
        "root_matrix_identity", "root_matrix_neg", "sq_classify", "sq_inverse",
        "sq_mul", "to_matrix", "unit_root_identity", "unit_root_neg",
    ),
    "matfun": (
        "Cardinality", "RootCardinality", "SQRT", "SQUARE", "ScalarFunction",
        "conjugated_roots", "count_real_roots", "eigen2", "matrix_function",
        "principal_sqrt", "scaled_roots", "sqrt_branches",
    ),
    "xform": (
        "Decomposition", "ElementaryTransform", "TransformKind", "decompose",
        "decompose_case", "decompose_general", "orbit",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import an exported name's home module on first use (PEP 562)."""
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
