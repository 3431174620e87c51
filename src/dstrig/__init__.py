"""Triangles on the 2D de Sitter quadric: classification, angles, areas.

Points live on the unit quadric of a three dimensional Minkowski space
with signature (-, +, +).  The package classifies geodesic triangles by
the causal character of their edges, computes interior pseudo-angles,
evaluates the closed-form areas, and cross-checks them against a direct
surface integral.

Importing the package loads no numpy: classification runs on Python
floats, and numpy is imported by the first call that builds an array
(a triangle's tangents and normals, DeSitterPoint.v, METRIC, the
oracle and the sampler).
"""

from .areas import (
    AREA_SHAPE_TOL,
    AngleSet,
    AreaResult,
    GirardFormula,
    complex_area,
    girard_area,
    girard_area_from_products,
    interior_angles,
)
from .errors import (
    BoundaryCaseError,
    CoincidentPointsError,
    DegeneratePairError,
    DegenerateTriangleError,
    ExhaustedAttemptsError,
    GeometryError,
    ImpossibleEdgeError,
    NonContractibleError,
    NonConvergentError,
    NotSpaceLikePositionError,
    NotSpatiolateralError,
    NotTimeLikeError,
    NotUnitError,
    NullEdgeError,
    NullInputError,
    NullSpanError,
    NullTangentError,
    UnsupportedKindError,
    UnsupportedTriangleTypeError,
    ZeroVectorError,
)
from .geodesics import (
    DeSitterPoint,
    GeodesicSegment,
    SegmentKind,
    classify_segment,
    classify_span,
    edge_length,
    geodesic_point,
    project_to_quadric,
    tangent_toward,
)
from .minkowski import (
    NULL_EPS,
    UNIT_EPS,
    ZERO_EPS,
    AngleBranch,
    CausalType,
    PseudoAngle,
    boost_matrix,
    causal_type,
    lorentz_cross,
    lorentz_normalize,
    mink_inner,
    pseudo_angle,
    pseudo_norm,
    random_lorentz,
    real_angle,
    rotation_matrix,
    same_time_cone,
)
from .oracle import (
    GeneratorConfig,
    OracleResult,
    integrate_area,
    random_buildable_triangle,
    random_triangle,
    verify_type,
)
from .triangles import (
    DeSitterTriangle,
    PolarKind,
    PolarTriangle,
    ProperName,
    TriangleClass,
    TriangleKind,
    build_triangle,
    classify_triangle,
    distinguished_vertex,
    is_contractible,
    normal_duality_holds,
    polar_triangle,
    tangent_normal_residual,
    triangle_name,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # METRIC is minkowski's, built on first access (see minkowski.__getattr__).
    if name == "METRIC":
        from . import minkowski

        return minkowski.METRIC
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AREA_SHAPE_TOL",
    "METRIC",
    "NULL_EPS",
    "UNIT_EPS",
    "ZERO_EPS",
    "AngleBranch",
    "AngleSet",
    "AreaResult",
    "BoundaryCaseError",
    "CausalType",
    "CoincidentPointsError",
    "DeSitterPoint",
    "DeSitterTriangle",
    "DegeneratePairError",
    "DegenerateTriangleError",
    "ExhaustedAttemptsError",
    "GeneratorConfig",
    "GeodesicSegment",
    "GeometryError",
    "GirardFormula",
    "ImpossibleEdgeError",
    "NonContractibleError",
    "NonConvergentError",
    "NotSpaceLikePositionError",
    "NotSpatiolateralError",
    "NotTimeLikeError",
    "NotUnitError",
    "NullEdgeError",
    "NullInputError",
    "NullSpanError",
    "NullTangentError",
    "OracleResult",
    "PolarKind",
    "PolarTriangle",
    "ProperName",
    "PseudoAngle",
    "SegmentKind",
    "TriangleClass",
    "TriangleKind",
    "UnsupportedKindError",
    "UnsupportedTriangleTypeError",
    "ZeroVectorError",
    "boost_matrix",
    "build_triangle",
    "causal_type",
    "classify_segment",
    "classify_span",
    "classify_triangle",
    "complex_area",
    "distinguished_vertex",
    "edge_length",
    "geodesic_point",
    "girard_area",
    "girard_area_from_products",
    "integrate_area",
    "interior_angles",
    "is_contractible",
    "lorentz_cross",
    "lorentz_normalize",
    "mink_inner",
    "normal_duality_holds",
    "polar_triangle",
    "project_to_quadric",
    "pseudo_angle",
    "pseudo_norm",
    "random_buildable_triangle",
    "random_lorentz",
    "random_triangle",
    "real_angle",
    "rotation_matrix",
    "same_time_cone",
    "tangent_normal_residual",
    "tangent_toward",
    "triangle_name",
    "verify_type",
]
