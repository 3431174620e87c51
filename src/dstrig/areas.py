"""Interior angles and closed-form areas of de Sitter triangles.

Each of the four null-free triangle types has an angle-sum area formula
anchored at its distinguished vertex: with the triangle relabeled so
that vertex carries angle t1 and the other two carry t2, t3,

    three space-like edges (contractible):  V = -t1 + t2 + t3
    three time-like edges:                  V =  t1 - t2 - t3
    one time-like edge (opposite t1):       V =  t1 + t2 + t3
    one space-like edge (opposite t1):      V = -t1 + t2 + t3

The same numbers come straight from complex angles: the angle sum minus
pi is purely imaginary with positive imaginary part equal to the area.
Mixed-pair angles are signed (arcsinh of the tangent product), which is
what makes the sums correct for obtuse base angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import GeometryError, NonContractibleError, UnsupportedTriangleTypeError
from .minkowski import PseudoAngle, mink_inner, pseudo_angle, real_angle
from .triangles import (
    DeSitterTriangle,
    ProperName,
    _AREA_TYPES,
    _others,
    distinguished_vertex,
    is_contractible,
    triangle_name,
)

# Residual real part allowed in the complex angle sum, and the allowed
# gap between its imaginary part and the signed angle sum.
AREA_SHAPE_TOL = 1e-8


class GirardFormula(Enum):
    """Identifier of the closed-form area rule, echoed on the wire."""

    SPATIOLATERAL = "Thm7"
    TEMPOLATERAL = "Thm8"
    CHOROSCELES = "Thm9"
    CHRONOSCELES = "Thm10"


_FORMULA_BY_NAME = {
    ProperName.SPATIOLATERAL: GirardFormula.SPATIOLATERAL,
    ProperName.TEMPOLATERAL: GirardFormula.TEMPOLATERAL,
    ProperName.CHOROSCELES: GirardFormula.CHOROSCELES,
    ProperName.CHRONOSCELES: GirardFormula.CHRONOSCELES,
}


@dataclass(frozen=True, eq=False)
class AngleSet:
    """Per-vertex angles; index j holds the angle at vertex j."""

    theta: tuple[float, float, float]
    phi: tuple[PseudoAngle, PseudoAngle, PseudoAngle]


@dataclass(frozen=True, eq=False)
class AreaResult:
    complex_area: complex
    real_area: float
    formula_used: GirardFormula
    distinguished_vertex: int
    angles: AngleSet


def _require_area_type(tri: DeSitterTriangle) -> ProperName:
    name = triangle_name(tri)
    if name not in _AREA_TYPES:
        raise UnsupportedTriangleTypeError(f"no angle machinery for {name.value}")
    return name


def interior_angles(tri: DeSitterTriangle) -> AngleSet:
    """Real and complex angle at each vertex between the two edge tangents."""
    _require_area_type(tri)
    thetas = []
    phis = []
    for j in range(3):
        k, l = _others(j)
        u = tri.tangents[j, k]
        v = tri.tangents[j, l]
        phis.append(pseudo_angle(u, v))
        thetas.append(real_angle(u, v))
    return AngleSet(tuple(thetas), tuple(phis))


def _angle_sum(angles: AngleSet) -> complex:
    return sum(p.value for p in angles.phi) - math.pi


def complex_area(tri: DeSitterTriangle) -> complex:
    """Angle sum minus pi; purely imaginary, imaginary part is the area."""
    name = _require_area_type(tri)
    if name is ProperName.SPATIOLATERAL and not is_contractible(tri):
        raise NonContractibleError(
            "a non-contractible triangle does not enclose an area patch")
    return _angle_sum(interior_angles(tri))


def girard_area(tri: DeSitterTriangle) -> AreaResult:
    """Signed angle-sum area for the four supported triangle types."""
    name = _require_area_type(tri)
    d = distinguished_vertex(tri)
    k, l = _others(d)
    angles = interior_angles(tri)
    t1, t2, t3 = angles.theta[d], angles.theta[k], angles.theta[l]
    if name is ProperName.SPATIOLATERAL:
        area = -t1 + t2 + t3
    elif name is ProperName.TEMPOLATERAL:
        area = t1 - t2 - t3
    elif name is ProperName.CHOROSCELES:
        area = t1 + t2 + t3
    else:
        area = -t1 + t2 + t3
    nabla = _angle_sum(angles)
    if abs(nabla.real) > AREA_SHAPE_TOL or nabla.imag <= 0.0 \
            or abs(nabla.imag - area) > AREA_SHAPE_TOL:
        raise GeometryError(
            f"angle sum {nabla!r} inconsistent with signed area {area!r}")
    return AreaResult(nabla, area, _FORMULA_BY_NAME[name], d, angles)


def _acosh_at_least_one(x: float) -> float:
    # Guards arguments that mathematically sit at >= 1 but may round below.
    return math.acosh(max(x, 1.0))


def _apex_products(tri: DeSitterTriangle) -> tuple[float, float, float]:
    # Tangent products at the distinguished vertex d, then at k and l.
    d = distinguished_vertex(tri)
    k, l = _others(d)
    return (mink_inner(tri.tangents[d, k], tri.tangents[d, l]),
            mink_inner(tri.tangents[k, d], tri.tangents[k, l]),
            mink_inner(tri.tangents[l, d], tri.tangents[l, k]))


def girard_area_from_products(tri: DeSitterTriangle) -> float:
    """Area straight from tangent inner products, skipping angle extraction."""
    name = _require_area_type(tri)
    g1, g2, g3 = _apex_products(tri)
    if name is ProperName.SPATIOLATERAL:
        return -_acosh_at_least_one(-g1) + _acosh_at_least_one(g2) + _acosh_at_least_one(g3)
    if name is ProperName.TEMPOLATERAL:
        return _acosh_at_least_one(g1) - _acosh_at_least_one(-g2) - _acosh_at_least_one(-g3)
    if name is ProperName.CHOROSCELES:
        return _acosh_at_least_one(g1) + math.asinh(g2) + math.asinh(g3)
    return -_acosh_at_least_one(-g1) + math.asinh(g2) + math.asinh(g3)
