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

from .errors import GeometryError
from .minkowski import PseudoAngle, _checked_angle, _span_theta, mink_inner
from .triangles import (
    DeSitterTriangle,
    ProperName,
    _disk_name,
    _others,
    distinguished_vertex,
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


# Each type's rule and the signs of t1, t2, t3 in its signed angle sum.
_FORMULAS = {
    ProperName.SPATIOLATERAL: (GirardFormula.SPATIOLATERAL, (-1.0, 1.0, 1.0)),
    ProperName.TEMPOLATERAL: (GirardFormula.TEMPOLATERAL, (1.0, -1.0, -1.0)),
    ProperName.CHOROSCELES: (GirardFormula.CHOROSCELES, (1.0, 1.0, 1.0)),
    ProperName.CHRONOSCELES: (GirardFormula.CHRONOSCELES, (-1.0, 1.0, 1.0)),
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


def interior_angles(tri: DeSitterTriangle) -> AngleSet:
    """Real and complex angle at each vertex between the two edge tangents."""
    triangle_name(tri)
    tangents = tri.tangents.tolist()
    thetas = []
    phis = []
    for j in range(3):
        k, l = _others(j)
        phi, g = _checked_angle(tangents[j][k], tangents[j][l], "pseudo angle")
        phis.append(phi)
        thetas.append(_span_theta(phi, g))
    return AngleSet(tuple(thetas), tuple(phis))


def _angle_sum(angles: AngleSet) -> complex:
    return sum(p.value for p in angles.phi) - math.pi


def complex_area(tri: DeSitterTriangle) -> complex:
    """Angle sum minus pi; purely imaginary, imaginary part is the area."""
    _disk_name(tri)
    return _angle_sum(interior_angles(tri))


def girard_area(tri: DeSitterTriangle) -> AreaResult:
    """Signed angle-sum area for the four supported triangle types."""
    name = triangle_name(tri)
    d = distinguished_vertex(tri)
    k, l = _others(d)
    angles = interior_angles(tri)
    formula, (s1, s2, s3) = _FORMULAS[name]
    area = s1 * angles.theta[d] + s2 * angles.theta[k] + s3 * angles.theta[l]
    nabla = _angle_sum(angles)
    if abs(nabla.real) > AREA_SHAPE_TOL or nabla.imag <= 0.0 \
            or abs(nabla.imag - area) > AREA_SHAPE_TOL:
        raise GeometryError(
            f"angle sum {nabla!r} inconsistent with signed area {area!r}")
    return AreaResult(nabla, area, formula, d, angles)


def _acosh_at_least_one(x: float) -> float:
    # Guards arguments that mathematically sit at >= 1 but may round below.
    return math.acosh(max(x, 1.0))


def _apex_products(tri: DeSitterTriangle) -> tuple[float, float, float]:
    # Tangent products at the distinguished vertex d, then at k and l.
    d = distinguished_vertex(tri)
    k, l = _others(d)
    t = tri.tangents.tolist()
    return (mink_inner(t[d][k], t[d][l]),
            mink_inner(t[k][d], t[k][l]),
            mink_inner(t[l][d], t[l][k]))


def girard_area_from_products(tri: DeSitterTriangle) -> float:
    """Area straight from tangent inner products, skipping angle extraction."""
    name = triangle_name(tri)
    g1, g2, g3 = _apex_products(tri)
    if name is ProperName.SPATIOLATERAL:
        return -_acosh_at_least_one(-g1) + _acosh_at_least_one(g2) + _acosh_at_least_one(g3)
    if name is ProperName.TEMPOLATERAL:
        return _acosh_at_least_one(g1) - _acosh_at_least_one(-g2) - _acosh_at_least_one(-g3)
    if name is ProperName.CHOROSCELES:
        return _acosh_at_least_one(g1) + math.asinh(g2) + math.asinh(g3)
    return -_acosh_at_least_one(-g1) + math.asinh(g2) + math.asinh(g3)
