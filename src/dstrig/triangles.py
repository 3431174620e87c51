"""Geodesic triangles on the de Sitter quadric and their causal taxonomy.

A triangle is named by how many of its edges are space-like, time-like
and light-like.  Triangles with a light-like or impossible edge are
classified but never built: tangents and normals exist only for the
four null-free types.

Vertex and edge indexing: edge j is the edge opposite vertex j, joining
the other two vertices.  tangents[j, k] is the unit tangent at vertex j
toward vertex k; normals[j] is the unit outer normal of edge j's plane.
Every normals[j] points away from vertex j (<normals[j], pj> <= 0); when
<normals[0], p0> is within ZERO_EPS of zero, normals[0] is made
future-pointing instead.  The identity <tangents[j,k], tangents[j,l]> =
<normals[k], normals[l]> at every vertex j follows from that orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    BoundaryCaseError,
    DegenerateTriangleError,
    GeometryError,
    ImpossibleEdgeError,
    NonContractibleError,
    NotSpatiolateralError,
    NullEdgeError,
    UnsupportedTriangleTypeError,
)
from .geodesics import DeSitterPoint, GeodesicSegment, SegmentKind, _proportional, classify_segment, tangent_toward
from .minkowski import NULL_EPS, ZERO_EPS, CausalType, causal_type, lorentz_cross, lorentz_normalize, mink_inner


class TriangleKind(Enum):
    PROPER_DE_SITTER = "proper_de_sitter"
    IMPOSSIBLE = "impossible"


class ProperName(Enum):
    SPATIOLATERAL = "spatiolateral"
    TEMPOLATERAL = "tempolateral"
    CHOROSCELES = "chorosceles"
    CHRONOSCELES = "chronosceles"
    LUCILATERAL = "lucilateral"
    MULTIPLE = "multiple"
    PHOTOSCELES_SPACE_BASE = "photosceles_space_base"
    PHOTOSCELES_TIME_BASE = "photosceles_time_base"
    BIMETRICAL_CHRONOSCELES = "bimetrical_chronosceles"
    BIMETRICAL_CHOROSCELES = "bimetrical_chorosceles"
    NONE = "none"


class PolarKind(Enum):
    ON_DE_SITTER = "on_de_sitter"
    ON_H2 = "on_h2"
    ON_ANTI_H2 = "on_anti_h2"


# (space-like, time-like, light-like) edge counts -> name.
_NAME_TABLE = {
    (3, 0, 0): ProperName.SPATIOLATERAL,
    (0, 3, 0): ProperName.TEMPOLATERAL,
    (2, 1, 0): ProperName.CHOROSCELES,
    (1, 2, 0): ProperName.CHRONOSCELES,
    (0, 0, 3): ProperName.LUCILATERAL,
    (1, 1, 1): ProperName.MULTIPLE,
    (1, 0, 2): ProperName.PHOTOSCELES_SPACE_BASE,
    (0, 1, 2): ProperName.PHOTOSCELES_TIME_BASE,
    (0, 2, 1): ProperName.BIMETRICAL_CHRONOSCELES,
    (2, 0, 1): ProperName.BIMETRICAL_CHOROSCELES,
}

_AREA_TYPES = (ProperName.SPATIOLATERAL, ProperName.TEMPOLATERAL,
               ProperName.CHOROSCELES, ProperName.CHRONOSCELES)


@dataclass(frozen=True, eq=False)
class TriangleClass:
    kind: TriangleKind
    edge_counts: tuple[int, int, int]
    proper_name: ProperName
    contractible: bool | None
    edges: tuple[GeodesicSegment, GeodesicSegment, GeodesicSegment]


@dataclass(frozen=True, eq=False)
class DeSitterTriangle:
    points: tuple[DeSitterPoint, DeSitterPoint, DeSitterPoint]
    edges: tuple[GeodesicSegment, GeodesicSegment, GeodesicSegment]
    tangents: np.ndarray  # (3, 3, 3); [j, k] = unit tangent at j toward k
    normals: np.ndarray   # (3, 3);   [j] = unit outer normal of edge j


@dataclass(frozen=True, eq=False)
class PolarTriangle:
    vertices: tuple[np.ndarray, np.ndarray, np.ndarray]
    kinds: tuple[PolarKind, PolarKind, PolarKind]


def _others(j: int) -> tuple[int, int]:
    return (j + 1) % 3, (j + 2) % 3


def _check_distinct(points) -> None:
    for i in range(3):
        for j in range(i + 1, 3):
            how = _proportional(points[i], points[j])
            if how is not None:
                raise DegenerateTriangleError(f"vertices {i + 1} and {j + 1} are {how}")


def _check_not_collinear(points) -> None:
    # Three vertices on one non-null geodesic span a plane through the origin.
    if abs(float(np.linalg.det(np.array([p._x for p in points])))) < ZERO_EPS:
        raise DegenerateTriangleError("vertices lie on a single geodesic")


def build_triangle(p1: DeSitterPoint, p2: DeSitterPoint, p3: DeSitterPoint) -> DeSitterTriangle:
    """Assemble a triangle with tangents and outer normals.

    Every normals[j] points away from vertex j (see the module docstring).

    Only the four null-free types can be built; null or impossible edges
    and collinear vertex triples are rejected.
    """
    points = (p1, p2, p3)
    return _assemble(points, classify_triangle(*points))


def _assemble(points, cls: TriangleClass) -> DeSitterTriangle:
    # Tangents and normals for a vertex triple that classify_triangle
    # has already checked for coincident, antipodal and collinear vertices.
    for j, seg in enumerate(cls.edges):
        if seg.kind is SegmentKind.IMPOSSIBLE:
            raise ImpossibleEdgeError(f"edge opposite vertex {j + 1} admits no geodesic")
        if seg.kind is SegmentKind.NULL_LINE:
            raise NullEdgeError(f"edge opposite vertex {j + 1} is a null line")

    tangents = np.zeros((3, 3, 3))
    for j in range(3):
        for k in range(3):
            if j != k:
                tangents[j, k] = tangent_toward(points[j], points[k])

    raw = []
    for j in range(3):
        k, l = _others(j)
        raw.append(lorentz_normalize(lorentz_cross(points[k]._x, points[l]._x)).tolist())

    # One sign suffices: <axb, c> = det[c; a; b] gives every <raw[j], pj> the same sign, and
    # <axb, cxd> = <a,d><b,c> - <a,c><b,d> gives <raw[k], raw[l]> that of <t_jk, t_jl>.
    # Flip so edge 1's normal points away from vertex 1, else future-pointing if degenerate.
    anchor = mink_inner(raw[0], points[0]._x)
    flip = anchor > 0.0 if abs(anchor) > ZERO_EPS else raw[0][0] < 0.0
    normals = -np.array(raw) if flip else np.array(raw)

    tangents.setflags(write=False)
    normals.setflags(write=False)
    return DeSitterTriangle(points, cls.edges, tangents, normals)


def _counts(edges) -> tuple[int, int, int]:
    kinds = [e.kind for e in edges]
    return (kinds.count(SegmentKind.ELLIPSE_PART), kinds.count(SegmentKind.HYPERBOLA_PART),
            kinds.count(SegmentKind.NULL_LINE))


def _contractibility(edges) -> bool | None:
    # None inside the tolerance band at 2*pi (undecidable).
    total = sum(e.separation for e in edges)
    if abs(total - 2.0 * math.pi) <= NULL_EPS:
        return None
    return total < 2.0 * math.pi


def classify_triangle(p1: DeSitterPoint, p2: DeSitterPoint, p3: DeSitterPoint) -> TriangleClass:
    """Name a vertex triple from its edge kinds alone.

    Works for all ten named types including the null-edge families; no
    tangent or normal data is computed.  Triples whose three vertices
    lie on one non-null geodesic are rejected as degenerate (null-edge
    families are legitimately coplanar and are not).
    """
    points = (p1, p2, p3)
    _check_distinct(points)
    edges = tuple(classify_segment(points[k], points[l]) for k, l in map(_others, range(3)))
    i, j, k = _counts(edges)
    if any(e.kind is SegmentKind.IMPOSSIBLE for e in edges):
        return TriangleClass(TriangleKind.IMPOSSIBLE, (i, j, k), ProperName.NONE, None, edges)
    if k == 0:
        _check_not_collinear(points)
    name = _NAME_TABLE[(i, j, k)]
    contractible = _contractibility(edges) if name is ProperName.SPATIOLATERAL else None
    return TriangleClass(TriangleKind.PROPER_DE_SITTER, (i, j, k), name, contractible, edges)


def triangle_name(tri: DeSitterTriangle) -> ProperName:
    """Proper name of a triangle: one of the four null-free types.

    The one type check of a DeSitterTriangle.  build_triangle makes no
    other type; a triangle assembled by hand with a null or impossible
    edge raises UnsupportedTriangleTypeError.
    """
    name = _NAME_TABLE.get(_counts(tri.edges))
    if name not in _AREA_TYPES:
        what = "an impossible edge" if name is None else name.value
        raise UnsupportedTriangleTypeError(f"no angle machinery for {what}")
    return name


def is_contractible(tri: DeSitterTriangle) -> bool:
    """Whether a three-space-like-edge triangle bounds a disk.

    Decided by the edge-length sum against 2*pi; sums inside the
    tolerance band raise instead of guessing a side.
    """
    if triangle_name(tri) is not ProperName.SPATIOLATERAL:
        raise NotSpatiolateralError("contractibility is defined for three space-like edges")
    verdict = _contractibility(tri.edges)
    if verdict is None:
        total = sum(e.separation for e in tri.edges)
        raise BoundaryCaseError(f"edge-length sum {total!r} sits on the 2*pi boundary")
    return verdict


def _disk_name(tri: DeSitterTriangle) -> ProperName:
    # triangle_name of a triangle that bounds a disk; only three space-like edges may not.
    name = triangle_name(tri)
    if name is ProperName.SPATIOLATERAL and not is_contractible(tri):
        raise NonContractibleError("triangle is non-contractible: it bounds no disk")
    return name


def polar_triangle(tri: DeSitterTriangle) -> PolarTriangle:
    """The triangle's outer normals, tagged by which surface each lies on."""
    triangle_name(tri)
    kinds = []
    for u in tri.normals.tolist():
        if mink_inner(u, u) > 0.0:
            kinds.append(PolarKind.ON_DE_SITTER)
        elif u[0] > 0.0:
            kinds.append(PolarKind.ON_H2)
        else:
            kinds.append(PolarKind.ON_ANTI_H2)
    vertices = tuple(tri.normals[j].copy() for j in range(3))
    return PolarTriangle(vertices, tuple(kinds))


def distinguished_vertex(tri: DeSitterTriangle) -> int:
    """Index of the vertex the area formulas single out.

    Three space-like edges: the unique vertex whose two opposite-edge
    normals share a time cone (contractible triangles only).  Three
    time-like edges: the unique vertex whose two tangents do not share
    a time cone.  Mixed types: the vertex opposite the odd edge out.
    """
    name = _disk_name(tri)
    if name is ProperName.CHOROSCELES:
        return next(j for j in range(3) if tri.edges[j].kind is SegmentKind.HYPERBOLA_PART)
    if name is ProperName.CHRONOSCELES:
        return next(j for j in range(3) if tri.edges[j].kind is SegmentKind.ELLIPSE_PART)
    if name is ProperName.SPATIOLATERAL:
        normals = tri.normals.tolist()
        hits = []
        for j in range(3):
            k, l = _others(j)
            if mink_inner(normals[k], normals[l]) < 0.0:
                hits.append(j)
        if len(hits) != 1:
            raise GeometryError(f"expected one cone-sharing vertex, found {hits!r}")
        return hits[0]
    tangents = tri.tangents.tolist()
    hits = []
    for j in range(3):
        k, l = _others(j)
        if mink_inner(tangents[j][k], tangents[j][l]) > 0.0:
            hits.append(j)
    if len(hits) != 1:
        raise GeometryError(f"expected one cone-splitting vertex, found {hits!r}")
    return hits[0]


def tangent_normal_residual(tri: DeSitterTriangle) -> float:
    """Largest violation of <V_jk, V_jl> = <u_k, u_l> over the vertices."""
    tangents, normals = tri.tangents.tolist(), tri.normals.tolist()
    worst = 0.0
    for j in range(3):
        k, l = _others(j)
        lhs = mink_inner(tangents[j][k], tangents[j][l])
        rhs = mink_inner(normals[k], normals[l])
        worst = max(worst, abs(lhs - rhs))
    return worst


def normal_duality_holds(tri: DeSitterTriangle) -> bool:
    """Tangents along an edge are time-like iff the edge's normal is space-like."""
    tangents, normals = tri.tangents.tolist(), tri.normals.tolist()
    for m in range(3):
        j, k = _others(m)
        u_space = causal_type(normals[m]) is CausalType.SPACE_LIKE
        for a, b in ((j, k), (k, j)):
            v_time = causal_type(tangents[a][b]) is CausalType.TIME_LIKE
            if v_time != u_space:
                return False
    return True
