"""Geodesic triangles on the de Sitter quadric and their causal taxonomy.

A triangle is named by how many of its edges are space-like, time-like
and light-like.  Triangles with a light-like or impossible edge are
classified, but no DeSitterTriangle holds one: tangents and normals
exist only for the four null-free types.  A DeSitterTriangle is its
vertices and edges, and derives its tangents and normals on first read.

Vertex and edge indexing: edge j is the edge opposite vertex j, joining
the other two vertices.  tangents[j, k] is the unit tangent at vertex j
toward vertex k; normals[j] is the unit outer normal of edge j's plane.
Every normals[j] points away from vertex j (<normals[j], pj> <= 0); when
<normals[0], p0> is within ZERO_EPS of zero, normals[0] is made
future-pointing instead.  The identity <tangents[j,k], tangents[j,l]> =
<normals[k], normals[l]> at every vertex j follows from that orientation.
The area path reads only tangents, as the Python-float rows _tangent_rows
that the tangents array is made from, so it loads no numpy; only
polar_triangle and the two checks tangent_normal_residual and
normal_duality_holds read a triangle's normals.
The CLI's classify reports the polar triangle from _normals, which computes
them from the vertices alone, so it builds no tangents and no triangle.

Three space-like edges bound a disk (contractible) when their length sum
is below 2*pi: S = 1 + c_23 + c_31 + c_12 > 0, c_ab = <p_a,p_b>.  On the
quadric S**2 - det(P)**2 = 2 (1 + c_12)(1 + c_13)(1 + c_23), P the vertex
rows (Eriksson, Math. Mag. 63(3), 1990); space-like edges have 1 + c >
NULL_EPS, so |S| > 4.5e-14: the sign never sits at 0.  The sum is 2*pi on
collinear triples (refused), where S = 4 cos(a/2) cos(b/2) cos((a+b)/2) < 0.
The two rules agree on every other triple on the quadric.  Let a, b, c in
(0, pi) be the edge lengths, s = (a + b + c)/2 and G the Gram matrix of
the vertex rows.  det G = -det(P)**2 < 0 off collinear triples, and
det G = 4 sin s sin(s-a) sin(s-b) sin(s-c), so the realisable lengths are
exactly four convex pieces of (0, pi)**3: a + b + c > 2*pi with the
triangle inequalities, and a > b + c, b > a + c, c > a + b.  S is not 0
on any piece (above), and neither is a + b + c - 2*pi (that would give
sin s = 0, so det G = 0); so each rule keeps one sign on each piece, and
one point per piece shows they agree (test_realisable_lengths_are_four_pieces).
Still open: a bound for vertices UNIT_EPS off the quadric, where the
identity gains an error term (see test_sign_matches_perimeter_rule).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .errors import (
    CoincidentPointsError,
    DegenerateTriangleError,
    GeometryError,
    ImpossibleEdgeError,
    NonContractibleError,
    NotSpatiolateralError,
    NullEdgeError,
)
from .geodesics import DeSitterPoint, GeodesicSegment, SegmentKind, _proportional, _tangent, classify_segment
from .minkowski import ZERO_EPS, CausalType, _cross, _normalized, causal_type, mink_inner

if TYPE_CHECKING:
    import numpy as np


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
    contractible: bool | None  # None unless spatiolateral
    edges: tuple[GeodesicSegment, GeodesicSegment, GeodesicSegment]


@dataclass(frozen=True, eq=False)
class DeSitterTriangle:
    """One of the four null-free types: making one with another edge kind raises.

    tangents and normals are read-only arrays, derived from points on first read.
    """
    points: tuple[DeSitterPoint, DeSitterPoint, DeSitterPoint]
    edges: tuple[GeodesicSegment, GeodesicSegment, GeodesicSegment]

    def __post_init__(self):
        # The one refusal of a null or impossible edge: neither has unit tangents.
        for j, seg in enumerate(self.edges):
            if seg.kind is SegmentKind.IMPOSSIBLE:
                raise ImpossibleEdgeError(f"edge opposite vertex {j + 1} admits no geodesic")
            if seg.kind is SegmentKind.NULL_LINE:
                raise NullEdgeError(f"edge opposite vertex {j + 1} is a null line")

    @functools.cached_property
    def tangents(self) -> np.ndarray:
        import numpy as np

        tangents = np.array(self._tangent_rows)
        tangents.setflags(write=False)
        return tangents

    @functools.cached_property
    def _tangent_rows(self) -> list:
        # tangents as Python floats, which the area path and the checks read.  Each
        # pair's <p,q> is computed once: float products commute, so <q,p> is the same.
        p0, p1, p2 = self.points
        c01, c02, c12 = mink_inner(p0._x, p1._x), mink_inner(p0._x, p2._x), mink_inner(p1._x, p2._x)
        zero = [0.0, 0.0, 0.0]
        t01, t02 = _tangent(p0, p1, c01), _tangent(p0, p2, c02)
        t10, t12 = _tangent(p1, p0, c01), _tangent(p1, p2, c12)
        t20, t21 = _tangent(p2, p0, c02), _tangent(p2, p1, c12)
        return [[zero, t01, t02], [t10, zero, t12], [t20, t21, zero]]

    @functools.cached_property
    def normals(self) -> np.ndarray:
        import numpy as np

        normals = np.array(_normals(self.points))
        normals.setflags(write=False)
        return normals


@dataclass(frozen=True, eq=False)
class PolarTriangle:
    vertices: tuple[np.ndarray, np.ndarray, np.ndarray]
    kinds: tuple[PolarKind, PolarKind, PolarKind]


def _others(j: int) -> tuple[int, int]:
    return (j + 1) % 3, (j + 2) % 3


# Band on |det P| / (|p1| |p2| |p3|), Euclidean norms, for the collinearity
# test: 1.4e-14.  Rounding takes collinear triples mapped with rapidity up
# to 8 to at most 1.2e-14; the benchmark pool's triangles are all above 7.9e-5.
_COLLINEAR_EPS = 64.0 * sys.float_info.epsilon


def _check_not_collinear(points) -> None:
    # Three vertices on one non-null geodesic span a plane through the origin:
    # det of the vertex rows, by cofactors along the first row, against a
    # band that grows with the rows' rounding (ZERO_EPS at the least).
    a, b, c = (p._x for p in points)
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a, b, c
    det = a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0)
    scale = math.hypot(*a) * math.hypot(*b) * math.hypot(*c)
    if abs(det) < max(ZERO_EPS, _COLLINEAR_EPS * scale):
        raise DegenerateTriangleError("vertices lie on a single geodesic")


def build_triangle(p1: DeSitterPoint, p2: DeSitterPoint, p3: DeSitterPoint) -> DeSitterTriangle:
    """The triangle on three vertices; its tangents and normals come on first read.

    Every normals[j] points away from vertex j (see the module docstring).

    Only the four null-free types can be built; null or impossible edges
    and collinear vertex triples are rejected.
    """
    points = (p1, p2, p3)
    return DeSitterTriangle(points, classify_triangle(*points).edges)


def _normals(points) -> list[list[float]]:
    # The outer normals of a null-free, non-collinear vertex triple, as Python floats.
    raw = [_normalized(_cross(points[k]._x, points[l]._x)) for k, l in map(_others, range(3))]
    # One sign suffices: <axb, c> = det[c; a; b] gives every <raw[j], pj> the same sign, and
    # <axb, cxd> = <a,d><b,c> - <a,c><b,d> gives <raw[k], raw[l]> that of <t_jk, t_jl>.
    # Flip so edge 1's normal points away from vertex 1, else future-pointing if degenerate.
    anchor = mink_inner(raw[0], points[0]._x)
    flip = anchor > 0.0 if abs(anchor) > ZERO_EPS else raw[0][0] < 0.0
    return [[-c for c in u] for u in raw] if flip else raw


def _counts(edges) -> tuple[int, int, int]:
    kinds = [e.kind for e in edges]
    return (kinds.count(SegmentKind.ELLIPSE_PART), kinds.count(SegmentKind.HYPERBOLA_PART),
            kinds.count(SegmentKind.NULL_LINE))


def _contractible(points) -> bool:
    # S > 0 (module docstring); the sampler's oracle._kept_attempts sums S alike, per attempt.
    x0, x1, x2 = (p._x for p in points)
    return 1.0 + mink_inner(x1, x2) + mink_inner(x2, x0) + mink_inner(x0, x1) > 0.0


def classify_triangle(p1: DeSitterPoint, p2: DeSitterPoint, p3: DeSitterPoint) -> TriangleClass:
    """Name a vertex triple from its edge kinds alone.

    Works for all ten named types; no tangent or normal is computed.
    Rejected as degenerate: the first coincident or antipodal vertex pair
    in the order 1-2, 1-3, 2-3, or three vertices on one non-null
    geodesic (null-edge families are legitimately coplanar and are not).
    """
    points = (p1, p2, p3)
    edges = [None] * 3
    for m, i, j in ((2, 1, 2), (1, 1, 3), (0, 2, 3)):  # edge m joins vertices i and j
        a, b = (points[n] for n in _others(m))
        try:
            edges[m] = classify_segment(a, b)
        except CoincidentPointsError:
            raise DegenerateTriangleError(f"vertices {i} and {j} are {_proportional(a, b)}") from None
    edges = tuple(edges)
    i, j, k = _counts(edges)
    name = _NAME_TABLE.get((i, j, k))
    if name is None:  # every count triple summing to 3 is named; an impossible edge is in no count
        return TriangleClass(TriangleKind.IMPOSSIBLE, (i, j, k), ProperName.NONE, None, edges)
    if k == 0:
        _check_not_collinear(points)
    contractible = _contractible(points) if name is ProperName.SPATIOLATERAL else None
    return TriangleClass(TriangleKind.PROPER_DE_SITTER, (i, j, k), name, contractible, edges)


def triangle_name(tri: DeSitterTriangle) -> ProperName:
    """Proper name of a triangle: one of the four null-free types, the only ones made."""
    return _NAME_TABLE[_counts(tri.edges)]


def is_contractible(tri: DeSitterTriangle) -> bool:
    """Whether a three-space-like-edge triangle bounds a disk.

    Decided by the sign of 1 + <p2,p3> + <p3,p1> + <p1,p2>, with no band
    (module docstring).
    """
    if triangle_name(tri) is not ProperName.SPATIOLATERAL:
        raise NotSpatiolateralError("contractibility is defined for three space-like edges")
    return _contractible(tri.points)


def _disk_name(tri: DeSitterTriangle) -> ProperName:
    # triangle_name of a triangle that bounds a disk; only three space-like edges may not.
    name = triangle_name(tri)
    if name is ProperName.SPATIOLATERAL and not _contractible(tri.points):
        raise NonContractibleError("triangle is non-contractible: it bounds no disk")
    return name


def polar_triangle(tri: DeSitterTriangle) -> PolarTriangle:
    """The triangle's outer normals, tagged by which surface each lies on."""
    vertices = tuple(tri.normals[j].copy() for j in range(3))
    return PolarTriangle(vertices, _polar_kinds(tri.normals.tolist()))


def _polar_kinds(normals) -> tuple[PolarKind, PolarKind, PolarKind]:
    # The surface each normal (three Python floats) lies on.
    return tuple(PolarKind.ON_DE_SITTER if mink_inner(u, u) > 0.0
                 else PolarKind.ON_H2 if u[0] > 0.0 else PolarKind.ON_ANTI_H2
                 for u in normals)


def distinguished_vertex(tri: DeSitterTriangle) -> int:
    """Index of the vertex the area formulas single out.

    Three space-like edges: the unique vertex whose two opposite-edge
    normals share a time cone (contractible triangles only).  Three
    time-like edges: the unique vertex whose two tangents do not share
    a time cone.  Mixed types: the vertex opposite the odd edge out.
    Both same-kind rules read the sign of <t_jk, t_jl> = <n_k, n_l>.
    """
    return _distinguished(_disk_name(tri), tri.edges, _vertex_products(tri._tangent_rows))


def _distinguished(name: ProperName, edges, products: list[float]) -> int:
    # distinguished_vertex for a disk name; only the same-kind rules read the products.
    if name is ProperName.CHOROSCELES:
        return next(j for j in range(3) if edges[j].kind is SegmentKind.HYPERBOLA_PART)
    if name is ProperName.CHRONOSCELES:
        return next(j for j in range(3) if edges[j].kind is SegmentKind.ELLIPSE_PART)
    sign = -1.0 if name is ProperName.SPATIOLATERAL else 1.0
    hits = [j for j, g in enumerate(products) if sign * g > 0.0]
    if len(hits) != 1:
        raise GeometryError(f"expected one distinguished vertex, found {hits!r}")
    return hits[0]


def _vertex_products(t: list) -> list[float]:
    # <t_jk, t_jl> at vertex j = 0, 1, 2, with (k, l) = _others(j), from _tangent_rows.
    return [mink_inner(t[j][k], t[j][l]) for j, (k, l) in enumerate(map(_others, range(3)))]


def _worse(a: float, b: float) -> float:
    # max(a, b), except that a nan on either side wins: max() drops one.
    return math.nan if math.isnan(a) or math.isnan(b) else max(a, b)


def tangent_normal_residual(tri: DeSitterTriangle) -> float:
    """Largest violation of <V_jk, V_jl> = <u_k, u_l> over the vertices; nan if any is nan."""
    normals = tri.normals.tolist()
    worst = 0.0
    for j, lhs in enumerate(_vertex_products(tri._tangent_rows)):
        k, l = _others(j)
        worst = _worse(worst, abs(lhs - mink_inner(normals[k], normals[l])))
    return worst


def normal_duality_holds(tri: DeSitterTriangle) -> bool:
    """Tangents along an edge are time-like iff the edge's normal is space-like."""
    tangents, normals = tri._tangent_rows, tri.normals.tolist()
    for m in range(3):
        j, k = _others(m)
        u_space = causal_type(normals[m]) is CausalType.SPACE_LIKE
        for a, b in ((j, k), (k, j)):
            v_time = causal_type(tangents[a][b]) is CausalType.TIME_LIKE
            if v_time != u_space:
                return False
    return True
