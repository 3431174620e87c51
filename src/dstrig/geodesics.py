"""Points and geodesic segments on the unit de Sitter quadric <p,p> = 1.

Geodesics are plane sections through the origin.  The inner product of
the endpoints decides the conic: an ellipse arc for values in (-1, 1),
a hyperbola branch above 1, a null straight line at exactly 1, and no
connecting geodesic at all below -1.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .errors import (
    CoincidentPointsError,
    NotSpaceLikePositionError,
    NotUnitError,
    NullTangentError,
    UnsupportedKindError,
)
from .minkowski import NULL_EPS, UNIT_EPS, ZERO_EPS, CausalType, _float3, as_vec3, mink_inner

if TYPE_CHECKING:
    import numpy as np


class SegmentKind(Enum):
    ELLIPSE_PART = "ellipse_part"
    HYPERBOLA_PART = "hyperbola_part"
    NULL_LINE = "null_line"
    IMPOSSIBLE = "impossible"


@dataclass(frozen=True, eq=False, repr=False)
class DeSitterPoint:
    """Position on the quadric, made from three components: DeSitterPoint(v).

    _x holds the coordinates as Python floats, which the scalar code
    reads.  v is the same coordinates as a read-only numpy array, built
    on first access and then cached, so a point that is only classified
    never loads numpy.
    """

    v: InitVar[object]
    _x: tuple[float, float, float] = field(init=False)

    def __post_init__(self, v):
        # The whole validation, which perfbench's tracer times as DeSitterPoint.
        x = _float3(v)
        q = mink_inner(x, x)
        # Negated so that a nan <v,v> (overflow of a huge vertex) fails too.
        if not abs(q - 1.0) <= UNIT_EPS:
            raise NotUnitError(f"point off the quadric: <v,v> = {q!r}")
        object.__setattr__(self, "_x", x)

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: v before its first read.
        if name != "v":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        import numpy as np

        v = np.array(self._x)
        v.setflags(write=False)
        object.__setattr__(self, "v", v)
        return v

    def __repr__(self) -> str:
        return f"DeSitterPoint({list(self._x)!r})"


@dataclass(frozen=True, eq=False)
class GeodesicSegment:
    a: DeSitterPoint
    b: DeSitterPoint
    kind: SegmentKind
    separation: float


def project_to_quadric(v) -> DeSitterPoint:
    """Scale a space-like position vector onto the quadric."""
    v = as_vec3(v)
    q = mink_inner(v, v)
    if q <= NULL_EPS:
        raise NotSpaceLikePositionError(
            f"only space-like positions project to the quadric: <v,v> = {q!r}")
    return DeSitterPoint(v / math.sqrt(q))


def _proportional(p: DeSitterPoint, q: DeSitterPoint) -> str | None:
    (a0, a1, a2), (b0, b1, b2) = p._x, q._x
    if max(abs(a0 - b0), abs(a1 - b1), abs(a2 - b2)) < ZERO_EPS:
        return "coincident"
    if max(abs(a0 + b0), abs(a1 + b1), abs(a2 + b2)) < ZERO_EPS:
        return "antipodal"
    return None


def tangent_toward(p: DeSitterPoint, q: DeSitterPoint) -> np.ndarray:
    """Unit tangent at p pointing along the geodesic toward q.

    The direction q - <p,q> p is null (no unit tangent) when <p,q> = 1 in
    the band; coincident and antipodal points land there too and are named.
    """
    import numpy as np

    c = mink_inner(p._x, q._x)
    w = [b - c * a for a, b in zip(p._x, q._x)]
    ww = mink_inner(w, w)
    if abs(ww) <= NULL_EPS:
        how = _proportional(p, q)
        if how is not None:
            raise CoincidentPointsError(f"{how} points admit no tangent direction")
        raise NullTangentError(f"null direction: <p,q> = {c!r}")
    r = math.sqrt(abs(ww))
    return np.array([x / r for x in w])


def classify_span(p: DeSitterPoint, q: DeSitterPoint) -> CausalType:
    """Causal type of the plane through the origin spanned by p and q."""
    how = _proportional(p, q)
    if how is not None:
        raise CoincidentPointsError(f"{how} points span no plane")
    c = mink_inner(p._x, q._x)
    if abs(abs(c) - 1.0) <= NULL_EPS:
        return CausalType.NULL
    if abs(c) < 1.0:
        return CausalType.SPACE_LIKE
    return CausalType.TIME_LIKE


def classify_segment(p: DeSitterPoint, q: DeSitterPoint) -> GeodesicSegment:
    """Segment between two quadric points with its conic kind and length.

    Separation is the arc length: acos<p,q> on an ellipse arc,
    acosh<p,q> on a hyperbola branch, 0 for the two kinds that carry
    no length.  Inner products at or below -1 admit no geodesic; the
    band around -1 is folded into IMPOSSIBLE since only +1 yields a
    null line.
    """
    how = _proportional(p, q)
    if how is not None:
        raise CoincidentPointsError(f"{how} points form no segment")
    c = mink_inner(p._x, q._x)
    if abs(c - 1.0) <= NULL_EPS:
        return GeodesicSegment(p, q, SegmentKind.NULL_LINE, 0.0)
    if c > 1.0:
        return GeodesicSegment(p, q, SegmentKind.HYPERBOLA_PART, math.acosh(c))
    if c > -1.0 + NULL_EPS:
        return GeodesicSegment(p, q, SegmentKind.ELLIPSE_PART, math.acos(c))
    return GeodesicSegment(p, q, SegmentKind.IMPOSSIBLE, 0.0)


def geodesic_point(seg: GeodesicSegment, t: float) -> DeSitterPoint:
    """Point at parameter t in [0, 1] along an ellipse or hyperbola segment."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"parameter outside [0, 1]: {t!r}")
    s = seg.separation
    if seg.kind is SegmentKind.ELLIPSE_PART:
        w = (math.sin((1.0 - t) * s) * seg.a.v + math.sin(t * s) * seg.b.v) / math.sin(s)
    elif seg.kind is SegmentKind.HYPERBOLA_PART:
        w = (math.sinh((1.0 - t) * s) * seg.a.v + math.sinh(t * s) * seg.b.v) / math.sinh(s)
    else:
        raise UnsupportedKindError(f"no interpolation on a {seg.kind.value} segment")
    return DeSitterPoint(w)


def edge_length(seg: GeodesicSegment) -> float:
    if seg.kind in (SegmentKind.ELLIPSE_PART, SegmentKind.HYPERBOLA_PART):
        return seg.separation
    raise UnsupportedKindError(f"a {seg.kind.value} segment carries no length")
