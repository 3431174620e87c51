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
from .minkowski import ZERO_EPS, CausalType, _dot, _edge_code, _float3, _null, _unit, as_vec3, mink_inner

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
        q = _dot(x, x)
        # Negated so that a nan <v,v> (overflow of a huge vertex) fails too.
        if not _unit(q):
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


# The conic table: the kind of each minkowski._edge_code, its arc length in
# <p,q> and the sine S that interpolates along it, x(t) = (S((1-t)d) p + S(td) q)/S(d).
# It is keyed by the int code, not the kind: an Enum key hashes in Python.
_SEGMENTS = {1: (SegmentKind.ELLIPSE_PART, math.acos, math.sin),
             4: (SegmentKind.HYPERBOLA_PART, math.acosh, math.sinh),
             16: (SegmentKind.NULL_LINE, None, None), 64: (SegmentKind.IMPOSSIBLE, None, None)}


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
    if q <= 0.0 or _null(q):
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

    return np.array(_tangent(p, q, _dot(p._x, q._x)))


def _tangent(p: DeSitterPoint, q: DeSitterPoint, c: float) -> list[float]:
    """tangent_toward(p, q) as Python floats, given c = <p,q>.

    The row is w / sqrt|<w,w>|, w = q - c p, and |<w,w>| <= |w|^2 (Euclidean),
    so some component is at least 1/sqrt(3) in magnitude: the row is never
    near zero, and the area path runs no zero-vector test on it.
    """
    (a0, a1, a2), (b0, b1, b2) = p._x, q._x
    w = [b0 - c * a0, b1 - c * a1, b2 - c * a2]
    ww = _dot(w, w)
    if _null(ww):
        how = _proportional(p, q)
        if how is not None:
            raise CoincidentPointsError(f"{how} points admit no tangent direction")
        raise NullTangentError(f"null direction: <p,q> = {c!r}")
    r = math.sqrt(abs(ww))
    return [w[0] / r, w[1] / r, w[2] / r]


def classify_span(p: DeSitterPoint, q: DeSitterPoint) -> CausalType:
    """Causal type of the plane through the origin spanned by p and q."""
    how = _proportional(p, q)
    if how is not None:
        raise CoincidentPointsError(f"{how} points span no plane")
    c = _dot(p._x, q._x)
    if _null(abs(c) - 1.0):
        return CausalType.NULL
    if abs(c) < 1.0:
        return CausalType.SPACE_LIKE
    return CausalType.TIME_LIKE


def classify_segment(p: DeSitterPoint, q: DeSitterPoint) -> GeodesicSegment:
    """Segment between two quadric points with its conic kind and length.

    Separation is the arc length: acos<p,q> on an ellipse arc,
    acosh<p,q> on a hyperbola branch, 0 for the two kinds that carry
    no length.  The kind is minkowski._edge_code's: inner products at or
    below -1 admit no geodesic, and the band around -1 is folded into
    IMPOSSIBLE since only +1 yields a null line.
    """
    return _segment(p, q)[0]


def _segment(p: DeSitterPoint, q: DeSitterPoint) -> tuple[GeodesicSegment, int]:
    # classify_segment(p, q) and its kind's edge code, which classify_triangle sums.
    how = _proportional(p, q)
    if how is not None:
        raise CoincidentPointsError(f"{how} points form no segment")
    c = _dot(p._x, q._x)
    code = _edge_code(c)
    kind, length, _ = _SEGMENTS[code]
    return GeodesicSegment(p, q, kind, 0.0 if length is None else length(c)), code


def geodesic_point(seg: GeodesicSegment, t: float) -> DeSitterPoint:
    """Point at parameter t in [0, 1] along an ellipse or hyperbola segment.

    The sine S of seg.kind comes from the conic table _SEGMENTS: the point
    is (S((1-t)s) a + S(ts) b) / S(s), s the separation."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"parameter outside [0, 1]: {t!r}")
    sine = next(sine for kind, _, sine in _SEGMENTS.values() if kind is seg.kind)
    if sine is None:
        raise UnsupportedKindError(f"no interpolation on a {seg.kind.value} segment")
    s = seg.separation
    return DeSitterPoint((sine((1.0 - t) * s) * seg.a.v + sine(t * s) * seg.b.v) / sine(s))


def edge_length(seg: GeodesicSegment) -> float:
    if seg.kind in (SegmentKind.ELLIPSE_PART, SegmentKind.HYPERBOLA_PART):
        return seg.separation
    raise UnsupportedKindError(f"a {seg.kind.value} segment carries no length")
