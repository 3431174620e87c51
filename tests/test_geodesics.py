import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chart_point
from dstrig.errors import (
    CoincidentPointsError,
    NotSpaceLikePositionError,
    NotUnitError,
    NullTangentError,
    UnsupportedKindError,
)
from dstrig.geodesics import (
    DeSitterPoint,
    SegmentKind,
    classify_segment,
    classify_span,
    edge_length,
    geodesic_point,
    project_to_quadric,
    tangent_toward,
)
from dstrig.minkowski import CausalType, lorentz_cross, mink_inner, vec3

# (sinh u, cosh u cos psi, cosh u sin psi) parameterizes the whole quadric
charts = st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 6.28)).map(
    lambda t: chart_point(*t))


class TestDeSitterPoint:
    def test_accepts_quadric_point(self):
        p = DeSitterPoint(vec3(math.sinh(0.4), math.cosh(0.4), 0))
        assert mink_inner(p.v, p.v) == pytest.approx(1.0)

    def test_rejects_off_quadric(self):
        with pytest.raises(NotUnitError):
            DeSitterPoint(vec3(0, 2, 0))
        with pytest.raises(NotUnitError):
            DeSitterPoint(vec3(1, 0, 0))

    def test_rejects_overflowing_norm(self):
        # <v,v> overflows to nan, which must not pass as 1.
        with pytest.raises(NotUnitError, match="nan"):
            DeSitterPoint(vec3(1e200, 1e200, 1e200))

    def test_array_is_read_only(self):
        p = DeSitterPoint(vec3(0, 1, 0))
        with pytest.raises(ValueError):
            p.v[0] = 5.0

    def test_copies_input(self):
        raw = vec3(0, 1, 0)
        p = DeSitterPoint(raw)
        raw[1] = 7.0
        assert p.v[1] == 1.0


class TestProject:
    def test_scales_onto_quadric(self):
        p = project_to_quadric(vec3(0, 3, 4))
        np.testing.assert_allclose(p.v, [0, 0.6, 0.8])

    def test_rejects_time_like_position(self):
        with pytest.raises(NotSpaceLikePositionError):
            project_to_quadric(vec3(2, 1, 0))
        with pytest.raises(NotSpaceLikePositionError):
            project_to_quadric(vec3(1, 1, 0))


class TestTangent:
    def test_unit_and_orthogonal(self):
        p, q = chart_point(0.0, 0.0), chart_point(0.7, 1.2)
        w = tangent_toward(p, q)
        assert abs(abs(mink_inner(w, w)) - 1.0) < 1e-12
        assert abs(mink_inner(w, p.v)) < 1e-12

    def test_points_toward_target(self):
        p, q = chart_point(0.0, 0.0), chart_point(0.0, 0.9)
        w = tangent_toward(p, q)
        # for an elliptic pair the target sits at cos(s) p + sin(s) w
        s = math.acos(mink_inner(p.v, q.v))
        np.testing.assert_allclose(math.cos(s) * p.v + math.sin(s) * w, q.v,
                                   atol=1e-12)

    def test_null_pair_rejected(self):
        p = DeSitterPoint(vec3(0, 1, 0))
        q = DeSitterPoint(vec3(2, 1, 2))  # <p,q> = 1, joined by a light ray
        with pytest.raises(NullTangentError):
            tangent_toward(p, q)

    def test_coincident_rejected(self):
        p = chart_point(0.3, 0.3)
        with pytest.raises(CoincidentPointsError):
            tangent_toward(p, DeSitterPoint(p.v.copy()))


class TestClassifySegment:
    def test_ellipse(self):
        seg = classify_segment(chart_point(0, 0), chart_point(0, 1.0))
        assert seg.kind is SegmentKind.ELLIPSE_PART
        assert seg.separation == pytest.approx(1.0)
        assert classify_span(seg.a, seg.b) is CausalType.SPACE_LIKE

    def test_hyperbola(self):
        p = DeSitterPoint(vec3(math.sinh(0.8), math.cosh(0.8), 0))
        q = DeSitterPoint(vec3(-math.sinh(0.8), math.cosh(0.8), 0))
        seg = classify_segment(p, q)
        assert seg.kind is SegmentKind.HYPERBOLA_PART
        assert seg.separation == pytest.approx(1.6)
        assert classify_span(p, q) is CausalType.TIME_LIKE

    def test_null_line(self):
        p = DeSitterPoint(vec3(0, 1, 0))
        q = DeSitterPoint(vec3(1, 1, 1))
        seg = classify_segment(p, q)
        assert seg.kind is SegmentKind.NULL_LINE
        assert classify_span(p, q) is CausalType.NULL

    def test_impossible(self):
        p = DeSitterPoint(vec3(0, 1, 0))
        q = DeSitterPoint(vec3(math.sqrt(3), -2, 0))  # product -2, no geodesic
        assert classify_segment(p, q).kind is SegmentKind.IMPOSSIBLE

    def test_antipodal_rejected(self):
        p = chart_point(0.4, 1.0)
        with pytest.raises(CoincidentPointsError):
            classify_segment(p, DeSitterPoint(-p.v))

    def test_band_below_minus_one_impossible(self):
        # product within the null band of -1 but points not proportional
        p = DeSitterPoint(vec3(0, 1, 0))
        b = 1.0 - 5e-10
        c = math.sqrt(1.0 + 0.25 - b * b)
        q = DeSitterPoint(vec3(0.5, -b, c))
        assert classify_segment(p, q).kind is SegmentKind.IMPOSSIBLE


class TestGeodesicPoint:
    def test_endpoints(self):
        seg = classify_segment(chart_point(0, 0), chart_point(0.5, 0.8))
        np.testing.assert_allclose(geodesic_point(seg, 0.0).v, seg.a.v, atol=1e-14)
        np.testing.assert_allclose(geodesic_point(seg, 1.0).v, seg.b.v, atol=1e-12)

    def test_elliptic_midpoint(self):
        seg = classify_segment(chart_point(0, 0), chart_point(0, 1.2))
        mid = geodesic_point(seg, 0.5)
        np.testing.assert_allclose(mid.v, [0, math.cos(0.6), math.sin(0.6)],
                                   atol=1e-12)

    def test_hyperbolic_midpoint(self):
        p = DeSitterPoint(vec3(math.sinh(0.9), math.cosh(0.9), 0))
        q = DeSitterPoint(vec3(-math.sinh(0.9), math.cosh(0.9), 0))
        mid = geodesic_point(classify_segment(p, q), 0.5)
        np.testing.assert_allclose(mid.v, [0, 1, 0], atol=1e-12)

    def test_parameter_validated(self):
        seg = classify_segment(chart_point(0, 0), chart_point(0, 1.0))
        with pytest.raises(ValueError):
            geodesic_point(seg, -0.01)
        with pytest.raises(ValueError):
            geodesic_point(seg, 1.01)

    def test_null_segment_not_traceable(self):
        seg = classify_segment(DeSitterPoint(vec3(0, 1, 0)),
                               DeSitterPoint(vec3(1, 1, 1)))
        with pytest.raises(UnsupportedKindError):
            geodesic_point(seg, 0.5)
        with pytest.raises(UnsupportedKindError):
            edge_length(seg)

    @given(p=charts, q=charts, t=st.floats(0.0, 1.0))
    @settings(max_examples=150)
    def test_stays_on_quadric_in_same_plane(self, p, q, t):
        c = mink_inner(p.v, q.v)
        if not (-1 + 1e-6 < c < 1 - 1e-6 or c > 1 + 1e-6):
            return
        seg = classify_segment(p, q)
        x = geodesic_point(seg, t)
        assert mink_inner(x.v, x.v) == pytest.approx(1.0, abs=1e-9)
        # interpolants stay in the plane spanned by the endpoints
        normal = lorentz_cross(p.v, q.v)
        assert abs(mink_inner(normal, x.v)) < 1e-7 * max(1.0, np.abs(normal).max())

    @given(p=charts, q=charts, t=st.floats(0.05, 0.95))
    @settings(max_examples=150)
    def test_length_additive(self, p, q, t):
        c = mink_inner(p.v, q.v)
        if not (-1 + 1e-6 < c < 1 - 1e-6 or c > 1 + 1e-6):
            return
        seg = classify_segment(p, q)
        m = geodesic_point(seg, t)
        first = classify_segment(p, m)
        second = classify_segment(m, q)
        assert first.kind is seg.kind
        assert second.kind is seg.kind
        total = edge_length(first) + edge_length(second)
        assert total == pytest.approx(edge_length(seg), abs=1e-9)
