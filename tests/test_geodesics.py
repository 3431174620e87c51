import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dstrig.geodesics
import dstrig.oracle
from conftest import chart_point
from dstrig.errors import (
    CoincidentPointsError,
    GeometryError,
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
from dstrig.minkowski import NULL_EPS, ZERO_EPS, CausalType, lorentz_cross, mink_inner, vec3
from dstrig.oracle import integrate_area
from dstrig.triangles import build_triangle

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

    def test_rejects_component_beyond_float_range(self):
        with pytest.raises(ValueError, match="^vector component too large for a float$"):
            DeSitterPoint([10**400, 0, 0])

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

    @staticmethod
    def _check_first(p, q):
        # tangent_toward with the coincident/antipodal test ahead of the
        # null-direction test, the order the late test must reproduce.
        (a0, a1, a2), (b0, b1, b2) = p._x, q._x
        if max(abs(a0 - b0), abs(a1 - b1), abs(a2 - b2)) < ZERO_EPS:
            raise CoincidentPointsError("coincident points admit no tangent direction")
        if max(abs(a0 + b0), abs(a1 + b1), abs(a2 + b2)) < ZERO_EPS:
            raise CoincidentPointsError("antipodal points admit no tangent direction")
        c = mink_inner(p._x, q._x)
        w = [b - c * a for a, b in zip(p._x, q._x)]
        ww = mink_inner(w, w)
        if abs(ww) <= NULL_EPS:
            raise NullTangentError(f"null direction: <p,q> = {c!r}")
        r = math.sqrt(abs(ww))
        return np.array([x / r for x in w])

    def test_late_coincidence_test_matches_check_first(self):
        # q = +-p + delta at rapidities up to 12, |delta_i| from 1e-13 to 1e-9,
        # plus unrelated pairs: same exception and message, or same bits.
        def outcome(fn, p, q):
            try:
                return fn(p, q).tobytes()
            except GeometryError as exc:
                return type(exc), str(exc)

        rng = np.random.default_rng(14)
        seen = set()
        for _ in range(4000):
            try:
                p = chart_point(rng.uniform(-12.0, 12.0), rng.uniform(0.0, 2.0 * math.pi))
                if rng.random() < 0.25:
                    q = chart_point(rng.uniform(-12.0, 12.0), rng.uniform(0.0, 2.0 * math.pi))
                else:
                    scale = rng.choice([1e-13, 1e-12, 3e-12, 1e-9])
                    q = DeSitterPoint(rng.choice([1.0, -1.0]) * p.v
                                      + rng.uniform(-scale, scale, 3))
            except NotUnitError:
                continue
            for a, b in ((p, q), (q, p)):
                new = outcome(tangent_toward, a, b)
                assert new == outcome(self._check_first, a, b)
                seen.add(new[1].split()[0] if isinstance(new, tuple) else "tangent")
        assert seen == {"coincident", "antipodal", "null", "tangent"}


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

    @pytest.mark.parametrize("how, sign", [("coincident", 1.0), ("antipodal", -1.0)])
    def test_span_of_proportional_points_rejected(self, how, sign):
        # <p, +-p> = +-1 would otherwise read as a null plane.
        p = chart_point(0.4, 1.0)
        with pytest.raises(CoincidentPointsError, match=f"^{how} points span no plane$"):
            classify_span(p, DeSitterPoint(sign * p.v))

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


class TestConicTable:
    """geodesics._SEGMENTS is the one place that pairs an edge with its arc
    and its sine: classify_segment, geodesic_point and the oracle's edge
    constants all read them from it."""

    @staticmethod
    def _counted(monkeypatch):
        # Each ellipse and hyperbola entry's arc and sine, wrapped to count
        # their calls by name; they return the same values.
        calls = collections.Counter()

        def counting(fn):
            def wrapper(x):
                calls[fn.__name__] += 1
                return fn(x)
            return wrapper

        for code in (1, 4):
            kind, arc, sine = dstrig.geodesics._SEGMENTS[code]
            monkeypatch.setitem(dstrig.geodesics._SEGMENTS, code,
                                (kind, counting(arc), counting(sine)))
        return calls

    @staticmethod
    def _segments():
        hyperbola = (DeSitterPoint(vec3(math.sinh(0.9), math.cosh(0.9), 0)),
                     DeSitterPoint(vec3(-math.sinh(0.9), math.cosh(0.9), 0)))
        return (chart_point(0.3, 0.1), chart_point(-0.2, 1.3)), hyperbola

    def test_oracle_holds_the_same_table(self):
        assert dstrig.oracle._SEGMENTS is dstrig.geodesics._SEGMENTS

    def test_classify_segment_reads_the_table(self, monkeypatch):
        before = [classify_segment(p, q).separation for p, q in self._segments()]
        calls = self._counted(monkeypatch)
        assert [classify_segment(p, q).separation for p, q in self._segments()] == before
        assert calls == {"acos": 1, "acosh": 1}

    def test_geodesic_point_reads_the_table(self, monkeypatch):
        segs = [classify_segment(p, q) for p, q in self._segments()]
        assert [seg.kind for seg in segs] == [SegmentKind.ELLIPSE_PART,
                                              SegmentKind.HYPERBOLA_PART]
        before = [geodesic_point(seg, 0.3).v.tolist() for seg in segs]
        calls = self._counted(monkeypatch)
        assert [geodesic_point(seg, 0.3).v.tolist() for seg in segs] == before
        assert calls == {"sin": 3, "sinh": 3}

    @pytest.mark.parametrize("name, kinds", [
        ("spatiolateral", [("acos", "sin")]), ("tempolateral", [("acosh", "sinh")]),
        ("chorosceles", [("acos", "sin"), ("acosh", "sinh")])])
    def test_integrate_area_reads_the_table(self, monkeypatch, request, name, kinds):
        # Spatiolateral edges are all ellipses, tempolateral ones all
        # hyperbolas, and chorosceles has both.
        tri = build_triangle(*request.getfixturevalue(f"{name}_points"))
        before = dataclasses.astuple(integrate_area(tri, 64))
        calls = self._counted(monkeypatch)
        assert dataclasses.astuple(integrate_area(tri, 64)) == before
        assert set(calls) == {f for pair in kinds for f in pair}
        assert all(calls[arc] == calls[sine] > 0 for arc, sine in kinds)
