import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chart_point
from dstrig.areas import complex_area, girard_area, girard_area_from_products, interior_angles
from dstrig.errors import (
    BoundaryCaseError,
    DegenerateTriangleError,
    GeometryError,
    ImpossibleEdgeError,
    NonContractibleError,
    NotSpatiolateralError,
    NotUnitError,
    NullEdgeError,
    UnsupportedTriangleTypeError,
)
from dstrig.geodesics import DeSitterPoint, SegmentKind, classify_segment
from dstrig.minkowski import CausalType, causal_type, mink_inner, random_lorentz, vec3
from dstrig.oracle import integrate_area, random_buildable_triangle
from dstrig.triangles import (
    PolarKind,
    ProperName,
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

seeds = st.integers(0, 10_000)


def _p(x0, x1, x2):
    return DeSitterPoint(vec3(x0, x1, x2))


def _assert_edges_are_segments(cls, pts):
    # The classification's edges are what classify_segment gives each pair.
    for j, seg in enumerate(cls.edges):
        ref = classify_segment(pts[(j + 1) % 3], pts[(j + 2) % 3])
        assert (seg.a, seg.b, seg.kind, seg.separation) \
            == (ref.a, ref.b, ref.kind, ref.separation)


class TestBuild:
    def test_structure(self, spatiolateral_points):
        tri = build_triangle(*spatiolateral_points)
        assert tri.tangents.shape == (3, 3, 3)
        assert tri.normals.shape == (3, 3)
        for j in range(3):
            k, l = (j + 1) % 3, (j + 2) % 3
            # edge j spans the two vertices other than j
            assert tri.edges[j].a is tri.points[k]
            assert tri.edges[j].b is tri.points[l]
            # tangents are unit and anchored at their vertex
            for m in (k, l):
                w = tri.tangents[j, m]
                assert abs(abs(mink_inner(w, w)) - 1) < 1e-12
                assert abs(mink_inner(w, tri.points[j].v)) < 1e-12
            # normals are unit and orthogonal to their edge plane
            u = tri.normals[j]
            assert abs(abs(mink_inner(u, u)) - 1) < 1e-12
            assert abs(mink_inner(u, tri.points[k].v)) < 1e-10
            assert abs(mink_inner(u, tri.points[l].v)) < 1e-10

    def test_arrays_read_only(self, chorosceles_points):
        tri = build_triangle(*chorosceles_points)
        with pytest.raises(ValueError):
            tri.tangents[0, 1, 0] = 9.0
        with pytest.raises(ValueError):
            tri.normals[0, 0] = 9.0

    def test_outer_normal_anchor(self, request):
        # Every normal points away from its opposite vertex.
        triples = [request.getfixturevalue(f"{name}_points") for name in
                   ("spatiolateral", "tempolateral", "chorosceles", "chronosceles")]
        for u_max in (2.0, 6.0, 8.0):
            for seed in range(50):
                try:
                    triples.append(random_buildable_triangle(seed, u_max=u_max).points)
                except NotUnitError:
                    continue  # a chart draw off the quadric
        assert len(triples) > 140
        for points in triples:
            tri = build_triangle(*points)
            for j in range(3):
                assert mink_inner(tri.normals[j], tri.points[j].v) < 0.0

    def test_coincident_rejected(self, spatiolateral_points):
        p1, p2, _ = spatiolateral_points
        with pytest.raises(DegenerateTriangleError, match="^vertices 1 and 3 are coincident$"):
            build_triangle(p1, p2, DeSitterPoint(p1.v.copy()))

    def test_antipodal_rejected(self, spatiolateral_points):
        p1, p2, _ = spatiolateral_points
        with pytest.raises(DegenerateTriangleError, match="^vertices 1 and 3 are antipodal$"):
            build_triangle(p1, p2, DeSitterPoint(-p1.v))

    def test_collinear_rejected(self):
        # three points on the x0 = 0 equator lie on one geodesic
        with pytest.raises(DegenerateTriangleError,
                           match="^vertices lie on a single geodesic$"):
            build_triangle(chart_point(0, 0.1), chart_point(0, 1.0),
                           chart_point(0, 2.0))

    def test_impossible_edge_rejected(self):
        p3 = _p(math.sqrt(3), -2, 0)  # product with (0,1,0) is -2
        with pytest.raises(ImpossibleEdgeError,
                           match="^edge opposite vertex 1 admits no geodesic$"):
            build_triangle(_p(0, 1, 0), chart_point(0.3, 0.4), p3)
        # edges are checked in order: edges 1 and 2 impossible, edge 3 null
        with pytest.raises(ImpossibleEdgeError,
                           match="^edge opposite vertex 1 admits no geodesic$"):
            build_triangle(_p(0, 1, 0), _p(1, 1, 1), _p(math.sinh(1), -math.cosh(1), 0))

    def test_null_edge_rejected(self):
        with pytest.raises(NullEdgeError, match="^edge opposite vertex 3 is a null line$"):
            build_triangle(_p(0, 1, 0), _p(1, 1, 1), chart_point(0.3, 2.0))
        # edge 1 null, edges 2 and 3 impossible
        with pytest.raises(NullEdgeError, match="^edge opposite vertex 1 is a null line$"):
            build_triangle(_p(math.sinh(1), -math.cosh(1), 0), _p(0, 1, 0), _p(1, 1, 1))


class TestIdentity:
    def test_fixture_residuals(self, spatiolateral_points, tempolateral_points,
                               chorosceles_points, chronosceles_points):
        for pts in (spatiolateral_points, tempolateral_points,
                    chorosceles_points, chronosceles_points):
            tri = build_triangle(*pts)
            assert tangent_normal_residual(tri) <= 1e-10

    @given(seed=seeds)
    @settings(max_examples=120, deadline=None)
    def test_random_residuals(self, seed):
        tri = random_buildable_triangle(seed)
        assert tangent_normal_residual(tri) <= 1e-8

    @given(seed=seeds)
    @settings(max_examples=120, deadline=None)
    def test_duality(self, seed):
        assert normal_duality_holds(random_buildable_triangle(seed))


class TestClassify:
    def test_fixture_names(self, spatiolateral_points, tempolateral_points,
                           chorosceles_points, chronosceles_points):
        cases = [
            (spatiolateral_points, (3, 0, 0), ProperName.SPATIOLATERAL, True),
            (tempolateral_points, (0, 3, 0), ProperName.TEMPOLATERAL, None),
            (chorosceles_points, (2, 1, 0), ProperName.CHOROSCELES, None),
            (chronosceles_points, (1, 2, 0), ProperName.CHRONOSCELES, None),
        ]
        for pts, counts, name, contractible in cases:
            cls = classify_triangle(*pts)
            assert cls.kind is TriangleKind.PROPER_DE_SITTER
            assert cls.edge_counts == counts
            assert cls.proper_name is name
            assert cls.contractible is contractible
            _assert_edges_are_segments(cls, pts)

    def test_null_edge_families(self):
        # hand-built triples covering every named type with a light-like edge
        p1 = _p(0, 1, 0)
        null2 = _p(1, 1, 1)
        a = math.pi / 4
        cases = [
            ((p1, null2, _p(2, 1, 2)), (0, 0, 3), ProperName.LUCILATERAL),
            ((p1, null2, _p(0, math.cos(a), math.sin(a))), (1, 1, 1),
             ProperName.MULTIPLE),
            ((p1, null2, _p(0.3, 1, -0.3)), (1, 0, 2),
             ProperName.PHOTOSCELES_SPACE_BASE),
            ((p1, null2, _p(-1, 1, 1)), (0, 1, 2),
             ProperName.PHOTOSCELES_TIME_BASE),
            ((p1, null2, _p(-math.sinh(0.7), math.cosh(0.7), 0)), (0, 2, 1),
             ProperName.BIMETRICAL_CHRONOSCELES),
            ((p1, null2, _p(0, math.cos(a), -math.sin(a))), (2, 0, 1),
             ProperName.BIMETRICAL_CHOROSCELES),
        ]
        for pts, counts, name in cases:
            cls = classify_triangle(*pts)
            assert cls.kind is TriangleKind.PROPER_DE_SITTER
            assert cls.edge_counts == counts, name
            assert cls.proper_name is name
            assert cls.contractible is None
            _assert_edges_are_segments(cls, pts)

    def test_impossible(self):
        pts = (_p(0, 1, 0), chart_point(0.3, 0.4), _p(math.sqrt(3), -2, 0))
        cls = classify_triangle(*pts)
        assert cls.kind is TriangleKind.IMPOSSIBLE
        assert cls.proper_name is ProperName.NONE
        _assert_edges_are_segments(cls, pts)

    def test_counts_sum_to_three(self, chorosceles_points):
        cls = classify_triangle(*chorosceles_points)
        assert sum(cls.edge_counts) == 3

    @given(seed=seeds, perm=st.permutations([0, 1, 2]))
    @settings(max_examples=80, deadline=None)
    def test_permutation_invariant(self, seed, perm):
        tri = random_buildable_triangle(seed)
        base = classify_triangle(*tri.points)
        shuffled = classify_triangle(*(tri.points[i] for i in perm))
        _assert_edges_are_segments(shuffled, [tri.points[i] for i in perm])
        assert shuffled.proper_name is base.proper_name
        assert shuffled.edge_counts == base.edge_counts
        assert shuffled.contractible == base.contractible

    @given(seed=seeds, mseed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_lorentz_invariant(self, seed, mseed):
        tri = random_buildable_triangle(seed)
        m = random_lorentz(np.random.default_rng(mseed))
        moved = [DeSitterPoint(m @ p.v) for p in tri.points]
        base = classify_triangle(*tri.points)
        boosted = classify_triangle(*moved)
        assert boosted.proper_name is base.proper_name
        assert boosted.edge_counts == base.edge_counts


class TestContractibility:
    def test_fixture_true(self, spatiolateral_points):
        assert is_contractible(build_triangle(*spatiolateral_points))

    def test_antipodal_flip_false(self, spatiolateral_points):
        tri = build_triangle(*spatiolateral_points)
        d = distinguished_vertex(tri)
        pts = [DeSitterPoint(p.v.copy()) for p in tri.points]
        pts[d] = DeSitterPoint(-pts[d].v)
        flipped = build_triangle(*pts)
        assert triangle_name(flipped) is ProperName.SPATIOLATERAL
        assert not is_contractible(flipped)
        with pytest.raises(NonContractibleError):
            distinguished_vertex(flipped)

    def test_wrong_type_rejected(self, chorosceles_points):
        with pytest.raises(NotSpatiolateralError):
            is_contractible(build_triangle(*chorosceles_points))

    def test_boundary_band(self):
        # wraps the equator; lifting one vertex by u shifts the perimeter
        # off 2*pi only at order u squared, landing inside the band
        pts = (chart_point(0, 0), chart_point(0, 2.2), chart_point(1e-5, 4.4))
        cls = classify_triangle(*pts)
        assert cls.proper_name is ProperName.SPATIOLATERAL
        assert cls.contractible is None
        with pytest.raises(BoundaryCaseError):
            is_contractible(build_triangle(*pts))

    def test_just_outside_band(self):
        pts = (chart_point(0, 0), chart_point(0, 2.2), chart_point(1e-4, 4.4))
        assert classify_triangle(*pts).contractible is False
        assert not is_contractible(build_triangle(*pts))


class TestPolar:
    def test_spatiolateral_all_time_like(self, spatiolateral_points):
        tri = build_triangle(*spatiolateral_points)
        polar = polar_triangle(tri)
        assert all(k in (PolarKind.ON_H2, PolarKind.ON_ANTI_H2)
                   for k in polar.kinds)
        # exactly one vertex with cone-sharing adjacent normals
        d = distinguished_vertex(tri)
        k, l = (d + 1) % 3, (d + 2) % 3
        assert mink_inner(tri.normals[k], tri.normals[l]) < 0

    def test_tempolateral_all_space_like(self, tempolateral_points):
        polar = polar_triangle(build_triangle(*tempolateral_points))
        assert all(k is PolarKind.ON_DE_SITTER for k in polar.kinds)

    def test_chorosceles_split(self, chorosceles_points):
        tri = build_triangle(*chorosceles_points)
        polar = polar_triangle(tri)
        d = distinguished_vertex(tri)
        assert polar.kinds[d] is PolarKind.ON_DE_SITTER
        others = sorted(polar.kinds[j].value for j in range(3) if j != d)
        assert others == ["on_anti_h2", "on_h2"]  # different time cones

    def test_vertices_match_normals(self, chronosceles_points):
        tri = build_triangle(*chronosceles_points)
        polar = polar_triangle(tri)
        for j in range(3):
            np.testing.assert_array_equal(polar.vertices[j], tri.normals[j])

    def test_refused_for_null_types(self):
        # classify accepts a lucilateral but it has no polar triangle;
        # the builder refuses it earlier
        with pytest.raises(NullEdgeError):
            build_triangle(_p(0, 1, 0), _p(1, 1, 1), _p(2, 1, 2))


class TestDistinguishedVertex:
    def test_fixtures(self, spatiolateral_points, tempolateral_points,
                      chorosceles_points, chronosceles_points):
        assert distinguished_vertex(build_triangle(*spatiolateral_points)) == 0
        assert distinguished_vertex(build_triangle(*tempolateral_points)) == 2
        assert distinguished_vertex(build_triangle(*chorosceles_points)) == 0
        assert distinguished_vertex(build_triangle(*chronosceles_points)) == 0

    def test_follows_permutation(self, chronosceles_points):
        tri = build_triangle(*chronosceles_points)
        d = distinguished_vertex(tri)
        for perm in itertools.permutations(range(3)):
            moved = build_triangle(*(tri.points[i] for i in perm))
            assert perm[distinguished_vertex(moved)] == d

    @given(seed=seeds)
    @settings(max_examples=100, deadline=None)
    def test_unique_across_random(self, seed):
        tri = random_buildable_triangle(seed)
        name = triangle_name(tri)
        if name is ProperName.SPATIOLATERAL and not is_contractible(tri):
            return
        d = distinguished_vertex(tri)
        assert d in (0, 1, 2)
        if name is ProperName.CHOROSCELES:
            assert tri.edges[d].kind is SegmentKind.HYPERBOLA_PART
        elif name is ProperName.CHRONOSCELES:
            assert tri.edges[d].kind is SegmentKind.ELLIPSE_PART


class TestHandBuiltTriangles:
    # A DeSitterTriangle assembled by hand may carry an edge build_triangle
    # refuses; every function that reads its type must refuse it too.
    READERS = (triangle_name, is_contractible, polar_triangle, distinguished_vertex,
               interior_angles, complex_area, girard_area, girard_area_from_products,
               integrate_area)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("reader", READERS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("kind", [SegmentKind.IMPOSSIBLE, SegmentKind.NULL_LINE],
                             ids=lambda k: k.value)
    @pytest.mark.parametrize("name", ["spatiolateral", "tempolateral",
                                      "chorosceles", "chronosceles"])
    def test_unsupported_edge_refused(self, request, name, kind, reader):
        tri = build_triangle(*request.getfixturevalue(f"{name}_points"))
        edge = dataclasses.replace(tri.edges[0], kind=kind)
        with pytest.raises(UnsupportedTriangleTypeError):
            reader(dataclasses.replace(tri, edges=(edge,) + tri.edges[1:]))

    def test_non_contractible_one_message(self):
        s3, c3 = math.sinh(0.3), math.cosh(0.3)
        tri = build_triangle(_p(-s3, -c3, 0.0), _p(0.0, math.cos(1.0), math.sin(1.0)),
                             _p(0.0, math.cos(1.0), -math.sin(1.0)))
        for reader in (distinguished_vertex, complex_area, girard_area,
                       girard_area_from_products, integrate_area):
            with pytest.raises(NonContractibleError,
                               match="^triangle is non-contractible: it bounds no disk$"):
                reader(tri)
