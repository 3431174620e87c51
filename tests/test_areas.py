import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dstrig.areas
import dstrig.triangles
from conftest import FROZEN_AREAS, chart_point, count_calls, with_arrays
from dstrig.areas import (
    AngleSet,
    GirardFormula,
    complex_area,
    girard_area,
    girard_area_from_products,
    interior_angles,
)
from dstrig.errors import GeometryError, NonContractibleError
from dstrig.geodesics import DeSitterPoint
from dstrig.minkowski import AngleBranch
from dstrig.oracle import random_buildable_triangle
from dstrig.triangles import (
    ProperName,
    build_triangle,
    distinguished_vertex,
    triangle_name,
)

seeds = st.integers(0, 10_000)
FIXTURES = ("spatiolateral", "tempolateral", "chorosceles", "chronosceles")


def _assert_single_pass(tri, res):
    # girard_area's angles and angle sum are the public functions' values.
    angles = interior_angles(tri)
    assert res.angles.theta == angles.theta
    assert res.angles.phi == angles.phi
    assert res.complex_area == complex_area(tri)


class TestInteriorAngles:
    def test_branch_patterns(self, spatiolateral_points, tempolateral_points,
                             chorosceles_points, chronosceles_points):
        # distinguished vertex carries one branch, the base pair another
        expected = {
            "spatiolateral": (spatiolateral_points,
                              AngleBranch.PI_MINUS_IMAG, AngleBranch.PURE_IMAG),
            "tempolateral": (tempolateral_points,
                             AngleBranch.PI_PLUS_IMAG, AngleBranch.NEG_IMAG),
            "chorosceles": (chorosceles_points,
                            AngleBranch.PURE_IMAG, AngleBranch.HALF_PI_PLUS_IMAG),
            "chronosceles": (chronosceles_points,
                             AngleBranch.NEG_IMAG, AngleBranch.HALF_PI_PLUS_IMAG),
        }
        for name, (pts, apex_branch, base_branch) in expected.items():
            tri = build_triangle(*pts)
            angles = interior_angles(tri)
            d = distinguished_vertex(tri)
            assert angles.phi[d].branch is apex_branch, name
            for j in range(3):
                if j != d:
                    assert angles.phi[j].branch is base_branch, name

    def test_theta_matches_phi(self, chorosceles_points):
        angles = interior_angles(build_triangle(*chorosceles_points))
        for j in range(3):
            assert angles.theta[j] == pytest.approx(angles.phi[j].theta, abs=1e-12)

    def test_mixed_angles_keep_sign(self, chorosceles_points):
        # the two base angles of this fixture are negative mixed angles
        tri = build_triangle(*chorosceles_points)
        angles = interior_angles(tri)
        d = distinguished_vertex(tri)
        bases = [angles.theta[j] for j in range(3) if j != d]
        assert all(th < 0 for th in bases)


class TestComplexArea:
    def test_purely_imaginary_positive(self, spatiolateral_points,
                                       tempolateral_points, chorosceles_points,
                                       chronosceles_points):
        for pts in (spatiolateral_points, tempolateral_points,
                    chorosceles_points, chronosceles_points):
            nabla = complex_area(build_triangle(*pts))
            assert abs(nabla.real) <= 1e-8
            assert nabla.imag > 0

    def test_matches_girard(self, chronosceles_points):
        tri = build_triangle(*chronosceles_points)
        assert complex_area(tri).imag == pytest.approx(
            girard_area(tri).real_area, abs=1e-12)

    def test_non_contractible_refused(self, spatiolateral_points):
        tri = build_triangle(*spatiolateral_points)
        d = distinguished_vertex(tri)
        pts = [DeSitterPoint(p.v.copy()) for p in tri.points]
        pts[d] = DeSitterPoint(-pts[d].v)
        flipped = build_triangle(*pts)
        with pytest.raises(NonContractibleError):
            complex_area(flipped)
        with pytest.raises(NonContractibleError):
            girard_area(flipped)

    @given(seed=seeds)
    @settings(max_examples=100, deadline=None)
    def test_random_shape(self, seed):
        tri = random_buildable_triangle(seed)
        from dstrig.triangles import is_contractible
        if (triangle_name(tri) is ProperName.SPATIOLATERAL
                and not is_contractible(tri)):
            return
        nabla = complex_area(tri)
        assert abs(nabla.real) <= 1e-8
        assert nabla.imag > 0


class TestGirardArea:
    def test_frozen_fixture_areas(self, spatiolateral_points, tempolateral_points,
                                  chorosceles_points, chronosceles_points):
        cases = {
            "spatiolateral": (spatiolateral_points, GirardFormula.SPATIOLATERAL),
            "tempolateral": (tempolateral_points, GirardFormula.TEMPOLATERAL),
            "chorosceles": (chorosceles_points, GirardFormula.CHOROSCELES),
            "chronosceles": (chronosceles_points, GirardFormula.CHRONOSCELES),
        }
        for name, (pts, formula) in cases.items():
            tri = build_triangle(*pts)
            res = girard_area(tri)
            assert res.real_area == pytest.approx(FROZEN_AREAS[name], abs=1e-12)
            assert res.formula_used is formula
            assert res.distinguished_vertex == distinguished_vertex(tri)
            assert res.complex_area.imag == pytest.approx(res.real_area, abs=1e-12)
            _assert_single_pass(tri, res)

    def test_signed_angle_sums(self, spatiolateral_points, tempolateral_points):
        # three space-like edges: area = -theta_d + theta_k + theta_l
        tri = build_triangle(*spatiolateral_points)
        angles = interior_angles(tri)
        d = distinguished_vertex(tri)
        k, l = (d + 1) % 3, (d + 2) % 3
        expected = -angles.theta[d] + angles.theta[k] + angles.theta[l]
        assert girard_area(tri).real_area == pytest.approx(expected, abs=1e-12)
        # three time-like edges: area = theta_d - theta_k - theta_l
        tri = build_triangle(*tempolateral_points)
        angles = interior_angles(tri)
        d = distinguished_vertex(tri)
        k, l = (d + 1) % 3, (d + 2) % 3
        expected = angles.theta[d] - angles.theta[k] - angles.theta[l]
        assert girard_area(tri).real_area == pytest.approx(expected, abs=1e-12)

    def test_tempolateral_inequality(self, tempolateral_points):
        tri = build_triangle(*tempolateral_points)
        angles = interior_angles(tri)
        d = distinguished_vertex(tri)
        k, l = (d + 1) % 3, (d + 2) % 3
        assert angles.theta[d] > angles.theta[k] + angles.theta[l]

    def test_inconsistent_angle_sum_raises(self, chorosceles_points):
        # A reversed tangent stays unit and keeps its causal type, but its
        # vertex angle no longer matches the signed sum.
        tri = build_triangle(*chorosceles_points)
        tangents = tri.tangents.copy()
        tangents[0, 1] = -tangents[0, 1]
        with pytest.raises(GeometryError, match="angle sum .* inconsistent with signed area"):
            girard_area(with_arrays(tri, tangents=tangents))

    def test_small_triangle_small_area(self):
        tri = build_triangle(chart_point(0, 0), chart_point(0, 0.01),
                             chart_point(0.007, 0.004))
        assert 0 < girard_area(tri).real_area < 1e-3

    @given(seed=seeds, perm=st.permutations([0, 1, 2]))
    @settings(max_examples=80, deadline=None)
    def test_permutation_invariant(self, seed, perm):
        tri = random_buildable_triangle(seed)
        from dstrig.triangles import is_contractible
        if (triangle_name(tri) is ProperName.SPATIOLATERAL
                and not is_contractible(tri)):
            return
        base = girard_area(tri).real_area
        moved = build_triangle(*(tri.points[i] for i in perm))
        assert girard_area(moved).real_area == pytest.approx(base, abs=1e-9)


class TestProductForm:
    def test_fixtures(self, spatiolateral_points, tempolateral_points,
                      chorosceles_points, chronosceles_points):
        for pts in (spatiolateral_points, tempolateral_points,
                    chorosceles_points, chronosceles_points):
            tri = build_triangle(*pts)
            assert girard_area_from_products(tri) == pytest.approx(
                girard_area(tri).real_area, abs=1e-9)

    @given(seed=seeds)
    @settings(max_examples=100, deadline=None)
    def test_random_agreement(self, seed):
        tri = random_buildable_triangle(seed)
        from dstrig.triangles import is_contractible
        if (triangle_name(tri) is ProperName.SPATIOLATERAL
                and not is_contractible(tri)):
            return
        res = girard_area(tri)
        _assert_single_pass(tri, res)
        assert girard_area_from_products(tri) == pytest.approx(res.real_area, abs=1e-9)


# The largest float below 1: a product that must be >= 1 in magnitude and
# rounds one ulp inside.
BELOW_ONE = 1.0 - 2.0 ** -53
# Per type, the sign s of each apex product whose acosh the product form
# takes (s * g >= 1 exactly), and None where it takes an asinh.
ACOSH_SIGNS = {"spatiolateral": (-1.0, 1.0, 1.0), "tempolateral": (1.0, -1.0, -1.0),
               "chorosceles": (1.0, None, None), "chronosceles": (-1.0, None, None)}


class TestProductFormClamp:
    """girard_area_from_products through the clamp: an acosh product that
    rounds one ulp inside +-1 gives the area of the product at +-1."""

    @pytest.mark.parametrize("name, j", [
        (name, j) for name, signs in ACOSH_SIGNS.items()
        for j, sign in enumerate(signs) if sign is not None])
    def test_product_one_ulp_inside_is_the_product_at_one(self, monkeypatch, request,
                                                          name, j):
        tri = build_triangle(*request.getfixturevalue(f"{name}_points"))
        signs = ACOSH_SIGNS[name]

        def area(at):
            g = [1.5 * s if s else 0.5 for s in signs]
            g[j] = signs[j] * at
            monkeypatch.setattr(dstrig.areas, "_apex_products", lambda t: tuple(g))
            return girard_area_from_products(tri)

        assert area(BELOW_ONE) == area(1.0)
        assert math.isfinite(area(1.0))


class TestSinglePass:
    """Each area path reads the tangents and their vertex products once."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_products_once_per_product_form(self, request, monkeypatch, name):
        tri = build_triangle(*request.getfixturevalue(f"{name}_points"))
        calls = []

        def counting(tangents):
            calls.append(1)
            return products(tangents)

        products = dstrig.triangles._vertex_products
        monkeypatch.setattr(dstrig.triangles, "_vertex_products", counting)
        monkeypatch.setattr(dstrig.areas, "_vertex_products", counting)
        area = girard_area_from_products(tri)
        assert len(calls) == 1
        assert area == pytest.approx(FROZEN_AREAS[name], abs=1e-9)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_girard_area_reads_tangents_once(self, request, monkeypatch, name):
        # The six tangents are computed once, as Python floats; no array is made.
        points = request.getfixturevalue(f"{name}_points")
        ref = girard_area(build_triangle(*points))
        tangent_calls = count_calls(monkeypatch, dstrig.triangles, "_tangent")
        tri = build_triangle(*points)
        res = girard_area(tri)
        assert len(tangent_calls) == 6
        assert "tangents" not in vars(tri)
        girard_area(tri)
        assert len(tangent_calls) == 6
        assert (res.real_area, res.complex_area, res.distinguished_vertex) \
            == (ref.real_area, ref.complex_area, ref.distinguished_vertex)
