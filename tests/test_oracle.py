import dataclasses
import math
import warnings

import numpy as np
import pytest

from conftest import FROZEN_AREAS
from dstrig import oracle
from dstrig.errors import (
    DegenerateTriangleError,
    ExhaustedAttemptsError,
    GeometryError,
    NonContractibleError,
    NonConvergentError,
)
from dstrig.geodesics import DeSitterPoint, geodesic_point, project_to_quadric
from dstrig.oracle import (
    _BLOCK,
    GeneratorConfig,
    _attempt_blocks,
    _chart_point,
    _maybe_accepted,
    integrate_area,
    random_buildable_triangle,
    random_triangle,
    verify_type,
)
from dstrig.triangles import (
    ProperName,
    build_triangle,
    classify_triangle,
    distinguished_vertex,
    triangle_name,
)
from referee import stokes_area

TARGETS = (ProperName.SPATIOLATERAL, ProperName.TEMPOLATERAL,
           ProperName.CHOROSCELES, ProperName.CHRONOSCELES)


def _scalar_class(pts):
    try:
        return classify_triangle(*pts)
    except GeometryError:
        return None


def _accepts(kind, target):
    """The sampler's test on a scalar classification (None: it raised)."""
    if kind is None or kind.proper_name is not target:
        return False
    return target is not ProperName.SPATIOLATERAL or kind.contractible is True


def _per_attempt_draws(seed, u_max, max_attempts):
    # The seed stream drawn one attempt at a time, as the sampler did
    # before it drew blocks.
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        us = rng.uniform(-u_max, u_max, 3)
        psis = rng.uniform(0.0, 2.0 * math.pi, 3)
        yield tuple(_chart_point(u, p) for u, p in zip(us, psis))


def _reference_random_triangle(cfg):
    """(attempt number, triangle) from the one-attempt-at-a-time sampler."""
    draws = _per_attempt_draws(cfg.seed, cfg.u_max, cfg.max_attempts)
    for attempt, pts in enumerate(draws, start=1):
        if _accepts(_scalar_class(pts), cfg.target):
            return attempt, build_triangle(*pts)
    raise ExhaustedAttemptsError(
        f"no {cfg.target.value} triangle in {cfg.max_attempts} attempts")


def _reference_buildable(seed, u_max):
    for pts in _per_attempt_draws(seed, u_max, 20000):
        try:
            return build_triangle(*pts)
        except GeometryError:
            continue
    raise ExhaustedAttemptsError("no buildable triangle in 20000 attempts")


def _oracle_outcome(tri):
    """integrate_area's result fields, or the exception type and text."""
    try:
        res = integrate_area(tri)
    except GeometryError as exc:
        return type(exc), str(exc)
    return "ok", res.area.hex(), res.est_error.hex(), res.grid, res.refinements


def _outcome(fn, *args):
    """Vertex bytes of the returned triangle, or the exception type and text."""
    try:
        tri = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(tri, tuple):
        tri = tri[1]
    return "ok", [p.v.tobytes() for p in tri.points]


class TestIntegrateArea:
    def test_fixture_areas(self, spatiolateral_points, tempolateral_points,
                           chorosceles_points, chronosceles_points):
        cases = {
            "spatiolateral": spatiolateral_points,
            "tempolateral": tempolateral_points,
            "chorosceles": chorosceles_points,
            "chronosceles": chronosceles_points,
        }
        for name, pts in cases.items():
            res = integrate_area(build_triangle(*pts), n=64)
            tol = max(1e-4, 3 * res.est_error)
            assert res.area == pytest.approx(FROZEN_AREAS[name], abs=tol), name
            assert res.est_error > 0
            assert res.grid[0] == res.grid[1]

    def test_small_grid_rejected(self, chorosceles_points):
        tri = build_triangle(*chorosceles_points)
        with pytest.raises(ValueError):
            integrate_area(tri, n=4)

    def test_large_grid_rejected(self, chorosceles_points, monkeypatch):
        # A fixed ceiling, not one derived from the panel cap.
        monkeypatch.setattr(oracle, "_MAX_PANELS", 1)
        tri = build_triangle(*chorosceles_points)
        with pytest.raises(ValueError, match="at most 5463"):
            integrate_area(tri, n=5464)

    def test_apex_swap_consistent(self, chronosceles_points):
        # The loop starts at whichever vertex comes first: the three
        # cyclic orders and one reversed order bound the same region.
        p1, p2, p3 = chronosceles_points
        orders = [(p1, p2, p3), (p2, p3, p1), (p3, p1, p2), (p3, p2, p1)]
        results = [integrate_area(build_triangle(*pts), n=32) for pts in orders]
        budget = 3 * sum(r.est_error for r in results)
        for r in results[1:]:
            assert abs(r.area - results[0].area) <= budget

    def test_cevian_split_additive(self, chorosceles_points):
        # cut from the apex to a point on the base; the two pieces must
        # integrate to the whole within the combined error estimates
        tri = build_triangle(*chorosceles_points)
        apex = distinguished_vertex(tri)
        base = tri.edges[apex]
        cut = geodesic_point(base, 0.4)
        whole = integrate_area(tri, n=64)
        parts = []
        for end in (base.a, base.b):
            sub = build_triangle(tri.points[apex], end, cut)
            parts.append(integrate_area(sub, n=64))
        total = sum(p.area for p in parts)
        budget = 3 * (whole.est_error + sum(p.est_error for p in parts)) + 1e-6
        assert abs(total - whole.area) <= budget

    def test_deterministic(self, tempolateral_points):
        tri = build_triangle(*tempolateral_points)
        a = integrate_area(tri, n=16)
        b = integrate_area(tri, n=16)
        assert a.area == b.area
        assert a.est_error == b.est_error
        assert a.grid == b.grid

    def test_error_estimate_bounds_referee_gap(self, spatiolateral_points,
                                               tempolateral_points, chorosceles_points,
                                               chronosceles_points):
        # The adaptive estimate at n = 16 and n = 64 covers the oracle's
        # distance from the referee, and stays at the accuracy it claims.
        for pts in (spatiolateral_points, tempolateral_points,
                    chorosceles_points, chronosceles_points):
            tri = build_triangle(*pts)
            ref = stokes_area(tri.points)
            for n in (16, 64):
                res = integrate_area(tri, n=n)
                assert abs(res.area - ref) <= res.est_error <= 1e-12 * max(1.0, ref)

    def test_matches_referee(self, spatiolateral_points, tempolateral_points,
                             chorosceles_points, chronosceles_points):
        # The last two are pool triangles on which the fan oracle missed
        # by 0.66 and 1.07.
        tris = [build_triangle(*pts) for pts in (spatiolateral_points, tempolateral_points,
                                                 chorosceles_points, chronosceles_points)]
        tris.append(random_triangle(GeneratorConfig(3, ProperName.CHOROSCELES, u_max=6.0)))
        tris.append(random_triangle(GeneratorConfig(58, ProperName.CHRONOSCELES, u_max=6.0)))
        for tri in tris:
            ref = stokes_area(tri.points)
            assert abs(integrate_area(tri).area - ref) <= 1e-12 * max(1.0, ref)

    def test_panel_cap_raises(self, monkeypatch):
        tri = random_triangle(GeneratorConfig(58, ProperName.CHRONOSCELES, u_max=6.0))
        assert integrate_area(tri).refinements > 1
        monkeypatch.setattr(oracle, "_MAX_PANELS", 48)
        with pytest.raises(NonConvergentError, match="more than 48 panels"):
            integrate_area(tri)

    def test_non_contractible_raises(self):
        tri = random_buildable_triangle(18, u_max=2.0)
        assert classify_triangle(*tri.points).contractible is False
        with pytest.raises(NonContractibleError):
            integrate_area(tri)

    def test_reads_only_vertices(self, spatiolateral_points, tempolateral_points,
                                 chorosceles_points, chronosceles_points):
        # NaN tangents and normals change nothing: the oracle uses no
        # angle, tangent or normal of the closed forms it checks.
        tris = [build_triangle(*pts) for pts in (spatiolateral_points, tempolateral_points,
                                                 chorosceles_points, chronosceles_points)]
        tris += [random_buildable_triangle(seed, u_max=2.0) for seed in range(50)]
        integrated = 0
        for tri in tris:
            blind = dataclasses.replace(tri, tangents=np.full((3, 3, 3), np.nan),
                                        normals=np.full((3, 3), np.nan))
            got, want = _oracle_outcome(blind), _oracle_outcome(tri)
            assert got == want, [p.v.tolist() for p in tri.points]
            integrated += want[0] == "ok"
        assert integrated >= 4 + 40

    def test_sliver_matches_referee(self):
        # Thin spatiolateral slivers that build_triangle accepts, down to
        # |det| ~ 1e-12.
        for eps in (1e-9, 3e-10, 1e-10, 3e-11, 1e-11, 2e-12):
            tri = build_triangle(DeSitterPoint([0.0, 1.0, 0.0]),
                                 DeSitterPoint([0.0, math.cos(1.0), math.sin(1.0)]),
                                 project_to_quadric([eps, math.cos(0.5), math.sin(0.5)]))
            assert triangle_name(tri) is ProperName.SPATIOLATERAL
            ref = stokes_area(tri.points)
            assert abs(integrate_area(tri).area - ref) <= 1e-12 * max(1.0, ref), eps

    def test_repeated_vertex_is_degenerate(self, spatiolateral_points, tempolateral_points,
                                           chorosceles_points, chronosceles_points):
        for p1, p2, p3 in (spatiolateral_points, tempolateral_points,
                           chorosceles_points, chronosceles_points):
            tri = dataclasses.replace(build_triangle(p1, p2, p3), points=(p1, p1, p3))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DegenerateTriangleError, match="single geodesic"):
                    integrate_area(tri)

    def test_gauss_legendre_constants(self):
        # The literal rule is leggauss(20) mapped to [0, 1], bit for bit.
        x, w = np.polynomial.legendre.leggauss(20)
        np.testing.assert_array_equal(oracle._GL_NODES, (x + 1.0) / 2.0)
        np.testing.assert_array_equal(oracle._GL_WEIGHTS, w / 2.0)


class TestGeneratorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GeneratorConfig(seed=0, target=ProperName.SPATIOLATERAL, u_max=0.0)
        with pytest.raises(ValueError):
            GeneratorConfig(seed=0, target=ProperName.SPATIOLATERAL,
                            max_attempts=0)

    @pytest.mark.parametrize("u_max", [math.inf, math.nan, 1e3, 710.5, -1.0])
    def test_u_max_out_of_range(self, u_max):
        with pytest.raises(ValueError, match="^u_max must be "):
            GeneratorConfig(seed=0, target=ProperName.SPATIOLATERAL, u_max=u_max)
        with pytest.raises(ValueError, match="^u_max must be "):
            random_buildable_triangle(0, u_max=u_max)

    @pytest.mark.parametrize("max_attempts", [0, -5])
    def test_max_attempts_validated(self, max_attempts):
        msg = f"^max_attempts must be >= 1, got {max_attempts}$"
        with pytest.raises(ValueError, match=msg):
            GeneratorConfig(seed=0, target=ProperName.SPATIOLATERAL,
                            max_attempts=max_attempts)
        with pytest.raises(ValueError, match=msg):
            random_buildable_triangle(0, max_attempts=max_attempts)

    def test_null_target_rejected(self):
        with pytest.raises(ValueError):
            random_triangle(GeneratorConfig(seed=0, target=ProperName.LUCILATERAL))


class TestRandomTriangle:
    @pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.value)
    def test_hits_target(self, target):
        for seed in range(3):
            tri = random_triangle(GeneratorConfig(seed=seed, target=target))
            assert triangle_name(tri) is target
            cls = classify_triangle(*tri.points)
            if target is ProperName.SPATIOLATERAL:
                assert cls.contractible is True

    def test_deterministic(self):
        cfg = GeneratorConfig(seed=42, target=ProperName.CHRONOSCELES)
        a = random_triangle(cfg)
        b = random_triangle(cfg)
        for pa, pb in zip(a.points, b.points):
            np.testing.assert_array_equal(pa.v, pb.v)

    def test_seeds_differ(self):
        a = random_triangle(GeneratorConfig(seed=1, target=ProperName.CHOROSCELES))
        b = random_triangle(GeneratorConfig(seed=2, target=ProperName.CHOROSCELES))
        assert not np.array_equal(a.points[0].v, b.points[0].v)

    def test_exhausted(self):
        cfg = GeneratorConfig(seed=1, target=ProperName.SPATIOLATERAL,
                              max_attempts=2)
        with pytest.raises(ExhaustedAttemptsError):
            random_triangle(cfg)

    def test_buildable_variant(self):
        tri = random_buildable_triangle(5)
        assert triangle_name(tri) in TARGETS


class TestBlockSampler:
    """The block sampler against the one-attempt-at-a-time loop it replaced."""

    @pytest.mark.parametrize("u_max", (2.0, 6.0, 8.0))
    @pytest.mark.parametrize("target", TARGETS, ids=lambda t: t.value)
    def test_matches_per_attempt_loop(self, target, u_max):
        for seed in range(16):
            cfg = GeneratorConfig(seed=seed, target=target, u_max=u_max)
            assert _outcome(random_triangle, cfg) \
                == _outcome(_reference_random_triangle, cfg), seed

    @pytest.mark.parametrize("max_attempts", (1, 7))
    def test_small_budgets(self, max_attempts):
        for target in TARGETS:
            for seed in range(8):
                cfg = GeneratorConfig(seed=seed, target=target, u_max=6.0,
                                      max_attempts=max_attempts)
                assert _outcome(random_triangle, cfg) \
                    == _outcome(_reference_random_triangle, cfg)

    def test_budget_boundary_beyond_one_block(self):
        # Find an acceptance past the first block, then give the sampler
        # exactly that many attempts and one fewer.
        for seed in range(64):
            cfg = GeneratorConfig(seed=seed, target=ProperName.SPATIOLATERAL, u_max=6.0)
            k, _ = _reference_random_triangle(cfg)
            if k > _BLOCK + 1:
                break
        else:
            pytest.fail("no seed accepted past the first block")
        for budget in (k, k - 1):
            cfg = GeneratorConfig(seed=seed, target=ProperName.SPATIOLATERAL,
                                  u_max=6.0, max_attempts=budget)
            assert _outcome(random_triangle, cfg) \
                == _outcome(_reference_random_triangle, cfg)
        assert _outcome(random_triangle, cfg)[0] is ExhaustedAttemptsError

    @pytest.mark.parametrize("u_max", (2.0, 8.0))
    def test_buildable_matches_per_attempt_loop(self, u_max):
        for seed in range(24):
            assert _outcome(random_buildable_triangle, seed, u_max) \
                == _outcome(_reference_buildable, seed, u_max), seed

    @pytest.mark.parametrize("u_max", (2.0, 6.0))
    def test_prefilter_skips_only_rejects(self, u_max):
        # 10000 draws, each classified once by the scalar body.
        blocks = list(_attempt_blocks(np.random.default_rng(7), u_max, 10000))
        us = np.concatenate([b[0] for b in blocks])
        psis = np.concatenate([b[1] for b in blocks])
        kinds = [_scalar_class([_chart_point(u, p) for u, p in zip(row_us, row_psis)])
                 for row_us, row_psis in zip(us, psis)]
        for target in TARGETS:
            kept = _maybe_accepted(us, psis, target)
            accepted = np.array([_accepts(kind, target) for kind in kinds])
            assert accepted.any(), target
            assert not np.any(accepted & ~kept), target
            assert kept.mean() < 0.5, target


class TestAnyTarget:
    """target None: the first draw of any null-free type, as buildable."""

    @staticmethod
    def _reference(seed, u_max, max_attempts):
        for pts in _per_attempt_draws(seed, u_max, max_attempts):
            try:
                return build_triangle(*pts)
            except GeometryError:
                continue
        raise ExhaustedAttemptsError(f"no buildable triangle in {max_attempts} attempts")

    @pytest.mark.parametrize("max_attempts", (1, 2, 65))
    def test_matches_per_attempt_loop(self, max_attempts):
        outcomes = set()
        for seed in range(24):
            cfg = GeneratorConfig(seed=seed, target=None, u_max=6.0,
                                  max_attempts=max_attempts)
            got = _outcome(random_triangle, cfg)
            assert got == _outcome(self._reference, seed, 6.0, max_attempts), seed
            assert got == _outcome(random_buildable_triangle, seed, 6.0, max_attempts)
            outcomes.add(got[0])
        assert "ok" in outcomes
        if max_attempts == 1:
            assert ExhaustedAttemptsError in outcomes

    def test_prefilter_skips_only_unbuildable(self):
        blocks = list(_attempt_blocks(np.random.default_rng(11), 6.0, 4000))
        us = np.concatenate([b[0] for b in blocks])
        psis = np.concatenate([b[1] for b in blocks])
        kept = _maybe_accepted(us, psis, None)
        built = np.array([_outcome(build_triangle, *map(_chart_point, row_us, row_psis))[0]
                          == "ok" for row_us, row_psis in zip(us, psis)])
        assert built.any()
        assert not np.any(built & ~kept)
        assert kept.mean() < 0.5


class TestVerifyType:
    def test_report_shape_and_pass(self):
        rep = verify_type(ProperName.TEMPOLATERAL, trials=3, seed=9)
        assert rep["passed"] is True
        assert rep["trials"] == 3
        assert set(rep["counts"]) == {
            "oracle_agreement", "tangent_normal_identity", "complex_area_shape",
            "product_formula_agreement", "type_structure"}
        assert all(v == 3 for v in rep["counts"].values())
        assert rep["failures"] == []

    def test_deterministic(self):
        a = verify_type(ProperName.CHOROSCELES, trials=2, seed=3)
        b = verify_type(ProperName.CHOROSCELES, trials=2, seed=3)
        assert a == b

    def test_corrupt_normals_detected(self, corrupt_normals):
        rep = verify_type(ProperName.CHRONOSCELES, trials=2, seed=3)
        assert rep["passed"] is False
        assert rep["counts"]["tangent_normal_identity"] == 0
        assert any(f["check"] == "tangent_normal_identity" for f in rep["failures"])

    def test_non_convergent_oracle_fails_agreement(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_PANELS", 1)
        rep = verify_type(ProperName.CHOROSCELES, trials=2, seed=3)
        assert rep["passed"] is False
        assert rep["counts"]["oracle_agreement"] == 0
        trial_seeds = np.random.SeedSequence(3).generate_state(2)
        assert [(f["trial"], f["seed"], f["check"]) for f in rep["failures"]] == [
            (0, trial_seeds[0], "oracle_agreement"), (1, trial_seeds[1], "oracle_agreement")]
        assert all(f["detail"].startswith("oracle failed: more than 1 panels")
                   for f in rep["failures"])

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            verify_type(ProperName.CHOROSCELES, trials=0, seed=1)
