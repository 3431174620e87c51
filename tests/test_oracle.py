import math

import numpy as np
import pytest

from conftest import FROZEN_AREAS
from dstrig.errors import DegenerateFanError, ExhaustedAttemptsError, GeometryError
from dstrig.geodesics import DeSitterPoint, SegmentKind, classify_segment, geodesic_point
from dstrig.oracle import (
    _BLOCK,
    _CHORD_BAND,
    GeneratorConfig,
    _attempt_blocks,
    _cevian_rows,
    _chart_point,
    _fan_area,
    _maybe_accepted,
    _rows_inner,
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


def _outcome(fn, *args):
    """Vertex bytes of the returned triangle, or the exception type and text."""
    try:
        tri = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(tri, tuple):
        tri = tri[1]
    return "ok", [p.v.tobytes() for p in tri.points]


def _reference_edge_rows(seg, s):
    a, b, d = seg.a.v, seg.b.v, seg.separation
    if seg.kind is SegmentKind.ELLIPSE_PART:
        wa = np.sin((1.0 - s) * d) / math.sin(d)
        wb = np.sin(s * d) / math.sin(d)
    else:
        wa = np.sinh((1.0 - s) * d) / math.sinh(d)
        wb = np.sinh(s * d) / math.sinh(d)
    return wa[:, None] * a[None, :] + wb[:, None] * b[None, :]


def _reference_cevian_rows(apex, q, t):
    # One cevian point per row of q, at the row's own parameter t.
    c = -(apex[0] * q[:, 0]) + apex[1] * q[:, 1] + apex[2] * q[:, 2]
    if np.any(c <= -1.0 + _CHORD_BAND):
        raise DegenerateFanError(
            "a fan geodesic would need to cross to an antipodal branch")
    wa = np.empty_like(c)
    wb = np.empty_like(c)
    ell = c < 1.0 - _CHORD_BAND
    hyp = c > 1.0 + _CHORD_BAND
    mid = ~(ell | hyp)
    if np.any(ell):
        th = np.arccos(np.clip(c[ell], -1.0, 1.0))
        sn = np.sin(th)
        wa[ell] = np.sin((1.0 - t[ell]) * th) / sn
        wb[ell] = np.sin(t[ell] * th) / sn
    if np.any(hyp):
        dh = np.arccosh(c[hyp])
        sh = np.sinh(dh)
        wa[hyp] = np.sinh((1.0 - t[hyp]) * dh) / sh
        wb[hyp] = np.sinh(t[hyp] * dh) / sh
    if np.any(mid):
        wa[mid] = 1.0 - t[mid]
        wb[mid] = t[mid]
    return wa[:, None] * apex[None, :] + wb[:, None] * q


def _reference_fan_area(tri, apex_index, m):
    """The fan kernel as it was: every term evaluated on all m*m cells."""
    seg = tri.edges[apex_index]
    apex = tri.points[apex_index].v

    def surface(s, t):
        return _reference_cevian_rows(apex, _reference_edge_rows(seg, s), t)

    mids = (np.arange(m) + 0.5) / m
    s, t = (g.ravel() for g in np.meshgrid(mids, mids, indexing="ij"))
    h = 1.0 / (4.0 * m)
    xs = (surface(s + h, t) - surface(s - h, t)) / (2.0 * h)
    xt = (surface(s, t + h) - surface(s, t - h)) / (2.0 * h)
    gss = _rows_inner(xs, xs)
    gst = _rows_inner(xs, xt)
    gtt = _rows_inner(xt, xt)
    det = gss * gtt - gst * gst
    return float(np.sum(np.sqrt(np.abs(det)))) / (m * m)


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

    def test_bad_apex_rejected(self, chorosceles_points):
        tri = build_triangle(*chorosceles_points)
        with pytest.raises(ValueError):
            integrate_area(tri, apex=3)

    def test_apex_swap_consistent(self, chronosceles_points):
        tri = build_triangle(*chronosceles_points)
        results = [integrate_area(tri, n=32, apex=a) for a in range(3)]
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
        whole = integrate_area(tri, n=64, apex=apex)
        parts = []
        for end in (base.a, base.b):
            sub = build_triangle(tri.points[apex], end, cut)
            parts.append(integrate_area(sub, n=64, apex=0))
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

    def test_error_estimate_shrinks(self, spatiolateral_points):
        tri = build_triangle(*spatiolateral_points)
        coarse = integrate_area(tri, n=16)
        fine = integrate_area(tri, n=64)
        assert fine.est_error < coarse.est_error


class TestSeparableFan:
    """The per-s fan kernel against the flattened one it replaced."""

    GRIDS = (4, 9, 33, 64)

    def _assert_same_fans(self, tri):
        raised = 0
        for apex in range(3):
            for m in self.GRIDS:
                try:
                    want = _reference_fan_area(tri, apex, m)
                except DegenerateFanError as exc:
                    with pytest.raises(DegenerateFanError) as got:
                        _fan_area(tri, apex, m)
                    assert str(got.value) == str(exc)
                    raised += 1
                    continue
                assert _fan_area(tri, apex, m) == want, (apex, m)
        return raised

    def test_fixtures_bit_identical(self, spatiolateral_points, tempolateral_points,
                                    chorosceles_points, chronosceles_points):
        for pts in (spatiolateral_points, tempolateral_points,
                    chorosceles_points, chronosceles_points):
            assert self._assert_same_fans(build_triangle(*pts)) == 0

    @pytest.mark.parametrize("u_max", (2.0, 6.0, 8.0))
    def test_random_triangles_bit_identical(self, u_max):
        built = raised = 0
        for seed in range(20):
            try:
                tri = random_buildable_triangle(seed, u_max=u_max)
            except GeometryError:
                continue
            built += 1
            raised += self._assert_same_fans(tri)
        assert built >= 19
        if u_max < 8.0:
            # seed 18 (u_max 2) and seed 16 (u_max 6) cross a branch.
            assert raised > 0

    def test_rows_match_flattened_cevians(self):
        # One elliptic, one hyperbolic and one chord-band row (<apex,q> = 1
        # exactly), each evaluated at every t.
        apex = np.array([0.0, 1.0, 0.0])
        q = np.array([[0.0, math.cos(0.7), math.sin(0.7)],
                      [math.sinh(0.9), math.cosh(0.9), 0.0],
                      [1.0, 1.0, 1.0]])
        assert _rows_inner(apex, q)[2] == 1.0
        t = (np.arange(9) + 0.5) / 9
        rows = _cevian_rows(apex, q, t, t + 0.01)
        for got, tt in zip(rows, (t, t + 0.01)):
            want = _reference_cevian_rows(apex, np.repeat(q, t.size, axis=0),
                                          np.tile(tt, len(q)))
            assert got.shape == (len(q), t.size, 3)
            np.testing.assert_array_equal(got, want.reshape(len(q), t.size, 3))
        np.testing.assert_array_equal(rows[0][2], np.outer(1.0 - t, apex) + np.outer(t, q[2]))

    def test_antipodal_row_raises_like_reference(self):
        apex = np.array([0.0, 1.0, 0.0])
        q = np.array([[0.0, math.cos(0.7), math.sin(0.7)], [0.0, -1.0, 0.0]])
        t = np.array([0.25, 0.75])
        with pytest.raises(DegenerateFanError) as want:
            _reference_cevian_rows(apex, np.repeat(q, 2, axis=0), np.tile(t, 2))
        with pytest.raises(DegenerateFanError) as got:
            _cevian_rows(apex, q, t)
        assert str(got.value) == str(want.value)


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

    def test_corrupt_normals_detected(self):
        rep = verify_type(ProperName.CHRONOSCELES, trials=2, seed=3,
                          corrupt_normals=True)
        assert rep["passed"] is False
        assert rep["counts"]["tangent_normal_identity"] == 0
        assert any(f["check"] == "tangent_normal_identity" for f in rep["failures"])

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            verify_type(ProperName.CHOROSCELES, trials=0, seed=1)
