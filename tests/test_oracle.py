import collections
import dataclasses
import gzip
import hashlib
import itertools
import json
import math
import re
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import FROZEN_AREAS, chart_point, count_calls, with_arrays
from dstrig import oracle
from dstrig.areas import girard_area
from dstrig.errors import (
    DegenerateTriangleError,
    ExhaustedAttemptsError,
    GeometryError,
    NonContractibleError,
    NonConvergentError,
    NotUnitError,
)
from dstrig.geodesics import DeSitterPoint, geodesic_point, project_to_quadric
from dstrig.minkowski import NULL_EPS, UNIT_EPS
from dstrig.oracle import (
    _BLOCK,
    _FIRST_BLOCK,
    _TARGET_RULES,
    _UNIT_SAFE_U,
    GeneratorConfig,
    _kept_attempts,
    _structure_ok,
    integrate_area,
    random_buildable_triangle,
    random_triangle,
    verify_type,
)
from dstrig.triangles import (
    ProperName,
    _check_not_collinear,
    _disk_name,
    build_triangle,
    classify_triangle,
    distinguished_vertex,
    triangle_name,
)
from referee import stokes_area

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "pool.jsonl.gz"
TARGETS = (ProperName.SPATIOLATERAL, ProperName.TEMPOLATERAL,
           ProperName.CHOROSCELES, ProperName.CHRONOSCELES)
# The benchmark pool's eight strata: each area type at u_max 2 and 6.
POOL_STRATA = [(target, u_max) for u_max in (2.0, 6.0) for target in TARGETS]
over_pool_strata = pytest.mark.parametrize(
    "target, u_max", POOL_STRATA, ids=[f"{t.value}-{u}" for t, u in POOL_STRATA])


def _pool_triangle(target, u_max, seed=0):
    # The pool document `dstrig random --type T --u-max U --seed S` emits.
    return random_triangle(GeneratorConfig(seed, target, u_max=u_max))


def _pool_triangles():
    # The 512 documents of the benchmark pool, built as the CLI builds them.
    with gzip.open(POOL, "rt", encoding="utf-8") as fh:
        docs = [json.loads(line)["doc"] for line in list(fh)[1:]]  # line 1: metadata
    assert len(docs) == 512
    return [build_triangle(*map(DeSitterPoint, doc["vertices"])) for doc in docs]


def _starting_panels(m):
    # (e, a, w) of m equal panels per edge: 3 * m rows.
    return np.repeat(np.arange(3), m), np.tile(np.arange(m) / m, 3), np.full(3 * m, 1.0 / m)


def _scalar_class(pts):
    try:
        return classify_triangle(*pts)
    except GeometryError:
        return None


def _quadric_points(raw):
    """A sampler attempt's DeSitterPoints, or None where one is off the quadric."""
    try:
        return tuple(map(DeSitterPoint, raw))
    except NotUnitError:
        return None


def _accepts(kind, target):
    """The sampler's test on a scalar classification (None: it raised).

    target None accepts any of the four null-free types.
    """
    if kind is not None and target is None:
        return kind.proper_name in TARGETS
    if kind is None or kind.proper_name is not target:
        return False
    return target is not ProperName.SPATIOLATERAL or kind.contractible is True


# A sampler rule that keeps every attempt: every edge-code sum (at most
# 3 * 64) is a target code, and none must be contractible.
_KEEP_ALL = (frozenset(range(193)), 192, False)


def _kept_mask(draws, rng, u_max, target):
    """Which of draws, all attempts of rng's stream, the sampler keeps for target."""
    kept = set(_kept_attempts(rng, u_max, len(draws), _TARGET_RULES[target]))
    return np.array([raw in kept for raw in draws])


def _per_attempt_draws(seed, u_max, max_attempts):
    # The seed stream drawn one attempt at a time, as the sampler did
    # before it drew blocks.
    rng = np.random.default_rng(seed)
    for _ in range(max_attempts):
        us = rng.uniform(-u_max, u_max, 3)
        psis = rng.uniform(0.0, 2.0 * math.pi, 3)
        yield tuple(chart_point(u, p) for u, p in zip(us, psis))


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


def _ref_loop_edges(pts):
    """_loop_edges as it was before the kernel moved to a per-node layout:
    the per-edge ellipse flags and the (10, 3) table of edge constants."""
    rows = np.asarray(pts, dtype=float).tolist()
    ell, cols = [], []
    for p, q in zip(rows, rows[1:] + rows[:1]):
        c = -(p[0] * q[0]) + p[1] * q[1] + p[2] * q[2]
        if c < 1.0:
            d = math.acos(max(c, -1.0))
            sd = math.sin(d)
        else:
            d = math.acosh(c)
            sd = math.sinh(d)
        k = (p[1] * q[2] - p[2] * q[1]) * d / sd if sd else math.nan
        ell.append(c < 1.0)
        cols.append((d, sd, p[0], q[0], p[1], q[1], p[2], q[2], k, abs(k)))
    return np.array(ell), np.array(cols).T


def _ref_node_sums(edges, e, frac, w):
    """_node_sums as it was before the per-node layout: frac is (2, N, 20),
    each per-edge constant is broadcast over a panel's 20 nodes, and sin and
    sinh are both applied under an ellipse mask."""
    ell, table = edges
    g = table[:, e]
    args = frac * g[0, :, None]
    on_ellipse = ell[e][None, :, None]
    ab = np.empty_like(args)
    np.sin(args, out=ab, where=on_ellipse)
    np.sinh(args, out=ab, where=~on_ellipse)
    ab /= g[1, :, None]
    x = ab * g[2:8].reshape(3, 2, -1, 1)
    rho2 = (x[1, 0] + x[1, 1]) ** 2 + (x[2, 0] + x[2, 1]) ** 2
    x0 = np.abs(x[0])
    fr = np.stack([x[0, 0] + x[0, 1], x0[0] + x0[1]])
    fr *= g[8:10, :, None]
    fr /= rho2
    fr *= np.array(oracle._GL_WEIGHTS)
    f, r = fr.sum(axis=2)
    return w * f, w * r


def _ref_kept_attempts(rng, u_max, max_attempts, rule):
    """_kept_attempts as it was before vertex 1 waited for edge e0: every
    block 64 rows, all three chart points and unit checks before any edge."""
    codes, top, contractible = rule
    lo, span, turn = -u_max, u_max - -u_max, 2.0 * math.pi
    sinh, cosh, cos, sin = math.sinh, math.cosh, math.cos, math.sin
    unit, null, impossible = UNIT_EPS, NULL_EPS, -1.0 + NULL_EPS
    done = 0
    while done < max_attempts:
        m = min(64, max_attempts - done)
        for w0, w1, w2, w3, w4, w5 in rng.random((m, 6)).tolist():
            u0, u1, u2 = lo + span * w0, lo + span * w1, lo + span * w2
            a0, a1, a2 = turn * w3, turn * w4, turn * w5
            c0, c1, c2 = cosh(u0), cosh(u1), cosh(u2)
            p0, p1, p2 = sinh(u0), c0 * cos(a0), c0 * sin(a0)
            q0, q1, q2 = sinh(u1), c1 * cos(a1), c1 * sin(a1)
            r0, r1, r2 = sinh(u2), c2 * cos(a2), c2 * sin(a2)
            if (abs(-(p0 * p0) + p1 * p1 + p2 * p2 - 1.0) <= unit
                    and abs(-(q0 * q0) + q1 * q1 + q2 * q2 - 1.0) <= unit
                    and abs(-(r0 * r0) + r1 * r1 + r2 * r2 - 1.0) <= unit):
                e0 = -(q0 * r0) + q1 * r1 + q2 * r2
                code = (16 if abs(e0 - 1.0) <= null else 4 if e0 > 1.0
                        else 1 if e0 > impossible else 64)
                if code > top:
                    continue
                e1 = -(r0 * p0) + r1 * p1 + r2 * p2
                code += (16 if abs(e1 - 1.0) <= null else 4 if e1 > 1.0
                         else 1 if e1 > impossible else 64)
                if code > top:
                    continue
                e2 = -(p0 * q0) + p1 * q1 + p2 * q2
                code += (16 if abs(e2 - 1.0) <= null else 4 if e2 > 1.0
                         else 1 if e2 > impossible else 64)
                if code not in codes or (contractible and 1.0 + e0 + e1 + e2 <= 0.0):
                    continue
            yield (p0, p1, p2), (q0, q1, q2), (r0, r1, r2)
        done += m


def _carried_whole_area(tri, n):
    """(area, est_error, grid, refinements) from the loop integrate_area
    ran before each level re-evaluated its pending panels: level 1 takes
    the starting panels and their halves from one call, and each later
    level evaluates only halves, carrying each pending panel's whole
    from the level before."""
    edges = oracle._loop_edges([p.v for p in tri.points])
    e, a, w = _starting_panels(n // 8)
    h = w / 2.0
    vals, scales = oracle._panels(edges, np.tile(e, 3), np.concatenate([a, a, a + h]),
                                  np.concatenate([w, h, h]))
    whole, vals, scales = vals[:e.size], vals[e.size:], scales[e.size:]
    scale = float(np.sum(np.abs(whole)))
    kept, est, floor, level = [], 0.0, 0.0, 1
    while True:
        halves = vals.reshape(2, -1)
        gap = np.abs(halves.sum(axis=0) - whole)
        roundoff = 64.0 * oracle._EPS * scales.reshape(2, -1).sum(axis=0)
        ok = gap <= np.maximum(1e-12 * scale * w, roundoff)
        kept.append(halves[:, ok].ravel())
        est += float(np.sum(gap[ok]))
        floor += float(np.sum(roundoff[ok]))
        bad = ~ok
        if not bad.any():
            break
        h = w[bad] / 2.0
        e, a, w = np.tile(e[bad], 2), np.concatenate([a[bad], a[bad] + h]), np.tile(h, 2)
        whole = halves[:, bad].ravel()
        level += 1
        half = w / 2.0
        vals, scales = oracle._panels(edges, np.tile(e, 2), np.concatenate([a, a + half]),
                                      np.tile(half, 2))
    return abs(math.fsum(np.concatenate(kept).tolist())), max(est, floor), (n, n), level


# Pool-stratum seeds below 64 at u_max 6 whose triangle refines to
# bisection level 3 or deeper at n = 64.
DEEP_SEEDS = {
    ProperName.SPATIOLATERAL: (39,),
    ProperName.TEMPOLATERAL: (2,),
    ProperName.CHOROSCELES: (0, 3, 38, 46, 51),
    ProperName.CHRONOSCELES: (0, 14, 31, 36, 58, 59),
}


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

    @pytest.mark.parametrize("n", [64.0, 8.5, True, "64"])
    def test_grid_must_be_int(self, n):
        # Checked before any work: this triangle bounds no disk, which would
        # raise NonContractibleError.
        tri = random_buildable_triangle(18, u_max=2.0)
        with pytest.raises(TypeError, match=f"^n must be an int, got {n!r}$"):
            integrate_area(tri, n)

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

    def test_level_one_cap_survives_fusion(self, monkeypatch):
        # Level 1 evaluates the 24 starting panels and their 48 halves in
        # one call; the cap still counts only the halves, before any work.
        tri = _pool_triangle(ProperName.CHRONOSCELES, 6.0, seed=58)
        monkeypatch.setattr(oracle, "_MAX_PANELS", 47)
        with pytest.raises(NonConvergentError,
                           match="^more than 47 panels at bisection level 1$"):
            integrate_area(tri, n=64)

    @pytest.mark.parametrize("cap, level", [(48, 2), (50, 3), (52, 4), (56, 6), (60, 8)])
    def test_later_level_cap_names_its_level(self, cap, level, monkeypatch):
        tri = _pool_triangle(ProperName.CHRONOSCELES, 6.0, seed=58)
        monkeypatch.setattr(oracle, "_MAX_PANELS", cap)
        with pytest.raises(NonConvergentError,
                           match=f"^more than {cap} panels at bisection level {level}$"):
            integrate_area(tri, n=64)

    def test_cap_just_above_deepest_level_converges(self, monkeypatch):
        tri = _pool_triangle(ProperName.CHRONOSCELES, 6.0, seed=58)
        monkeypatch.setattr(oracle, "_MAX_PANELS", 64)
        assert integrate_area(tri, n=64).refinements == 8

    @pytest.mark.parametrize("n", (8, 64, 200))
    def test_matches_carried_whole_loop(self, n, spatiolateral_points, tempolateral_points,
                                        chorosceles_points, chronosceles_points):
        # Every level re-evaluates its pending panels' wholes; they are the
        # rows the level before evaluated as halves, so no bit may move.
        tris = [build_triangle(*pts) for pts in (spatiolateral_points, tempolateral_points,
                                                 chorosceles_points, chronosceles_points)]
        tris += [_pool_triangle(target, 6.0, seed)
                 for target, seeds in DEEP_SEEDS.items() for seed in seeds]
        for i, tri in enumerate(tris):
            res = integrate_area(tri, n)
            want = _carried_whole_area(tri, n)
            assert res.area.hex() == want[0].hex(), i
            assert res.est_error.hex() == want[1].hex(), i
            assert (res.grid, res.refinements) == want[2:], i
            if n == 64 and i >= 4:
                assert res.refinements >= 3, i  # DEEP_SEEDS still refine that deep

    def test_hand_built_null_edge_does_not_converge(self, spatiolateral_points,
                                                    monkeypatch):
        # Vertices swapped in by hand so that <p2, p3> = 1 exactly: that
        # edge's length and S(d) are 0 and its integrand is nan, which no
        # panel accepts.
        tri = build_triangle(*spatiolateral_points)
        null_pair = (DeSitterPoint([1.0, 1.0, 1.0]), DeSitterPoint([0.0, 0.0, 1.0]))
        tri = dataclasses.replace(tri, points=(tri.points[0], *null_pair))
        monkeypatch.setattr(oracle, "_MAX_PANELS", 48)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(NonConvergentError, match="^more than 48 panels"):
                integrate_area(tri, n=64)

    @over_pool_strata
    def test_panels_independent_of_grouping(self, target, u_max):
        # The first level evaluates whole panels and halves in one call,
        # so a panel's sums must not depend on which rows share its call.
        # Sets of 3, 24, 48 and 75 rows: with the weights applied by a
        # matrix-vector product, the 3-row set got other last bits alone
        # than inside the 150-row call.
        tri = _pool_triangle(target, u_max)
        edges = oracle._loop_edges(np.stack([p.v for p in tri.points]))
        sets = [_starting_panels(m) for m in (1, 8, 16, 25)]
        joint = oracle._panels(edges, *map(np.concatenate, zip(*sets)))
        alone = [oracle._panels(edges, *panels) for panels in sets]
        for got, want in zip(joint, map(np.concatenate, zip(*alone))):
            assert got.tobytes() == want.tobytes()

    @over_pool_strata
    def test_pool_strata_match_referee(self, target, u_max):
        # One pool triangle per stratum; at u_max 6 the edge constants
        # come from long hyperbolic edges.
        tri = _pool_triangle(target, u_max)
        ref = stokes_area(tri.points)
        assert abs(integrate_area(tri).area - ref) <= 1e-12 * max(1.0, ref)

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
            blind = with_arrays(tri, tangents=np.full((3, 3, 3), np.nan),
                                normals=np.full((3, 3), np.nan))
            got, want = _oracle_outcome(blind), _oracle_outcome(tri)
            assert got == want, [p.v.tolist() for p in tri.points]
            integrated += want[0] == "ok"
        assert integrated >= 4 + 40

    def test_referee_retries_failing_edge(self):
        # An edge of this pool record misses the referee's error bound at
        # its default 2 pieces (estimate 1.000000000000001e-30).
        tri = _pool_triangle(ProperName.CHOROSCELES, 6.0, seed=51)
        area = girard_area(tri).real_area
        assert abs(stokes_area(tri.points) - area) <= 1e-12 * max(1.0, area)

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


class TestKernelReference:
    """_node_sums against the broadcast kernel it replaced (_ref_node_sums),
    bit for bit, on the rows integrate_area evaluates."""

    @staticmethod
    def _assert_matches(tri, e, frac, w):
        pts = [p._x for p in tri.points]
        got = oracle._node_sums(oracle._loop_edges(pts), e, frac, w)
        want = _ref_node_sums(_ref_loop_edges(pts), e, frac.reshape(2, e.size, -1), w)
        for g, r in zip(got, want):
            assert g.tobytes() == r.tobytes()

    @over_pool_strata
    def test_level_one_rows(self, target, u_max):
        # Spatiolateral edges are all ellipses and tempolateral ones all
        # hyperbolas, so those take one unmasked call; the others keep the mask.
        tri = _pool_triangle(target, u_max)
        kind = oracle._loop_edges([p._x for p in tri.points])[0]
        one_kind = {ProperName.SPATIOLATERAL: np.sin, ProperName.TEMPOLATERAL: np.sinh}
        if target in one_kind:
            assert kind is one_kind[target]
        else:
            assert kind.any() and not kind.all()
        for m in (1, 8, 16, 25):
            self._assert_matches(tri, *oracle._level_rows(*_starting_panels(m)))

    def test_later_level_rows(self, monkeypatch):
        calls = count_calls(monkeypatch, oracle, "_node_sums")
        later = []
        for target, seeds in DEEP_SEEDS.items():
            for seed in seeds:
                tri = _pool_triangle(target, 6.0, seed)
                calls.clear()
                assert integrate_area(tri, 64).refinements == len(calls) >= 3
                later += [(tri, *args[1:]) for args in calls[1:]]
        monkeypatch.undo()
        for tri, e, frac, w in later:
            self._assert_matches(tri, e, frac, w)

    def test_one_call_per_level_on_pool(self, monkeypatch):
        calls = count_calls(monkeypatch, oracle, "_node_sums")
        levels = collections.Counter()
        for tri in _pool_triangles():
            calls.clear()
            res = integrate_area(tri, 64)
            assert len(calls) == res.refinements
            levels[res.refinements] += 1
        # Most pool triangles finish at level 1, where every panel passes.
        assert levels[1] == 483


class TestOracleDigest:
    """integrate_area's (area, est_error, grid, refinements) over fixed
    inputs, hashed: a change to the kernel's arithmetic, the stop rule or
    the level loop moves the digest."""

    @staticmethod
    def _digest(tris):
        digest = hashlib.sha256()
        for n in (8, 16, 64, 200, 1000):
            for tri in tris:
                res = integrate_area(tri, n)
                digest.update(struct.pack("<2d3q", res.area, res.est_error, *res.grid,
                                          res.refinements))
        return digest.hexdigest()

    def test_pool_unchanged(self):
        assert self._digest(_pool_triangles()) \
            == "9dd4bcda2556364da7e1283b45a634ea0d285f5350942671059c62fe66c91157"

    def test_seeded_draws_unchanged(self):
        tris = [random_triangle(GeneratorConfig(seed, target, u_max))
                for target in TARGETS for u_max in (0.5, 2.0, 4.0, 7.0) for seed in range(40)]
        assert self._digest(tris) \
            == "a947e91d620da7ede3468ac7cc9dbf4dbcf0bf34350faa28c07ca6e5d07a6c7e"


def _parent_integrate_area(tri, n):
    """integrate_area as it was before _integrate_many: its own checks, then
    one triangle's level loop, one _node_sums call per level."""
    oracle._check_grid("n", n)
    _disk_name(tri)
    _check_not_collinear(tri.points)
    edges = oracle._loop_edges([p._x for p in tri.points])
    e, a, w, rows = oracle._start_layout(n // 8)
    kept, est, floor, level = [], 0.0, 0.0, 1
    while True:
        if sum(map(len, kept)) + 2 * e.size > oracle._MAX_PANELS:
            raise NonConvergentError(
                f"more than {oracle._MAX_PANELS} panels at bisection level {level}")
        vals, scales = oracle._node_sums(edges, *rows)
        m = e.size
        whole, left, right = vals[:m], vals[m:2 * m], vals[2 * m:]
        if level == 1:
            scale = float(np.abs(whole).sum())
        gap = np.abs(left + right - whole)
        roundoff = 64.0 * oracle._EPS * (scales[m:2 * m] + scales[2 * m:])
        ok = gap <= np.maximum(1e-12 * scale * w, roundoff)
        if ok.all():
            kept.append(vals[m:])
            est += float(gap.sum())
            floor += float(roundoff.sum())
            break
        kept += left[ok], right[ok]
        est += float(gap[ok].sum())
        floor += float(roundoff[ok].sum())
        bad = ~ok
        h = w[bad] / 2.0
        e, a, w = np.tile(e[bad], 2), np.concatenate([a[bad], a[bad] + h]), np.tile(h, 2)
        rows = oracle._level_rows(e, a, w)
        level += 1
    return oracle.OracleResult(area=abs(math.fsum(np.concatenate(kept).tolist())),
                               est_error=max(est, floor), grid=(n, n), refinements=level)


def _packed(res):
    """An oracle result's four fields as bytes, or an exception's type and text."""
    if isinstance(res, Exception):
        return type(res), str(res)
    return struct.pack("<2d3q", res.area, res.est_error, *res.grid, res.refinements)


def _parent_outcome(tri, n):
    try:
        return _packed(_parent_integrate_area(tri, n))
    except GeometryError as exc:
        return _packed(exc)


def _pool_chunks():
    """The pool as the benchmark's chunks: 8 triangles, one per stratum."""
    strata = {}
    with gzip.open(POOL, "rt", encoding="utf-8") as fh:
        for line in list(fh)[1:]:  # line 1: metadata
            rec = json.loads(line)
            tri = build_triangle(*map(DeSitterPoint, rec["doc"]["vertices"]))
            strata.setdefault((rec["type"], rec["u_max"]), []).append(tri)
    assert len(strata) == 8
    return [list(chunk) for chunk in zip(*strata.values())]


class TestIntegrateMany:
    """_integrate_many against one triangle at a time, bit for bit."""

    @pytest.fixture(scope="class")
    def chunks(self):
        return _pool_chunks()

    @pytest.mark.parametrize("n", (8, 64, 200))
    def test_pool_matches_parent(self, chunks, n):
        # Chunks mix the four types, so slabs mix sin and sinh edges.
        pool = [tri for chunk in chunks for tri in chunk]
        want = [_parent_outcome(tri, n) for tri in pool]
        in_chunks = [_packed(res) for chunk in chunks for res in oracle._integrate_many(chunk, n)]
        assert in_chunks == want
        assert [_packed(res) for res in oracle._integrate_many(pool, n)] == want
        assert [_packed(integrate_area(tri, n)) for tri in pool] == want
        # The level loop takes batches from a stack: reversed, other
        # triangles share each slab and refine in another order.
        assert [_packed(res) for res in oracle._integrate_many(pool[::-1], n)] == want[::-1]

    def test_failures_stay_with_their_triangle(self, chunks, monkeypatch):
        # Level 1 needs 48 halves at n = 64, so a cap of 48 fails only a
        # triangle that refines; the others share slabs with the failures.
        non_contractible = random_buildable_triangle(18, u_max=2.0)
        p1, _, p3 = chunks[0][0].points
        collinear = dataclasses.replace(chunks[0][0], points=(p1, p1, p3))
        deep = _pool_triangle(ProperName.CHRONOSCELES, 6.0, seed=58)
        monkeypatch.setattr(oracle, "_MAX_PANELS", 48)
        batch = [chunks[1][0], non_contractible, chunks[1][1], collinear, deep,
                 chunks[1][2], chunks[1][3], deep, chunks[1][4]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [_packed(res) for res in oracle._integrate_many(batch, 64)]
        assert got == [_parent_outcome(tri, 64) for tri in batch]
        assert [g[0] for g in got if isinstance(g, tuple)] == [
            NonContractibleError, DegenerateTriangleError, NonConvergentError,
            NonConvergentError]
        assert got[4][1] == "more than 48 panels at bisection level 2"
        assert sum(isinstance(g, bytes) for g in got) == 5
        # Below level 1's 48 halves every triangle fails the cap, after its checks.
        monkeypatch.setattr(oracle, "_MAX_PANELS", 47)
        got = [_packed(res) for res in oracle._integrate_many(batch, 64)]
        assert got == [_parent_outcome(tri, 64) for tri in batch]
        assert got[:2] == [(NonConvergentError, "more than 47 panels at bisection level 1"),
                           (NonContractibleError,
                            "triangle is non-contractible: it bounds no disk")]

    def test_bad_grid_raises_for_the_call(self, chunks):
        for n, error in ((7, ValueError), (64.0, TypeError), (True, TypeError)):
            with pytest.raises(error):
                oracle._integrate_many(chunks[0], n)
        assert oracle._integrate_many([], 64) == []

    @pytest.mark.parametrize("n, slab, per_chunk", [(8, 72, 1), (64, 144, 4), (200, 225, 8)])
    def test_calls_within_row_bound(self, chunks, n, slab, per_chunk, monkeypatch):
        # Level 1 of a chunk takes per_chunk calls of slab rows: the whole
        # chunk at n = 8, two triangles at n = 64, and one at n = 200, whose
        # 225 rows alone exceed the bound.  Later levels are smaller.
        calls = count_calls(monkeypatch, oracle, "_node_sums")
        for chunk in chunks:
            oracle._integrate_many(chunk, n)
        rows = collections.Counter(args[1].size for args in calls)
        assert max(rows) == slab <= max(oracle._SLAB_ROWS, 9 * (n // 8)), rows
        assert rows[slab] == per_chunk * len(chunks), rows


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

    @pytest.mark.parametrize("max_attempts", [2.5, 20000.0, True, "20"])
    def test_max_attempts_must_be_int(self, max_attempts):
        msg = f"^max_attempts must be an int, got {max_attempts!r}$"
        with pytest.raises(TypeError, match=msg):
            GeneratorConfig(seed=0, target=ProperName.SPATIOLATERAL,
                            max_attempts=max_attempts)
        with pytest.raises(TypeError, match=msg):
            random_buildable_triangle(0, max_attempts=max_attempts)

    @pytest.mark.parametrize("seed", [True, False, 1.5, 0.0, "0", np.int64(3)])
    def test_seed_must_be_int(self, seed):
        # True ran seed 1 and 1.5 failed inside SeedSequence.
        msg = f"^{re.escape(f'seed must be an int, got {seed!r}')}$"
        with pytest.raises(TypeError, match=msg):
            GeneratorConfig(seed=seed, target=ProperName.SPATIOLATERAL)
        with pytest.raises(TypeError, match=msg):
            random_buildable_triangle(seed)

    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_seed_must_be_non_negative(self, seed):
        msg = f"^seed must be >= 0, got {seed}$"
        with pytest.raises(ValueError, match=msg):
            GeneratorConfig(seed=seed, target=ProperName.SPATIOLATERAL)
        with pytest.raises(ValueError, match=msg):
            random_buildable_triangle(seed)

    def test_large_seed_accepted(self):
        assert triangle_name(random_buildable_triangle(2**70)) in TARGETS

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

    def test_skips_attempt_whose_classify_raises(self, monkeypatch):
        # The first attempt the sampler would accept raises instead; the
        # sampler goes on to the next accepted attempt of the seed stream.
        cfg = GeneratorConfig(seed=0, target=ProperName.CHOROSCELES)
        draws = _per_attempt_draws(cfg.seed, cfg.u_max, cfg.max_attempts)
        first, second = itertools.islice(
            (pts for pts in draws if _accepts(_scalar_class(pts), cfg.target)), 2)
        classify = oracle.classify_triangle
        raised = []

        def flaky(*pts):
            kind = classify(*pts)
            if not raised and _accepts(kind, cfg.target):
                raised.append(pts)
                raise DegenerateTriangleError("injected")
            return kind

        monkeypatch.setattr(oracle, "classify_triangle", flaky)
        tri = random_triangle(cfg)

        def vertex_bytes(pts):
            return [p.v.tobytes() for p in pts]

        assert vertex_bytes(raised[0]) == vertex_bytes(first)
        assert vertex_bytes(tri.points) == vertex_bytes(second)

    def test_buildable_variant(self):
        tri = random_buildable_triangle(5)
        assert triangle_name(tri) in TARGETS


class TestBlockSampler:
    """The sampler, which draws _BLOCK attempts' numbers at a time, against
    a reference loop over rng.uniform draws made one attempt at a time."""

    @pytest.mark.parametrize("u_max", (0.5, 2.0, 6.0, 12.0, 710.0))
    @pytest.mark.parametrize("max_attempts", (1, 15, 16, 17, 63, 64, 65, 129))
    def test_attempts_follow_seed_stream(self, max_attempts, u_max):
        # Raw floats: DeSitterPoint raises off the quadric at u_max 12 and 710.
        rng = np.random.default_rng(3)
        expected = []
        for _ in range(max_attempts):
            us = rng.uniform(-u_max, u_max, 3).tolist()
            psis = rng.uniform(0.0, 2.0 * math.pi, 3).tolist()
            expected.append([(math.sinh(u), math.cosh(u) * math.cos(psi),
                              math.cosh(u) * math.sin(psi)) for u, psi in zip(us, psis)])
        got = list(_kept_attempts(np.random.default_rng(3), u_max, max_attempts, _KEEP_ALL))
        assert len(got) == max_attempts
        assert np.array(got).tobytes() == np.array(expected).tobytes()

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

    @pytest.mark.parametrize("u_max", (0.5, 2.0, 6.0, 8.0, 12.0))
    def test_prefilter_skips_only_rejects(self, u_max):
        # 10000 draws, each classified once by the scalar body.  At u_max 8
        # and 12 some have a point off the quadric, where that body raises.
        draws = list(_kept_attempts(np.random.default_rng(7), u_max, 10000, _KEEP_ALL))
        pts = [_quadric_points(raw) for raw in draws]
        off = np.array([p is None for p in pts])
        kinds = [None if p is None else _scalar_class(p) for p in pts]
        classified = np.array([kind is not None for kind in kinds])
        for target in (*TARGETS, None):
            kept = _kept_mask(draws, np.random.default_rng(7), u_max, target)
            accepted = np.array([_accepts(kind, target) for kind in kinds])
            assert not np.any(accepted & ~kept), target
            # Exact, not just safe, wherever the scalar body decides.
            assert np.array_equal(kept[classified], accepted[classified]), target
            # Kept where the scalar body raises, so that it still raises.
            assert kept[off].all(), target
            if target is not None:
                assert accepted.any(), target
                # Judged where no point is off the quadric: at u_max 12
                # most attempts have one, and all of those are kept.
                assert kept[~off].mean() < 0.5, target


class TestSamplerReference:
    """_kept_attempts against the loop it replaced (_ref_kept_attempts),
    which computed vertex 1 and all three unit checks before any edge and
    drew 64-row blocks from the start: the same attempts, bit for bit."""

    @pytest.mark.parametrize("u_max", (0.5, 2.0, 6.0, _UNIT_SAFE_U - 1e-9, _UNIT_SAFE_U,
                                       _UNIT_SAFE_U + 1e-9, 7.0, 8.0, 12.0, 710.0))
    def test_same_attempts(self, u_max):
        rules = [*(_TARGET_RULES[t] for t in (*TARGETS, None)), _KEEP_ALL]
        for rule, seed, budget in itertools.product(
                rules, range(16), (1, _FIRST_BLOCK - 1, _FIRST_BLOCK, _FIRST_BLOCK + 1,
                                   _FIRST_BLOCK + _BLOCK, _FIRST_BLOCK + _BLOCK + 1, 3000)):
            got = list(_kept_attempts(np.random.default_rng(seed), u_max, budget, rule))
            want = list(_ref_kept_attempts(np.random.default_rng(seed), u_max, budget, rule))
            assert np.array(got).tobytes() == np.array(want).tobytes(), (rule, seed, budget)
            assert len(got) == len(want)

    def test_unit_safe_u_is_its_formula(self):
        # Derived from UNIT_EPS, so a change to the unit band moves it.
        eps = np.finfo(float).eps
        assert _UNIT_SAFE_U == math.acosh(math.sqrt(UNIT_EPS / (32.0 * eps)))
        assert 6.6 < _UNIT_SAFE_U < 6.65

    def test_unit_check_cannot_fail_below_safe_u(self):
        # Seeded draws with |u| <= _UNIT_SAFE_U, and u = +-_UNIT_SAFE_U on a
        # psi grid, stay within a quarter of the unit band.
        rng = np.random.default_rng(0)
        us = rng.uniform(-_UNIT_SAFE_U, _UNIT_SAFE_U, 100_000).tolist()
        psis = rng.uniform(0.0, 2.0 * math.pi, 100_000).tolist()
        grid = [2.0 * math.pi * k / 4096 for k in range(4096)]
        pairs = [*zip(us, psis), *((u, psi) for u in (-_UNIT_SAFE_U, _UNIT_SAFE_U)
                                  for psi in grid)]
        worst = 0.0
        for u, psi in pairs:
            c = math.cosh(u)
            p0, p1, p2 = math.sinh(u), c * math.cos(psi), c * math.sin(psi)
            worst = max(worst, abs(-(p0 * p0) + p1 * p1 + p2 * p2 - 1.0))
        assert worst <= UNIT_EPS / 4

    def test_first_edge_bound_is_conservative(self):
        # Rows whose <p2,p3> is +-1 + t up to the rounding of a2, at
        # u_max = _UNIT_SAFE_U: every attempt the spatiolateral bound drops
        # codes above 3 in the loop's own arithmetic, the three-call form
        # stays within a quarter of the margin, and the loop yields what the
        # loop without the bound yields.
        eps = np.finfo(float).eps
        assert oracle._FIRST_EDGE_MARGIN == 64.0 * eps
        u_max, margin = _UNIT_SAFE_U, oracle._FIRST_EDGE_MARGIN
        lo, span, turn = -u_max, u_max - -u_max, 2.0 * math.pi
        rng = np.random.default_rng(5)
        rows, dropped, worst = [], collections.Counter(), 0.0
        for t in (0.0, 1e-12, -1e-12, NULL_EPS, -NULL_EPS, 2 * NULL_EPS, -2 * NULL_EPS,
                  1e-7, -1e-7):
            for side in (1.0, -1.0):
                for w0, w1, w2, w3, w4, flip in rng.random((400, 6)).tolist():
                    u1, u2, a1 = lo + span * w1, lo + span * w2, turn * w4
                    cos_d = (side + t + math.sinh(u1) * math.sinh(u2)) \
                        / (math.cosh(u1) * math.cosh(u2))
                    if abs(cos_d) > 1.0:
                        continue
                    w5 = (a1 + math.copysign(math.acos(cos_d), flip - 0.5)) % turn / turn
                    rows.append((w0, w1, w2, w3, w4, w5))
                    a2 = turn * w5
                    c1, c2 = math.cosh(u1), math.cosh(u2)
                    e0 = -(math.sinh(u1) * math.sinh(u2)) + c1 * math.cos(a1) * (
                        c2 * math.cos(a2)) + c1 * math.sin(a1) * (c2 * math.sin(a2))
                    cm, cp, cd = math.cosh(u1 - u2), math.cosh(u1 + u2), math.cos(a1 - a2)
                    e = ((1.0 + cd) * cm - (1.0 - cd) * cp) * 0.5
                    worst = max(worst, abs(e - e0) / (eps * (cm + cp)))
                    if abs(e) > 1.0 + margin * (cm + cp):
                        # classify_segment's bands: 1 space-like, above it 4, 16 or 64.
                        assert abs(e0 - 1.0) <= NULL_EPS or e0 > 1.0 or e0 <= -1.0 + NULL_EPS
                        dropped[t, side] += 1
        assert worst <= margin / eps / 4
        assert dropped[1e-7, 1.0] and dropped[-1e-7, -1.0]

        class Rows:
            def __init__(self):
                self.left = rows

            def random(self, shape):
                block, self.left = self.left[:shape[0]], self.left[shape[0]:]
                return np.array(block)

        rule = _TARGET_RULES[ProperName.SPATIOLATERAL]
        got = list(_kept_attempts(Rows(), u_max, len(rows), rule))
        want = list(_ref_kept_attempts(Rows(), u_max, len(rows), rule))
        assert np.array(got).tobytes() == np.array(want).tobytes()


class TestFirstEdgePrepass:
    """The numpy pass of the spatiolateral first-edge bound over the later
    sampler blocks (oracle._first_edge_pass): it drops only rows that the
    scalar form of the bound written out in test_prepass_is_conservative
    drops, and the attempts do not depend on the blocks."""

    @staticmethod
    def _near_unit_rows(rng, u_max, count):
        # Rows whose <p2,p3> is +-1 + t up to the rounding of a2.
        lo, span, turn = -u_max, u_max - -u_max, 2.0 * math.pi
        rows = []
        for t in (0.0, 1e-12, -1e-12, NULL_EPS, -NULL_EPS, 1e-7, -1e-7):
            for side in (1.0, -1.0):
                for w0, w1, w2, w3, w4, flip in rng.random((count, 6)).tolist():
                    u1, u2, a1 = lo + span * w1, lo + span * w2, turn * w4
                    cos_d = (side + t + math.sinh(u1) * math.sinh(u2)) \
                        / (math.cosh(u1) * math.cosh(u2))
                    if abs(cos_d) <= 1.0:
                        w5 = (a1 + math.copysign(math.acos(cos_d), flip - 0.5)) % turn / turn
                        rows.append((w0, w1, w2, w3, w4, w5))
        return np.array(rows)

    def test_prepass_is_conservative(self):
        # Every row the pass drops codes its e0, in the loop's arithmetic,
        # above 3 and is dropped by the loop's bound too; numpy's three-call
        # form stays within a quarter of the pass's margin of that e0.
        eps = np.finfo(float).eps
        margin = oracle._PREPASS_MARGIN
        assert margin == 2.0 * oracle._FIRST_EDGE_MARGIN
        rng = np.random.default_rng(19)
        blocks = [(u_max, rng.random((20000, 6))) for u_max in (0.5, 2.0, 6.0, _UNIT_SAFE_U)]
        blocks += [(u_max, self._near_unit_rows(rng, u_max, 300)) for u_max in (6.0, _UNIT_SAFE_U)]
        worst, dropped, near_drops = 0.0, 0, 0
        for i, (u_max, w) in enumerate(blocks):
            lo, span, turn = -u_max, u_max - -u_max, 2.0 * math.pi
            u1, u2, a1, a2 = lo + span * w[:, 1], lo + span * w[:, 2], turn * w[:, 4], turn * w[:, 5]
            keep = oracle._first_edge_pass(u1, u2, a1, a2)
            cm, cp, cd = np.cosh(u1 - u2), np.cosh(u1 + u2), np.cos(a1 - a2)
            form = ((1.0 + cd) * cm - (1.0 - cd) * cp) * 0.5
            for x1, x2, b1, b2, e, kept in zip(u1.tolist(), u2.tolist(), a1.tolist(),
                                                a2.tolist(), form.tolist(), keep.tolist()):
                c1, c2 = math.cosh(x1), math.cosh(x2)
                e0 = -(math.sinh(x1) * math.sinh(x2)) + c1 * math.cos(b1) * (
                    c2 * math.cos(b2)) + c1 * math.sin(b1) * (c2 * math.sin(b2))
                m, p, d = math.cosh(x1 - x2), math.cosh(x1 + x2), math.cos(b1 - b2)
                worst = max(worst, abs(e - e0) / (eps * (m + p)))
                if not kept:
                    # classify_segment's bands: 1 space-like, above it 4, 16 or 64.
                    assert abs(e0 - 1.0) <= NULL_EPS or e0 > 1.0 or e0 <= -1.0 + NULL_EPS
                    assert abs((1.0 + d) * m - (1.0 - d) * p) * 0.5 \
                        > 1.0 + oracle._FIRST_EDGE_MARGIN * (m + p)
                    dropped += 1
                    near_drops += i >= 4
        assert worst <= margin / eps / 4
        assert dropped > 20000 and near_drops

    @pytest.mark.parametrize("schedule", ("one-row", "one-block", "one-prepass-block"))
    def test_attempts_do_not_depend_on_blocks(self, monkeypatch, schedule):
        budget = 3000
        sizes = {"one-row": (1, 1, 1), "one-block": (budget, 1, 1),
                 "one-prepass-block": (1, 1, budget - 2)}[schedule]
        rules = [*(_TARGET_RULES[t] for t in (*TARGETS, None)), _KEEP_ALL]
        cases = list(itertools.product(rules, (2.0, 6.0, 8.0), range(3)))
        want = [list(_kept_attempts(np.random.default_rng(seed), u_max, budget, rule))
                for rule, u_max, seed in cases]
        for name, size in zip(("_FIRST_BLOCK", "_BLOCK", "_BOUND_BLOCK"), sizes):
            monkeypatch.setattr(oracle, name, size)
        for (rule, u_max, seed), expected in zip(cases, want):
            got = list(_kept_attempts(np.random.default_rng(seed), u_max, budget, rule))
            assert np.array(got).tobytes() == np.array(expected).tobytes(), (rule, u_max, seed)
            assert len(got) == len(expected)

    def test_block_edges_match_reference(self):
        # Budgets on either side of the ends of the 16-, 64- and first two
        # 256-row blocks, where the pass starts and restarts.
        first, block, late = oracle._FIRST_BLOCK, oracle._BLOCK, oracle._BOUND_BLOCK
        edges = [first + block + j * late for j in range(3)]
        assert edges == [80, 336, 592]
        rule = _TARGET_RULES[ProperName.SPATIOLATERAL]
        for seed, edge in itertools.product(range(16), edges):
            for budget in (edge, edge + 1):
                got = list(_kept_attempts(np.random.default_rng(seed), 6.0, budget, rule))
                want = list(_ref_kept_attempts(np.random.default_rng(seed), 6.0, budget, rule))
                assert np.array(got).tobytes() == np.array(want).tobytes(), (seed, budget)
                assert len(got) == len(want)


class TestFirstEdgePassBlocks:
    """Which rows reach oracle._first_edge_pass: every spatiolateral block
    but the first where u_max <= _UNIT_SAFE_U, and nothing elsewhere."""

    @pytest.mark.parametrize("u_max", (0.5, 2.0, 6.0, _UNIT_SAFE_U))
    def test_every_block_but_the_first(self, monkeypatch, u_max):
        # The 64-row block, then 256-row blocks with a short last one: every
        # row past the first 16 of the seed stream, in order.
        first, block, late, budget = oracle._FIRST_BLOCK, oracle._BLOCK, oracle._BOUND_BLOCK, 3000
        rest = budget - first - block
        want = [block] + [late] * (rest // late) + [rest % late] * bool(rest % late)
        if u_max == 6.0:
            assert want == [64] + [256] * 11 + [104]
        lo, span = -u_max, u_max - -u_max
        calls = count_calls(monkeypatch, oracle, "_first_edge_pass")
        rule = _TARGET_RULES[ProperName.SPATIOLATERAL]
        for seed in range(4):
            list(_kept_attempts(np.random.default_rng(seed), u_max, budget, rule))
            assert [len(args[0]) for args in calls] == want, seed
            w = np.random.default_rng(seed).random((budget, 6))
            passed = np.concatenate([args[0] for args in calls])
            assert passed.tobytes() == (lo + span * w[first:, 1]).tobytes(), seed
            calls.clear()

    def test_no_pass_elsewhere(self, monkeypatch):
        calls = count_calls(monkeypatch, oracle, "_first_edge_pass")
        others = [*(_TARGET_RULES[t] for t in TARGETS[1:]), _TARGET_RULES[None], _KEEP_ALL]
        cases = [*itertools.product(others, (0.5, 2.0, 6.0, _UNIT_SAFE_U, 8.0)),
                 *((_TARGET_RULES[ProperName.SPATIOLATERAL], u_max)
                   for u_max in (_UNIT_SAFE_U + 1e-9, 7.0, 8.0))]
        for (rule, u_max), seed in itertools.product(cases, range(4)):
            list(_kept_attempts(np.random.default_rng(seed), u_max, 3000, rule))
            assert not calls, (rule, u_max, seed)


class TestReachableCodes:
    """Each sampler rule holds the codes that some order of its target's
    edges reaches after one, two and three edges, so an attempt stops at the
    first edge whose kind rules the target out."""

    def test_rules_hold_partial_codes(self):
        assert {t: sorted(_TARGET_RULES[t][0]) for t in (*TARGETS, None)} == {
            ProperName.SPATIOLATERAL: [1, 2, 3],
            ProperName.TEMPOLATERAL: [4, 8, 12],
            ProperName.CHOROSCELES: [1, 2, 4, 5, 6],
            ProperName.CHRONOSCELES: [1, 4, 5, 8, 9],
            None: [1, 2, 3, 4, 5, 6, 8, 9, 12],
        }

    @pytest.mark.parametrize("target", (ProperName.TEMPOLATERAL, ProperName.CHRONOSCELES),
                             ids=lambda t: t.value)
    def test_stops_before_top_code_rule(self, monkeypatch, target):
        # The rule that stopped only past the target's largest code: every
        # code of fewer than three edges up to it, and the target's own code.
        codes, top, contractible = _TARGET_RULES[target]
        top_only = (frozenset(c for c in range(top + 1) if c % 4 + c // 4 % 4 < 3) | codes,
                    top, contractible)
        calls = count_calls(monkeypatch, oracle, "_edge_code")
        for seed in range(8):
            got = list(_kept_attempts(np.random.default_rng(seed), 2.0, 400, (codes, top, contractible)))
            ours = len(calls)
            want = list(_kept_attempts(np.random.default_rng(seed), 2.0, 400, top_only))
            assert np.array(got).tobytes() == np.array(want).tobytes(), seed
            assert ours < len(calls) - ours, seed
            calls.clear()


class TestOutcomeDigest:
    """Every random_triangle outcome over a fixed grid, hashed: a change to the
    seed stream, the acceptance rule or the budget moves the digest."""

    def test_outcomes_unchanged(self):
        digest, tally = hashlib.sha256(), collections.Counter()
        for target in (*TARGETS, None):
            for u_max in (0.5, 2.0, 6.0, 7.0, 8.0, 12.0):
                for seed in range(60):
                    try:
                        tri = random_triangle(GeneratorConfig(seed, target, u_max, 3000))
                    except GeometryError as exc:
                        what = type(exc).__name__
                        digest.update(what.encode() + b"\n")
                    else:
                        what = "ok"
                        digest.update(struct.pack("<9d", *(x for p in tri.points for x in p._x)))
                    tally[what] += 1
        # NotUnitError: a kept draw has a point off the quadric (294 at u_max 12, 80 at 8).
        assert tally == {"ok": 1426, "NotUnitError": 374}
        assert digest.hexdigest() \
            == "dc515c5ae995e085ee9a387cd131a52619de8c313fb1386f67d0d6c367b2ebef"


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
        draws = list(_kept_attempts(np.random.default_rng(11), 6.0, 4000, _KEEP_ALL))
        kept = _kept_mask(draws, np.random.default_rng(11), 6.0, None)
        built = np.array([_outcome(build_triangle, *map(DeSitterPoint, raw))[0] == "ok"
                          for raw in draws])
        assert built.any()
        assert not np.any(built & ~kept)
        assert kept.mean() < 0.5


class TestStructureClamp:
    """_structure_ok on tempolateral with one apex product one ulp inside +-1."""

    @pytest.mark.parametrize("j", range(3))
    def test_product_one_ulp_inside_fails_finitely(self, monkeypatch, tempolateral_points, j):
        g = [1.5, -1.5, -1.5]
        g[j] = math.copysign(1.0 - 2.0 ** -53, g[j])
        monkeypatch.setattr(oracle, "_apex_products", lambda tri: tuple(g))
        ok, detail = _structure_ok(build_triangle(*tempolateral_points),
                                   ProperName.TEMPOLATERAL)
        assert ok is False
        apex, legs = re.fullmatch(r"angle at apex (\S+) vs (\S+)", detail).groups()
        assert math.isfinite(float(apex)) and math.isfinite(float(legs))


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

    def test_spatiolateral_passes(self):
        # The only verify run on three space-like edges, so the only one
        # that reaches _structure_ok's product-pattern branch.
        rep = verify_type(ProperName.SPATIOLATERAL, trials=3, seed=9)
        assert all(v == 3 for v in rep["counts"].values()), rep["failures"]

    def test_deterministic(self):
        a = verify_type(ProperName.CHOROSCELES, trials=2, seed=3)
        b = verify_type(ProperName.CHOROSCELES, trials=2, seed=3)
        assert a == b

    def test_corrupt_normals_detected(self, corrupt_normals):
        rep = verify_type(ProperName.CHRONOSCELES, trials=2, seed=3)
        assert rep["passed"] is False
        assert rep["counts"]["tangent_normal_identity"] == 0
        assert any(f["check"] == "tangent_normal_identity" for f in rep["failures"])

    def test_closed_form_failure_names_its_seed(self, corrupt_tangent):
        # girard_area raises on two of the three trials; each raise is that
        # trial's shape failure, its later checks are skipped, and the run goes on.
        rep = verify_type(ProperName.CHOROSCELES, trials=3, seed=3)
        assert rep["passed"] is False
        trial_seeds = [int(s) for s in np.random.SeedSequence(3).generate_state(3)]
        for f in rep["failures"]:
            assert f["seed"] == trial_seeds[f["trial"]]
        raised = {f["trial"] for f in rep["failures"]
                  if f["detail"].startswith("closed form failed: angle sum ")}
        assert raised == {0, 1}
        assert all(f["check"] == "complex_area_shape" for f in rep["failures"]
                   if f["detail"].startswith("closed form failed: "))
        for i in raised:
            assert {f["check"] for f in rep["failures"] if f["trial"] == i} \
                == {"tangent_normal_identity", "complex_area_shape"}
        assert rep["counts"]["complex_area_shape"] == 1
        assert rep["counts"]["product_formula_agreement"] == 1
        assert rep["counts"]["type_structure"] == 1

    def test_own_shape_bound_detects_shifted_angle_sum(self, monkeypatch):
        # A closed form that returns, rather than raises, with its angle sum
        # 1e-6 off the real axis fails verify's own 1e-8 shape bound, and
        # nothing else: the real area the other checks read is unchanged.
        closed_form = oracle.girard_area

        def shifted(tri):
            res = closed_form(tri)
            return dataclasses.replace(res, complex_area=res.complex_area + 1e-6)

        monkeypatch.setattr(oracle, "girard_area", shifted)
        rep = verify_type(ProperName.CHRONOSCELES, trials=3, seed=3)
        assert [(f["trial"], f["check"]) for f in rep["failures"]] \
            == [(i, "complex_area_shape") for i in range(3)]
        assert all(f["detail"].startswith("angle sum ") for f in rep["failures"])
        assert rep["counts"] == {"oracle_agreement": 3, "tangent_normal_identity": 3,
                                 "complex_area_shape": 0, "product_formula_agreement": 3,
                                 "type_structure": 3}

    def test_nan_normals_fail_every_trial(self, nan_normals):
        rep = verify_type(ProperName.CHOROSCELES, trials=5, seed=0)
        assert rep["passed"] is False
        assert rep["counts"]["tangent_normal_identity"] == 0
        assert [(f["trial"], f["check"], f["detail"]) for f in rep["failures"]] \
            == [(i, "tangent_normal_identity", "residual nan") for i in range(5)]

    def test_null_target_rejected(self):
        with pytest.raises(ValueError, match="unsupported verification target"):
            verify_type(ProperName.LUCILATERAL, trials=1, seed=0)

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

    def test_oracle_entry_last_in_its_trial(self, corrupt_normals, monkeypatch):
        # The oracle takes every trial's triangle in one call after the last
        # trial, yet each trial's oracle entry follows that trial's others.
        monkeypatch.setattr(oracle, "_MAX_PANELS", 1)
        calls = count_calls(monkeypatch, oracle, "_integrate_many")
        rep = verify_type(ProperName.CHRONOSCELES, trials=3, seed=3)
        assert [(f["trial"], f["check"]) for f in rep["failures"]] == [
            (i, check) for i in range(3)
            for check in ("tangent_normal_identity", "oracle_agreement")]
        assert [len(args[0]) for args in calls] == [3]

    def test_oracle_takes_groups_of_eight(self, corrupt_normals, monkeypatch):
        # 20 trials make oracle calls of 8, 8 and 4 triangles, so a long run
        # holds one group's triangles at a time.  The report (hashed) is the
        # same as from one call on all 20, failure order included: every
        # trial fails the normals check, and trial 9, which refines, the cap.
        monkeypatch.setattr(oracle, "_MAX_PANELS", 48)
        calls = count_calls(monkeypatch, oracle, "_integrate_many")
        rep = verify_type(ProperName.CHRONOSCELES, trials=20, seed=1)
        assert [len(args[0]) for args in calls] == [8, 8, 4]
        assert [(f["trial"], f["check"]) for f in rep["failures"]
                if f["check"] != "tangent_normal_identity"] == [(9, "oracle_agreement")]
        assert hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest() \
            == "ac05ea35f7ccf95559ac841c130e76b01130a4b0ee3f4ce658a35ad4a50b6f6e"
        monkeypatch.setattr(oracle, "_ORACLE_GROUP", 20)
        assert verify_type(ProperName.CHRONOSCELES, trials=20, seed=1) == rep
        assert [len(args[0]) for args in calls[3:]] == [20]

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            verify_type(ProperName.CHOROSCELES, trials=0, seed=1)

    @pytest.mark.parametrize("kwargs, error, msg", [
        ({"trials": 2.5}, TypeError, "trials must be an int, got 2.5"),
        ({"trials": True}, TypeError, "trials must be an int, got True"),
        ({"seed": 1.5}, TypeError, "seed must be an int, got 1.5"),
        ({"seed": -1}, ValueError, "seed must be >= 0, got -1"),
        ({"grid": 64.0}, TypeError, "grid must be an int, got 64.0"),
        ({"grid": True}, TypeError, "grid must be an int, got True"),
        ({"grid": 7}, ValueError, "grid must be at least 8, got 7"),
        ({"grid": 5464}, ValueError, "grid must be at most 5463, got 5464"),
    ])
    def test_arguments_checked_before_first_trial(self, monkeypatch, kwargs, error, msg):
        calls = count_calls(monkeypatch, oracle, "random_triangle")
        args = {"trials": 2, "seed": 3, "grid": 64, **kwargs}
        with pytest.raises(error, match=f"^{re.escape(msg)}$"):
            verify_type(ProperName.CHOROSCELES, **args)
        assert calls == []
