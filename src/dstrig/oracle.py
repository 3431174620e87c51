"""Numerical area oracle and seeded triangle generators.

The oracle integrates the induced area element over a geodesic fan: the
triangle is swept by geodesics from the distinguished vertex (the apex)
to points of the opposite edge.  The integrand sqrt|det G| uses the
Minkowski first fundamental form G of the parameterization, with the
partial derivatives taken by central differences.  A composite midpoint
rule never samples the patch boundary, so null directions inside the
fan (where det G passes through zero) only cost convergence order, not
validity.  Richardson's rule on consecutive grid doublings supplies the
error estimate; the estimate must shrink between the final two
doublings or the refinement loop keeps going.

integrate_area(tri, n) evaluates the rule at the levels n/2, n and 2n,
which is 32^2 + 64^2 + 128^2 = 21504 cells at n = 64.  The fan is
separable: the edge point, its inner product with the apex, its band
and its angle depend only on the edge parameter s, so each is computed
once per s value of the stencil (s and s +- h); only the interpolation
weights along each cevian are evaluated per cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .areas import _apex_products, girard_area, girard_area_from_products
from .errors import (
    DegenerateFanError,
    ExhaustedAttemptsError,
    GeometryError,
    NonConvergentError,
)
from .geodesics import DeSitterPoint, SegmentKind
from .minkowski import NULL_EPS, UNIT_EPS
from .triangles import (
    DeSitterTriangle,
    ProperName,
    _AREA_TYPES,
    _NAME_TABLE,
    _assemble,
    classify_triangle,
    distinguished_vertex,
    tangent_normal_residual,
    triangle_name,
)

# Cevian inner products this close to 1 use the straight-line (null)
# interpolation limit; the formulas are continuous across the switch.
_CHORD_BAND = 1e-9
# Below est_error values of this size the Richardson estimate is noise;
# accept without demanding further monotone decrease.
_EST_FLOOR = 1e-10

_DEFAULT_CHECK_GRID = 64


@dataclass(frozen=True, eq=False)
class OracleResult:
    area: float
    est_error: float
    grid: tuple[int, int]
    refinements: int


# math.sinh and math.cosh overflow just above this rapidity.
_MATH_RAPIDITY_LIMIT = 710.0


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    target: ProperName | None  # None: any of the four null-free types
    u_max: float = 2.0
    max_attempts: int = 20000

    def __post_init__(self):
        # Negated comparisons: nan fails the first test and inf the second.
        if not self.u_max > 0:
            raise ValueError(f"u_max must be positive, got {self.u_max!r}")
        if not self.u_max <= _MATH_RAPIDITY_LIMIT:
            raise ValueError(
                f"u_max must be at most {_MATH_RAPIDITY_LIMIT}, got {self.u_max!r}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts!r}")


def _rows_inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # mink_inner over the last axis, in mink_inner's operation order.
    return -(a[..., 0] * b[..., 0]) + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def _edge_rows(seg, s: np.ndarray) -> np.ndarray:
    # Points of a fixed ellipse/hyperbola edge at parameters s, shape (k, 3).
    a, b, d = seg.a.v, seg.b.v, seg.separation
    if seg.kind is SegmentKind.ELLIPSE_PART:
        wa = np.sin((1.0 - s) * d) / math.sin(d)
        wb = np.sin(s * d) / math.sin(d)
    else:
        wa = np.sinh((1.0 - s) * d) / math.sinh(d)
        wb = np.sinh(s * d) / math.sinh(d)
    return wa[:, None] * a[None, :] + wb[:, None] * b[None, :]


def _cevian_rows(apex: np.ndarray, q: np.ndarray, *ts: np.ndarray) -> list[np.ndarray]:
    """Points of the geodesics from the apex to the k rows of q.

    Returns one (k, n, 3) array per parameter vector t (shape (n,)) in ts:
    entry [i, j] is the geodesic to q[i] at parameter t[j].  A row switches
    between circular and hyperbolic interpolation depending on its
    inner product with the apex; the near-null band degenerates to the
    straight chord, the common limit of both.  The inner product, the
    band and the angle depend on the row alone and are computed once per
    row; only the interpolation weights are evaluated per (row, t).
    """
    c = _rows_inner(apex, q)
    if np.any(c <= -1.0 + _CHORD_BAND):
        raise DegenerateFanError(
            "a fan geodesic would need to cross to an antipodal branch")
    ell = c < 1.0 - _CHORD_BAND
    hyp = c > 1.0 + _CHORD_BAND
    mid = ~(ell | hyp)
    th = np.arccos(np.clip(c[ell], -1.0, 1.0))[:, None]
    sn = np.sin(th)
    dh = np.arccosh(c[hyp])[:, None]
    sh = np.sinh(dh)
    rows = []
    for t in ts:
        wa = np.empty((c.size, t.size))
        wb = np.empty((c.size, t.size))
        if th.size:
            wa[ell] = np.sin((1.0 - t) * th) / sn
            wb[ell] = np.sin(t * th) / sn
        if dh.size:
            wa[hyp] = np.sinh((1.0 - t) * dh) / sh
            wb[hyp] = np.sinh(t * dh) / sh
        if np.any(mid):
            wa[mid] = 1.0 - t
            wb[mid] = t
        # Built one coordinate at a time, so each [..., i] slice is contiguous.
        pts = np.empty((3, c.size, t.size))
        for i in range(3):
            pts[i] = wa * apex[i] + wb * q[:, i, None]
        rows.append(np.moveaxis(pts, 0, -1))
    return rows


def _fan_area(tri: DeSitterTriangle, apex_index: int, m: int) -> float:
    # Midpoint rule on an m x m grid over (s, t): s runs along the edge
    # opposite the apex, t along the cevian from the apex to the edge
    # point at s.  Edge points and their cevians are evaluated once per s
    # value (s, s + h, s - h), then broadcast against t into (m, m, 3)
    # grids whose cell [i, j] is (s_i, t_j).
    seg = tri.edges[apex_index]
    apex = tri.points[apex_index].v
    mids = (np.arange(m) + 0.5) / m
    h = 1.0 / (4.0 * m)
    xs = (_cevian_rows(apex, _edge_rows(seg, mids + h), mids)[0]
          - _cevian_rows(apex, _edge_rows(seg, mids - h), mids)[0])
    xs /= 2.0 * h
    xt = np.subtract(*_cevian_rows(apex, _edge_rows(seg, mids), mids + h, mids - h))
    xt /= 2.0 * h
    gss = _rows_inner(xs, xs)
    gst = _rows_inner(xs, xt)
    gtt = _rows_inner(xt, xt)
    det = gss * gtt - gst * gst
    # One pairwise sum over the m*m cells in (s, t) row-major order.
    return float(np.sum(np.sqrt(np.abs(det)).ravel())) / (m * m)


def integrate_area(tri: DeSitterTriangle, n: int = 64, apex: int | None = None,
                   max_refinements: int = 3) -> OracleResult:
    """Numerically integrate the triangle's area over a geodesic fan.

    Runs the midpoint rule at resolutions n/2, n and 2n; the reported
    area is the finest level and est_error = |A_2m - A_m| / 3 is the
    Richardson estimate at the final doubling.  If the estimate failed
    to shrink at that doubling, up to max_refinements further doublings
    are attempted before giving up.
    """
    if n < 8:
        raise ValueError(f"grid must be at least 8, got {n!r}")
    apex_index = distinguished_vertex(tri) if apex is None else apex
    if not 0 <= apex_index <= 2:
        raise ValueError(f"apex index out of range: {apex_index!r}")
    det = float(np.linalg.det(np.stack([p.v for p in tri.points])))
    if abs(det) < 1e-9:
        raise DegenerateFanError("apex too close to the opposite edge's plane")

    levels = [n // 2, n, 2 * n]
    areas = [_fan_area(tri, apex_index, m) for m in levels]
    ests = [abs(areas[i + 1] - areas[i]) / 3.0 for i in range(len(areas) - 1)]
    extra = 0
    while ests[-1] >= ests[-2] and ests[-1] > _EST_FLOOR:
        if extra >= max_refinements:
            raise NonConvergentError(
                f"error estimate stopped shrinking: {ests!r}")
        levels.append(2 * levels[-1])
        areas.append(_fan_area(tri, apex_index, levels[-1]))
        ests.append(abs(areas[-1] - areas[-2]) / 3.0)
        extra += 1
    return OracleResult(area=areas[-1], est_error=ests[-1],
                        grid=(levels[-1], levels[-1]),
                        refinements=len(levels) - 1)


def _chart_point(u: float, psi: float) -> DeSitterPoint:
    return DeSitterPoint(np.array([
        math.sinh(u),
        math.cosh(u) * math.cos(psi),
        math.cosh(u) * math.sin(psi),
    ]))


# Sampler attempts are drawn and prefiltered this many at a time.
_BLOCK = 64
# Margin above 2*pi for an arccos edge sum to count as surely
# non-contractible; it absorbs np.arccos's last-bit differences from
# math.acos.
_CONTRACTIBLE_MARGIN = 1e-6
# Each proper name's (space-like, time-like, light-like) edge counts
# packed base 4; the sampler's prefilter sums per-edge codes 1, 4, 16.
_EDGE_CODES = {name: i + 4 * j + 16 * k for (i, j, k), name in _NAME_TABLE.items()}


def _attempt_blocks(rng: np.random.Generator, u_max: float, max_attempts: int):
    """Yield the sampler's attempts as (us, psis) blocks of shape (m, 3).

    Row i of a block is row i of rng.random((m, 6)) under numpy's own
    uniform maps, so it equals the pair rng.uniform(-u_max, u_max, 3),
    rng.uniform(0, 2*pi, 3) drawn for that attempt alone.  The blocks
    hold max_attempts rows in all.
    """
    done = 0
    while done < max_attempts:
        m = min(_BLOCK, max_attempts - done)
        r = rng.random((m, 6))
        yield -u_max + (u_max - -u_max) * r[:, :3], 2.0 * math.pi * r[:, 3:]
        done += m


# Overflow at huge rapidity only yields non-finite rows, which stay True.
@np.errstate(over="ignore", invalid="ignore")
def _maybe_accepted(us: np.ndarray, psis: np.ndarray,
                    target: ProperName | None) -> np.ndarray:
    """Mask of a block's attempts that random_triangle's test may accept.

    False only where that test surely rejects: a name other than the
    target (None: other than the four null-free types), or
    (spatiolateral) an edge-length sum clearly above 2*pi.
    Attempts whose points would raise (off the quadric, non-finite)
    stay True, so the scalar body raises as before.  Coordinates come
    from the math calls _chart_point makes and inner products keep
    mink_inner's operation order, so each band decision here is the
    scalar one.  Coincident or antipodal vertices are left to the
    scalar body: it rejects them whatever their name.
    """
    u = us.ravel().tolist()
    psi = psis.ravel().tolist()
    ch = np.array(list(map(math.cosh, u)))
    pts = np.stack([
        np.array(list(map(math.sinh, u))),
        ch * np.array(list(map(math.cos, psi))),
        ch * np.array(list(map(math.sin, psi))),
    ], axis=-1).reshape(-1, 3, 3)
    on_quadric = (np.abs(_rows_inner(pts, pts) - 1.0) <= UNIT_EPS).all(axis=1)
    # Edge j joins vertices j+1 and j+2.
    c = _rows_inner(pts[:, [1, 2, 0]], pts[:, [2, 0, 1]])
    null = np.abs(c - 1.0) <= NULL_EPS
    hyp = (c > 1.0) & ~null
    ell = (c > -1.0 + NULL_EPS) & ~hyp & ~null
    codes = [_EDGE_CODES[name] for name in (_AREA_TYPES if target is None else (target,))]
    named = ((ell + 4 * hyp + 16 * null).sum(axis=1)[:, None] == codes).any(axis=1)
    if target is ProperName.SPATIOLATERAL:
        total = np.arccos(np.clip(c, -1.0, 1.0)).sum(axis=1)
        named &= ~(total > 2.0 * math.pi + _CONTRACTIBLE_MARGIN)
    return ~on_quadric | named


def _accepts(kind, target: ProperName | None) -> bool:
    if target is None:
        return kind.proper_name in _AREA_TYPES
    return kind.proper_name is target and (
        target is not ProperName.SPATIOLATERAL or kind.contractible is True)


def random_triangle(cfg: GeneratorConfig) -> DeSitterTriangle:
    """Rejection-sample a triangle of the requested type.

    Vertices come from the chart (sinh u, cosh u cos psi, cosh u sin psi)
    with u uniform on [-u_max, u_max] and psi uniform on [0, 2*pi).  A
    draw is kept when it classifies as the target (for three space-like
    edges: contractible as well).  target None keeps the first draw of
    any of the four null-free types, contractible or not, from the same
    seed stream.  Identical seeds give identical output.

    Seed stream: attempt i is row i of rng.random((m, 6)) from
    default_rng(seed), drawn in blocks of m rows, mapped by
    u = -u_max + (u_max - -u_max) * r[:3] and psi = 2*pi * r[3:]; these
    are the values rng.uniform(-u_max, u_max, 3), rng.uniform(0, 2*pi, 3)
    give for each attempt in turn.  A vectorised prefilter only skips
    sure rejects; every other attempt, in order, goes through the
    scalar classify-and-test body, which alone accepts or raises.
    """
    if cfg.target is not None and cfg.target not in _AREA_TYPES:
        raise ValueError(f"unsupported generation target: {cfg.target!r}")
    rng = np.random.default_rng(cfg.seed)
    for us, psis in _attempt_blocks(rng, cfg.u_max, cfg.max_attempts):
        for i in np.flatnonzero(_maybe_accepted(us, psis, cfg.target)):
            pts = tuple(_chart_point(u, p) for u, p in zip(us[i], psis[i]))
            try:
                kind = classify_triangle(*pts)
            except GeometryError:
                continue
            if _accepts(kind, cfg.target):
                return _assemble(pts, kind)
    what = "buildable" if cfg.target is None else cfg.target.value
    raise ExhaustedAttemptsError(f"no {what} triangle in {cfg.max_attempts} attempts")


def random_buildable_triangle(seed: int, u_max: float = 2.0,
                              max_attempts: int = 20000) -> DeSitterTriangle:
    """Any triangle of the four null-free types: random_triangle, target None."""
    return random_triangle(GeneratorConfig(seed, None, u_max, max_attempts))


def _structure_ok(tri: DeSitterTriangle, name: ProperName) -> tuple[bool, str]:
    g1, g2, g3 = _apex_products(tri)
    if name is ProperName.SPATIOLATERAL:
        ok = g1 < -1.0 and g2 > 1.0 and g3 > 1.0
        return ok, f"product pattern {g1:.6g}, {g2:.6g}, {g3:.6g}"
    if name is ProperName.TEMPOLATERAL:
        t1 = math.acosh(max(g1, 1.0))
        t2 = math.acosh(max(-g2, 1.0))
        t3 = math.acosh(max(-g3, 1.0))
        ok = g1 > 1.0 and g2 < -1.0 and g3 < -1.0 and t1 > t2 + t3
        return ok, f"angle at apex {t1:.6g} vs {t2 + t3:.6g}"
    if name is ProperName.CHOROSCELES:
        return g1 > 1.0, f"apex product {g1:.6g}"
    return g1 < -1.0, f"apex product {g1:.6g}"


def verify_type(target: ProperName, trials: int, seed: int,
                grid: int = _DEFAULT_CHECK_GRID,
                corrupt_normals: bool = False) -> dict:
    """Generate triangles of one type and check every identity on each.

    Checks per triangle: closed-form area against the fan oracle (within
    max(1e-3, 3 * est_error)); the tangent/normal product identity (1e-8);
    the complex angle sum being purely imaginary, positive, and equal to
    the signed sum (1e-8); the product-form area against the angle-form
    area (1e-9); and the type-specific structure of the distinguished
    vertex.  corrupt_normals deliberately perturbs the normals first and
    is expected to make the identity checks fail.
    """
    if target not in _AREA_TYPES:
        raise ValueError(f"unsupported verification target: {target!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    trial_seeds = np.random.SeedSequence(seed).generate_state(trials)
    counts = {
        "oracle_agreement": 0,
        "tangent_normal_identity": 0,
        "complex_area_shape": 0,
        "product_formula_agreement": 0,
        "type_structure": 0,
    }
    worst = {
        "oracle_discrepancy": 0.0,
        "tangent_normal_residual": 0.0,
        "complex_real_part": 0.0,
        "product_formula_gap": 0.0,
    }
    failures = []
    for i in range(trials):
        cfg = GeneratorConfig(seed=int(trial_seeds[i]), target=target)
        tri = random_triangle(cfg)
        if corrupt_normals:
            tri = DeSitterTriangle(tri.points, tri.edges, tri.tangents,
                                   tri.normals + 1e-3)

        res = girard_area(tri)
        prod = girard_area_from_products(tri)
        nabla = res.complex_area

        resid = tangent_normal_residual(tri)
        worst["tangent_normal_residual"] = max(worst["tangent_normal_residual"], resid)
        if resid <= 1e-8:
            counts["tangent_normal_identity"] += 1
        else:
            failures.append({"trial": i, "check": "tangent_normal_identity",
                             "detail": f"residual {resid:.3g}"})

        shape = abs(nabla.real)
        worst["complex_real_part"] = max(worst["complex_real_part"], shape)
        if shape <= 1e-8 and nabla.imag > 0 and abs(nabla.imag - res.real_area) <= 1e-8:
            counts["complex_area_shape"] += 1
        else:
            failures.append({"trial": i, "check": "complex_area_shape",
                             "detail": f"angle sum {nabla!r} vs area {res.real_area!r}"})

        gap = abs(prod - res.real_area)
        worst["product_formula_gap"] = max(worst["product_formula_gap"], gap)
        if gap <= 1e-9:
            counts["product_formula_agreement"] += 1
        else:
            failures.append({"trial": i, "check": "product_formula_agreement",
                             "detail": f"gap {gap:.3g}"})

        ok, detail = _structure_ok(tri, target)
        if ok:
            counts["type_structure"] += 1
        else:
            failures.append({"trial": i, "check": "type_structure", "detail": detail})

        try:
            orc = integrate_area(tri, n=grid)
        except (NonConvergentError, DegenerateFanError) as exc:
            failures.append({"trial": i, "check": "oracle_agreement",
                             "detail": f"oracle failed: {exc}"})
            continue
        disc = abs(res.real_area - orc.area)
        worst["oracle_discrepancy"] = max(worst["oracle_discrepancy"], disc)
        if disc <= max(1e-3, 3.0 * orc.est_error):
            counts["oracle_agreement"] += 1
        else:
            failures.append({"trial": i, "check": "oracle_agreement",
                             "detail": f"formula {res.real_area!r} vs oracle {orc.area!r} "
                                       f"(est {orc.est_error:.3g})"})
    return {
        "target": target.value,
        "trials": trials,
        "seed": seed,
        "grid": grid,
        "corrupt_normals": corrupt_normals,
        "counts": counts,
        "worst": worst,
        "failures": failures,
        "passed": all(v == trials for v in counts.values()),
    }
