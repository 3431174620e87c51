"""Numerical area oracle and seeded triangle generators.

The oracle integrates by Stokes' theorem.  In the chart
(sinh u, cosh u cos psi, cosh u sin psi) the metric is
-du^2 + cosh^2 u dpsi^2, so the area form cosh u du^dpsi is d(x0 dpsi),
and a triangle that bounds a disk has area |oint x0 dpsi|, with
dpsi = (x1 dx2 - x2 dx1) / (x1^2 + x2^2) and x1^2 + x2^2 = 1 + x0^2 >= 1.
The loop follows the three edges, each interpolated from its two
vertices alone (an ellipse or a hyperbola, chosen by <p,q>), so the
integral uses no angle, tangent or normal of the closed forms it checks.

On the edge x(s) = A(s) p + B(s) q the cross term x1 x2' - x2 x1' is
(A B' - B A') (p1 q2 - p2 q1), and the Wronskian A B' - B A' is the
constant d / sin d (ellipse) or d / sinh d (hyperbola).  The integrand
is therefore k x0 / (x1^2 + x2^2) with one constant k per edge, and its
only cancellation is in x0 = A p0 + B q0.

Each edge starts as n // 8 panels of the 20-node Gauss-Legendre rule.
A panel is accepted when the sum of its two halves matches it within
max(1e-12 * S * width, 64 * eps * R): S is the sum of |value| over the
starting panels of all three edges, width is the panel's share of its
edge, and R is the halves' integral of the round-off scale
|k| (|A p0| + |B q0|) / (x1^2 + x2^2).  A rejected panel's halves are
tested in turn at the next bisection level; all pending panels of a
level are evaluated together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .areas import _apex_products, girard_area, girard_area_from_products
from .errors import ExhaustedAttemptsError, GeometryError, NonConvergentError
from .geodesics import DeSitterPoint
from .minkowski import NULL_EPS, UNIT_EPS
from .triangles import (
    DeSitterTriangle,
    ProperName,
    _AREA_TYPES,
    _NAME_TABLE,
    _assemble,
    _check_not_collinear,
    _disk_name,
    classify_triangle,
    tangent_normal_residual,
)

# The 20-node Gauss-Legendre rule on [0, 1]: leggauss(20) mapped by
# (x + 1) / 2 and w / 2, written out so that importing the module does
# not load numpy.polynomial.
_GL_NODES = np.array([
    0.003435700407452502, 0.018014036361043095, 0.04388278587433703, 0.08044151408889061,
    0.1268340467699246, 0.1819731596367425, 0.24456649902458644, 0.3131469556422902,
    0.38610707442917747, 0.46173673943325133, 0.5382632605667487, 0.6138929255708225,
    0.6868530443577098, 0.7554335009754136, 0.8180268403632576, 0.8731659532300754,
    0.9195584859111094, 0.956117214125663, 0.981985963638957, 0.9965642995925474,
])
_GL_WEIGHTS = np.array([
    0.008807003569575447, 0.020300714900193223, 0.031336024167054395, 0.04163837078835236,
    0.05096505990862035, 0.0590972659807593, 0.06584431922458844, 0.0710480546591912,
    0.07458649323630212, 0.07637669356536314, 0.07637669356536314, 0.07458649323630212,
    0.0710480546591912, 0.06584431922458844, 0.0590972659807593, 0.05096505990862035,
    0.04163837078835236, 0.031336024167054395, 0.020300714900193223, 0.008807003569575447,
])
# Most panels one integration may hold.  The stop rule is relative, so
# only round-off that keeps a panel's halves and whole apart reaches it.
_MAX_PANELS = 4096
# The largest n whose starting panels' halves, 6 * (n // 8), fit under
# _MAX_PANELS; every larger n would raise NonConvergentError at once.
_MAX_GRID = 5463
_EPS = float(np.finfo(float).eps)

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


def _loop_edges(pts: np.ndarray):
    """Per-edge constants of the loop pts[0] -> pts[1] -> pts[2] -> pts[0].

    Edge j runs from p[j] to q[j] as x(s) = S((1-s)d) p/S(d) + S(sd) q/S(d),
    S = sin on an ellipse (<p,q> < 1) and sinh on a hyperbola, d the edge
    length.  k is the edge's x1 x2' - x2 x1' = (d/S(d)) (p1 q2 - p2 q1),
    the same at every s.
    """
    p, q = pts, np.roll(pts, -1, axis=0)
    c = _rows_inner(p, q)
    ell = c < 1.0
    d = np.where(ell, np.arccos(np.clip(c, -1.0, 1.0)), np.arccosh(np.maximum(c, 1.0)))
    sd = np.where(ell, np.sin(d), np.sinh(d))
    k = (p[:, 1] * q[:, 2] - p[:, 2] * q[:, 1]) * d / sd
    return p, q, ell, d, sd, k


def _panels(edges, e: np.ndarray, a: np.ndarray, w: np.ndarray):
    """Gauss-Legendre integrals over the panels [a, a + w] of edges e.

    Returns the integrals of k x0 / (x1^2 + x2^2) and of its round-off
    scale |k| (|A p0| + |B q0|) / (x1^2 + x2^2), one per panel.
    """
    p, q, ell, d, sd, k = edges
    s = a[:, None] + w[:, None] * _GL_NODES
    args = np.stack([(1.0 - s) * d[e, None], s * d[e, None]])
    ab = np.where(ell[e, None], np.sin(args), np.sinh(args)) / sd[e, None]
    pe, qe = p[e].T[:, :, None], q[e].T[:, :, None]
    x0a, x0b = ab[0] * pe[0], ab[1] * qe[0]
    rho2 = (ab[0] * pe[1] + ab[1] * qe[1]) ** 2 + (ab[0] * pe[2] + ab[1] * qe[2]) ** 2
    ke = k[e, None]
    f = ke * (x0a + x0b) / rho2
    r = np.abs(ke) * (np.abs(x0a) + np.abs(x0b)) / rho2
    return w * (f @ _GL_WEIGHTS), w * (r @ _GL_WEIGHTS)


def integrate_area(tri: DeSitterTriangle, n: int = 64) -> OracleResult:
    """Area as the boundary integral |oint x0 dpsi|, by adaptive quadrature.

    Reads only tri.points and the edge kinds derived from them.  The loop
    runs p1 -> p2 -> p3 -> p1.  A non-contractible triangle, which bounds
    no disk, raises NonContractibleError; vertices on one geodesic raise
    DegenerateTriangleError.  Each edge starts as n // 8 panels of the
    20-node Gauss-Legendre rule, and a panel is split in two until its
    halves match it (module docstring); n outside [8, 5463] raises
    ValueError.  grid is (n, n); refinements is the deepest bisection
    level (1: every starting panel matched its halves); est_error is the
    sum of the accepted panels' |halves - whole|, floored at the sum of
    their round-off floors 64 * eps * R (> 0 for non-collinear vertices).
    More than _MAX_PANELS panels raises NonConvergentError.

    est_error counts quadrature error and the round-off of evaluating
    the integrand.  It does not count the conditioning of the float
    vertices (the edge constants <p,q> and d they give), so it is no
    bound where that dominates: on the benchmark pool's chronosceles
    u_max 6 seed 59 it reports 1.4e-13 while the 40-digit referee is
    4.8e-13 away.
    """
    if n < 8:
        raise ValueError(f"grid must be at least 8, got {n!r}")
    if n > _MAX_GRID:
        raise ValueError(f"grid must be at most {_MAX_GRID}, got {n!r}")
    _disk_name(tri)
    _check_not_collinear(tri.points)

    edges = _loop_edges(np.stack([p.v for p in tri.points]))
    m = n // 8
    e = np.repeat(np.arange(3), m)
    a = np.tile(np.arange(m) / m, 3)
    w = np.full(3 * m, 1.0 / m)
    whole = _panels(edges, e, a, w)[0]
    scale = float(np.sum(np.abs(whole)))
    kept, est, floor, level = [], 0.0, 0.0, 0
    while e.size:
        level += 1
        if sum(map(len, kept)) + 2 * e.size > _MAX_PANELS:
            raise NonConvergentError(
                f"more than {_MAX_PANELS} panels at bisection level {level}")
        h = w / 2.0
        vals, scales = _panels(edges, np.tile(e, 2), np.concatenate([a, a + h]),
                               np.tile(h, 2))
        halves = vals.reshape(2, -1)
        gap = np.abs(halves.sum(axis=0) - whole)
        roundoff = 64.0 * _EPS * scales.reshape(2, -1).sum(axis=0)
        ok = gap <= np.maximum(1e-12 * scale * w, roundoff)
        kept.append(halves[:, ok].ravel())
        est += float(np.sum(gap[ok]))
        floor += float(np.sum(roundoff[ok]))
        bad = ~ok
        e, a, w = np.tile(e[bad], 2), np.concatenate([a[bad], a[bad] + h[bad]]), np.tile(h[bad], 2)
        whole = halves[:, bad].ravel()
    return OracleResult(area=abs(math.fsum(np.concatenate(kept))),
                        est_error=max(est, floor), grid=(n, n), refinements=level)


def _chart_point(u: float, psi: float) -> DeSitterPoint:
    return DeSitterPoint([
        math.sinh(u),
        math.cosh(u) * math.cos(psi),
        math.cosh(u) * math.sin(psi),
    ])


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
                grid: int = _DEFAULT_CHECK_GRID) -> dict:
    """Generate triangles of one type and check every identity on each.

    Checks per triangle: closed-form area against the Stokes oracle
    (within 1e-10 * max(1, area)); the tangent/normal product identity
    (1e-8); the complex angle sum being purely imaginary, positive, and
    equal to the signed sum (1e-8); the product-form area against the
    angle-form area (1e-9); and the type-specific structure of the
    distinguished vertex.  Each failure entry names its trial's generator
    seed, which `dstrig random --type T --seed S` replays.
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

        def tally(check: str, ok: bool, detail: str) -> None:
            if ok:
                counts[check] += 1
            else:
                failures.append({"trial": i, "seed": cfg.seed, "check": check,
                                 "detail": detail})

        tri = random_triangle(cfg)

        res = girard_area(tri)
        prod = girard_area_from_products(tri)
        nabla = res.complex_area

        resid = tangent_normal_residual(tri)
        worst["tangent_normal_residual"] = max(worst["tangent_normal_residual"], resid)
        tally("tangent_normal_identity", resid <= 1e-8, f"residual {resid:.3g}")

        shape = abs(nabla.real)
        worst["complex_real_part"] = max(worst["complex_real_part"], shape)
        tally("complex_area_shape",
              shape <= 1e-8 and nabla.imag > 0 and abs(nabla.imag - res.real_area) <= 1e-8,
              f"angle sum {nabla!r} vs area {res.real_area!r}")

        gap = abs(prod - res.real_area)
        worst["product_formula_gap"] = max(worst["product_formula_gap"], gap)
        tally("product_formula_agreement", gap <= 1e-9, f"gap {gap:.3g}")

        tally("type_structure", *_structure_ok(tri, target))

        try:
            orc = integrate_area(tri, n=grid)
        except NonConvergentError as exc:
            tally("oracle_agreement", False, f"oracle failed: {exc}")
            continue
        disc = abs(res.real_area - orc.area)
        worst["oracle_discrepancy"] = max(worst["oracle_discrepancy"], disc)
        tally("oracle_agreement", disc <= 1e-10 * max(1.0, res.real_area),
              f"formula {res.real_area!r} vs oracle {orc.area!r} (est {orc.est_error:.3g})")
    return {
        "target": target.value,
        "trials": trials,
        "seed": seed,
        "grid": grid,
        "counts": counts,
        "worst": worst,
        "failures": failures,
        "passed": all(v == trials for v in counts.values()),
    }
