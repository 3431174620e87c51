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
tested in turn at the next bisection level.  One numpy call per level
evaluates its pending panels (at level 1 the starting ones) and both of
their halves.  A panel's sums depend on its own nodes alone, not on
which panels share its call.  The per-edge constants are computed on
Python floats.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

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
    _worse,
    classify_triangle,
    tangent_normal_residual,
)

if TYPE_CHECKING:
    import numpy as np

# The 20-node Gauss-Legendre rule on [0, 1]: leggauss(20) mapped by
# (x + 1) / 2 and w / 2, written out so that importing the module loads
# no numpy (_gl_rule makes the arrays).
_GL_NODES = (
    0.003435700407452502, 0.018014036361043095, 0.04388278587433703, 0.08044151408889061,
    0.1268340467699246, 0.1819731596367425, 0.24456649902458644, 0.3131469556422902,
    0.38610707442917747, 0.46173673943325133, 0.5382632605667487, 0.6138929255708225,
    0.6868530443577098, 0.7554335009754136, 0.8180268403632576, 0.8731659532300754,
    0.9195584859111094, 0.956117214125663, 0.981985963638957, 0.9965642995925474,
)
_GL_WEIGHTS = (
    0.008807003569575447, 0.020300714900193223, 0.031336024167054395, 0.04163837078835236,
    0.05096505990862035, 0.0590972659807593, 0.06584431922458844, 0.0710480546591912,
    0.07458649323630212, 0.07637669356536314, 0.07637669356536314, 0.07458649323630212,
    0.0710480546591912, 0.06584431922458844, 0.0590972659807593, 0.05096505990862035,
    0.04163837078835236, 0.031336024167054395, 0.020300714900193223, 0.008807003569575447,
)
# Most panels one integration may hold.  The stop rule is relative, so
# only round-off that keeps a panel's halves and whole apart reaches it.
_MAX_PANELS = 4096
# The largest n whose starting panels' halves, 6 * (n // 8), fit under
# _MAX_PANELS; every larger n would raise NonConvergentError at once.
_MAX_GRID = 8 * (_MAX_PANELS // 6) + 7
_EPS = sys.float_info.epsilon

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


@functools.cache
def _gl_rule():
    # _GL_NODES and _GL_WEIGHTS as read-only arrays, made on first use.
    import numpy as np

    nodes, weights = np.array(_GL_NODES), np.array(_GL_WEIGHTS)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _loop_edges(pts):
    """Per-edge constants of the loop pts[0] -> pts[1] -> pts[2] -> pts[0].

    Edge j runs from p = pts[j] to q = pts[j+1] as
    x(s) = S((1-s)d) p/S(d) + S(sd) q/S(d), S = sin on an ellipse
    (<p,q> < 1) and sinh on a hyperbola, d the edge length.  k is the
    edge's x1 x2' - x2 x1' = (d/S(d)) (p1 q2 - p2 q1), the same at every s.
    The constants are computed on Python floats.  Returns the ellipse
    flags and a (10, 3) table whose column j holds edge j's
    d, S(d), p0, q0, p1, q1, p2, q2, k and |k|.
    """
    import numpy as np

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
        # sd is 0 only on a null edge (<p,q> = 1), where the integrand is nan.
        k = (p[1] * q[2] - p[2] * q[1]) * d / sd if sd else math.nan
        ell.append(c < 1.0)
        cols.append((d, sd, p[0], q[0], p[1], q[1], p[2], q[2], k, abs(k)))
    return np.array(ell), np.array(cols).T


def _node_fractions(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    # (1 - s, s) at the nodes s of the panels [a, a + w], shape (2, N, 20).
    import numpy as np

    s = a[:, None] + w[:, None] * _gl_rule()[0]
    return np.stack([1.0 - s, s])


def _panels(edges, e: np.ndarray, a: np.ndarray, w: np.ndarray):
    """Gauss-Legendre integrals over the panels [a, a + w] of edges e.

    Returns the integrals of k x0 / (x1^2 + x2^2) and of its round-off
    scale |k| (|A p0| + |B q0|) / (x1^2 + x2^2), one per panel.  Each
    panel's values depend on its own row alone, not on the other rows of
    the call.
    """
    return _node_sums(edges, e, _node_fractions(a, w), w)


def _node_sums(edges, e: np.ndarray, frac: np.ndarray, w: np.ndarray):
    # _panels with the node fractions given.
    import numpy as np

    ell, table = edges
    g = table[:, e]
    args = frac * g[0, :, None]
    on_ellipse = ell[e][None, :, None]
    ab = np.empty_like(args)
    np.sin(args, out=ab, where=on_ellipse)
    np.sinh(args, out=ab, where=~on_ellipse)
    ab /= g[1, :, None]
    # x[i, 0] = A p_i and x[i, 1] = B q_i at every node.
    x = ab * g[2:8].reshape(3, 2, -1, 1)
    rho2 = (x[1, 0] + x[1, 1]) ** 2 + (x[2, 0] + x[2, 1]) ** 2
    x0 = np.abs(x[0])
    fr = np.stack([x[0, 0] + x[0, 1], x0[0] + x0[1]])
    fr *= g[8:10, :, None]
    fr /= rho2
    fr *= _gl_rule()[1]
    f, r = fr.sum(axis=2)
    return w * f, w * r


def integrate_area(tri: DeSitterTriangle, n: int = _DEFAULT_CHECK_GRID) -> OracleResult:
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
    import numpy as np

    if n < 8:
        raise ValueError(f"grid must be at least 8, got {n!r}")
    if n > _MAX_GRID:
        raise ValueError(f"grid must be at most {_MAX_GRID}, got {n!r}")
    _disk_name(tri)
    _check_not_collinear(tri.points)

    edges = _loop_edges([p._x for p in tri.points])
    e, a, w, rows = _start_layout(n // 8)
    kept, est, floor, level = [], 0.0, 0.0, 1
    while True:
        if sum(map(len, kept)) + 2 * e.size > _MAX_PANELS:
            raise NonConvergentError(f"more than {_MAX_PANELS} panels at bisection level {level}")
        vals, scales = _node_sums(edges, *rows)
        whole, halves = vals[:e.size], vals[e.size:].reshape(2, -1)
        if level == 1:
            scale = float(np.sum(np.abs(whole)))
        gap = np.abs(halves.sum(axis=0) - whole)
        roundoff = 64.0 * _EPS * scales[e.size:].reshape(2, -1).sum(axis=0)
        ok = gap <= np.maximum(1e-12 * scale * w, roundoff)
        kept.append(halves[:, ok].ravel())
        est += float(np.sum(gap[ok]))
        floor += float(np.sum(roundoff[ok]))
        bad = ~ok
        if not bad.any():
            break
        h = w[bad] / 2.0
        e, a, w = np.tile(e[bad], 2), np.concatenate([a[bad], a[bad] + h]), np.tile(h, 2)
        rows = _level_rows(e, a, w)
        level += 1
    return OracleResult(area=abs(math.fsum(np.concatenate(kept).tolist())),
                        est_error=max(est, floor), grid=(n, n), refinements=level)


def _level_rows(e: np.ndarray, a: np.ndarray, w: np.ndarray):
    # _node_sums arguments: panels [a, a + w] of edges e, left halves, right halves.
    import numpy as np

    h = w / 2.0
    w3 = np.concatenate([w, h, h])
    return np.tile(e, 3), _node_fractions(np.concatenate([a, a, a + h]), w3), w3


@functools.lru_cache(maxsize=8)
def _start_layout(m: int):
    """(e, a, w, rows) of the n // 8 = m starting panels per edge, read-only: rows
    feeds level 1's one _node_sums call, on these panels and both of their halves."""
    import numpy as np

    e = np.repeat(np.arange(3), m)
    a = np.tile(np.arange(m) / m, 3)
    w = np.full(3 * m, 1.0 / m)
    rows = _level_rows(e, a, w)
    for arr in (e, a, w, *rows):
        arr.flags.writeable = False
    return e, a, w, rows


# Sampler attempts are drawn this many at a time.
_BLOCK = 64
# Each proper name's (space-like, time-like, light-like) edge counts
# packed base 4: the sampler's prefilter sums per-edge codes 1, 4, 16,
# and 64 for an impossible edge, which no name holds.
_EDGE_CODES = {name: i + 4 * j + 16 * k for (i, j, k), name in _NAME_TABLE.items()}


def _prefilter_rule(target: ProperName | None):
    # A generation target's (None: any of the four null-free types) names'
    # codes, the largest of them, and whether it must also be contractible.
    codes = frozenset(_EDGE_CODES[n] for n in (_AREA_TYPES if target is None else (target,)))
    return codes, max(codes), target is ProperName.SPATIOLATERAL


_TARGET_RULES = {t: _prefilter_rule(t) for t in (None, *_AREA_TYPES)}


def _attempts(rng: np.random.Generator, u_max: float, max_attempts: int):
    """Yield random_triangle's max_attempts attempts in seed-stream order,
    each as three chart points (sinh u, cosh u cos psi, cosh u sin psi):
    tuples of floats computed with math."""
    lo, span, turn = -u_max, u_max - -u_max, 2.0 * math.pi
    sinh, cosh, cos, sin = math.sinh, math.cosh, math.cos, math.sin
    done = 0
    while done < max_attempts:
        m = min(_BLOCK, max_attempts - done)
        for r0, r1, r2, r3, r4, r5 in rng.random((m, 6)).tolist():
            u0, u1, u2 = lo + span * r0, lo + span * r1, lo + span * r2
            a0, a1, a2 = turn * r3, turn * r4, turn * r5
            c0, c1, c2 = cosh(u0), cosh(u1), cosh(u2)
            yield ((sinh(u0), c0 * cos(a0), c0 * sin(a0)),
                   (sinh(u1), c1 * cos(a1), c1 * sin(a1)),
                   (sinh(u2), c2 * cos(a2), c2 * sin(a2)))
        done += m


def _maybe_accepted(pts, rule) -> bool:
    """random_triangle's acceptance rule for one attempt.

    rule is _TARGET_RULES[target], looked up once per random_triangle call.

    False where the edge kinds name a type other than the target's, or
    (spatiolateral) 1 + <p2,p3> + <p3,p1> + <p1,p2> <= 0.  The inner
    products, bands and sum are mink_inner's, classify_segment's and
    triangles._contractible's, in their operation order, so each decision
    is classify_triangle's.  A point off the quadric (or with a nan <p,p>)
    keeps the attempt, so DeSitterPoint raises as before; classify_triangle
    rejects coincident, antipodal or collinear vertices.
    """
    (p0, p1, p2), (q0, q1, q2), (r0, r1, r2) = pts
    if not (abs(-(p0 * p0) + p1 * p1 + p2 * p2 - 1.0) <= UNIT_EPS
            and abs(-(q0 * q0) + q1 * q1 + q2 * q2 - 1.0) <= UNIT_EPS
            and abs(-(r0 * r0) + r1 * r1 + r2 * r2 - 1.0) <= UNIT_EPS):
        return True
    codes, top, contractible = rule
    code, total = 0, 1.0
    # Edge j joins vertices j+1 and j+2.  Codes only grow: stop past the top one.
    for c in (-(q0 * r0) + q1 * r1 + q2 * r2, -(r0 * p0) + r1 * p1 + r2 * p2,
              -(p0 * q0) + p1 * q1 + p2 * q2):
        code += (16 if abs(c - 1.0) <= NULL_EPS else 4 if c > 1.0
                 else 1 if c > -1.0 + NULL_EPS else 64)
        if code > top:
            return False
        total += c
    return code in codes and (not contractible or not total <= 0.0)


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
    give for each attempt in turn.  Attempts are taken one at a time on
    Python floats: _maybe_accepted decides acceptance from the attempt's
    inner products, and classify_triangle then only rejects a degenerate
    triple (or DeSitterPoint raises on a point off the quadric).
    """
    import numpy as np

    if cfg.target is not None and cfg.target not in _AREA_TYPES:
        raise ValueError(f"unsupported generation target: {cfg.target!r}")
    rng = np.random.default_rng(cfg.seed)
    rule = _TARGET_RULES[cfg.target]
    for raw in _attempts(rng, cfg.u_max, cfg.max_attempts):
        if not _maybe_accepted(raw, rule):
            continue
        pts = tuple(map(DeSitterPoint, raw))
        try:
            kind = classify_triangle(*pts)
        except GeometryError:
            continue
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
    distinguished vertex.  A closed form that raises fails the shape check
    and skips the trial's later checks.  Each failure entry names its
    trial's generator seed, which `dstrig random --type T --seed S` replays.
    Each worst value is the largest over the trials, and nan once any is nan.
    """
    import numpy as np

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

        resid = tangent_normal_residual(tri)
        worst["tangent_normal_residual"] = _worse(worst["tangent_normal_residual"], resid)
        tally("tangent_normal_identity", resid <= 1e-8, f"residual {resid:.3g}")

        try:
            res = girard_area(tri)
            prod = girard_area_from_products(tri)
        except GeometryError as exc:
            # girard_area raises on the shape check below; the later checks need its area.
            tally("complex_area_shape", False, f"closed form failed: {exc}")
            continue
        nabla = res.complex_area
        shape = abs(nabla.real)
        worst["complex_real_part"] = _worse(worst["complex_real_part"], shape)
        tally("complex_area_shape",
              shape <= 1e-8 and nabla.imag > 0 and abs(nabla.imag - res.real_area) <= 1e-8,
              f"angle sum {nabla!r} vs area {res.real_area!r}")

        gap = abs(prod - res.real_area)
        worst["product_formula_gap"] = _worse(worst["product_formula_gap"], gap)
        tally("product_formula_agreement", gap <= 1e-9, f"gap {gap:.3g}")

        tally("type_structure", *_structure_ok(tri, target))

        try:
            orc = integrate_area(tri, n=grid)
        except NonConvergentError as exc:
            tally("oracle_agreement", False, f"oracle failed: {exc}")
            continue
        disc = abs(res.real_area - orc.area)
        worst["oracle_discrepancy"] = _worse(worst["oracle_discrepancy"], disc)
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
