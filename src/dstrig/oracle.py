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
tested in turn at the next bisection level.  One kernel call per level
evaluates its pending panels (at level 1 the starting ones) and both of
their halves.  Level 1 runs over slabs of a call's triangles: one kernel
call, on one edge table, takes the starting rows of as many triangles as
fit in _SLAB_ROWS rows (two at the default n = 64, one from n = 72).  One
level loop judges all their starting panels as one block, a row per
triangle; a triangle with a rejected panel goes on through it alone.

The kernel lays every array out per node: the per-edge constants are
repeated to each of a panel's 20 nodes, so each numpy operation on them
is one contiguous loop, and each panel's sum runs over its 20 adjacent
nodes.  Where all edges of a call are of one kind (spatiolateral:
ellipses, tempolateral: hyperbolas) it makes one sin or sinh call; mixed
calls apply both under an ellipse mask.  A panel's sums depend on its
own nodes alone, not on which panels or triangles share its call, so a
triangle's result is the same bits in any slab.  The per-edge constants
are computed on Python floats.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .areas import _apex_products, girard_area, girard_area_from_products
from .errors import ExhaustedAttemptsError, GeometryError, NonConvergentError
from .geodesics import _SEGMENTS, DeSitterPoint
from .minkowski import UNIT_EPS, _acosh_at_least_one, _edge_code, _unit
from .triangles import (
    DeSitterTriangle,
    ProperName,
    _AREA_TYPES,
    _NAME_TABLE,
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
# Triangles per _integrate_many call in `dstrig area --oracle` and verify_type:
# enough to fill level 1's slabs, few enough that a long run holds one group.
_ORACLE_GROUP = 8
# Most kernel rows one level-1 call of _integrate_many evaluates: two
# triangles' starting panels and both of their halves at the default grid
# (3 rows for each of the 3 * (n // 8) starting panels of a triangle).
# That keeps the kernel's largest block, 10 x 20 floats per row (~230 KB
# here), well below 0.5 MB: once a block that large is freed, glibc raises
# its mmap threshold for the rest of the process, which moves the speed of
# every later large allocation.  Whole 8-triangle chunks in one call were
# no faster per triangle.  From n = 72 each triangle's level 1 is a call
# of its own, and from n = 136 that call alone exceeds the bound.
_SLAB_ROWS = 2 * 9 * (_DEFAULT_CHECK_GRID // 8)


@dataclass(frozen=True, eq=False)
class OracleResult:
    area: float
    est_error: float
    grid: tuple[int, int]
    refinements: int


# math.sinh and math.cosh overflow just above this rapidity.
_MATH_RAPIDITY_LIMIT = 710.0


def _check_int(name: str, value) -> None:
    # Integer parameters take an int, not a bool or a float of integral value.
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {value!r}")


def _check_seed(seed) -> None:
    _check_int("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed!r}")


def _check_grid(name: str, n) -> None:
    _check_int(name, n)
    if n < 8:
        raise ValueError(f"grid must be at least 8, got {n!r}")
    if n > _MAX_GRID:
        raise ValueError(f"grid must be at most {_MAX_GRID}, got {n!r}")


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int
    target: ProperName | None  # None: any of the four null-free types
    u_max: float = 2.0
    max_attempts: int = 20000

    def __post_init__(self):
        _check_seed(self.seed)
        # Negated comparisons: nan fails the first test and inf the second.
        if not self.u_max > 0:
            raise ValueError(f"u_max must be positive, got {self.u_max!r}")
        if not self.u_max <= _MATH_RAPIDITY_LIMIT:
            raise ValueError(
                f"u_max must be at most {_MATH_RAPIDITY_LIMIT}, got {self.u_max!r}")
        _check_int("max_attempts", self.max_attempts)
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts!r}")


@functools.cache
def _gl_rule():
    # _GL_NODES and _GL_WEIGHTS as read-only arrays, made on first use.
    import numpy as np

    nodes, weights = np.array(_GL_NODES), np.array(_GL_WEIGHTS)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _loop_edges(*loops):
    """Per-edge constants of each loop pts[0] -> pts[1] -> pts[2] -> pts[0].

    Edge j runs from p = pts[j] to q = pts[j+1] as
    x(s) = S((1-s)d) p/S(d) + S(sd) q/S(d), d the edge length.  The arc
    that gives d and the sine S come from geodesics._SEGMENTS: its ellipse
    entry (acos, sin) where <p,q> < 1 and its hyperbola entry (acosh, sinh)
    elsewhere, chosen by the raw product and not the band, since the
    oracle reads only the vertices, not the closed forms.  k is the
    edge's x1 x2' - x2 x1' = (d/S(d)) (p1 q2 - p2 q1), the same at every s.
    The constants are computed on Python floats.  Returns the edges' S
    and a (10, E) table, the loops' edges in order, whose column j holds
    edge j's d, S(d), p0, q0, p1, q1, p2, q2, k and |k|.  S is np.sin when
    every edge is an ellipse (spatiolateral loops), np.sinh when every
    edge is a hyperbola (tempolateral), and otherwise the (E,) array of
    ellipse flags.
    """
    import numpy as np

    ell, cols = [], []
    for pts in loops:
        for p, q in zip(pts, [*pts[1:], pts[0]]):
            c = -(p[0] * q[0]) + p[1] * q[1] + p[2] * q[2]
            _, arc, sine = _SEGMENTS[1 if c < 1.0 else 4]
            d = arc(max(c, -1.0))
            sd = sine(d)
            # sd is 0 only on a null edge (<p,q> = 1), where the integrand is nan.
            k = (p[1] * q[2] - p[2] * q[1]) * d / sd if sd else math.nan
            ell.append(c < 1.0)
            cols.append((d, sd, p[0], q[0], p[1], q[1], p[2], q[2], k, abs(k)))
    kind = np.sin if all(ell) else np.sinh if not any(ell) else np.array(ell)
    return kind, np.array(cols).T


def _node_fractions(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    # (1 - s, s) at the nodes s of the panels [a, a + w], shape (2, 20 N):
    # panel i's nodes are columns 20 i to 20 i + 19.
    import numpy as np

    s = (a[:, None] + w[:, None] * _gl_rule()[0]).ravel()
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
    # _panels with the node fractions given, (2, 20 N).  g repeats each
    # panel's edge constants to its 20 nodes, so that every operation up
    # to the weights is one contiguous loop.
    import numpy as np

    kind, table = edges
    nodes = len(_GL_NODES)
    g = np.repeat(table[:, e], nodes, axis=1)
    ab = frac * g[0]
    if isinstance(kind, np.ufunc):
        kind(ab, out=ab)
    else:
        on_ellipse = np.repeat(kind[e], nodes)
        np.sin(ab, out=ab, where=on_ellipse)
        np.sinh(ab, out=ab, where=~on_ellipse)
    ab /= g[1]
    a, b = ab
    # x0 = A p0 + B q0, x1 = A p1 + B q1 and x2 = A p2 + B q2 at every node.
    x0 = ab * g[2:4]
    x1 = a * g[4]
    x1 += b * g[5]
    x2 = a * g[6]
    x2 += b * g[7]
    rho2 = np.square(x1, out=x1)
    rho2 += np.square(x2, out=x2)
    fr = np.empty_like(x0)
    np.add(x0[0], x0[1], out=fr[0])
    np.abs(x0, out=x0)
    np.add(x0[0], x0[1], out=fr[1])
    fr *= g[8:10]
    fr /= rho2
    fr = fr.reshape(2, -1, nodes)
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
    halves match it (module docstring); an n that is not an int (or is a
    bool) raises TypeError, and one outside [8, 5463] ValueError, both
    before any work.  grid is (n, n); refinements is the deepest bisection
    level (1: every starting panel matched its halves); est_error is the
    sum of the accepted panels' |halves - whole|, floored at the sum of
    their round-off floors 64 * eps * R (> 0 for non-collinear vertices).
    More than _MAX_PANELS panels raises NonConvergentError.

    This is the one-triangle batch of _integrate_many, which evaluates
    level 1 of several triangles in one kernel call and judges every level
    in one loop.  A panel's value does not depend on which panels or
    triangles share its call, so the result is the same bits whether tri
    is integrated alone or with others.

    est_error counts quadrature error and the round-off of evaluating
    the integrand.  It does not count the conditioning of the float
    vertices (the edge constants <p,q> and d they give), so it is no
    bound where that dominates: on the benchmark pool's chronosceles
    u_max 6 seed 59 it reports 1.4e-13 while the 40-digit referee is
    4.8e-13 away.
    """
    (res,) = _integrate_many([tri], n)
    if isinstance(res, Exception):
        raise res
    return res


def _integrate_many(tris, n: int) -> list:
    """integrate_area of each of tris, in order: its OracleResult, or the
    GeometryError its checks or the panel cap raise for it alone.

    n is checked first, for the whole call, and raises as integrate_area's
    does.  Level 1 evaluates the starting panels and both of their halves
    of max(1, _SLAB_ROWS // (9 * (n // 8))) triangles at a time in one
    _node_sums call.  One level loop then takes batches from a stack and
    judges each as one block, a row per triangle: the first batch is every
    triangle's level 1, and a triangle with a rejected panel goes on as a
    one-row batch that holds its edge table and its next level's sums.
    """
    import numpy as np

    _check_grid("n", n)
    e, a, w, _ = _start_layout(n // 8)
    out, live = [], []
    for tri in tris:
        try:
            _disk_name(tri)
            _check_not_collinear(tri.points)
            _check_panels(0, e.size, 1)
        except GeometryError as exc:
            out.append(exc)
        else:
            out.append(None)
            live.append(len(out) - 1)
    loops = [[p._x for p in tris[i].points] for i in live]
    vals, scales = np.empty((2, len(live), 3 * e.size))
    per = max(1, _SLAB_ROWS // (3 * e.size))
    for lo in range(0, len(live), per):
        k = min(per, len(live) - lo)
        v, s = _node_sums(_loop_edges(*loops[lo:lo + k]), *_slab_rows(n // 8, k))
        vals[lo:lo + k], scales[lo:lo + k] = v.reshape(k, -1), s.reshape(k, -1)
    scale = np.abs(vals[:, :e.size]).sum(axis=1)[:, None]
    # A batch: level, panels (e, a, w), sums (whole, left, right) and scale,
    # a row each, and per row (triangle, loop or edge table, accepted
    # halves' sums, est, floor).
    stack = [(1, (e, a, w), vals, scales, scale,
              [(i, loop, [], 0.0, 0.0) for i, loop in zip(live, loops)])]
    while stack:
        level, (e, a, w), vals, scales, scale, rows = stack.pop()
        m = e.size
        gap, roundoff, ok = _judge(vals, scales, scale, w)
        done = ok.all(axis=1).tolist()
        ests, floors = gap.sum(axis=1).tolist(), roundoff.sum(axis=1).tolist()
        for j, (i, edges, kept, est, floor) in enumerate(rows):
            if done[j]:
                area = abs(math.fsum(kept + vals[j, m:].tolist()))
                out[i] = OracleResult(area=area, est_error=max(est + ests[j], floor + floors[j]),
                                      grid=(n, n), refinements=level)
                continue
            good, bad = ok[j], ~ok[j]
            kept = kept + vals[j, m:2 * m][good].tolist() + vals[j, 2 * m:][good].tolist()
            est += float(gap[j][good].sum())
            floor += float(roundoff[j][good].sum())
            h = w[bad] / 2.0
            panels = np.tile(e[bad], 2), np.concatenate([a[bad], a[bad] + h]), np.tile(h, 2)
            try:
                _check_panels(len(kept), panels[0].size, level + 1)
            except NonConvergentError as exc:
                out[i] = exc
                continue
            if level == 1:
                edges = _loop_edges(edges)
            v, s = _node_sums(edges, *_level_rows(*panels))
            stack.append((level + 1, panels, v[None], s[None], scale[j:j + 1],
                          [(i, edges, kept, est, floor)]))
    return out


def _check_panels(kept: int, pending: int, level: int) -> None:
    # The panel cap counts the panels kept so far and the pending panels' halves.
    if kept + 2 * pending > _MAX_PANELS:
        raise NonConvergentError(f"more than {_MAX_PANELS} panels at bisection level {level}")


def _judge(vals: np.ndarray, scales: np.ndarray, scale, w: np.ndarray):
    """The bisection test of a batch's panels w wide: vals and scales hold
    a row per triangle (one row past level 1), whose sums run whole
    panels, left halves, right halves, and scale is a column of the rows'
    S.  Returns (gap, roundoff, ok), a row each, ok where
    |left + right - whole| <= max(1e-12 * scale * w, roundoff)."""
    import numpy as np

    m = w.size
    whole, left, right = vals[..., :m], vals[..., m:2 * m], vals[..., 2 * m:]
    gap = np.abs(left + right - whole)
    roundoff = 64.0 * _EPS * (scales[..., m:2 * m] + scales[..., 2 * m:])
    return gap, roundoff, gap <= np.maximum(1e-12 * scale * w, roundoff)


def _level_rows(e: np.ndarray, a: np.ndarray, w: np.ndarray):
    # _node_sums arguments: panels [a, a + w] of edges e, left halves, right halves.
    import numpy as np

    h = w / 2.0
    w3 = np.concatenate([w, h, h])
    return np.tile(e, 3), _node_fractions(np.concatenate([a, a, a + h]), w3), w3


@functools.lru_cache(maxsize=8)
def _start_layout(m: int):
    """(e, a, w, rows) of the n // 8 = m starting panels per edge, read-only: rows
    feeds level 1's _node_sums call, on these panels and both of their halves."""
    import numpy as np

    e = np.repeat(np.arange(3), m)
    a = np.tile(np.arange(m) / m, 3)
    w = np.full(3 * m, 1.0 / m)
    rows = _level_rows(e, a, w)
    for arr in (e, a, w, *rows):
        arr.flags.writeable = False
    return e, a, w, rows


@functools.lru_cache(maxsize=8)
def _slab_rows(m: int, k: int):
    """_start_layout(m)'s rows tiled for k triangles, read-only: triangle t's
    rows follow triangle t - 1's, and its edges are columns 3 t to 3 t + 2
    of _loop_edges of the k loops."""
    import numpy as np

    e, frac, w = _start_layout(m)[3]
    rows = (np.concatenate([e + 3 * t for t in range(k)]), np.tile(frac, k), np.tile(w, k))
    for arr in rows:
        arr.flags.writeable = False
    return rows


# Sampler attempts are drawn _FIRST_BLOCK at a time at the start of a
# call, where most calls accept, and _BLOCK at a time after that.  Where
# the spatiolateral first-edge bound applies, the blocks after those two
# are _BOUND_BLOCK rows, and a numpy pass of the bound (_first_edge_pass)
# over every block but the first hands the loop only the rows it leaves:
# at u_max 6 about 93% go, and ~450 attempts are drawn per kept one.  A
# pass costs about 15 us however few rows it gets (17 us on 64 rows, 26 on
# 256, on a 2-core x86-64 host), and at u_max 2, 239 of seeds 0-399 accept
# within the first 16 attempts, so the first block gets no pass.
_FIRST_BLOCK = 16
_BLOCK = 64
_BOUND_BLOCK = 4 * _BLOCK
# Up to this rapidity a chart point's unit check cannot fail.  With
# sinh and cosh within 2 ulp and sin and cos within 1 ulp (glibc's
# documented bounds), |<p,p> - 1| is at most about 13.5 eps cosh^2 u, and
# 32 eps cosh^2 u is UNIT_EPS here (u ~ 6.62).  Seeded draws reach
# 5.4 eps cosh^2 u.
_UNIT_SAFE_U = math.acosh(math.sqrt(UNIT_EPS / (32.0 * _EPS)))
# <p2,p3> of chart points (u1, a1), (u2, a2) is
# ((1 + cos d) cm - (1 - cos d) cp) / 2, d = a1 - a2, cm = cosh(u1 - u2),
# cp = cosh(u1 + u2): three calls where the loop's e0 takes eight.  Each
# term of either sum is at most (cm + cp) / 2 in size.  With glibc's
# documented bounds, and |u| <= _UNIT_SAFE_U (the rounding of u1 +- u2 and
# of d included), this form from math calls is within about 12 eps
# (cm + cp) of the exact value and e0 within about 11, so past
# 1 + 64 eps (cm + cp) in size e0 is past 1 as well.  300,000 seeded draws
# reach 6.2 eps (cm + cp).
_FIRST_EDGE_MARGIN = 64.0 * _EPS
# The sampler evaluates the form with numpy, whose cosh and cos are not
# glibc's (np.cosh and math.cosh differ by an ulp on about a quarter of
# arguments), and numpy documents no bound for them.  Were each of the
# three calls four times as far off as glibc's bound, the form would be
# within about 48 eps (cm + cp), and with e0's 11 under twice the margin
# above.  1,000,000 seeded rows reach 6.3 eps (cm + cp).
_PREPASS_MARGIN = 2.0 * _FIRST_EDGE_MARGIN


# The sampler's prefilter sums minkowski._edge_code's per-edge codes: 1
# space-like, 4 time-like, 16 light-like, and 64 impossible, which no name
# holds.  A sum's base-4 digits count its edges of each kind, so they add up
# to its number of edges.
def _prefilter_rule(target: ProperName | None):
    # A generation target's (None: any of the four null-free types) codes,
    # the largest of them, and whether it must also be contractible.  The
    # codes are the sums of one, two and three of a name's edge codes: the
    # running codes after the loop's first and second edges that some order
    # of the target's edges reaches, and the target's own codes.
    names = _AREA_TYPES if target is None else (target,)
    codes = frozenset(
        sum(edges)
        for (i, j, k), name in _NAME_TABLE.items() if name in names
        for r in (1, 2, 3)
        for edges in itertools.combinations((1,) * i + (4,) * j + (16,) * k, r))
    return codes, max(codes), target is ProperName.SPATIOLATERAL


_TARGET_RULES = {t: _prefilter_rule(t) for t in (None, *_AREA_TYPES)}


def _first_edge_pass(u1, u2, a1, a2):
    """Where numpy's three-call <p2,p3> of the chart points (u1, a1),
    (u2, a2), arrays, is within 1 + _PREPASS_MARGIN (cm + cp) in size: the
    first-edge bound.  Every row it drops has an e0 past 1 in size."""
    import numpy as np

    cm, cp, cd = np.cosh(u1 - u2), np.cosh(u1 + u2), np.cos(a1 - a2)
    return np.abs((1.0 + cd) * cm - (1.0 - cd) * cp) * 0.5 <= 1.0 + _PREPASS_MARGIN * (cm + cp)


def _kept_attempts(rng: np.random.Generator, u_max: float, max_attempts: int, rule):
    """Yield the attempts, of random_triangle's max_attempts in seed-stream
    order, that pass its acceptance rule, each as three chart points
    (sinh u, cosh u cos psi, cosh u sin psi): tuples of floats computed
    with math.

    rule is _TARGET_RULES[target].  An attempt is dropped where the edge
    kinds name a type other than the target's, or (spatiolateral)
    1 + <p2,p3> + <p3,p1> + <p1,p2> <= 0.  The inner products and sum are
    mink_inner's and triangles._contractible's, in their operation order,
    and the loop calls the band predicates DeSitterPoint and
    classify_segment call, minkowski._unit and _edge_code, so each
    decision is classify_triangle's.  An attempt with a point off the
    quadric (or with a nan <p,p>) is kept, so DeSitterPoint raises on it;
    classify_triangle rejects coincident, antipodal or collinear vertices.

    A vertex's unit check cannot fail where |u| <= _UNIT_SAFE_U, so it is
    made only above that rapidity, and always before any edge is coded;
    where u_max <= _UNIT_SAFE_U no draw is above it, and the range tests
    are skipped too.  Vertices 2 and 3 come first, and edge e0 = <p2,p3>
    is coded from them alone; vertex 1 is computed only when e0 passes or
    its |u| is above _UNIT_SAFE_U.  An attempt is dropped at the first
    edge whose running code no order of the target's edges reaches.
    Where only three space-like edges pass (top < 4) and
    u_max <= _UNIT_SAFE_U, the blocks after the first two are _BOUND_BLOCK
    rows, and on every block but the first the loop takes only the rows
    that _first_edge_pass leaves: a row it drops has an e0 that codes
    above 3, which the loop would drop at its first edge.  So the loop
    keeps and drops the attempts that coding all three points and checking
    them first would, whatever the block sizes.
    """
    codes, top, contractible = rule
    lo, span, turn = -u_max, u_max - -u_max, 2.0 * math.pi
    sinh, cosh, cos, sin = math.sinh, math.cosh, math.cos, math.sin
    unit, edge = _unit, _edge_code
    safe, low = _UNIT_SAFE_U, -_UNIT_SAFE_U
    # -u_max + 2 u_max w rounds into [-u_max, u_max], so here no check can fail.
    free = u_max <= safe
    bound = free and top < 4
    blocks = (_FIRST_BLOCK, _BLOCK, _BOUND_BLOCK if bound else _BLOCK)
    done, k = 0, 0
    while done < max_attempts:
        m = min(blocks[k], max_attempts - done)
        w = rng.random((m, 6))
        if bound and k:
            w = w[_first_edge_pass(lo + span * w[:, 1], lo + span * w[:, 2],
                                   turn * w[:, 4], turn * w[:, 5])]
        for w0, w1, w2, w3, w4, w5 in w.tolist():
            u1, u2, a1, a2 = lo + span * w1, lo + span * w2, turn * w4, turn * w5
            c1, c2 = cosh(u1), cosh(u2)
            q0, q1, q2 = sinh(u1), c1 * cos(a1), c1 * sin(a1)
            r0, r1, r2 = sinh(u2), c2 * cos(a2), c2 * sin(a2)
            on = free or (
                (low <= u1 <= safe or unit(-(q0 * q0) + q1 * q1 + q2 * q2))
                and (low <= u2 <= safe or unit(-(r0 * r0) + r1 * r1 + r2 * r2)))
            if on:
                # Edge j joins vertices j+1 and j+2.
                e0 = -(q0 * r0) + q1 * r1 + q2 * r2
                code = edge(e0)
                if code not in codes and (free or low <= lo + span * w0 <= safe):
                    continue
            u0, a0 = lo + span * w0, turn * w3
            c0 = cosh(u0)
            p0, p1, p2 = sinh(u0), c0 * cos(a0), c0 * sin(a0)
            if on and (free or low <= u0 <= safe or unit(-(p0 * p0) + p1 * p1 + p2 * p2)):
                if code not in codes:
                    continue
                e1 = -(r0 * p0) + r1 * p1 + r2 * p2
                code += edge(e1)
                if code not in codes:
                    continue
                e2 = -(p0 * q0) + p1 * q1 + p2 * q2
                code += edge(e2)
                if code not in codes or (contractible and 1.0 + e0 + e1 + e2 <= 0.0):
                    continue
            yield (p0, p1, p2), (q0, q1, q2), (r0, r1, r2)
        done += m
        k = min(k + 1, 2)


def random_triangle(cfg: GeneratorConfig) -> DeSitterTriangle:
    """Rejection-sample a triangle of the requested type.

    Vertices come from the chart (sinh u, cosh u cos psi, cosh u sin psi)
    with u uniform on [-u_max, u_max] and psi uniform on [0, 2*pi).  A
    draw is kept when it classifies as the target (for three space-like
    edges: contractible as well).  target None keeps the first draw of
    any of the four null-free types, contractible or not, from the same
    seed stream.  Identical seeds give identical output.

    Seed stream: attempt i is row i of rng.random((m, 6)) from
    default_rng(seed), drawn in blocks of m rows (16, then 64; 256 after
    those two where the first-edge pass below applies), mapped by
    u = -u_max + (u_max - -u_max) * r[:3] and psi = 2*pi * r[3:]; these
    are the values rng.uniform(-u_max, u_max, 3), rng.uniform(0, 2*pi, 3)
    give for each attempt in turn, whatever the block sizes.  Attempts are
    taken one at a time on Python floats by one loop, _kept_attempts,
    whose prefilter is the acceptance rule: it codes the edge <p2,p3>
    before it computes vertex 1, drops an attempt at the first edge that
    rules the target out, and yields the others.  For a spatiolateral
    target with u_max <= _UNIT_SAFE_U, on every block from the second on,
    one numpy pass of a three-call bound on <p2,p3>, with margin
    1 + 128 eps (cm + cp), first drops the rows whose edge 2-3 cannot be
    space-like; the first block gets none.  The attempts kept are the same.
    classify_triangle then only rejects a degenerate triple (or
    DeSitterPoint raises on a point off the quadric).  A seed that is not
    an int (or is a bool) raises TypeError, and a negative one ValueError,
    when cfg is made.
    """
    import numpy as np

    if cfg.target is not None and cfg.target not in _AREA_TYPES:
        raise ValueError(f"unsupported generation target: {cfg.target!r}")
    rng = np.random.default_rng(cfg.seed)
    for raw in _kept_attempts(rng, cfg.u_max, cfg.max_attempts, _TARGET_RULES[cfg.target]):
        pts = tuple(map(DeSitterPoint, raw))
        try:
            kind = classify_triangle(*pts)
        except GeometryError:
            continue
        return DeSitterTriangle(pts, kind.edges)
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
        t1 = _acosh_at_least_one(g1)
        t2 = _acosh_at_least_one(-g2)
        t3 = _acosh_at_least_one(-g3)
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
    and skips the trial's later checks.  The trials run in groups of
    _ORACLE_GROUP, and the oracle takes the other trials' triangles of a
    group in one _integrate_many call, after the group's last trial; a
    trial's oracle entry still follows its other failures.  Each failure
    entry names its trial's generator seed, which
    `dstrig random --type T --seed S` replays.
    Each worst value is the largest over the trials, and nan once any is nan.
    trials, seed and grid are checked before the first trial: one that is
    not an int (or is a bool) raises TypeError, and trials below 1, a
    negative seed or a grid outside [8, 5463] raise ValueError.
    """
    import numpy as np

    if target not in _AREA_TYPES:
        raise ValueError(f"unsupported verification target: {target!r}")
    _check_int("trials", trials)
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    _check_seed(seed)
    _check_grid("grid", grid)
    trial_seeds = np.random.SeedSequence(seed).generate_state(trials).tolist()
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
    trial_failures = [[] for _ in range(trials)]

    def tally(i: int, check: str, ok: bool, detail: str) -> None:
        if ok:
            counts[check] += 1
        else:
            trial_failures[i].append({"trial": i, "seed": trial_seeds[i], "check": check,
                                      "detail": detail})

    for lo in range(0, trials, _ORACLE_GROUP):
        checked = []  # (trial, triangle, closed-form area) of the group's trials the oracle checks
        for i in range(lo, min(lo + _ORACLE_GROUP, trials)):
            tri = random_triangle(GeneratorConfig(seed=trial_seeds[i], target=target))

            resid = tangent_normal_residual(tri)
            worst["tangent_normal_residual"] = _worse(worst["tangent_normal_residual"], resid)
            tally(i, "tangent_normal_identity", resid <= 1e-8, f"residual {resid:.3g}")

            try:
                res = girard_area(tri)
                prod = girard_area_from_products(tri)
            except GeometryError as exc:
                # girard_area raises on the shape check below; the later checks need its area.
                tally(i, "complex_area_shape", False, f"closed form failed: {exc}")
                continue
            nabla = res.complex_area
            shape = abs(nabla.real)
            worst["complex_real_part"] = _worse(worst["complex_real_part"], shape)
            tally(i, "complex_area_shape",
                  shape <= 1e-8 and nabla.imag > 0 and abs(nabla.imag - res.real_area) <= 1e-8,
                  f"angle sum {nabla!r} vs area {res.real_area!r}")

            gap = abs(prod - res.real_area)
            worst["product_formula_gap"] = _worse(worst["product_formula_gap"], gap)
            tally(i, "product_formula_agreement", gap <= 1e-9, f"gap {gap:.3g}")

            tally(i, "type_structure", *_structure_ok(tri, target))
            checked.append((i, tri, res.real_area))

        # One oracle call on the group; each trial's entry comes last in its failures.
        oracles = _integrate_many([tri for _, tri, _ in checked], grid)
        for (i, _, area), orc in zip(checked, oracles):
            if isinstance(orc, NonConvergentError):
                tally(i, "oracle_agreement", False, f"oracle failed: {orc}")
                continue
            if isinstance(orc, Exception):
                raise orc
            disc = abs(area - orc.area)
            worst["oracle_discrepancy"] = _worse(worst["oracle_discrepancy"], disc)
            tally(i, "oracle_agreement", disc <= 1e-10 * max(1.0, area),
                  f"formula {area!r} vs oracle {orc.area!r} (est {orc.est_error:.3g})")
    return {
        "target": target.value,
        "trials": trials,
        "seed": seed,
        "grid": grid,
        "counts": counts,
        "worst": worst,
        "failures": [f for entries in trial_failures for f in entries],
        "passed": all(v == trials for v in counts.values()),
    }
