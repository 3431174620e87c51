"""The scalar path on Python floats against the numpy path it replaced.

Point validation, classification and assembly read coordinates as
Python floats.  The references below are the earlier numpy versions,
kept here verbatim in substance: each must give the same bits, or the
same exception type and message, on every input.  _ref_signs is the
pairwise normal-sign solver that one orientation sign later replaced;
it proves that replacement gives the same normals.
"""

import gzip
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import chart_point
from dstrig.errors import (
    CoincidentPointsError,
    DegeneratePairError,
    DegenerateTriangleError,
    GeometryError,
    ImpossibleEdgeError,
    NotUnitError,
    NullEdgeError,
    NullInputError,
    NullTangentError,
)
from dstrig.geodesics import (
    DeSitterPoint,
    SegmentKind,
    classify_segment,
    project_to_quadric,
    tangent_toward,
)
from dstrig.minkowski import (
    NULL_EPS,
    UNIT_EPS,
    ZERO_EPS,
    as_vec3,
    lorentz_cross,
    lorentz_normalize,
    random_lorentz,
    vec3,
)
from dstrig.oracle import random_buildable_triangle
from dstrig.triangles import build_triangle, classify_triangle

_EDGE_PAIRS = ((1, 2), (2, 0), (0, 1))
POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "pool.jsonl.gz"


# -- the numpy references ----------------------------------------------------

def _ref_inner(u, v):
    return -float(u[0]) * float(v[0]) + float(u[1]) * float(v[1]) + float(u[2]) * float(v[2])


def _ref_vec3(value):
    v = np.asarray(value, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected 3 components, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"non-finite vector components: {v!r}")
    return v


def _ref_point(value):
    v = _ref_vec3(value).copy()
    q = _ref_inner(v, v)
    if not abs(q - 1.0) <= UNIT_EPS:
        raise NotUnitError(f"point off the quadric: <v,v> = {q!r}")
    return v


def _ref_proportional(p, q):
    if float(np.max(np.abs(p.v - q.v))) < ZERO_EPS:
        return "coincident"
    if float(np.max(np.abs(p.v + q.v))) < ZERO_EPS:
        return "antipodal"
    return None


def _ref_tangent(p, q):
    how = _ref_proportional(p, q)
    if how is not None:
        raise CoincidentPointsError(f"{how} points admit no tangent direction")
    c = _ref_inner(p.v, q.v)
    w = q.v - c * p.v
    ww = _ref_inner(w, w)
    if abs(ww) <= NULL_EPS:
        raise NullTangentError(f"null direction: <p,q> = {c!r}")
    return w / math.sqrt(abs(ww))


def _ref_segment(p, q):
    how = _ref_proportional(p, q)
    if how is not None:
        raise CoincidentPointsError(f"{how} points form no segment")
    c = _ref_inner(p.v, q.v)
    if abs(c - 1.0) <= NULL_EPS:
        return SegmentKind.NULL_LINE, 0.0
    if c > 1.0:
        return SegmentKind.HYPERBOLA_PART, math.acosh(c)
    if c > -1.0 + NULL_EPS:
        return SegmentKind.ELLIPSE_PART, math.acos(max(c, -1.0))
    return SegmentKind.IMPOSSIBLE, 0.0


def _ref_cross(u, v):
    w = np.array([
        u[2] * v[1] - u[1] * v[2],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    ], dtype=float)
    if abs(_ref_inner(w, w)) < ZERO_EPS * ZERO_EPS:
        raise DegeneratePairError("inputs span no definite normal direction")
    return w


def _ref_normalize(u):
    q = _ref_inner(u, u)
    if abs(q) <= ZERO_EPS:
        raise NullInputError("cannot normalize a (near-)null vector")
    return np.asarray(u, dtype=float) / math.sqrt(abs(q))


def _ref_classify(points):
    """Edge (kind, separation) pairs, after the distinctness and det checks."""
    for i in range(3):
        for j in range(i + 1, 3):
            how = _ref_proportional(points[i], points[j])
            if how is not None:
                raise DegenerateTriangleError(f"vertices {i + 1} and {j + 1} are {how}")
    edges = [_ref_segment(points[k], points[l]) for k, l in _EDGE_PAIRS]
    kinds = [kind for kind, _ in edges]
    if SegmentKind.IMPOSSIBLE not in kinds and SegmentKind.NULL_LINE not in kinds:
        det, band = _ref_det_band(points)
        if abs(det) < band:
            raise DegenerateTriangleError("vertices lie on a single geodesic")
    return edges


def _ref_det_band(points):
    """det P and the collinearity band max(ZERO_EPS, 64 eps |p1| |p2| |p3|)."""
    rows = np.stack([p.v for p in points])
    scale = float(np.prod(np.linalg.norm(rows, axis=1)))
    return float(np.linalg.det(rows)), max(ZERO_EPS, 64.0 * np.finfo(float).eps * scale)


# The earlier solver's cut: a tangent or normal product below it left a
# pairwise sign to the other two identities.
_SIGN_TOL = 1e-10


def _ref_signs(raw, tangents):
    desired, rawprod = [], []
    for j in range(3):
        k, l = (j + 1) % 3, (j + 2) % 3
        desired.append(_ref_inner(tangents[j, k], tangents[j, l]))
        rawprod.append(_ref_inner(raw[k], raw[l]))
    sigma = [None, None, None]
    for j in range(3):
        if min(abs(desired[j]), abs(rawprod[j])) > _SIGN_TOL:
            sigma[j] = 1.0 if desired[j] * rawprod[j] > 0 else -1.0
    signs = [1.0, None, None]
    if sigma[2] is not None:
        signs[1] = sigma[2]
    if sigma[1] is not None:
        signs[2] = sigma[1]
    if signs[1] is None and sigma[0] is not None and signs[2] is not None:
        signs[1] = sigma[0] * signs[2]
    if signs[2] is None and sigma[0] is not None and signs[1] is not None:
        signs[2] = sigma[0] * signs[1]
    return [s if s is not None else 1.0 for s in signs]


def _ref_build(points):
    """(edges, tangents, normals) as the numpy path computed them."""
    edges = _ref_classify(points)
    for j, (kind, _) in enumerate(edges):
        if kind is SegmentKind.IMPOSSIBLE:
            raise ImpossibleEdgeError(f"edge opposite vertex {j + 1} admits no geodesic")
        if kind is SegmentKind.NULL_LINE:
            raise NullEdgeError(f"edge opposite vertex {j + 1} is a null line")
    tangents = np.zeros((3, 3, 3))
    for j in range(3):
        for k in range(3):
            if j != k:
                tangents[j, k] = _ref_tangent(points[j], points[k])
    raw = [_ref_normalize(_ref_cross(points[k].v, points[l].v)) for k, l in _EDGE_PAIRS]
    signs = _ref_signs(raw, tangents)
    anchor = signs[0] * _ref_inner(raw[0], points[0].v)
    flip = anchor > 0.0 if abs(anchor) > ZERO_EPS else signs[0] * raw[0][0] < 0.0
    if flip:
        signs = [-s for s in signs]
    return edges, tangents, np.stack([signs[j] * raw[j] for j in range(3)])


# -- comparison --------------------------------------------------------------

def _outcome(fn, *args):
    """fn's result, or its exception's type and message."""
    try:
        return fn(*args)
    except (GeometryError, ValueError) as exc:
        return type(exc), str(exc)


def _bits(x):
    """Exact bit pattern of arrays, floats, tuples and lists of them."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return type(x), [_bits(y) for y in x]
    return x


def assert_same(new, ref):
    assert _bits(new) == _bits(ref)


def _edges(cls):
    return [(e.kind, e.separation) for e in cls.edges]


def _segment(p, q):
    seg = classify_segment(p, q)
    return seg.kind, seg.separation


def _built(points):
    tri = build_triangle(*points)
    assert tri.tangents.flags.writeable is False
    assert tri.normals.flags.writeable is False
    return _edges(tri), tri.tangents, tri.normals


def check_triple(points):
    """Every changed function on the triple and its ordered pairs."""
    assert_same(_outcome(lambda: _edges(classify_triangle(*points))),
                _outcome(_ref_classify, points))
    assert_same(_outcome(_built, points), _outcome(_ref_build, points))
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            p, q = points[i], points[j]
            assert_same(_outcome(tangent_toward, p, q), _outcome(_ref_tangent, p, q))
            assert_same(_outcome(_segment, p, q), _outcome(_ref_segment, p, q))
            cross = _outcome(lorentz_cross, p.v, q.v)
            assert_same(cross, _outcome(_ref_cross, p.v, q.v))
            if isinstance(cross, np.ndarray):
                assert_same(_outcome(lorentz_normalize, cross), _outcome(_ref_normalize, cross))


def check_point(value):
    new = _outcome(lambda: DeSitterPoint(value).v)
    assert_same(new, _outcome(_ref_point, value))
    if isinstance(new, np.ndarray):
        assert new.flags.writeable is False


def _chart_vectors(seed, u_max, count):
    rng = np.random.default_rng(seed)
    us = rng.uniform(-u_max, u_max, count)
    psis = rng.uniform(0.0, 2.0 * math.pi, count)
    return [np.array([math.sinh(u), math.cosh(u) * math.cos(s), math.cosh(u) * math.sin(s)])
            for u, s in zip(us, psis)]


# -- inputs ------------------------------------------------------------------

def _near(x):
    """x and its neighbours a few ulps and a factor of 2 away."""
    up, down = math.nextafter(x, math.inf), math.nextafter(x, -math.inf)
    return (0.0, x / 2.0, math.nextafter(down, -math.inf), down, x, up,
            math.nextafter(up, math.inf), 2.0 * x)


def _pair_triples():
    """Triples whose first two points are coincident or antipodal near ZERO_EPS."""
    third = chart_point(0.3, 2.5)
    bases = [np.array([0.0, 1.0, 0.0]), chart_point(0.7, 0.4).v, chart_point(-1.9, 4.0).v]
    for base in bases:
        for d in _near(ZERO_EPS):
            for axis in range(3):
                step = np.zeros(3)
                step[axis] = d
                for sign in (1.0, -1.0):
                    q = sign * base + step
                    if abs(_ref_inner(q, q) - 1.0) <= UNIT_EPS:
                        yield (DeSitterPoint(base), DeSitterPoint(q), third)


def _band_triples():
    """<p,q> at and around the null band at +1 and the impossible band at -1."""
    p, r = vec3(0, 1, 0), chart_point(0.3, 2.5).v
    for centre in (1.0, -1.0):
        for c in [centre + k * NULL_EPS for k in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)] \
                + list(_near(centre))[1:] + [centre * 1.5]:
            q = np.array([c, c, 1.0])  # <q,q> = 1 and <p,q> = c exactly
            pts = (DeSitterPoint(p), DeSitterPoint(q), DeSitterPoint(r))
            for shift in range(3):
                yield pts[shift:] + pts[:shift]


def _p(x0, x1, x2):
    return DeSitterPoint(vec3(x0, x1, x2))


def _right_angle_triples():
    """Chorosceles triples with a tangent product of exactly 0 at (0,1,0)."""
    for u in (0.5, 1.3, 4.0):
        pts = (_p(0.0, 1.0, 0.0), _p(0.0, 0.0, 1.0), _p(math.sinh(u), math.cosh(u), 0.0))
        for shift in range(3):
            yield pts[shift:] + pts[:shift]
        yield (pts[1], pts[0], pts[2])


# -- tests -------------------------------------------------------------------

class TestFloatPathReference:
    @pytest.mark.parametrize("name", ["spatiolateral", "tempolateral",
                                      "chorosceles", "chronosceles"])
    def test_fixtures(self, request, name):
        points = request.getfixturevalue(f"{name}_points")
        check_triple(points)
        for p in points:
            check_point(p.v)

    @pytest.mark.parametrize("u_max", [2.0, 6.0, 8.0])
    def test_random_buildable(self, u_max):
        built = 0
        for seed in range(200):
            try:
                tri = random_buildable_triangle(seed, u_max=u_max)
            except NotUnitError:
                continue  # a chart draw off the quadric; see test_chart_points
            built += 1
            check_triple(tri.points)
            for p in tri.points:
                check_point(p.v)
        assert built >= 190

    @pytest.mark.parametrize("u_max", [2.0, 6.0, 8.0, 12.0])
    def test_chart_points(self, u_max):
        vectors = _chart_vectors(7, u_max, 300)
        for v in vectors:
            check_point(v)
            check_point(v.tolist())
        outcomes = {type(_outcome(DeSitterPoint, v)) for v in vectors}
        if u_max == 12.0:
            assert outcomes == {DeSitterPoint, tuple}  # some draws are off the quadric

    def test_coincident_and_antipodal_pairs(self):
        hits = set()
        for points in _pair_triples():
            check_triple(points)
            hits.add(_ref_proportional(points[0], points[1]))
        assert hits == {"coincident", "antipodal", None}

    def test_null_and_impossible_edges(self):
        kinds = set()
        for points in _band_triples():
            check_triple(points)
            kinds.update(kind for kind, _ in _ref_classify(points))
        assert {SegmentKind.NULL_LINE, SegmentKind.IMPOSSIBLE} <= kinds

    def test_right_angle_triples(self):
        # The earlier solver's _SIGN_TOL fallback runs on each of these.
        triples = list(_right_angle_triples())
        assert len(triples) == 12
        for points in triples:
            check_triple(points)
            _, tangents, _ = _ref_build(points)
            products = [_ref_inner(tangents[j, (j + 1) % 3], tangents[j, (j + 2) % 3])
                        for j in range(3)]
            assert 0.0 in products

    @pytest.mark.parametrize("value", [
        [math.nan, 1.0, 0.0], [0.0, math.inf, 0.0], [-math.inf, 1.0, 0.0],
        [0.0, 1.0], [[0.0, 1.0, 0.0]], [0.0, 1.0, 0.0, 0.0], "abc",
        [1e200, 1e200, 1e200], [1e155, 1e155, 1.0], [1e300, 0.0, 0.0],
        [0.0, 2.0, 0.0], [1.0, 0.0, 0.0], [0, 1, 0], (0.0, 1.0, 0.0),
    ])
    def test_bad_and_edge_vertices(self, value):
        check_point(value)

    def test_as_vec3_and_vec3(self):
        for value in ([0.0, 1.0, math.nan], [0.0, 1.0], [1, 2, 3], [1e308, -1e308, 0.0]):
            assert_same(_outcome(as_vec3, value), _outcome(_ref_vec3, value))
            if len(value) == 3:
                assert_same(_outcome(vec3, *value), _outcome(_ref_vec3, value))


# -- the collinearity decision -------------------------------------------------

def _geodesic_triples(rng, count, max_rapidity=1.0):
    """2 * count triples of points on one geodesic, the first half on ellipses.

    Each triple lies on the x0 = 0 circle or the x2 = 0 hyperbola, where its
    det is exactly 0, and is followed by its image under a random_lorentz map.
    """
    circle = lambda t: np.array([0.0, math.cos(t), math.sin(t)])
    hyperbola = lambda t: np.array([math.sinh(t), math.cosh(t), 0.0])
    for i in range(count):
        curve, ts = (circle, rng.uniform(0.0, 2.0 * math.pi, 3)) if i < count // 2 \
            else (hyperbola, rng.uniform(-3.0, 3.0, 3))
        rows = [curve(t) for t in ts]
        m = random_lorentz(rng, max_rapidity)
        yield rows
        yield [m @ row for row in rows]


def _pushed_off(rows, delta):
    """rows with the third point moved delta along the Euclidean normal of the first two."""
    n = np.cross(rows[0], rows[1])
    return [rows[0], rows[1], project_to_quadric(rows[2] + delta * n / np.linalg.norm(n)).v]


class TestCollinearDecision:
    """The cofactor det decides collinearity as np.linalg.det does.

    The two differ by rounding, about 1e-16 |p1||p2||p3|, so the band
    scales with |p1||p2||p3| (Euclidean norms): an absolute ZERO_EPS band
    missed collinear triples of larger vertices, each det missing others.
    The comparisons below map with max_rapidity 1, with hyperbola
    parameters up to 3; test_collinear_at_rapidity maps up to 8.
    """

    @staticmethod
    def _check(rows):
        """(decided collinear, |det| / band) for a vertex triple."""
        points = tuple(map(DeSitterPoint, rows))
        assert_same(_outcome(lambda: _edges(classify_triangle(*points))),
                    _outcome(_ref_classify, points))
        det, band = _ref_det_band(points)
        return abs(det) < band, abs(det) / band

    def test_pool(self):
        with gzip.open(POOL, "rt", encoding="utf-8") as fh:
            docs = [json.loads(line)["doc"] for line in list(fh)[1:]]  # line 1: metadata
        assert not any(self._check(doc["vertices"])[0] for doc in docs)

    def test_collinear_triples(self):
        h = math.sqrt(0.5)
        triples = [[[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, h, h]]]  # tools/cli_digest.py's
        triples += _geodesic_triples(np.random.default_rng(3), 400)
        decided = [self._check(rows) for rows in triples]
        assert all(collinear for collinear, _ in decided)
        assert sum(det == 0.0 for _, det in decided) > 400

    @pytest.mark.parametrize("rapidity", [1.0, 3.0, 6.0, 8.0])
    def test_collinear_at_rapidity(self, rapidity):
        # Of these 2000 triples, the absolute band |det| < ZERO_EPS let through
        # 0, 10, 230 and 353; 54 at rapidity 8 have a point off the quadric.
        decided = []
        for rows in _geodesic_triples(np.random.default_rng(0), 1000, rapidity):
            try:
                decided.append(self._check(rows))
            except NotUnitError:  # the absolute unit band at large rapidity: ROADMAP item 4
                continue
        assert len(decided) >= 1900
        assert all(collinear for collinear, _ in decided)

    def test_pushed_off_collinear(self):
        decided = []
        for delta in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
            rng = np.random.default_rng(int(-math.log10(delta)))
            decided += [self._check(_pushed_off(rows, delta))
                        for rows in _geodesic_triples(rng, 100)]
        # Both decisions occur, and some kept triples lie within 10x of the band.
        assert {collinear for collinear, _ in decided} == {True, False}
        assert min(ratio for collinear, ratio in decided if not collinear) < 10.0
