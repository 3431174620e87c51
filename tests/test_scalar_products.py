"""The scalar path's own Minkowski products, and the angle table they feed.

minkowski._dot is the form on rows that are already three Python floats;
mink_inner converts any sequence and calls it.  _checked_angle is the
zero-vector test in front of _branch_angle, the null and unit tests plus
the six-branch table, which the area path calls on products it has
already computed.  The references below are the earlier code, copied:
each must give the same bits, or the same exception type and message.
"""

import math
import struct
import sys

import numpy as np
import pytest

import dstrig.areas
import dstrig.cli
import dstrig.minkowski
import dstrig.triangles
from conftest import count_calls, with_arrays
from dstrig.areas import _FORMULAS, AREA_SHAPE_TOL, AngleSet, girard_area, interior_angles
from dstrig.errors import (
    GeometryError,
    NotUnitError,
    NullInputError,
    NullSpanError,
    ZeroVectorError,
)
from dstrig.minkowski import (
    AngleBranch,
    PseudoAngle,
    _acosh_at_least_one,
    _dot,
    _null,
    _require_nonzero,
    _require_unit,
    _span_theta,
    mink_inner,
    pseudo_angle,
    real_angle,
)
from dstrig.oracle import GeneratorConfig, random_buildable_triangle, random_triangle
from dstrig.triangles import (
    _AREA_TYPES,
    _disk_name,
    _distinguished,
    _others,
    build_triangle,
)

FIXTURES = ("spatiolateral", "tempolateral", "chorosceles", "chronosceles")


# -- the references: the code before _dot and _branch_angle -------------------

def _ref_inner(u, v):
    return -float(u[0]) * float(v[0]) + float(u[1]) * float(v[1]) + float(u[2]) * float(v[2])


def _ref_checked_angle(u, v, what):
    _require_nonzero(u)
    _require_nonzero(v)
    qu = _ref_inner(u, u)
    qv = _ref_inner(v, v)
    if _null(qu) or _null(qv):
        raise NullInputError(f"{what} requires non-null vectors")
    _require_unit(qu, "u")
    _require_unit(qv, "v")
    g = _ref_inner(u, v)

    if qu > 0.0 and qv > 0.0:
        if g > 1.0:
            value, branch = complex(0.0, math.acosh(g)), AngleBranch.PURE_IMAG
        elif g < -1.0:
            value, branch = complex(math.pi, -math.acosh(-g)), AngleBranch.PI_MINUS_IMAG
        else:
            value, branch = complex(math.acos(g), 0.0), AngleBranch.REAL_SECTOR
    elif qu < 0.0 and qv < 0.0:
        if g < 0.0:
            value, branch = complex(0.0, -_acosh_at_least_one(-g)), AngleBranch.NEG_IMAG
        else:
            value, branch = complex(math.pi, _acosh_at_least_one(g)), AngleBranch.PI_PLUS_IMAG
    else:
        value, branch = complex(math.pi / 2.0, math.asinh(g)), AngleBranch.HALF_PI_PLUS_IMAG
    return PseudoAngle(value, branch), g


def _ref_pseudo_angle(u, v):
    return _ref_checked_angle(u, v, "pseudo angle")[0]


def _ref_real_angle(u, v):
    return _span_theta(*_ref_checked_angle(u, v, "real angle"))


def _ref_angles(tangents):
    thetas, phis = [], []
    for j in range(3):
        k, l = _others(j)
        phi, g = _ref_checked_angle(tangents[j][k], tangents[j][l], "pseudo angle")
        phis.append(phi)
        thetas.append(_span_theta(phi, g))
    return AngleSet(tuple(thetas), tuple(phis))


def _ref_girard_area(tri):
    # girard_area before it passed its vertex products to _angles.
    name = _disk_name(tri)
    tangents = tri._tangent_rows
    products = [_ref_inner(tangents[j][k], tangents[j][l])
                for j, (k, l) in enumerate(map(_others, range(3)))]
    d = _distinguished(name, tri.edges, products)
    k, l = _others(d)
    angles = _ref_angles(tangents)
    formula, (s1, s2, s3) = _FORMULAS[name]
    area = s1 * angles.theta[d] + s2 * angles.theta[k] + s3 * angles.theta[l]
    nabla = sum(p.value for p in angles.phi) - math.pi
    if abs(nabla.real) > AREA_SHAPE_TOL or nabla.imag <= 0.0 \
            or abs(nabla.imag - area) > AREA_SHAPE_TOL:
        raise GeometryError(
            f"angle sum {nabla!r} inconsistent with signed area {area!r}")
    return nabla, area, formula, d, angles


# -- comparing outcomes bit for bit -------------------------------------------

def _bits(x):
    """Exact bit pattern of floats, complexes, angles and containers of them."""
    if isinstance(x, float):
        return struct.pack("<d", x)
    if isinstance(x, complex):
        return _bits(x.real), _bits(x.imag)
    if isinstance(x, PseudoAngle):
        return _bits(x.value), x.branch
    if isinstance(x, AngleSet):
        return _bits(x.theta), _bits(x.phi)
    if isinstance(x, (tuple, list)):
        return tuple(_bits(y) for y in x)
    return x


def _outcome(fn, *args):
    """fn's result, or its exception's type and message."""
    try:
        return fn(*args)
    except (GeometryError, ValueError) as exc:
        return type(exc), str(exc)


def _area_fields(res):
    return res.complex_area, res.real_area, res.formula_used, res.distinguished_vertex, res.angles


def _new_girard_area(tri):
    return _area_fields(girard_area(tri))


# -- _dot and mink_inner ------------------------------------------------------

TINY = 5e-324  # the smallest subnormal
SPECIAL_ROWS = [
    (0.0, 0.0, 0.0), (-0.0, 0.0, -0.0), (-0.0, -0.0, -0.0), (0.0, -0.0, 0.0),
    (TINY, -TINY, 2.2e-308), (1e-160, 1e-160, -1e-160), (2.2250738585072014e-308, 0.0, 1.0),
    (1e200, 1e200, 0.0), (0.0, 1e200, -1e200), (1e200, 0.0, 1e200), (-1e200, 1e200, 1e200),
    (math.nan, 0.0, 0.0), (1.0, math.nan, 2.0), (math.inf, 1.0, 0.0), (1.0, -math.inf, math.inf),
    (1.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
]


def _seeded_rows(seed, count):
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-3.0, 3.0, (count, 1))
    return [tuple(row) for row in (rng.normal(size=(count, 3)) * scales).tolist()]


class TestDot:
    """_dot is mink_inner on float rows, bit for bit, and mink_inner is unchanged."""

    def test_seeded_rows(self):
        rows = _seeded_rows(0, 200)
        for u, v in zip(rows, rows[1:] + rows[:1]):
            for a, b in ((u, v), (u, u), (list(v), list(u))):
                assert _bits(_dot(a, b)) == _bits(mink_inner(a, b)) == _bits(_ref_inner(a, b))

    @pytest.mark.parametrize("u", SPECIAL_ROWS)
    def test_zeros_subnormals_overflow_and_nan(self, u):
        # Signed zeros keep their sign, 1e200 rows overflow to inf or to
        # inf - inf = nan, and a nan or inf component carries through.
        for v in SPECIAL_ROWS + _seeded_rows(1, 8):
            assert _bits(_dot(u, v)) == _bits(mink_inner(u, v)) == _bits(_ref_inner(u, v))

    def test_the_special_cases_are_hit(self):
        assert _dot((0.0, 1e200, 1e200), (0.0, 1e200, 1e200)) == math.inf
        assert math.isnan(_dot((1e200, 1e200, 0.0), (1e200, 1e200, 0.0)))
        assert _bits(_dot((0.0, -0.0, -0.0), (0.0, 0.0, 0.0))) == _bits(-0.0)
        assert _bits(_dot((-0.0, -0.0, -0.0), (0.0, 0.0, 0.0))) == _bits(0.0)

    @pytest.mark.parametrize("u, v", [
        (np.array([0.5, 1.25, -2.0]), np.array([3.0, -1.0, 0.75])),
        (np.array([1.0, 2.0, 3.0], dtype=np.float32), [0.1, 0.2, 0.3]),
        ([np.float64(0.5), np.float64(1.25), np.float64(-2.0)], (np.int64(3), 1, np.float32(0.75))),
        ([1, 2, 3], (4, 5, 6)),
        (np.array([1, 2, 3]), np.array([4, 5, 6])),
        ([10 ** 20, 1, 0], [10 ** 20, 0, 1]),
    ])
    def test_mink_inner_returns_a_python_float(self, u, v):
        got = mink_inner(u, v)
        assert type(got) is float
        assert _bits(got) == _bits(_ref_inner(u, v))
        assert type(mink_inner(np.array(u, dtype=float), v)) is float


# -- the angle table ----------------------------------------------------------

def _unit_pairs():
    """Unit pairs on all six branches, null spans, and every refusal."""
    sh, ch = math.sinh(0.7), math.cosh(0.7)
    pairs = [
        ((0.0, 1.0, 0.0), (0.0, math.cos(1.1), math.sin(1.1))),  # real sector
        ((0.0, 1.0, 0.0), (sh, ch, 0.0)),  # pure imaginary
        ((0.0, 1.0, 0.0), (-sh, -ch, 0.0)),  # pi minus imaginary
        ((1.0, 0.0, 0.0), (ch, sh, 0.0)),  # same time cone
        ((1.0, 0.0, 0.0), (-ch, -sh, 0.0)),  # different time cones
        ((1.0, 0.0, 0.0), (sh, ch, 0.0)),  # mixed
        ((0.0, 1.0, 0.0), (0.0, 1.0, 0.0)),  # null span, <u,v> = 1
        ((0.0, 1.0, 0.0), (0.0, -1.0, 0.0)),  # null span, <u,v> = -1
        ((0.0, 0.0, 0.0), (0.0, 1.0, 0.0)),  # zero vector
        ((0.0, 1.0, 0.0), (0.0, 0.0, 0.0)),
        ((1.0, 1.0, 0.0), (0.0, 1.0, 0.0)),  # null vector
        ((0.0, 1.0, 0.0), (2.0, 2.0, 0.0)),
        ((0.0, 1.0 + 1e-8, 0.0), (0.0, 1.0, 0.0)),  # off unit
        ((1.0, 0.0, 0.0), (1.0 - 1e-8, 0.0, 0.0)),
        ((math.nan, 0.0, 0.0), (0.0, 1.0, 0.0)),  # nan
        ((0.0, math.nan, 0.0), (0.0, 1.0, 0.0)),
        ((0.0, 1.0, 0.0), (math.nan, math.nan, math.nan)),
        ((0.0, 1e200, 1e200), (0.0, 1.0, 0.0)),
    ]
    rng = np.random.default_rng(2)
    for _ in range(300):
        u, v = (w / math.sqrt(abs(_ref_inner(w, w))) for w in rng.normal(size=(2, 3)) * 2.0)
        pairs.append((tuple(u.tolist()), tuple(v.tolist())))
    return pairs


class TestBranchAngle:
    """pseudo_angle and real_angle return and raise as before the split."""

    def test_same_as_before_on_every_kind_of_pair(self):
        seen = set()
        for u, v in _unit_pairs():
            for a, b in ((u, v), (np.array(u), list(v))):
                for new, ref in ((pseudo_angle, _ref_pseudo_angle), (real_angle, _ref_real_angle)):
                    got = _outcome(new, a, b)
                    assert _bits(got) == _bits(_outcome(ref, a, b))
                    seen.add(got.branch if isinstance(got, PseudoAngle)
                             else got[0] if isinstance(got, tuple) else float)
        assert seen == set(AngleBranch) | {ZeroVectorError, NullInputError, NotUnitError,
                                           NullSpanError, float}


# -- the scalar path makes no converting call ----------------------------------

@pytest.fixture
def mink_inner_calls(monkeypatch):
    """Every mink_inner call made from any dstrig module."""
    calls = []

    def count(u, v):
        calls.append((u, v))
        return mink_inner(u, v)

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "dstrig"]:
        if getattr(module, "mink_inner", None) is mink_inner:
            monkeypatch.setattr(module, "mink_inner", count)
    return calls


class TestNoConversion:
    """The CLI's reports and the sampler compute every product with _dot."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_reports_make_no_mink_inner_call(self, request, mink_inner_calls, name):
        points = request.getfixturevalue(f"{name}_points")
        dstrig.cli._classify_report(points)
        dstrig.cli._area_report(points)
        assert mink_inner_calls == []
        # The wrapper counts: a public entry point still converts.
        dstrig.minkowski.causal_type(points[0].v)
        assert len(mink_inner_calls) == 1

    @pytest.mark.parametrize("target", _AREA_TYPES)
    def test_sampler_makes_no_mink_inner_call(self, mink_inner_calls, target):
        for seed in range(4):
            for u_max in (2.0, 6.0):
                random_triangle(GeneratorConfig(seed, target, u_max))
        assert mink_inner_calls == []


# -- the area path ------------------------------------------------------------

class TestAreaProducts:
    """girard_area computes each vertex product once and gives the same bits."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_products_computed_once(self, request, monkeypatch, name):
        tri = build_triangle(*request.getfixturevalue(f"{name}_points"))
        products = count_calls(monkeypatch, dstrig.areas, "_vertex_products")
        angles = count_calls(monkeypatch, dstrig.areas, "_angles")
        girard_area(tri)
        assert len(products) == 1 and len(angles) == 1
        assert angles[0][1] == dstrig.triangles._vertex_products(tri._tangent_rows)

    def test_same_bits_as_before(self):
        for seed in range(64):
            tri = random_buildable_triangle(seed, u_max=6.0 if seed % 2 else 2.0)
            assert _bits(_outcome(_new_girard_area, tri)) == _bits(_outcome(_ref_girard_area, tri))
            assert _bits(_outcome(interior_angles, tri)) \
                == _bits(_outcome(_ref_angles, tri._tangent_rows))


def _injected(tri, j, k, row):
    tangents = tri.tangents.copy()
    tangents[j, k] = row
    return with_arrays(tri, tangents=tangents)


class TestAreaRefusals:
    """Injected tangent rows are refused as before, but for rows that
    _tangent never makes: an all-zero one is null now, not zero."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_refuses_what_it_refused(self, request, name):
        tri = build_triangle(*request.getfixturevalue(f"{name}_points"))
        seen = set()
        for j in range(3):
            for k in _others(j):
                t = tri.tangents[j, k]
                # <t,t> = 1 + 2e-9 and 1 - 2e-9, two null rows, and nan.
                for row in (t * (1.0 + 1e-9), t * (1.0 - 1e-9), np.array([1.0, 1.0, 0.0]),
                            np.array([-2.0, 0.0, 2.0]), np.full(3, np.nan)):
                    bad = _injected(tri, j, k, row)
                    ref = _outcome(_ref_girard_area, bad)
                    assert _outcome(_new_girard_area, bad) == ref
                    assert _outcome(interior_angles, bad) == _outcome(_ref_angles, bad._tangent_rows)
                    seen.add(ref[0])
        assert {NotUnitError, NullInputError} <= seen

    @pytest.mark.parametrize("name", FIXTURES)
    def test_rows_the_zero_test_refused(self, request, name):
        tri = build_triangle(*request.getfixturevalue(f"{name}_points"))
        zero = (ZeroVectorError, "causal type of the zero vector is undefined")
        for j in range(3):
            for k, label in zip(_others(j), "uv"):
                bad = _injected(tri, j, k, np.zeros(3))
                assert _outcome(_ref_angles, bad._tangent_rows) == zero
                null = (NullInputError, "pseudo angle requires non-null vectors")
                assert _outcome(interior_angles, bad) == null
                ref = _outcome(_ref_girard_area, bad)
                assert _outcome(_new_girard_area, bad) == (null if ref == zero else ref)
                # max() skips a nan after a 0.0, so the zero test refused this row too.
                bad = _injected(tri, j, k, np.array([0.0, np.nan, 0.0]))
                assert _outcome(_ref_angles, bad._tangent_rows) == zero
                off = (NotUnitError, f"{label} has <v,v> = nan, expected magnitude 1")
                assert _outcome(interior_angles, bad) == off
