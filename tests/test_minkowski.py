import ast
import cmath
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dstrig.areas
import dstrig.minkowski
import dstrig.oracle
from dstrig.errors import (
    DegeneratePairError,
    NotTimeLikeError,
    NotUnitError,
    NullInputError,
    NullSpanError,
    ZeroVectorError,
)
from dstrig.geodesics import project_to_quadric
from dstrig.minkowski import (
    METRIC,
    NULL_EPS,
    UNIT_EPS,
    AngleBranch,
    CausalType,
    _edge_code,
    _null,
    _require_unit,
    _unit,
    boost_matrix,
    causal_type,
    lorentz_cross,
    lorentz_normalize,
    mink_inner,
    pseudo_angle,
    pseudo_norm,
    random_lorentz,
    real_angle,
    rotation_matrix,
    same_time_cone,
    vec3,
)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
vectors = st.tuples(finite, finite, finite).map(lambda t: np.array(t))


def nonnull_vectors(min_q=1e-3):
    return vectors.filter(lambda v: abs(mink_inner(v, v)) > min_q)


def _reference_real_angle(u, v):
    """real_angle as it was before it shared pseudo_angle's front end."""
    qu = mink_inner(u, u)
    qv = mink_inner(v, v)
    tu = causal_type(u)
    tv = causal_type(v)
    if CausalType.NULL in (tu, tv):
        raise NullInputError("real angle requires non-null vectors")
    for label, q in (("u", qu), ("v", qv)):
        if abs(abs(q) - 1.0) > 1e-9:
            raise NotUnitError(f"{label} has <v,v> = {q!r}, expected magnitude 1")
    g = mink_inner(u, v)
    if tu is not tv:
        return math.asinh(g)
    if abs(abs(g) - 1.0) <= 1e-9:
        raise NullSpanError(f"span is null within tolerance: <u,v> = {g!r}")
    if abs(g) < 1.0:
        if tu is CausalType.TIME_LIKE:
            raise NullSpanError(f"time-like pair with <u,v> = {g!r}")
        return math.acos(g)
    return math.acosh(abs(g))


def _outcome(fn, u, v):
    """The result's bits, or the exception type and message."""
    try:
        return "ok", float.hex(fn(u, v))
    except Exception as exc:
        return type(exc), str(exc)


def _band_pairs():
    # Pairs whose <u,v> is exactly g, at and around the null span bands.
    pairs = []
    for g in (1.0, -1.0, 1.0 + 2e-9, 1.0 - 2e-9, -1.0 + 2e-9, -1.0 - 2e-9,
              1.0 + 5e-10, -1.0 - 5e-10, 0.999999, -0.999999, 1.000001, -1.000001):
        # space-like pair: u = e1, v = (1, g, sqrt(2 - g^2)) has <v,v> ~ 1
        pairs.append((vec3(0, 1, 0), vec3(1, g, math.sqrt(2.0 - g * g))))
        # time-like pair: u = e0, v = (-g, 0, 0); unit only near |g| = 1
        pairs.append((vec3(1, 0, 0), vec3(-g, 0, 0)))
        # mixed pair: u = e1, v = (sqrt(1 + g^2), g, 0)
        pairs.append((vec3(0, 1, 0), vec3(math.sqrt(1.0 + g * g), g, 0)))
    # time-like pairs with |<u,v>| < 1: off the unit band or inside the
    # null band, never a real angle
    for c in (1.0 - 4e-10, 1.0 - 2e-9, 0.5):
        pairs.append((vec3(1, 0, 0), vec3(c, 0, 0)))
        pairs.append((vec3(-1, 0, 0), vec3(c, 0, 0)))
    return pairs


class TestInner:
    def test_signature(self):
        assert mink_inner(vec3(1, 0, 0), vec3(1, 0, 0)) == -1.0
        assert mink_inner(vec3(0, 1, 0), vec3(0, 1, 0)) == 1.0
        assert mink_inner(vec3(0, 0, 1), vec3(0, 0, 1)) == 1.0
        assert METRIC.tolist() == [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_example(self):
        assert mink_inner(vec3(1, 2, 3), vec3(4, 5, 6)) == -4 + 10 + 18

    def test_vec3_component_beyond_float_range(self):
        # np.asarray raises a bare OverflowError on an int this large.
        with pytest.raises(ValueError, match="^vector component too large for a float$"):
            vec3(10**400, 0, 0)

    @given(u=vectors, v=vectors, w=vectors, a=finite)
    def test_bilinear_symmetric(self, u, v, w, a):
        left = mink_inner(u + a * w, v)
        right = mink_inner(u, v) + a * mink_inner(w, v)
        assert left == pytest.approx(right, abs=1e-9)
        assert mink_inner(u, v) == pytest.approx(mink_inner(v, u), abs=1e-12)


class TestCausalType:
    def test_examples(self):
        assert causal_type(vec3(0, 1, 0)) is CausalType.SPACE_LIKE
        assert causal_type(vec3(2, 0, 1)) is CausalType.TIME_LIKE
        assert causal_type(vec3(1, 1, 0)) is CausalType.NULL
        assert causal_type(vec3(5, 3, 4)) is CausalType.NULL

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            causal_type(vec3(0, 0, 0))

    @pytest.mark.parametrize("u", [[math.nan, 0.0, 0.0], [0.0, math.nan, 0.0],
                                   [math.inf, 0.0, 0.0], [1e200, 1e200, 1e200]])
    def test_non_finite_square_rejected(self, u):
        # A nan <u,u> used to fall through both bands and be filed as null,
        # and a nan past the first component passed as the zero vector.
        with pytest.raises(ValueError, match="^<u,u> is not finite"):
            causal_type(np.array(u))

    @given(v=nonnull_vectors(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_lorentz_invariant(self, v, seed):
        m = random_lorentz(np.random.default_rng(seed))
        assert causal_type(m @ v) is causal_type(v)


class TestPseudoNorm:
    def test_space(self):
        assert pseudo_norm(vec3(0, 3, 4)) == pytest.approx(5.0)

    def test_time(self):
        assert pseudo_norm(vec3(5, 3, 0)) == pytest.approx(4j)

    def test_null(self):
        assert pseudo_norm(vec3(1, 1, 0)) == 0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="^<u,u> is not finite"):
            pseudo_norm(np.array([math.nan, 1.0, 0.0]))

    @given(v=nonnull_vectors())
    def test_squares_back(self, v):
        assert pseudo_norm(v) ** 2 == pytest.approx(mink_inner(v, v), rel=1e-9)


class TestNormalize:
    @given(v=nonnull_vectors())
    def test_unit_result(self, v):
        w = lorentz_normalize(v)
        assert abs(abs(mink_inner(w, w)) - 1.0) < 1e-12

    def test_null_input(self):
        with pytest.raises(NullInputError):
            lorentz_normalize(vec3(1, 1, 0))

    @pytest.mark.parametrize("u", [[math.nan, 1.0, 0.0], [1e200, 1e200, 1e200]])
    def test_non_finite_rejected(self, u):
        with pytest.raises(ValueError, match="^<u,u> is not finite"):
            lorentz_normalize(np.array(u))


class TestThreeComponents:
    """The public functions on mink_inner refuse an operand that does not
    have three components with as_vec3's ValueError; they read only the
    first three of a longer one before."""

    SPACE, TIME = [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]
    CALLS = {
        "mink_inner": lambda bad: mink_inner(bad, TestThreeComponents.SPACE),
        "mink_inner second": lambda bad: mink_inner(TestThreeComponents.SPACE, bad),
        "causal_type": causal_type,
        "pseudo_norm": pseudo_norm,
        "pseudo_angle": lambda bad: pseudo_angle(bad, TestThreeComponents.SPACE),
        "pseudo_angle second": lambda bad: pseudo_angle(TestThreeComponents.SPACE, bad),
        "real_angle": lambda bad: real_angle(bad, TestThreeComponents.SPACE),
        "same_time_cone": lambda bad: same_time_cone(bad, TestThreeComponents.TIME),
        "same_time_cone second": lambda bad: same_time_cone(TestThreeComponents.TIME, bad),
        "lorentz_normalize": lorentz_normalize,
    }

    @pytest.mark.parametrize("bad, shape", [
        (np.array([0.0, 2.0, 1.0, 7.0]), (4,)),
        ([0, 2, 1, 7], (4,)),
        ([0.0, 1.0], (2,)),
    ], ids=["array4", "list4", "list2"])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_refused(self, call, bad, shape):
        with pytest.raises(ValueError, match=re.escape(f"expected 3 components, got shape {shape}")):
            self.CALLS[call](bad)

    def test_three_components_unchanged(self):
        assert lorentz_normalize([0, 2, 0]).tolist() == [0.0, 1.0, 0.0]
        assert mink_inner(np.array([1.0, 2.0, 3.0]), [1, 1, 1]) == 4.0


class TestTimeCone:
    def test_same_and_opposite(self):
        assert same_time_cone(vec3(1, 0, 0), vec3(2, 1, 0))
        assert not same_time_cone(vec3(1, 0, 0), vec3(-2, 1, 0))

    def test_requires_time_like(self):
        with pytest.raises(NotTimeLikeError):
            same_time_cone(vec3(0, 1, 0), vec3(1, 0, 0))


class TestPseudoAngle:
    """One example per branch of the six-way angle table."""

    def test_real_sector(self):
        phi = pseudo_angle(vec3(0, 1, 0), vec3(0, math.cos(0.7), math.sin(0.7)))
        assert phi.branch is AngleBranch.REAL_SECTOR
        assert phi.value == pytest.approx(0.7)
        assert phi.theta == pytest.approx(0.7)

    def test_pure_imag(self):
        # space-like pair spanning a time-like plane, product above 1
        u, v = vec3(0, 1, 0), vec3(math.sinh(0.9), math.cosh(0.9), 0)
        phi = pseudo_angle(u, v)
        assert phi.branch is AngleBranch.PURE_IMAG
        assert phi.value == pytest.approx(0.9j)

    def test_pi_minus_imag(self):
        u, v = vec3(0, 1, 0), vec3(math.sinh(0.9), -math.cosh(0.9), 0)
        phi = pseudo_angle(u, v)
        assert phi.branch is AngleBranch.PI_MINUS_IMAG
        assert phi.value == pytest.approx(math.pi - 0.9j)
        assert phi.theta == pytest.approx(0.9)

    def test_neg_imag(self):
        # time-like pair in a common cone
        u, v = vec3(1, 0, 0), vec3(math.cosh(1.3), math.sinh(1.3), 0)
        phi = pseudo_angle(u, v)
        assert phi.branch is AngleBranch.NEG_IMAG
        assert phi.value == pytest.approx(-1.3j)

    def test_pi_plus_imag(self):
        # time-like pair in opposite cones
        u, v = vec3(1, 0, 0), vec3(-math.cosh(1.3), math.sinh(1.3), 0)
        phi = pseudo_angle(u, v)
        assert phi.branch is AngleBranch.PI_PLUS_IMAG
        assert phi.value == pytest.approx(math.pi + 1.3j)

    def test_half_pi_plus_imag_signed(self):
        u = vec3(0, 1, 0)
        v = vec3(math.cosh(0.6), math.sinh(0.6), 0)
        phi = pseudo_angle(u, v)
        assert phi.branch is AngleBranch.HALF_PI_PLUS_IMAG
        assert phi.value == pytest.approx(math.pi / 2 + 0.6j)
        # the mixed-pair angle keeps its sign
        w = vec3(math.cosh(0.6), -math.sinh(0.6), 0)
        assert pseudo_angle(u, w).value == pytest.approx(math.pi / 2 - 0.6j)

    def test_requires_unit_vectors(self):
        with pytest.raises(NotUnitError):
            pseudo_angle(vec3(0, 2, 0), vec3(0, 1, 0))

    @pytest.mark.parametrize("fn", (pseudo_angle, real_angle))
    def test_overflowing_norm_is_not_unit(self, fn):
        # <u,u> overflows to nan, which is off the unit band, not null.
        big, unit = vec3(1e200, 1e200, 1e200), vec3(0, 1, 0)
        with pytest.raises(NotUnitError, match=r"^u has <v,v> = nan, expected magnitude 1$"):
            fn(big, unit)
        with pytest.raises(NotUnitError, match=r"^v has <v,v> = nan, expected magnitude 1$"):
            fn(unit, big)

    @pytest.mark.parametrize("fn", (pseudo_angle, real_angle))
    def test_null_input_message(self, fn):
        name = fn.__name__.replace("_", " ")
        with pytest.raises(NullInputError, match=f"^{name} requires non-null vectors$"):
            fn(vec3(1, 1, 0), vec3(0, 1, 0))
        with pytest.raises(ZeroVectorError):
            fn(vec3(0, 1, 0), vec3(0, 0, 0))

    @given(u=nonnull_vectors(), v=nonnull_vectors())
    @settings(max_examples=200)
    def test_cosine_identity(self, u, v):
        # cos(angle) times both pseudo-norms recovers the inner product
        u, v = lorentz_normalize(u), lorentz_normalize(v)
        phi = pseudo_angle(u, v)
        lhs = phi.cos() * pseudo_norm(u) * pseudo_norm(v)
        assert abs(lhs - mink_inner(u, v)) < 1e-9

    @given(u=nonnull_vectors(), v=nonnull_vectors())
    @settings(max_examples=200)
    def test_theta_matches_real_angle(self, u, v):
        u, v = lorentz_normalize(u), lorentz_normalize(v)
        phi = pseudo_angle(u, v)
        try:
            th = real_angle(u, v)
        except NullSpanError:
            return
        assert abs(phi.theta) == pytest.approx(abs(th), abs=1e-9)


class TestRealAngle:
    def test_space_pair(self):
        th = real_angle(vec3(0, 1, 0), vec3(0, math.cos(0.4), math.sin(0.4)))
        assert th == pytest.approx(0.4)

    def test_time_pair_same_cone(self):
        th = real_angle(vec3(1, 0, 0), vec3(math.cosh(0.8), math.sinh(0.8), 0))
        assert th == pytest.approx(0.8)

    def test_mixed_pair_signed(self):
        u = vec3(0, 1, 0)
        v = vec3(math.cosh(0.6), math.sinh(0.6), 0)
        assert real_angle(u, v) == pytest.approx(0.6)
        w = vec3(math.cosh(0.6), -math.sinh(0.6), 0)
        assert real_angle(u, w) == pytest.approx(-0.6)

    def test_null_span_rejected(self):
        u = vec3(0, 1, 0)
        with pytest.raises(NullSpanError):
            real_angle(u, u)

    @pytest.mark.parametrize("u, v, branch, g", [
        ((1627.8012178668268, -939.152199530552, 1329.5596831303408),
         (1627.8010583307025, -939.1521087481888, 1329.55955193304),
         AngleBranch.NEG_IMAG, -0.9999999988358468),
        ((4662.471743541571, -4535.676175957484, -1079.9460107687228),
         (-4662.471350293401, 4535.675792388427, 1079.9459239463731),
         AngleBranch.PI_PLUS_IMAG, 0.9999999983701855),
    ])
    def test_time_like_pair_inside_unit_ball_rejected(self, u, v, branch, g):
        # Both vectors pass the unit band, but rounding in <u,v> at these
        # magnitudes puts |<u,v>| below 1 - NULL_EPS, which no unit
        # time-like pair reaches exactly.
        u, v = vec3(*u), vec3(*v)
        assert pseudo_angle(u, v).branch is branch
        message = f"^time-like pair with <u,v> = {re.escape(repr(g))}$"
        with pytest.raises(NullSpanError, match=message):
            real_angle(u, v)


class TestRealAngleReference:
    """real_angle against its own branch ladder as it stood before."""

    @given(u=nonnull_vectors(), v=nonnull_vectors())
    @settings(max_examples=300)
    def test_unit_pairs_bit_identical(self, u, v):
        u, v = lorentz_normalize(u), lorentz_normalize(v)
        assert _outcome(real_angle, u, v) == _outcome(_reference_real_angle, u, v)

    @given(u=vectors, v=vectors)
    @settings(max_examples=200)
    def test_raw_pairs_same_outcome(self, u, v):
        # Mostly off the unit band: the checks must fire in the same order.
        assert _outcome(real_angle, u, v) == _outcome(_reference_real_angle, u, v)

    def test_band_pairs(self):
        outcomes = set()
        for u, v in _band_pairs():
            for a, b in ((u, v), (v, u)):
                got = _outcome(real_angle, a, b)
                assert got == _outcome(_reference_real_angle, a, b), (a, b)
                outcomes.add(got[0])
        assert {"ok", NullSpanError, NotUnitError} <= outcomes


def _exact_det(*rows):
    """det of a 3x3 matrix of floats, computed exactly and rounded once."""
    (a, b, c), (d, e, f), (g, h, i) = ([Fraction(float(x)) for x in r] for r in rows)
    return float(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g))


class TestLorentzCross:
    def test_matches_euclidean_cross_with_flip(self):
        u, v = vec3(0.3, -1.2, 0.7), vec3(1.1, 0.4, -0.5)
        w = lorentz_cross(u, v)
        expected = METRIC @ np.cross(u, v)
        np.testing.assert_allclose(w, expected, atol=1e-14)

    @given(u=vectors, v=vectors, c=vectors, d=vectors)
    @settings(max_examples=150)
    # Tiny third operands, where a floating determinant loses relative accuracy.
    @example(u=vec3(0, 0, 1), v=vec3(1, 0, 0), c=vec3(0, 6.401060512233722e-253, 0), d=vec3(0, 0, 0))
    @example(u=vec3(0, 1, 0), v=vec3(1, 0, 0), c=vec3(0, 0, 5.4e-266), d=vec3(0, 0, 0))
    @example(
        u=vec3(0, 2.1934450588357848, 0),
        v=vec3(2.9375, 0, 0),
        c=vec3(0, 0, 5.733447017627117e-191),
        d=vec3(0, 0, 0),
    )
    def test_orthogonal_and_lagrange(self, u, v, c, d):
        try:
            w = lorentz_cross(u, v)
        except DegeneratePairError:
            return
        assert abs(mink_inner(w, u)) < 1e-9
        assert abs(mink_inner(w, v)) < 1e-9
        lagrange = mink_inner(u, v) ** 2 - mink_inner(u, u) * mink_inner(v, v)
        assert mink_inner(w, w) == pytest.approx(lagrange, abs=1e-8)

        # Rounding scales with the product of the operands' Euclidean
        # sizes (hypot, since squaring tiny components underflows); the
        # absolute floor covers subnormal components.
        def close(x, y, *operands):
            size = math.prod(math.hypot(*map(float, a)) for a in operands)
            return abs(x - y) <= 1e-14 * size + 1e-300

        # triple product: <u x v, c> = det[c; u; v], the reference exact
        assert close(mink_inner(w, c), _exact_det(c, u, v), u, v, c)
        try:
            z = lorentz_cross(c, d)
        except DegeneratePairError:
            return
        # four-vector Lagrange identity: <u x v, c x d> = <u,d><v,c> - <u,c><v,d>
        binet = mink_inner(u, d) * mink_inner(v, c) - mink_inner(u, c) * mink_inner(v, d)
        assert close(mink_inner(w, z), binet, u, v, c, d)

    def test_parallel_rejected(self):
        with pytest.raises(DegeneratePairError):
            lorentz_cross(vec3(0, 1, 0), vec3(0, -2, 0))

    @pytest.mark.parametrize("u, v", [
        ([math.nan, 0.0, 0.0], [0.0, 1.0, 0.0]),
        ([math.inf, 0.0, 0.0], [0.0, 1.0, 0.0]),
        ([1e200, 1e200, 0.0], [0.0, 1e200, 1e200]),  # finite inputs, overflowing product
    ])
    def test_non_finite_rejected(self, u, v):
        with pytest.raises(ValueError, match="^<w,w> of the cross product is not finite"):
            lorentz_cross(u, v)


class TestLorentzGroup:
    @given(chi=st.floats(-3, 3), a=st.floats(-7, 7))
    @settings(max_examples=60)
    def test_matrices_preserve_metric(self, chi, a):
        for m in (boost_matrix(chi), rotation_matrix(a)):
            np.testing.assert_allclose(m.T @ METRIC @ m, METRIC, atol=1e-12)
            assert np.linalg.det(m) == pytest.approx(1.0)

    @given(seed=st.integers(0, 2**32 - 1), u=vectors, v=vectors)
    @settings(max_examples=80)
    def test_random_lorentz_preserves_inner(self, seed, u, v):
        m = random_lorentz(np.random.default_rng(seed))
        np.testing.assert_allclose(m.T @ METRIC @ m, METRIC, atol=1e-10)
        assert mink_inner(m @ u, m @ v) == pytest.approx(mink_inner(u, v), abs=1e-8)

    @pytest.mark.parametrize("chi, message", [
        (1e3, "gives no finite boost"),
        (-1e3, "gives no finite boost"),
        (math.nan, "is not finite"),
        (math.inf, "is not finite"),
    ])
    def test_boost_rejects_bad_rapidity(self, chi, message):
        with pytest.raises(ValueError, match=message):
            boost_matrix(chi)

    @pytest.mark.parametrize("angle", [math.nan, math.inf])
    def test_rotation_rejects_non_finite_angle(self, angle):
        with pytest.raises(ValueError, match="^angle is not finite"):
            rotation_matrix(angle)

    def test_random_lorentz_overflowing_rapidity(self):
        # Seed 0 draws a rapidity of about -918, beyond cosh's float range.
        with pytest.raises(ValueError, match="gives no finite boost"):
            random_lorentz(np.random.default_rng(0), max_rapidity=1e3)

    @pytest.mark.parametrize("max_rapidity", [math.inf, math.nan, 1e308])
    def test_random_lorentz_rejects_non_finite_range(self, max_rapidity):
        # 1e308 is finite, but its range 2 * 1e308 overflows.
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"^2 \* max_rapidity is not finite"):
            random_lorentz(rng, max_rapidity=max_rapidity)
        assert rng.bit_generator.state == state  # refused before any draw

    def test_random_lorentz_rejects_negative_range(self):
        with pytest.raises(ValueError):
            random_lorentz(np.random.default_rng(0), max_rapidity=-1.0)

    def test_random_lorentz_draws_three_values(self):
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        a, b = ref.uniform(0.0, 2.0 * math.pi), ref.uniform(0.0, 2.0 * math.pi)
        chi = ref.uniform(-1.5, 1.5)
        np.testing.assert_array_equal(
            random_lorentz(rng, max_rapidity=1.5),
            rotation_matrix(a) @ boost_matrix(chi) @ rotation_matrix(b))
        assert rng.random() == ref.random()

    def test_boost_is_orthochronous(self):
        m = boost_matrix(1.5)
        assert m[0, 0] >= 1.0
        assert cmath.isclose(m[0, 0], math.cosh(1.5))


SRC = Path(__file__).resolve().parents[1] / "src" / "dstrig"


def _ulps(t):
    """t and the floats 1 and 2 ulp on either side of it."""
    down = math.nextafter(t, -math.inf)
    up = math.nextafter(t, math.inf)
    return [math.nextafter(down, -math.inf), down, t, up, math.nextafter(up, math.inf)]


# Every predicate's thresholds, each with its 2-ulp neighbourhood, and the
# specials; each predicate is fed all of them.
_THRESHOLDS = [1.0 + NULL_EPS, 1.0 - NULL_EPS, 1.0, -1.0 + NULL_EPS, -1.0,
               1.0 + UNIT_EPS, 1.0 - UNIT_EPS, NULL_EPS, -NULL_EPS]
_BAND_VALUES = [x for t in _THRESHOLDS for x in _ulps(t)] + [0.0, -0.0, math.inf, -math.inf,
                                                             math.nan]

# The expressions each site wrote out before the band table, copied.


def _old_edge_code(c):
    # classify_segment's chain and the sampler's inline code.
    return 16 if abs(c - 1.0) <= NULL_EPS else 4 if c > 1.0 else 1 if c > -1.0 + NULL_EPS else 64


def _old_unit(q):
    # DeSitterPoint's and the sampler's unit test.
    return abs(q - 1.0) <= UNIT_EPS


def _old_null(x):
    # _tangent's and _checked_angle's null test.
    return abs(x) <= NULL_EPS


def _old_causal(q):
    # causal_type's two one-sided tests.
    return "space" if q > NULL_EPS else "time" if q < -NULL_EPS else "null"


def _old_span_null(c):
    # classify_span's and _span_theta's test.
    return abs(abs(c) - 1.0) <= NULL_EPS


def _raises(fn, *args):
    try:
        fn(*args)
    except Exception as exc:
        return type(exc)
    return None


class TestBandTable:
    """minkowski's band predicates make the decisions the sites' inline
    expressions made, at the band edges themselves; the digests reach only
    sampled values."""

    @pytest.mark.parametrize("x", _BAND_VALUES)
    def test_predicates_match_the_old_expressions(self, x):
        assert _edge_code(x) == _old_edge_code(x)
        assert _unit(x) == _old_unit(x)
        assert _null(x) == _old_null(x)
        assert _null(abs(x) - 1.0) == _old_span_null(x)
        # _require_unit's negated test: a nan <v,v> fails it.
        assert (_raises(_require_unit, x, "v") is NotUnitError) == (not abs(abs(x) - 1.0) <= UNIT_EPS)

    def test_neighbourhoods_straddle_every_edge(self):
        # Each threshold's 2-ulp neighbourhood reaches both of its sides.
        assert {_edge_code(x) for x in _ulps(1.0 + NULL_EPS)} == {4, 16}
        assert {_edge_code(x) for x in _ulps(1.0 - NULL_EPS)} == {1, 16}
        assert {_edge_code(x) for x in _ulps(-1.0 + NULL_EPS)} == {1, 64}
        for t in (1.0 + UNIT_EPS, 1.0 - UNIT_EPS):
            assert {_unit(x) for x in _ulps(t)} == {True, False}
        for t in (NULL_EPS, -NULL_EPS):
            assert {_null(x) for x in _ulps(t)} == {True, False}
        assert _edge_code(math.nan) == 64 and not _unit(math.nan) and not _null(math.nan)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_causal_type_and_projection_at_the_null_edge(self, sign):
        # <u,u> = +-s*s for s near sqrt(NULL_EPS): the q's sit on both sides
        # of +-NULL_EPS, and each site decides as its one-sided test did.
        kinds = set()
        for s in _ulps(math.sqrt(NULL_EPS)):
            u = [0.0, 0.0, s] if sign > 0 else [s, 0.0, 0.0]
            q = mink_inner(u, u)
            want = _old_causal(q)
            kinds.add(want)
            assert causal_type(u).value.split("_")[0] == want
            refused = _raises(project_to_quadric, u) is not None
            assert refused == (q <= NULL_EPS)
        assert kinds == {"null", "space" if sign > 0 else "time"}


def _band_comparisons(source, table=()):
    """Lines where the module source compares with NULL_EPS or UNIT_EPS, or
    binds another name to an expression of them, outside the functions
    named in table.  _UNIT_SAFE_U's derivation reads UNIT_EPS and makes
    no comparison, so it is allowed."""
    bands = {"NULL_EPS", "UNIT_EPS"}
    lines = []

    def names_band(node):
        return any(isinstance(n, ast.Name) and n.id in bands for n in ast.walk(node))

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in table:
            return
        if isinstance(node, ast.Compare) and names_band(node):
            lines.append(node.lineno)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr)) \
                and node.value is not None and names_band(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if [getattr(t, "id", None) for t in targets] != ["_UNIT_SAFE_U"]:
                lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return sorted(set(lines))


class TestBandTableStructure:
    """Only minkowski's predicates compare with the band widths."""

    TABLE = ("_null", "_unit", "_edge_code")

    def test_only_the_table_compares_with_the_bands(self):
        paths = sorted(SRC.glob("*.py"))
        assert {p.name for p in paths} >= {"minkowski.py", "geodesics.py", "oracle.py"}
        found = {p.name: _band_comparisons(p.read_text(), self.TABLE if p.name == "minkowski.py"
                                           else ()) for p in paths}
        assert found == {p.name: [] for p in paths}

    def test_the_table_holds_the_band_comparisons(self):
        # Without the table's exemption, minkowski's predicates are where
        # the comparisons are: the guard sees them.
        source = (SRC / "minkowski.py").read_text()
        assert len(_band_comparisons(source)) == 4

    @pytest.mark.parametrize("source, line", [
        ("if not abs(q - 1.0) <= UNIT_EPS:\n    pass\n", 1),
        ("kind = 1 if c > -1.0 + NULL_EPS else 64\n", 1),
        ("unit, null, impossible = UNIT_EPS, NULL_EPS, -1.0 + NULL_EPS\n", 1),
        ("def _null(x):\n    return abs(x) <= NULL_EPS\n", 2),
    ])
    def test_guard_sees_written_out_bands(self, source, line):
        # Inline forms the sites wrote before the table, and a predicate
        # defined outside minkowski.
        assert _band_comparisons(source) == [line]


def _acosh_clamps(source, clamp=()):
    """Lines where the module source takes an acosh of a max(...), outside
    the functions named in clamp."""
    def called(call):
        return getattr(call.func, "attr", getattr(call.func, "id", None))

    lines = []

    def visit(node):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in clamp:
            return
        if isinstance(node, ast.Call) and called(node) in ("acosh", "arccosh") and node.args \
                and isinstance(node.args[0], ast.Call) \
                and called(node.args[0]) in ("max", "maximum", "fmax"):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return sorted(set(lines))


class TestAcoshClampSite:
    """Only minkowski._acosh_at_least_one clamps an acosh argument."""

    CLAMP = ("_acosh_at_least_one",)

    def test_only_the_clamp_clamps(self):
        paths = sorted(SRC.glob("*.py"))
        assert {p.name for p in paths} >= {"minkowski.py", "areas.py", "oracle.py"}
        found = {p.name: _acosh_clamps(p.read_text(), self.CLAMP if p.name == "minkowski.py"
                                       else ()) for p in paths}
        assert found == {p.name: [] for p in paths}

    def test_the_clamp_holds_the_clamp(self):
        # Without its exemption, the clamp itself is minkowski's one clamp.
        assert len(_acosh_clamps((SRC / "minkowski.py").read_text())) == 1

    def test_the_callers_share_the_clamp(self):
        clamp = dstrig.minkowski._acosh_at_least_one
        assert dstrig.areas._acosh_at_least_one is clamp
        assert dstrig.oracle._acosh_at_least_one is clamp

    @pytest.mark.parametrize("source, line", [
        ("value = complex(0.0, -math.acosh(max(-g, 1.0)))\n", 1),
        ("t1 = math.acosh(max(g1, 1.0))\n", 1),
        ("def _acosh_at_least_one(x):\n    return math.acosh(max(x, 1.0))\n", 2),
        ("d = np.arccosh(np.maximum(c, 1.0))\n", 1),
    ])
    def test_guard_sees_written_out_clamps(self, source, line):
        # Inline forms the sites wrote before the one clamp, and a clamp
        # defined outside minkowski.
        assert _acosh_clamps(source) == [line]

    def test_clamp_takes_a_product_just_below_one(self):
        clamp, below = dstrig.minkowski._acosh_at_least_one, 1.0 - 2.0 ** -53
        with pytest.raises(ValueError):
            math.acosh(below)
        assert clamp(below) == 0.0
        assert clamp(2.0) == math.acosh(2.0)
