import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dstrig.errors import (
    DegeneratePairError,
    NotTimeLikeError,
    NotUnitError,
    NullInputError,
    NullSpanError,
    ZeroVectorError,
)
from dstrig.minkowski import (
    METRIC,
    AngleBranch,
    CausalType,
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


class TestLorentzCross:
    def test_matches_euclidean_cross_with_flip(self):
        u, v = vec3(0.3, -1.2, 0.7), vec3(1.1, 0.4, -0.5)
        w = lorentz_cross(u, v)
        expected = METRIC @ np.cross(u, v)
        np.testing.assert_allclose(w, expected, atol=1e-14)

    @given(u=vectors, v=vectors)
    @settings(max_examples=150)
    def test_orthogonal_and_lagrange(self, u, v):
        try:
            w = lorentz_cross(u, v)
        except DegeneratePairError:
            return
        assert abs(mink_inner(w, u)) < 1e-9
        assert abs(mink_inner(w, v)) < 1e-9
        lagrange = mink_inner(u, v) ** 2 - mink_inner(u, u) * mink_inner(v, v)
        assert mink_inner(w, w) == pytest.approx(lagrange, abs=1e-8)

    def test_parallel_rejected(self):
        with pytest.raises(DegeneratePairError):
            lorentz_cross(vec3(0, 1, 0), vec3(0, -2, 0))


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

    def test_boost_is_orthochronous(self):
        m = boost_matrix(1.5)
        assert m[0, 0] >= 1.0
        assert cmath.isclose(m[0, 0], math.cosh(1.5))
