"""Arithmetic in 3D Minkowski space with signature (-,+,+).

The first coordinate x0 is the time coordinate; "future" means x0 > 0.
The scalar functions take any three-component sequence (a list, a tuple
or a numpy array of shape (3,)) and compute on Python floats, in
mink_inner's operation order.  Only the functions that return a vector
or a matrix build numpy arrays, and numpy is imported by their first
call, so importing the module does not load it.  Angles between unit
vectors are complex in general: real for a space-like pair in the same
sector, otherwise carrying an imaginary hyperbolic part whose branch is
tracked explicitly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .errors import (
    DegeneratePairError,
    NotTimeLikeError,
    NotUnitError,
    NullInputError,
    NullSpanError,
    ZeroVectorError,
)

if TYPE_CHECKING:
    import numpy as np

# Width of the null band on <u,u>: values inside are treated as null and
# rejected loudly by operations that need a definite causal type.
NULL_EPS = 1e-9
# Band on abs(<u,u>) - 1 for unit-vector checks.
UNIT_EPS = 1e-9
# Hard zero for component-level degeneracy checks.
ZERO_EPS = 1e-12


# The band table: every null, unit and edge-band decision of the package
# is one of these predicates, and only they compare with NULL_EPS and
# UNIT_EPS.  A nan is neither null nor unit, and codes an impossible edge.

def _null(x: float) -> bool:
    """x is in the null band around 0."""
    return abs(x) <= NULL_EPS


def _unit(q: float) -> bool:
    """<v,v> = q is in the unit band around 1."""
    return abs(q - 1.0) <= UNIT_EPS


def _edge_code(c: float) -> int:
    """Code of the geodesic between quadric points with <p,q> = c: 1 for
    an ellipse arc, 4 for a hyperbola branch, 16 for a null line (c in
    the null band around 1) and 64 for impossible (c at most
    -1 + NULL_EPS, or nan: the band around -1 admits no geodesic)."""
    return (16 if abs(c - 1.0) <= NULL_EPS else 4 if c > 1.0
            else 1 if c > -1.0 + NULL_EPS else 64)


def _acosh_at_least_one(x: float) -> float:
    """acosh of x that is >= 1 in exact arithmetic but may round below 1.

    The package's one acosh clamp: the time-like branches of
    _checked_angle, the product-form area and the oracle's structure
    check take their acosh of a tangent product through it."""
    return math.acosh(max(x, 1.0))


def _require_nonzero(u) -> None:
    if max(abs(u[0]), abs(u[1]), abs(u[2])) < ZERO_EPS:
        raise ZeroVectorError("causal type of the zero vector is undefined")


def __getattr__(name: str):
    # METRIC, the read-only diag(-1, 1, 1), is built on first access: importing
    # this module loads no numpy.
    if name == "METRIC":
        import numpy as np

        metric = np.diag([-1.0, 1.0, 1.0])
        metric.setflags(write=False)
        globals()["METRIC"] = metric
        return metric
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CausalType(Enum):
    SPACE_LIKE = "space_like"
    TIME_LIKE = "time_like"
    NULL = "null"


class AngleBranch(Enum):
    """Branch of the complex angle between two unit non-null vectors.

    With t >= 0 (t real for the mixed case) the angle value is:

    REAL_SECTOR        t          space-like pair, inner product in [-1, 1]
    PI_MINUS_IMAG      pi - i*t   space-like pair, inner product < -1
    PURE_IMAG          i*t        space-like pair, inner product > 1
    NEG_IMAG           -i*t       time-like pair, same time cone
    PI_PLUS_IMAG       pi + i*t   time-like pair, different time cones
    HALF_PI_PLUS_IMAG  pi/2 + i*t mixed pair
    """

    REAL_SECTOR = "real_sector"
    PI_MINUS_IMAG = "pi_minus_imag"
    PURE_IMAG = "pure_imag"
    NEG_IMAG = "neg_imag"
    PI_PLUS_IMAG = "pi_plus_imag"
    HALF_PI_PLUS_IMAG = "half_pi_plus_imag"


@dataclass(frozen=True)
class PseudoAngle:
    """Complex angle plus the branch it was taken on."""

    value: complex
    branch: AngleBranch

    @property
    def theta(self) -> float:
        """Real hyperbolic/circular magnitude recovered from the branch."""
        if self.branch is AngleBranch.REAL_SECTOR:
            return self.value.real
        if self.branch in (AngleBranch.PURE_IMAG, AngleBranch.PI_PLUS_IMAG,
                           AngleBranch.HALF_PI_PLUS_IMAG):
            return self.value.imag
        # PI_MINUS_IMAG and NEG_IMAG carry -t in the imaginary part.
        return -self.value.imag

    def cos(self) -> complex:
        return cmath.cos(self.value)


def vec3(x0: float, x1: float, x2: float) -> np.ndarray:
    """Build a Minkowski 3-vector, rejecting non-finite components."""
    return as_vec3([x0, x1, x2])


def as_vec3(value) -> np.ndarray:
    import numpy as np

    try:
        v = np.asarray(value, dtype=float)
    except OverflowError:
        raise ValueError("vector component too large for a float") from None
    if v.shape != (3,):
        raise ValueError(f"expected 3 components, got shape {v.shape}")
    if not all(map(math.isfinite, v.tolist())):
        raise ValueError(f"non-finite vector components: {v!r}")
    return v


def _float3(value) -> tuple[float, float, float]:
    # as_vec3(value) as Python floats; a list or tuple of three finite floats needs no array.
    if type(value) in (list, tuple) and len(value) == 3 \
            and all([type(c) is float and math.isfinite(c) for c in value]):
        return tuple(value)
    return tuple(as_vec3(value).tolist())


def mink_inner(u, v) -> float:
    """Bilinear form -u0*v0 + u1*v1 + u2*v2."""
    # In Python floats, an overflow gives inf or nan without a numpy warning.
    return (-float(u[0]) * float(v[0]) + float(u[1]) * float(v[1])
            + float(u[2]) * float(v[2]))


def _finite(x: float, what: str) -> float:
    if not math.isfinite(x):
        raise ValueError(f"{what} is not finite: {x!r}")
    return x


def causal_type(u) -> CausalType:
    q = _finite(mink_inner(u, u), "<u,u>")
    _require_nonzero(u)
    if _null(q):
        return CausalType.NULL
    return CausalType.SPACE_LIKE if q > 0.0 else CausalType.TIME_LIKE


def pseudo_norm(u) -> complex:
    """0 for null input, sqrt|<u,u>| if space-like, i*sqrt|<u,u>| if time-like."""
    kind = causal_type(u)
    if kind is CausalType.NULL:
        return 0j
    root = math.sqrt(abs(mink_inner(u, u)))
    if kind is CausalType.SPACE_LIKE:
        return complex(root, 0.0)
    return complex(0.0, root)


def lorentz_normalize(u) -> np.ndarray:
    """Scale u so abs(<u,u>) = 1; null input cannot be normalized."""
    import numpy as np

    return np.array(_normalized(np.asarray(u, dtype=float).tolist()))


def _normalized(x: list[float]) -> list[float]:
    # lorentz_normalize on a list of Python floats.
    q = _finite(mink_inner(x, x), "<u,u>")
    if abs(q) <= ZERO_EPS:
        raise NullInputError("cannot normalize a (near-)null vector")
    r = math.sqrt(abs(q))
    return [c / r for c in x]


def _require_unit(q, label: str) -> None:
    # Negated so that a nan <v,v> (overflow of a huge vector) fails too.
    if not _unit(abs(q)):
        raise NotUnitError(f"{label} has <v,v> = {q!r}, expected magnitude 1")


def same_time_cone(u, v) -> bool:
    """True when two time-like vectors point into the same time cone."""
    for label, w in (("u", u), ("v", v)):
        if causal_type(w) is not CausalType.TIME_LIKE:
            raise NotTimeLikeError(f"{label} is not time-like")
    return mink_inner(u, v) < 0.0


def _checked_angle(u, v, what: str) -> tuple[PseudoAngle, float]:
    """The complex angle between unit non-null vectors, and <u,v>.

    The one front end of pseudo_angle, real_angle and interior_angles:
    it checks both vectors and holds the six-branch table.  what names
    the caller in the null-input message.
    """
    _require_nonzero(u)
    _require_nonzero(v)
    qu = mink_inner(u, u)
    qv = mink_inner(v, v)
    # A nan <v,v> is not null: the unit check rejects it.
    if _null(qu) or _null(qv):
        raise NullInputError(f"{what} requires non-null vectors")
    _require_unit(qu, "u")
    _require_unit(qv, "v")
    g = mink_inner(u, v)

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


def _span_theta(phi: PseudoAngle, g: float) -> float:
    """phi.theta, once the plane the pair spans is known not to be null."""
    # A mixed pair always spans a time-like plane.
    if phi.branch is not AngleBranch.HALF_PI_PLUS_IMAG:
        if _null(abs(g) - 1.0):
            raise NullSpanError(f"span is null within tolerance: <u,v> = {g!r}")
        if abs(g) < 1.0 and phi.branch is not AngleBranch.REAL_SECTOR:
            # Unit time-like pairs always satisfy abs(<u,v>) >= 1.
            raise NullSpanError(f"time-like pair with <u,v> = {g!r}")
    return phi.theta


def pseudo_angle(u, v) -> PseudoAngle:
    """Complex angle between unit non-null vectors, branch tracked.

    Defined through cos(angle) = <u,v> / (pseudo_norm(u) * pseudo_norm(v));
    the branch resolves which complex arc cosine is meant.
    """
    return _checked_angle(u, v, "pseudo angle")[0]


def real_angle(u, v) -> float:
    """Real angle magnitude between unit non-null vectors.

    Circular arc cosine when the spanned plane is space-like, hyperbolic
    functions when it is time-like.  Signed only in the mixed case.
    """
    return _span_theta(*_checked_angle(u, v, "real angle"))


def lorentz_cross(u, v) -> np.ndarray:
    """Vector orthogonal (in the Minkowski sense) to both u and v.

    Components: (u2*v1 - u1*v2, u2*v0 - u0*v2, u0*v1 - u1*v0).  Raises
    when the result is (near-)zero, i.e. the inputs are parallel.
    """
    import numpy as np

    u0, u1, u2 = map(float, u)
    v0, v1, v2 = map(float, v)
    return np.array(_cross((u0, u1, u2), (v0, v1, v2)))


def _cross(u, v) -> list[float]:
    # lorentz_cross on three Python floats each.
    (u0, u1, u2), (v0, v1, v2) = u, v
    w = [u2 * v1 - u1 * v2, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0]
    if abs(_finite(mink_inner(w, w), "<w,w> of the cross product")) < ZERO_EPS * ZERO_EPS:
        raise DegeneratePairError("inputs span no definite normal direction")
    return w


def boost_matrix(rapidity: float) -> np.ndarray:
    """Boost in the (x0, x1) plane; preserves the form and time orientation."""
    import numpy as np

    try:
        ch, sh = math.cosh(_finite(rapidity, "rapidity")), math.sinh(rapidity)
    except OverflowError:
        raise ValueError(f"rapidity {rapidity!r} gives no finite boost") from None
    return np.array([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])


def rotation_matrix(angle: float) -> np.ndarray:
    """Rotation in the (x1, x2) plane."""
    import numpy as np

    c, s = math.cos(_finite(angle, "angle")), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def random_lorentz(rng: np.random.Generator, max_rapidity: float = 2.0) -> np.ndarray:
    """Random proper orthochronous transform: rotation * boost * rotation."""
    _finite(max_rapidity - -max_rapidity, "2 * max_rapidity")  # before any draw
    a = rng.uniform(0.0, 2.0 * math.pi)
    b = rng.uniform(0.0, 2.0 * math.pi)
    chi = rng.uniform(-max_rapidity, max_rapidity)
    return rotation_matrix(a) @ boost_matrix(chi) @ rotation_matrix(b)
