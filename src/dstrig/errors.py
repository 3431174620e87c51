"""Exception types shared across the geometry kernel."""


class GeometryError(Exception):
    """Base class for every failure raised by this package.

    exit_code is the status the dstrig command exits with on this error.
    """

    exit_code = 1


class ZeroVectorError(GeometryError):
    """All components of a vector are below the zero threshold."""


class NotUnitError(GeometryError):
    """A vector expected to satisfy abs(<v,v>) = 1 does not."""


class NullInputError(GeometryError):
    """A null vector was passed where a definite causal type is required."""


class NotTimeLikeError(GeometryError):
    """A time-like vector was required."""


class NullSpanError(GeometryError):
    """The plane spanned by two vectors is degenerate (null)."""


class DegeneratePairError(GeometryError):
    """Two vectors are too close to parallel to define a normal."""


class NotSpaceLikePositionError(GeometryError):
    """A position vector with <v,v> > 0 was required for projection."""


class CoincidentPointsError(GeometryError):
    """Two quadric points coincide (or are antipodal) within tolerance."""

    exit_code = 3


class NullTangentError(GeometryError):
    """The direction from one point toward another is null."""


class UnsupportedKindError(GeometryError):
    """The segment kind does not support the requested operation."""

    exit_code = 5


class DegenerateTriangleError(GeometryError):
    """Triangle vertices are coincident or lie on a single geodesic."""

    exit_code = 3


class ImpossibleEdgeError(GeometryError):
    """A vertex pair admits no connecting geodesic (<p,q> < -1)."""

    exit_code = 5


class NullEdgeError(GeometryError):
    """An edge is a null line; no triangle object is built for these."""

    exit_code = 5


class NotSpatiolateralError(GeometryError):
    """A triangle with three space-like edges was required."""


class BoundaryCaseError(GeometryError):
    """Edge-length sum sits inside the tolerance band at 2*pi."""

    exit_code = 3


class NonContractibleError(GeometryError):
    """A non-contractible three-space-like-edge triangle bounds no area."""

    exit_code = 4


class UnsupportedTriangleTypeError(GeometryError):
    """A triangle with a null or impossible edge: none of the four null-free types.

    Raised by triangles.triangle_name, the one type check that every
    function reading a triangle's type goes through.
    """

    exit_code = 5


class NonConvergentError(GeometryError):
    """The oracle's panel bisection hit its panel cap before converging."""


class ExhaustedAttemptsError(GeometryError):
    """Rejection sampling hit the attempt budget without a match."""

    exit_code = 6
