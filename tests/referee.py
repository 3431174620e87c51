"""High-precision referee for triangle areas (test-only; needs mpmath).

stokes_area(points) evaluates |oint x0 (x1 dx2 - x2 dx1) / (x1^2 + x2^2)|
along the three geodesic edges at 40 significant digits, over the exact
values of the given float vertices.  Each edge is interpolated from
<p,q> as an ellipse (sin) or a hyperbola (sinh) and the cross term is
computed from the point and its derivative as written, without the
constant-Wronskian shortcut that dstrig.oracle takes.  Results are
cached by vertex values, since several tests referee the same triangles.
"""

import functools

import mpmath as mp

DPS = 40
# Subintervals per edge handed to mp.quad; each is integrated to DPS digits.
# Every triangle the tests referee gives the same float at 2 as at 16.  An
# edge whose error estimate misses the bound at PIECES is retried at
# RETRY_PIECES (pool record chorosceles u_max 6 seed 51 needs it).
PIECES = 2
RETRY_PIECES = 16


def _edge_integral(p, q):
    c = -p[0] * q[0] + p[1] * q[1] + p[2] * q[2]
    if c < 1:
        d, sn, cs = mp.acos(c), mp.sin, mp.cos
    else:
        d, sn, cs = mp.acosh(c), mp.sinh, mp.cosh
    sd = sn(d)

    def integrand(s):
        a, b = sn((1 - s) * d) / sd, sn(s * d) / sd
        da, db = -d * cs((1 - s) * d) / sd, d * cs(s * d) / sd
        x = [a * pi + b * qi for pi, qi in zip(p, q)]
        y = [da * pi + db * qi for pi, qi in zip(p, q)]
        return x[0] * (x[1] * y[2] - x[2] * y[1]) / (x[1] ** 2 + x[2] ** 2)

    for pieces in (PIECES, RETRY_PIECES):
        value, err = mp.quad(integrand, mp.linspace(0, 1, pieces + 1), error=True)
        if err <= mp.mpf(10) ** (10 - DPS):
            return value
    raise ArithmeticError(f"referee quadrature error {err} too large")


@functools.lru_cache(maxsize=None)
def _loop_area(rows: tuple) -> float:
    with mp.workdps(DPS):
        v = [[mp.mpf(x) for x in row] for row in rows]
        total = mp.fsum(_edge_integral(v[j], v[(j + 1) % 3]) for j in range(3))
        return float(abs(total))


def stokes_area(points) -> float:
    """The area bounded by the loop through the three points, as a float.

    Each edge is split into PIECES subintervals, and each edge's quadrature
    error estimate is held to 10**(10 - DPS): an edge that misses it is
    split again into RETRY_PIECES, and raises ArithmeticError if it still
    misses.
    """
    return _loop_area(tuple(tuple(float(x) for x in p.v) for p in points))
