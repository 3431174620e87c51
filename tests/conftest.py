import math

import numpy as np
import pytest

import dstrig.oracle
from dstrig.geodesics import DeSitterPoint
from dstrig.triangles import DeSitterTriangle

# One line per acceptance criterion, printed at the end of the run.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def with_arrays(tri: DeSitterTriangle, **arrays) -> DeSitterTriangle:
    """tri's vertices and edges, with the given tangents or normals in place of its own.

    cached_property looks in the instance dict first, so an array written
    there is what every reader of that attribute gets.  Given tangents are
    also written as _tangent_rows, the float rows the area path reads.
    """
    assert set(arrays) <= {"tangents", "normals"}, sorted(arrays)
    made = DeSitterTriangle(tri.points, tri.edges)
    vars(made).update(arrays)
    if "tangents" in arrays:
        vars(made)["_tangent_rows"] = arrays["tangents"].tolist()
    return made


def count_calls(monkeypatch, module, name: str) -> list:
    """Replace module.<name> by a wrapper; returns the list of its calls' arguments."""
    calls = []
    wrapped = getattr(module, name)

    def count(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(module, name, count)
    return calls


def chart_point(u: float, psi: float) -> DeSitterPoint:
    """Global chart of the quadric: (sinh u, cosh u cos psi, cosh u sin psi)."""
    return DeSitterPoint(np.array([
        math.sinh(u), math.cosh(u) * math.cos(psi), math.cosh(u) * math.sin(psi)]))


@pytest.fixture
def corrupt_normals(monkeypatch):
    """Shift every normal of verify_type's triangles by 1e-3.

    The oracle never reads normals, so the identity checks must fail.
    """
    generate = dstrig.oracle.random_triangle

    def corrupted(cfg):
        tri = generate(cfg)
        return with_arrays(tri, normals=tri.normals + 1e-3)

    monkeypatch.setattr(dstrig.oracle, "random_triangle", corrupted)


@pytest.fixture
def nan_normals(monkeypatch):
    """Make every normal of verify_type's triangles nan."""
    generate = dstrig.oracle.random_triangle

    def corrupted(cfg):
        return with_arrays(generate(cfg), normals=np.full((3, 3), np.nan))

    monkeypatch.setattr(dstrig.oracle, "random_triangle", corrupted)


@pytest.fixture
def corrupt_tangent(monkeypatch):
    """Negate tangents[0, 1] of verify_type's triangles.

    The angle at vertex 0 no longer fits the other two, so girard_area's
    own shape check raises on some trials.
    """
    generate = dstrig.oracle.random_triangle

    def corrupted(cfg):
        tri = generate(cfg)
        tangents = tri.tangents.copy()
        tangents[0, 1] = -tangents[0, 1]
        return with_arrays(tri, tangents=tangents)

    monkeypatch.setattr(dstrig.oracle, "random_triangle", corrupted)


def _p(x0, x1, x2):
    return DeSitterPoint(np.array([x0, x1, x2], dtype=float))


@pytest.fixture
def spatiolateral_points():
    # all three edges space-like, contractible, distinguished vertex 0
    return (_p(math.sinh(0.3), math.cosh(0.3), 0.0),
            _p(0.0, math.cos(1.0), math.sin(1.0)),
            _p(0.0, math.cos(1.0), -math.sin(1.0)))


@pytest.fixture
def chronosceles_points():
    # space-like base opposite vertex 0, two time-like legs
    return (_p(math.sinh(1.0), math.cosh(1.0), 0.0),
            _p(0.0, math.cos(0.5), math.sin(0.5)),
            _p(0.0, math.cos(0.5), -math.sin(0.5)))


@pytest.fixture
def tempolateral_points():
    # all three edges time-like, distinguished vertex 2
    s2, c2 = math.sinh(2.0), math.cosh(2.0)
    return (_p(s2, c2, 0.0),
            _p(-s2, c2 * math.cos(2.0), c2 * math.sin(2.0)),
            chart_point(0.2, 1.0))


@pytest.fixture
def chorosceles_points():
    # time-like base opposite vertex 0, two space-like legs
    s5, c5 = math.sinh(0.5), math.cosh(0.5)
    return (_p(0.0, math.cos(1.2), math.sin(1.2)),
            _p(-s5, c5, 0.0),
            _p(s5, c5, 0.0))


# Reference areas for the four fixtures, frozen from the midpoint-rule
# surface integral (grid-refined, estimated error ~2e-6 or better) and
# reproduced independently by the closed forms.
FROZEN_AREAS = {
    "spatiolateral": 0.32606536922688023,
    "chronosceles": 0.4742006068878777,
    "tempolateral": 0.42380707212700025,
    "chorosceles": 0.6766117079149507,
}
