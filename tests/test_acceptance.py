"""Acceptance gate: nine numbered criteria, one summary line each.

The shared corpus holds 100 seeded random triangles per type (u_max 2.0).
Tolerances are pinned here and nowhere weakened; every criterion prints a
"[criterion N] PASS/FAIL" line in the terminal summary.
"""

import io
import json
import math
import sys
import time

import numpy as np
import pytest

import conftest
from conftest import FROZEN_AREAS
from dstrig.areas import complex_area, girard_area, girard_area_from_products, interior_angles
from dstrig.cli import main as cli_main
from dstrig.errors import NonConvergentError
from dstrig.geodesics import DeSitterPoint
from dstrig.minkowski import (
    lorentz_normalize,
    mink_inner,
    pseudo_angle,
    pseudo_norm,
    random_lorentz,
)
from dstrig.oracle import (
    GeneratorConfig,
    _loop_edges,
    _panels,
    integrate_area,
    random_buildable_triangle,
    random_triangle,
)
from dstrig.triangles import (
    ProperName,
    build_triangle,
    classify_triangle,
    distinguished_vertex,
    tangent_normal_residual,
)
from referee import stokes_area

TYPES = (ProperName.SPATIOLATERAL, ProperName.TEMPOLATERAL,
         ProperName.CHOROSCELES, ProperName.CHRONOSCELES)

CORPUS_PER_TYPE = 100
ORACLE_GRID = 64
# Criterion 1's bound on |closed form - oracle| / max(1, A) at U_MAX.
ORACLE_BOUND = 1e-10
U_MAX = 2.0


def _report(number: int, ok: bool, detail: str) -> None:
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def corpus():
    triangles = {}
    for ti, target in enumerate(TYPES):
        triangles[target] = [
            random_triangle(GeneratorConfig(seed=10_000 * ti + i, target=target,
                                            u_max=U_MAX))
            for i in range(CORPUS_PER_TYPE)
        ]
    return triangles


@pytest.fixture(scope="module")
def fixture_triangles():
    def _p(x0, x1, x2):
        return DeSitterPoint(np.array([x0, x1, x2], dtype=float))

    return {
        "spatiolateral": build_triangle(
            _p(math.sinh(0.3), math.cosh(0.3), 0),
            _p(0, math.cos(1.0), math.sin(1.0)),
            _p(0, math.cos(1.0), -math.sin(1.0))),
        "chronosceles": build_triangle(
            _p(math.sinh(1.0), math.cosh(1.0), 0),
            _p(0, math.cos(0.5), math.sin(0.5)),
            _p(0, math.cos(0.5), -math.sin(0.5))),
        "tempolateral": build_triangle(
            _p(math.sinh(2.0), math.cosh(2.0), 0),
            _p(-math.sinh(2.0), math.cosh(2.0) * math.cos(2.0),
               math.cosh(2.0) * math.sin(2.0)),
            _p(math.sinh(0.2), math.cosh(0.2) * math.cos(1.0),
               math.cosh(0.2) * math.sin(1.0))),
        "chorosceles": build_triangle(
            _p(0, math.cos(1.2), math.sin(1.2)),
            _p(-math.sinh(0.5), math.cosh(0.5), 0),
            _p(math.sinh(0.5), math.cosh(0.5), 0)),
    }


def test_criterion_1_formula_vs_oracle(corpus):
    # Every triangle must meet the bound; an oracle that raises
    # NonConvergentError fails the triangle too.
    started = time.monotonic()
    worst = 0.0
    failures = []
    for target, triangles in corpus.items():
        for i, tri in enumerate(triangles):
            area = girard_area(tri).real_area
            try:
                orc = integrate_area(tri, n=ORACLE_GRID)
            except NonConvergentError as exc:
                failures.append(f"{target.value}[{i}]: non-convergent ({exc})")
                continue
            gap = abs(area - orc.area) / max(1.0, area)
            worst = max(worst, gap)
            if gap > ORACLE_BOUND:
                failures.append(f"{target.value}[{i}]: relative gap {gap:.2e}")
    elapsed = time.monotonic() - started
    total = len(TYPES) * CORPUS_PER_TYPE
    ok = not failures and elapsed < 120.0
    _report(1, ok, f"{total - len(failures)}/{total} within {ORACLE_BOUND:g}*max(1, A), "
                   f"worst gap {worst:.2e}*max(1, A), {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 120.0


def test_criterion_2_tangent_normal_identity():
    worst = 0.0
    for seed in range(1000):
        worst = max(worst, tangent_normal_residual(random_buildable_triangle(seed)))
    ok = worst <= 1e-8
    _report(2, ok, f"1000 random buildable triangles, max residual {worst:.2e}")
    assert ok


def test_criterion_3_complex_area_shape(corpus):
    worst_re = 0.0
    worst_gap = 0.0
    count = 0
    for triangles in corpus.values():
        for tri in triangles:
            nabla = complex_area(tri)
            signed = girard_area(tri).real_area
            worst_re = max(worst_re, abs(nabla.real))
            worst_gap = max(worst_gap, abs(nabla.imag - signed))
            assert nabla.imag > 0
            count += 1
    ok = worst_re <= 1e-8 and worst_gap <= 1e-8
    _report(3, ok, f"{count} triangles, max |Re| {worst_re:.2e}, "
                   f"max |Im - signed sum| {worst_gap:.2e}")
    assert ok


def test_criterion_4_product_form_equivalence():
    worst = 0.0
    for ti, target in enumerate(TYPES):
        for i in range(250):
            tri = random_triangle(GeneratorConfig(seed=50_000 + 10_000 * ti + i,
                                                  target=target, u_max=U_MAX))
            gap = abs(girard_area_from_products(tri) - girard_area(tri).real_area)
            worst = max(worst, gap)
    ok = worst <= 1e-9
    _report(4, ok, f"1000 triangles (250 per type), max gap {worst:.2e}")
    assert ok


def test_criterion_5_tempolateral_inequality(corpus):
    holds = 0
    for tri in corpus[ProperName.TEMPOLATERAL]:
        angles = interior_angles(tri)
        d = distinguished_vertex(tri)
        k, l = (d + 1) % 3, (d + 2) % 3
        if angles.theta[d] > angles.theta[k] + angles.theta[l]:
            holds += 1
    ok = holds == CORPUS_PER_TYPE
    _report(5, ok, f"greater-angle inequality holds {holds}/{CORPUS_PER_TYPE}")
    assert ok


def test_criterion_6_spatiolateral_structure(corpus, capsys, monkeypatch):
    unique = 0
    flipped_ok = 0
    exit4 = 0
    for tri in corpus[ProperName.SPATIOLATERAL]:
        cone_sharing = []
        for j in range(3):
            k, l = (j + 1) % 3, (j + 2) % 3
            if mink_inner(tri.normals[k], tri.normals[l]) < 0.0:
                cone_sharing.append(j)
        if len(cone_sharing) == 1:
            unique += 1
        d = distinguished_vertex(tri)
        pts = [DeSitterPoint(p.v.copy()) for p in tri.points]
        pts[d] = DeSitterPoint(-pts[d].v)
        cls = classify_triangle(*pts)
        if cls.proper_name is ProperName.SPATIOLATERAL and cls.contractible is False:
            flipped_ok += 1
        doc = json.dumps({"schema": 1, "vertices": [list(map(float, p.v)) for p in pts]})
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code = cli_main(["area", "--input", "-"])
        capsys.readouterr()
        if code == 4:
            exit4 += 1
    n = CORPUS_PER_TYPE
    ok = unique == n and flipped_ok == n and exit4 == n
    _report(6, ok, f"unique cone-sharing vertex {unique}/{n}, "
                   f"flip non-contractible {flipped_ok}/{n}, area exit 4 {exit4}/{n}")
    assert ok


def test_criterion_7_angle_definition_consistency():
    rng = np.random.default_rng(2024)
    branch_counts = {}
    worst = 0.0
    pairs = 0
    while pairs < 10_000:
        u = rng.normal(size=3) * 2.0
        v = rng.normal(size=3) * 2.0
        if min(abs(mink_inner(u, u)), abs(mink_inner(v, v))) < 1e-3:
            continue
        u, v = lorentz_normalize(u), lorentz_normalize(v)
        phi = pseudo_angle(u, v)
        residual = abs(phi.cos() * pseudo_norm(u) * pseudo_norm(v)
                       - mink_inner(u, v))
        worst = max(worst, residual)
        branch_counts[phi.branch.value] = branch_counts.get(phi.branch.value, 0) + 1
        pairs += 1
    ok = worst <= 1e-9 and len(branch_counts) == 6
    _report(7, ok, f"10000 pairs, six branches hit "
                   f"(min bucket {min(branch_counts.values())}), "
                   f"max residual {worst:.2e}")
    assert len(branch_counts) == 6, branch_counts
    assert worst <= 1e-9


def test_criterion_8_lorentz_invariance(fixture_triangles):
    rng = np.random.default_rng(77)
    worst = 0.0
    label_breaks = 0
    for name, tri in fixture_triangles.items():
        base_cls = classify_triangle(*tri.points)
        base_area = girard_area(tri).real_area
        for _ in range(10):
            m = random_lorentz(rng)
            moved = build_triangle(*(DeSitterPoint(m @ p.v) for p in tri.points))
            cls = classify_triangle(*moved.points)
            if (cls.proper_name is not base_cls.proper_name
                    or cls.edge_counts != base_cls.edge_counts
                    or cls.contractible != base_cls.contractible):
                label_breaks += 1
            worst = max(worst, abs(girard_area(moved).real_area - base_area))
    ok = label_breaks == 0 and worst <= 1e-8
    _report(8, ok, f"4 fixtures x 10 maps, labels stable, "
                   f"max area drift {worst:.2e}")
    assert ok


def _fixed_rule_area(tri, m):
    # The oracle's 20-node rule on m equal panels per edge, never bisected.
    apex = distinguished_vertex(tri)
    edges = _loop_edges(np.stack([tri.points[(apex + j) % 3].v for j in range(3)]))
    e = np.repeat(np.arange(3), m)
    a = np.tile(np.arange(m) / m, 3)
    return abs(math.fsum(_panels(edges, e, a, np.full(3 * m, 1.0 / m))[0]))


def test_criterion_9_oracle_convergence(fixture_triangles):
    # The oracle's 20-node rule on a fixed 1, 2, 4, 8 panels per edge (the
    # starting partitions of n = 8 to 64) must shrink its referee error at
    # least 2x per doubling and reach 1e-13*max(1, A) by 8 panels; the
    # adaptive oracle's est_error at those n must cover its own referee gap.
    failures = []
    worst_err = 0.0
    for name, tri in fixture_triangles.items():
        ref = stokes_area(tri.points)
        floor = 1e-13 * max(1.0, ref)
        errs = [abs(_fixed_rule_area(tri, m) - ref) for m in (1, 2, 4, 8)]
        worst_err = max(worst_err, max(errs) / max(1.0, ref))
        if errs[-1] > floor or any(fine > max(coarse / 2.0, floor)
                                   for coarse, fine in zip(errs, errs[1:])):
            failures.append(f"{name}: fixed-rule errors {errs}")
        for n in (8, 16, 32, 64):
            orc = integrate_area(tri, n=n)
            if abs(orc.area - ref) > orc.est_error:
                failures.append(f"{name}: n={n} gap {abs(orc.area - ref):.2e} "
                                f"above est {orc.est_error:.2e}")
    ok = not failures
    _report(9, ok, f"fixed rule at 1 to 8 panels per edge on four fixtures, worst referee "
                   f"error {worst_err:.2e}*max(1, A); est_error covers the oracle's "
                   f"referee gap at n = 8 to 64; failures {len(failures)}")
    assert ok, failures


def test_fixture_areas_frozen(fixture_triangles):
    # guard: the canonical fixture areas stay pinned to the oracle-verified values
    for name, tri in fixture_triangles.items():
        assert girard_area(tri).real_area == pytest.approx(
            FROZEN_AREAS[name], abs=1e-12)
