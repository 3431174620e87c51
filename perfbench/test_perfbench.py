"""Tests of the benchmark itself: its checks bite, its trace is complete and
its counts repeat.  Run with `python3 -m pytest perfbench -q`.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import harness
import run
from checks import STRATA, load_pool, mismatch, parse_lines
from tracer import IncompleteTraceError, NAMES, Tracer

CLI = harness.import_cli()
HEADER, POOL = load_pool()


def _outputs(call):
    rc, out, err, _ = harness.call(CLI.main, call.argv, call.stdin)
    assert rc == 0, err
    return out


def _failed(call, stdout, rc=0):
    tally = run.Tally()
    tally.check(call, rc, stdout, "")
    return tally


def _edit_line(stdout: str, index: int, edit) -> str:
    lines = stdout.splitlines()
    doc = json.loads(lines[index])
    edit(doc)
    lines[index] = json.dumps(doc)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def area_call():
    return next(c for c in run.plan_calls("stream", 3, POOL) if c.command == "area")


@pytest.fixture(scope="module")
def classify_call():
    return next(c for c in run.plan_calls("stream", 3, POOL) if c.command == "classify")


def test_unmodified_outputs_pass(area_call, classify_call):
    for call in (area_call, classify_call):
        tally = _failed(call, _outputs(call))
        assert (tally.attempted, tally.failed) == (len(call.recs), 0), tally.notes


def test_perturbed_area_is_a_failure(area_call):
    def nudge(doc):
        doc["real_area"] += 1e-6
    tally = _failed(area_call, _edit_line(_outputs(area_call), 2, nudge))
    assert tally.failed == 1 and "real_area" in tally.notes[0]


def test_wrong_proper_name_is_a_failure(classify_call):
    def rename(doc):
        doc["proper_name"] = ("tempolateral" if doc["proper_name"] != "tempolateral"
                              else "chorosceles")
    tally = _failed(classify_call, _edit_line(_outputs(classify_call), 0, rename))
    assert tally.failed == 1 and "proper_name" in tally.notes[0]


def test_dropped_output_line_is_a_failure(area_call):
    lines = _outputs(area_call).splitlines()
    tally = _failed(area_call, "\n".join(lines[:-1]) + "\n")
    assert tally.failed == 1 and "missing" in tally.notes[0]
    tally = _failed(area_call, "\n".join(lines[1:]) + "\n")
    assert tally.failed >= 1


def test_nonzero_exit_fails_the_whole_call(area_call):
    tally = _failed(area_call, _outputs(area_call), rc=3)
    assert tally.failed == len(area_call.recs)


def test_sample_output_must_be_bit_identical():
    call = run.plan_calls("sample", 3, POOL)[0]
    stdout = _outputs(call)
    assert _failed(call, stdout).failed == 0

    def one_ulp(doc):
        doc["vertices"][0][1] = math.nextafter(doc["vertices"][0][1], math.inf)
    assert _failed(call, _edit_line(stdout, 1, one_ulp)).failed == 1


def test_oracle_miss_counts_into_fail_ratio_but_not_failed():
    rec = POOL[("chorosceles", "6.0")][3]  # the fan oracle misses this one by ~0.66
    call = run.Call("oracle", ["area", "--input", "-", "--oracle", "--grid", "64"],
                    run._docs_text([rec]), [rec])
    tally = _failed(call, _outputs(call))
    assert (tally.failed, tally.oracle_checked, tally.oracle_beyond) == (0, 1, 1)
    assert tally.oracle_gap_max > 0.5


def test_float_tolerance_scales_with_magnitude():
    assert mismatch(1.0 + 5e-10, 1.0) is None
    assert mismatch(1.0 + 2e-9, 1.0) is not None
    assert mismatch(1e4 + 5e-6, 1e4) is None
    assert mismatch(1e4 + 2e-5, 1e4) is not None
    assert mismatch(1, 1.0) is None and mismatch(True, 1.0) is not None
    assert mismatch({"a": 1, "extra": 2}, {"a": 1}) is None
    assert mismatch({}, {"a": 1}) is not None


def test_plans_are_seeded_and_stratified():
    for w in run.WORKLOADS:
        a, b, c = (run.plan_calls(w, s, POOL) for s in (5, 5, 6))
        assert [x.argv + [x.stdin] for x in a] == [x.argv + [x.stdin] for x in b]
        assert [x.argv + [x.stdin] for x in a] != [x.argv + [x.stdin] for x in c]
        per_stratum = {}
        for call in a:
            for rec in call.recs:
                key = (rec["type"], rec["u_max"])
                per_stratum[key] = per_stratum.get(key, 0) + 1
        assert set(per_stratum) == set(STRATA)
        assert len(set(per_stratum.values())) == 1


def test_tracer_rebinds_every_holder_and_restores():
    import dstrig
    import dstrig.triangles as tri

    original = tri.build_triangle
    with Tracer() as t:
        assert t.missing == []
        for holder in (tri, dstrig, sys.modules["dstrig.cli"], sys.modules["dstrig.oracle"]):
            if hasattr(holder, "build_triangle"):
                assert holder.build_triangle.__wrapped_original__ is original
        assert hasattr(dstrig.DeSitterPoint.__post_init__, "__wrapped_original__")
    assert tri.build_triangle is original
    assert not hasattr(dstrig.DeSitterPoint.__post_init__, "__wrapped_original__")


def test_tracer_guard_fails_on_unwrapped_holder(monkeypatch):
    import dstrig.triangles as tri

    original = tri.build_triangle
    with Tracer() as t:
        monkeypatch.setattr(tri, "_stale_build", original, raising=False)
        with pytest.raises(IncompleteTraceError, match="_stale_build"):
            t.check_complete()


def test_self_time_excludes_children():
    import dstrig.triangles as tri

    rec = POOL[("spatiolateral", "2.0")][0]
    from dstrig.geodesics import DeSitterPoint
    import numpy as np

    pts = [DeSitterPoint(np.array(v)) for v in rec["doc"]["vertices"]]
    with Tracer() as t:
        tri.build_triangle(*pts)
    s = t.summary()
    build = s["per_name"]["triangles.build_triangle"]
    c = t.columns()
    total = float(c["end"][0] - c["start"][0])
    assert build["calls"] == 1 and 0.0 < build["self_s"] < total
    assert s["per_name"]["geodesics.tangent_toward"]["calls"] == 6


def _traced_counts(workload):
    _, metrics, _, _ = run.run_traced(CLI, workload, 0.0, run.plan_calls(workload, 7, POOL),
                                      harness.SpeedGauge())
    keep = (".calls_per_tri", ".cells_per_tri", ".levels_per_tri", ".accept_ratio",
            ".geometry_error_ratio", ".miss_ratio", ".gap_max")
    return {k: v for k, (v, _) in metrics.items() if k.endswith(keep)}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _traced_counts(workload), _traced_counts(workload)
    assert first == second
    assert len(first) == len(NAMES) + 6
    oracle_calls = first["oracle.integrate_area.calls_per_tri"]
    assert oracle_calls == (1.0 if workload == "oracle-check" else 0.0)
    if workload == "sample":
        assert first["areas.girard_area.calls_per_tri"] == 0.0
        assert 0.0 < first["oracle.random_triangle.accept_ratio"] < 1.0
        assert first["oracle.random_triangle.calls_per_tri"] == 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(harness.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not [line for line in proc.stdout.splitlines() if line.startswith("{")]
    assert not parse_lines(proc.stdout)
