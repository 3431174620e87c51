"""Recorded reference pool and the per-triangle output checks.

The pool holds, for every stratum (area type x rapidity bound), the
triangles `dstrig random --type T --u-max U --seed s` emits for seeds
0..POOL_SIZE-1, together with the `classify` and `area` reports recorded
from the commit that defined the benchmark.  Every workload draws its
inputs from it in its own seeded arrangement, so every output a run
produces has a reference to be checked against.
"""

from __future__ import annotations

import gzip
import json
import math

from harness import BENCH_DIR

TYPES = ("spatiolateral", "tempolateral", "chorosceles", "chronosceles")
U_MAXES = ("2.0", "6.0")
STRATA = tuple((t, u) for u in U_MAXES for t in TYPES)
POOL_SIZE = 64
POOL_FILE = BENCH_DIR / "data" / "pool.jsonl.gz"

FLOAT_TOL = 1e-9


def load_pool(path=POOL_FILE) -> tuple[dict, dict]:
    """Return (header, {(type, u_max): [record ordered by seed]})."""
    pool: dict = {}
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        for line in fh:
            rec = json.loads(line)
            pool.setdefault((rec["type"], rec["u_max"]), []).append(rec)
    for recs in pool.values():
        recs.sort(key=lambda r: r["seed"])
    return header, pool


def mismatch(out, ref, where: str = "") -> str | None:
    """First difference between an output and its reference, or None.

    Strings, booleans, integers and None must match exactly; floats must
    agree within FLOAT_TOL * max(1, |ref|).  Every key of a reference
    object must be present; keys the reference lacks are not compared.
    """
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return f"{where}: expected an object"
        for key, value in ref.items():
            if key not in out:
                return f"{where}.{key}: missing"
            bad = mismatch(out[key], value, f"{where}.{key}")
            if bad:
                return bad
        return None
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return f"{where}: expected a list of {len(ref)}"
        for i, (o, r) in enumerate(zip(out, ref)):
            bad = mismatch(o, r, f"{where}[{i}]")
            if bad:
                return bad
        return None
    if isinstance(ref, float):
        if isinstance(out, bool) or not isinstance(out, (int, float)) \
                or not abs(out - ref) <= FLOAT_TOL * max(1.0, abs(ref)):
            return f"{where}: {out!r} vs reference {ref!r}"
        return None
    if type(out) is not type(ref) or out != ref:
        return f"{where}: {out!r} vs reference {ref!r}"
    return None


def oracle_gap(report: dict, ref_area: dict) -> tuple[str | None, float, bool]:
    """Check an `area --oracle` report's oracle block against the closed form.

    Returns (problem, gap, beyond): problem is set when the block is
    missing or malformed; gap is |oracle area - reference area|; beyond is
    True when the gap exceeds the acceptance rule max(1e-3, 3 * est_error).
    """
    orc = report.get("oracle")
    if not isinstance(orc, dict):
        return "oracle: missing", math.nan, False
    area, est = orc.get("area"), orc.get("est_error")
    grid, levels = orc.get("grid"), orc.get("refinements")
    if not (isinstance(area, float) and math.isfinite(area)
            and isinstance(est, float) and math.isfinite(est) and est >= 0.0
            and isinstance(grid, list) and len(grid) == 2
            and all(isinstance(m, int) and m > 0 for m in grid)
            and isinstance(levels, int) and levels >= 1):
        return f"oracle: malformed block {orc!r}", math.nan, False
    gap = abs(area - ref_area["real_area"])
    bad = mismatch(orc.get("discrepancy"), gap, ".oracle.discrepancy")
    return bad, gap, gap > max(1e-3, 3.0 * est)


def oracle_cells(report: dict) -> tuple[int, int]:
    """(sum of m^2 over the grid levels, number of levels) of an oracle block.

    The levels are the final grid halved once per refinement.
    """
    m = report["oracle"]["grid"][0]
    levels = report["oracle"]["refinements"] + 1
    return sum((m >> i) ** 2 for i in range(levels)), levels


def parse_lines(stdout: str) -> list:
    """One parsed JSON value per output line; unparsable lines become None."""
    parsed = []
    for line in stdout.splitlines():
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError:
            parsed.append(None)
    return parsed


def sample_doc(rec: dict, index: int) -> dict:
    """The document `random --seed S --count K` emits at position index for rec."""
    doc = dict(rec["doc"])
    doc["metadata"] = {"name": f"{rec['type']}-{index}", "seed": rec["seed"],
                       "type": rec["type"]}
    return doc
