"""Time each layer of dstrig on the benchmark pool.

    python3 tools/bench_layers.py [<checkout>] [--out BENCH_layers.json]

Imports `dstrig` from `<checkout>/src` (default: the checkout holding this
script) and reads the 512 documents of `perfbench/data/pool.jsonl.gz` from
the checkout holding this script.  Every call but the `import` rows' is
in-process, and all are timed with `time.perf_counter`:

- `DeSitterPoint` on each vertex row as the CLI passes it (a list of
  floats), per point, and `classify_triangle`, `build_triangle`,
  `interior_angles` and `girard_area` on the document's points or
  triangle: each document's best of 20 calls;
- one `integrate_area(n=64)` row per pool stratum (four area types x
  `u_max` 2 and 6, 64 documents each): `integrate_area(tri, 64)`, each
  document's best of 20 calls.  Spatiolateral edges are all ellipses and
  tempolateral ones all hyperbolas; the other two types mix the kinds;
- `integrate 8-triangle chunk (n=64)`: `oracle._integrate_many(chunk, 64)`
  on the 8-triangle chunks below, per triangle: each chunk's best of 20
  calls divided by 8 (left out where the checkout has no
  `_integrate_many`);
- `integrate refined triangles (n=64)`: `oracle._integrate_many([tri], 64)`
  on each pool triangle that reaches bisection level 2 at n = 64 (29 of
  the 512), each triangle's best of 20 calls: the cost of the later
  levels, which the chunk row and perfbench's `oracle-check` dilute (left
  out where the checkout has no `_integrate_many`);
- `tangents (first read)` and `normals (first read)`: reading the attribute
  once on a triangle that `build_triangle` has just made (the build is not
  timed), each document's best of 20 such triangles;
- `cli classify`, `cli area` and `cli area --oracle` (`--grid 64`):
  `dstrig.cli.main` on 8-document JSONL calls, one document per pool
  stratum (the `stream` workload's chunks), per document: each chunk's
  best of 20 calls divided by 8;
- one `random_triangle` row per pool stratum (four area types x `u_max`
  2 and 6): `random_triangle(GeneratorConfig(seed, type, u_max))` for
  seeds 0-31, each seed's best of 5 calls.  These rows also hold the
  median and nearest-rank p90 of the accepted attempt's index (1 for the
  first attempt), found by replaying the documented seed stream one
  attempt at a time with `rng.uniform` and the public `classify_triangle`;
  the replay must give the sampler's own vertices, or the script exits 1.
  Their `us_per_attempt` is the median over the seeds of each seed's best
  time divided by its accepted attempt's index, and `first_edge_share` is
  the share of all the seeds' attempts, up to each accepted one, that the
  first edge <p2,p3> rules out alone: its kind (space-like, time-like,
  null or impossible) is none of the target's edge kinds, which is the
  sampler's stop rule.  `bound_share` is the share of the rows given to
  the checkout's first-edge pass (`oracle._first_edge_pass`) that it drops,
  counted by wrapping that function during one more `random_triangle` call
  per seed (spatiolateral, `u_max` up to `_UNIT_SAFE_U`; 0 where the pass
  gets no row, or the checkout has none).  On a checkout whose loop holds
  its own scalar copy of the bound, it counts only what the pass drops;
- two `import` rows, from fresh interpreters with `<checkout>/src` on
  `PYTHONPATH`: `import dstrig.cli` alone, and `import dstrig.cli` plus one
  `dstrig.cli.main` classify call on the pool's first document (what
  perfbench's set-up probe does on `stream`), each from spawn to exit.
  The two alternate for 16 starts each; the first of each, which may
  compile bytecode caches, is dropped.  Each row also records whether
  numpy was in `sys.modules` when its process finished.

Per row it prints and writes the median and nearest-rank p90 of those best
times in microseconds, over the documents, chunks or seeds (for the
`import` rows: of the wall times of the starts).  The JSON also holds the
Python and NumPy versions.  Run it on two checkouts in turn, on
an otherwise idle machine, to compare them.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "pool.jsonl.gz"
REPEATS = 20
CHUNK = 8
SEEDS = range(32)
SAMPLER_REPEATS = 5
STARTS = 16
# Fresh-interpreter rows: each program prints, last, whether numpy was loaded.
PROCESSES = {
    "import dstrig.cli": "import sys, dstrig.cli\nprint('numpy' in sys.modules)",
    "import + classify 1 document": (
        "import sys, dstrig.cli\n"
        "if dstrig.cli.main(['classify', '--input', '-']) != 0:\n"
        "    sys.exit('dstrig classify failed on the first pool document')\n"
        "print('numpy' in sys.modules)"),
}


def best_us(fn, *args, repeats: int = REPEATS) -> float:
    """Best of repeats calls of fn(*args), in microseconds."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best * 1e6


def first_read_us(build, points, name: str) -> float:
    """Best of REPEATS first reads of attribute name of build(*points), in microseconds."""
    best = math.inf
    for _ in range(REPEATS):
        tri = build(*points)
        t0 = time.perf_counter()
        getattr(tri, name)
        best = min(best, time.perf_counter() - t0)
    return best * 1e6


def nearest_rank(values, q: float):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def cli_call(main, command: str, text: str, *options: str) -> None:
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if main([command, "--input", "-", *options]) != 0:
                raise RuntimeError(f"dstrig {command} failed on a pool chunk")
    finally:
        sys.stdin = saved


def process_us(src: Path, code: str, text: str) -> tuple[float, bool]:
    """Wall time of one fresh interpreter running code, and its numpy flag."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], input=text, capture_output=True,
                          text=True, env=env, check=True)
    seconds = time.perf_counter() - t0
    return seconds * 1e6, proc.stdout.splitlines()[-1] == "True"


@contextlib.contextmanager
def counting_pass(oracle, seen: dict):
    """Add to seen["given"] and seen["dropped"] the rows that
    oracle._first_edge_pass is given and drops while the block runs."""
    wrapped = getattr(oracle, "_first_edge_pass", None)
    if wrapped is None:
        yield
        return

    def count(*args):
        keep = wrapped(*args)
        seen["given"] += keep.size
        seen["dropped"] += keep.size - int(keep.sum())
        return keep

    oracle._first_edge_pass = count
    try:
        yield
    finally:
        oracle._first_edge_pass = wrapped


def accepted_index(seed: int, name, u_max: float):
    """(index, vertices) of the first attempt random_triangle accepts, and
    how many attempts up to it the first edge rules out alone."""
    import numpy as np

    from dstrig.errors import GeometryError
    from dstrig.geodesics import DeSitterPoint, SegmentKind, classify_segment
    from dstrig.triangles import _NAME_TABLE, classify_triangle

    # The target's edge kinds: which of space-like, time-like and null it has.
    counts = next(c for c, n in _NAME_TABLE.items() if n is name)
    kinds = {kind for kind, n in zip((SegmentKind.ELLIPSE_PART, SegmentKind.HYPERBOLA_PART,
                                      SegmentKind.NULL_LINE), counts) if n}
    rng = np.random.default_rng(seed)
    decided = 0
    for i in range(1, 20001):
        u = rng.uniform(-u_max, u_max, 3).tolist()
        psi = rng.uniform(0.0, 2.0 * math.pi, 3).tolist()
        rows = [(math.sinh(a), math.cosh(a) * math.cos(b), math.cosh(a) * math.sin(b))
                for a, b in zip(u, psi)]
        try:
            points = tuple(map(DeSitterPoint, rows))
            decided += classify_segment(points[1], points[2]).kind not in kinds
            kind = classify_triangle(*points)
        except GeometryError:
            continue
        if kind.proper_name is name and kind.contractible is not False:
            return i, rows, decided
    raise RuntimeError(f"no {name.value} triangle for seed {seed} at u_max {u_max}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, nargs="?",
                        default=Path(__file__).resolve().parents[1],
                        help="repository checkout to run (default: this one)")
    parser.add_argument("--out", type=Path, default=Path("BENCH_layers.json"),
                        help="JSON file to write (default: BENCH_layers.json)")
    args = parser.parse_args()
    src = (args.checkout / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy as np

    import dstrig
    import dstrig.oracle
    from dstrig.areas import girard_area, interior_angles
    from dstrig.cli import main as cli_main
    from dstrig.geodesics import DeSitterPoint
    from dstrig.oracle import GeneratorConfig, integrate_area, random_triangle
    from dstrig.triangles import ProperName, build_triangle, classify_triangle

    if not Path(dstrig.__file__).resolve().is_relative_to(src):
        sys.exit(f"dstrig imported from {dstrig.__file__}, not {src}")
    with gzip.open(POOL, "rt", encoding="utf-8") as fh:
        records = [json.loads(line) for line in list(fh)[1:]]  # line 1: metadata

    first_doc = json.dumps(records[0]["doc"]) + "\n"
    starts = {name: [] for name in PROCESSES}
    numpy_loaded = {}
    for _ in range(STARTS):
        for name, code in PROCESSES.items():
            us, numpy_loaded[name] = process_us(src, code, first_doc)
            starts[name].append(us)

    times = {name: [] for name in ("DeSitterPoint", "classify_triangle", "build_triangle",
                                   "tangents (first read)", "normals (first read)",
                                   "interior_angles", "girard_area")}
    tris = []
    for rec in records:
        rows = [[float(x) for x in row] for row in rec["doc"]["vertices"]]
        times["DeSitterPoint"].append(sum(best_us(DeSitterPoint, row) for row in rows) / 3)
        points = tuple(map(DeSitterPoint, rows))
        tri = build_triangle(*points)
        tris.append(tri)
        times["classify_triangle"].append(best_us(classify_triangle, *points))
        times["build_triangle"].append(best_us(build_triangle, *points))
        for name in ("tangents", "normals"):
            times[f"{name} (first read)"].append(first_read_us(build_triangle, points, name))
        times["interior_angles"].append(best_us(interior_angles, tri))
        times["girard_area"].append(best_us(girard_area, tri))
        row = f"integrate_area(n=64) {rec['type']} u_max {float(rec['u_max']):g}"
        times.setdefault(row, []).append(best_us(integrate_area, tri, 64))

    strata = {}
    for rec in records:
        strata.setdefault((rec["type"], float(rec["u_max"])), []).append(rec["doc"])
    if len(strata) != CHUNK:
        sys.exit(f"expected {CHUNK} pool strata, found {len(strata)}")
    doc_chunks = list(zip(*strata.values()))
    integrate_many = getattr(dstrig.oracle, "_integrate_many", None)
    if integrate_many is not None:
        times["integrate 8-triangle chunk (n=64)"] = [
            best_us(integrate_many, [build_triangle(*map(DeSitterPoint, doc["vertices"]))
                                     for doc in docs], 64) / CHUNK
            for docs in doc_chunks]
        times["integrate refined triangles (n=64)"] = [
            best_us(integrate_many, [tri], 64)
            for tri in tris if integrate_area(tri, 64).refinements > 1]
    chunks = ["".join(json.dumps(doc) + "\n" for doc in docs) for docs in doc_chunks]
    for row, command, options in (("cli classify", "classify", ()), ("cli area", "area", ()),
                                  ("cli area --oracle", "area", ("--oracle", "--grid", "64"))):
        times[row] = [best_us(cli_call, cli_main, command, text, *options) / CHUNK
                      for text in chunks]

    attempts, first_edge, bound = {}, {}, {}
    for type_name, u_max in strata:
        row = f"random_triangle {type_name} u_max {u_max:g}"
        name = ProperName(type_name)
        times[row], attempts[row], first_edge[row] = [], [], 0
        seen = bound[row] = {"given": 0, "dropped": 0}
        for seed in SEEDS:
            cfg = GeneratorConfig(seed, name, u_max)
            times[row].append(best_us(random_triangle, cfg, repeats=SAMPLER_REPEATS))
            i, rows, decided = accepted_index(seed, name, u_max)
            with counting_pass(dstrig.oracle, seen):
                tri = random_triangle(cfg)
            if [p.v.tolist() for p in tri.points] != [list(r) for r in rows]:
                sys.exit(f"replay of {type_name} seed {seed} at u_max {u_max:g} "
                         f"differs from random_triangle")
            attempts[row].append(i)
            first_edge[row] += decided

    times.update((name, values[1:]) for name, values in starts.items())
    layers = {}
    for name, values in times.items():
        layer = layers[name] = {"median_us": statistics.median(values),
                                "p90_us": nearest_rank(values, 0.9), "samples": len(values)}
        line = (f"{name:44s} {layer['median_us']:9.1f} us  "
                f"p90 {layer['p90_us']:9.1f} us  ({len(values)} samples)")
        if name in attempts:
            layer["attempt_median"] = statistics.median(attempts[name])
            layer["attempt_p90"] = nearest_rank(attempts[name], 0.9)
            layer["us_per_attempt"] = statistics.median(
                t / i for t, i in zip(values, attempts[name]))
            layer["first_edge_share"] = first_edge[name] / sum(attempts[name])
            seen = bound[name]
            layer["bound_share"] = seen["dropped"] / seen["given"] if seen["given"] else 0.0
            line += (f"  attempt median {layer['attempt_median']:6.1f}  p90 {layer['attempt_p90']}"
                     f"  {layer['us_per_attempt']:.2f} us/attempt"
                     f"  first edge decides {layer['first_edge_share']:.1%}"
                     f"  bound {layer['bound_share']:.1%}")
        if name in numpy_loaded:
            layer["numpy_loaded"] = numpy_loaded[name]
            line += f"  numpy loaded: {numpy_loaded[name]}"
        print(line)
    args.out.write_text(json.dumps({
        "repeats": REPEATS, "documents": len(records), "chunk": CHUNK,
        "sampler_seeds": [SEEDS.start, SEEDS.stop - 1], "sampler_repeats": SAMPLER_REPEATS,
        "starts": STARTS - 1,
        "python": platform.python_version(), "numpy": np.__version__,
        "layers": layers}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
