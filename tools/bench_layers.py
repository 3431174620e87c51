"""Time each layer of dstrig on the benchmark pool.

    python3 tools/bench_layers.py [<checkout>] [--out BENCH_layers.json]

Imports `dstrig` from `<checkout>/src` (default: the checkout holding this
script) and reads the 512 documents of `perfbench/data/pool.jsonl.gz` from
the checkout holding this script.  Every call but the `import` rows' is
in-process, and all are timed with `time.perf_counter`:

- `DeSitterPoint` on each vertex row as the CLI passes it (a list of
  floats), per point, and `classify_triangle`, `build_triangle`,
  `interior_angles`, `girard_area` and `integrate_area(tri, n=64)` on the
  document's points or triangle: each document's best of 20 calls;
- `cli classify` and `cli area`: `dstrig.cli.main` on 8-document JSONL
  calls, one document per pool stratum (the `stream` workload's chunks),
  per document: each chunk's best of 20 calls divided by 8;
- one `random_triangle` row per pool stratum (four area types x `u_max`
  2 and 6): `random_triangle(GeneratorConfig(seed, type, u_max))` for
  seeds 0-31, each seed's best of 5 calls.  These rows also hold the
  median and nearest-rank p90 of the accepted attempt's index (1 for the
  first attempt), found by replaying the documented seed stream one
  attempt at a time with `rng.uniform` and the public `classify_triangle`;
  the replay must give the sampler's own vertices, or the script exits 1;
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


def nearest_rank(values, q: float):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def cli_call(main, command: str, text: str) -> None:
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            if main([command, "--input", "-"]) != 0:
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


def accepted_index(seed: int, name, u_max: float):
    """(index, vertices) of the first attempt random_triangle accepts."""
    import numpy as np

    from dstrig.errors import GeometryError
    from dstrig.geodesics import DeSitterPoint
    from dstrig.triangles import classify_triangle

    rng = np.random.default_rng(seed)
    for i in range(1, 20001):
        u = rng.uniform(-u_max, u_max, 3).tolist()
        psi = rng.uniform(0.0, 2.0 * math.pi, 3).tolist()
        rows = [(math.sinh(a), math.cosh(a) * math.cos(b), math.cosh(a) * math.sin(b))
                for a, b in zip(u, psi)]
        try:
            kind = classify_triangle(*map(DeSitterPoint, rows))
        except GeometryError:
            continue
        if kind.proper_name is name and kind.contractible is not False:
            return i, rows
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
                                   "interior_angles", "girard_area", "integrate_area(n=64)")}
    for rec in records:
        rows = [[float(x) for x in row] for row in rec["doc"]["vertices"]]
        times["DeSitterPoint"].append(sum(best_us(DeSitterPoint, row) for row in rows) / 3)
        points = tuple(map(DeSitterPoint, rows))
        tri = build_triangle(*points)
        times["classify_triangle"].append(best_us(classify_triangle, *points))
        times["build_triangle"].append(best_us(build_triangle, *points))
        times["interior_angles"].append(best_us(interior_angles, tri))
        times["girard_area"].append(best_us(girard_area, tri))
        times["integrate_area(n=64)"].append(best_us(integrate_area, tri, 64))

    strata = {}
    for rec in records:
        strata.setdefault((rec["type"], float(rec["u_max"])), []).append(rec["doc"])
    chunks = ["".join(json.dumps(doc) + "\n" for doc in docs)
              for docs in zip(*strata.values())]
    if len(strata) != CHUNK:
        sys.exit(f"expected {CHUNK} pool strata, found {len(strata)}")
    for command in ("classify", "area"):
        times[f"cli {command}"] = [best_us(cli_call, cli_main, command, text) / CHUNK
                                   for text in chunks]

    attempts = {}
    for type_name, u_max in strata:
        row = f"random_triangle {type_name} u_max {u_max:g}"
        name = ProperName(type_name)
        times[row], attempts[row] = [], []
        for seed in SEEDS:
            cfg = GeneratorConfig(seed, name, u_max)
            times[row].append(best_us(random_triangle, cfg, repeats=SAMPLER_REPEATS))
            i, rows = accepted_index(seed, name, u_max)
            if [p.v.tolist() for p in random_triangle(cfg).points] != [list(r) for r in rows]:
                sys.exit(f"replay of {type_name} seed {seed} at u_max {u_max:g} "
                         f"differs from random_triangle")
            attempts[row].append(i)

    times.update((name, values[1:]) for name, values in starts.items())
    layers = {}
    for name, values in times.items():
        layer = layers[name] = {"median_us": statistics.median(values),
                                "p90_us": nearest_rank(values, 0.9), "samples": len(values)}
        line = (f"{name:38s} {layer['median_us']:9.1f} us  "
                f"p90 {layer['p90_us']:9.1f} us  ({len(values)} samples)")
        if name in attempts:
            layer["attempt_median"] = statistics.median(attempts[name])
            layer["attempt_p90"] = nearest_rank(attempts[name], 0.9)
            line += f"  attempt median {layer['attempt_median']:6.1f}  p90 {layer['attempt_p90']}"
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
