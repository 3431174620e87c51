"""Time each layer of the closed-form pipeline on the benchmark pool.

    python3 tools/bench_layers.py [<checkout>] [--out BENCH_layers.json]

Imports `dstrig` from `<checkout>/src` (default: the checkout holding this
script) and reads the 512 documents of `perfbench/data/pool.jsonl.gz` from
the checkout holding this script.  For each document it records the best of
20 in-process calls, timed with `time.perf_counter`, of:

- `DeSitterPoint` on each vertex row as the CLI passes it (a list of
  floats), per point;
- `classify_triangle`, `build_triangle`, `girard_area` and
  `integrate_area(tri, n=64)` on the document's points or triangle;
- `dstrig.cli.main` running `classify` and `area` on 8-document JSONL
  calls, one document per pool stratum (the `stream` workload's chunks),
  per document: each chunk's best call divided by 8.

Per layer it prints and writes the median and nearest-rank p90, over the
documents (over the 64 chunks for the CLI rows), of those best times in
microseconds.  The JSON also holds the Python and NumPy versions.  Run it
on two checkouts in turn, on an otherwise idle machine, to compare them.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import platform
import statistics
import sys
import time
from pathlib import Path

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "pool.jsonl.gz"
REPEATS = 20
CHUNK = 8


def best_us(fn, *args) -> float:
    """Best of REPEATS calls of fn(*args), in microseconds."""
    best = math.inf
    for _ in range(REPEATS):
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
    from dstrig.areas import girard_area
    from dstrig.cli import main as cli_main
    from dstrig.geodesics import DeSitterPoint
    from dstrig.oracle import integrate_area
    from dstrig.triangles import build_triangle, classify_triangle

    if not Path(dstrig.__file__).resolve().is_relative_to(src):
        sys.exit(f"dstrig imported from {dstrig.__file__}, not {src}")
    with gzip.open(POOL, "rt", encoding="utf-8") as fh:
        records = [json.loads(line) for line in list(fh)[1:]]  # line 1: metadata

    times = {name: [] for name in ("DeSitterPoint", "classify_triangle", "build_triangle",
                                   "girard_area", "integrate_area(n=64)")}
    for rec in records:
        rows = [[float(x) for x in row] for row in rec["doc"]["vertices"]]
        times["DeSitterPoint"].append(sum(best_us(DeSitterPoint, row) for row in rows) / 3)
        points = tuple(map(DeSitterPoint, rows))
        tri = build_triangle(*points)
        times["classify_triangle"].append(best_us(classify_triangle, *points))
        times["build_triangle"].append(best_us(build_triangle, *points))
        times["girard_area"].append(best_us(girard_area, tri))
        times["integrate_area(n=64)"].append(best_us(integrate_area, tri, 64))

    strata = {}
    for rec in records:
        strata.setdefault((rec["type"], rec["u_max"]), []).append(rec["doc"])
    chunks = ["".join(json.dumps(doc) + "\n" for doc in docs)
              for docs in zip(*strata.values())]
    if len(strata) != CHUNK:
        sys.exit(f"expected {CHUNK} pool strata, found {len(strata)}")
    for command in ("classify", "area"):
        times[f"cli {command}"] = [best_us(cli_call, cli_main, command, text) / CHUNK
                                   for text in chunks]

    layers = {}
    for name, values in times.items():
        layers[name] = {"median_us": statistics.median(values),
                        "p90_us": nearest_rank(values, 0.9), "samples": len(values)}
        print(f"{name:22s} {layers[name]['median_us']:9.1f} us  "
              f"p90 {layers[name]['p90_us']:9.1f} us  ({len(values)} samples)")
    args.out.write_text(json.dumps({
        "repeats": REPEATS, "documents": len(records), "chunk": CHUNK,
        "python": platform.python_version(), "numpy": np.__version__,
        "layers": layers}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
