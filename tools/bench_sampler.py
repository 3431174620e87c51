"""Time the rejection sampler on the benchmark pool's strata.

    python3 tools/bench_sampler.py [<checkout>] [--out BENCH_sampler.json]

Imports `dstrig` from `<checkout>/src` (default: the checkout holding this
script) and, for each of the pool's eight strata (four area types x
`u_max` 2 and 6) and seeds 0-31, records:

- the best of 5 in-process `random_triangle(GeneratorConfig(seed, type,
  u_max))` calls, timed with `time.perf_counter`;
- the accepted attempt's index (1 for the first attempt), found by
  replaying the documented seed stream one attempt at a time with
  `rng.uniform` and the public `classify_triangle`; the replay must give
  the sampler's own vertices, or the script exits 1.

Per stratum it prints and writes the median over the seeds of the best
times (microseconds) and the median and nearest-rank p90 of the accepted
indices.  The JSON also holds the Python and NumPy versions.  Run it on
two checkouts in turn, on an otherwise idle machine, to compare them.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import statistics
import sys
import time
from pathlib import Path

TYPES = ("spatiolateral", "tempolateral", "chorosceles", "chronosceles")
U_MAXES = (2.0, 6.0)
SEEDS = range(32)
REPEATS = 5


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


def nearest_rank(values, q: float):
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, nargs="?",
                        default=Path(__file__).resolve().parents[1],
                        help="repository checkout to run (default: this one)")
    parser.add_argument("--out", type=Path, default=Path("BENCH_sampler.json"),
                        help="JSON file to write (default: BENCH_sampler.json)")
    args = parser.parse_args()
    src = (args.checkout / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy as np

    import dstrig
    from dstrig.oracle import GeneratorConfig, random_triangle
    from dstrig.triangles import ProperName

    if not Path(dstrig.__file__).resolve().is_relative_to(src):
        sys.exit(f"dstrig imported from {dstrig.__file__}, not {src}")
    strata = []
    for type_name in TYPES:
        name = ProperName(type_name)
        for u_max in U_MAXES:
            best, index = [], []
            for seed in SEEDS:
                cfg = GeneratorConfig(seed, name, u_max)
                times = []
                for _ in range(REPEATS):
                    t0 = time.perf_counter()
                    tri = random_triangle(cfg)
                    times.append(time.perf_counter() - t0)
                i, rows = accepted_index(seed, name, u_max)
                if [p.v.tolist() for p in tri.points] != [list(r) for r in rows]:
                    sys.exit(f"replay of {type_name} seed {seed} at u_max {u_max} "
                             f"differs from random_triangle")
                best.append(min(times))
                index.append(i)
            row = {"type": type_name, "u_max": u_max,
                   "call_us_median": statistics.median(best) * 1e6,
                   "attempt_median": statistics.median(index),
                   "attempt_p90": nearest_rank(index, 0.9)}
            strata.append(row)
            print(f"{type_name:14s} u_max {u_max:3.0f}  {row['call_us_median']:9.1f} us  "
                  f"attempt median {row['attempt_median']:6.1f}  p90 {row['attempt_p90']}")
    args.out.write_text(json.dumps({
        "seeds": [SEEDS.start, SEEDS.stop - 1], "repeats": REPEATS,
        "python": platform.python_version(), "numpy": np.__version__,
        "strata": strata}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
