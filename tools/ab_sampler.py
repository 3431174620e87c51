"""Time two checkouts' random_triangle against each other in one process.

    python3 tools/ab_sampler.py <parent-checkout> <checkout>

Imports `dstrig` from `<parent-checkout>/src`, clears it from
`sys.modules`, and imports it again from `<checkout>/src`, so that both run
in this one process.  For each case, a target and a `u_max` (the four area
types at `u_max` 2 and 6, and spatiolateral at 0.5, 4, `_UNIT_SAFE_U` and
8), and for each seed 0-47, it calls `random_triangle(GeneratorConfig(seed,
target, u_max))` of the two checkouts in turn, 9 times each, alternating
which goes first, and keeps each side's best time (`time.perf_counter`).  A
call that raises a `GeometryError` (at `u_max` 8 a vertex may be off the
quadric) is timed to its raise.  The two sides must give the same vertices,
or the same error, or the script exits 1.

Per case it prints the median over the seeds of each seed's best-time ratio,
checkout over parent, with its quartiles, and the ratio of the two sides'
summed best times.  Alternating call by call in one process keeps the
host's drift, which moves separate runs by up to ~1.7x, out of the ratios.
Run it on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import importlib
import math
import statistics
import sys
import time
from pathlib import Path

SEEDS = range(48)
REPEATS = 9


def load(checkout: Path, module: str = "dstrig.oracle"):
    """checkout's module of dstrig, imported afresh from <checkout>/src."""
    for name in [n for n in sys.modules if n == "dstrig" or n.startswith("dstrig.")]:
        del sys.modules[name]
    src = (checkout / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        loaded = importlib.import_module(module)
    finally:
        sys.path.remove(str(src))
    if not Path(loaded.__file__).resolve().is_relative_to(src):
        sys.exit(f"dstrig imported from {loaded.__file__}, not {src}")
    return loaded


def cases(oracle) -> list[tuple[str, float]]:
    """(target name, u_max) of every case, in print order."""
    types = [t.value for t in oracle._AREA_TYPES]
    return [*((t, u) for u in (2.0, 6.0) for t in types),
            *(("spatiolateral", u) for u in (0.5, 4.0, oracle._UNIT_SAFE_U, 8.0))]


def outcome(oracle, cfg):
    """The vertices of oracle.random_triangle(cfg), or the name of its error."""
    try:
        return [p.v.tolist() for p in oracle.random_triangle(cfg).points]
    except oracle.GeometryError as exc:
        return type(exc).__name__


def seconds(oracle, cfg) -> float:
    """Wall time of one oracle.random_triangle(cfg) call, to its return or raise."""
    t0 = time.perf_counter()
    try:
        oracle.random_triangle(cfg)
    except oracle.GeometryError:
        pass
    return time.perf_counter() - t0


def best_times(sides, target: str, u_max: float, seeds=SEEDS, repeats: int = REPEATS):
    """Per seed, each side's best of repeats random_triangle calls, in seconds.

    The sides alternate call by call, and which goes first alternates too.
    Exits 1 where the sides' outcomes differ."""
    rows = []
    for seed in seeds:
        cfgs = [o.GeneratorConfig(seed, o.ProperName(target), u_max) for o in sides]
        if outcome(sides[0], cfgs[0]) != outcome(sides[1], cfgs[1]):
            sys.exit(f"{target} u_max {u_max:g} seed {seed}: the checkouts' outcomes differ")
        best = [math.inf, math.inf]
        for r in range(repeats):
            for i in (0, 1) if r % 2 == 0 else (1, 0):
                best[i] = min(best[i], seconds(sides[i], cfgs[i]))
        rows.append(best)
    return rows


def summary(rows) -> str:
    """Median per-seed ratio (second side over first) with quartiles, and the
    summed-time ratio."""
    ratios = [b / a for a, b in rows]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    summed = sum(b for _, b in rows) / sum(a for a, _ in rows)
    return (f"median ratio {median:.3f} (quartiles {q1:.3f}-{q3:.3f})  "
            f"summed {summed:.3f}  parent median {statistics.median(a for a, _ in rows) * 1e3:.3f} ms")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("checkout", type=Path, help="checkout whose time is the numerator")
    args = parser.parse_args()
    sides = (load(args.parent), load(args.checkout))
    print(f"seeds {SEEDS.start}-{SEEDS.stop - 1}, best of {REPEATS}, checkout over parent")
    for target, u_max in cases(sides[1]):
        rows = best_times(sides, target, u_max)
        print(f"{target:14s} u_max {u_max:<8.4g} {summary(rows)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
