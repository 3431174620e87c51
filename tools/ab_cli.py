"""Time two checkouts' CLI against each other in one process.

    python3 tools/ab_cli.py <parent-checkout> <checkout>

Imports `dstrig.cli` from `<parent-checkout>/src`, clears `dstrig` from
`sys.modules`, and imports it again from `<checkout>/src`, so that both run
in this one process (`tools/ab_sampler.py`'s `load`).  It reads the 512
documents of `perfbench/data/pool.jsonl.gz` from the checkout holding this
script and makes the 64 chunks of one document per pool stratum (four area
types x `u_max` 2 and 6: the `stream` workload's chunks, as
`tools/bench_layers.py` makes them).  For each command, `classify`, `area`
and `area --oracle --grid 64`, and each chunk, it calls
`dstrig.cli.main([command, "--input", "-", ...])` of the two checkouts in
turn on the chunk's JSONL, 15 times each, alternating which goes first, and
keeps each side's best time (`time.perf_counter`).  The two sides must
print the same output and return the same exit code, or the script exits 1.

Per command it prints the median over the chunks of each chunk's best-time
ratio, checkout over parent, with its quartiles, and the parent's median
time per document.  Alternating call by call in one process keeps the
host's drift out of the ratios.  Run it on an otherwise idle machine, and
once with the parent against a copy of itself to see the noise.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import statistics
import sys
import time
from pathlib import Path

from ab_sampler import load

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "pool.jsonl.gz"
REPEATS = 15
CHUNK = 8
COMMANDS = (("classify",), ("area",), ("area", "--oracle", "--grid", "64"))


def chunks() -> list[str]:
    """The pool's 64 JSONL chunks of one document per stratum."""
    with gzip.open(POOL, "rt", encoding="utf-8") as fh:
        records = [json.loads(line) for line in list(fh)[1:]]  # line 1: metadata
    strata = {}
    for rec in records:
        strata.setdefault((rec["type"], float(rec["u_max"])), []).append(rec["doc"])
    if len(strata) != CHUNK:
        sys.exit(f"expected {CHUNK} pool strata, found {len(strata)}")
    return ["".join(json.dumps(doc) + "\n" for doc in docs) for docs in zip(*strata.values())]


def run(cli, argv: list[str], text: str) -> tuple[float, int, str]:
    """Wall time, exit code and output of one cli.main(argv) call on text."""
    saved, out = sys.stdin, io.StringIO()
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            code = cli.main(argv)
            seconds = time.perf_counter() - t0
    finally:
        sys.stdin = saved
    return seconds, code, out.getvalue()


def best_times(sides, command: tuple[str, ...], texts: list[str], repeats: int = REPEATS):
    """Per chunk, each side's best of repeats calls, in seconds.

    The sides alternate call by call, and which goes first alternates too.
    Exits 1 where the sides' exit codes or outputs differ."""
    argv = [command[0], "--input", "-", *command[1:]]
    rows = []
    for j, text in enumerate(texts):
        best, seen = [math.inf, math.inf], [None, None]
        for r in range(repeats):
            for i in (0, 1) if r % 2 == 0 else (1, 0):
                seconds, *seen[i] = run(sides[i], argv, text)
                best[i] = min(best[i], seconds)
            if seen[0] != seen[1]:
                sys.exit(f"{' '.join(command)} chunk {j}: the checkouts' outputs differ")
        rows.append(best)
    return rows


def summary(rows) -> str:
    """Median per-chunk ratio (second side over first) with quartiles."""
    q1, median, q3 = statistics.quantiles([b / a for a, b in rows], n=4, method="inclusive")
    per_doc = statistics.median(a for a, _ in rows) / CHUNK
    return (f"median ratio {median:.3f} (quartiles {q1:.3f}-{q3:.3f})  "
            f"parent median {per_doc * 1e6:.1f} us/doc")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("checkout", type=Path, help="checkout whose time is the numerator")
    args = parser.parse_args()
    sides = (load(args.parent, "dstrig.cli"), load(args.checkout, "dstrig.cli"))
    texts = chunks()
    print(f"{len(texts)} chunks of {CHUNK} documents, best of {REPEATS}, checkout over parent")
    for command in COMMANDS:
        print(f"{' '.join(command):28s} {summary(best_times(sides, command, texts))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
