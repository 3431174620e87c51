"""One sha256 over the CLI's output on a fixed command set.

    python3 tools/cli_digest.py <checkout> [--cases]

Imports `dstrig` from `<checkout>/src` and runs `dstrig.cli.main`
in-process on:

- each of the 512 documents of `perfbench/data/pool.jsonl.gz` (read from
  the checkout holding this script) through `classify`, `area` and
  `area --oracle`, and the first 8 through `plot --out -`;
- all 512 documents as one JSONL stream through `area --oracle` at
  `--grid` 8, 64 and 200, so that a change in the oracle that depends on
  the grid or on which triangles share a call shows;
- `classify` on malformed input: a JSONL stream whose third line is
  cut short, a JSON array, empty input, `"schema": true` and a row off
  the quadric;
- `area` on a non-contractible spatiolateral triangle (exit 4) and on
  one with an impossible edge (exit 5);
- `classify`, `area` and `plot --out -` on six exact documents: a
  photosceles space base and a bimetrical chorosceles (null edges), the
  impossible-edge triangle, and a coincident, an antipodal and a
  collinear vertex triple (exit 3);
- `classify` and `area` on four triples with several degenerate vertex
  pairs, which pin the pair that is named (exit 3): `(p, p, p)`,
  `(p, q, p)`, `(p, q, -q)` and `(p, p, -p)` with `p = (0, 1, 0)` and
  `q = (0, 0, 1)`;
- `random --count 1` for the four area types at `--u-max` 2, 6 and 8,
  seeds 0-7;
- sampler edge cases: a spatiolateral draw accepted at attempt 357 (in
  its sixth 64-attempt block) and the same seed with one attempt too few
  (exit 6), a chorosceles draw at `--u-max` 12 whose off-quadric point
  passes the prefilter (exit 1), and three chronosceles triangles as CSV;
- `verify --type all --trials 10 --seed 0`.

Each case's argv, stdin, exit code, stdout and stderr feed the digest.
An exception escaping `main` is recorded as exit 1 with its type and
message, as the console script would end.  Two checkouts whose CLI
behaves the same on these cases print the same digest.  `--cases` also
prints one line per case (label and its own sha256), so two listings
can be diffed to find the cases that differ.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import math
import sys
from pathlib import Path

POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "pool.jsonl.gz"
TYPES = ("spatiolateral", "tempolateral", "chorosceles", "chronosceles")


def cases():
    """Yield (label, argv, stdin) for every case, in a fixed order."""
    with gzip.open(POOL, "rt", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh][1:]
    for rec in records:
        label = f"{rec['type']}-{rec['u_max']}-{rec['seed']}"
        doc = json.dumps(rec["doc"])
        yield f"classify {label}", ["classify", "--input", "-"], doc
        yield f"area {label}", ["area", "--input", "-"], doc
        yield f"oracle {label}", ["area", "--input", "-", "--oracle"], doc
    for rec in records[:8]:
        label = f"{rec['type']}-{rec['u_max']}-{rec['seed']}"
        yield f"plot {label}", ["plot", "--input", "-", "--out", "-"], json.dumps(rec["doc"])
    stream = "".join(json.dumps(rec["doc"]) + "\n" for rec in records)
    for grid in ("8", "64", "200"):
        argv = ["area", "--input", "-", "--oracle", "--grid", grid]
        yield f"oracle pool --grid {grid}", argv, stream
    first, second = (json.dumps(rec["doc"]) for rec in records[:2])
    malformed = {
        "cut-short jsonl": "\n".join(
            [first, second, '{"schema": 1, "vertices": [[0,1,0],[0,0,1]']) + "\n",
        "json array": f"[{first}]",
        "empty": "",
        "schema true": json.dumps(dict(records[0]["doc"], schema=True)),
        "off quadric": json.dumps({"schema": 1, "vertices": [[0, 1, 0], [0, 0.5, 0], [0, 0, 1]]}),
    }
    for name, text in malformed.items():
        yield f"classify {name}", ["classify", "--input", "-"], text
    s3, c3 = math.sinh(0.3), math.cosh(0.3)
    impossible = [[0, 1, 0], [math.sinh(1.0), -math.cosh(1.0), 0], [0, 0, 1]]
    refused = {
        "non-contractible": [[-s3, -c3, 0.0], [0.0, math.cos(1.0), math.sin(1.0)],
                             [0.0, math.cos(1.0), -math.sin(1.0)]],
        "impossible edge": impossible,
    }
    for name, rows in refused.items():
        yield f"area {name}", ["area", "--input", "-"], json.dumps({"schema": 1, "vertices": rows})
    h = math.sqrt(0.5)
    exact = {
        "photosceles space base": [[0, 1, 0], [1, 1, 1], [0, 0, 1]],
        "bimetrical chorosceles": [[0, 1, 0], [1, 1, 1], [0, -0.6, 0.8]],
        "impossible edge": impossible,
        "coincident": [[0, 1, 0], [0, 1, 0], [0, 0, 1]],
        "antipodal": [[0, 1, 0], [0, -1, 0], [0, 0, 1]],
        "collinear": [[0, 1, 0], [0, 0, 1], [0, h, h]],
    }
    for name, rows in exact.items():
        doc = json.dumps({"schema": 1, "vertices": rows})
        for argv in (["classify", "--input", "-"], ["area", "--input", "-"],
                     ["plot", "--input", "-", "--out", "-"]):
            yield f"{argv[0]} exact {name}", argv, doc
    p, q, minus_p, minus_q = [0, 1, 0], [0, 0, 1], [0, -1, 0], [0, 0, -1]
    several = {"p p p": [p, p, p], "p q p": [p, q, p], "p q -q": [p, q, minus_q],
               "p p -p": [p, p, minus_p]}
    for name, rows in several.items():
        doc = json.dumps({"schema": 1, "vertices": rows})
        for argv in (["classify", "--input", "-"], ["area", "--input", "-"]):
            yield f"{argv[0]} degenerate pairs {name}", argv, doc
    for kind in TYPES:
        for u_max in ("2", "6", "8"):
            for seed in range(8):
                argv = ["random", "--type", kind, "--u-max", u_max, "--seed", str(seed)]
                yield " ".join(argv), argv, None
    spatio = ["random", "--type", "spatiolateral", "--u-max", "6", "--seed", "0"]
    for argv in (spatio + ["--max-attempts", "357"], spatio + ["--max-attempts", "356"],
                 ["random", "--type", "chorosceles", "--u-max", "12", "--seed", "0"],
                 ["random", "--type", "chronosceles", "--u-max", "6", "--seed", "5",
                  "--count", "3", "--format", "csv"]):
        yield " ".join(argv), argv, None
    argv = ["verify", "--type", "all", "--trials", "10", "--seed", "0"]
    yield " ".join(argv), argv, None


def run(main, argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # the console script would end here
                err.write(f"uncaught {type(exc).__name__}: {exc}\n")
                code = 1
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path, help="repository checkout to run")
    parser.add_argument("--cases", action="store_true", help="also print each case's digest")
    args = parser.parse_args()
    src = (args.checkout / "src").resolve()
    sys.path.insert(0, str(src))
    import dstrig.cli

    if not Path(dstrig.cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"dstrig imported from {dstrig.cli.__file__}, not {src}")
    total = hashlib.sha256()
    n = 0
    for label, argv, stdin in cases():
        record = json.dumps([argv, stdin, *run(dstrig.cli.main, argv, stdin)]).encode()
        total.update(record + b"\n")
        n += 1
        if args.cases:
            print(f"{hashlib.sha256(record).hexdigest()}  {label}")
    print(f"{total.hexdigest()}  {n} cases")
    return 0


if __name__ == "__main__":
    sys.exit(main())
