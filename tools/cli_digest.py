"""One sha256 over the CLI's output on a fixed command set.

    python3 tools/cli_digest.py <checkout> [--cases]

Imports `dstrig` from `<checkout>/src` and runs `dstrig.cli.main`
in-process on:

- each of the 512 documents of `perfbench/data/pool.jsonl.gz` (read from
  the checkout holding this script) through `classify`, `area` and
  `area --oracle`, and the first 8 through `plot --out -`;
- `classify` on malformed input: a JSONL stream whose third line is
  cut short, a JSON array, empty input, `"schema": true` and a row off
  the quadric;
- `area` on a non-contractible spatiolateral triangle (exit 4) and on
  one with an impossible edge (exit 5);
- `random --count 1` for the four area types at `--u-max` 2, 6 and 8,
  seeds 0-7;
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
    refused = {
        "non-contractible": [[-s3, -c3, 0.0], [0.0, math.cos(1.0), math.sin(1.0)],
                             [0.0, math.cos(1.0), -math.sin(1.0)]],
        "impossible edge": [[0, 1, 0], [math.sinh(1.0), -math.cosh(1.0), 0], [0, 0, 1]],
    }
    for name, rows in refused.items():
        yield f"area {name}", ["area", "--input", "-"], json.dumps({"schema": 1, "vertices": rows})
    for kind in TYPES:
        for u_max in ("2", "6", "8"):
            for seed in range(8):
                argv = ["random", "--type", kind, "--u-max", u_max, "--seed", str(seed)]
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
