"""Record the reference pool (data/pool.jsonl.gz) from the checkout's dstrig.

    python3 perfbench/record.py

For every stratum of checks.STRATA, runs `dstrig random` on seeds
0..POOL_SIZE-1, then `classify` and `area` on the emitted documents, and
stores each triangle's document and reports.
Re-recording replaces the references every later run is checked against,
so do it only when the benchmark itself is redefined.
"""

from __future__ import annotations

import gzip
import json
import sys

import harness
from checks import POOL_FILE, POOL_SIZE, STRATA, parse_lines


def _run(main, argv, stdin_text=""):
    rc, out, err, _ = harness.call(main, argv, stdin_text)
    if rc != 0:
        raise SystemExit(f"dstrig {' '.join(argv)} exited {rc}: {err}")
    return out


def record() -> None:
    cli = harness.import_cli()
    header = {
        **harness.run_metadata(),
        "pool_size": POOL_SIZE,
        "strata": [list(s) for s in STRATA],
    }
    POOL_FILE.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(POOL_FILE, "wt", encoding="utf-8", compresslevel=9) as fh:
        fh.write(json.dumps(header) + "\n")
        for type_, u_max in STRATA:
            docs_text = _run(cli.main, ["random", "--type", type_, "--u-max", u_max,
                                        "--seed", "0", "--count", str(POOL_SIZE)])
            docs = parse_lines(docs_text)
            classes = parse_lines(_run(cli.main, ["classify", "--input", "-"], docs_text))
            areas = parse_lines(_run(cli.main, ["area", "--input", "-"], docs_text))
            for doc, klass, area in zip(docs, classes, areas, strict=True):
                seed = doc.pop("metadata")["seed"]
                rec = {"type": type_, "u_max": u_max, "seed": seed,
                       "doc": doc, "classify": klass, "area": area}
                fh.write(json.dumps(rec) + "\n")
            print(f"recorded {type_} u_max={u_max}", file=sys.stderr)


if __name__ == "__main__":
    record()
