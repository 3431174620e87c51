"""Set-up probe: a fresh interpreter imports dstrig.cli, reads the workload's
input and makes one CLI call, then prints "ready".  run.py times this
script from spawn until that line arrives.

    python3 perfbench/setup_probe.py perfbench/out/<workload>-seed<n>-input.jsonl
"""

import json
import sys

import harness


def main(path: str) -> int:
    cli = harness.import_cli()
    with open(path, encoding="utf-8") as fh:
        calls = [json.loads(line) for line in fh]
    rc, _, err, _ = harness.call(cli.main, calls[0]["argv"], calls[0]["stdin"])
    if rc != 0:
        print(f"warm-up call exited {rc}: {err}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
