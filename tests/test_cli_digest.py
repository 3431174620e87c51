"""The CLI's bytes on tools/cli_digest.py's fixed command set.

A change that alters CLI output on purpose updates DIGEST and lists the
cases that differ.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGEST = "4964664b341d1e1694b05efcd837ddb2dc640a4a15fbcd1ea2e7638aae8344e5  1681 cases"


def test_cli_digest_unchanged():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "cli_digest.py"), str(ROOT)],
                         capture_output=True, text=True, check=True)
    last = run.stdout.splitlines()[-1]
    assert last == DIGEST, (
        f"CLI digest {last!r}, expected {DIGEST!r}. Run "
        "`python3 tools/cli_digest.py <checkout> --cases` on the parent commit and "
        "on this checkout and diff the two listings to find the cases that differ.")
