"""Shared plumbing: import dstrig from the checkout and call its CLI in-process.

The benchmark's entry scripts import this module before NumPy, so the
thread pins below are in the environment when NumPy loads.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


class SourceMissingError(RuntimeError):
    """The checkout holds no dstrig sources to benchmark."""


def import_cli():
    """Import dstrig.cli from the checkout's src/, never from site-packages."""
    if not (SRC / "dstrig" / "cli.py").is_file():
        raise SourceMissingError(f"no dstrig sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dstrig.cli

    where = Path(dstrig.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SourceMissingError(f"dstrig was imported from {where}, not from {SRC}")
    return dstrig.cli


def call(main, argv: list[str], stdin_text: str = "") -> tuple[int, str, str, float]:
    """Run main(argv) with stdin/stdout/stderr redirected; return (rc, out, err, seconds).

    A SystemExit (argparse usage errors) yields its code; any other
    exception escaping main yields rc -1 with the traceback as stderr.
    Only the main() call itself is inside the timed interval.
    """
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                rc = -1
                err.write(traceback.format_exc())
            seconds = time.perf_counter() - t0
    finally:
        sys.stdin = saved_stdin
    return rc, out.getvalue(), err.getvalue(), seconds


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata() -> dict:
    """Commit, interpreter, NumPy, core count and thread pins of this run."""
    import numpy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "threads": {k: os.environ.get(k) for k in THREAD_PINS},
    }


class SpeedGauge:
    """Scales wall times to a fixed reference CPU speed.

    The host's speed drifts by tens of percent within a minute (shared
    cores, frequency changes), far more than the bounds the benchmark sets.
    A fixed kernel is timed between blocks of calls: half of it is
    interpreter work with small NumPy calls, like the closed-form and
    sampler paths, and half is a pass over 16k-row arrays, like the oracle.
    A time t measured while the kernel took c seconds is reported as
    t * REFERENCE_S / c.  The kernel touches no dstrig code, so a change to
    dstrig cannot move it.
    """

    REFERENCE_S = 1.5e-3
    _REPS = 60
    _M = [[2.0, 0.3, 0.1], [0.2, 1.5, 0.4], [0.1, 0.2, 1.8]]
    _ROWS = 16384

    def __init__(self):
        import numpy as np

        self._np = np
        self._m = np.array(self._M)
        self._grid = np.linspace(0.0, 1.0, self._ROWS)
        self._rows = np.random.default_rng(0).random((self._ROWS, 3))
        self.last = self.measure()

    def _kernel(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(self._REPS):
            v = np.array([float(i), 1.0, 2.0])
            acc += -(v[0] * v[0]) + v[1] * v[1] + v[2] * v[2]
            acc += float(np.linalg.det(self._m)) + math.acosh(1.0 + i % 7)
            acc += len(repr({"a": [1.0, 2.0, acc], "b": i})) * 1e-9
        for _ in range(2):
            r = np.sin(self._grid)[:, None] * self._rows
            q = -(r[:, 0] * r[:, 0]) + r[:, 1] * r[:, 1] + r[:, 2] * r[:, 2]
            acc += float(np.sum(np.sqrt(np.abs(q))))
        return time.perf_counter() - t0

    def measure(self) -> float:
        """Median of three kernel timings (a few ms in all)."""
        return statistics.median(self._kernel() for _ in range(3))

    def factor(self) -> float:
        """Scale for the times measured since the previous call."""
        now = self.measure()
        scale = self.REFERENCE_S / ((now + self.last) / 2.0)
        self.last = now
        return scale
