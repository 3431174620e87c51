"""dstrig benchmark: drives the public CLI (dstrig.cli.main) in-process.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

One process, one thread, a closed loop with a single caller: each CLI call
starts when the previous one has returned and its output has been checked.
Inputs are a seeded arrangement of the recorded pool (checks.py), so every
output has a reference recorded from the commit that defined the benchmark.

Workloads (why each exists is in BENCHMARK.json):
  stream        `classify` and `area` alternate on chunks of 8 documents,
                one per (type, rapidity bound) stratum.
  oracle-check  `area --oracle --grid 64` on chunks built the same way,
                in an arrangement of their own.
  sample        `random --type T --u-max U --seed S --count 2`, cycling
                through the four types and both rapidity bounds.

Every reported time is scaled to a fixed reference CPU speed by
harness.SpeedGauge, read between blocks of calls; raw wall times are kept
in the result file.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 a fixed prefix of the workload runs alternately untraced and
traced, and the last line carries the per-layer metrics.  Full results go
to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import harness
import numpy as np
from checks import (
    STRATA,
    TYPES,
    U_MAXES,
    load_pool,
    mismatch,
    oracle_cells,
    oracle_gap,
    parse_lines,
    sample_doc,
)

WORKLOADS = ("stream", "oracle-check", "sample")
CHUNK = len(STRATA)
ORACLE_GRID = "64"
SAMPLE_COUNT = 2
# Calls per traced repetition: a fixed prefix of the call cycle, so that
# two traced runs of the same seed do exactly the same work.
TRACE_CALLS = {"stream": 128, "oracle-check": 16, "sample": 64}
# call_tail_ms is the nearest-rank p90 of call wall time; a run makes
# well over 100 calls on every workload, so at least ten lie beyond it.
TAIL_PERCENTILE = 90
SETUP_REPEATS = 5
# Calls between two readings of the speed gauge, in seconds of call time.
BLOCK_S = 0.25
MAX_FAILURE_NOTES = 5


@dataclass
class Call:
    command: str          # classify | area | oracle | random
    argv: list[str]
    stdin: str
    recs: list[dict]      # pool records of the triangles, in output order


def _docs_text(recs) -> str:
    return "".join(json.dumps(r["doc"]) + "\n" for r in recs)


def _stratified_chunks(rng: random.Random, pool: dict) -> list[list[dict]]:
    """Chunks of one triangle per stratum, each stratum in seeded order."""
    perms = {}
    for stratum in STRATA:
        perms[stratum] = list(pool[stratum])
        rng.shuffle(perms[stratum])
    chunks = []
    for j in range(len(perms[STRATA[0]])):
        chunk = [perms[s][j] for s in STRATA]
        rng.shuffle(chunk)
        chunks.append(chunk)
    return chunks


def plan_calls(workload: str, seed: int, pool: dict) -> list[Call]:
    """One cycle of calls; a run repeats the cycle until its time is up."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "stream":
        chunks = _stratified_chunks(rng, pool)
        calls = []
        for i in range(2 * len(chunks)):
            chunk = chunks[i % len(chunks)]
            if (i + i // len(chunks)) % 2 == 0:
                calls.append(Call("classify", ["classify", "--input", "-"],
                                  _docs_text(chunk), chunk))
            else:
                calls.append(Call("area", ["area", "--input", "-"], _docs_text(chunk), chunk))
        return calls
    if workload == "oracle-check":
        argv = ["area", "--input", "-", "--oracle", "--grid", ORACLE_GRID]
        return [Call("oracle", argv, _docs_text(chunk), chunk)
                for chunk in _stratified_chunks(rng, pool)]
    if workload == "sample":
        groups = {}
        for type_, u_max in STRATA:
            recs = pool[(type_, u_max)]
            g = [recs[i:i + SAMPLE_COUNT] for i in range(0, len(recs), SAMPLE_COUNT)]
            rng.shuffle(g)
            groups[(type_, u_max)] = g
        calls = []
        for j in range(len(groups[STRATA[0]])):
            for type_, u_max in STRATA:
                recs = groups[(type_, u_max)][j]
                argv = ["random", "--type", type_, "--u-max", u_max,
                        "--seed", str(recs[0]["seed"]), "--count", str(len(recs))]
                calls.append(Call("random", argv, "", recs))
        return calls
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Tally:
    """Per-triangle outcome counts over the calls of a run."""

    attempted: int = 0
    failed: int = 0
    oracle_checked: int = 0
    oracle_beyond: int = 0
    oracle_gap_max: float = 0.0
    oracle_cells: int = 0
    oracle_levels: int = 0
    notes: list = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def _fail(self, n: int, note: str) -> None:
        self.failed += n
        if len(self.notes) < MAX_FAILURE_NOTES:
            self.notes.append(note)

    def check(self, call: Call, rc: int, stdout: str, stderr: str) -> int:
        """Check one call's output; return the number of triangles completed."""
        n = len(call.recs)
        self.attempted += n
        before = self.failed
        lines = parse_lines(stdout)
        if rc != 0 or len(lines) > n:
            self._fail(n, f"{' '.join(call.argv)}: exit {rc}, {len(lines)} lines; "
                          f"{stderr.strip()[-300:]}")
            return 0
        for i, rec in enumerate(call.recs):
            where = f"{call.command} {rec['type']} u_max={rec['u_max']} seed={rec['seed']}"
            if i >= len(lines) or lines[i] is None:
                self._fail(1, f"{where}: output line missing or not JSON")
                continue
            out = lines[i]
            if call.command == "random":
                expected = sample_doc(rec, i)
                bad = None if out == expected else f"{out!r} is not the recorded {expected!r}"
            elif call.command == "classify":
                bad = mismatch(out, rec["classify"])
            else:
                bad = mismatch(out, rec["area"])
                if bad is None and call.command == "oracle":
                    bad, gap, beyond = oracle_gap(out, rec["area"])
                    if bad is None:
                        self.oracle_checked += 1
                        self.oracle_beyond += beyond
                        self.oracle_gap_max = max(self.oracle_gap_max, gap)
                        cells, levels = oracle_cells(out)
                        self.oracle_cells += cells
                        self.oracle_levels += levels
            if bad:
                self._fail(1, f"{where}: {bad}")
        return n - (self.failed - before)


def _run_calls(cli, calls, tally: Tally, gauge, budget_s: float | None = None,
               tracer=None):
    """Run calls in order (cycling while budget_s lasts) and check each.

    Returns (per-call times scaled by the gauge, raw busy seconds,
    triangles completed).  The gauge is read after every BLOCK_S of calls
    and at the end, so each block is scaled by the speed measured around it.
    """
    scaled, pending = [], []
    raw = 0.0
    completed = 0
    start = time.perf_counter()
    i = 0
    while i < len(calls) if budget_s is None else time.perf_counter() - start < budget_s:
        call = calls[i % len(calls)]
        if tracer is not None:
            tracer.current_request += 1
        rc, out, err, seconds = harness.call(cli.main, call.argv, call.stdin)
        completed += tally.check(call, rc, out, err)
        pending.append(seconds)
        raw += seconds
        if sum(pending) >= BLOCK_S:
            f = gauge.factor()
            scaled += [t * f for t in pending]
            pending = []
        i += 1
    if pending:
        f = gauge.factor()
        scaled += [t * f for t in pending]
    return scaled, raw, completed


def _write_setup_input(workload: str, seed: int, calls) -> str:
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = harness.OUT_DIR / f"{workload}-seed{seed}-input.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for call in calls:
            fh.write(json.dumps({"argv": call.argv, "stdin": call.stdin}) + "\n")
    return str(path)


def measure_setup(input_path: str, gauge) -> tuple[list[float], list[float]]:
    """(scaled, raw) set-up times of fresh interpreters running setup_probe.py.

    Each is timed from spawn until the probe reports its warm-up call done
    (a blocking pipe read, so no polling interval is added).  The first,
    which also compiles bytecode caches, is left out.
    """
    probe = [sys.executable, str(harness.BENCH_DIR / "setup_probe.py"), input_path]
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS + 1):
        gauge.factor()
        t0 = time.perf_counter()
        with subprocess.Popen(probe, cwd=harness.ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited {rc} after {line!r}")
        scaled.append(seconds * gauge.factor())
        raw.append(seconds)
    return scaled[1:], raw[1:]


def nearest_rank(values, percentile: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile / 100.0 * len(ordered)) - 1)]


def run_untraced(cli, workload, seed, seconds, calls, gauge):
    setup_times, setup_raw = measure_setup(_write_setup_input(workload, seed, calls), gauge)
    tally = Tally()
    _run_calls(cli, calls[:1], Tally(), gauge)  # warm-up, unchecked and untimed
    times, raw, completed = _run_calls(cli, calls, tally, gauge, seconds)
    busy = sum(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "tri_per_s": (completed / busy, "tri/s"),
        "call_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "call_tail_ms": (nearest_rank(times, TAIL_PERCENTILE) * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    extra = {
        "calls": len(times),
        "busy_s": busy,
        "raw_busy_s": raw,
        "raw_tri_per_s": completed / raw,
        "tail_percentile": TAIL_PERCENTILE,
        "setup_times_s": setup_times,
        "raw_setup_times_s": setup_raw,
    }
    return tally, metrics, extra


def run_traced(cli, workload, seconds, calls, gauge):
    from tracer import NAMES, Tracer

    seq = calls[:TRACE_CALLS[workload]]
    tracer = Tracer()
    _run_calls(cli, seq[:1], Tally(), gauge)  # warm-up
    untraced_s = traced_s = 0.0
    tally = Tally()
    completed = reps = 0
    span_scale = []  # (spans recorded, gauge scale) per traced repetition
    start = time.perf_counter()
    while reps == 0 or time.perf_counter() - start < seconds:
        times, _, _ = _run_calls(cli, seq, Tally(), gauge)
        untraced_s += sum(times)
        spans_before = len(tracer.name)
        with tracer:
            times, raw, done = _run_calls(cli, seq, tally, gauge, tracer=tracer)
        traced_s += sum(times)
        span_scale.append((len(tracer.name) - spans_before, sum(times) / raw))
        completed += done
        reps += 1
    s = tracer.summary(np.repeat([f for _, f in span_scale], [n for n, _ in span_scale]))
    tris = max(completed, 1)
    metrics = {}
    for name in NAMES:
        calls_n, self_s = s["per_name"][name]["calls"], s["per_name"][name]["self_s"]
        metrics[f"{name}.calls_per_tri"] = (calls_n / tris, "calls/tri")
        metrics[f"{name}.self_us"] = (self_s / calls_n * 1e6 if calls_n else 0.0, "us")
        metrics[f"{name}.self_share"] = (self_s / traced_s, "ratio")
    attempts = s["sampler_attempts"]
    metrics.update({
        "oracle.integrate_area.cells_per_tri": (tally.oracle_cells / tris, "cells/tri"),
        "oracle.integrate_area.levels_per_tri": (tally.oracle_levels / tris, "levels/tri"),
        "oracle.integrate_area.miss_ratio": (
            tally.oracle_beyond / tally.oracle_checked if tally.oracle_checked else 0.0,
            "ratio"),
        "oracle.integrate_area.gap_max": (tally.oracle_gap_max, "area"),
        "oracle.random_triangle.accept_ratio": (
            s["sampler_accepted"] / attempts if attempts else 0.0, "ratio"),
        "oracle.random_triangle.geometry_error_ratio": (
            s["sampler_attempts_raised"] / attempts if attempts else 0.0, "ratio"),
        "trace.overhead_ratio": (traced_s / untraced_s - 1.0, "ratio"),
    })
    extra = {
        "repetitions": reps,
        "calls_per_repetition": len(seq),
        "triangles_per_repetition": completed // reps,
        "traced_s": traced_s,
        "untraced_s": untraced_s,
        "spans": s["spans"],
        "untraced_targets": tracer.missing,
        "sampler": {k: s[k] for k in ("sampler_calls", "sampler_accepted",
                                      "sampler_attempts", "sampler_attempts_raised")},
    }
    return tally, metrics, extra, tracer


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = harness.import_cli()
    header, pool = load_pool()
    calls = plan_calls(workload, seed, pool)
    gauge = harness.SpeedGauge()
    tracer = None
    if trace:
        tally, metrics, extra, tracer = run_traced(cli, workload, seconds, calls, gauge)
    else:
        tally, metrics, extra = run_untraced(cli, workload, seed, seconds, calls, gauge)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "inputs": {
            "rapidity_bounds": list(U_MAXES),
            "types": list(TYPES),
            "chunk_size": SAMPLE_COUNT if workload == "sample" else CHUNK,
            "calls_per_cycle": len(calls),
            "triangles_per_cycle": sum(len(c.recs) for c in calls),
            "pool_commit": header["commit"],
        },
        "triangles": {
            "attempted": tally.attempted,
            "failed": tally.failed,
            "completed": tally.completed,
            "oracle_checked": tally.oracle_checked,
            "oracle_beyond_acceptance": tally.oracle_beyond,
        },
        # fail_ratio counts, besides failed outputs, the triangles whose
        # oracle area misses the acceptance rule max(1e-3, 3 * est_error):
        # the fan oracle's known miss, recorded here as measured.
        "fail_ratio": (tally.failed + tally.oracle_beyond) / max(tally.attempted, 1),
        "oracle_gap_max": tally.oracle_gap_max,
        "failure_notes": tally.notes,
        "run": extra,
        "meta": harness.run_metadata(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = harness.OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    if tracer is not None:
        tracer.write(f"{stem}-spans.npz")
    return result


def _print_report(result: dict) -> None:
    w = result["workload"]
    for name, m in result["metrics"].items():
        print(f"{w:12s} {name:48s} {m['value']:.6g} {m['unit']}")
    tri = result["triangles"]
    print(f"{w:12s} {'fail_ratio':48s} {result['fail_ratio']:.6g} ratio "
          f"({tri['failed']} failed + {tri['oracle_beyond_acceptance']} oracle misses "
          f"of {tri['attempted']})")
    if tri["oracle_checked"]:
        print(f"{w:12s} {'oracle_gap_max':48s} {result['oracle_gap_max']:.6g} area")
    for note in result["failure_notes"]:
        print(f"{w:12s} failure: {note}")


def _result_line(result: dict) -> str:
    tri = result["triangles"]
    return json.dumps({
        "correct": tri["failed"] == 0,
        "attempted": tri["attempted"],
        "failed": tri["failed"],
        "metrics": result["metrics"],
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # Each workload in its own process, so peak_rss_mb is its own.
        for w in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            subprocess.run(cmd, check=True, timeout=600)
        return 0
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.SourceMissingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_report(result)
    print(_result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
