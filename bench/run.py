"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: callan is imported from ./src.
Every repetition runs in a fresh interpreter (worker.py), so lru_caches
start cold and peak RSS is the repetition's own.  Repetitions of one run
see the same inputs and hash seed, so they make the same ops in the same
order; they continue until --seconds have been spent.

Timings are per-op best of k: each op's latency is its minimum over the
repetitions, and wall_s is the sum of those minima plus the least time
spent outside ops.  The shared machines this runs on switch between fast
and slow phases lasting seconds, so a whole repetition's time, or its
median, depends on the phases it met; an op's best time does not.
setup_s and peak_rss_mb are medians.

--trace 0 prints the end-to-end metrics of untraced repetitions.
--trace 1 alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones (medians over them) plus
trace.overhead_s, the traced minus the untraced wall_s.  The spans of the
last traced repetition are written to bench/out/<workload>.spans.jsonl.gz.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit status is 1, with no
such line, when a repetition cannot run at all (for example when there is
no ./src/callan).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from stats import p50_and_tail
from tracing import LAYER_METRICS
from workloads import WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
OUT = os.path.join(BENCH, "out")

# Setup-only interpreters after each repetition, so that setup samples
# spread over the whole run rather than one moment of it.
SETUP_PROBES_PER_REPETITION = 2
CHILD_TIMEOUT_S = 60  # a repetition takes seconds; the whole run must end within 180 s
# No PYTHON* setting of the caller reaches a repetition; a fixed hash seed
# makes set and dict orders, hence the ops, repeat exactly.
CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
CHILD_ENV["PYTHONHASHSEED"] = "0"

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("objects_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
)


class BenchError(RuntimeError):
    """A repetition could not run; the benchmark prints no result."""


def child(workload: str, seed: int, mode: str) -> dict:
    cmd = [sys.executable, "-s", WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    if mode == "traced":
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(OUT, f"{workload}.spans.jsonl.gz")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} repetition timed out after {exc.timeout} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} repetition exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, traced: bool):
    """(setup-only results, untraced repetitions, traced repetitions)."""
    child(workload, seed, "setup")  # byte-compiles the sources; not counted
    setups, runs, traced_runs = [], [], []
    start = time.perf_counter()
    while True:
        rep_start = time.perf_counter()
        runs.append(child(workload, seed, "run"))
        if traced:
            traced_runs.append(child(workload, seed, "traced"))
        setups += [child(workload, seed, "setup") for _ in range(SETUP_PROBES_PER_REPETITION)]
        now = time.perf_counter()
        if now - start + (now - rep_start) > seconds:
            return setups, runs, traced_runs


def best_of(runs: list[dict]) -> tuple[list[float], float]:
    """Per-op best of the repetitions: (each op's least latency in ms,
    wall_s made of those latencies plus the least time outside ops)."""
    if len({len(r["op_ms"]) for r in runs}) != 1:
        raise BenchError("repetitions of one run made different numbers of ops")
    ops = [min(latencies) for latencies in zip(*(r["op_ms"] for r in runs))]
    outside = min(r["wall_s"] - sum(r["op_ms"]) / 1000 for r in runs)
    return ops, sum(ops) / 1000 + outside


def end_to_end(setups: list[dict], runs: list[dict]) -> tuple[dict, list[str]]:
    ops, wall = best_of(runs)
    p50, tail, percentile = p50_and_tail(ops)
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(r["setup_s"] for r in setups + runs),
        "objects_per_s": runs[0]["objects"] / wall,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "op_p50_ms": p50,
        "op_tail_ms": tail,
    }
    notes = [
        f"repetitions {len(runs)}, setup samples {len(setups) + len(runs)}",
        f"op_tail_ms is p{percentile:g} of {len(ops)} ops",
    ]
    return values, notes


def per_layer(runs: list[dict], traced_runs: list[dict]) -> tuple[dict, list[str]]:
    values = {
        name: statistics.median(r["layers"][name] for r in traced_runs)
        for name, _, _ in LAYER_METRICS
        if name != "trace.overhead_s"
    }
    values["trace.overhead_s"] = best_of(traced_runs)[1] - best_of(runs)[1]
    notes = [
        f"traced repetitions {len(traced_runs)}, spans {traced_runs[-1]['spans']}",
        "series.coeff_ops is computed from operand orders, not counted",
    ]
    return values, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "callan", "__init__.py")):
        print(f"bench: no callan sources under {ROOT}/src", file=sys.stderr)
        return 1
    try:
        setups, runs, traced_runs = measure(args.workload, args.seed, args.seconds,
                                            bool(args.trace))
        if args.trace:
            values, notes = per_layer(runs, traced_runs)
            units = {name: unit for name, unit, _ in LAYER_METRICS}
        else:
            values, notes = end_to_end(setups, runs)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    measured = runs + traced_runs
    attempted = sum(r["attempted"] for r in measured)
    failed = sum(r["failed"] for r in measured)
    cold = all(r["caches_cold"] for r in measured)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in values.items():
        print(f"  {name:45s} {value:>16.6g} {units[name]}")
    for note in notes:
        print(f"  {note}")
    print(f"  fail_ratio {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    print(f"  caches cold at start of every repetition: {cold} "
          f"({', '.join(sorted(runs[0]['cache_sizes_at_start']))})")
    for error in [e for r in measured for e in r["errors"]][:10]:
        print(f"  error: {error}")
    print(json.dumps({
        "correct": failed == 0 and cold,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
