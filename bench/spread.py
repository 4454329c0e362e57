"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --seeds 10 [--workloads certify stream] \
        [--traced-seeds 1] [--out FILE.json] [--compare bench/results/baseline.json]

For every workload this runs ``bench/run.py --trace 0`` once per seed
(seeds 1..N) and prints, per end-to-end metric, the median, the quartiles
and the spread: the distance between the first and third quartile as a
share of the median, as ``statistics.quantiles(values, n=4)`` gives them.
It then makes ``--traced-seeds`` runs with ``--trace 1`` and reports the
per-layer medians.  Run lengths come from BENCHMARK.json.  With --out,
everything is written as JSON, together with the machine it ran on.
With --compare, each median is also checked against the median of an
earlier such file: it may be worse by at most the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from stats import spread

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed: {proc.stderr}")
    *notes, last = proc.stdout.splitlines()
    result = json.loads(last)
    result["notes"] = [n.strip() for n in notes]
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": spread(values), "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced-seeds", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--compare", help="an earlier --out file")
    args = parser.parse_args()
    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)["workloads"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    report = {
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": spec["run_seconds"],
        "seeds": list(seeds),
        "workloads": {},
    }
    for workload in args.workloads:
        runs = [run_once(workload, seed, spec["run_seconds"], 0) for seed in seeds]
        metrics = {
            name: summarize([r["metrics"][name]["value"] for r in runs]) for name in bounds
        }
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "notes": runs[0]["notes"],
            "end_to_end": metrics,
        }
        print(f"{workload}: correct {entry['correct']}, failed {entry['failed']} "
              f"of {entry['attempted']}")
        for name, m in metrics.items():
            flag = "" if m["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {name:15s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                  f"q3 {m['q3']:<12.6g} spread {m['spread']:.4f} (bound {bounds[name]}){flag}")
            if earlier and workload in earlier:
                before = earlier[workload]["end_to_end"][name]["median"]
                worse = (m["median"] - before) / before
                if better[name] == "higher":
                    worse = -worse
                verdict = "ok" if worse <= bounds[name] else "WORSE THAN THE BOUND"
                print(f"  {'':15s} vs earlier median {before:.6g}: worse by {worse:+.4f} {verdict}")
        if args.traced_seeds:
            traced = [run_once(workload, seed, spec["run_seconds"], 1)
                      for seed in list(seeds)[: args.traced_seeds]]
            entry["per_layer"] = {
                name: statistics.median(r["metrics"][name]["value"] for r in traced)
                for name in traced[0]["metrics"]
            }
            entry["traced_notes"] = traced[0]["notes"]
            print(f"  trace.overhead_s {entry['per_layer']['trace.overhead_s']:.4g}")
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
