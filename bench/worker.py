"""One repetition of a benchmark workload in a fresh interpreter.

Started by run.py, never by hand.  The interpreter is new, so every
lru_cache starts cold and the peak RSS belongs to this repetition alone.
Modes: ``setup`` only imports callan and generates the inputs; ``run``
also runs the timed phase; ``traced`` runs it with the span tracer
installed and adds the per-layer metrics.  The result is one JSON line on
standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
sys.path.insert(0, BENCH)

import tracing  # noqa: E402
import workloads  # noqa: E402


def cache_sizes(*modules) -> dict[str, int]:
    """currsize of every lru_cache defined in the given modules."""
    return {
        f"{mod.__name__.rsplit('.', 1)[-1]}.{name}": fn.cache_info().currsize
        for mod in modules
        for name, fn in vars(mod).items()
        if hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == mod.__name__
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import callan
    from callan import bijections, cli, combinat, harness, numbers, series
    from callan.errors import DomainError

    if os.path.dirname(os.path.abspath(callan.__file__)) != os.path.join(SRC, "callan"):
        raise SystemExit(f"callan imported from {callan.__file__}, not from {SRC}")
    inputs = workloads.make_inputs(args.workload, args.seed)
    result = {"setup_s": time.perf_counter() - t0}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    caches = cache_sizes(numbers, combinat)
    result["cache_sizes_at_start"] = caches
    result["caches_cold"] = bool(caches) and not any(caches.values())
    lib = argparse.Namespace(
        cli=cli, numbers=numbers, combinat=combinat, bijections=bijections,
        DomainError=DomainError,
    )
    tracer = None
    paused = contextlib.nullcontext
    if args.mode == "traced":
        tracer = tracing.Tracer(DomainError)
        tracer.install({
            "callan": callan, "series": series, "numbers": numbers, "combinat": combinat,
            "bijections": bijections, "harness": harness, "cli": cli,
        })
        paused = tracer.paused
    outcome = workloads.run(args.workload, inputs, lib, paused)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(outcome["map_ops"], outcome["cli_output_bytes"])
        result["spans"] = len(tracer.name)
        if args.spans:
            tracer.dump(args.spans)
    result.update(outcome)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
