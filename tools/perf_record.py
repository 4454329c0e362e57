"""Record the wall time and max RSS of callan's end-to-end commands on
one or more source checkouts, side by side.

    python3 tools/perf_record.py --out BENCH_<n>.json parent=DIR change=DIR

Each command runs in its own child process, from the root of a checkout
with PYTHONPATH=src.  Its wall time is taken around that child, and its
max RSS is the child's own, from os.wait4.  The commands are those of
ROADMAP's perf record: ``verify --claim all`` at weights 8, 9 and 10, the
40x40 and 80x80 C tables, ``genocchi --max 300``, the m = 6 count, two
cold starts (``import callan.cli`` alone, and one ``number --family c``
lookup), and the checkout's own ``bench/run.py`` for each of its
workloads, whose last line (its metrics) is kept as printed.  The max
RSS of a bench/run.py child is that of bench/run.py alone; the
workload's own peak is in its metrics line.

Every command runs REPEATS times on every checkout, a cold start
COLD_REPEATS times.  The checkouts take turns, in an order that is
reversed on every repeat, so that a slow phase of a shared machine falls
on all of them alike.  Each checkout's record keeps every sample, the
least and the median wall time.  The file --out is written anew.  The
script needs only the standard library.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time

REPEATS = 3
COLD_REPEATS = 21  # a cold start takes tens of milliseconds, so its spread needs more samples
TIMEOUT_S = 900  # weight 10 takes under a minute on a 2-core host
WORKLOADS = ("certify", "numbers", "stream")
BENCH_SECONDS, BENCH_SEED = 10.0, 1  # bench/run.py's arguments


def _commands() -> list[tuple[str, list[str], str, int]]:
    """(name, arguments after the interpreter, what to keep of stdout,
    repeats)."""
    cli = ["-m", "callan.cli"]
    return [
        *[(f"verify-all-w{w}", cli + ["verify", "--claim", "all", "--max-weight", str(w)],
           "last_line", REPEATS) for w in (8, 9, 10)],
        *[(f"ctable-{n}x{n}", cli + ["number", "--family", "ctable", "--n", str(n), "--k", str(n)],
           "sha256", REPEATS) for n in (40, 80)],
        ("genocchi-300", cli + ["genocchi", "--max", "300"], "sha256", REPEATS),
        ("count-m6", cli + ["enumerate", "--kind", "mbarred", "--k", "0", "--n", "0", "--m", "6",
                            "--count-only"], "last_line", REPEATS),
        ("import-callan", ["-c", "import callan.cli"], "last_line", COLD_REPEATS),
        ("number-c-5-3", cli + ["number", "--family", "c", "--n", "5", "--k", "3"], "sha256",
         COLD_REPEATS),
        *[(f"bench-{w}", [os.path.join("bench", "run.py"), "--workload", w,
                          "--seed", str(BENCH_SEED), "--seconds", str(BENCH_SECONDS),
                          "--trace", "0"], "metrics", REPEATS)
          for w in WORKLOADS],
    ]


def timed_child(argv: list[str], cwd: str, env: dict) -> tuple[float, float, int, bytes]:
    """(wall seconds, max RSS in MB, exit status, stdout) of one child."""
    with tempfile.TemporaryFile() as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.DEVNULL)
        killer = threading.Timer(TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        return wall, usage.ru_maxrss / 1024, proc.returncode, out.read()  # ru_maxrss is in KB


def _commit(checkout: str) -> str | None:
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def record(checkouts: dict[str, str]) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = "src"
    labels = list(checkouts)
    runs = {}
    for name, args, keep, repeats in _commands():
        samples = {label: [] for label in labels}
        for repeat in range(repeats):
            for label in labels if repeat % 2 == 0 else labels[::-1]:
                wall, rss, status, stdout = timed_child([sys.executable, *args],
                                                        checkouts[label], env)
                lines = stdout.decode().splitlines()
                sample = {"wall_s": round(wall, 4), "max_rss_mb": round(rss, 1), "exit": status}
                if keep == "sha256":
                    sample["stdout_sha256"] = hashlib.sha256(stdout).hexdigest()
                elif keep == "metrics" and status == 0:
                    sample["metrics"] = json.loads(lines[-1])
                elif lines:
                    sample["last_line"] = lines[-1]
                samples[label].append(sample)
                print(f"{name} {label}: {wall:.3f} s, {rss:.1f} MB, exit {status}",
                      file=sys.stderr)
        runs[name] = {"command": " ".join(["python3", *args]), "repeats": repeats}
        for label, taken in samples.items():
            runs[name][label] = {"best_wall_s": min(s["wall_s"] for s in taken),
                                 "median_wall_s": statistics.median(s["wall_s"] for s in taken),
                                 "samples": taken}
    return {
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "repeats": REPEATS,
        "bench_seconds": BENCH_SECONDS,
        "bench_seed": BENCH_SEED,
        "checkouts": {label: _commit(path) for label, path in checkouts.items()},
        "runs": runs,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="+", metavar="LABEL=DIR",
                        help="a label for the record and the root of a source checkout")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    checkouts = {}
    for spec in args.checkouts:
        label, sep, path = spec.partition("=")
        path = os.path.abspath(path)
        if not sep or not label or label in checkouts:
            parser.error(f"{spec!r} is no new LABEL=DIR")
        if not os.path.isfile(os.path.join(path, "src", "callan", "__init__.py")):
            parser.error(f"no callan sources under {path}/src")
        checkouts[label] = path
    result = record(checkouts)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
