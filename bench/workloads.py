"""The three benchmark workloads: input generation, the timed phase and the
checks of every output against the independent references.

Workloads call callan through module attributes looked up at call time
(``lib.numbers.c_number`` ...), so a traced run sees every call.  Inputs
come from the seed alone; the program only ever sees the generated inputs.
No input is malformed or mutated: fuzzing the wire format is a separate
concern, and ``stream`` feeds enumerator output only, so ``psi-r`` gets
real ``psi-b`` images.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import redirect_stdout

from reference import (
    c_number_ref,
    count_mbarred_ref,
    genocchi_refs,
    intermediate_error,
    map_accepts,
    poly_bernoulli_b_ref,
    poly_bernoulli_c_ref,
    sequence_error,
    stirling2_table,
)

WORKLOADS = ("certify", "numbers", "stream")

# certify: the headline command.  --json keeps each report's own timing at
# full precision; one op is one report.
CERTIFY_ARGV = ("verify", "--claim", "all", "--max-weight", "7", "--json")
CERTIFY_REPORTS = 283
OBJECT_CLAIMS = ("partition", "phi", "psi", "relabel")

# numbers: the 19x19 C table in c_table order, Genocchi numbers up to 80,
# and a poly-Bernoulli grid whose positive upper indices take the rational path.
TABLE_SIZE = 19
GENOCCHI_MAX = 80
PB_MAX_N = 12
PB_UPPER = range(-4, 4)
NUMBER_FUNCTIONS = {
    "c": "c_number",
    "g": "genocchi",
    "b": "poly_bernoulli_b",
    "pc": "poly_bernoulli_c",
}

# stream: bar-heavy cells enumerated as JSON, then a seeded sample of the
# enumerated objects pushed through every `map --which` value.
STREAM_CELLS = ((1, 1, 4), (2, 2, 3), (3, 2, 3), (0, 0, 5))
STREAM_SAMPLE = 1800
MAPS = {
    "phi": "phi",
    "phi-inv": "phi_inverse",
    "psi": "psi",
    "psi-b": "psi_b",
    "relabel": "relabel_max_min",
}
INVERSES = {
    "phi": "phi_inverse",
    "phi-inv": "phi",
    "psi": "psi_inverse",
    "psi-b": "psi_b_inverse",
    "psi-r": "psi_r_inverse",
    "relabel": "relabel_max_min",
}
ACCEPTED, REJECTED, ERROR = "accepted", "rejected", "error"

clock = time.perf_counter


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs, a function of the seed alone.  certify runs a
    fixed command, so its inputs do not depend on the seed."""
    rng = random.Random(seed)
    if workload == "certify":
        return {"argv": list(CERTIFY_ARGV)}
    if workload == "numbers":
        table = [("c", n, k) for n in range(TABLE_SIZE) for k in range(TABLE_SIZE)]
        rest = [("g", n) for n in range(GENOCCHI_MAX + 1)] + [
            (f, n, k) for f in ("b", "pc") for n in range(PB_MAX_N + 1) for k in PB_UPPER
        ]
        rng.shuffle(rest)
        return {"requests": table + rest}
    if workload == "stream":
        s = stirling2_table(12)
        total = sum(count_mbarred_ref(k, n, m, s) for k, n, m in STREAM_CELLS)
        return {
            "cells": [list(c) for c in STREAM_CELLS],
            "total": total,
            "picks": sorted(rng.sample(range(total), STREAM_SAMPLE)),
        }
    raise ValueError(f"unknown workload {workload!r}")


def run(workload: str, inputs: dict, lib, paused) -> dict:
    """Run the timed phase and check its outputs.  `lib` holds the callan
    modules as attributes; `paused()` is a context in which the benchmark's
    own checks run untraced.

    Returns wall_s (timed phase), op_ms (one latency per op), objects,
    attempted, failed, errors (the first few), map_ops and cli_output_bytes.
    """
    return {"certify": _certify, "numbers": _numbers, "stream": _stream}[workload](
        inputs, lib, paused
    )


def _result(wall_s, op_ms, objects, failed, errors, map_ops=0, cli_output_bytes=0):
    return {
        "wall_s": wall_s,
        "op_ms": op_ms,
        "objects": objects,
        "attempted": max(len(op_ms), 1),
        "failed": failed,
        "errors": errors[:5],
        "map_ops": map_ops,
        "cli_output_bytes": cli_output_bytes,
    }


def _certify(inputs, lib, paused):
    buf = io.StringIO()
    t0 = clock()
    with redirect_stdout(buf):
        code = lib.cli.main(list(inputs["argv"]))
    wall = clock() - t0
    output = buf.getvalue()
    reports = [json.loads(line) for line in output.splitlines()]
    errors = [
        f"{r['claim_id']} {r['parameters']}: {r['status']} lhs={r['lhs']} rhs={r['rhs']}"
        for r in reports
        if r["status"] != "pass" or r["lhs"] != r["rhs"]
    ]
    failed = len(errors) + abs(CERTIFY_REPORTS - len(reports))
    if len(reports) != CERTIFY_REPORTS:
        errors.append(f"{len(reports)} reports, expected {CERTIFY_REPORTS}")
    if code != 0:
        errors.append(f"exit status {code}")
        failed = max(failed, 1)
    op_ms = [r["elapsed"] * 1000 for r in reports]
    objects = sum(r["lhs"] for r in reports if r["claim_id"] in OBJECT_CLAIMS)
    out = _result(wall, op_ms, objects, failed, errors, cli_output_bytes=len(output))
    out["attempted"] = max(len(reports), CERTIFY_REPORTS)
    return out


def _numbers(inputs, lib, paused):
    requests = inputs["requests"]
    values, op_ms, errors = [], [], []
    t0 = clock()
    for kind, *args in requests:
        t = clock()
        try:
            value = getattr(lib.numbers, NUMBER_FUNCTIONS[kind])(*args)
        except Exception as exc:  # counted as a failed op
            value = exc
        op_ms.append((clock() - t) * 1000)
        values.append(value)
    wall = clock() - t0

    s = stirling2_table(TABLE_SIZE + 2)
    genocchi = genocchi_refs(GENOCCHI_MAX)
    references = {
        "c": lambda n, k: c_number_ref(n, k, s),
        "g": lambda n: genocchi[n],
        "b": lambda n, k: poly_bernoulli_b_ref(n, k, s),
        "pc": lambda n, k: poly_bernoulli_c_ref(n, k, s),
    }
    failed = 0
    for (kind, *args), value in zip(requests, values):
        expected = references[kind](*args)
        if isinstance(value, Exception) or value != expected:
            failed += 1
            errors.append(f"{NUMBER_FUNCTIONS[kind]}{tuple(args)} = {value!r}, expected {expected}")
    return _result(wall, op_ms, len(requests), failed, errors)


def _map_op(lib, which: str, text: str):
    """One `map --which` call on serialized input: parse, map, serialize.
    Returns (status, serialized image or None, seconds)."""
    combinat, bijections = lib.combinat, lib.bijections
    t = clock()
    try:
        data = json.loads(text)
        if which == "psi-r":
            image = bijections.psi_r(bijections.intermediate_from_json_dict(data))
        else:
            image = getattr(bijections, MAPS[which])(combinat.from_json_dict(data))
        if which == "psi-b":
            out = bijections.canonical_intermediate_json(image)
        else:
            out = combinat.canonical_json(image)
        status = ACCEPTED
    except lib.DomainError:
        out, status = None, REJECTED
    except Exception as exc:  # counted as a failed op
        out, status = repr(exc), ERROR
    return status, out, clock() - t


def _map_error(lib, which: str, text: str, data: dict, status: str, out) -> str | None:
    """Why one map call is wrong, or None: a decision that disagrees with
    the reference domain, an image that does not validate, or an inverse
    that does not give the input back."""
    if status == ERROR:
        return f"{which}: unexpected exception {out}"
    expected = map_accepts(which, data)
    if (status == ACCEPTED) != expected:
        return f"{which}: {status}, expected {'accept' if expected else 'reject'}: {text}"
    if status == REJECTED:
        return None
    combinat, bijections = lib.combinat, lib.bijections
    image = json.loads(out)
    invalid = intermediate_error(image) if which == "psi-b" else sequence_error(image)
    if invalid:
        return f"{which}: invalid image ({invalid}): {out}"
    inverse = getattr(bijections, INVERSES[which])
    if which == "psi-b":
        back = combinat.canonical_json(inverse(bijections.intermediate_from_json_dict(image)))
    elif which == "psi-r":
        back = bijections.canonical_intermediate_json(inverse(combinat.from_json_dict(image)))
    else:
        back = combinat.canonical_json(inverse(combinat.from_json_dict(image)))
    if back != text:
        return f"{which}: round trip gave {back} for {text}"
    return None


def _stream(inputs, lib, paused):
    errors = []
    lines: list[str] = []
    output_bytes = 0
    t0 = clock()
    for k, n, m in inputs["cells"]:
        buf = io.StringIO()
        argv = ["enumerate", "--kind", "mbarred", "--k", str(k), "--n", str(n),
                "--m", str(m), "--json"]
        with redirect_stdout(buf):
            code = lib.cli.main(argv)
        if code != 0:
            errors.append(f"enumerate {k} {n} {m}: exit status {code}")
        text = buf.getvalue()
        output_bytes += len(text)
        lines.extend(text.splitlines())
    wall = clock() - t0
    failed = len(errors)
    if len(lines) != inputs["total"] or len(set(lines)) != inputs["total"]:
        errors.append(f"{len(set(lines))} distinct of {len(lines)} objects, expected {inputs['total']}")
        failed += 1

    op_ms = []
    for pick in inputs["picks"]:
        if pick >= len(lines):
            break
        text = lines[pick]
        data = json.loads(text)
        invalid = sequence_error(data)
        if invalid:
            errors.append(f"enumerated object invalid ({invalid}): {text}")
            failed += 1
        jobs = [(which, text, data) for which in MAPS]
        while jobs:
            which, arg, data = jobs.pop(0)
            status, out, seconds = _map_op(lib, which, arg)
            wall += seconds
            op_ms.append(seconds * 1000)
            with paused():
                try:
                    problem = _map_error(lib, which, arg, data, status, out)
                except Exception as exc:  # a check that cannot run is a failure
                    problem = f"{which}: check raised {exc!r}"
            if problem:
                errors.append(problem)
                failed += 1
            elif which == "psi-b" and status == ACCEPTED:
                jobs.insert(0, ("psi-r", out, json.loads(out)))
    return _result(wall, op_ms, len(lines) + len(op_ms), failed, errors,
                   map_ops=len(op_ms), cli_output_bytes=output_bytes)
