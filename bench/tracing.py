"""Span tracer for the benchmark's traced runs.

The tracer wraps callan's public functions in every namespace where their
callers look them up (``harness.phi``, ``bijections.validate_mbarred``,
``combinat.bar_arrangements`` ...), plus the ``TruncatedSeries`` mul,
divide and compose methods.  Each call becomes a span (name, start, end,
parent, status) kept in flat arrays in memory; a generator yields one span
per resumption, so its self time excludes the consumer's work between
items.  Nothing under ``src/`` is changed: the wrappers are installed on a
live interpreter and removed again after the timed phase.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

OK, REJECTED, RAISED = 0, 1, 2

WRAPPED = {
    "numbers": (
        "genocchi", "genocchi_list", "poly_bernoulli_b", "poly_bernoulli_c",
        "c_number", "c_table",
    ),
    "combinat": (
        "enumerate_callan", "enumerate_mbarred", "bar_arrangements", "count_mbarred",
        "validate_mbarred", "to_json_dict", "from_json_dict", "canonical_json",
        "classify", "in_barred_max_subset", "in_barred_min_subset",
    ),
    "bijections": (
        "phi", "phi_inverse", "phi_case", "phi_inverse_case", "psi", "psi_b", "psi_r",
        "psi_inverse", "psi_b_inverse", "psi_r_inverse", "relabel_max_min",
        "intermediate_to_json_dict", "intermediate_from_json_dict",
        "canonical_intermediate_json",
    ),
    "harness": (
        "verify_pb_zero", "verify_thm_identity", "verify_thm_identity2",
        "verify_prop_rec", "verify_partition", "verify_telescope",
        "certify_phi", "certify_psi", "certify_relabel", "run_claim",
    ),
    "cli": ("main",),
}
SERIES_METHODS = {"__mul__": "series.mul", "divide": "series.divide", "compose": "series.compose"}

CLAIM_FUNCTIONS = {
    "pb-zero": "verify_pb_zero",
    "thm1": "verify_thm_identity",
    "thm2": "verify_thm_identity2",
    "prop-rec": "verify_prop_rec",
    "partition": "verify_partition",
    "phi": "certify_phi",
    "psi": "certify_psi",
    "relabel": "certify_relabel",
    "telescope": "verify_telescope",
}
FORWARD = ("phi", "psi", "psi_b", "psi_r", "relabel_max_min")
INVERSE = ("phi_inverse", "psi_inverse", "psi_b_inverse", "psi_r_inverse")
CASE = ("phi_case", "phi_inverse_case")
WIRE = (
    "combinat.to_json_dict", "combinat.from_json_dict", "combinat.canonical_json",
    "bijections.intermediate_to_json_dict", "bijections.intermediate_from_json_dict",
    "bijections.canonical_intermediate_json",
)
CLASSIFY = ("combinat.classify", "combinat.in_barred_max_subset", "combinat.in_barred_min_subset")

# Per-layer metrics: (name, unit, better).  series.coeff_ops is computed
# from operand orders, not counted inside the arithmetic.
LAYER_METRICS = (
    [(f"series.{op}.{kind}", unit, "lower")
     for op in ("mul", "divide", "compose") for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("series.coeff_ops", "computed_ops", "lower"),
        ("numbers.calls", "count", "lower"),
        ("numbers.self_s", "s", "lower"),
        ("numbers.cache_hit_ratio", "ratio", "higher"),
        ("combinat.enumerate_callan.objects", "count", "lower"),
        ("combinat.enumerate_callan.self_s", "s", "lower"),
        ("combinat.enumerate_mbarred.objects", "count", "lower"),
        ("combinat.enumerate_mbarred.self_s", "s", "lower"),
        ("combinat.bar_arrangements.calls", "count", "lower"),
        ("combinat.bar_arrangements.self_s", "s", "lower"),
        ("combinat.bar_arrangements.cache_hit_ratio", "ratio", "higher"),
        ("combinat.bar_arrangements.cached_tuples", "count", "lower"),
        ("combinat.count_mbarred.calls", "count", "lower"),
        ("combinat.count_mbarred.self_s", "s", "lower"),
        ("combinat.count_mbarred.cache_hit_ratio", "ratio", "higher"),
        ("combinat.validate_mbarred.calls", "count", "lower"),
        ("combinat.validate_mbarred.self_s", "s", "lower"),
        ("combinat.validate_per_object", "ratio", "lower"),
        ("combinat.wire.calls", "count", "lower"),
        ("combinat.wire.self_s", "s", "lower"),
        ("combinat.wire.bytes", "bytes", "lower"),
        ("combinat.classify.calls", "count", "lower"),
        ("combinat.classify.self_s", "s", "lower"),
        ("bijections.forward.calls", "count", "lower"),
        ("bijections.forward.self_s", "s", "lower"),
        ("bijections.inverse.calls", "count", "lower"),
        ("bijections.inverse.self_s", "s", "lower"),
        ("bijections.case.calls", "count", "lower"),
        ("bijections.rejected_ratio", "ratio", "lower"),
        ("harness.reports", "count", "higher"),
        ("harness.domain_objects", "count", "higher"),
        ("harness.codomain_objects", "count", "higher"),
    ]
    + [(f"harness.claim.{claim}.s", "s", "lower") for claim in CLAIM_FUNCTIONS]
    + [
        ("cli.main.self_s", "s", "lower"),
        ("cli.output_bytes", "bytes", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are merged, and children are
    clipped to the parent's interval)."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (start, end) in enumerate(zip(starts, ends)):
        covered = 0.0
        run_start = run_end = None
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], start), min(ends[c], end)
            if hi <= lo:
                continue
            if run_end is None or lo > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = lo, hi
            else:
                run_end = max(run_end, hi)
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def _hit_ratio(*cached) -> float:
    hits = sum(f.cache_info().hits for f in cached)
    lookups = hits + sum(f.cache_info().misses for f in cached)
    return hits / lookups if lookups else 0.0


class _TracedIterator:
    """Wraps a generator so that every resumption is one span."""

    __slots__ = ("_tracer", "_nid", "_inner")

    def __init__(self, tracer: "Tracer", nid: int, inner):
        self._tracer, self._nid, self._inner = tracer, nid, inner

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        if not tracer.active:
            return next(self._inner)
        idx = tracer._open(self._nid)
        try:
            item = next(self._inner)
        except StopIteration:
            tracer._close(idx, OK)
            raise
        except BaseException:
            tracer._close(idx, RAISED)
            raise
        tracer._close(idx, OK)
        tracer.yields[self._nid] += 1
        return item

    def close(self):
        self._inner.close()


class Tracer:
    def __init__(self, rejection: type[BaseException]):
        self._rejection = rejection
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.status = array("b")
        self._stack = [-1]
        self.active = True
        self.counters: dict[str, int] = defaultdict(int)
        self.yields: dict[int, int] = defaultdict(int)
        self.originals: dict[str, object] = {}
        self.bar_tuples: dict[tuple, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.status.append(OK)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, status: int) -> None:
        self.end[idx] = time.perf_counter()
        self.status[idx] = status
        self._stack.pop()

    @contextmanager
    def paused(self):
        """Calls made inside are not traced (the benchmark's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        nid = self._intern(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                return _TracedIterator(self, nid, inner) if self.active else inner
            return gen_wrapper

        rejection = self._rejection

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except rejection:
                self._close(idx, REJECTED)
                raise
            except BaseException:
                self._close(idx, RAISED)
                raise
            self._close(idx, OK)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_hooks(self) -> dict:
        counters = self.counters

        def mul_ops(args, result):
            n = args[0].order
            counters["series.coeff_ops"] += (
                (n + 1) * (n + 2) // 2 if hasattr(args[1], "order") else n + 1
            )

        def divide_ops(args, result):
            n = result.order
            counters["series.coeff_ops"] += (n + 1) * (n + 2) // 2

        def wire_bytes(args, result):
            counters["combinat.wire.bytes"] += len(result)

        def arrangements(args, result):
            self.bar_tuples[args] = len(result)

        def report(args, result):
            counters["harness.reports"] += 1

        def certified(args, result):
            counters["harness.reports"] += 1
            counters["harness.domain_objects"] += result.lhs
            counters["harness.codomain_objects"] += result.rhs

        hooks = {
            "series.mul": mul_ops,
            "series.divide": divide_ops,
            "combinat.canonical_json": wire_bytes,
            "bijections.canonical_intermediate_json": wire_bytes,
            "combinat.bar_arrangements": arrangements,
        }
        for fn in CLAIM_FUNCTIONS.values():
            hooks[f"harness.{fn}"] = certified if fn.startswith("certify") else report
        return hooks

    def install(self, modules: dict) -> None:
        """Wrap every listed function wherever a callan namespace holds it.
        `modules` maps a layer name to its module, plus "callan" for the
        package itself."""
        namespaces = list(modules.values())
        hooks = self._after_hooks()
        for layer, names in WRAPPED.items():
            for attr in names:
                span = f"{layer}.{attr}"
                original = getattr(modules[layer], attr)
                self.originals[span] = original
                wrapper = self._wrap(span, original, hooks.get(span))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, key, wrapper)
        cls = modules["series"].TruncatedSeries
        for attr, span in SERIES_METHODS.items():
            original = vars(cls)[attr]
            wrapper = self._wrap(span, original, hooks.get(span))
            for key, value in list(vars(cls).items()):
                if value is original:  # __rmul__ is __mul__
                    self._patch(cls, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, map_ops: int, cli_output_bytes: int) -> dict[str, float]:
        """Per-layer metrics from the recorded spans.  `map_ops` is the
        number of map calls the workload made (the per-object base for
        validate_per_object when no bijection was certified)."""
        own = self_times(self.start, self.end, self.parent)
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        inclusive: dict[str, float] = defaultdict(float)
        names = self.names
        for i, nid in enumerate(self.name):
            name = names[nid]
            calls[name] += 1
            self_s[name] += own[i]
            inclusive[name] += self.end[i] - self.start[i]

        def total(span_names, table):
            return sum(table[s] for s in span_names)

        maps = {f"bijections.{f}" for f in FORWARD + INVERSE}
        entries = rejected = 0
        for i, nid in enumerate(self.name):
            if names[nid] in maps:
                p = self.parent[i]
                if p < 0 or names[self.name[p]] not in maps:
                    entries += 1
                    rejected += self.status[i] == REJECTED

        counters = self.counters
        yields = {names[k]: v for k, v in self.yields.items()}
        numbers_spans = [f"numbers.{f}" for f in WRAPPED["numbers"]]
        numbers_cached = [
            self.originals[s] for s in numbers_spans if hasattr(self.originals[s], "cache_info")
        ]
        domain = counters["harness.domain_objects"] + counters["harness.codomain_objects"]
        validate_calls = calls["combinat.validate_mbarred"]
        per_object_base = domain or map_ops
        fwd = [f"bijections.{f}" for f in FORWARD]
        inv = [f"bijections.{f}" for f in INVERSE]
        out = {}
        for op in ("mul", "divide", "compose"):
            out[f"series.{op}.calls"] = calls[f"series.{op}"]
            out[f"series.{op}.self_s"] = self_s[f"series.{op}"]
        out.update({
            "series.coeff_ops": counters["series.coeff_ops"],
            "numbers.calls": total(numbers_spans, calls),
            "numbers.self_s": total(numbers_spans, self_s),
            "numbers.cache_hit_ratio": _hit_ratio(*numbers_cached),
        })
        for gen in ("enumerate_callan", "enumerate_mbarred"):
            out[f"combinat.{gen}.objects"] = yields.get(f"combinat.{gen}", 0)
            out[f"combinat.{gen}.self_s"] = self_s[f"combinat.{gen}"]
        for fn in ("bar_arrangements", "count_mbarred"):
            out[f"combinat.{fn}.calls"] = calls[f"combinat.{fn}"]
            out[f"combinat.{fn}.self_s"] = self_s[f"combinat.{fn}"]
            out[f"combinat.{fn}.cache_hit_ratio"] = _hit_ratio(self.originals[f"combinat.{fn}"])
            if fn == "bar_arrangements":
                out["combinat.bar_arrangements.cached_tuples"] = sum(self.bar_tuples.values())
        out.update({
            "combinat.validate_mbarred.calls": validate_calls,
            "combinat.validate_mbarred.self_s": self_s["combinat.validate_mbarred"],
            "combinat.validate_per_object": (
                validate_calls / per_object_base if per_object_base else 0.0
            ),
            "combinat.wire.calls": total(WIRE, calls),
            "combinat.wire.self_s": total(WIRE, self_s),
            "combinat.wire.bytes": counters["combinat.wire.bytes"],
            "combinat.classify.calls": total(CLASSIFY, calls),
            "combinat.classify.self_s": total(CLASSIFY, self_s),
            "bijections.forward.calls": total(fwd, calls),
            "bijections.forward.self_s": total(fwd, self_s),
            "bijections.inverse.calls": total(inv, calls),
            "bijections.inverse.self_s": total(inv, self_s),
            "bijections.case.calls": total([f"bijections.{f}" for f in CASE], calls),
            "bijections.rejected_ratio": rejected / entries if entries else 0.0,
            "harness.reports": counters["harness.reports"],
            "harness.domain_objects": counters["harness.domain_objects"],
            "harness.codomain_objects": counters["harness.codomain_objects"],
        })
        for claim, fn in CLAIM_FUNCTIONS.items():
            out[f"harness.claim.{claim}.s"] = inclusive[f"harness.{fn}"]
        out["cli.main.self_s"] = self_s["cli.main"]
        out["cli.output_bytes"] = cli_output_bytes
        return out

    def dump(self, path: str) -> None:
        """Write the spans as gzipped JSON lines: a header naming the span
        ids, then one [name, start, end, parent, status] line per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "status": ["ok", "rejected", "raised"]}))
            fh.write("\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.status):
                fh.write(json.dumps(row))
                fh.write("\n")
