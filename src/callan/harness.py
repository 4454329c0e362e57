"""Desk-scale verification of every identity and bijection in the package.

Each ``verify_*`` / ``certify_*`` function checks one claim at one
parameter point and returns a :class:`VerificationReport` carrying both
sides of the comparison, the summands where a claim is an alternating
sum, and serialized counterexample objects on failure.  Nothing here
raises on a *false* claim — a failing report is the result; exceptions
are reserved for invalid arguments.

``run_claim`` sweeps a claim over all parameter points within a weight
budget (k + n + 2m for three-parameter claims, n + 2m for two-parameter
ones) so the command-line ``verify`` subcommand can drive everything.
The claims on m-barred objects (partition, phi, psi, relabel) share one
sweep that streams each cell (k, n, m) once and feeds every check that
needs it; ``verify_partition`` and ``certify_*`` run the same consumers
on one cell.

The public maps of ``bijections`` are the trust boundary: they validate
what they accept and emit.  Certificates run their unvalidating cores.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction

from . import numbers
from .bijections import (  # the unvalidating cores, under their public names
    _phi as phi,
    _phi_inverse as phi_inverse,
    _psi as psi,
    _psi_inverse as psi_inverse,
    _relabel_max_min as relabel_max_min,
    phi_domain,
    phi_image,
    psi_domain,
    psi_image,
)
from .combinat import (
    count_mbarred,
    enumerate_mbarred,
    in_barred_max_subset,
    in_barred_min_subset,
    classify,
    CELL_RSTAR_NONEMPTY,
    CELL_STAR_ONLY,
    CELL_BARRED_MAX,
    canonical_json,
    to_json_dict,
)

__all__ = [
    "SumTerm",
    "VerificationReport",
    "verify_pb_zero",
    "verify_thm_identity",
    "verify_thm_identity2",
    "verify_prop_rec",
    "verify_partition",
    "verify_telescope",
    "certify_phi",
    "certify_psi",
    "certify_relabel",
    "CLAIM_NAMES",
    "run_claim",
    "report_sort_key",
    "report_to_json_dict",
]

# How many counterexample objects a report keeps per failure kind.
_COUNTEREXAMPLE_CAP = 5


@dataclass(frozen=True)
class SumTerm:
    """One summand of an alternating sum: sign is always (-1)**j."""

    j: int
    sign: int
    count: int
    source: str  # "enumeration" or "series"

    def __post_init__(self) -> None:
        expected = -1 if self.j % 2 else 1
        if self.sign != expected:
            raise ValueError(f"sign of term {self.j} must be {expected}")


@dataclass
class VerificationReport:
    claim_id: str
    parameters: dict[str, int]
    lhs: int
    rhs: int
    status: str  # "pass" or "fail"
    counterexamples: list = field(default_factory=list)
    elapsed: float = 0.0
    terms: tuple[SumTerm, ...] = ()

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _as_int(value):
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def _finish(claim_id, parameters, lhs, rhs, counterexamples, started, terms=(), spent=0.0):
    """The report of a check that began at `started`, plus `spent` seconds
    of its work done before (while the check was fed a stream)."""
    lhs, rhs = _as_int(lhs), _as_int(rhs)
    status = "pass" if lhs == rhs and not counterexamples else "fail"
    return VerificationReport(
        claim_id=claim_id,
        parameters=parameters,
        lhs=lhs,
        rhs=rhs,
        status=status,
        counterexamples=counterexamples,
        elapsed=spent + time.perf_counter() - started,
        terms=tuple(terms),
    )


# ---------------------------------------------------------------------------
# alternating-sum identities
# ---------------------------------------------------------------------------


def _alternating_sum(n: int, value_of_j, source: str) -> tuple:
    """Sum of (-1)^j value_of_j(j) over 0 <= j <= n, with its summands."""
    terms = []
    total = 0
    for j in range(n + 1):
        sign = -1 if j % 2 else 1
        value = value_of_j(j)
        terms.append(SumTerm(j, sign, _as_int(value), source))
        total += sign * value
    return total, terms


def verify_pb_zero(n: int) -> VerificationReport:
    """Sum of (-1)^j B(n-j, -j) over 0 <= j <= n vanishes (n >= 1; the
    empty-shift case n = 0 evaluates to 1 and honestly fails)."""
    started = time.perf_counter()
    if n < 0:
        raise ValueError("n must be nonnegative")
    total, terms = _alternating_sum(
        n, lambda j: numbers.poly_bernoulli_b(n - j, -j), "series"
    )
    return _finish("pb-zero", {"n": n}, total, 0, [], started, terms)


def verify_thm_identity(n: int) -> VerificationReport:
    """Alternating sum of C(n-j, j) over 0 <= j <= n equals minus the
    Genocchi number of index n+2, all values from exact series."""
    started = time.perf_counter()
    if n < 0:
        raise ValueError("n must be nonnegative")
    total, terms = _alternating_sum(n, lambda j: numbers.c_number(n - j, j), "series")
    rhs = -numbers.genocchi(n + 2)
    return _finish("thm-identity", {"n": n}, total, rhs, [], started, terms)


def verify_thm_identity2(n: int, m: int, mode: str = "enumeration") -> VerificationReport:
    """Alternating sum of the m-barred counts C(n-j, j; m) equals
    (-1)^(m+1) times the Genocchi number of index n+2m+2, the counts taken
    by enumeration.  `mode` names that route and takes no other value; at
    m = 0 the series route is verify_thm_identity."""
    started = time.perf_counter()
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if mode != "enumeration":
        raise ValueError(f"unknown mode {mode!r}")
    total, terms = _alternating_sum(n, lambda j: count_mbarred(j, n - j, m), "enumeration")
    sign = -1 if (m + 1) % 2 else 1
    rhs = sign * numbers.genocchi(n + 2 * m + 2)
    return _finish("thm-identity2", {"n": n, "m": m}, total, rhs, [], started, terms)


def verify_prop_rec(n: int, m: int) -> VerificationReport:
    """The alternating m-barred sum at (n, m) equals minus the one at
    (n-2, m+1), both sides by enumeration."""
    started = time.perf_counter()
    if n < 2:
        raise ValueError("n must be at least 2")
    if m < 0:
        raise ValueError("m must be nonnegative")
    lhs, terms = _alternating_sum(n, lambda j: count_mbarred(j, n - j, m), "enumeration")
    inner, _ = _alternating_sum(
        n - 2, lambda j: count_mbarred(j, n - 2 - j, m + 1), "enumeration"
    )
    return _finish("prop-rec", {"n": n, "m": m}, lhs, -inner, [], started, terms)


def verify_telescope(n: int, m: int) -> VerificationReport:
    """Iterate the two-step reduction from (n, m) down to (0, m + n/2):
    every link must flip the sign, the chain must bottom out at the
    count of pure bar sequences, and the end value must match the
    Genocchi prediction.  The weight n + 2m is constant along the chain."""
    started = time.perf_counter()
    if n % 2 != 0:
        raise ValueError("n must be even")
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    half = n // 2
    chain = [
        _alternating_sum(
            n - 2 * i, lambda j: count_mbarred(j, n - 2 * i - j, m + i), "enumeration"
        )[0]
        for i in range(half + 1)
    ]
    bad = []
    for i in range(half):
        if chain[i] != -chain[i + 1]:
            bad.append({"link": i, "lhs": chain[i], "rhs": -chain[i + 1]})
    bottom = count_mbarred(0, 0, m + half)
    if chain[-1] != bottom:
        bad.append({"bottom": chain[-1], "expected": bottom})
    sign = -1 if half % 2 else 1
    rhs = sign * bottom
    genocchi_sign = -1 if (m + 1) % 2 else 1
    predicted = genocchi_sign * numbers.genocchi(n + 2 * m + 2)
    if rhs != predicted:
        bad.append({"genocchi": predicted, "chain-end": rhs})
    return _finish("telescope", {"n": n, "m": m}, chain[0], rhs, bad, started)


def verify_partition(k: int, n: int, m: int) -> VerificationReport:
    """The three cells (nonempty extra red block / star-only with the
    maximal blue element not a barred singleton / barred-max singleton)
    are disjoint and exhaustive, and their sizes add up to the total
    count obtained by the independent product-count route."""
    check = _Partition(k, n, m)
    _stream_cell(check.cell, [check])
    return check.report()


class _Partition:
    """verify_partition at one cell, fed the cell's sequences one by one."""

    image_cell = None  # the check ends with its own cell's stream

    def __init__(self, k: int, n: int, m: int) -> None:
        self.cell = (k, n, m)
        self.counts = {CELL_RSTAR_NONEMPTY: 0, CELL_STAR_ONLY: 0, CELL_BARRED_MAX: 0}
        self.bad = []
        self.elapsed = 0.0

    def domain(self, seq) -> None:
        """Check one sequence; the partition's domain is its whole cell."""
        nonempty = bool(seq.extra.red)
        barred_max = in_barred_max_subset(seq)
        if nonempty and barred_max:
            if len(self.bad) < _COUNTEREXAMPLE_CAP:
                self.bad.append({"overlap": to_json_dict(seq)})
            return
        cell = classify(seq)
        expected = (
            CELL_RSTAR_NONEMPTY
            if nonempty
            else CELL_BARRED_MAX
            if barred_max
            else CELL_STAR_ONLY
        )
        if cell != expected:
            if len(self.bad) < _COUNTEREXAMPLE_CAP:
                self.bad.append({"misclassified": to_json_dict(seq), "cell": cell})
            return
        self.counts[cell] += 1

    def report(self) -> VerificationReport:
        started = time.perf_counter()
        k, n, m = self.cell
        lhs = sum(self.counts.values())
        rhs = count_mbarred(k, n, m)
        params = {"k": k, "n": n, "m": m}
        return _finish("partition", params, lhs, rhs, self.bad, started, spent=self.elapsed)


# ---------------------------------------------------------------------------
# bijection certification
# ---------------------------------------------------------------------------


class _Certificate:
    """Certifies that forward maps D bijectively onto C with backward as
    two-sided inverse.  D is the set of sequences at `cell` that `in_domain`
    accepts, C the set at `image_cell` that `in_image` accepts (each
    predicate returns None on its members).  The certificate is fed every
    sequence of `cell` through domain(), then every sequence of
    `image_cell` through codomain(), and each skips what its predicate
    refuses; report() gives the verdict.  The maps are assumed
    deterministic.

    domain(s) applies forward, notes forward-error and collision, adds the
    image to the image set I and checks backward(forward(s)) = s
    (backward-error, roundtrip).  codomain(t) counts |C| and removes t
    from I, or notes t as not-hit.  report() turns every image still in I
    into an outside-codomain counterexample.

    Why one pass over each side suffices: suppose nothing is noted.  Then
    forward is total on D (no forward-error) and injective (no collision),
    backward(forward(s)) = s for every s in D (no backward-error, no
    roundtrip), every image lies in C (I ends empty, and only members of C
    leave it) and every member of C is an image (no not-hit).  So forward
    is a bijection D -> C, lhs = |D| equals rhs = |C|, and every t in C is
    t = forward(s) with backward(t) = s, so forward(backward(t)) = t:
    backward is a two-sided inverse on C.  A second pass over C that checks
    forward(backward(t)) = t can therefore change neither the status nor
    lhs nor rhs of any report; it could only add counterexamples to one
    that already fails.

    Why the maps need not validate: D and C are enumerated, so they hold
    only valid members of their sets, and forward sees only members of D.
    backward sees every image, also one outside C (valid or not); such an
    image is an outside-codomain counterexample whatever backward does with
    it, so a backward-error or roundtrip it adds can only join a report
    that already fails.  So the harness runs the cores.

    Memory: I holds the images of D until C streams by, and C itself is
    never stored."""

    def __init__(self, claim_id, cell, image_cell, forward, backward, in_domain, in_image):
        self.claim_id = claim_id
        self.cell, self.image_cell = cell, image_cell
        self.forward, self.backward = forward, backward
        self.in_domain, self.in_image = in_domain, in_image
        self.images = set()
        self.held = []  # members of C met before D was complete
        self.missed = []  # members of C that no member of D hit
        self.domain_size = self.codomain_size = 0
        self.bad = []
        self.noted = Counter()
        self.elapsed = 0.0

    def note(self, kind, payload) -> None:
        if self.noted[kind] < _COUNTEREXAMPLE_CAP:
            self.noted[kind] += 1
            self.bad.append({kind: payload})

    def domain(self, s) -> None:
        if self.in_domain(s) is not None:
            return
        self.domain_size += 1
        try:
            t = self.forward(s)
        except Exception as exc:
            self.note("forward-error", {"input": to_json_dict(s), "error": str(exc)})
            return
        seen = len(self.images)  # t is hashed once: a collision adds nothing
        self.images.add(t)
        if len(self.images) == seen and self.noted["collision"] < _COUNTEREXAMPLE_CAP:
            self.note("collision", [to_json_dict(self._first_preimage(t)), to_json_dict(s)])
        try:
            back = self.backward(t)
        except Exception as exc:
            self.note("backward-error", {"input": to_json_dict(t), "error": str(exc)})
            return
        if back != s:
            self.note("roundtrip", to_json_dict(s))

    def _first_preimage(self, t):
        """The first member of D that forward sends to t.  Collisions only
        happen in failing reports, so D is streamed again, not stored."""
        for s in enumerate_mbarred(*self.cell):
            if self.in_domain(s) is None:
                try:
                    if self.forward(s) == t:
                        return s
                except Exception:
                    continue

    def codomain(self, t) -> None:
        if self.in_image(t) is None:
            self._hit(t)

    def _hit(self, t) -> None:
        self.codomain_size += 1
        try:
            self.images.remove(t)
        except KeyError:
            self.missed.append(t)

    def hold(self, t) -> None:
        """codomain() while the image cell is the domain cell: keep t until
        D is complete (relabel; its members of C are few)."""
        if self.in_image(t) is None:
            self.held.append(t)

    def release(self) -> None:
        held, self.held = self.held, []
        for t in held:
            self._hit(t)

    def report(self) -> VerificationReport:
        started = time.perf_counter()
        for t in sorted(self.images, key=canonical_json)[:_COUNTEREXAMPLE_CAP]:
            self.note("outside-codomain", to_json_dict(t))
        for t in sorted(self.missed, key=canonical_json)[:_COUNTEREXAMPLE_CAP]:
            self.note("not-hit", to_json_dict(t))
        k, n, m = self.cell
        return _finish(
            self.claim_id, {"k": k, "n": n, "m": m}, self.domain_size,
            self.codomain_size, self.bad, started, spent=self.elapsed,
        )


def _stream_cell(cell, starting, finishing=()) -> None:
    """Stream the sequences at `cell` once, into domain() of each consumer
    in `starting` and codomain() of each certificate in `finishing`.  A
    certificate in `starting` whose image cell is `cell` holds its members
    of C and takes them after the stream, once its D is complete.  Each
    consumer's elapsed grows by the time its own calls take; the stream
    itself is charged to the first consumer."""
    clock = time.perf_counter
    looping = [c for c in starting if c.image_cell == cell]
    feeds = [(c, c.domain) for c in starting] + [(c, c.codomain) for c in finishing]
    feeds += [(c, c.hold) for c in looping]
    first = feeds[0][0]
    last = clock()
    for seq in enumerate_mbarred(*cell):
        now = clock()
        first.elapsed += now - last
        last = now
        for consumer, feed in feeds:
            feed(seq)
            now = clock()
            consumer.elapsed += now - last
            last = now
    first.elapsed += clock() - last
    for c in looping:
        last = clock()
        c.release()
        c.elapsed += clock() - last


def _certify_map(certificate: _Certificate) -> VerificationReport:
    """Run one certificate on its own: stream its domain cell, then its
    image cell.  An image cell with a negative size comes with an empty D,
    and the report is vacuous."""
    if min(certificate.image_cell) >= 0:
        _stream_cell(certificate.cell, [certificate])
        if certificate.image_cell != certificate.cell:
            _stream_cell(certificate.image_cell, [], [certificate])
    return certificate.report()


# The map names are looked up when a certificate is made, so a map patched
# on this module reaches the sweeps as well as the one-cell entry points.


def _phi_certificate(k: int, n: int, m: int) -> _Certificate:
    return _Certificate(
        "phi", (k, n, m), (k + 1, n - 1, m), phi, phi_inverse, phi_domain, phi_image
    )


def _psi_certificate(k: int, n: int, m: int) -> _Certificate:
    return _Certificate(
        "psi", (k, n, m), (k - 1, n - 1, m + 1), psi, psi_inverse, psi_domain, psi_image
    )


def _relabel_certificate(k: int, n: int, m: int) -> _Certificate:
    return _Certificate(
        "relabel", (k, n, m), (k, n, m), relabel_max_min, relabel_max_min,
        lambda s: None if in_barred_max_subset(s) else "not barred-max",
        lambda s: None if in_barred_min_subset(s) else "not barred-min",
    )


def certify_phi(k: int, n: int, m: int) -> VerificationReport:
    """phi: sequences with a nonempty extra red block at (k, n, m) onto
    star-only sequences at (k+1, n-1, m) minus the barred-max singletons.
    Without red elements (n = 0) the domain is empty."""
    return _certify_map(_phi_certificate(k, n, m))


def certify_psi(k: int, n: int, m: int) -> VerificationReport:
    """psi: barred-min singleton sequences at (k, n, m) onto all
    sequences at (k-1, n-1, m+1).  The domain needs an ordinary pair, so
    it is empty unless k, n >= 1."""
    return _certify_map(_psi_certificate(k, n, m))


def certify_relabel(k: int, n: int, m: int) -> VerificationReport:
    """The max/min blue relabelling carries the barred-max singleton
    subset onto the barred-min one and is an involution."""
    return _certify_map(_relabel_certificate(k, n, m))


# ---------------------------------------------------------------------------
# claim sweeps
# ---------------------------------------------------------------------------

CLAIM_NAMES = (
    "pb-zero",
    "thm1",
    "thm2",
    "prop-rec",
    "partition",
    "phi",
    "psi",
    "relabel",
    "telescope",
)

# Eq-style identities proven by series run over fixed ranges (they are
# cheap and not enumeration-bounded); everything else honours the budget.
_PB_ZERO_RANGE = range(1, 21)
_THM1_RANGE = range(0, 17)

# The claims checked on m-barred objects: the cells (k, n, m) each one
# sweeps, and its consumer at a cell.
_SWEEPS = {
    "partition": (lambda k, n, m: True, _Partition),
    "phi": (lambda k, n, m: n >= 1, _phi_certificate),
    "psi": (lambda k, n, m: k >= 1 and n >= 1, _psi_certificate),
    "relabel": (lambda k, n, m: k >= 1, _relabel_certificate),
}


def _nm_cells(max_weight: int) -> list[tuple[int, int]]:
    return [
        (n, m)
        for n in range(max_weight + 1)
        for m in range((max_weight - n) // 2 + 1)
        if n + 2 * m <= max_weight
    ]


def _sweep(max_weight: int, claims) -> list[VerificationReport]:
    """The reports of the object claims in `claims` on every cell with
    weight k + n + 2m <= max_weight, each cell streamed once.

    Cells go by weight, then by ascending m, then by ascending k.  phi and
    psi keep the weight; phi's image cell (k+1, n-1, m) has the same m and
    a larger k, psi's (k-1, n-1, m+1) a larger m, so every image cell
    comes after its domain cell.  One stream per cell therefore feeds the
    partition check, the domain side of each certificate that starts at
    the cell and the codomain side of each whose images land in it.  A
    certificate waits, holding its images, until its image cell streams by."""
    reports = []
    waiting = defaultdict(list)  # image cell -> certificates with D complete
    for weight in range(max_weight + 1):
        for m in range(weight // 2 + 1):
            for k in range(weight - 2 * m + 1):
                cell = (k, weight - k - 2 * m, m)
                starting = [
                    consumer(*cell)
                    for in_sweep, consumer in map(_SWEEPS.get, claims)
                    if in_sweep(*cell)
                ]
                finishing = waiting.pop(cell, [])
                if starting or finishing:
                    _stream_cell(cell, starting, finishing)
                for c in starting:
                    if c.image_cell in (None, cell):
                        reports.append(c.report())
                    else:
                        waiting[c.image_cell].append(c)
                reports += [c.report() for c in finishing]
    return reports


def _cell_order(report: VerificationReport) -> tuple[int, int, int]:
    p = report.parameters
    return p["k"], p["n"], p["m"]


def run_claim(claim: str, max_weight: int = 8) -> list[VerificationReport]:
    if max_weight < 0:
        raise ValueError("max weight must be nonnegative")
    if claim == "all":
        reports = [
            r for name in CLAIM_NAMES if name not in _SWEEPS
            for r in run_claim(name, max_weight)
        ]
        reports += _sweep(max_weight, tuple(_SWEEPS))
        return sorted(reports, key=report_sort_key)
    if claim in _SWEEPS:
        return sorted(_sweep(max_weight, (claim,)), key=_cell_order)
    if claim == "pb-zero":
        return [verify_pb_zero(n) for n in _PB_ZERO_RANGE]
    if claim == "thm1":
        return [verify_thm_identity(n) for n in _THM1_RANGE]
    if claim == "thm2":
        return [verify_thm_identity2(n, m) for n, m in _nm_cells(max_weight)]
    if claim == "prop-rec":
        return [verify_prop_rec(n, m) for n, m in _nm_cells(max_weight) if n >= 2]
    if claim == "telescope":
        return [
            verify_telescope(n, m) for n, m in _nm_cells(max_weight) if n % 2 == 0
        ]
    raise ValueError(f"unknown claim {claim!r}")


def report_sort_key(report: VerificationReport):
    return (report.claim_id, tuple(sorted(report.parameters.items())))


def report_to_json_dict(report: VerificationReport) -> dict:
    return {
        "claim_id": report.claim_id,
        "parameters": dict(report.parameters),
        "lhs": report.lhs,
        "rhs": report.rhs,
        "status": report.status,
        "counterexamples": report.counterexamples,
        "elapsed": report.elapsed,
    }
