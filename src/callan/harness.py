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
The claims on the alternating m-barred sums (thm2, prop-rec, telescope)
run on one driver, ``_sum_claims``, that takes each sum once per call.
The claims on m-barred objects (partition, phi, psi, relabel) run on
one driver, ``_run``, that streams each cell (k, n, m) once and feeds
every check that needs it: the sweep of ``run_claim`` gives it every
cell within the budget, and ``verify_partition`` and ``certify_*`` give
it one check's cell and image cell.

The public maps of ``bijections`` are the trust boundary: they validate
what they accept and emit.  The object claims run on the packed form of
``combinat``: the sweep streams packed sequences and routes each by the
class of its marks, the partition check counts the classes by the cell
rule of ``combinat`` and checks that rule against the sets of
``bijections``, the certificates run the unvalidating packed cores
over the sets that ``bijections`` states, and objects are decoded only
for the counterexamples a report carries.

Each report's ``elapsed`` is its own share of the run, and the shares of
one run add up to no more than the run took.  The clock is read per
report, per cell and per chunk, never per object: the sweep feeds a
certificate its members in batches of at most ``_CHUNK`` sequences, one
clock pair per side per chunk, and charges the stream, the marks and the
routing of a cell to the cell's first consumer.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import islice, product

from . import numbers
from .bijections import (  # the unvalidating packed cores, under their public names
    _phi as phi,
    _phi_inverse as phi_inverse,
    _psi as psi,
    _psi_inverse as psi_inverse,
    _relabel_max_min as relabel_max_min,
)
from .bijections import phi_domain, phi_image, psi_domain, psi_image, relabel_max_side
from .combinat import (
    cell_of,
    count_mbarred,
    enumerate_packed,
    packed_marks,
    unpack,
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

# How many consecutive sequences of a cell's stream _routed reads before
# it calls the sides on their batches.  A larger chunk reads the clock
# less often but holds more sequences at once.
_CHUNK = 64


def _payload(seq) -> dict:
    """The wire form of a packed sequence, for a counterexample."""
    return to_json_dict(unpack(seq))


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


def _mbarred_sum(n: int, m: int) -> tuple:
    """The alternating sum of the m-barred counts C(n-j, j; m) over
    0 <= j <= n, by enumeration, with its summands."""
    return _alternating_sum(n, lambda j: count_mbarred(j, n - j, m), "enumeration")


def verify_pb_zero(n: int) -> VerificationReport:
    """Sum of (-1)^j B(n-j, -j) over 0 <= j <= n vanishes (n >= 1; the
    empty-shift case n = 0 evaluates to 1 and honestly fails)."""
    return _series_claim("pb-zero", [n])[0]


def verify_thm_identity(n: int) -> VerificationReport:
    """Alternating sum of C(n-j, j) over 0 <= j <= n equals minus the
    Genocchi number of index n+2, all values from exact series."""
    return _series_claim("thm1", [n])[0]


def _series_claim(claim: str, ns: list[int]) -> list[VerificationReport]:
    """The reports of pb-zero or thm1 at each n in `ns`.  Summand j at n is
    row n - j of the column of upper index j, so each column j is built
    once, up to max(ns) - j, by one compose and one divide, and each report
    reads its anti-diagonal.  The build is charged to the first report."""
    started = time.perf_counter()
    if min(ns) < 0:
        raise ValueError("n must be nonnegative")
    top = max(ns)
    if claim == "pb-zero":
        claim_id, rhs_of = "pb-zero", lambda n: 0
        columns = [numbers.poly_bernoulli_b_column(-j, top - j) for j in range(top + 1)]
    else:
        genocchi = numbers.genocchi_list(top + 2)
        claim_id, rhs_of = "thm-identity", lambda n: -genocchi[n + 2]
        columns = [numbers.c_column(j, top - j) for j in range(top + 1)]
    reports = []
    for n in ns:
        total, terms = _alternating_sum(n, lambda j: columns[j][n - j], "series")
        reports.append(_finish(claim_id, {"n": n}, total, rhs_of(n), [], started, terms))
        started = time.perf_counter()
    return reports


def verify_thm_identity2(n: int, m: int, mode: str = "enumeration") -> VerificationReport:
    """Alternating sum of the m-barred counts C(n-j, j; m) equals
    (-1)^(m+1) times the Genocchi number of index n+2m+2, the counts taken
    by enumeration.  `mode` names that route and takes no other value; at
    m = 0 the series route is verify_thm_identity."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    if mode != "enumeration":
        raise ValueError(f"unknown mode {mode!r}")
    return _sum_claims(("thm2",), [(n, m)])[0]


def verify_prop_rec(n: int, m: int) -> VerificationReport:
    """The alternating m-barred sum at (n, m) equals minus the one at
    (n-2, m+1), both sides by enumeration."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _sum_claims(("prop-rec",), [(n, m)])[0]


def verify_telescope(n: int, m: int) -> VerificationReport:
    """Iterate the two-step reduction from (n, m) down to (0, m + n/2):
    every link must flip the sign, and the end value, the count of pure
    bar sequences, must match the Genocchi prediction.  The weight n + 2m
    is constant along the chain."""
    if n % 2 != 0:
        raise ValueError("n must be even")
    if n < 0 or m < 0:
        raise ValueError("n and m must be nonnegative")
    return _sum_claims(("telescope",), [(n, m)])[0]


def _sum_claims(claims, points) -> list[VerificationReport]:
    """The reports of each of `claims` (thm2, prop-rec, telescope) at the
    valid points (n, m) of `points`: n >= 2 for prop-rec, an even n for
    telescope.  Each sum S(n, m) of _mbarred_sum is taken once per call,
    through a memo that the call drops.  thm2 and telescope compare with
    (-1)^(m+1) times the Genocchi number of index n+2m+2, read from one
    list built by one series division, only for them, and charged to the
    first report.  Telescope's chain runs from its lhs S(n, m) down to
    S(0, m + n/2), the count of pure bar sequences."""
    started = time.perf_counter()
    table = cache(_mbarred_sum)
    if set(claims) - {"prop-rec"}:
        genocchi = numbers.genocchi_list(max(n + 2 * m for n, m in points) + 2)
    reports = []
    for claim, (n, m) in product(claims, points):
        if claim == "prop-rec" and n < 2 or claim == "telescope" and n % 2:
            continue
        total, terms = table(n, m)
        bad = []
        if claim == "prop-rec":
            rhs = -table(n - 2, m + 1)[0]
        else:
            rhs = (-1 if (m + 1) % 2 else 1) * genocchi[n + 2 * m + 2]
        if claim == "telescope":
            half, predicted, terms = n // 2, rhs, ()
            chain = [table(n - 2 * i, m + i)[0] for i in range(half + 1)]
            for i in range(half):
                if chain[i] != -chain[i + 1]:
                    bad.append({"link": i, "lhs": chain[i], "rhs": -chain[i + 1]})
            rhs = (-1 if half % 2 else 1) * chain[-1]
            if rhs != predicted:
                bad.append({"genocchi": predicted, "chain-end": rhs})
        claim_id = "thm-identity2" if claim == "thm2" else claim
        reports.append(_finish(claim_id, {"n": n, "m": m}, total, rhs, bad, started, terms))
        started = time.perf_counter()
    return reports


def verify_partition(k: int, n: int, m: int) -> VerificationReport:
    """The three cells (nonempty extra red block / star-only with the
    maximal blue element not a barred singleton / barred-max singleton)
    are disjoint and exhaustive, and their sizes add up to the total
    count obtained by the independent product-count route.  A marks class
    whose cell disagrees with phi's domain (the first cell) or relabel's
    barred-max side (the last) is a counterexample."""
    return _alone(_Partition(k, n, m))


class _Partition:
    """verify_partition at one cell, fed the cell's class counts."""

    image_cell = None  # the check ends with its own cell's stream
    in_domain = staticmethod(lambda *marks: None)  # the domain is the whole cell
    domain = None  # no work per object: the cell rule reads only the marks

    def __init__(self, k: int, n: int, m: int) -> None:
        self.cell = (k, n, m)
        self.counts = {CELL_RSTAR_NONEMPTY: 0, CELL_STAR_ONLY: 0, CELL_BARRED_MAX: 0}
        self.bad = []
        self.elapsed = 0.0

    def domain_tally(self, marks: tuple, count: int) -> None:
        cell = cell_of(*marks)
        self.counts[cell] += count
        by_sets = (phi_domain(*marks) is None, relabel_max_side(*marks) is None)
        if (cell == CELL_RSTAR_NONEMPTY, cell == CELL_BARRED_MAX) != by_sets:
            self.bad.append({"cell-rule": {"marks": list(marks), "cell": cell, "objects": count}})

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
    accepts, C the set at `image_cell` that `in_image` accepts (each is a
    set predicate of bijections, which returns None on its members).  The
    certificate is fed every member of D through domain() and every member
    of C through codomain(), each call a batch of members in stream order,
    the two sides in any order, even interleaved batch by batch, and the
    sizes |D| and |C| through domain_tally() and codomain_tally(), one count
    per marks class; report() gives the verdict.  The maps are assumed
    deterministic.  A side reads its batch only during the call.

    domain(seqs) takes each s of its batch in turn: it applies forward,
    adds the image to the image set I and checks backward(forward(s)) = s
    (forward-error, backward-error, roundtrip), each kind noted for its
    first _COUNTEREXAMPLE_CAP members.  codomain(seqs) takes each t in
    turn: it removes t from I, or, if t is not there (yet), adds it to the
    missed set M.  A member of C met before its image ends in both sets,
    so I - M are the images outside C (outside-codomain) and M - I the
    members of C that no image hit (not-hit).  So a batch leaves the
    certificate as its members fed one at a time would.

    Why one pass over each side suffices: suppose nothing is noted.  Then
    forward is total on D (no forward-error) and backward(forward(s)) = s
    for every s in D (no backward-error, no roundtrip), so forward is
    injective as well.  Every image lies in C and every member of C is an
    image (I - M and M - I are empty).  So forward is a bijection D -> C,
    lhs = |D| equals rhs = |C|, and every t in C is t = forward(s) with
    backward(t) = s, so forward(backward(t)) = t: backward is a two-sided
    inverse on C.  (A marks class lies wholly inside or outside a set, so
    the counts of the accepted classes are the numbers of members fed.)  A
    second pass over C that checks forward(backward(t)) = t can therefore
    change neither the status nor lhs nor rhs of any report; it could only
    add counterexamples to one that already fails.  The order of the two
    sides is as harmless: it changes the counterexamples only of a
    non-injective forward (two images t with the member t of C between
    them leave one t in I), which already fails a round trip.

    Why the maps need not validate: D and C are enumerated, so they have
    only valid members of their sets, and forward sees only members of D.
    backward sees every image, also one outside C (valid or not); such an
    image is an outside-codomain counterexample whatever backward does with
    it, so a backward-error or roundtrip it adds can only join a report
    that already fails.  So the harness runs the cores.

    Memory: I keeps the images of D until C streams by, and C itself is
    never stored.  A member of C is looked up in I rather than checked by
    validate_packed, which needs O(1) memory but took ten times as long
    over the 38,878 phi images of weight <= 8 (0.23-0.27 s against
    0.023-0.035 s, best of 7, GC off, shared 2-core host)."""

    def __init__(self, claim_id, cell, image_cell, forward, backward, in_domain, in_image):
        self.claim_id = claim_id
        self.cell = cell  # an image cell with a negative size has an empty D
        self.image_cell = image_cell if min(image_cell) >= 0 else None
        self.forward, self.backward = forward, backward
        self.in_domain, self.in_image = in_domain, in_image
        self.images, self.missed = set(), set()
        self.domain_size = self.codomain_size = 0
        self.bad = []
        self.noted = Counter()
        self.elapsed = 0.0

    def note(self, kind, payload) -> None:
        if self.noted[kind] < _COUNTEREXAMPLE_CAP:
            self.noted[kind] += 1
            self.bad.append({kind: payload})

    def domain(self, seqs) -> None:
        forward, backward, note, add = self.forward, self.backward, self.note, self.images.add
        for s in seqs:
            try:
                t = forward(s)
            except Exception as exc:
                note("forward-error", {"input": _payload(s), "error": str(exc)})
                continue
            add(t)
            try:
                back = backward(t)
            except Exception as exc:
                note("backward-error", {"input": _payload(t), "error": str(exc)})
                continue
            if back != s:
                note("roundtrip", _payload(s))

    def codomain(self, seqs) -> None:
        images, missed = self.images, self.missed
        for t in seqs:
            before = len(images)  # t is hashed once, and nothing raises
            images.discard(t)
            if len(images) == before:
                missed.add(t)

    def domain_tally(self, marks: tuple, count: int) -> None:
        self.domain_size += count

    def codomain_tally(self, marks: tuple, count: int) -> None:
        self.codomain_size += count

    def report(self) -> VerificationReport:
        started = time.perf_counter()
        for kind, left in (
            ("outside-codomain", self.images - self.missed),
            ("not-hit", self.missed - self.images),
        ):
            for t in sorted(map(unpack, left), key=canonical_json)[:_COUNTEREXAMPLE_CAP]:
                self.note(kind, to_json_dict(t))
        k, n, m = self.cell
        return _finish(
            self.claim_id, {"k": k, "n": n, "m": m}, self.domain_size,
            self.codomain_size, self.bad, started, spent=self.elapsed,
        )


def _routed(stream, starting, finishing):
    """Route one cell's stream to the domain sides of the consumers
    `starting` at the cell and the codomain sides of the certificates
    `finishing` there, _CHUNK consecutive sequences at a time, and yield
    the seconds the sides took on each chunk.  The marks of a sequence are
    its class, and they decide every verdict: each predicate is asked once
    per class, and each side with work per object (not the partition's)
    gets the sequences of the chunk whose class it accepts as one batch in
    stream order.  Each batch is one call, timed by one clock pair and
    charged to its consumer, so no clock is read per object.  After the
    stream the accepting sides get the class counts."""
    clock = time.perf_counter
    sides = [(c, c.in_domain, c.domain, c.domain_tally, []) for c in starting]
    sides += [(c, c.in_image, c.codomain, c.codomain_tally, []) for c in finishing]
    classes = {}  # marks -> [count, accepting sides, the batches they fill]
    stream = iter(stream)
    while chunk := list(islice(stream, _CHUNK)):
        for seq in chunk:
            marked = packed_marks(seq)
            entry = classes.get(marked)
            if entry is None:
                accepting = [side for side in sides if side[1](*marked) is None]
                batches = [side[4] for side in accepting if side[2]]
                entry = classes[marked] = [0, accepting, batches]
            entry[0] += 1
            for batch in entry[2]:
                batch.append(seq)
        spent = 0.0
        for consumer, _, call, _, batch in sides:
            if batch:
                started = clock()
                call(batch)
                took = clock() - started
                consumer.elapsed += took
                spent += took
                batch.clear()
        yield spent
    for marked, (count, accepting, _) in classes.items():
        for side in accepting:
            side[3](marked, count)


def _run(cells, starting_at) -> list[VerificationReport]:
    """The one driver of the object claims: the reports of the consumers
    that `starting_at(cell)` makes as each of `cells` comes up.  A
    certificate is filed at once under its image cell, which is its own
    cell or a later one.  Each cell streams once, _routed to the consumers
    made at the cell and the certificates filed under it.  Each side is
    charged the time of its own batches; the first consumer is charged the
    rest of the cell's time, which is the stream, the marks, the routing
    and the tallies, measured by one clock pair around the whole cell.  A
    consumer reports after its last cell."""
    reports = []
    waiting = defaultdict(list)  # image cell -> certificates its stream feeds
    for cell in cells:
        starting = starting_at(cell)
        for c in starting:
            if c.image_cell is not None:
                waiting[c.image_cell].append(c)
        finishing = waiting.pop(cell, [])
        if not starting and not finishing:
            continue
        started = time.perf_counter()
        spent = sum(_routed(enumerate_packed(*cell), starting, finishing))
        (starting + finishing)[0].elapsed += time.perf_counter() - started - spent
        reports += [c.report() for c in starting if c.image_cell is None]
        reports += [c.report() for c in finishing]
    return reports


def _alone(consumer) -> VerificationReport:
    """The report of one consumer, run on its own cell and image cell."""
    cells = dict.fromkeys(c for c in (consumer.cell, consumer.image_cell) if c is not None)
    (report,) = _run(cells, lambda cell: [consumer] if cell == consumer.cell else [])
    return report


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
        relabel_max_side, psi_domain,  # the barred-min subset is psi's domain
    )


def certify_phi(k: int, n: int, m: int) -> VerificationReport:
    """phi: sequences with a nonempty extra red block at (k, n, m) onto
    star-only sequences at (k+1, n-1, m) minus the barred-max singletons.
    Without red elements (n = 0) the domain is empty."""
    return _alone(_phi_certificate(k, n, m))


def certify_psi(k: int, n: int, m: int) -> VerificationReport:
    """psi: barred-min singleton sequences at (k, n, m) onto all
    sequences at (k-1, n-1, m+1).  The domain needs an ordinary pair, so
    it is empty unless k, n >= 1."""
    return _alone(_psi_certificate(k, n, m))


def certify_relabel(k: int, n: int, m: int) -> VerificationReport:
    """The max/min blue relabelling carries the barred-max singleton
    subset onto the barred-min one and is an involution."""
    return _alone(_relabel_certificate(k, n, m))


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
_SERIES_RANGES = {"pb-zero": range(1, 21), "thm1": range(0, 17)}

_SUM_CLAIMS = ("thm2", "prop-rec", "telescope")  # the claims of _sum_claims

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
    ]


def _sweep(max_weight: int, claims) -> list[VerificationReport]:
    """The reports of the object claims in `claims` on every cell with
    weight k + n + 2m <= max_weight, each cell streamed once by _run.

    A certificate's image cell must not stream before the certificate is
    made.  Cells go by weight, then by ascending m, then by ascending k:
    phi and psi keep the weight, phi's image cell (k+1, n-1, m) has the
    same m and a larger k, psi's (k-1, n-1, m+1) a larger m, so every
    image cell comes later in the same weight and the images wait
    briefly; relabel's image cell is its own."""
    cells = [
        (k, weight - k - 2 * m, m)
        for weight in range(max_weight + 1)
        for m in range(weight // 2 + 1)
        for k in range(weight - 2 * m + 1)
    ]
    sweeps = [_SWEEPS[claim] for claim in claims]
    return _run(
        cells, lambda cell: [make(*cell) for in_sweep, make in sweeps if in_sweep(*cell)]
    )


def _cell_order(report: VerificationReport) -> tuple[int, int, int]:
    p = report.parameters
    return p["k"], p["n"], p["m"]


def run_claim(claim: str, max_weight: int = 8) -> list[VerificationReport]:
    if max_weight < 0:
        raise ValueError("max weight must be nonnegative")
    if claim == "all":
        reports = run_claim("pb-zero", max_weight) + run_claim("thm1", max_weight)
        reports += _sum_claims(_SUM_CLAIMS, _nm_cells(max_weight))
        reports += _sweep(max_weight, tuple(_SWEEPS))
        return sorted(reports, key=report_sort_key)
    if claim in _SWEEPS:
        return sorted(_sweep(max_weight, (claim,)), key=_cell_order)
    if claim in _SERIES_RANGES:
        return _series_claim(claim, list(_SERIES_RANGES[claim]))
    if claim in _SUM_CLAIMS:
        return _sum_claims((claim,), _nm_cells(max_weight))
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
