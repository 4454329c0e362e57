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

The public maps of ``bijections`` are the trust boundary: they validate
what they accept and emit.  Certificates run their unvalidating cores.
"""

from __future__ import annotations

import time
from collections import Counter
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


def _finish(claim_id, parameters, lhs, rhs, counterexamples, started, terms=()):
    lhs, rhs = _as_int(lhs), _as_int(rhs)
    status = "pass" if lhs == rhs and not counterexamples else "fail"
    return VerificationReport(
        claim_id=claim_id,
        parameters=parameters,
        lhs=lhs,
        rhs=rhs,
        status=status,
        counterexamples=counterexamples,
        elapsed=time.perf_counter() - started,
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
    started = time.perf_counter()
    counts = {CELL_RSTAR_NONEMPTY: 0, CELL_STAR_ONLY: 0, CELL_BARRED_MAX: 0}
    bad = []
    for seq in enumerate_mbarred(k, n, m):
        nonempty = bool(seq.extra.red)
        barred_max = in_barred_max_subset(seq)
        if nonempty and barred_max:
            if len(bad) < _COUNTEREXAMPLE_CAP:
                bad.append({"overlap": to_json_dict(seq)})
            continue
        cell = classify(seq)
        expected = (
            CELL_RSTAR_NONEMPTY
            if nonempty
            else CELL_BARRED_MAX
            if barred_max
            else CELL_STAR_ONLY
        )
        if cell != expected:
            if len(bad) < _COUNTEREXAMPLE_CAP:
                bad.append({"misclassified": to_json_dict(seq), "cell": cell})
            continue
        counts[cell] += 1
    lhs = sum(counts.values())
    rhs = count_mbarred(k, n, m)
    return _finish("partition", {"k": k, "n": n, "m": m}, lhs, rhs, bad, started)


# ---------------------------------------------------------------------------
# bijection certification
# ---------------------------------------------------------------------------


def _certify_map(claim_id, k, n, m, image_sizes, forward, backward, domain, image):
    """Check in one pass over D, the sequences at (k, n, m) in `domain`,
    that forward maps D bijectively onto C, the sequences at image_sizes in
    `image`, with backward as two-sided inverse.  An image cell with a
    negative size comes with an empty D, and the report is vacuous.

    Why one pass suffices: suppose the pass notes nothing.  Then forward is
    total on D (no forward-error), injective (no collision), maps D into C
    (no outside-codomain) and satisfies backward(forward(s)) = s for every
    s in D (no roundtrip, no backward-error).  If also |D| = |C|, the
    injection forward: D -> C between finite sets of equal size is a
    bijection, so every t in C is t = forward(s) for some s in D, and then
    backward(t) = s and forward(backward(t)) = t: backward is a two-sided
    inverse on C.  In every other case the report already fails, through a
    counterexample or through lhs = |D| != |C| = rhs.  A second pass over C
    that checks forward(backward(t)) = t can therefore change neither the
    status nor lhs nor rhs of any report; it could only add counterexamples
    to one that already fails.

    Why the maps need not validate: D and C are enumerated, so they hold
    only valid members of their sets.  forward sees only members of D and
    backward only images in C, so no input check can fail; an image outside
    C is an outside-codomain counterexample, valid or not, and a preimage
    other than s a roundtrip one.  So the harness runs the cores."""
    started = time.perf_counter()
    params = {"k": k, "n": n, "m": m}
    if min(image_sizes) < 0:
        return _finish(claim_id, params, 0, 0, [], started)
    codomain = {t for t in enumerate_mbarred(*image_sizes) if image(t) is None}
    bad = []
    noted = Counter()

    def note(kind, payload):
        if noted[kind] < _COUNTEREXAMPLE_CAP:
            noted[kind] += 1
            bad.append({kind: payload})

    images = {}
    size = 0
    sources = (s for s in enumerate_mbarred(k, n, m) if domain(s) is None)
    for size, s in enumerate(sources, 1):
        try:
            t = forward(s)
        except Exception as exc:
            note("forward-error", {"input": to_json_dict(s), "error": str(exc)})
            continue
        if t in images:
            note("collision", [to_json_dict(images[t]), to_json_dict(s)])
        images[t] = s
        if t not in codomain:
            note("outside-codomain", to_json_dict(t))
            continue
        try:
            back = backward(t)
        except Exception as exc:
            note("backward-error", {"input": to_json_dict(t), "error": str(exc)})
            continue
        if back != s:
            note("roundtrip", to_json_dict(s))
    for t in sorted(codomain - set(images), key=canonical_json)[:_COUNTEREXAMPLE_CAP]:
        note("not-hit", to_json_dict(t))
    return _finish(claim_id, params, size, len(codomain), bad, started)


def certify_phi(k: int, n: int, m: int) -> VerificationReport:
    """phi: sequences with a nonempty extra red block at (k, n, m) onto
    star-only sequences at (k+1, n-1, m) minus the barred-max singletons.
    Without red elements (n = 0) the domain is empty."""
    return _certify_map(
        "phi", k, n, m, (k + 1, n - 1, m), phi, phi_inverse, phi_domain, phi_image
    )


def certify_psi(k: int, n: int, m: int) -> VerificationReport:
    """psi: barred-min singleton sequences at (k, n, m) onto all
    sequences at (k-1, n-1, m+1).  The domain needs an ordinary pair, so
    it is empty unless k, n >= 1."""
    return _certify_map(
        "psi", k, n, m, (k - 1, n - 1, m + 1), psi, psi_inverse, psi_domain, psi_image
    )


def certify_relabel(k: int, n: int, m: int) -> VerificationReport:
    """The max/min blue relabelling carries the barred-max singleton
    subset onto the barred-min one and is an involution."""
    return _certify_map(
        "relabel", k, n, m, (k, n, m), relabel_max_min, relabel_max_min,
        lambda s: None if in_barred_max_subset(s) else "not barred-max",
        lambda s: None if in_barred_min_subset(s) else "not barred-min",
    )


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


def _nm_cells(max_weight: int) -> list[tuple[int, int]]:
    return [
        (n, m)
        for n in range(max_weight + 1)
        for m in range((max_weight - n) // 2 + 1)
        if n + 2 * m <= max_weight
    ]


def _knm_cells(max_weight: int) -> list[tuple[int, int, int]]:
    return [
        (k, n, m)
        for k in range(max_weight + 1)
        for n in range(max_weight - k + 1)
        for m in range((max_weight - k - n) // 2 + 1)
        if k + n + 2 * m <= max_weight
    ]


def run_claim(claim: str, max_weight: int = 8) -> list[VerificationReport]:
    if max_weight < 0:
        raise ValueError("max weight must be nonnegative")
    if claim == "all":
        reports = []
        for name in CLAIM_NAMES:
            reports.extend(run_claim(name, max_weight))
        return sorted(reports, key=report_sort_key)
    if claim == "pb-zero":
        return [verify_pb_zero(n) for n in _PB_ZERO_RANGE]
    if claim == "thm1":
        return [verify_thm_identity(n) for n in _THM1_RANGE]
    if claim == "thm2":
        return [verify_thm_identity2(n, m) for n, m in _nm_cells(max_weight)]
    if claim == "prop-rec":
        return [verify_prop_rec(n, m) for n, m in _nm_cells(max_weight) if n >= 2]
    if claim == "partition":
        return [verify_partition(k, n, m) for k, n, m in _knm_cells(max_weight)]
    if claim == "phi":
        return [certify_phi(k, n, m) for k, n, m in _knm_cells(max_weight) if n >= 1]
    if claim == "psi":
        return [
            certify_psi(k, n, m)
            for k, n, m in _knm_cells(max_weight)
            if k >= 1 and n >= 1
        ]
    if claim == "relabel":
        return [
            certify_relabel(k, n, m) for k, n, m in _knm_cells(max_weight) if k >= 1
        ]
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
