import dataclasses
import hashlib
import json
import time
from collections import Counter
from itertools import chain, zip_longest

import pytest

from callan import harness, numbers
from callan.bijections import _phi as phi, _phi_inverse as phi_inverse, _psi_inverse as psi_inverse
from callan.bijections import phi_domain
from callan.combinat import enumerate_packed, packed_marks
from callan.harness import (
    SumTerm,
    certify_phi,
    certify_psi,
    certify_relabel,
    report_sort_key,
    report_to_json_dict,
    run_claim,
    verify_partition,
    verify_pb_zero,
    verify_prop_rec,
    verify_telescope,
    verify_thm_identity,
    verify_thm_identity2,
)


def test_pb_zero_vanishes_from_one():
    for n in (1, 2, 4, 7, 12):
        r = verify_pb_zero(n)
        assert r.passed and r.lhs == 0


def test_pb_zero_honest_at_zero():
    # the empty-shift point evaluates to 1, not 0
    r = verify_pb_zero(0)
    assert not r.passed
    assert r.lhs == 1 and r.rhs == 0


def test_thm_identity_small_values():
    r = verify_thm_identity(2)
    assert r.passed and r.lhs == -1
    assert [t.count for t in r.terms] == [1, 3, 1]
    assert [t.sign for t in r.terms] == [1, -1, 1]
    assert verify_thm_identity(4).lhs == 3
    assert verify_thm_identity(1).lhs == 0


def test_series_claims_build_one_column_per_upper_index(kernel_calls):
    # one compose and one divide per column j = 0..n_max
    run_claim("pb-zero")
    assert kernel_calls == {"compose": 21, "divide": 21}
    kernel_calls.clear()
    run_claim("thm1")
    assert kernel_calls == {"compose": 17, "divide": 18}  # plus one for the Genocchi numbers


def _without_elapsed(reports):
    return [dataclasses.replace(r, elapsed=0.0) for r in reports]


def test_single_series_reports_equal_the_batch():
    for claim, verify, top in (("pb-zero", verify_pb_zero, 20), ("thm1", verify_thm_identity, 16)):
        batch = harness._series_claim(claim, list(range(top + 1)))
        assert _without_elapsed(batch) == _without_elapsed(verify(n) for n in range(top + 1))
    assert _without_elapsed(run_claim("thm1")) == _without_elapsed(
        harness._series_claim("thm1", list(range(17)))
    )


def test_series_columns_are_charged_to_the_first_report(monkeypatch):
    genocchi_list = numbers.genocchi_list

    def slow(max_n):
        time.sleep(0.05)
        return genocchi_list(max_n)

    monkeypatch.setattr(numbers, "genocchi_list", slow)
    started = time.perf_counter()
    reports = run_claim("thm1")
    wall = time.perf_counter() - started
    assert reports[0].elapsed >= 0.05
    assert all(r.elapsed < 0.05 for r in reports[1:])
    assert sum(r.elapsed for r in reports) <= wall


def test_series_claims_refuse_a_negative_n():
    for verify in (verify_pb_zero, verify_thm_identity):
        with pytest.raises(ValueError):
            verify(-1)


def test_thm_identity2_enumerated_point():
    r = verify_thm_identity2(2, 1)
    assert r.passed and r.lhs == -3 == r.rhs
    assert [t.count for t in r.terms] == [1, 5, 1]
    assert all(t.source == "enumeration" for t in r.terms)


def test_thm_identity2_odd_n_is_zero():
    for n, m in [(1, 0), (3, 1), (5, 0), (1, 2)]:
        r = verify_thm_identity2(n, m)
        assert r.passed and r.lhs == 0 == r.rhs


def test_thm_identity2_matches_thm_identity_at_m_zero():
    for n in range(0, 7):
        a = verify_thm_identity(n)
        b = verify_thm_identity2(n, 0, "enumeration")
        assert (a.lhs, a.rhs) == (b.lhs, b.rhs)
        assert [t.count for t in a.terms] == [t.count for t in b.terms]


def test_thm_identity2_counts_by_enumeration_only():
    for mode in ("series", "nonsense"):
        with pytest.raises(ValueError):
            verify_thm_identity2(4, 0, mode)


def test_prop_rec_points():
    assert verify_prop_rec(2, 0).lhs == -1
    assert verify_prop_rec(4, 0).lhs == 3
    r = verify_prop_rec(2, 1)
    assert r.passed and r.lhs == -3
    with pytest.raises(ValueError):
        verify_prop_rec(1, 0)


def test_telescope_chains():
    r = verify_telescope(4, 0)
    assert r.passed and r.lhs == 3 and r.rhs == 3
    assert verify_telescope(2, 0).lhs == -1
    # degenerate chain: no links, just the bottom count
    assert verify_telescope(0, 3).lhs == 17
    with pytest.raises(ValueError):
        verify_telescope(3, 0)


def test_telescope_names_a_broken_link_and_a_wrong_chain_end(monkeypatch):
    # one pure bar sequence too many at m = 2: the chain (2, 1) -> (0, 2)
    # ends at 4, so its link no longer flips the sign and its end misses
    # the Genocchi prediction
    count = harness.count_mbarred
    monkeypatch.setattr(
        harness, "count_mbarred", lambda k, n, m: count(k, n, m) + ((k, n, m) == (0, 0, 2))
    )
    r = verify_telescope(2, 1)
    assert not r.passed and (r.lhs, r.rhs) == (-3, -4)
    assert r.counterexamples == [
        {"link": 0, "lhs": -3, "rhs": -4},
        {"genocchi": -3, "chain-end": -4},
    ]


def test_partition_example_cell():
    r = verify_partition(2, 1, 0)
    assert r.passed and r.lhs == 7 == r.rhs


def test_partition_no_blue_cell():
    assert verify_partition(0, 2, 0).passed


def test_partition_fails_on_a_wrong_cell_rule(monkeypatch):
    # a rule that puts every object in the star-only cell disagrees with
    # phi's domain wherever an extra red block can be nonempty (n >= 1);
    # without red elements every object is star-only and not barred-max
    monkeypatch.setattr(harness, "cell_of", lambda *marks: harness.CELL_STAR_ONLY)
    reports = run_claim("partition", 7)
    assert len(reports) == 70
    failed = [r for r in reports if not r.passed]
    assert {(r.parameters["n"] >= 1) for r in failed} == {True}
    assert all(r.passed for r in reports if r.parameters["n"] == 0)
    assert len(failed) == sum(r.parameters["n"] >= 1 for r in reports)
    for r in failed:
        assert r.lhs == r.rhs and r.counterexamples
        assert all(set(bad) == {"cell-rule"} for bad in r.counterexamples)


def test_certify_phi_small():
    r = certify_phi(2, 1, 0)
    assert r.passed, r.counterexamples
    assert r.parameters == {"k": 2, "n": 1, "m": 0}


def test_certify_phi_vacuous_without_red():
    r = certify_phi(3, 0, 1)
    assert r.passed and r.lhs == 0 == r.rhs


def test_certify_psi_counts_domain():
    r = certify_psi(2, 2, 0)
    assert r.passed
    assert r.lhs == 5 == r.rhs


def test_certify_psi_vacuous():
    assert certify_psi(0, 3, 0).passed
    assert certify_psi(3, 0, 0).passed


def test_certify_relabel_identity_for_k_one():
    for n in range(0, 3):
        for m in range(0, 3):
            assert certify_relabel(1, n, m).passed


def test_sum_term_sign_checked():
    with pytest.raises(ValueError):
        SumTerm(1, 1, 5, "series")
    assert SumTerm(2, 1, 5, "series").sign == 1


def test_run_claim_unknown():
    with pytest.raises(ValueError):
        run_claim("no-such-claim")


def test_run_claim_sweeps_pass():
    for claim in ("thm2", "prop-rec", "telescope"):
        reports = run_claim(claim, max_weight=5)
        assert reports and all(r.passed for r in reports)


def test_run_all_sorted_and_green():
    reports = run_claim("all", max_weight=4)
    assert all(r.passed for r in reports)
    assert reports == sorted(reports, key=report_sort_key)
    claims = {r.claim_id for r in reports}
    assert claims == {
        "pb-zero", "thm-identity", "thm-identity2", "prop-rec",
        "partition", "phi", "psi", "relabel", "telescope",
    }


def test_report_json_shape():
    data = report_to_json_dict(verify_thm_identity(3))
    assert data["claim_id"] == "thm-identity"
    assert data["parameters"] == {"n": 3}
    assert data["status"] == "pass"
    assert data["counterexamples"] == []
    assert isinstance(data["elapsed"], float)


@pytest.mark.parametrize("claim", ["phi", "psi", "relabel"])
def test_certification_never_validates(monkeypatch, claim):
    # the certificate runs the unvalidating cores over enumerated sets, so
    # the validator of the public maps is never called
    from callan import combinat

    calls = []
    validate = combinat.validate_packed

    def counting(seq):
        calls.append(seq)
        return validate(seq)

    monkeypatch.setattr(combinat, "validate_packed", counting)
    reports = run_claim(claim, 5)
    assert reports and all(r.passed for r in reports)
    assert sum(r.lhs for r in reports) > 0 and calls == []


# Mutation tests for the single-pass certificate, _Certificate: each
# deliberately broken map must still fail the certification, with the
# counterexample kind that names the broken property.  The certificates
# run the packed cores, so the mutants are maps on packed sequences.


def _kinds(report):
    return {kind for ce in report.counterexamples for kind in ce}


def test_certificate_catches_collision(monkeypatch):
    # phi sends every sequence to the image of the first one; a forward map
    # that is not injective fails its round trips, so no collision kind is
    # needed, and in (2, 2, 0) the cap per kind still leaves room for the
    # codomain elements never hit
    for cell in [(1, 2, 0), (2, 2, 0)]:
        first = next(s for s in enumerate_packed(*cell) if phi_domain(*packed_marks(s)) is None)
        monkeypatch.setattr(harness, "phi", lambda s, first=first: phi(first))
        r = certify_phi(*cell)
        assert not r.passed
        assert _kinds(r) == {"roundtrip", "not-hit"}
        for kind in _kinds(r):
            count = sum(kind in ce for ce in r.counterexamples)
            assert count <= harness._COUNTEREXAMPLE_CAP


def test_certificate_catches_outside_codomain(monkeypatch):
    # identity maps: round trips hold, but no image lies in the codomain
    monkeypatch.setattr(harness, "phi", lambda s: s)
    monkeypatch.setattr(harness, "phi_inverse", lambda t: t)
    r = certify_phi(2, 2, 0)
    assert not r.passed and r.lhs == r.rhs
    assert _kinds(r) == {"outside-codomain", "not-hit"}


def test_certificate_catches_wrong_inverse(monkeypatch):
    # psi itself is a bijection; only its inverse is broken
    fixed = psi_inverse(next(iter(enumerate_packed(1, 1, 1))))
    monkeypatch.setattr(harness, "psi_inverse", lambda t: fixed)
    r = certify_psi(2, 2, 0)
    assert not r.passed and r.lhs == r.rhs
    assert _kinds(r) == {"roundtrip"}


def test_certificate_catches_missed_codomain_element(monkeypatch):
    # one domain element is sent outside the codomain, so one codomain
    # element is never hit although the sizes agree
    victim = next(s for s in enumerate_packed(2, 2, 0) if phi_domain(*packed_marks(s)) is None)
    monkeypatch.setattr(harness, "phi", lambda s: s if s == victim else phi(s))
    monkeypatch.setattr(
        harness, "phi_inverse", lambda t: t if t == victim else phi_inverse(t)
    )
    r = certify_phi(2, 2, 0)
    assert not r.passed and r.lhs == r.rhs
    assert _kinds(r) == {"outside-codomain", "not-hit"}
    assert sum("not-hit" in ce for ce in r.counterexamples) == 1


def test_certificate_catches_raising_maps(monkeypatch):
    def refuse(seq):
        raise ValueError("refused")

    monkeypatch.setattr(harness, "psi_inverse", refuse)
    assert _kinds(certify_psi(2, 2, 0)) == {"backward-error"}
    monkeypatch.setattr(harness, "psi", refuse)
    assert _kinds(certify_psi(2, 2, 0)) == {"forward-error", "not-hit"}


def test_certificate_notes_across_chunks_as_one_object_at_a_time(monkeypatch):
    # phi's 301 members at (3, 3, 0) span five chunks; an inverse that
    # refuses every 25th call and returns its argument 13 calls later fails
    # in each of them, and the report keeps the first five of each kind in
    # stream order, pinned as the one-object-per-call certificate gave them
    calls = []

    def faulty(t):
        calls.append(t)
        i = len(calls) - 1
        if i % 25 == 3:
            raise ValueError(f"refused call {i}")
        return t if i % 25 == 16 else phi_inverse(t)

    monkeypatch.setattr(harness, "phi_inverse", faulty)
    r = certify_phi(3, 3, 0)
    assert r.lhs == r.rhs == len(calls) == 301 > 4 * harness._CHUNK
    assert [kind for ce in r.counterexamples for kind in ce] == ["backward-error", "roundtrip"] * 5
    errors = [ce["backward-error"]["error"] for ce in r.counterexamples if "backward-error" in ce]
    assert errors == [f"refused call {i}" for i in (3, 28, 53, 78, 103)]
    digest = hashlib.sha256(json.dumps(r.counterexamples, sort_keys=True).encode()).hexdigest()
    assert digest == "7dfe29f9682e217232df3c65bcdb02f0b3283afe95a5cf105171b1ec8d720e80"


# The sweep behind run_claim streams each (k, n, m) cell once and feeds
# every object claim from that one stream.

_OBJECT_CHECKS = {
    "partition": verify_partition,
    "phi": certify_phi,
    "psi": certify_psi,
    "relabel": certify_relabel,
}


def _timeless(reports):
    return [dataclasses.replace(r, elapsed=0.0) for r in reports]


def _recording_streams(monkeypatch) -> list:
    """The cells that harness streams from now on, in order."""
    streamed = []

    def recording(k, n, m):
        streamed.append((k, n, m))
        return enumerate_packed(k, n, m)

    monkeypatch.setattr(harness, "enumerate_packed", recording)
    return streamed


# every cell of weight <= 6 in sweep order: by weight, then m, then k
_SWEEP_ORDER_6 = [
    (k, weight - k - 2 * m, m)
    for weight in range(7) for m in range(weight // 2 + 1) for k in range(weight - 2 * m + 1)
]


def test_sweep_streams_each_cell_once(monkeypatch):
    streamed = _recording_streams(monkeypatch)
    reports = run_claim("all", 6)
    assert reports and all(r.passed for r in reports)
    assert streamed == _SWEEP_ORDER_6


@pytest.mark.parametrize("check,cell,cells", [
    (certify_phi, (2, 2, 0), [(2, 2, 0), (3, 1, 0)]),
    (certify_relabel, (2, 1, 1), [(2, 1, 1)]),  # both sides from one stream
    (certify_phi, (3, 0, 1), [(3, 0, 1)]),  # image cell (4, -1, 1)
    (certify_psi, (0, 3, 0), [(0, 3, 0)]),  # image cell (-1, 2, 1)
    (verify_partition, (2, 1, 0), [(2, 1, 0)]),
])
def test_one_cell_checks_stream_each_of_their_cells_once(monkeypatch, check, cell, cells):
    streamed = _recording_streams(monkeypatch)
    report = check(*cell)
    assert report.passed and streamed == cells


@pytest.mark.parametrize("check", [certify_phi, certify_psi, certify_relabel, verify_partition])
def test_one_cell_checks_refuse_a_negative_size(check):
    with pytest.raises(ValueError):
        check(1, 0, -1)


def test_sweep_makes_each_certificate_when_its_cell_comes_up(monkeypatch):
    # consumers are made lazily: a certificate at a cell is made after
    # every earlier cell has streamed and before its own cell does
    streamed = _recording_streams(monkeypatch)
    made = []

    class Recorded(harness._Certificate):
        def __init__(self, claim_id, cell, *rest):
            made.append((cell, list(streamed)))
            super().__init__(claim_id, cell, *rest)

    monkeypatch.setattr(harness, "_Certificate", Recorded)
    reports = run_claim("all", 6)
    assert reports and all(r.passed for r in reports)
    assert len(made) == 34 + 22 + 34  # phi, psi and relabel
    for cell, before in made:
        assert before == _SWEEP_ORDER_6[:_SWEEP_ORDER_6.index(cell)]


def test_sweep_scans_for_barred_singletons_about_once_per_object(monkeypatch):
    # the sweep reads each object's marks once, in one scan of its ordinary
    # pairs for both barred flags, whatever the number of checks it feeds
    read = Counter()  # (k, n, m) -> the objects of the cell whose marks were read
    marks_of = harness.packed_marks

    def counting(seq):
        m, k, n, _ = seq
        read[k, n, m] += 1
        return marks_of(seq)

    monkeypatch.setattr(harness, "packed_marks", counting)
    reports = run_claim("all", 8)
    assert reports and all(r.passed for r in reports)
    partitions = {harness._cell_order(r): r.lhs for r in reports if r.claim_id == "partition"}
    assert sum(partitions.values()) == 84639
    assert read == partitions


def test_sweep_decides_each_side_once_per_marks_class(monkeypatch):
    # each side's predicate is asked at most once per marks class of each
    # cell it streams, the maps see exactly their members (lhs of them on
    # the domain side, rhs on the codomain side), and the partition reads
    # the cell rule at most once per class of its cell
    asked, fed = Counter(), Counter()

    def counted(key, accepts):
        def ask(m, k, red, barred_max, barred_min):
            asked[key, (bool(red), barred_max, barred_min)] += 1
            return accepts(m, k, red, barred_max, barred_min)
        return ask

    class Counted(harness._Certificate):
        def __init__(self, claim_id, cell, image_cell, forward, backward, in_domain, in_image):
            in_domain = counted((claim_id, cell, 0), in_domain)
            in_image = counted((claim_id, cell, 1), in_image)
            super().__init__(claim_id, cell, image_cell, forward, backward, in_domain, in_image)

        def domain(self, seqs):
            assert 0 < len(seqs) <= harness._CHUNK
            fed[self.claim_id, self.cell, 0] += len(seqs)
            super().domain(seqs)

        def codomain(self, seqs):
            assert 0 < len(seqs) <= harness._CHUNK
            fed[self.claim_id, self.cell, 1] += len(seqs)
            super().codomain(seqs)

    ruled = []
    cell_of = harness.cell_of
    monkeypatch.setattr(harness, "cell_of", lambda *marks: ruled.append(marks) or cell_of(*marks))
    monkeypatch.setattr(harness, "_Certificate", Counted)
    reports = run_claim("all", 7)
    assert len(reports) == 283 and all(r.passed for r in reports)
    assert len(asked) > 0 and max(asked.values()) == 1
    certified = [r for r in reports if r.claim_id in ("phi", "psi", "relabel")]
    for r in certified:
        cell = (r.parameters["k"], r.parameters["n"], r.parameters["m"])
        assert (fed[r.claim_id, cell, 0], fed[r.claim_id, cell, 1]) == (r.lhs, r.rhs)
    assert sum(fed.values()) == sum(r.lhs + r.rhs for r in certified)
    assert 0 < len(ruled) <= 5 * sum(r.claim_id == "partition" for r in reports)


def test_thm2_and_telescope_read_one_list_of_genocchi_numbers(monkeypatch):
    # thm1 divides once for its own range, up to index 18, and thm2 and
    # telescope share one list up to index 9 (weight 7); one division per
    # index or per claim would show
    orders = []
    egf = numbers._genocchi_egf
    monkeypatch.setattr(numbers, "_genocchi_egf", lambda order: orders.append(order) or egf(order))
    reports = run_claim("all", 7)
    assert len(reports) == 283 and all(r.passed for r in reports)
    assert orders == [18, 9]


def test_each_alternating_sum_is_summed_once_per_sweep(monkeypatch):
    # thm2, prop-rec and telescope read one table of the sums S(n, m): the
    # 20 points of weight n + 2m <= 7 are each summed once under `all`,
    # and prop-rec on its own builds no Genocchi list
    summed, listed = Counter(), []
    mbarred_sum = harness._mbarred_sum
    monkeypatch.setattr(
        harness, "_mbarred_sum", lambda n, m: summed.update([(n, m)]) or mbarred_sum(n, m)
    )
    reports = run_claim("all", 7)
    assert len(reports) == 283 and all(r.passed for r in reports)
    assert len(summed) == 20 and sum(summed.values()) == 20
    genocchi_list = numbers.genocchi_list
    monkeypatch.setattr(numbers, "genocchi_list", lambda n: listed.append(n) or genocchi_list(n))
    assert all(r.passed for r in run_claim("prop-rec", 7)) and listed == []


def test_all_is_the_union_of_single_claims():
    union = [r for name in harness.CLAIM_NAMES for r in run_claim(name, 6)]
    assert _timeless(run_claim("all", 6)) == _timeless(
        sorted(union, key=report_sort_key)
    )


def test_one_cell_reports_equal_the_sweep():
    swept = [r for r in run_claim("all", 6) if r.claim_id in _OBJECT_CHECKS]
    # 50 cells of weight <= 6; phi needs n >= 1, psi k, n >= 1, relabel k >= 1
    assert Counter(r.claim_id for r in swept) == {
        "partition": 50, "phi": 34, "psi": 22, "relabel": 34,
    }
    for r in swept:
        p = r.parameters
        alone = _OBJECT_CHECKS[r.claim_id](p["k"], p["n"], p["m"])
        assert _timeless([alone]) == _timeless([r])


def test_single_claim_sweeps_keep_cell_order():
    for claim in _OBJECT_CHECKS:
        cells = [tuple(r.parameters.values()) for r in run_claim(claim, 5)]
        assert cells == sorted(cells)


def test_sweep_looks_maps_up_when_it_runs(monkeypatch):
    # a map patched on the module reaches the sweep, not only certify_*
    monkeypatch.setattr(harness, "phi_inverse", lambda t: t)
    monkeypatch.setattr(harness, "relabel_max_min", lambda s: s)
    failing = {r.claim_id for r in run_claim("all", 4) if not r.passed}
    assert failing == {"phi", "relabel"}
    assert not all(r.passed for r in run_claim("phi", 4))


def test_sweep_charges_each_stream_once():
    # each report's elapsed is its own share of the sweep: the stream of a
    # cell goes to its first consumer only, so the shares add up to no
    # more than the sweep took
    started = time.perf_counter()
    reports = run_claim("all", 6)
    took = time.perf_counter() - started
    assert all(r.elapsed > 0.0 for r in reports)
    assert sum(r.elapsed for r in reports) <= took


# A certificate takes its domain and codomain sides in any order.

_CERTIFICATES = {
    "phi": (harness._phi_certificate, ("phi", "phi_inverse")),
    "psi": (harness._psi_certificate, ("psi", "psi_inverse")),
    "relabel": (harness._relabel_certificate, ("relabel_max_min",)),
}


def _fed(make, cell, order):
    # each side streams through harness._routed, which selects its members
    # and counts its size as in harness._run; "interleaved" alternates the
    # two streams chunk by chunk
    certificate = make(*cell)
    sources = harness._routed(enumerate_packed(*certificate.cell), [certificate], [])
    targets = harness._routed(enumerate_packed(*certificate.image_cell), [], [certificate])
    if order == "domain-first":
        steps = chain(sources, targets)
    elif order == "codomain-first":
        steps = chain(targets, sources)
    else:  # one interleaved stream, as harness._run feeds a shared cell
        steps = zip_longest(sources, targets)
    for _ in steps:
        pass
    return dataclasses.replace(certificate.report(), elapsed=0.0)


@pytest.mark.parametrize("identity", [False, True])
@pytest.mark.parametrize("claim,k,n,m", [
    ("phi", 2, 2, 0), ("phi", 1, 2, 1), ("psi", 2, 2, 0),
    ("psi", 2, 1, 1), ("relabel", 2, 1, 1), ("relabel", 3, 1, 0),
])
def test_certificate_ignores_the_order_of_its_sides(monkeypatch, claim, k, n, m, identity):
    # a passing cell passes in every order, and with identity maps patched
    # in, every order names the same counterexamples; the sides interleave
    # one object, a few objects or a whole chunk at a time
    make, maps = _CERTIFICATES[claim]
    if identity:
        for name in maps:
            monkeypatch.setattr(harness, name, lambda s: s)
    cell = (k, n, m)
    first = _fed(make, cell, "domain-first")
    assert first.passed != identity and first.lhs > 0
    assert _fed(make, cell, "codomain-first") == first
    for chunk in (1, 3, harness._CHUNK):
        monkeypatch.setattr(harness, "_CHUNK", chunk)
        assert _fed(make, cell, "interleaved") == first


def test_run_all_at_weight_seven_is_pinned():
    # sha256 of the 283 reports of run_claim("all", 7) without elapsed:
    # their claims, cells, sizes and verdicts, in order
    reports = [report_to_json_dict(r) for r in run_claim("all", 7)]
    for data in reports:
        del data["elapsed"]
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "caa2c9d9f94452a305358b5e28fc1d733b706eeae13193bb006f50152073e8ff"
