import dataclasses
import time
from collections import Counter

import pytest

from callan import harness
from callan.bijections import phi, phi_inverse, psi_inverse
from callan.combinat import enumerate_mbarred, to_json_dict
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


def test_partition_example_cell():
    r = verify_partition(2, 1, 0)
    assert r.passed and r.lhs == 7 == r.rhs


def test_partition_no_blue_cell():
    assert verify_partition(0, 2, 0).passed


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
    validate = combinat.validate_mbarred

    def counting(seq):
        calls.append(seq)
        return validate(seq)

    monkeypatch.setattr(combinat, "validate_mbarred", counting)
    reports = run_claim(claim, 5)
    assert reports and all(r.passed for r in reports)
    assert sum(r.lhs for r in reports) > 0 and calls == []


# Mutation tests for the single-pass certificate in _certify_map: each
# deliberately broken map must still fail the certification, with the
# counterexample kind that names the broken property.


def _kinds(report):
    return {kind for ce in report.counterexamples for kind in ce}


def test_certificate_catches_collision(monkeypatch):
    # phi sends every sequence to the image of the first one; in (2, 2, 0)
    # collisions and failed round trips exceed the cap, and the cap per
    # kind still leaves room for the codomain elements never hit
    for cell in [(1, 2, 0), (2, 2, 0)]:
        first = next(s for s in enumerate_mbarred(*cell) if s.extra.red)
        monkeypatch.setattr(harness, "phi", lambda s, first=first: phi(first))
        r = certify_phi(*cell)
        assert not r.passed
        assert {"collision", "roundtrip", "not-hit"} <= _kinds(r)
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
    fixed = psi_inverse(next(iter(enumerate_mbarred(1, 1, 1))))
    monkeypatch.setattr(harness, "psi_inverse", lambda t: fixed)
    r = certify_psi(2, 2, 0)
    assert not r.passed and r.lhs == r.rhs
    assert _kinds(r) == {"roundtrip"}


def test_certificate_catches_missed_codomain_element(monkeypatch):
    # one domain element is sent outside the codomain, so one codomain
    # element is never hit although the sizes agree
    victim = next(s for s in enumerate_mbarred(2, 2, 0) if s.extra.red)
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


def test_sweep_streams_each_cell_once(monkeypatch):
    streamed = Counter()

    def counting(k, n, m):
        streamed[k, n, m] += 1
        return enumerate_mbarred(k, n, m)

    monkeypatch.setattr(harness, "enumerate_mbarred", counting)
    reports = run_claim("all", 6)
    assert reports and all(r.passed for r in reports)
    cells = {
        (k, n, m)
        for k in range(7) for n in range(7) for m in range(4)
        if k + n + 2 * m <= 6
    }
    assert streamed == Counter(cells)


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


def test_collision_names_the_first_preimage(monkeypatch):
    cell = (1, 2, 0)
    members = [s for s in enumerate_mbarred(*cell) if s.extra.red]
    monkeypatch.setattr(harness, "phi", lambda s: phi(members[0]))
    collisions = [
        ce["collision"] for ce in certify_phi(*cell).counterexamples if "collision" in ce
    ]
    assert collisions == [
        [to_json_dict(members[0]), to_json_dict(s)] for s in members[1:6]
    ]


def test_sweep_charges_each_stream_once():
    # each report's elapsed is its own share of the sweep: the stream of a
    # cell goes to its first consumer only, so the shares add up to no
    # more than the sweep took
    started = time.perf_counter()
    reports = run_claim("all", 6)
    took = time.perf_counter() - started
    assert all(r.elapsed > 0.0 for r in reports)
    assert sum(r.elapsed for r in reports) <= took
