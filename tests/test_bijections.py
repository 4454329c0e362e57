import hashlib
import json
import pathlib

import pytest

from callan import bijections
from callan.bijections import (
    PsiIntermediate,
    phi_domain,
    phi_image,
    psi_domain,
    psi_image,
    relabel_domain,
    phi,
    phi_case,
    phi_inverse,
    phi_inverse_case,
    relabel_max_min,
    psi,
    psi_b,
    psi_r,
    psi_inverse,
    psi_b_inverse,
    psi_r_inverse,
    intermediate_from_json_dict,
    intermediate_to_json_dict,
    canonical_intermediate_json,
)
from callan.combinat import (
    BLUE,
    CELL_RSTAR_NONEMPTY,
    CELL_STAR_ONLY,
    RED,
    Bar,
    CallanPair,
    MBarredSequence,
    classify,
    enumerate_mbarred,
    in_barred_max_subset,
    in_barred_min_subset,
    from_json_dict,
    to_json_dict,
    canonical_json,
)
from callan.errors import ConsistencyError, DomainError

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _golden(name):
    with open(GOLDEN / f"{name}.json") as fh:
        return json.load(fh)


def _compact(obj):
    return json.dumps(obj, separators=(",", ":"))


@pytest.mark.parametrize("name,case", [
    ("phi_a1", "A1"), ("phi_a2", "A2"), ("phi_b1", "B1"), ("phi_b2", "B2"),
])
def test_phi_worked_examples_verbatim(name, case):
    doc = _golden(name)
    assert doc["case"] == case
    seq = from_json_dict(doc["input"])
    assert phi_case(seq) == case
    image = phi(seq)
    assert canonical_json(image) == _compact(doc["output"])
    # and back again, recovering the case from the image alone
    assert phi_inverse_case(image) == case
    assert canonical_json(phi_inverse(image)) == _compact(doc["input"])


def test_psi_b_worked_example_verbatim():
    doc = _golden("psi_b")
    seq = from_json_dict(doc["input"])
    inter = psi_b(seq)
    assert canonical_intermediate_json(inter) == _compact(doc["output"])
    assert canonical_json(psi_b_inverse(inter)) == _compact(doc["input"])


@pytest.mark.parametrize("name", ["psi_r_extra", "psi_r_ordinary"])
def test_psi_r_worked_examples_verbatim(name):
    # these display examples carry blue blocks that are not a partition,
    # so only the red-side move itself is checked, not full validity
    doc = _golden(name)
    inter = intermediate_from_json_dict(doc["input"])
    image = psi_r(inter)
    assert canonical_json(image) == _compact(doc["output"])


def _phi_domain(k, n, m):
    return [s for s in enumerate_mbarred(k, n, m) if s.extra.red]


def _phi_codomain(k, n, m):
    return [
        t for t in enumerate_mbarred(k + 1, n - 1, m)
        if not t.extra.red and not in_barred_max_subset(t)
    ]


@pytest.mark.parametrize(
    "k,n,m",
    [(k, n, m) for k in range(5) for n in range(1, 5) for m in range(4)
     if k + n + m <= 4],
)
def test_phi_bijection_small_cells(k, n, m):
    domain = _phi_domain(k, n, m)
    codomain = set(_phi_codomain(k, n, m))
    images = [phi(s) for s in domain]
    assert len(set(images)) == len(images)
    assert set(images) == codomain
    for s, t in zip(domain, images):
        assert phi_inverse(t) == s
    for t in codomain:
        assert phi(phi_inverse(t)) == t


@pytest.mark.parametrize(
    "k,n,m",
    [(k, n, m) for k in range(1, 5) for n in range(1, 5) for m in range(4)
     if k + n + m <= 4],
)
def test_psi_bijection_small_cells(k, n, m):
    domain = [s for s in enumerate_mbarred(k, n, m) if in_barred_min_subset(s)]
    codomain = set(enumerate_mbarred(k - 1, n - 1, m + 1))
    images = [psi(s) for s in domain]
    assert len(set(images)) == len(images)
    assert set(images) == codomain
    for s, t in zip(domain, images):
        assert psi_inverse(t) == s
    for t in codomain:
        assert psi(psi_inverse(t)) == t


def test_psi_factors_through_stages():
    for s in enumerate_mbarred(2, 2, 0):
        if not in_barred_min_subset(s):
            continue
        inter = psi_b(s)
        assert isinstance(inter, PsiIntermediate)
        assert psi_r(inter) == psi(s)
        assert psi_b_inverse(psi_r_inverse(psi(s))) == s


def test_phi_case_distribution():
    # B2 needs a companion next to the maximal red element plus a nonempty
    # extra block, so three red elements is the smallest showcase
    cases = {phi_case(s) for s in _phi_domain(1, 3, 0)}
    assert cases == {"A1", "A2", "B1", "B2"}


def test_domain_and_image_predicates_match_the_cells():
    for k, n, m in [(0, 2, 0), (1, 0, 1), (2, 1, 0), (2, 2, 0), (1, 1, 1), (2, 1, 1)]:
        for s in enumerate_mbarred(k, n, m):
            cell = classify(s)
            extreme = in_barred_max_subset(s) or in_barred_min_subset(s)
            assert (phi_domain(s) is None) == (cell == CELL_RSTAR_NONEMPTY)
            assert (phi_image(s) is None) == (k >= 1 and cell == CELL_STAR_ONLY)
            assert (psi_domain(s) is None) == in_barred_min_subset(s)
            assert (psi_image(s) is None) == (m >= 1)
            assert (relabel_domain(s) is None) == extreme


def test_phi_rejects_star_only_input():
    seq = next(s for s in enumerate_mbarred(2, 1, 0) if not s.extra.red)
    with pytest.raises(DomainError):
        phi(seq)


def test_phi_rejects_invalid_sequence():
    bad = MBarredSequence(
        0, 0, 1,
        (CallanPair(frozenset(), frozenset({1}), True), Bar(RED, 0)),
    )
    with pytest.raises(DomainError):
        phi(bad)


def test_phi_inverse_rejects_barred_max_subset():
    hit = next(s for s in enumerate_mbarred(2, 1, 0) if in_barred_max_subset(s))
    with pytest.raises(DomainError):
        phi_inverse(hit)


def test_relabel_swaps_subsets():
    for (k, n, m) in [(2, 1, 0), (2, 2, 0), (2, 1, 1), (3, 1, 0)]:
        pool = list(enumerate_mbarred(k, n, m))
        hi = [s for s in pool if in_barred_max_subset(s)]
        lo = [s for s in pool if in_barred_min_subset(s)]
        mapped = [relabel_max_min(s) for s in hi]
        assert set(mapped) == set(lo)
        assert [relabel_max_min(t) for t in mapped] == hi


def test_relabel_is_identity_for_single_blue():
    for s in enumerate_mbarred(1, 1, 1):
        if in_barred_max_subset(s):
            assert relabel_max_min(s) == s


def test_relabel_rejects_outside_both_subsets():
    seq = next(
        s for s in enumerate_mbarred(2, 1, 0)
        if not s.extra.red
        and not in_barred_max_subset(s)
        and not in_barred_min_subset(s)
    )
    with pytest.raises(DomainError):
        relabel_max_min(seq)


def test_checked_guards_both_sides_of_a_core():
    # the public maps are their cores bound through _checked: input outside
    # the domain never reaches the core, and output outside the image is an
    # internal error, whether it is invalid or merely a valid sequence of
    # the wrong set
    calls = []

    def stub(emit):
        def core(seq):
            calls.append(seq)
            return emit(seq)

        return bijections._checked(
            core, ("stub: input outside phi's domain", phi_domain),
            ("stub: bad image", phi_image),
        )

    inside = next(s for s in enumerate_mbarred(2, 1, 0) if s.extra.red)
    outside = next(s for s in enumerate_mbarred(2, 1, 0) if not s.extra.red)
    invalid = MBarredSequence(0, 0, 0, ())
    with pytest.raises(DomainError, match=r"^stub: input outside phi's domain \("):
        stub(phi)(outside)
    with pytest.raises(DomainError, match="sequence is empty"):
        stub(phi)(invalid)
    assert calls == []
    assert stub(phi)(inside) == phi(inside)
    with pytest.raises(ConsistencyError, match=r"^stub: bad image \(last-element"):
        stub(lambda s: invalid)(inside)
    with pytest.raises(ConsistencyError, match=r"^stub: bad image \(the extra red"):
        stub(lambda s: s)(inside)
    assert calls == [inside] * 3
    assert (phi.__name__, phi.__doc__) == ("phi", bijections._phi.__doc__)


def test_psi_b_requires_barred_singleton():
    no_bar = next(
        s for s in enumerate_mbarred(2, 2, 0)
        if not s.extra.red and not in_barred_min_subset(s)
    )
    with pytest.raises(DomainError):
        psi_b(no_bar)


def test_psi_r_requires_nonempty_extra_for_ordinary_case():
    # minimal red element inside an ordinary block but nothing stored to
    # hand back: no preimage exists, the map must refuse
    inter = PsiIntermediate(
        0, 1, 1,
        (Bar(BLUE, 1),
         Bar(RED, 0),
         CallanPair(frozenset({1}), frozenset({1})),
         CallanPair(frozenset(), frozenset(), True)),
    )
    with pytest.raises(DomainError):
        psi_r(inter)


def test_psi_inverse_requires_positive_bar_count():
    seq = next(iter(enumerate_mbarred(1, 1, 0)))
    with pytest.raises(DomainError):
        psi_inverse(seq)


def test_intermediate_json_marker():
    s = next(s for s in enumerate_mbarred(1, 1, 0) if in_barred_min_subset(s))
    inter = psi_b(s)
    data = intermediate_to_json_dict(inter)
    assert data["intermediate"] is True
    assert intermediate_from_json_dict(data) == inter
    with pytest.raises(ValueError):
        from_json_dict(data)
    with pytest.raises(ValueError):
        intermediate_from_json_dict(to_json_dict(s))


def test_psi_b_inverse_refuses_intermediates_without_final_extra_pair():
    s = next(s for s in enumerate_mbarred(2, 1, 0) if in_barred_min_subset(s))
    inter = psi_b(s)
    *body, extra = inter.elements
    endings = [
        (*body, extra, Bar(RED, 0)),  # a trailing bar
        (*body, CallanPair(extra.blue, extra.red)),  # the last pair is ordinary
        (*body, extra, CallanPair(frozenset({9}), frozenset({9}))),
    ]
    for elements in endings:
        bad = PsiIntermediate(inter.m, inter.k, inter.n, elements)
        for fn in (psi_b_inverse, psi_r):
            with pytest.raises(DomainError, match="must end with the extra pair"):
                fn(bad)


# sha256 over one line "input<TAB>image or error" per object of weight
# k + n + 2m <= 5, in enumeration order, recorded before the maps were
# rewritten on slots.  Bijectivity alone does not fix which bijection the
# maps are; these digests pin every image and every refusal.
PINNED_IMAGES = {
    "phi_case": "1ed8064085aa1de5691262233e4570ff44060a4440582a7d32fab426e2a4b8ce",
    "phi": "3a404a457a242db3fd95c91ef1ceb2c8ee21ee50253750b6defc63f62bc83ddc",
    "phi_inverse_case": "922f991fa4877b87483568b7374c6d1f7b373c2988b57f1a465f88d9bd2d7661",
    "phi_inverse": "c5afdd4eae48c20a64df1536ee9bf248ba5937924c2c75299d1b132d7ed107e8",
    "relabel_max_min": "958c519f962f94bcd679318397cb4787f98e84b5e06e2a53cde8d3ae9d8f70a3",
    "psi_b": "377e6d163e97c8fddb3baac62452f7529058a0cf6ac2ac819543e8b3e01903e0",
    "psi": "9f2e1240fe406967674ddd8839a10491f71a3dbba602d4b3ba163780e99bf51b",
    "psi_r_inverse": "d3b444e8b490a8d6d4efc40f3fdf3bdcf06459e8a83224faa2aba697ca2a312f",
    "psi_inverse": "69365faaa6bda846e85451777a6f296153b026d4920f1c5f0568049298bb1cca",
}


def _shown(fn, seq):
    try:
        out = fn(seq)
    except DomainError as exc:
        return f"DomainError: {exc}"
    if isinstance(out, str):
        return out
    if isinstance(out, PsiIntermediate):
        return canonical_intermediate_json(out)
    return canonical_json(out)


@pytest.mark.parametrize("name", sorted(PINNED_IMAGES))
def test_maps_reproduce_pinned_images(name):
    fn = getattr(bijections, name)
    digest = hashlib.sha256()
    for k in range(6):
        for n in range(6 - k):
            for m in range((5 - k - n) // 2 + 1):
                for s in enumerate_mbarred(k, n, m):
                    digest.update(f"{canonical_json(s)}\t{_shown(fn, s)}\n".encode())
    assert digest.hexdigest() == PINNED_IMAGES[name]
