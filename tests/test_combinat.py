import json
import pathlib
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from callan.combinat import (
    BLUE,
    RED,
    Bar,
    CallanPair,
    MBarredSequence,
    DumontPermutation,
    validate_mbarred,
    validate_dumont,
    enumerate_callan,
    enumerate_mbarred,
    count_mbarred,
    enumerate_dumont,
    classify,
    CELL_RSTAR_NONEMPTY,
    CELL_STAR_ONLY,
    CELL_BARRED_MAX,
    in_barred_max_subset,
    in_barred_min_subset,
    swap_colors,
    mbarred_to_barred,
    barred_to_mbarred,
    mbarred_to_dumont,
    dumont_to_mbarred,
    to_json_dict,
    from_json_dict,
    canonical_json,
)
from callan.errors import DomainError

GOLDEN = pathlib.Path(__file__).parent / "golden"


def brute_force_mbarred(k, n, m):
    """Oracle-grade generate-and-filter enumeration: try every interleaving
    of every bar order with every Callan sequence and keep what validates.
    Exponential; intended for cross-checks at tiny sizes only."""
    out = set()
    pool = [Bar(BLUE, i) for i in range(1, m + 1)] + [Bar(RED, i) for i in range(m + 1)]
    for cs in enumerate_callan(k, n, shift=m):
        npairs = len(cs.pairs)
        total = npairs + len(pool)
        for slots in combinations(range(total - 1), len(pool)):
            # the last slot is excluded outright: a trailing bar never validates
            slot_set = set(slots)
            for bar_order in permutations(pool):
                elements = []
                bar_iter = iter(bar_order)
                pair_iter = iter(cs.pairs)
                for pos in range(total):
                    if pos in slot_set:
                        elements.append(next(bar_iter))
                    else:
                        elements.append(next(pair_iter))
                cand = MBarredSequence(m, k, n, tuple(elements))
                if validate_mbarred(cand)[0]:
                    out.add(cand)
    return out

# All fourteen sequences with two blue and two red elements.
CALLAN_2_2 = {
    "({1,2,*},{1,2,*})",
    "({1,2},{1,2})({*},{*})",
    "({1},{1,2})({2,*},{*})",
    "({2},{1,2})({1,*},{*})",
    "({1,2},{1})({*},{2,*})",
    "({1,2},{2})({*},{1,*})",
    "({1},{1})({2,*},{2,*})",
    "({2},{1})({1,*},{2,*})",
    "({1},{2})({2,*},{1,*})",
    "({2},{2})({1,*},{1,*})",
    "({1},{1})({2},{2})({*},{*})",
    "({1},{2})({2},{1})({*},{*})",
    "({2},{1})({1},{2})({*},{*})",
    "({2},{2})({1},{1})({*},{*})",
}

# All seven one-bar placements at two blue, one red element.
BARRED_2_1 = {
    "|({1,2,*},{1,*})",
    "|({1,2},{1})({*},{*})",
    "|({2},{1})({1,*},{*})",
    "|({1},{1})({2,*},{*})",
    "({1},{1})|({2,*},{*})",
    "({2},{1})|({1,*},{*})",
    "({1,2},{1})|({*},{*})",
}

DUMONT_6 = {
    "642135", "634215", "621435", "421365", "342165", "214365",
    "564213", "563421", "562143", "216435", "435621", "215643",
    "436215", "364215", "421563", "356421", "421635",
}


def _load_showcase():
    with open(GOLDEN / "showcase.json") as fh:
        return from_json_dict(json.load(fh))


def test_callan_two_two_lists_all_fourteen():
    got = {str(cs) for cs in enumerate_callan(2, 2, 0)}
    assert got == CALLAN_2_2


def test_callan_count_is_table_value():
    assert sum(1 for _ in enumerate_callan(2, 2, 0)) == 14


def test_barred_two_one_lists_all_seven():
    got = {str(mbarred_to_barred(s)) for s in enumerate_mbarred(2, 1, 0)}
    assert got == BARRED_2_1
    assert count_mbarred(2, 1, 0) == 7


def test_barred_display_roundtrip():
    for s in enumerate_mbarred(2, 1, 0):
        assert barred_to_mbarred(mbarred_to_barred(s)) == s


def test_dumont_length_six():
    got = {"".join(str(v) for v in p.values) for p in enumerate_dumont(6)}
    assert got == DUMONT_6


def test_dumont_counts_match_genocchi_magnitudes():
    assert sum(1 for _ in enumerate_dumont(2)) == 1
    assert sum(1 for _ in enumerate_dumont(4)) == 3
    assert sum(1 for _ in enumerate_dumont(8)) == 155


def test_dumont_validation():
    ok, _ = validate_dumont(DumontPermutation((2, 1, 4, 3)))
    assert ok
    bad, reason = validate_dumont(DumontPermutation((1, 2, 4, 3)))
    assert not bad and "descent" in reason
    bad, reason = validate_dumont(DumontPermutation((3, 2, 4, 1)))
    assert not bad and "ascent" in reason
    bad, reason = validate_dumont(DumontPermutation((2, 1, 3)))
    assert not bad and "even" in reason


def test_pure_bar_counts():
    assert [count_mbarred(0, 0, m) for m in range(6)] == [1, 1, 3, 17, 155, 2073]


def test_count_one_one_one():
    assert count_mbarred(1, 1, 1) == 5


@pytest.mark.parametrize("k,n,m", [(1, 1, -1), (0, 0, -2), (3, 0, -1)])
def test_count_refuses_negative_m_like_enumeration(k, n, m):
    for count_or_enumerate in (count_mbarred, lambda *c: list(enumerate_mbarred(*c))):
        with pytest.raises(ValueError, match="m must be nonnegative"):
            count_or_enumerate(k, n, m)


@pytest.mark.parametrize(
    "k,n,m",
    [(k, n, m) for k in range(5) for n in range(5) for m in range(5)
     if k + n + m <= 4],
)
def test_enumeration_matches_brute_force(k, n, m):
    """The structured enumerator agrees with filtering every interleaving
    of every Callan sequence through the validator."""
    assert set(enumerate_mbarred(k, n, m)) == brute_force_mbarred(k, n, m)


def test_enumeration_has_no_duplicates():
    seqs = list(enumerate_mbarred(2, 2, 1))
    assert len(seqs) == len(set(seqs)) == count_mbarred(2, 2, 1)


def test_showcase_sequence_is_valid():
    seq = _load_showcase()
    ok, why = validate_mbarred(seq)
    assert ok, why
    assert (seq.m, seq.k, seq.n) == (3, 6, 4)
    assert classify(seq) == CELL_STAR_ONLY


def test_showcase_mutations_are_diagnosed():
    seq = _load_showcase()
    # a bar may never stand at the end
    moved = MBarredSequence(seq.m, seq.k, seq.n, seq.elements[1:] + seq.elements[:1])
    ok, why = validate_mbarred(moved)
    assert not ok and why.startswith("last-element")
    # two blue bars in a row must descend: |b2 |b3 is illegal
    swapped = (seq.elements[1], seq.elements[0]) + seq.elements[2:]
    ok, why = validate_mbarred(MBarredSequence(seq.m, seq.k, seq.n, swapped))
    assert not ok and why.startswith("bar-adjacency")


def test_validation_rejects_reused_element():
    dup = MBarredSequence(
        0, 1, 1,
        (CallanPair(frozenset({1}), frozenset({1})),
         Bar(RED, 0),
         CallanPair(frozenset({1}), frozenset(), True)),
    )
    ok, why = validate_mbarred(dup)
    assert not ok and "blue-partition" in why


def test_validation_rejects_wrong_bar_multiset():
    seq = MBarredSequence(
        1, 0, 0,
        (Bar(RED, 0), CallanPair(frozenset(), frozenset(), True)),
    )
    ok, why = validate_mbarred(seq)
    assert not ok and why.startswith("bar-multiset")


def test_classify_cells_partition():
    for (k, n, m) in [(2, 1, 0), (2, 2, 0), (1, 1, 1), (2, 2, 1)]:
        cells = {CELL_RSTAR_NONEMPTY: 0, CELL_STAR_ONLY: 0, CELL_BARRED_MAX: 0}
        for s in enumerate_mbarred(k, n, m):
            cells[classify(s)] += 1
        assert sum(cells.values()) == count_mbarred(k, n, m)


def test_star_only_empty_when_no_blue():
    # with no blue elements every ordinary red block is impossible to
    # balance, so the extra red block soaks up everything
    for n in range(1, 4):
        for m in range(0, 3):
            assert all(s.extra.red for s in enumerate_mbarred(0, n, m))


def test_barred_max_empty_when_no_red():
    for k in range(1, 4):
        for m in range(0, 3):
            assert not any(
                in_barred_max_subset(s) for s in enumerate_mbarred(k, 0, m)
            )


def test_swap_colors_involution_and_image():
    for (k, n, m) in [(2, 1, 0), (1, 2, 1), (2, 2, 1)]:
        pool = list(enumerate_mbarred(k, n, m))
        swapped = [swap_colors(s) for s in pool]
        assert {(s.k, s.n) for s in swapped} == {(n, k)}
        assert set(swapped) == set(enumerate_mbarred(n, k, m))
        assert [swap_colors(s) for s in swapped] == pool


def test_dumont_encoding_bijective():
    # pure bar sequences with m bars of each color encode permutations of 1..2m
    for m in range(0, 4):
        seqs = list(enumerate_mbarred(0, 0, m))
        perms = [mbarred_to_dumont(s) for s in seqs]
        assert len(set(perms)) == len(perms)
        assert set(perms) == set(enumerate_dumont(2 * m))
        for s, p in zip(seqs, perms):
            assert dumont_to_mbarred(p) == s


def test_dumont_encoding_needs_pure_bars():
    seq = next(iter(enumerate_mbarred(1, 1, 1)))
    with pytest.raises(DomainError):
        mbarred_to_dumont(seq)


def test_json_roundtrip_exhaustive_small():
    for (k, n, m) in [(2, 1, 0), (1, 1, 1), (0, 0, 2)]:
        for s in enumerate_mbarred(k, n, m):
            assert from_json_dict(to_json_dict(s)) == s


def test_canonical_json_bytes_stable():
    seq = MBarredSequence(
        0, 1, 1,
        (Bar(RED, 0),
         CallanPair(frozenset({1}), frozenset({1})),
         CallanPair(frozenset(), frozenset(), True)),
    )
    assert canonical_json(seq) == (
        '{"m":0,"k":1,"n":1,"elements":['
        '{"bar":{"color":"red","label":0}},'
        '{"pair":{"blue":[1],"red":[1],"extra":false}},'
        '{"pair":{"blue":[],"red":[],"extra":true}}]}'
    )


def test_from_json_rejects_malformed():
    with pytest.raises(ValueError):
        from_json_dict({"m": 0, "k": 1})
    with pytest.raises(ValueError):
        from_json_dict({"m": 0, "k": 0, "n": 0, "elements": [{"what": {}}]})


def test_from_json_rejects_intermediates():
    seq = _load_showcase()
    data = to_json_dict(seq)
    data["intermediate"] = True
    with pytest.raises(ValueError):
        from_json_dict(data)


@settings(max_examples=30)
@given(st.sampled_from(sorted(enumerate_mbarred(2, 2, 1), key=canonical_json)))
def test_json_roundtrip_sampled(seq):
    assert from_json_dict(json.loads(canonical_json(seq))) == seq
