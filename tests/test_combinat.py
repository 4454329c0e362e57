import gc
import json
import os
import pathlib
import subprocess
import sys
from collections import Counter
from dataclasses import FrozenInstanceError
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from callan import combinat
from callan.combinat import (
    BLUE,
    RED,
    Bar,
    BarredCallanSequence,
    CallanPair,
    CallanSequence,
    bar_arrangements,
    MBarredSequence,
    PsiIntermediate,
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
    enumerate_packed,
    marks,
    pack,
    packed_lines,
    packed_marks,
    unpack,
    intermediate_from_json_dict,
    intermediate_to_json_dict,
)
from callan.errors import DomainError
from callan.numbers import genocchi

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


def may_follow(prev, bar):
    """The adjacency rule of the module docstring, on Bar objects: a blue
    bar is followed by a bar with a strictly smaller label, a red bar by a
    bar with a strictly greater one (or by a pair, which closes the run)."""
    if prev.color == BLUE:
        return bar.label < prev.label
    return bar.label > prev.label


def backtrack_bar_arrangements(m, runs):
    """Oracle for bar_arrangements: the same backtracking on Bar objects,
    testing every bar of the pool with may_follow at every step, with
    each arrangement written in bar codes (2 * label, plus 1 for red) at
    the end.  Same order: a run is closed before it is extended, and
    candidates are tried ascending by (label, blue before red)."""
    pool = sorted(
        [Bar(BLUE, i) for i in range(1, m + 1)] + [Bar(RED, i) for i in range(m + 1)],
        key=lambda b: (b.label, b.color != BLUE),
    )
    results = []
    current = [[] for _ in range(runs)]
    used = [False] * len(pool)

    def rec(run_idx, remaining):
        if run_idx == runs:
            if remaining == 0:
                results.append(tuple(
                    tuple(2 * bar.label + (bar.color == RED) for bar in r) for r in current
                ))
            return
        run = current[run_idx]
        if not run or run[-1].color == RED:
            rec(run_idx + 1, remaining)
        for i, bar in enumerate(pool):
            if used[i] or (run and not may_follow(run[-1], bar)):
                continue
            used[i] = True
            run.append(bar)
            rec(run_idx, remaining - 1)
            run.pop()
            used[i] = False

    rec(0, len(pool))
    return tuple(results)


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
    assert validate_dumont(DumontPermutation((2, 1, 4, 4))) == (
        False, "values must be a permutation of 1..4"
    )


def test_pure_bar_counts():
    assert [count_mbarred(0, 0, m) for m in range(6)] == [1, 1, 3, 17, 155, 2073]


def test_count_one_one_one():
    assert count_mbarred(1, 1, 1) == 5


@pytest.mark.parametrize("k,n,m", [(1, 1, -1), (0, 0, -2), (3, 0, -1)])
def test_count_refuses_negative_m_like_enumeration(k, n, m):
    for count_or_enumerate in (count_mbarred, lambda *c: list(enumerate_mbarred(*c))):
        with pytest.raises(ValueError, match="m must be nonnegative"):
            count_or_enumerate(k, n, m)


def test_enumeration_leaves_no_cyclic_garbage():
    # what the enumerator drops is freed by reference counting alone, so
    # the cyclic collector finds nothing and takes no pauses for it
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        assert sum(1 for _ in enumerate_callan(4, 4)) == 6902
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("m,runs", [(-1, 2), (0, -1), (-1, -1)])
def test_bar_arrangements_refuses_negative_sizes(m, runs):
    cached = bar_arrangements.cache_info().currsize
    with pytest.raises(ValueError, match="must be nonnegative"):
        bar_arrangements(m, runs)
    assert bar_arrangements.cache_info().currsize == cached  # refusals are not cached


# m <= 5 and runs <= 4, as far as 2m + 1 bars plus runs stay within 12:
# (5, 4) alone has 1,216,176 arrangements and takes the oracle a minute.
@pytest.mark.parametrize(
    "m,runs",
    [(m, runs) for m in range(6) for runs in range(5) if 2 * m + 1 + runs <= 12],
)
def test_bar_arrangements_match_backtracking_oracle(m, runs):
    assert bar_arrangements(m, runs) == backtrack_bar_arrangements(m, runs)


def test_bar_search_cuts_dead_ends():
    # a smallest unused bar that is blue can never be followed, so its
    # branch is cut: 80,072 searches at (4, 2) without the cut.  A search
    # is a generator, which raises a "call" event on every resumption, so
    # its distinct frames are counted; each is kept, so no id is reused.
    frames = {}

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_name == "rec":
            frames[id(frame)] = frame

    bar_arrangements.cache_clear()
    sys.setprofile(count)
    try:
        found = bar_arrangements(4, 2)
    finally:
        sys.setprofile(None)
    assert len(found) == 2228
    assert len(frames) < 30_000


@pytest.mark.parametrize("m", range(7))
def test_one_run_arrangements_count_genocchi(m):
    # one run of all 2m+1 bars reads as a Dumont permutation of length 2m
    # followed by the red bar m, so there are |G_{2m+2}| of them
    assert len(bar_arrangements(m, 1)) == abs(genocchi(2 * m + 2))


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


def _bare(m: int, k: int, n: int) -> MBarredSequence:
    """The bar |r0 and an empty extra pair, under the claimed sizes."""
    return MBarredSequence(m, k, n, (Bar(RED, 0), CallanPair(frozenset(), frozenset(), True)))


@pytest.mark.parametrize("m,k,n,rule", [
    (0, 1048575, 0, "blue-partition"),
    (0, 0, 1048575, "red-partition"),
    (1048575, 0, 0, "bar-multiset"),
])
def test_validation_is_bounded_by_the_elements_not_the_claimed_sizes(m, k, n, rule):
    import tracemalloc

    seq = _bare(m, k, n)
    assert len(canonical_json(seq)) < 130
    tracemalloc.start()
    try:
        ok, why = validate_mbarred(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not ok and why.startswith(rule)
    assert len(why) < 200
    assert peak < 5 * 2**20


@pytest.mark.parametrize("m,k,n", [
    (1, 2**20 - 1, 0), (1, 0, 2**20 - 1), (2**19, 2**19, 0), (2**20 - 1, 1, 1),
])
def test_validation_bounds_the_largest_block_member(m, k, n):
    # block members run up to m + max(k, n), and the packed form holds
    # members below 2**20, so every valid sequence packs; the cases of the
    # test above, at m + max(k, n) = 2**20 - 1, pass this rule
    assert validate_mbarred(_bare(m, k, n)) == (
        False, "sizes: m + max(k, n) must lie in 0..1048575"
    )


@pytest.mark.parametrize("bars,reason", [
    ("b1 r0 r1 r2", "bar-multiset: blue label 2 is missing, labels 1..2"),
    ("b1 b1 b2 r0 r1 r2", "bar-multiset: blue label 1 is stray, labels 1..2"),
    ("b3 b1 b2 r0 r1 r2", "bar-multiset: blue label 3 is stray, labels 1..2"),
    ("b1 b2 r0 r0 r1 r2", "bar-multiset: red label 0 is stray, labels 0..2"),
    ("b1 b2 r1 r2", "bar-multiset: red label 0 is missing, labels 0..2"),
    # the bars are right; "*" is a second empty extra pair, "()" an empty ordinary one
    ("b2 b1 r0 * r1 r2", "extra-pair: exactly one extra pair required"),
    ("b2 b1 r0 () r1 r2", "empty-ordinary-block: ({},{})"),
])
def test_validation_names_the_first_stray_or_missing_label(bars, reason):
    empty = frozenset()
    pairs = {"*": CallanPair(empty, empty, True), "()": CallanPair(empty, empty)}
    elements = tuple(
        pairs[b] if b in pairs else Bar(BLUE if b[0] == "b" else RED, int(b[1:]))
        for b in bars.split()
    )
    seq = MBarredSequence(2, 0, 0, elements + (pairs["*"],))
    assert validate_mbarred(seq) == (False, reason)


@pytest.mark.parametrize("blue,reason", [
    ({1, 3}, "blue-partition: member 2 is missing, base 1..2"),
    ({1, 2, 3}, "blue-partition: member 3 is stray, base 1..2"),
    ({1}, "blue-partition: member 2 is missing, base 1..2"),
    ({0, 1, 2}, "blue-partition: member 0 is stray, base 1..2"),
])
def test_validation_names_the_first_stray_or_missing_member(blue, reason):
    seq = MBarredSequence(0, 2, 0, (Bar(RED, 0), CallanPair(frozenset(blue), frozenset(), True)))
    assert validate_mbarred(seq) == (False, reason)


def test_validation_refuses_a_block_member_the_packed_form_cannot_hold():
    seq = MBarredSequence(0, 1, 0, (Bar(RED, 0), CallanPair(frozenset({-1}), frozenset(), True)))
    assert validate_mbarred(seq) == (False, "partition: block member -1 is negative")


def test_classify_cells_partition():
    for (k, n, m) in [(2, 1, 0), (2, 2, 0), (1, 1, 1), (2, 2, 1)]:
        cells = {CELL_RSTAR_NONEMPTY: 0, CELL_STAR_ONLY: 0, CELL_BARRED_MAX: 0}
        for s in enumerate_mbarred(k, n, m):
            cells[classify(s)] += 1
        assert sum(cells.values()) == count_mbarred(k, n, m)


def test_cell_predicates_refuse_an_empty_sequence():
    seq = from_json_dict({"m": 0, "k": 0, "n": 0, "elements": []})
    for predicate in (classify, in_barred_min_subset, in_barred_max_subset):
        with pytest.raises(DomainError, match="does not end with the extra pair"):
            predicate(seq)
    # nor one with a second extra pair, before its end
    extra = CallanPair(frozenset(), frozenset(), True)
    seq = MBarredSequence(0, 1, 0, (extra, Bar(RED, 0), CallanPair(frozenset({1}), frozenset(), True)))
    for predicate in (classify, in_barred_min_subset, in_barred_max_subset):
        with pytest.raises(DomainError, match="does not end with the extra pair, its only one"):
            predicate(seq)


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


def test_swap_colors_refuses_an_invalid_input():
    # no red bar 0 stands anywhere; swapped, the sequence would still lack it
    seq = MBarredSequence(0, 1, 1, (CallanPair(frozenset({5}), frozenset(), True),))
    assert validate_mbarred(seq) == (False, "bar-multiset: red label 0 is missing, labels 0..0")
    with pytest.raises(DomainError, match=r"^swap_colors: invalid input \(bar-multiset: red"):
        swap_colors(seq)


_PAIR = CallanPair(frozenset({1}), frozenset({1, 2}), True)
_PAIR_REPR = "CallanPair(blue=frozenset({1}), red=frozenset({1, 2}), is_extra=True)"
_ELEMENTS_REPR = f"elements=(Bar(color='red', label=0), {_PAIR_REPR})"
# One object of each class of the object model: the class, its fields by
# name, and its repr as the frozen dataclasses of earlier versions printed it.
_VALUES = [
    (Bar, {"color": "red", "label": 1}, "Bar(color='red', label=1)"),
    (CallanPair, {"blue": frozenset({1}), "red": frozenset(), "is_extra": False},
     "CallanPair(blue=frozenset({1}), red=frozenset(), is_extra=False)"),
    (CallanSequence, {"k": 1, "n": 2, "shift": 0, "pairs": (_PAIR,)},
     f"CallanSequence(k=1, n=2, shift=0, pairs=({_PAIR_REPR},))"),
    *[(cls, {"m": 0, "k": 1, "n": 2, "elements": (Bar(RED, 0), _PAIR)},
       f"{cls.__name__}(m=0, k=1, n=2, {_ELEMENTS_REPR})")
      for cls in (combinat._Barred, MBarredSequence, PsiIntermediate)],
    (BarredCallanSequence, {"sequence": CallanSequence(1, 2, 0, (_PAIR,)), "bar_position": 0},
     f"BarredCallanSequence(sequence=CallanSequence(k=1, n=2, shift=0, pairs=({_PAIR_REPR},)), "
     "bar_position=0)"),
    (DumontPermutation, {"values": (2, 1)}, "DumontPermutation(values=(2, 1))"),
]


@pytest.mark.parametrize("cls, fields, _", _VALUES, ids=[cls.__name__ for cls, _, _ in _VALUES])
def test_both_object_classes_stay_frozen(cls, fields, _):
    # the shared base refuses every name, fields and others alike, for
    # every class, whether it defines attributes of its own or not
    obj = cls(*fields.values())
    for name in (*fields, "anything"):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, 1)
        with pytest.raises(FrozenInstanceError):
            delattr(obj, name)
    assert obj == cls(*fields.values())


def test_object_classes_keep_the_value_semantics_of_frozen_dataclasses():
    objects = []
    for cls, fields, text in _VALUES:
        values = tuple(fields.values())
        obj = cls(*values)
        assert repr(obj) == text
        assert hash(obj) == hash(values)  # so sets of objects keep their order
        assert obj == cls(**fields) == cls(*values[:1], **dict(list(fields.items())[1:]))
        assert obj != values and values != obj
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(*values, anything=None)
        with pytest.raises(TypeError):
            cls(*values, **{next(iter(fields)): values[0]})
        objects.append(obj)
    # objects of distinct classes never compare equal, even with equal fields
    for a, b in combinations(objects, 2):
        assert a != b and b != a
    assert CallanPair(blue=frozenset(), red=frozenset()).is_extra is False
    assert CallanPair(frozenset(), frozenset()) == CallanPair(frozenset(), frozenset(), False)
    with pytest.raises(TypeError):
        CallanPair(frozenset())


@pytest.mark.parametrize("cls, read, write", [
    (MBarredSequence, from_json_dict, to_json_dict),
    (PsiIntermediate, intermediate_from_json_dict, intermediate_to_json_dict),
], ids=["MBarredSequence", "PsiIntermediate"])
def test_an_object_kept_packed_equals_and_hashes_like_one_built_from_elements(cls, read, write):
    built = cls(0, 1, 2, (Bar(RED, 0), _PAIR))
    kept = read(write(built))
    assert "elements" not in kept.__dict__  # the reader keeps the packed form
    assert kept == built and built == kept
    assert hash(kept) == hash(built) == hash((0, 1, 2, (Bar(RED, 0), _PAIR)))
    assert repr(kept) == repr(built)
    other = PsiIntermediate if cls is MBarredSequence else MBarredSequence
    assert kept != unpack(pack(built, "test"), other)


# Run in a fresh interpreter: the modules combinat imports are loaded first,
# so that only code that the import of combinat itself executes from a
# string is counted.  A dataclass decorator executes such code for every
# method it makes.
_EXEC_COUNTER = """
import argparse, collections, dataclasses, fractions, functools, itertools, json, sys, typing

generated = 0

def hook(event, args):
    global generated
    if event == "exec" and getattr(args[0], "co_filename", None) == "<string>":
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_filename.replace("\\\\", "/").endswith("callan/combinat.py"):
                generated += 1
                break
            frame = frame.f_back

sys.addaudithook(hook)
import callan.cli
print(generated)
"""


def test_importing_the_object_model_executes_no_generated_code():
    package = str(pathlib.Path(combinat.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (package, os.environ.get("PYTHONPATH")))
    ))
    done = subprocess.run([sys.executable, "-c", _EXEC_COUNTER], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0\n"


def test_dumont_encoding_bijective():
    # pure bar sequences with m bars of each color encode permutations of 1..2m
    for m in range(0, 4):
        seqs = list(enumerate_mbarred(0, 0, m))
        perms = [mbarred_to_dumont(s) for s in seqs]
        assert len(set(perms)) == len(perms)
        assert set(perms) == set(enumerate_dumont(2 * m))
        for s, p in zip(seqs, perms):
            assert dumont_to_mbarred(p) == s


@pytest.mark.parametrize("m", range(6))
def test_dumont_permutations_are_the_one_run_arrangements_in_order(m):
    # the same list, in the same order: each one-run arrangement without
    # its closing red bar m, read as values
    runs = [run[:-1] for (run,) in bar_arrangements(m, 1)]
    assert [p.values for p in enumerate_dumont(2 * m)] == runs


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


def _weight_at_most(w):
    """Every m-barred sequence of weight k + n + 2m <= w."""
    for k in range(w + 1):
        for n in range(w + 1 - k):
            for m in range((w - k - n) // 2 + 1):
                yield from enumerate_mbarred(k, n, m)


def _dumps(data):
    return json.dumps(data, separators=(",", ":"))


def test_canonical_json_is_json_dumps_of_the_dict_form():
    seqs = list(_weight_at_most(6))
    assert len(seqs) == 2192
    for seq in seqs:
        assert canonical_json(seq) == _dumps(to_json_dict(seq))


def test_canonical_json_with_two_digit_labels():
    # blocks sort as integers, not as strings: 9 before 10 before 12
    seq = MBarredSequence(
        11, 3, 2,
        (Bar(BLUE, 11), Bar(RED, 10),
         CallanPair(frozenset({12, 9, 10}), frozenset({13})),
         Bar(RED, 11),
         CallanPair(frozenset(), frozenset({12}), True)),
    )
    assert canonical_json(seq) == _dumps(to_json_dict(seq))
    assert '"blue":[9,10,12]' in canonical_json(seq)


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


# The packed form: the enumerator, the map cores and the harness work on
# it, and objects are built from it only at the boundary.


def _packed_weight_at_most(w):
    for k in range(w + 1):
        for n in range(w + 1 - k):
            for m in range((w - k - n) // 2 + 1):
                yield from enumerate_packed(k, n, m)


def test_packed_form_round_trips_through_objects():
    packed = list(_packed_weight_at_most(6))
    objects = list(_weight_at_most(6))
    assert [unpack(p) for p in packed] == objects
    assert [pack(s, "test") for s in objects] == packed
    assert len(set(packed)) == len(packed) == 2192


def _barred_singletons(seq):
    """The blue elements that form the whole blue block of an ordinary pair
    with a bar standing immediately before it, read from the definition."""
    out = set()
    for before, e in zip((None,) + seq.elements, seq.elements):
        if isinstance(e, CallanPair) and not e.is_extra and isinstance(before, Bar):
            if len(e.blue) == 1:
                out |= e.blue
    return out


def test_marks_read_the_barred_singletons_on_both_forms():
    # the flags of marks and packed_marks, the cell rule and the subset
    # predicates against the definition: the maximal (minimal) blue element
    # m + k (m + 1) is a barred singleton of a star-only sequence
    seen = Counter()
    for seq in _weight_at_most(6):
        red = seq.extra.red
        singles = set() if red else _barred_singletons(seq)
        barred_max, barred_min = seq.m + seq.k in singles, seq.m + 1 in singles
        assert marks(seq) == (seq.m, seq.k, bool(red), barred_max, barred_min)
        assert packed_marks(pack(seq, "test")) == marks(seq)
        assert in_barred_max_subset(seq) == barred_max
        assert in_barred_min_subset(seq) == barred_min
        cell = CELL_RSTAR_NONEMPTY if red else CELL_BARRED_MAX if barred_max else CELL_STAR_ONLY
        assert classify(seq) == cell
        seen[cell, barred_max, barred_min] += 1
    assert sum(seen.values()) == 2192
    # every cell occurs, and each flag without the other
    assert {cell for cell, _, _ in seen} == {CELL_RSTAR_NONEMPTY, CELL_STAR_ONLY, CELL_BARRED_MAX}
    assert seen[CELL_BARRED_MAX, True, False] and seen[CELL_STAR_ONLY, False, True]


def test_packed_lines_write_the_objects_text():
    seqs = list(_weight_at_most(6)) + [_load_showcase()]
    packed = [pack(s, "test") for s in seqs]
    assert list(packed_lines(packed, True)) == [canonical_json(s) for s in seqs]
    assert list(packed_lines(packed, False)) == [str(s) for s in seqs]
