"""Callan sequences, their bar-decorated generalization, and Dumont
permutations of the first kind.

Vocabulary
----------
A Callan sequence with k blue and n red elements is an ordered list of
pairs (B_1,R_1)...(B_r,R_r)(B*,R*): the blue blocks partition the blue base
set plus a blue star, the red blocks partition the red base set plus a red
star, the stars live in the final "extra" pair, and ordinary blocks are
nonempty.  Stars are implicit here: the extra pair stores only the
non-star members of its blocks.  Base sets may be shifted: with shift m
they are {m+1..m+k} and {m+1..m+n}.

An m-barred sequence decorates the pairs of a shift-m Callan sequence with
m blue bars labelled 1..m and m+1 red bars labelled 0..m, interleaved so
that

* a blue bar is immediately followed by a bar with a strictly smaller
  label, and
* a red bar is immediately followed by a pair, or by a bar with a strictly
  greater label.

Comparisons use labels only, ignoring color (equal labels can therefore
never be adjacent).  Consequently no bar can stand last, the final element
is the extra pair, and the last bar of every maximal bar run is red.
validate_packed states these rules once, on the packed form below, which
this module alone turns into objects and back (pack, unpack, _checked).

A Dumont permutation of the first kind has even length, every even value
starts a descent, and every odd value starts an ascent or stands last.
Replacing a blue bar labelled i by 2i and a red bar labelled i by 2i+1
turns bar runs into exactly these descent/ascent patterns, which is what
connects the two families.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Union

from .errors import ConsistencyError, DomainError

__all__ = [
    "BLUE",
    "RED",
    "Bar",
    "CallanPair",
    "CallanSequence",
    "MBarredSequence",
    "PsiIntermediate",
    "BarredCallanSequence",
    "DumontPermutation",
    "CELL_RSTAR_NONEMPTY",
    "CELL_STAR_ONLY",
    "CELL_BARRED_MAX",
    "validate_mbarred",
    "validate_packed",
    "validate_dumont",
    "enumerate_callan",
    "enumerate_mbarred",
    "enumerate_packed",
    "Packed",
    "Slot",
    "pack",
    "unpack",
    "packed_lines",
    "enumerate_dumont",
    "count_mbarred",
    "bar_arrangements",
    "marks",
    "packed_marks",
    "cell_of",
    "classify",
    "in_barred_max_subset",
    "in_barred_min_subset",
    "swap_colors",
    "mbarred_to_barred",
    "barred_to_mbarred",
    "mbarred_to_dumont",
    "dumont_to_mbarred",
    "to_json_dict",
    "from_json_dict",
    "canonical_json",
]

BLUE = "blue"
RED = "red"


# ---------------------------------------------------------------------------
# data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Bar:
    """A labelled bar.  color is "blue" or "red"."""

    color: str
    label: int

    def __str__(self) -> str:
        return f"|{self.color[0]}{self.label}"


@dataclass(frozen=True)
class CallanPair:
    """One (blue block, red block) pair.  Stars are implicit: the extra
    pair stores only the non-star members of its blocks."""

    blue: frozenset[int]
    red: frozenset[int]
    is_extra: bool = False

    def _block(self, members: frozenset[int], starred: bool) -> str:
        parts = [str(x) for x in sorted(members)]
        if starred:
            parts.append("*")
        return "{" + ",".join(parts) + "}"

    def __str__(self) -> str:
        return (
            f"({self._block(self.blue, self.is_extra)},"
            f"{self._block(self.red, self.is_extra)})"
        )


Element = Union[Bar, CallanPair]


@dataclass(frozen=True)
class CallanSequence:
    """A bare (unbarred) Callan sequence; pairs end with the extra pair."""

    k: int
    n: int
    shift: int
    pairs: tuple[CallanPair, ...]

    def __str__(self) -> str:
        return "".join(str(p) for p in self.pairs)


@dataclass(frozen=True)
class _Barred:
    """The shape of an m-barred sequence and of a psi-b intermediate, which
    never equal each other: equality compares the class too.  An object
    that unpack makes without a memo, as the wire reader and the public
    maps do, keeps its packed form and builds `elements` the first time it
    is read; pack returns that form and the writers write from it."""

    m: int
    k: int
    n: int
    elements: tuple[Element, ...]

    def __getattr__(self, name: str):
        # reached only for an attribute that is not set: the elements of an
        # object that is kept packed, until they are first read
        packed = self.__dict__.get("_packed")
        if name != "elements" or packed is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        elements = tuple(map(_element, _keys(packed[3])))
        object.__setattr__(self, "elements", elements)
        return elements

    def __str__(self) -> str:
        return "".join(str(e) for e in self.elements)


@dataclass(frozen=True)
class MBarredSequence(_Barred):
    """An m-barred Callan sequence with k blue and n red elements."""

    @property
    def extra(self) -> CallanPair:
        last = self.elements[-1] if self.elements else None
        if not isinstance(last, CallanPair) or not last.is_extra:
            raise DomainError("sequence does not end with the extra pair")
        return last


@dataclass(frozen=True)
class PsiIntermediate(_Barred):
    """Output of psi_b / input of psi_r.  Carries the original sizes
    (m, k, n) of the psi domain; the element list already contains the new
    blue bar labelled m+1 and a nonempty extra red block."""


@dataclass(frozen=True)
class BarredCallanSequence:
    """Display form with a single unlabelled bar: the bar sits immediately
    before pair number bar_position (0-based), never after the last pair."""

    sequence: CallanSequence
    bar_position: int

    def __str__(self) -> str:
        out = []
        for i, p in enumerate(self.sequence.pairs):
            if i == self.bar_position:
                out.append("|")
            out.append(str(p))
        return "".join(out)


@dataclass(frozen=True)
class DumontPermutation:
    """A permutation of 1..2n in one-line notation."""

    values: tuple[int, ...]

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.values)


# ---------------------------------------------------------------------------
# packed form
# ---------------------------------------------------------------------------
#
# The enumerator, the map cores of bijections and the harness work on one
# packed form, (m, k, n, slots), built from ints and tuples only, so that
# hashing and comparing it never calls back into Python.  A sequence's
# elements cut into one slot per pair: (run, blue, red), where run is the
# tuple of the bar codes standing immediately before the pair (2*label for
# a blue bar, 2*label + 1 for a red one, which is the Dumont reading) and
# blue and red are the pair's blocks as bitmasks (bit x for member x).  The
# last slot holds the extra pair.  The psi-b intermediate packs the same
# way.  At the boundary the packed form is what objects are made from: the
# wire reader (_from_wire) checks the JSON and builds the slots in one walk,
# and the public maps (_checked) and the counterexamples of reports unpack.
# Such an object keeps its slots, and its Bar and CallanPair elements are
# built only when they are read; the writers write its text from the
# slots.  enumerate_mbarred builds its elements at once, each distinct one
# once per call, and a map's image of such an object does too (_checked).
# pack holds an object of any shape, so that validate_packed can name the
# rule it breaks: a slot whose blocks are None follows a pair whose extra
# flag does not fit its place, and holds the bars after the last pair.
# Wire input of such a shape, or with a block member outside 0..2**20-1,
# is built from elements, and pack reads it as it reads any object.

Slot = tuple[tuple[int, ...], int, int]
Packed = tuple[int, int, int, tuple[Slot, ...]]


def _members(mask: int) -> list[int]:
    """The members of a block bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _bar(code: int) -> Bar:
    return Bar(RED if code & 1 else BLUE, code >> 1)


def _pair(blue, red, is_extra: bool) -> CallanPair:
    """The pair of two blocks, each a bitmask, or a frozenset where the
    wire reader met a member that no bitmask holds (_wire_block)."""
    return CallanPair(_block_set(blue), _block_set(red), is_extra)


def _block_set(block) -> frozenset[int]:
    return block if isinstance(block, frozenset) else frozenset(_members(block))


class _Memo(dict):
    """key -> value, made by make(key) on first use."""

    def __init__(self, make) -> None:
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _element(key) -> Element:
    """The element of a key: a bar code, or (blue, red, is_extra)."""
    return _bar(key) if isinstance(key, int) else _pair(*key)


def _keys(slots: tuple[Slot, ...]) -> Iterator:
    """The _element keys of packed slots in element order: each run's bar
    codes, then its pair's (blue, red, is_extra), the extra pair last."""
    last = len(slots) - 1
    for i, (run, blue, red) in enumerate(slots):
        yield from run
        yield blue, red, i == last


def unpack(packed: Packed, cls=MBarredSequence, memo: _Memo | None = None):
    """The object of a packed sequence, or of a packed intermediate when
    `cls` is PsiIntermediate.  Without `memo` the object keeps `packed` and
    builds its elements when they are first read.  With one, a _Memo of
    _element, the elements are built now and each is looked up there, so a
    caller that keeps it builds each once; one seeded with an object's
    elements under their keys reuses them."""
    m, k, n, slots = packed
    if memo is None:
        obj = object.__new__(cls)
        obj.__dict__.update(m=m, k=k, n=n, _packed=packed)
        return obj
    return cls(m, k, n, tuple(map(memo.__getitem__, _keys(slots))))


# Sizes and block members of a packed object stay below this, so that no
# mask or shift in the cores needs more than 128 KB.
_PACKED_LIMIT = 1 << 20


def _mask(block: frozenset[int], what: str) -> int:
    mask = 0
    for x in block:
        if x < 0:
            raise DomainError(f"{what}: block member {x} is negative")
        if x >= _PACKED_LIMIT:
            raise DomainError(f"{what}: block member {x} is out of range")
        mask |= 1 << x
    return mask


def pack(obj, what: str) -> Packed:
    """The packed form of a sequence or of a psi-b intermediate, of any
    shape (see above): the one it keeps, if unpack made it.  A block member
    that is negative or not below 2**20 has no bit that fits and is refused
    with DomainError, named by `what`."""
    kept = obj.__dict__.get("_packed")
    if kept is not None:
        return kept
    slots = []
    run: list[int] = []
    for i, e in enumerate(obj.elements, 1 - len(obj.elements)):  # i == 0 at the end
        if isinstance(e, Bar):
            run.append(2 * e.label + (e.color == RED))
            continue
        slots.append((tuple(run), _mask(e.blue, what), _mask(e.red, what)))
        run = []
        if e.is_extra == bool(i):  # an extra pair before the end, or an ordinary one at it
            slots.append(((), None, None))
    if run:
        slots.append((tuple(run), None, None))
    return obj.m, obj.k, obj.n, tuple(slots)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def _successors(code: int, top: int) -> range:
    """The bar codes in 1..top that may follow the bar `code` in a run: a
    blue bar (even code) wants a smaller label next, a red bar (odd code) a
    greater one.  Only a red bar may end a run, before its pair."""
    return range(code + 1, top + 1) if code & 1 else range(1, code)


def _size_rule(m: int, k: int, n: int) -> str | None:
    """Why the sizes break the packed form's limit, or None: each size, and
    m + max(k, n), the largest block member, must lie in 0..2**20-1."""
    if not (0 <= m < _PACKED_LIMIT and 0 <= k < _PACKED_LIMIT and 0 <= n < _PACKED_LIMIT):
        return f"sizes: m, k, n must lie in 0..{_PACKED_LIMIT - 1}"
    if m + max(k, n) >= _PACKED_LIMIT:
        return f"sizes: m + max(k, n) must lie in 0..{_PACKED_LIMIT - 1}"
    return None


def validate_packed(seq: Packed) -> tuple[bool, str]:
    """Check every defining rule on the packed form, the one statement of
    the rules; returns (ok, reason) where reason names the first rule seq
    breaks, the size limit (_size_rule) first.  No list or mask is built
    from a size past it, and a reason names the first stray or missing
    member, not whole sets, so work and reason are bounded by the elements,
    not by the sizes they claim.  A run's last bar is red by adjacency."""
    why = _size_rule(*seq[:3]) or _broken_rule(seq)
    return (False, why) if why else (True, "ok")


def _broken_rule(seq: Packed) -> str | None:
    """The first rule but the size limit that seq breaks, or None."""
    m, k, n, slots = seq
    if not slots:
        return "last-element: sequence is empty"
    runs, blues, reds = zip(*slots)
    codes = sorted(chain.from_iterable(runs))
    if len(codes) != 2 * m + 1 or codes != list(range(1, 2 * m + 2)):
        for color, first in ((BLUE, 1), (RED, 0)):  # blue codes are even, red ones odd
            labels = [code >> 1 for code in codes if code & 1 != first]
            if len(labels) != m + 1 - first or labels != list(range(first, m + 1)):
                why = _range_mismatch(labels, first, m + 1 - first)
                return f"bar-multiset: {color} label {why}, labels {first}..{m}"
    if blues[-1] is None:
        return "last-element: " + (
            "a bar stands at the end" if runs[-1] else "final pair is not the extra pair"
        )
    if None in blues:
        return "extra-pair: exactly one extra pair required"
    for i, run in enumerate(runs):
        for code, nxt in zip(run, run[1:]):
            if nxt not in _successors(code, 2 * m + 1):
                return f"bar-adjacency: {_bar(code)} may not be followed by {_bar(nxt)}"
        if run and not run[-1] & 1:
            pair = _pair(blues[i], reds[i], i == len(runs) - 1)
            return f"bar-adjacency: {_bar(run[-1])} may not be followed by {pair}"
    for blue, red in zip(blues[:-1], reds[:-1]):
        if not blue or not red:
            return f"empty-ordinary-block: {_pair(blue, red, False)}"
    for color, size, blocks in ((BLUE, k, blues), (RED, n, reds)):
        seen = 0
        for block in blocks:
            if block & seen:
                return f"{color}-partition: element reused across blocks"
            seen |= block
        if seen != ((1 << size) - 1) << (m + 1):
            why = _range_mismatch(_members(seen), m + 1, size)
            return f"{color}-partition: member {why}, base {m + 1}..{m + size}"
    return None


def validate_mbarred(seq: MBarredSequence) -> tuple[bool, str]:
    """validate_packed on the packed form of seq.  A block member that the
    packed form cannot hold is refused first, as "partition: block member"."""
    try:
        return validate_packed(pack(seq, "partition"))
    except DomainError as exc:  # from pack: validate_packed raises nothing
        return False, str(exc)


def _range_mismatch(members: list[int], first: int, size: int) -> str:
    """Why the sorted ints `members` are not first..first+size-1, each
    once: the smallest member that is stray (outside that range or
    repeated) or missing.  The work is bounded by len(members), however
    large size is."""
    for x, want in zip(members, range(first, first + size)):
        if x != want:
            return f"{x} is stray" if x < want else f"{want} is missing"
    if len(members) > size:
        return f"{members[size]} is stray"
    return f"{first + len(members)} is missing"


def _require_mbarred(seq: Packed, what: str, outside=None, error=DomainError) -> Packed:
    """Return seq, a packed sequence, if it is valid and in the set that
    `outside` describes (a set predicate of bijections: it takes the marks
    of a valid sequence and returns why it lies outside the set, or None);
    else raise `error` with "what (reason)".  Callers raise DomainError for
    what they accept and ConsistencyError for what they emit."""
    ok, why = validate_packed(seq)
    if ok and outside is not None:
        why = outside(*packed_marks(seq))
        ok = why is None
    if not ok:
        raise error(f"{what} ({why})")
    return seq


def _checked(core, accepts=None, emits=None, result=MBarredSequence):
    """The public map of `core`, a map on the packed form.  The map packs
    its argument once, checks it, runs the core, checks the packed result
    and decodes it into `result` (None passes a phi case through).  The
    result keeps its packed form, unless the argument's elements are built:
    then the result's are built too, reusing the argument's where the core
    left them unchanged.  `accepts` and `emits` are (what, set) pairs: an
    argument that is no valid sequence of its set is refused with
    DomainError("what (reason)"), and such a result raises
    ConsistencyError, but for one that breaks only the size limit, whose
    argument lies at that limit: DomainError.  `emits` None leaves the
    result unchecked; `accepts` None takes an intermediate, which has no
    validator of its own, and refuses one the cores cannot take (bad
    sizes, the extra pair not last) in the name of the map.  The map's
    `with_packed` does the same and returns (packed argument, packed
    result, result), for a caller that reads the packed forms too."""
    what = core.__name__[1:]

    def with_packed(arg):
        seq = m, k, n, slots = pack(arg, what)
        if accepts:
            _require_mbarred(seq, *accepts)
        elif not 0 <= min(m, k, n) <= max(m, k, n) < _PACKED_LIMIT:
            raise DomainError(f"{what}: sizes m, k, n must lie in 0..{_PACKED_LIMIT - 1}")
        elif not slots or slots[-1][1] is None:
            raise DomainError(f"{what}: intermediate must end with the extra pair")
        elif None in [blue for _, blue, _ in slots]:
            raise DomainError(f"{what}: intermediate has an extra pair before its end")
        out = core(seq)
        if result is None:
            return seq, out, out
        if emits:
            why = _size_rule(*out[:3])
            if why and not _broken_rule(out) and emits[1](*packed_marks(out)) is None:
                raise DomainError(f"{what}: the image of this input breaks the size limit ({why})")
            _require_mbarred(out, *emits, ConsistencyError)
        if "elements" not in arg.__dict__:  # none built, none to reuse: the image stays packed
            return seq, out, unpack(out, result)
        memo = _Memo(_element)
        memo.update(zip(_keys(slots), arg.elements))  # accepted: no slot is None
        return seq, out, unpack(out, result, memo)

    def checked(arg):
        return with_packed(arg)[2]

    checked.__name__ = checked.__qualname__ = what
    checked.__doc__ = core.__doc__
    checked.with_packed = with_packed
    return checked


def validate_dumont(perm: DumontPermutation) -> tuple[bool, str]:
    n = len(perm.values)
    if n % 2:
        return False, "length must be even"
    if sorted(perm.values) != list(range(1, n + 1)):
        return False, f"values must be a permutation of 1..{n}"
    # the values are the bar codes of one run, which the red bar n + 1 closes
    closed = (*perm.values, n + 1)
    for i, v in enumerate(perm.values):
        if closed[i + 1] not in _successors(v, n + 1):
            kind, start = ("odd", "an ascent") if v % 2 else ("even", "a descent")
            return False, f"{kind} value {v} at position {i + 1} must start {start}"
    return True, "ok"


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _nonempty_subsets_lex(
    avail: tuple[int, ...], prefix: int = 0, start: int = 0
) -> Iterator[int]:
    """Nonempty subsets of avail, a tuple of one-bit masks in ascending
    order, as masks in lexicographic order of their sorted member tuples,
    each extending `prefix` by members of avail[start:]."""
    for i in range(start, len(avail)):
        cur = prefix | avail[i]
        yield cur
        yield from _nonempty_subsets_lex(avail, cur, i + 1)


def _ordered_partitions(avail: tuple[int, ...], blocks: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of `blocks` disjoint nonempty subsets of avail, as
    masks, lexicographic in the tuple-of-sorted-tuples representation."""
    if blocks == 0:
        yield ()
        return
    for first in _nonempty_subsets_lex(avail):
        rest = tuple(bit for bit in avail if not bit & first)
        for tail in _ordered_partitions(rest, blocks - 1):
            yield (first,) + tail


def _skeletons(k: int, n: int, shift: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The Callan sequences with k blue / n red elements over shifted base
    sets as (blue masks, red masks), one mask per pair and the extra
    pair's last, in canonical order: ordinary-pair count ascending, then
    lexicographic on the ordered blue partition, then on the red one."""
    if k < 0 or n < 0:
        raise ValueError("sizes must be nonnegative")
    blue_base = tuple(1 << x for x in range(shift + 1, shift + k + 1))
    red_base = tuple(1 << x for x in range(shift + 1, shift + n + 1))
    blue_all, red_all = sum(blue_base), sum(red_base)
    for r in range(min(k, n) + 1):
        # the blocks of a partition are disjoint, so their sum is their union
        reds = [p + (red_all - sum(p),) for p in _ordered_partitions(red_base, r)]
        for blue_parts in _ordered_partitions(blue_base, r):
            blues = blue_parts + (blue_all - sum(blue_parts),)
            for red in reds:
                yield blues, red


def enumerate_callan(k: int, n: int, shift: int = 0) -> Iterator[CallanSequence]:
    """All Callan sequences with k blue / n red elements over shifted base
    sets, in canonical order: ordinary-pair count ascending, then
    lexicographic on the ordered blue partition, then on the red one."""
    for blues, reds in _skeletons(k, n, shift):
        last = len(blues) - 1
        pairs = tuple(_pair(b, r, i == last) for i, (b, r) in enumerate(zip(blues, reds)))
        yield CallanSequence(k, n, shift, pairs)


@lru_cache(maxsize=None)
def bar_arrangements(m: int, runs: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All ways to distribute the 2m+1 labelled bars of an m-barred sequence
    into `runs` ordered runs (one run immediately before each pair), each run
    internally satisfying the adjacency rules and ending with a red bar:
    the arrangements of _bar_runs, kept.  This is the only cache of bar
    placements."""
    return tuple(_bar_runs(m, runs))


def _bar_runs(m: int, runs: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The arrangements of bar_arrangements(m, runs), streamed.

    Bars are bar codes, as in the packed form: a blue bar labelled i is 2i
    and a red one 2i+1, so the bars are the codes 1..2m+1, and ascending
    codes order them by (label, blue before red).  The table of which code
    may follow which is built from _successors, the rule validate_packed
    reads.

    Runs are independent because a pair separates consecutive runs.
    Backtracking order: a run is closed before it is extended; candidate
    bars are tried ascending.
    """
    if m < 0 or runs < 0:
        raise ValueError("m and runs must be nonnegative")
    top = 2 * m + 1
    # successors[c]: the codes that may follow code c; successors[0] is
    # for an empty run, which may start with any bar
    successors = [range(1, top + 1)] + [_successors(c, top) for c in range(1, top + 1)]
    current: list[list[int]] = [[] for _ in range(runs)]
    used = [False] * (top + 1)
    # The unused codes as a doubly linked list between the ends 0 and
    # top + 1: above[c] is the next unused code after c, below[c] the one
    # before it, so above[0] is the smallest unused code.
    above = list(range(1, top + 2)) + [top + 1]
    below = [0] + list(range(top + 1))

    def rec(run_idx: int, remaining: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        run = current[run_idx]
        last = run[-1] if run else 0
        # A smallest unused code that is even is a blue bar, and every
        # smaller code is placed, so nothing may ever follow it: a dead end.
        if not above[0] & 1:
            return
        if (last & 1 or not last) and run_idx + 1 < runs:  # a run ends empty or with a red bar
            yield from rec(run_idx + 1, remaining)
        for code in successors[last]:
            if not used[code]:
                used[code] = True
                above[below[code]], below[above[code]] = above[code], below[code]
                run.append(code)
                if remaining > 1:
                    yield from rec(run_idx, remaining - 1)
                elif code & 1:  # the last bar closes this run, and the later runs stay empty
                    yield tuple(map(tuple, current))
                run.pop()
                above[below[code]] = below[above[code]] = code
                used[code] = False

    if runs:  # without a run, the bars have no place
        try:
            yield from rec(0, top)
        except RecursionError:  # rec nests once per bar, before it yields anything
            raise ValueError(
                f"m = {m}: the bar search nests once per bar, and {top} bars pass "
                "Python's recursion limit"
            ) from None


def enumerate_packed(k: int, n: int, m: int) -> Iterator[Packed]:
    """All m-barred Callan sequences with k blue / n red elements in the
    packed form, canonical order: underlying Callan sequence first, then
    bar placement.  This is the one m-barred enumerator."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    for blues, reds in _skeletons(k, n, m):
        for runs in bar_arrangements(m, len(blues)):
            yield m, k, n, tuple(zip(runs, blues, reds))


def enumerate_mbarred(k: int, n: int, m: int) -> Iterator[MBarredSequence]:
    """All m-barred Callan sequences with k blue / n red elements, canonical
    order: underlying Callan sequence first, then bar placement.  The
    objects of enumerate_packed, decoded; each Bar and CallanPair is built
    once per call."""
    memo = _Memo(_element)
    for packed in enumerate_packed(k, n, m):
        yield unpack(packed, MBarredSequence, memo)


@lru_cache(maxsize=None)
def count_mbarred(k: int, n: int, m: int) -> int:
    """Number of m-barred sequences, counted from the enumeration itself:
    for each number r of ordinary pairs, the enumerated ordered blue and
    red partitions of _skeletons times the enumerated bar placements over
    r + 1 pairs.  No closed formula is used."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if k < 0 or n < 0:
        raise ValueError("sizes must be nonnegative")
    blue_base = tuple(1 << x for x in range(k))
    red_base = tuple(1 << x for x in range(n))
    total = 0
    for r in range(min(k, n) + 1):
        blues = sum(1 for _ in _ordered_partitions(blue_base, r))
        reds = sum(1 for _ in _ordered_partitions(red_base, r))
        total += blues * reds * len(bar_arrangements(m, r + 1))
    return total


def enumerate_dumont(length: int) -> Iterator[DumontPermutation]:
    """Dumont permutations of the first kind of the given even length, in
    lexicographic order: bar_arrangements(length // 2, 1) without the
    closing red bar, streamed rather than cached."""
    if length < 0 or length % 2:
        raise ValueError("Dumont permutations have even length")
    return (DumontPermutation(run[:-1]) for (run,) in _bar_runs(length // 2, 1))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------
#
# The proof splits every cell (k, n, m) three ways, and the bijections map
# between subsets of these cells.  All of them depend on five marks of a
# sequence: m, k, whether the extra red block is nonempty, and the
# barred-max and barred-min flags, which say that the sequence is star-only
# and its maximal or minimal blue element is a barred ordinary singleton.
# packed_marks reads them from a packed sequence, and marks from an object
# through its packed form; the cell rule (cell_of) and the set predicates of
# bijections are stated once, on the marks.

CELL_RSTAR_NONEMPTY = "R*-nonempty"
CELL_STAR_ONLY = "star-only"
CELL_BARRED_MAX = "star-only-barred-max-singleton"


def marks(seq: MBarredSequence) -> tuple:
    """packed_marks of a sequence object, which must end with its one extra
    pair (a slot without a pair has no blocks to read)."""
    packed = pack(seq, "marks")
    if not packed[3] or None in [blue for _, blue, _ in packed[3]]:
        raise DomainError("sequence does not end with the extra pair, its only one")
    return packed_marks(packed)


def packed_marks(seq: Packed) -> tuple:
    """The marks (m, k, extra red block nonempty, barred-max, barred-min)
    of a packed sequence.  Both flags need a star-only sequence with a blue
    element, and they coincide when there is one blue element.  One scan
    of the ordinary pairs reads both: a flag is set where its element is
    the whole blue block of a pair with a bar just before it."""
    m, k, _, slots = seq
    red = bool(slots[-1][2])
    if k == 0 or red:
        return m, k, red, False, False
    top, bottom = 1 << (m + k), 1 << (m + 1)
    barred_max = barred_min = False
    for run, blue, _ in slots[:-1]:
        if run:
            if blue == top:
                barred_max = True
            if blue == bottom:
                barred_min = True
    return m, k, red, barred_max, barred_min


def cell_of(m: int, k: int, extra_red: bool, barred_max: bool, barred_min: bool) -> str:
    """The cell rule: nonempty extra red block / star-only / star-only with
    the maximal blue element a barred ordinary singleton.  The cells are
    disjoint and exhaustive."""
    if extra_red:
        return CELL_RSTAR_NONEMPTY
    return CELL_BARRED_MAX if barred_max else CELL_STAR_ONLY


def classify(seq: MBarredSequence) -> str:
    """Which cell of the three-way split the sequence belongs to."""
    return cell_of(*marks(seq))


def in_barred_max_subset(seq: MBarredSequence) -> bool:
    """Star-only extra red block, and the maximal blue element is a barred
    ordinary singleton."""
    return marks(seq)[3]


def in_barred_min_subset(seq: MBarredSequence) -> bool:
    """Star-only extra red block, and the minimal blue element is a barred
    ordinary singleton."""
    return marks(seq)[4]


# ---------------------------------------------------------------------------
# structural encodings
# ---------------------------------------------------------------------------


def swap_colors(seq: MBarredSequence) -> MBarredSequence:
    """Exchange blue and red blocks in every pair (bars untouched).  The
    red base of the input is the blue base of the output, so labels carry
    over unchanged; sizes k and n trade places.  An involution."""
    _require_mbarred(pack(seq, "swap_colors"), "swap_colors: invalid input")
    elements = tuple(
        CallanPair(e.red, e.blue, e.is_extra) if isinstance(e, CallanPair) else e
        for e in seq.elements
    )
    return MBarredSequence(seq.m, seq.n, seq.k, elements)


def mbarred_to_barred(seq: MBarredSequence) -> BarredCallanSequence:
    """For m = 0: re-read the single red bar labelled 0 as an unlabelled bar."""
    if seq.m != 0:
        raise DomainError("only 0-barred sequences have a single-bar display form")
    _require_mbarred(pack(seq, "mbarred_to_barred"), "mbarred_to_barred: invalid input")
    position = seq.elements.index(Bar(RED, 0))  # the only bar
    pairs = seq.elements[:position] + seq.elements[position + 1 :]
    return BarredCallanSequence(CallanSequence(seq.k, seq.n, 0, pairs), position)


def barred_to_mbarred(barred: BarredCallanSequence) -> MBarredSequence:
    """Inverse of mbarred_to_barred: label the bar |r0."""
    pairs, position = barred.sequence.pairs, barred.bar_position
    if not 0 <= position < len(pairs):
        raise DomainError("bar position must precede some pair (never at the end)")
    elements = (*pairs[:position], Bar(RED, 0), *pairs[position:])
    seq = MBarredSequence(0, barred.sequence.k, barred.sequence.n, elements)
    _require_mbarred(pack(seq, "barred_to_mbarred"), "barred_to_mbarred: invalid input")
    return seq


def mbarred_to_dumont(seq: MBarredSequence) -> DumontPermutation:
    """For k = n = 0: drop the forced trailing red bar |r m and the extra
    pair, then read blue |i as 2i and red |i as 2i+1, which are the bar
    codes of the packed form."""
    if seq.k != 0 or seq.n != 0:
        raise DomainError("the Dumont encoding applies to sequences without pair content")
    packed = pack(seq, "mbarred_to_dumont")
    (run, _, _), = _require_mbarred(packed, "mbarred_to_dumont: invalid input")[3]
    return DumontPermutation(run[:-1])


def dumont_to_mbarred(perm: DumontPermutation) -> MBarredSequence:
    """Inverse of mbarred_to_dumont."""
    ok, why = validate_dumont(perm)
    if not ok:
        raise DomainError(why)
    m = len(perm.values) // 2
    packed = (m, 0, 0, ((tuple(perm.values) + (2 * m + 1,), 0, 0),))
    return unpack(_require_mbarred(packed, "dumont_to_mbarred: bad image", error=ConsistencyError))


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------
#
# One codec serves MBarredSequence and PsiIntermediate: both are (m, k, n,
# elements), and an intermediate carries the marker "intermediate": true
# between n and elements.  The writers read the marker from the class, and
# the readers build the class they are asked for; the intermediate's names
# below, which bijections exports, are the same codec.  The key order is part
# of the format, because the canonical form is compared byte for byte.  The
# text writers (_bar_wire and _pair_wire, fed from element objects by
# _element_wire and from packed slots by _key_wire and _slots_wire, then
# _wire_json and packed_lines) are the only writers of the format; the dict
# form (to_json_dict) is the parse of their text.  The reader checks the
# shape of each element once (_wire_key) and builds the packed slots.

_SEQUENCE_KEYS = frozenset({"m", "k", "n", "elements"})
_INTERMEDIATE_KEYS = _SEQUENCE_KEYS | {"intermediate"}
_INT = frozenset({int})


def _wire_key(d):
    """The _element key of one wire element, once its shape is checked: a
    bar's code, or (blue, red, extra) for a pair, with blocks from
    _wire_block.  This is the one statement of the element shape rules."""
    # A dict of the documented size whose documented keys all hold
    # acceptable values has no other key: .get gives None for a missing
    # key, and no check accepts None.
    if isinstance(d, dict) and len(d) == 1:
        bar = d.get("bar")
        if bar is not None:
            if isinstance(bar, dict) and len(bar) == 2:
                color, label = bar.get("color"), bar.get("label")
                if type(label) is int:  # not bool
                    if color == RED:
                        return 2 * label + 1
                    if color == BLUE:
                        return 2 * label
        else:
            pair = d.get("pair")
            if isinstance(pair, dict) and len(pair) == 3:
                blue, red, extra = pair.get("blue"), pair.get("red"), pair.get("extra")
                if type(extra) is bool and isinstance(blue, list) and isinstance(red, list):
                    blue, red = _wire_block(blue), _wire_block(red)
                    if blue is not None and red is not None:
                        return blue, red, extra
    raise ValueError(
        f"malformed element {d!r}: expected "
        '{"bar": {"color": "blue" or "red", "label": integer}} or '
        '{"pair": {"blue": [integers], "red": [integers], "extra": true or false}}'
        " with no integer repeated within a block"
    )


def _wire_block(members: list) -> int | frozenset[int] | None:
    """The bitmask of a block's members; their frozenset if one of them is
    an int that has no bit in the packed form (outside 0..2**20-1); None
    if one is no int (bool is none here) or one repeats."""
    mask = 0
    for x in members:
        if type(x) is not int or not 0 <= x < _PACKED_LIMIT:
            break
        mask |= 1 << x
    else:
        return mask if mask.bit_count() == len(members) else None  # a repeat sets no new bit
    if not _INT.issuperset(map(type, members)):
        return None
    block = frozenset(members)
    return block if len(block) == len(members) else None


def _bar_wire(color: str, label) -> str:
    return f'{{"bar":{{"color":"{color}","label":{label}}}}}'


# The text of the bar with code c is _BAR_WIRE[c & 1] % (c >> 1).
_BAR_WIRE = (_bar_wire(BLUE, "%d"), _bar_wire(RED, "%d"))


def _pair_wire(blue: Iterable[int], red: Iterable[int], extra: bool) -> str:
    blue, red = ",".join(map(str, blue)), ",".join(map(str, red))
    flag = "true" if extra else "false"
    return f'{{"pair":{{"blue":[{blue}],"red":[{red}],"extra":{flag}}}}}'


def _element_wire(e: Element) -> str:
    """The canonical text of one element, {"bar": {"color", "label"}} or
    {"pair": {"blue", "red", "extra"}} with blocks ascending.  Labels and
    block members are ints and the colors are BLUE or RED, so none of them
    needs escaping."""
    if isinstance(e, Bar):
        return _bar_wire(e.color, e.label)
    return _pair_wire(sorted(e.blue), sorted(e.red), e.is_extra)


def _key_wire(key) -> str:
    """_element_wire of the element of a packed key, written from its bar
    code or bitmasks without building the element."""
    if isinstance(key, int):
        return _BAR_WIRE[key & 1] % (key >> 1)
    blue, red, extra = key
    return _pair_wire(_members(blue), _members(red), extra)


def _slots_wire(slots: tuple[Slot, ...]) -> list[str]:
    """_key_wire of each key of the slots, in element order (_keys)."""
    last = len(slots) - 1
    parts = []
    for i, (run, blue, red) in enumerate(slots):
        for code in run:
            parts.append(_BAR_WIRE[code & 1] % (code >> 1))
        parts.append(_pair_wire(_members(blue), _members(red), i == last))
    return parts


def _wire_head(m: int, k: int, n: int, intermediate: bool) -> str:
    marker = '"intermediate":true,' if intermediate else ""
    return f'{{"m":{m},"k":{k},"n":{n},{marker}"elements":['


def _wire_json(obj: _Barred) -> str:
    """The canonical text of a sequence or of a psi-b intermediate: the
    keys m, k, n, the marker for an intermediate, then elements, without
    whitespace.  An object that keeps its packed form is written from it."""
    packed = obj.__dict__.get("_packed")
    parts = map(_element_wire, obj.elements) if packed is None else _slots_wire(packed[3])
    head = _wire_head(obj.m, obj.k, obj.n, isinstance(obj, PsiIntermediate))
    return f"{head}{','.join(parts)}]}}"


def packed_lines(stream: Iterable[Packed], as_json: bool) -> Iterator[str]:
    """The canonical JSON text (as canonical_json writes it) or the display
    text (as str) of each packed sequence in `stream`, written straight
    from the slots.  Each distinct bar, pair and head is rendered once per
    call, through the element writers, and then looked up; bar runs are not
    kept, since most of a bar-heavy cell's are distinct.  In JSON a
    separator follows every element but the last, which is the extra
    pair."""
    sep, text = (",", _key_wire) if as_json else ("", lambda key: str(_element(key)))
    bar = _Memo(lambda code: f"{text(code)}{sep}").__getitem__
    ordinary = _Memo(lambda blocks: f"{text((*blocks, False))}{sep}")
    extra = _Memo(lambda blocks: text((*blocks, True)))
    heads = _Memo(lambda sizes: _wire_head(*sizes, False) if as_json else "")
    tail = "]}" if as_json else ""
    for m, k, n, slots in stream:
        *body, (run, blue, red) = slots
        parts = [heads[m, k, n]]
        for r, b, d in body:
            parts += map(bar, r)
            parts.append(ordinary[b, d])
        parts += map(bar, run)
        parts += (extra[blue, red], tail)
        yield "".join(parts)


def _from_wire(data, cls: type[_Barred]) -> _Barred:
    """Parse the wire form strictly into a `cls`, MBarredSequence or
    PsiIntermediate.  These are shape checks only: the maps validate the
    combinatorial rules on what they accept or emit.  One walk checks each
    element (_wire_key) and builds the packed slots, and the object keeps
    them (unpack).  Input that the slots cannot hold (an empty element
    list, an extra pair out of place, bars after the last pair, a block
    member outside 0..2**20-1) is built from its elements instead; every
    map refuses it."""
    intermediate = cls is PsiIntermediate
    what = "intermediate object" if intermediate else "sequence object"
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(data).__name__}")
    if (data.get("intermediate") is True) != intermediate:
        raise ValueError(
            "not a psi-b intermediate object"
            if intermediate
            else "this object is a psi-b intermediate, not a barred sequence"
        )
    keys = _INTERMEDIATE_KEYS if intermediate else _SEQUENCE_KEYS
    if data.keys() != keys:
        found = sorted(data, key=str)
        raise ValueError(f"{what} has keys {found}, expected {sorted(keys)}")
    for key in ("m", "k", "n"):
        if type(data[key]) is not int:  # bool is a subclass of int
            raise ValueError(f"{key} must be an integer, not {data[key]!r}")
    elements = data["elements"]
    if not isinstance(elements, list):
        raise ValueError(f"elements must be an array, not {elements!r}")
    m, k, n = data["m"], data["k"], data["n"]
    slots, run = [], []
    last = len(elements) - 1
    for i, d in enumerate(elements):
        key = _wire_key(d)
        if type(key) is int:
            run.append(key)
            continue
        blue, red, extra = key
        if extra is not (i == last) or type(blue) is not int or type(red) is not int:
            break  # a flag out of place, or a member that no bitmask holds
        slots.append((tuple(run), blue, red))
        run = []
    else:
        if slots and not run:  # the extra pair ends the list
            return unpack((m, k, n, tuple(slots)), cls)
    return cls(m, k, n, tuple(_element(_wire_key(d)) for d in elements))


def to_json_dict(seq: MBarredSequence) -> dict:
    return json.loads(canonical_json(seq))


def from_json_dict(data: dict) -> MBarredSequence:
    return _from_wire(data, MBarredSequence)


def canonical_json(seq: MBarredSequence) -> str:
    """Bit-exact canonical serialization: fixed key order, no whitespace,
    blocks ascending.  Equal to json.dumps(to_json_dict(seq),
    separators=(",", ":"))."""
    return _wire_json(seq)


def intermediate_to_json_dict(inter: PsiIntermediate) -> dict:
    return json.loads(canonical_intermediate_json(inter))


def intermediate_from_json_dict(data: dict) -> PsiIntermediate:
    return _from_wire(data, PsiIntermediate)


def canonical_intermediate_json(inter: PsiIntermediate) -> str:
    return _wire_json(inter)
