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
from typing import Iterator, Union

from .errors import ConsistencyError, DomainError

__all__ = [
    "BLUE",
    "RED",
    "Bar",
    "CallanPair",
    "CallanSequence",
    "MBarredSequence",
    "BarredCallanSequence",
    "DumontPermutation",
    "CELL_RSTAR_NONEMPTY",
    "CELL_STAR_ONLY",
    "CELL_BARRED_MAX",
    "validate_mbarred",
    "validate_dumont",
    "enumerate_callan",
    "enumerate_mbarred",
    "enumerate_dumont",
    "count_mbarred",
    "bar_arrangements",
    "classify",
    "has_barred_blue_singleton",
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
class MBarredSequence:
    """An m-barred Callan sequence with k blue and n red elements."""

    m: int
    k: int
    n: int
    elements: tuple[Element, ...]

    def pairs(self) -> tuple[CallanPair, ...]:
        return tuple(e for e in self.elements if isinstance(e, CallanPair))

    def bars(self) -> tuple[Bar, ...]:
        return tuple(e for e in self.elements if isinstance(e, Bar))

    @property
    def extra(self) -> CallanPair:
        last = self.elements[-1]
        if not isinstance(last, CallanPair) or not last.is_extra:
            raise DomainError("sequence does not end with the extra pair")
        return last

    def blue_base(self) -> frozenset[int]:
        return frozenset(range(self.m + 1, self.m + self.k + 1))

    def red_base(self) -> frozenset[int]:
        return frozenset(range(self.m + 1, self.m + self.n + 1))

    def __str__(self) -> str:
        return "".join(str(e) for e in self.elements)


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
# validation
# ---------------------------------------------------------------------------


def _may_follow(prev: Bar, nxt: Element) -> bool:
    """Bar adjacency rule: blue wants a strictly smaller bar label next,
    red wants a pair or a strictly greater bar label next."""
    if prev.color == BLUE:
        return isinstance(nxt, Bar) and nxt.label < prev.label
    return isinstance(nxt, CallanPair) or nxt.label > prev.label


def validate_mbarred(seq: MBarredSequence) -> tuple[bool, str]:
    """Check every defining rule; returns (ok, reason) where reason names
    the first violated rule.  The "last bar of a run is red" fact is a
    consequence of bar adjacency and needs no separate check."""
    if seq.m < 0 or seq.k < 0 or seq.n < 0:
        return False, "sizes: m, k, n must be nonnegative"
    if not seq.elements:
        return False, "last-element: sequence is empty"
    bars = seq.bars()
    blue_labels = sorted(b.label for b in bars if b.color == BLUE)
    red_labels = sorted(b.label for b in bars if b.color == RED)
    if blue_labels != list(range(1, seq.m + 1)):
        return False, f"bar-multiset: blue labels {blue_labels} != 1..{seq.m}"
    if red_labels != list(range(0, seq.m + 1)):
        return False, f"bar-multiset: red labels {red_labels} != 0..{seq.m}"
    last = seq.elements[-1]
    if not isinstance(last, CallanPair):
        return False, "last-element: a bar stands at the end"
    if not last.is_extra:
        return False, "last-element: final pair is not the extra pair"
    pairs = seq.pairs()
    if sum(1 for p in pairs if p.is_extra) != 1:
        return False, "extra-pair: exactly one extra pair required"
    for i, e in enumerate(seq.elements):
        if isinstance(e, Bar):
            nxt = seq.elements[i + 1]  # a bar is never last here
            if not _may_follow(e, nxt):
                return False, f"bar-adjacency: {e} may not be followed by {nxt}"
    for p in pairs:
        if not p.is_extra and (not p.blue or not p.red):
            return False, f"empty-ordinary-block: {p}"
    for color, base in ((BLUE, seq.blue_base()), (RED, seq.red_base())):
        blocks = [getattr(p, color) for p in pairs]
        seen: set[int] = set()
        for blk in blocks:
            if blk & seen:
                return False, f"{color}-partition: element reused across blocks"
            seen |= blk
        if seen != base:
            return False, (
                f"{color}-partition: union {sorted(seen)} != base {sorted(base)}"
            )
    return True, "ok"


def _require_mbarred(
    seq: MBarredSequence, what: str, outside=None, error=DomainError
) -> MBarredSequence:
    """Return seq if it is a valid m-barred sequence in the set that
    `outside` describes (a predicate that returns why a valid sequence lies
    outside the set, or None); else raise `error` with "what (reason)".
    Callers raise DomainError for what they accept and ConsistencyError for
    what they emit."""
    ok, why = validate_mbarred(seq)
    if ok and outside is not None:
        why = outside(seq)
        ok = why is None
    if not ok:
        raise error(f"{what} ({why})")
    return seq


def validate_dumont(perm: DumontPermutation) -> tuple[bool, str]:
    n = len(perm.values)
    if n % 2:
        return False, "length must be even"
    if sorted(perm.values) != list(range(1, n + 1)):
        return False, f"values must be a permutation of 1..{n}"
    for i, v in enumerate(perm.values):
        last = i == n - 1
        if v % 2 == 0:
            if last or perm.values[i + 1] > v:
                return False, f"even value {v} at position {i + 1} must start a descent"
        else:
            if not last and perm.values[i + 1] < v:
                return False, f"odd value {v} at position {i + 1} must start an ascent"
    return True, "ok"


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _nonempty_subsets_lex(avail: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Nonempty subsets of a sorted tuple, as sorted tuples in lex order."""

    def rec(prefix: tuple[int, ...], start: int) -> Iterator[tuple[int, ...]]:
        for i in range(start, len(avail)):
            cur = prefix + (avail[i],)
            yield cur
            yield from rec(cur, i + 1)

    return rec((), 0)


def _ordered_partitions(
    avail: tuple[int, ...], blocks: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Ordered tuples of `blocks` disjoint nonempty subsets of avail,
    lexicographic in the tuple-of-sorted-tuples representation."""
    if blocks == 0:
        yield ()
        return
    for first in _nonempty_subsets_lex(avail):
        chosen = set(first)
        rest = tuple(x for x in avail if x not in chosen)
        for tail in _ordered_partitions(rest, blocks - 1):
            yield (first,) + tail


def enumerate_callan(k: int, n: int, shift: int = 0) -> Iterator[CallanSequence]:
    """All Callan sequences with k blue / n red elements over shifted base
    sets, in canonical order: ordinary-pair count ascending, then
    lexicographic on the ordered blue partition, then on the red one."""
    if k < 0 or n < 0:
        raise ValueError("sizes must be nonnegative")
    blue_base = tuple(range(shift + 1, shift + k + 1))
    red_base = tuple(range(shift + 1, shift + n + 1))
    for r in range(0, min(k, n) + 1):
        for blue_parts in _ordered_partitions(blue_base, r):
            blue_used = set().union(*blue_parts) if blue_parts else set()
            extra_blue = frozenset(x for x in blue_base if x not in blue_used)
            for red_parts in _ordered_partitions(red_base, r):
                red_used = set().union(*red_parts) if red_parts else set()
                extra_red = frozenset(x for x in red_base if x not in red_used)
                pairs = tuple(
                    CallanPair(frozenset(b), frozenset(rd))
                    for b, rd in zip(blue_parts, red_parts)
                ) + (CallanPair(extra_blue, extra_red, is_extra=True),)
                yield CallanSequence(k, n, shift, pairs)


@lru_cache(maxsize=None)
def bar_arrangements(m: int, runs: int) -> tuple[tuple[tuple[Bar, ...], ...], ...]:
    """All ways to distribute the 2m+1 labelled bars of an m-barred sequence
    into `runs` ordered runs (one run immediately before each pair), each run
    internally satisfying the adjacency rules and ending with a red bar.

    Runs are independent because a pair separates consecutive runs.
    Backtracking order: a run is closed before it is extended; candidate
    bars are tried ascending by (label, blue before red).
    """
    pool = sorted(
        [Bar(BLUE, i) for i in range(1, m + 1)] + [Bar(RED, i) for i in range(m + 1)],
        key=lambda b: (b.label, b.color != BLUE),
    )
    results: list[tuple[tuple[Bar, ...], ...]] = []
    current: list[list[Bar]] = [[] for _ in range(runs)]
    used = [False] * len(pool)

    def rec(run_idx: int, remaining: int) -> None:
        if run_idx == runs:
            if remaining == 0:
                results.append(tuple(tuple(r) for r in current))
            return
        run = current[run_idx]
        if not run or run[-1].color == RED:
            rec(run_idx + 1, remaining)
        for i, bar in enumerate(pool):
            if used[i]:
                continue
            if run and not _may_follow(run[-1], bar):
                continue
            used[i] = True
            run.append(bar)
            rec(run_idx, remaining - 1)
            run.pop()
            used[i] = False

    rec(0, len(pool))
    return tuple(results)


def enumerate_mbarred(k: int, n: int, m: int) -> Iterator[MBarredSequence]:
    """All m-barred Callan sequences with k blue / n red elements, canonical
    order: underlying Callan sequence first, then bar placement."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    for cs in enumerate_callan(k, n, shift=m):
        for runs in bar_arrangements(m, len(cs.pairs)):
            elements: list[Element] = []
            for run, pair in zip(runs, cs.pairs):
                elements.extend(run)
                elements.append(pair)
            yield MBarredSequence(m, k, n, tuple(elements))


@lru_cache(maxsize=None)
def count_mbarred(k: int, n: int, m: int) -> int:
    """Number of m-barred sequences, counted from the enumeration itself
    (Callan sequences stream by; each contributes the number of enumerated
    bar placements for its pair count).  No closed formula is used."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return sum(
        len(bar_arrangements(m, len(cs.pairs))) for cs in enumerate_callan(k, n, shift=m)
    )


def enumerate_dumont(length: int) -> Iterator[DumontPermutation]:
    """Dumont permutations of the first kind of the given even length, in
    lexicographic order."""
    if length < 0 or length % 2:
        raise ValueError("Dumont permutations have even length")
    values = list(range(1, length + 1))
    chosen: list[int] = []
    used = [False] * (length + 1)

    def rec() -> Iterator[DumontPermutation]:
        i = len(chosen)
        if i == length:
            if length == 0 or chosen[-1] % 2 == 1:
                yield DumontPermutation(tuple(chosen))
            return
        for v in values:
            if used[v]:
                continue
            if chosen:
                prev = chosen[-1]
                if prev % 2 == 0 and v > prev:
                    continue
                if prev % 2 == 1 and v < prev:
                    continue
            used[v] = True
            chosen.append(v)
            yield from rec()
            chosen.pop()
            used[v] = False

    return rec()


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

CELL_RSTAR_NONEMPTY = "R*-nonempty"
CELL_STAR_ONLY = "star-only"
CELL_BARRED_MAX = "star-only-barred-max-singleton"


def has_barred_blue_singleton(seq: MBarredSequence, label: int) -> bool:
    """True if `label` forms a singleton blue block of an ordinary pair and
    at least one bar stands immediately before that pair."""
    target = frozenset({label})
    for i, e in enumerate(seq.elements):
        if isinstance(e, CallanPair) and not e.is_extra and e.blue == target:
            return i > 0 and isinstance(seq.elements[i - 1], Bar)
    return False


def in_barred_max_subset(seq: MBarredSequence) -> bool:
    """Star-only extra red block, and the maximal blue element is a barred
    ordinary singleton."""
    return not seq.extra.red and has_barred_blue_singleton(seq, seq.m + seq.k)


def in_barred_min_subset(seq: MBarredSequence) -> bool:
    """Star-only extra red block, and the minimal blue element is a barred
    ordinary singleton."""
    return not seq.extra.red and has_barred_blue_singleton(seq, seq.m + 1)


def classify(seq: MBarredSequence) -> str:
    """Which cell of the three-way split the sequence belongs to: nonempty
    extra red block / star-only / star-only with the maximal blue element a
    barred ordinary singleton.  The cells are disjoint and exhaustive."""
    if seq.extra.red:
        return CELL_RSTAR_NONEMPTY
    if has_barred_blue_singleton(seq, seq.m + seq.k):
        return CELL_BARRED_MAX
    return CELL_STAR_ONLY


# ---------------------------------------------------------------------------
# structural encodings
# ---------------------------------------------------------------------------


def swap_colors(seq: MBarredSequence) -> MBarredSequence:
    """Exchange blue and red blocks in every pair (bars untouched).  The
    red base of the input is the blue base of the output, so labels carry
    over unchanged; sizes k and n trade places.  An involution."""
    elements = tuple(
        CallanPair(e.red, e.blue, e.is_extra) if isinstance(e, CallanPair) else e
        for e in seq.elements
    )
    return MBarredSequence(seq.m, seq.n, seq.k, elements)


def mbarred_to_barred(seq: MBarredSequence) -> BarredCallanSequence:
    """For m = 0: re-read the single red bar labelled 0 as an unlabelled bar."""
    if seq.m != 0:
        raise DomainError("only 0-barred sequences have a single-bar display form")
    _require_mbarred(seq, "mbarred_to_barred: invalid input")
    position = 0
    for e in seq.elements:
        if isinstance(e, Bar):
            break
        position += 1
    pairs = seq.pairs()
    return BarredCallanSequence(
        CallanSequence(seq.k, seq.n, 0, pairs), bar_position=position
    )


def barred_to_mbarred(barred: BarredCallanSequence) -> MBarredSequence:
    """Inverse of mbarred_to_barred: label the bar |r0."""
    pairs = barred.sequence.pairs
    if not 0 <= barred.bar_position < len(pairs):
        raise DomainError("bar position must precede some pair (never at the end)")
    elements: list[Element] = []
    for i, p in enumerate(pairs):
        if i == barred.bar_position:
            elements.append(Bar(RED, 0))
        elements.append(p)
    seq = MBarredSequence(0, barred.sequence.k, barred.sequence.n, tuple(elements))
    return _require_mbarred(seq, "barred_to_mbarred: invalid input")


def mbarred_to_dumont(seq: MBarredSequence) -> DumontPermutation:
    """For k = n = 0: drop the forced trailing red bar |r m and the extra
    pair, then read blue |i as 2i and red |i as 2i+1."""
    if seq.k != 0 or seq.n != 0:
        raise DomainError("the Dumont encoding applies to sequences without pair content")
    _require_mbarred(seq, "mbarred_to_dumont: invalid input")
    body = seq.elements[:-2]
    values = tuple(
        2 * e.label if e.color == BLUE else 2 * e.label + 1
        for e in body  # type: ignore[union-attr]
    )
    return DumontPermutation(values)


def dumont_to_mbarred(perm: DumontPermutation) -> MBarredSequence:
    """Inverse of mbarred_to_dumont."""
    ok, why = validate_dumont(perm)
    if not ok:
        raise DomainError(why)
    m = len(perm.values) // 2
    elements: list[Element] = [
        Bar(BLUE, v // 2) if v % 2 == 0 else Bar(RED, (v - 1) // 2) for v in perm.values
    ]
    elements.append(Bar(RED, m))
    elements.append(CallanPair(frozenset(), frozenset(), is_extra=True))
    seq = MBarredSequence(m, 0, 0, tuple(elements))
    return _require_mbarred(seq, "dumont_to_mbarred: bad image", error=ConsistencyError)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------
#
# One codec serves MBarredSequence and the psi-b intermediate of
# bijections: both are (m, k, n, elements), and an intermediate carries the
# marker "intermediate": true between n and elements.  The key order is part
# of the format, because the canonical form is compared byte for byte.

_SEQUENCE_KEYS = frozenset({"m", "k", "n", "elements"})
_INTERMEDIATE_KEYS = _SEQUENCE_KEYS | {"intermediate"}
_INT = frozenset({int})


def _element_to_json(e: Element) -> dict:
    if isinstance(e, Bar):
        return {"bar": {"color": e.color, "label": e.label}}
    return {
        "pair": {
            "blue": sorted(e.blue),
            "red": sorted(e.red),
            "extra": e.is_extra,
        }
    }


def _element_from_json(d) -> Element:
    # A dict of the documented size whose documented keys all hold
    # acceptable values has no other key: .get gives None for a missing
    # key, and no check accepts None.
    if isinstance(d, dict) and len(d) == 1:
        bar, pair = d.get("bar"), d.get("pair")
        if isinstance(bar, dict) and len(bar) == 2:
            color, label = bar.get("color"), bar.get("label")
            if color in (BLUE, RED) and type(label) is int:  # not bool
                return Bar(color, label)
        elif isinstance(pair, dict) and len(pair) == 3:
            blue, red, extra = pair.get("blue"), pair.get("red"), pair.get("extra")
            if (
                type(extra) is bool
                and isinstance(blue, list)
                and isinstance(red, list)
                and _INT.issuperset(map(type, blue + red))  # not bool
            ):
                blue_block, red_block = frozenset(blue), frozenset(red)
                if len(blue_block) == len(blue) and len(red_block) == len(red):
                    return CallanPair(blue_block, red_block, extra)
    raise ValueError(
        f"malformed element {d!r}: expected "
        '{"bar": {"color": "blue" or "red", "label": integer}} or '
        '{"pair": {"blue": [integers], "red": [integers], "extra": true or false}}'
        " with no integer repeated within a block"
    )


def _to_wire(obj, intermediate: bool) -> dict:
    out = {"m": obj.m, "k": obj.k, "n": obj.n}
    if intermediate:
        out["intermediate"] = True
    out["elements"] = [_element_to_json(e) for e in obj.elements]
    return out


def _from_wire(data, intermediate: bool) -> tuple[int, int, int, tuple[Element, ...]]:
    """Parse the wire form strictly into (m, k, n, elements).  These are
    shape checks only: the maps validate the combinatorial rules on what
    they accept or emit."""
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
    return data["m"], data["k"], data["n"], tuple(map(_element_from_json, elements))


def to_json_dict(seq: MBarredSequence) -> dict:
    return _to_wire(seq, intermediate=False)


def from_json_dict(data: dict) -> MBarredSequence:
    return MBarredSequence(*_from_wire(data, intermediate=False))


def canonical_json(seq: MBarredSequence) -> str:
    """Bit-exact canonical serialization: fixed key order, no whitespace,
    blocks ascending."""
    return json.dumps(to_json_dict(seq), separators=(",", ":"))
