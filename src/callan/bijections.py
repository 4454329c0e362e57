"""The two structural bijections on m-barred Callan sequences.

The maps work on slots.  A sequence's elements cut into one slot per
pair: the run of bars standing immediately before the pair (possibly
empty) and the pair itself.  The last slot holds the extra pair.  A map
moves, merges or splits slots and replaces blocks, then flattens the
slots back into elements, giving the extra pair its new red block.

phi trades the maximal red element mu = m+n for a new maximal blue element
m+k+1: it maps sequences whose extra red block is nonempty, with k blue
and n red elements, onto sequences with k+1 blue and n-1 red elements
whose extra red block is star-only, except those where the new maximal
blue element is a barred ordinary singleton.  The extra red block always
ends up empty, and the move depends on where mu sat:

* A1, alone in the extra block: the first slot's pair gains the new blue
  element;
* A2, with companions in the extra block: they form a pair with the new
  blue element, in a slot without bars at the front;
* B1, as an ordinary singleton: mu's slot launches to the front with the
  old extra red block as its red block, and the pair that followed it
  gains the new blue element;
* B2, with companions in an ordinary block: the blue block launches to
  the front with the slot's bar run and the old extra red block, while
  the companions stay behind under the new blue element, without bars.

psi retires the minimal blue and the minimal red element to a fresh pair
of labelled bars, raising the bar parameter: it maps star-only sequences
whose minimal blue element is a barred ordinary singleton, with k blue
and n red elements, onto all (m+1)-barred sequences with k-1 blue and n-1
red elements.  It factors as psi_r after psi_b:

* psi_b merges the slot (w1, ({m+1}, R)), whose bar run w1 is nonempty,
  with the slot (w2, p) after it into (w2 + |b(m+1) + w1, p), and R
  becomes the extra red block;
* psi_r appends a red bar labelled m+1 to the bar run of the slot whose
  pair holds the minimal red element m+1; if that pair is ordinary, the
  rest of its red block becomes the extra red block and the old extra red
  block takes its place.

Between the two stages lives an intermediate that already carries the new
blue bar but still has n red elements and a nonempty extra red block.  It
violates the bar grammar on purpose and is its own type; the slot
decomposition refuses one that does not end with the extra pair.

relabel_max_min exchanges the maximal and minimal blue element labels and
carries the barred-max-singleton subset onto the barred-min-singleton one
(an involution), which is what feeds phi's excluded subset into psi.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinat import (
    BLUE,
    RED,
    Bar,
    CallanPair,
    Element,
    MBarredSequence,
    _from_wire,
    _require_mbarred,
    _to_wire,
    _wire_json,
    in_barred_max_subset,
    in_barred_min_subset,
)
from .errors import ConsistencyError, DomainError

__all__ = [
    "phi_domain",
    "phi_image",
    "psi_domain",
    "psi_image",
    "relabel_domain",
    "PsiIntermediate",
    "phi_case",
    "phi",
    "phi_inverse_case",
    "phi_inverse",
    "relabel_max_min",
    "psi_b",
    "psi_r",
    "psi",
    "psi_r_inverse",
    "psi_b_inverse",
    "psi_inverse",
    "intermediate_to_json_dict",
    "intermediate_from_json_dict",
    "canonical_intermediate_json",
]


@dataclass(frozen=True)
class PsiIntermediate:
    """Output of psi_b / input of psi_r.  Carries the original sizes
    (m, k, n) of the psi domain; the element list already contains the new
    blue bar labelled m+1 and a nonempty extra red block."""

    m: int
    k: int
    n: int
    elements: tuple[Element, ...]

    def __str__(self) -> str:
        return "".join(str(e) for e in self.elements)


# ---------------------------------------------------------------------------
# the sets the maps run between: each predicate takes a valid sequence and
# returns why it lies outside its set, or None.  The public maps check what
# they accept and emit against them (_checked), and the harness certifies
# their unvalidating cores (_phi, _psi, ...) over exactly them.
# ---------------------------------------------------------------------------


def phi_domain(seq: MBarredSequence) -> str | None:
    """phi's domain: the extra red block is nonempty."""
    return None if seq.extra.red else "the extra red block is empty"


def phi_image(seq: MBarredSequence) -> str | None:
    """phi's image: at least one blue element, a star-only extra red block,
    and a maximal blue element that is no barred ordinary singleton."""
    if seq.k < 1:
        return "no blue elements present"
    if seq.extra.red:
        return "the extra red block is not star-only"
    if in_barred_max_subset(seq):
        return "the maximal blue element is a barred ordinary singleton"
    return None


def psi_domain(seq: MBarredSequence) -> str | None:
    """psi's domain: the barred-min-singleton subset."""
    if in_barred_min_subset(seq):
        return None
    return "the minimal blue element is no barred singleton of a star-only sequence"


def psi_image(seq: MBarredSequence) -> str | None:
    """psi's image: every sequence with at least one blue bar (m >= 1)."""
    return None if seq.m >= 1 else "no red bar with a positive label"


def relabel_domain(seq: MBarredSequence) -> str | None:
    """relabel_max_min's domain, which is also its image: the union of the
    barred-max-singleton and the barred-min-singleton subsets."""
    if in_barred_max_subset(seq) or in_barred_min_subset(seq):
        return None
    return "no extreme blue element is a barred singleton of a star-only sequence"


def _checked(core, accepts=None, emits=None):
    """The public map of `core`.  `accepts` and `emits` are (what, set)
    pairs: an argument that is no valid sequence of its set is refused with
    DomainError("what (reason)") before the core runs, and such an output
    raises ConsistencyError.  None leaves that side unchecked."""

    def checked(arg):
        if accepts:
            _require_mbarred(arg, *accepts)
        out = core(arg)
        if emits:
            _require_mbarred(out, *emits, ConsistencyError)
        return out

    checked.__name__ = checked.__qualname__ = core.__name__[1:]
    checked.__doc__ = core.__doc__
    return checked


# ---------------------------------------------------------------------------
# slots: (bar run, pair)
# ---------------------------------------------------------------------------

_Slot = tuple[tuple[Bar, ...], CallanPair]


def _slots(elements: tuple[Element, ...], what: str) -> list[_Slot]:
    """Cut elements into slots.  Only an intermediate can fail to end with
    the extra pair, and it is refused as outside the domain of `what`."""
    slots: list[_Slot] = []
    run: list[Bar] = []
    for e in elements:
        if isinstance(e, Bar):
            run.append(e)
        else:
            slots.append((tuple(run), e))
            run = []
    if run or not slots or not slots[-1][1].is_extra:
        raise DomainError(f"{what}: intermediate must end with the extra pair")
    return slots


def _elements(slots: list[_Slot], extra_red: frozenset[int]) -> tuple[Element, ...]:
    """Flatten slots back into elements; the extra pair gets `extra_red`."""
    *body, (run, extra) = slots
    out = [e for bars, pair in body for e in (*bars, pair)]
    return (*out, *run, CallanPair(extra.blue, extra_red, True))


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------


def _phi_case(seq: MBarredSequence) -> str:
    """Which of the four phi moves applies: A1/A2 when the maximal red
    element sits in the extra block (alone with the star / accompanied),
    B1/B2 when it sits in an ordinary block (as a singleton / with others)."""
    extra = seq.extra
    mu = seq.m + seq.n
    if mu in extra.red:
        return "A1" if extra.red == {mu} else "A2"
    owner = next(p for p in seq.pairs() if mu in p.red)  # an ordinary pair
    return "B1" if owner.red == {mu} else "B2"


def _phi(seq: MBarredSequence) -> MBarredSequence:
    """Remove the maximal red element mu = m+n, add the new maximal blue
    element m+k+1, and rearrange so the move is invertible."""
    case = _phi_case(seq)
    mu = seq.m + seq.n
    new_blue = seq.m + seq.k + 1
    slots = _slots(seq.elements, "phi")
    extra = slots[-1][1]
    if case == "A1":
        run, first = slots[0]
        slots[0] = (run, CallanPair(first.blue | {new_blue}, first.red, first.is_extra))
    elif case == "A2":
        slots.insert(0, ((), CallanPair(frozenset({new_blue}), extra.red - {mu})))
    else:
        i = next(j for j, (_, p) in enumerate(slots) if mu in p.red)
        run, pair = slots[i]
        if case == "B1":
            del slots[i]
            after_run, after = slots[i]
            slots[i] = (
                after_run,
                CallanPair(after.blue | {new_blue}, after.red, after.is_extra),
            )
        else:
            slots[i] = ((), CallanPair(frozenset({new_blue}), pair.red - {mu}))
        slots.insert(0, (run, CallanPair(pair.blue, extra.red)))
    return MBarredSequence(seq.m, seq.k + 1, seq.n - 1, _elements(slots, frozenset()))


def _phi_inverse_case(seq: MBarredSequence) -> str:
    """Recover the phi move from an image element: the new maximal blue
    element sits in the first pair iff the move was A1/A2 and forms an
    ordinary singleton iff the move was A2/B2."""
    top = seq.m + seq.k
    pairs = seq.pairs()
    q_i = next(j for j, p in enumerate(pairs) if top in p.blue)
    q = pairs[q_i]
    alone = not q.is_extra and q.blue == {top}
    if q_i == 0:
        return "A2" if alone else "A1"
    return "B2" if alone else "B1"


def _phi_inverse(seq: MBarredSequence) -> MBarredSequence:
    """Undo phi: remove the maximal blue element, restore mu = m+n of the
    preimage, and put any launched slot back in place."""
    case = _phi_inverse_case(seq)
    top = seq.m + seq.k
    mu = seq.m + seq.n + 1
    slots = _slots(seq.elements, "phi_inverse")
    q_i = next(j for j, (_, p) in enumerate(slots) if top in p.blue)
    run, q = slots[q_i]
    if case in ("A1", "B1"):
        slots[q_i] = (run, CallanPair(q.blue - {top}, q.red, q.is_extra))
    if case == "A1":
        extra_red = frozenset({mu})
    else:
        lead, first = slots.pop(0)  # the slot phi launched to the front
        if case == "A2":
            extra_red = q.red | {mu}  # first is q, which has no bars
        else:
            extra_red = first.red
            if case == "B1":
                slots.insert(q_i - 1, (lead, CallanPair(first.blue, frozenset({mu}))))
            else:  # B2: phi_image leaves q without bars
                slots[q_i - 1] = (lead, CallanPair(first.blue, q.red | {mu}))
    return MBarredSequence(seq.m, seq.k - 1, seq.n + 1, _elements(slots, extra_red))


_PHI_IN = ("phi: input outside phi's domain", phi_domain)
_PHI_INV_IN = ("phi_inverse: input outside phi's image", phi_image)
phi_case = _checked(_phi_case, _PHI_IN)
phi = _checked(_phi, _PHI_IN, ("phi: bad image", phi_image))
phi_inverse_case = _checked(_phi_inverse_case, _PHI_INV_IN)
phi_inverse = _checked(_phi_inverse, _PHI_INV_IN, ("phi_inverse: bad image", phi_domain))


# ---------------------------------------------------------------------------
# relabelling between the barred-max and barred-min singleton subsets
# ---------------------------------------------------------------------------


def _relabel_max_min(seq: MBarredSequence) -> MBarredSequence:
    """Exchange the maximal and minimal blue element labels everywhere.
    Maps the barred-max-singleton subset onto the barred-min-singleton one
    and back; an involution (the identity when k = 1)."""
    hi, lo = seq.m + seq.k, seq.m + 1
    if hi == lo:
        return seq

    def swap(x: int) -> int:
        return lo if x == hi else hi if x == lo else x

    elements = tuple(
        CallanPair(frozenset(swap(x) for x in e.blue), e.red, e.is_extra)
        if isinstance(e, CallanPair)
        else e
        for e in seq.elements
    )
    return MBarredSequence(seq.m, seq.k, seq.n, elements)


relabel_max_min = _checked(
    _relabel_max_min,
    ("relabel_max_min: input outside its domain", relabel_domain),
    ("relabel_max_min: bad image", relabel_domain),
)


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------


def _psi_b(seq: MBarredSequence) -> PsiIntermediate:
    """First psi stage: the pair ({m+1}, R) dissolves.  Its left bar run w1
    (nonempty by the domain condition) and right bar run w2 swap around a
    new blue bar labelled m+1, and R moves into the extra red block."""
    label = seq.m + 1
    slots = _slots(seq.elements, "psi_b")
    i = next(j for j, (_, p) in enumerate(slots) if label in p.blue)
    (w1, pair), (w2, after) = slots[i : i + 2]
    slots[i : i + 2] = [(w2 + (Bar(BLUE, label),) + w1, after)]
    return PsiIntermediate(seq.m, seq.k, seq.n, _elements(slots, pair.red))


def psi_r(inter: PsiIntermediate) -> MBarredSequence:
    """Second psi stage: the minimal red element m+1 of the intermediate
    becomes a red bar labelled m+1 standing before its old pair; block
    contents rotate so the extra block ends up star-only exactly when m+1
    lived in an ordinary block whose leftovers replace it.

    The output is not validated: the psi_r worked examples carry blue
    blocks that are no partition, so an intermediate that is no psi_b image
    can give an invalid sequence.  psi and `callan map --which psi-r`
    validate what it returns."""
    label = inter.m + 1
    slots = _slots(inter.elements, "psi_r")
    extra = slots[-1][1]
    if label in extra.red:
        i, pair, extra_red = len(slots) - 1, extra, extra.red - {label}
    else:
        i = next(
            (j for j, (_, p) in enumerate(slots) if not p.is_extra and label in p.red),
            None,
        )
        if i is None:
            raise DomainError(f"psi_r: red element {label} not present in any block")
        if not extra.red:
            raise DomainError("psi_r: intermediate extra red block may not be empty here")
        old = slots[i][1]
        pair, extra_red = CallanPair(old.blue, extra.red), old.red - {label}
    slots[i] = (slots[i][0] + (Bar(RED, label),), pair)
    elements = _elements(slots, extra_red)
    return MBarredSequence(inter.m + 1, inter.k - 1, inter.n - 1, elements)


def _psi(seq: MBarredSequence) -> MBarredSequence:
    """Retire the minimal blue and minimal red elements to labelled bars:
    a bijection onto all (m+1)-barred sequences one size smaller."""
    return psi_r(_psi_b(seq))


def _psi_r_inverse(seq: MBarredSequence) -> PsiIntermediate:
    """Undo psi_r: the red bar with maximal label m_t dissolves back into a
    red block element (it always ends the bar run of its slot)."""
    label = seq.m
    bar = Bar(RED, label)
    slots = _slots(seq.elements, "psi_inverse")
    i = next(j for j, (run, _) in enumerate(slots) if run[-1:] == (bar,))
    run, pair = slots[i]
    extra = slots[-1][1]
    if pair.is_extra:
        extra_red = extra.red | {label}
    else:
        pair, extra_red = CallanPair(pair.blue, extra.red | {label}), pair.red
    slots[i] = (run[:-1], pair)
    elements = _elements(slots, extra_red)
    return PsiIntermediate(seq.m - 1, seq.k + 1, seq.n + 1, elements)


def _psi_b_inverse(inter: PsiIntermediate) -> MBarredSequence:
    """Undo psi_b: the slot whose bar run holds the blue bar labelled m+1
    splits there; the run w2 before the bar and the run w1 after it
    (nonempty) swap back, flanking a restored pair ({m+1}, R) where R is
    the intermediate's extra red block."""
    label = inter.m + 1
    bar = Bar(BLUE, label)
    slots = _slots(inter.elements, "psi_inverse")
    i = next((j for j, (run, _) in enumerate(slots) if bar in run), None)
    if i is None:
        raise DomainError(f"psi_inverse: no blue bar labelled {label}")
    run, after = slots[i]
    cut = run.index(bar)
    w2, w1 = run[:cut], run[cut + 1 :]
    if not w1:
        raise DomainError("psi_inverse: the blue bar must be followed by a bar")
    red = slots[-1][1].red
    if not red:
        raise DomainError("psi_inverse: intermediate extra red block is empty")
    slots[i : i + 1] = [(w1, CallanPair(frozenset({label}), red)), (w2, after)]
    return MBarredSequence(inter.m, inter.k, inter.n, _elements(slots, frozenset()))


def _psi_inverse(seq: MBarredSequence) -> MBarredSequence:
    """Undo psi; defined on every (m+1)-barred sequence with m >= 0 bars
    remaining after the decrement."""
    return _psi_b_inverse(_psi_r_inverse(seq))


# psi_r and psi_b_inverse take an intermediate, which has no validator of
# its own; they refuse a malformed one with DomainError.
_PSI_IN = ("psi_b: input outside psi's domain", psi_domain)
_PSI_INV_IN = ("psi_inverse: input outside psi's image", psi_image)
_PSI_INV_OUT = ("psi_inverse: bad image", psi_domain)
psi_b = _checked(_psi_b, _PSI_IN)
psi = _checked(_psi, _PSI_IN, ("psi: bad image", psi_image))
psi_r_inverse = _checked(_psi_r_inverse, _PSI_INV_IN)
psi_b_inverse = _checked(_psi_b_inverse, None, _PSI_INV_OUT)
psi_inverse = _checked(_psi_inverse, _PSI_INV_IN, _PSI_INV_OUT)


# ---------------------------------------------------------------------------
# intermediate serialization (CLI support)
# ---------------------------------------------------------------------------


def intermediate_to_json_dict(inter: PsiIntermediate) -> dict:
    return _to_wire(inter, intermediate=True)


def intermediate_from_json_dict(data: dict) -> PsiIntermediate:
    return PsiIntermediate(*_from_wire(data, intermediate=True))


def canonical_intermediate_json(inter: PsiIntermediate) -> str:
    return _wire_json(inter, intermediate=True)
