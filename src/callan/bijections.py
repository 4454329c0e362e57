"""The two structural bijections on m-barred Callan sequences.

The map cores work on the packed form of combinat: (m, k, n, slots),
one slot (bar codes, blue bitmask, red bitmask) per pair, the extra pair
last.  A core moves, merges or splits slots and replaces blocks by mask
operations, then gives the extra pair its new red block.  A public map
packs the object it accepts, checks it with combinat.validate_packed and
the marks, runs the core, checks the packed result the same way and
decodes it once (combinat._checked); the harness runs the cores on packed
sequences directly and validates nothing.  The sets that the maps run
between are stated once here, as predicates on the marks of combinat.

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
violates the bar grammar on purpose and is its own type, a sequence's
shape and codec but no MBarredSequence (combinat.PsiIntermediate); the
maps that take one refuse it when the cores cannot (_checked).

relabel_max_min exchanges the maximal and minimal blue element labels and
carries the barred-max-singleton subset onto the barred-min-singleton one
(an involution), which is what feeds phi's excluded subset into psi.
"""

from __future__ import annotations

from .combinat import (
    Packed,
    PsiIntermediate,
    Slot,
    _checked,
    canonical_intermediate_json,
    intermediate_from_json_dict,
    intermediate_to_json_dict,
)
from .errors import DomainError

__all__ = [
    "phi_domain",
    "phi_image",
    "psi_domain",
    "psi_image",
    "relabel_domain",
    "relabel_max_side",
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


# ---------------------------------------------------------------------------
# the sets the maps run between: each predicate takes the marks of a valid
# sequence (combinat.packed_marks: m, k, whether the extra red block is
# nonempty, and the barred-max and barred-min flags) and returns why it lies
# outside its set, or None.  The public maps check what they accept and emit
# against them (_checked); the harness certifies the packed cores (_phi,
# _psi, ...) over the same sets.
# ---------------------------------------------------------------------------


def phi_domain(m, k, extra_red, barred_max, barred_min) -> str | None:
    """phi's domain: the extra red block is nonempty."""
    return None if extra_red else "the extra red block is empty"


def phi_image(m, k, extra_red, barred_max, barred_min) -> str | None:
    """phi's image: at least one blue element, a star-only extra red block,
    and a maximal blue element that is no barred ordinary singleton."""
    if k < 1:
        return "no blue elements present"
    if extra_red:
        return "the extra red block is not star-only"
    if barred_max:
        return "the maximal blue element is a barred ordinary singleton"
    return None


def psi_domain(m, k, extra_red, barred_max, barred_min) -> str | None:
    """psi's domain: the barred-min-singleton subset."""
    if barred_min:
        return None
    return "the minimal blue element is no barred singleton of a star-only sequence"


def psi_image(m, k, extra_red, barred_max, barred_min) -> str | None:
    """psi's image: every sequence with at least one blue bar (m >= 1)."""
    return None if m >= 1 else "no red bar with a positive label"


def relabel_domain(m, k, extra_red, barred_max, barred_min) -> str | None:
    """relabel_max_min's domain, which is also its image: the union of the
    barred-max-singleton and the barred-min-singleton subsets."""
    if barred_max or barred_min:
        return None
    return "no extreme blue element is a barred singleton of a star-only sequence"


def relabel_max_side(m, k, extra_red, barred_max, barred_min) -> str | None:
    """relabel_max_min's barred-max side: the barred-max-singleton subset,
    which the map carries onto the barred-min one, psi's domain."""
    if barred_max:
        return None
    return "the maximal blue element is no barred singleton of a star-only sequence"


def _with_extra_red(slots: list[Slot], red: int) -> tuple[Slot, ...]:
    """The slots, the extra pair's red block replaced by `red`."""
    run, blue, _ = slots[-1]
    slots[-1] = (run, blue, red)
    return tuple(slots)


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------


def _phi_case(seq: Packed) -> str:
    """Which of the four phi moves applies: A1/A2 when the maximal red
    element sits in the extra block (alone with the star / accompanied),
    B1/B2 when it sits in an ordinary block (as a singleton / with others)."""
    return _phi_move(seq)[0]


def _phi_move(seq: Packed) -> tuple[str, int]:
    """phi's case and the index of the slot whose red block holds mu."""
    m, _, n, slots = seq
    mu = 1 << (m + n)
    extra_red = slots[-1][2]
    if extra_red & mu:
        return ("A1" if extra_red == mu else "A2"), len(slots) - 1
    i = next(j for j, (_, _, red) in enumerate(slots) if red & mu)  # an ordinary pair's
    return ("B1" if slots[i][2] == mu else "B2"), i


def _phi(seq: Packed) -> Packed:
    """Remove the maximal red element mu = m+n, add the new maximal blue
    element m+k+1, and rearrange so the move is invertible.  The image is
    cut from the slots of `seq`, its extra pair's red block emptied."""
    m, k, n, slots = seq
    mu = 1 << (m + n)
    new_blue = 1 << (m + k + 1)
    last = len(slots) - 1
    run, blue, extra_red = slots[last]
    end = ((run, blue, 0),)
    if extra_red & mu:
        if extra_red != mu:  # A2
            return m, k + 1, n - 1, (((), new_blue, extra_red ^ mu),) + slots[:last] + end
        if not last:  # A1, where the first pair is the extra one
            return m, k + 1, n - 1, ((run, blue | new_blue, 0),)
        run, blue, red = slots[0]  # A1
        return m, k + 1, n - 1, ((run, blue | new_blue, red),) + slots[1:last] + end
    for i, (run, blue, red) in enumerate(slots):
        if red & mu:  # an ordinary pair's
            break
    launched = ((run, blue, extra_red),)
    if red != mu:  # B2
        left = ((), new_blue, red ^ mu)
        return m, k + 1, n - 1, launched + slots[:i] + (left,) + slots[i + 1 : last] + end
    run, blue, red = slots[i + 1]  # B1: the pair after mu's gains the new blue element
    if i + 1 == last:
        return m, k + 1, n - 1, launched + slots[:i] + ((run, blue | new_blue, 0),)
    gained = (run, blue | new_blue, red)
    return m, k + 1, n - 1, launched + slots[:i] + (gained,) + slots[i + 2 : last] + end


def _phi_inverse_case(seq: Packed) -> str:
    """Recover the phi move from an image element: the new maximal blue
    element sits in the first pair iff the move was A1/A2 and forms an
    ordinary singleton iff the move was A2/B2."""
    return _phi_inverse_move(seq)[0]


def _phi_inverse_move(seq: Packed) -> tuple[str, int]:
    """phi_inverse's case and the index q_i of the slot whose blue block
    holds the maximal blue element."""
    m, k, _, slots = seq
    top = 1 << (m + k)
    q_i = next(j for j, (_, blue, _) in enumerate(slots) if blue & top)
    alone = slots[q_i][1] == top and q_i < len(slots) - 1
    if q_i == 0:
        return ("A2" if alone else "A1"), q_i
    return ("B2" if alone else "B1"), q_i


def _phi_inverse(seq: Packed) -> Packed:
    """Undo phi: remove the maximal blue element, restore mu = m+n of the
    preimage, and put any launched slot back in place.  The preimage is
    cut from the slots of `seq`."""
    m, k, n, slots = seq
    top = 1 << (m + k)
    mu = 1 << (m + n + 1)
    last = len(slots) - 1
    for q_i, (run, blue, red) in enumerate(slots):
        if blue & top:
            break
    alone = blue == top and q_i < last
    end_run, end_blue, _ = slots[last]
    if not q_i:
        if alone:  # A2: the first slot is q's, which has no bars
            return m, k - 1, n + 1, slots[1:last] + ((end_run, end_blue, red | mu),)
        if not last:  # A1, where the first pair is the extra one
            return m, k - 1, n + 1, ((run, blue ^ top, mu),)
        end = ((end_run, end_blue, mu),)  # A1
        return m, k - 1, n + 1, ((run, blue ^ top, red),) + slots[1:last] + end
    lead, first_blue, first_red = slots[0]  # the slot phi launched to the front
    if q_i == last:  # B1, where q is the extra pair
        back = ((lead, first_blue, mu), (run, blue ^ top, first_red))
        return m, k - 1, n + 1, slots[1:last] + back
    if alone:  # B2: phi_image leaves q without bars
        back = ((lead, first_blue, red | mu),)
    else:  # B1
        back = ((lead, first_blue, mu), (run, blue ^ top, red))
    end = ((end_run, end_blue, first_red),)
    return m, k - 1, n + 1, slots[1:q_i] + back + slots[q_i + 1 : last] + end


_PHI_IN = ("phi: input outside phi's domain", phi_domain)
_PHI_INV_IN = ("phi_inverse: input outside phi's image", phi_image)
phi_case = _checked(_phi_case, _PHI_IN, result=None)
phi = _checked(_phi, _PHI_IN, ("phi: bad image", phi_image))
phi_inverse_case = _checked(_phi_inverse_case, _PHI_INV_IN, result=None)
phi_inverse = _checked(_phi_inverse, _PHI_INV_IN, ("phi_inverse: bad image", phi_domain))


# ---------------------------------------------------------------------------
# relabelling between the barred-max and barred-min singleton subsets
# ---------------------------------------------------------------------------


def _relabel_max_min(seq: Packed) -> Packed:
    """Exchange the maximal and minimal blue element labels everywhere.
    Maps the barred-max-singleton subset onto the barred-min-singleton one
    and back; an involution (the identity when k = 1)."""
    m, k, n, slots = seq
    hi, lo = 1 << (m + k), 1 << (m + 1)
    if hi == lo:
        return seq
    both = hi | lo
    # a block that holds exactly one of the two labels trades it for the other
    return m, k, n, tuple(
        (run, blue ^ both if (blue & both) in (hi, lo) else blue, red)
        for run, blue, red in slots
    )


_RELABEL_IN = ("relabel_max_min: input outside its domain", relabel_domain)
_RELABEL_OUT = ("relabel_max_min: bad image", relabel_domain)
relabel_max_min = _checked(_relabel_max_min, _RELABEL_IN, _RELABEL_OUT)


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------


def _psi_b(seq: Packed) -> Packed:
    """First psi stage: the pair ({m+1}, R) dissolves.  Its left bar run w1
    (nonempty by the domain condition) and right bar run w2 swap around a
    new blue bar labelled m+1, and R moves into the extra red block."""
    m, k, n, slots = seq
    label = m + 1
    bit = 1 << label
    slots = list(slots)
    i = next(j for j, (_, blue, _) in enumerate(slots) if blue & bit)
    (w1, _, red), (w2, after_blue, after_red) = slots[i : i + 2]
    slots[i : i + 2] = [(w2 + (2 * label,) + w1, after_blue, after_red)]
    return m, k, n, _with_extra_red(slots, red)


def _psi_r(inter: Packed) -> Packed:
    """Second psi stage: the minimal red element m+1 of the intermediate
    becomes a red bar labelled m+1 standing before its old pair; block
    contents rotate so the extra block ends up star-only exactly when m+1
    lived in an ordinary block whose leftovers replace it.

    The output is not validated: the psi_r worked examples carry blue
    blocks that are no partition, so an intermediate that is no psi_b image
    can give an invalid sequence.  psi and `callan map --which psi-r`
    validate what it returns."""
    m, k, n, slots = inter
    label = m + 1
    bit = 1 << label
    slots = list(slots)
    extra_red = slots[-1][2]
    if extra_red & bit:
        i = len(slots) - 1
        red = extra_red = extra_red ^ bit
    else:
        i = next((j for j, (_, _, red) in enumerate(slots[:-1]) if red & bit), None)
        if i is None:
            raise DomainError(f"psi_r: red element {label} not present in any block")
        if not extra_red:
            raise DomainError("psi_r: intermediate extra red block may not be empty here")
        red, extra_red = extra_red, slots[i][2] ^ bit
    run, blue, _ = slots[i]
    slots[i] = (run + (2 * label + 1,), blue, red)
    return m + 1, k - 1, n - 1, _with_extra_red(slots, extra_red)


def _psi(seq: Packed) -> Packed:
    """Retire the minimal blue and minimal red elements to labelled bars:
    a bijection onto all (m+1)-barred sequences one size smaller."""
    return _psi_r(_psi_b(seq))


def _psi_r_inverse(seq: Packed) -> Packed:
    """Undo psi_r: the red bar with maximal label m_t dissolves back into a
    red block element (it always ends the bar run of its slot)."""
    m, k, n, slots = seq
    code = 2 * m + 1
    slots = list(slots)
    i = next(j for j, (run, _, _) in enumerate(slots) if run[-1:] == (code,))
    run, blue, red = slots[i]
    extra_red = slots[-1][2] | 1 << m
    if i < len(slots) - 1:  # the bar stood before an ordinary pair
        red, extra_red = extra_red, red
    slots[i] = (run[:-1], blue, red)
    return m - 1, k + 1, n + 1, _with_extra_red(slots, extra_red)


def _psi_b_inverse(inter: Packed) -> Packed:
    """Undo psi_b: the slot whose bar run holds the blue bar labelled m+1
    splits there; the run w2 before the bar and the run w1 after it
    (nonempty) swap back, flanking a restored pair ({m+1}, R) where R is
    the intermediate's extra red block."""
    m, k, n, slots = inter
    label = m + 1
    code = 2 * label
    slots = list(slots)
    i = next((j for j, (run, _, _) in enumerate(slots) if code in run), None)
    if i is None:
        raise DomainError(f"psi_inverse: no blue bar labelled {label}")
    run, blue, red = slots[i]
    cut = run.index(code)
    w2, w1 = run[:cut], run[cut + 1 :]
    if not w1:
        raise DomainError("psi_inverse: the blue bar must be followed by a bar")
    extra_red = slots[-1][2]
    if not extra_red:
        raise DomainError("psi_inverse: intermediate extra red block is empty")
    slots[i : i + 1] = [(w1, 1 << label, extra_red), (w2, blue, red)]
    return m, k, n, _with_extra_red(slots, 0)


def _psi_inverse(seq: Packed) -> Packed:
    """Undo psi; defined on every (m+1)-barred sequence with m >= 0 bars
    remaining after the decrement."""
    return _psi_b_inverse(_psi_r_inverse(seq))


# psi_r and psi_b_inverse take an intermediate, which has no validator of
# its own; they refuse a malformed one with DomainError, and _checked
# refuses one that the cores cannot take.
_PSI_IN = ("psi_b: input outside psi's domain", psi_domain)
_PSI_INV_IN = ("psi_inverse: input outside psi's image", psi_image)
_PSI_INV_OUT = ("psi_inverse: bad image", psi_domain)
psi_b = _checked(_psi_b, _PSI_IN, result=PsiIntermediate)
psi_r = _checked(_psi_r)
psi = _checked(_psi, _PSI_IN, ("psi: bad image", psi_image))
psi_r_inverse = _checked(_psi_r_inverse, _PSI_INV_IN, result=PsiIntermediate)
psi_b_inverse = _checked(_psi_b_inverse, None, _PSI_INV_OUT)
psi_inverse = _checked(_psi_inverse, _PSI_INV_IN, _PSI_INV_OUT)

