"""The two structural bijections on m-barred Callan sequences.

phi trades the maximal red element for a new maximal blue element: it maps
sequences whose extra red block is nonempty, with k blue and n red
elements, onto sequences with k+1 blue and n-1 red elements whose extra
red block is star-only, except those where the new maximal blue element
is a barred ordinary singleton.  Which of four moves applies depends on
where the maximal red element mu = m+n sits (alone or accompanied, in the
extra block or in an ordinary one).

psi retires the minimal blue and the minimal red element to a fresh pair
of labelled bars, raising the bar parameter: it maps star-only sequences
whose minimal blue element is a barred ordinary singleton, with k blue
and n red elements, onto all (m+1)-barred sequences with k-1 blue and n-1
red elements.  It factors as psi_r after psi_b; between the two stages
lives an intermediate object that already carries the new blue bar but
still has n red elements and a nonempty extra red block.  The
intermediate violates the bar grammar on purpose and is its own type.

relabel_max_min exchanges the maximal and minimal blue element labels and
carries the barred-max-singleton subset onto the barred-min-singleton one
(an involution), which is what feeds phi's excluded subset into psi.
"""

from __future__ import annotations

import json
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
# returns why it lies outside its set, or None.  The maps check what they
# accept and emit against them, and the harness certifies over exactly them.
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


def _pair_indices(elements: list[Element]) -> list[int]:
    return [i for i, e in enumerate(elements) if isinstance(e, CallanPair)]


def _group_start(elements: list[Element], idx: int) -> int:
    """Index where the maximal bar run immediately before elements[idx] starts."""
    g = idx
    while g > 0 and isinstance(elements[g - 1], Bar):
        g -= 1
    return g


def _with_extra(elements: list[Element], red: frozenset[int]) -> list[Element]:
    """Copy with the extra pair's stored red block replaced."""
    out = list(elements)
    last = out[-1]
    out[-1] = CallanPair(last.blue, red, True)
    return out


# ---------------------------------------------------------------------------
# phi
# ---------------------------------------------------------------------------


def phi_case(seq: MBarredSequence) -> str:
    """Which of the four phi moves applies: A1/A2 when the maximal red
    element sits in the extra block (alone with the star / accompanied),
    B1/B2 when it sits in an ordinary block (as a singleton / with others)."""
    _require_mbarred(seq, "phi: input outside phi's domain", phi_domain)
    extra = seq.extra
    mu = seq.m + seq.n
    if mu in extra.red:
        return "A1" if extra.red == {mu} else "A2"
    owner = next(p for p in seq.pairs() if mu in p.red)  # an ordinary pair
    return "B1" if owner.red == {mu} else "B2"


def phi(seq: MBarredSequence) -> MBarredSequence:
    """Remove the maximal red element mu = m+n, add the new maximal blue
    element m+k+1, and rearrange so the move is invertible."""
    case = phi_case(seq)
    mu = seq.m + seq.n
    new_blue = seq.m + seq.k + 1
    elems = list(seq.elements)
    pidx = _pair_indices(elems)
    extra_i = pidx[-1]
    extra = elems[extra_i]

    if case == "A1":
        # mu was alone with the star: drop it, gift the new blue element
        # to the first pair of the sequence.
        elems[extra_i] = CallanPair(extra.blue, frozenset(), True)
        first = elems[pidx[0]]
        elems[pidx[0]] = CallanPair(first.blue | {new_blue}, first.red, first.is_extra)
        out_elems = elems
    elif case == "A2":
        # mu shared the extra block: the leftovers move into a brand-new
        # ordinary pair with the new blue element, placed at the absolute
        # front of the sequence.
        leftovers = extra.red - {mu}
        elems[extra_i] = CallanPair(extra.blue, frozenset(), True)
        out_elems = [CallanPair(frozenset({new_blue}), leftovers)] + elems
    else:
        i = next(
            j for j in pidx if not elems[j].is_extra and mu in elems[j].red
        )
        pair_i = elems[i]
        g = _group_start(elems, i)
        if case == "B1":
            # mu's pair inherits the old extra red block and launches to the
            # front together with its preceding bar run; the pair that
            # followed it (possibly the extra pair) receives the new blue
            # element.
            moved = elems[g:i] + [CallanPair(pair_i.blue, extra.red)]
            tail: list[Element] = []
            granted = False
            for e in elems[i + 1 :]:
                if isinstance(e, CallanPair):
                    if not granted:
                        e = CallanPair(e.blue | {new_blue}, e.red, e.is_extra)
                        granted = True
                    if e.is_extra:
                        e = CallanPair(e.blue, frozenset(), True)
                tail.append(e)
            out_elems = moved + elems[:g] + tail
        else:
            # B2: mu's pair splits in two: the blue block plus the old extra
            # red block launches to the front with its bar run, while mu's
            # red companions stay behind under the new blue element.
            companions = pair_i.red - {mu}
            moved = elems[g:i] + [CallanPair(pair_i.blue, extra.red)]
            stay = [CallanPair(frozenset({new_blue}), companions)] + elems[i + 1 :]
            stay = _with_extra(stay, frozenset())
            out_elems = moved + elems[:g] + stay

    out = MBarredSequence(seq.m, seq.k + 1, seq.n - 1, tuple(out_elems))
    return _require_mbarred(out, "phi: bad image", phi_image, ConsistencyError)


def phi_inverse_case(seq: MBarredSequence) -> str:
    """Recover the phi move from an image element: the new maximal blue
    element sits in the first pair iff the move was A1/A2 and forms an
    ordinary singleton iff the move was A2/B2."""
    _require_mbarred(seq, "phi_inverse: input outside phi's image", phi_image)
    top = seq.m + seq.k
    elems = list(seq.elements)
    pidx = _pair_indices(elems)
    q_i = next(j for j in pidx if top in elems[j].blue)
    q = elems[q_i]
    in_first = q_i == pidx[0]
    alone = not q.is_extra and q.blue == frozenset({top})
    if in_first:
        return "A2" if alone else "A1"
    return "B2" if alone else "B1"


def phi_inverse(seq: MBarredSequence) -> MBarredSequence:
    """Undo phi: remove the maximal blue element, restore mu = m+n of the
    preimage, and put any launched group back in place."""
    case = phi_inverse_case(seq)
    top = seq.m + seq.k
    mu = seq.m + seq.n + 1
    elems = list(seq.elements)
    pidx = _pair_indices(elems)
    extra_i = pidx[-1]
    q_i = next(j for j in pidx if top in elems[j].blue)
    q = elems[q_i]

    if case == "A1":
        elems[q_i] = CallanPair(q.blue - {top}, q.red, q.is_extra)
        out_elems = _with_extra(elems, frozenset({mu}))
    elif case == "A2":
        # q is elements[0]: phi_image excludes a bar before q
        elems = _with_extra(elems, q.red | {mu})
        out_elems = elems[1:]
    elif case == "B1":
        elems[q_i] = CallanPair(q.blue - {top}, q.red, q.is_extra)
        first_i = pidx[0]
        lead = elems[:first_i]
        p1 = elems[first_i]
        elems = _with_extra(elems, p1.red)
        segment = lead + [CallanPair(p1.blue, frozenset({mu}))]
        rest = elems[first_i + 1 :]
        q_pos = q_i - (first_i + 1)
        g = _group_start(rest, q_pos)
        out_elems = rest[:g] + segment + rest[g:]
    else:
        first_i = pidx[0]
        lead = elems[:first_i]
        p1 = elems[first_i]
        elems = _with_extra(elems, p1.red)
        restored = CallanPair(p1.blue, q.red | {mu})
        rest = elems[first_i + 1 :]
        q_pos = q_i - (first_i + 1)
        out_elems = rest[:q_pos] + lead + [restored] + rest[q_pos + 1 :]

    out = MBarredSequence(seq.m, seq.k - 1, seq.n + 1, tuple(out_elems))
    return _require_mbarred(out, "phi_inverse: bad image", phi_domain, ConsistencyError)


# ---------------------------------------------------------------------------
# relabelling between the barred-max and barred-min singleton subsets
# ---------------------------------------------------------------------------


def relabel_max_min(seq: MBarredSequence) -> MBarredSequence:
    """Exchange the maximal and minimal blue element labels everywhere.
    Maps the barred-max-singleton subset onto the barred-min-singleton one
    and back; an involution (the identity when k = 1)."""
    _require_mbarred(seq, "relabel_max_min: input outside its domain", relabel_domain)
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
    out = MBarredSequence(seq.m, seq.k, seq.n, elements)
    return _require_mbarred(
        out, "relabel_max_min: bad image", relabel_domain, ConsistencyError
    )


# ---------------------------------------------------------------------------
# psi
# ---------------------------------------------------------------------------


def psi_b(seq: MBarredSequence) -> PsiIntermediate:
    """First psi stage: the pair ({m+1}, R) dissolves.  Its left bar run w1
    (nonempty by the domain condition) and right bar run w2 swap around a
    new blue bar labelled m+1, and R moves into the extra red block."""
    _require_mbarred(seq, "psi_b: input outside psi's domain", psi_domain)
    target = frozenset({seq.m + 1})
    p_idx = next(
        i
        for i, e in enumerate(seq.elements)
        if isinstance(e, CallanPair) and not e.is_extra and e.blue == target
    )
    elems = list(seq.elements)
    g1 = _group_start(elems, p_idx)
    end2 = p_idx + 1
    while end2 < len(elems) and isinstance(elems[end2], Bar):
        end2 += 1
    w1 = elems[g1:p_idx]
    w2 = elems[p_idx + 1 : end2]
    red_block = elems[p_idx].red
    out = elems[:g1] + w2 + [Bar(BLUE, seq.m + 1)] + w1 + elems[end2:]
    out = _with_extra(out, red_block)
    return PsiIntermediate(seq.m, seq.k, seq.n, tuple(out))


def psi_r(inter: PsiIntermediate) -> MBarredSequence:
    """Second psi stage: the minimal red element m+1 of the intermediate
    becomes a red bar labelled m+1 standing before its old pair; block
    contents rotate so the extra block ends up star-only exactly when m+1
    lived in an ordinary block whose leftovers replace it.

    The output is not validated: the psi_r worked examples carry blue
    blocks that are no partition, so an intermediate that is no psi_b image
    can give an invalid sequence.  psi and `callan map --which psi-r`
    validate what it returns."""
    new_label = inter.m + 1
    elems = list(inter.elements)
    extra = elems[-1] if elems else None
    if not isinstance(extra, CallanPair) or not extra.is_extra:
        raise DomainError("psi_r: intermediate must end with the extra pair")
    if new_label in extra.red:
        elems = _with_extra(elems, extra.red - {new_label})
        elems.insert(len(elems) - 1, Bar(RED, new_label))
    else:
        i = next(
            (
                j
                for j, e in enumerate(elems)
                if isinstance(e, CallanPair) and not e.is_extra and new_label in e.red
            ),
            None,
        )
        if i is None:
            raise DomainError(f"psi_r: red element {new_label} not present in any block")
        if not extra.red:
            raise DomainError("psi_r: intermediate extra red block may not be empty here")
        pair = elems[i]
        elems = _with_extra(elems, pair.red - {new_label})
        elems[i] = CallanPair(pair.blue, extra.red)
        elems.insert(i, Bar(RED, new_label))
    return MBarredSequence(inter.m + 1, inter.k - 1, inter.n - 1, tuple(elems))


def psi(seq: MBarredSequence) -> MBarredSequence:
    """Retire the minimal blue and minimal red elements to labelled bars:
    a bijection onto all (m+1)-barred sequences one size smaller."""
    out = psi_r(psi_b(seq))
    return _require_mbarred(out, "psi: bad image", psi_image, ConsistencyError)


def psi_r_inverse(seq: MBarredSequence) -> PsiIntermediate:
    """Undo psi_r: the red bar with maximal label m_t dissolves back into a
    red block element (it always stands immediately before a pair)."""
    _require_mbarred(seq, "psi_inverse: input outside psi's image", psi_image)
    label = seq.m
    elems = list(seq.elements)
    # validation guarantees the bar, and no bar may follow it
    bi = next(
        i
        for i, e in enumerate(elems)
        if isinstance(e, Bar) and e.color == RED and e.label == label
    )
    after = elems[bi + 1]
    extra = elems[-1]
    if after.is_extra:
        elems = _with_extra(elems, extra.red | {label})
    else:
        elems[bi + 1] = CallanPair(after.blue, extra.red | {label})
        elems = _with_extra(elems, after.red)
    del elems[bi]
    return PsiIntermediate(seq.m - 1, seq.k + 1, seq.n + 1, tuple(elems))


def psi_b_inverse(inter: PsiIntermediate) -> MBarredSequence:
    """Undo psi_b: around the blue bar labelled m+1, the runs w2 (before)
    and w1 (after, nonempty) swap back flanking a restored pair ({m+1}, R)
    where R is the intermediate's extra red block."""
    label = inter.m + 1
    elems = list(inter.elements)
    bi = next(
        (
            i
            for i, e in enumerate(elems)
            if isinstance(e, Bar) and e.color == BLUE and e.label == label
        ),
        None,
    )
    if bi is None:
        raise DomainError(f"psi_inverse: no blue bar labelled {label}")
    g2 = _group_start(elems, bi)
    end1 = bi + 1
    while end1 < len(elems) and isinstance(elems[end1], Bar):
        end1 += 1
    w2 = elems[g2:bi]
    w1 = elems[bi + 1 : end1]
    if not w1:
        raise DomainError("psi_inverse: the blue bar must be followed by a bar")
    extra = elems[-1]
    if not extra.red:
        raise DomainError("psi_inverse: intermediate extra red block is empty")
    restored = CallanPair(frozenset({label}), extra.red)
    out = elems[:g2] + w1 + [restored] + w2 + elems[end1:]
    out = _with_extra(out, frozenset())
    seq = MBarredSequence(inter.m, inter.k, inter.n, tuple(out))
    return _require_mbarred(seq, "psi_inverse: bad image", psi_domain, ConsistencyError)


def psi_inverse(seq: MBarredSequence) -> MBarredSequence:
    """Undo psi; defined on every (m+1)-barred sequence with m >= 0 bars
    remaining after the decrement."""
    return psi_b_inverse(psi_r_inverse(seq))


# ---------------------------------------------------------------------------
# intermediate serialization (CLI support)
# ---------------------------------------------------------------------------


def intermediate_to_json_dict(inter: PsiIntermediate) -> dict:
    return _to_wire(inter, intermediate=True)


def intermediate_from_json_dict(data: dict) -> PsiIntermediate:
    return PsiIntermediate(*_from_wire(data, intermediate=True))


def canonical_intermediate_json(inter: PsiIntermediate) -> str:
    return json.dumps(intermediate_to_json_dict(inter), separators=(",", ":"))
