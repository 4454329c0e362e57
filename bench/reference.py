"""Independent reference answers the benchmark checks the program against.

Nothing here imports callan.  Numbers come from integer or rational sums
(Stirling numbers, Kaneko's formula, the Bernoulli recurrence) rather than
from power series; sequence checks work on the JSON wire form directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def stirling2_table(size: int) -> list[list[int]]:
    """S[n][k], Stirling numbers of the second kind, for 0 <= n, k < size."""
    s = [[0] * size for _ in range(size)]
    s[0][0] = 1
    for n in range(1, size):
        for k in range(1, n + 1):
            s[n][k] = k * s[n - 1][k] + s[n - 1][k - 1]
    return s


def c_number_ref(n: int, k: int, s: list[list[int]]) -> int:
    """C(n, k) = sum_r r! (r+1)! S(k+1, r+1) S(n+1, r+1)."""
    return sum(
        factorial(r) * factorial(r + 1) * s[k + 1][r + 1] * s[n + 1][r + 1]
        for r in range(min(n, k) + 1)
    )


def genocchi_refs(max_n: int) -> list[int]:
    """G_n = 2 (1 - 2^n) B_n, with B_1 = -1/2 from the Bernoulli recurrence."""
    b = [Fraction(1)]
    for m in range(1, max_n + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    out = []
    for n, bn in enumerate(b):
        g = 2 * (1 - 2**n) * bn
        if g.denominator != 1:
            raise ArithmeticError(f"reference Genocchi {n} is not an integer")
        out.append(int(g))
    return out


def poly_bernoulli_b_ref(n: int, k: int, s: list[list[int]]) -> Fraction:
    """Kaneko: B_n^(k) = (-1)^n sum_j (-1)^j j! S(n, j) / (j+1)^k."""
    total = sum(
        Fraction((-1) ** j * factorial(j) * s[n][j]) / Fraction(j + 1) ** k
        for j in range(n + 1)
    )
    return (-1) ** n * total


def poly_bernoulli_c_ref(n: int, k: int, s: list[list[int]]) -> Fraction:
    """C_n^(k) = (-1)^n sum_j (-1)^j j! S(n+1, j+1) / (j+1)^k."""
    total = sum(
        Fraction((-1) ** j * factorial(j) * s[n + 1][j + 1]) / Fraction(j + 1) ** k
        for j in range(n + 1)
    )
    return (-1) ** n * total


def gandhi_runs(m: int, x: int) -> int:
    """A(m, x): ways to arrange the 2m+1 bars into x runs, from
    A(0, x) = x and A(m+1, x) = x^2 (A(m, x+1) - A(m, x))."""
    if m == 0:
        return x
    return x * x * (gandhi_runs(m - 1, x + 1) - gandhi_runs(m - 1, x))


def count_mbarred_ref(k: int, n: int, m: int, s: list[list[int]]) -> int:
    """Number of m-barred sequences: sum_r (r!)^2 S(k+1,r+1) S(n+1,r+1) A(m,r+1)."""
    return sum(
        factorial(r) ** 2 * s[k + 1][r + 1] * s[n + 1][r + 1] * gandhi_runs(m, r + 1)
        for r in range(min(k, n) + 1)
    )


# ---------------------------------------------------------------------------
# m-barred sequences in their JSON wire form
# ---------------------------------------------------------------------------


def _pairs(d: dict) -> list[dict]:
    return [e["pair"] for e in d["elements"] if "pair" in e]


def _bars(d: dict) -> list[dict]:
    return [e["bar"] for e in d["elements"] if "bar" in e]


def _partition_error(blocks: list[list[int]], base: set[int]) -> str | None:
    seen: set[int] = set()
    for block in blocks:
        if block != sorted(set(block)) or not all(type(x) is int for x in block):
            return f"block {block} is not a strictly ascending int list"
        if seen & set(block):
            return f"element of {block} reused"
        seen |= set(block)
    if seen != base:
        return f"blocks cover {sorted(seen)}, expected {sorted(base)}"
    return None


def _shape_error(d: dict, blue_bars: int, blue_base: set[int], red_base: set[int]) -> str | None:
    """Checks shared by sequences and psi-b intermediates: sizes, bar
    multisets, the final extra pair, nonempty ordinary blocks, partitions."""
    m = d["m"]
    bars = _bars(d)
    blue = sorted(b["label"] for b in bars if b["color"] == "blue")
    red = sorted(b["label"] for b in bars if b["color"] == "red")
    if blue != list(range(1, blue_bars + 1)) or red != list(range(m + 1)):
        return f"bar labels blue {blue} red {red}"
    if len(bars) + len(_pairs(d)) != len(d["elements"]):
        return "element that is neither a bar nor a pair"
    last = d["elements"][-1]
    if "pair" not in last or last["pair"]["extra"] is not True:
        return "last element is not the extra pair"
    pairs = _pairs(d)
    if sum(p["extra"] is True for p in pairs) != 1:
        return "not exactly one extra pair"
    if any(not p["extra"] and (not p["blue"] or not p["red"]) for p in pairs):
        return "empty ordinary block"
    for color, base in (("blue", blue_base), ("red", red_base)):
        err = _partition_error([p[color] for p in pairs], base)
        if err:
            return f"{color}: {err}"
    return None


def sequence_error(d: dict) -> str | None:
    """Why the JSON object is not a valid m-barred sequence, or None."""
    m, k, n = d["m"], d["k"], d["n"]
    if set(d) != {"m", "k", "n", "elements"} or min(m, k, n) < 0 or not d["elements"]:
        return "keys or sizes"
    err = _shape_error(
        d, m, set(range(m + 1, m + k + 1)), set(range(m + 1, m + n + 1))
    )
    if err:
        return err
    elements = d["elements"]
    for here, nxt in zip(elements, elements[1:]):
        if "bar" not in here:
            continue
        bar = here["bar"]
        nxt_label = nxt["bar"]["label"] if "bar" in nxt else None
        if bar["color"] == "blue" and (nxt_label is None or nxt_label >= bar["label"]):
            return f"blue bar {bar['label']} not followed by a smaller bar"
        if bar["color"] == "red" and nxt_label is not None and nxt_label <= bar["label"]:
            return f"red bar {bar['label']} followed by a bar not greater"
    return None


def intermediate_error(d: dict) -> str | None:
    """Why the JSON object is not a psi-b intermediate of the psi domain
    at (m, k, n), or None.  The bar grammar is broken on purpose there, so
    only labels, blocks and the nonempty extra red block are checked."""
    m, k, n = d["m"], d["k"], d["n"]
    if set(d) != {"m", "k", "n", "intermediate", "elements"} or d["intermediate"] is not True:
        return "keys"
    err = _shape_error(
        d, m + 1, set(range(m + 2, m + k + 1)), set(range(m + 1, m + n + 1))
    )
    if err:
        return err
    if not d["elements"][-1]["pair"]["red"]:
        return "extra red block is empty"
    return None


def _barred_singleton(d: dict, label: int) -> bool:
    elements = d["elements"]
    for i, e in enumerate(elements):
        p = e.get("pair")
        if p is not None and not p["extra"] and p["blue"] == [label]:
            return i > 0 and "bar" in elements[i - 1]
    return False


def map_accepts(which: str, d: dict) -> bool:
    """Whether a valid sequence lies in the domain of the named map."""
    m, k = d["m"], d["k"]
    star_only = not d["elements"][-1]["pair"]["red"]
    if which == "phi":
        return not star_only
    if which == "phi-inv":
        return k >= 1 and star_only and not _barred_singleton(d, m + k)
    if which in ("psi", "psi-b"):
        return star_only and _barred_singleton(d, m + 1)
    if which == "relabel":
        return (
            k >= 1
            and star_only
            and (_barred_singleton(d, m + k) or _barred_singleton(d, m + 1))
        )
    if which == "psi-r":
        return True  # fed psi-b images only
    raise ValueError(f"unknown map {which!r}")
