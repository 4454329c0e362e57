"""Integer and rational number families: Genocchi numbers, the two
poly-Bernoulli variants, and the symmetric table of positive integers
counted by barred Callan sequences.

Two routes compute them, and each public function reads one:

* Single values read exact integer formulas, which multiply only by
  small integers.  genocchi(n) reads the Gandhi recurrence
  A(0, x) = x, A(m+1, x) = x^2 (A(m, x+1) - A(m, x)) with
  G_2j = (-1)^j A(j-1, 1) (Dumont and Foata).  c_number, poly_bernoulli_b
  and poly_bernoulli_c read Kaneko's explicit Stirling sum
  B(n, k) = (-1)^n sum_m (-1)^m m! S(n, m) / (m+1)^k, or its C-variant
  with S(n+1, m+1) (Arakawa and Kaneko), which holds at every integer k.
  At k < 0 it runs over the smaller index: both families are symmetric
  in their two indices, so the larger one is only an exponent.  At
  k >= 0 it is one fraction over lcm(2..n+1)^k or lcm(1..n+1)^k.
* Columns read exponential generating functions: genocchi_list reads
  2t / (e^t + 1); poly_bernoulli_b_column, c_column and c_table read
  Li_k(1 - e^{-t}) divided by 1 - e^{-t} or e^t - 1.  The identities the
  harness certifies read these columns, and the tests check the two
  routes against each other.

Every value is computed exactly; whenever a value is asserted to be an
integer (or a positive integer), that fact is checked after the fact and a
ConsistencyError is raised on failure.  No rounding happens anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import ConsistencyError
from .series import (
    PowerTable,
    TruncatedSeries,
    exp_series,
    expm1_series,
    one_minus_exp_neg,
    polylog_series,
)

__all__ = [
    "genocchi",
    "genocchi_list",
    "poly_bernoulli_b",
    "poly_bernoulli_b_column",
    "poly_bernoulli_c",
    "c_number",
    "c_column",
    "c_table",
]


def _require_integer(value: Fraction | int, what: str) -> int:
    if value.denominator != 1:
        raise ConsistencyError(f"{what} extracted a non-integer {value}; series bug")
    return int(value)


def _genocchi_egf(order: int) -> TruncatedSeries:
    """2t / (e^t + 1) truncated at `order`, from one series division."""
    numerator = (
        TruncatedSeries.monomial(2, 1, order) if order >= 1 else TruncatedSeries.zero(0)
    )
    denominator = exp_series(order) + TruncatedSeries.constant(1, order)
    return numerator.divide(denominator)


def _powers_of_w(order: int) -> PowerTable:
    """w, w², …, w^order with w = 1 - e^{-t}, truncated at `order`."""
    return PowerTable(one_minus_exp_neg(order))


def _polylog_of_w(k: int, order: int) -> TruncatedSeries:
    """Li_k(w) = sum_j j^{-k} w^j with w = 1 - e^{-t}, truncated at `order`
    and read from the stored powers of w."""
    return _quotient(order, "w").evaluate(polylog_series(k, order))


# The divisors below have valuation 1: one extra term pays for the division.


def _b_quotient(k: int, order: int) -> TruncatedSeries:
    """Li_k(1 - e^{-t}) / (1 - e^{-t}) truncated at `order`."""
    return _polylog_of_w(k, order + 1).divide(one_minus_exp_neg(order + 1))


def _c_quotient(k: int, order: int) -> TruncatedSeries:
    """Li_k(1 - e^{-t}) / (e^t - 1) truncated at `order`."""
    return _polylog_of_w(k, order + 1).divide(expm1_series(order + 1))


class _Rows(list):
    """Rows 0..order of an integer recurrence; a longer entry is a new
    object that copies the shorter one's rows and computes only the rest."""

    @property
    def order(self) -> int:
        return len(self) - 1


def _next_stirling_row(row: list[int]) -> list[int]:
    """F[n] from F[n-1], by F[n][r] = (r+1) F[n-1][r] + r F[n-1][r-1]."""
    return [(r + 1) * a + r * b for r, (a, b) in enumerate(zip(row + [0], [0] + row))]


def _stirling_rows(order: int, prefix: _Rows | None) -> _Rows:
    """F[n][r] = r! S(n+1, r+1) for n = 0..order and r = 0..n."""
    rows = _Rows([[1]] if prefix is None else prefix)
    while rows.order < order:
        rows.append(_next_stirling_row(rows[-1]))
    return rows


def _next_gandhi_diagonal(diagonal: list[int]) -> list[int]:
    """A(j, m+2-j) for j = 0..m+1 from the anti-diagonal A(j, m+1-j),
    j = 0..m, by A(0, x) = x and A(j, x) = x^2 (A(j-1, x+1) - A(j-1, x))."""
    x = len(diagonal) + 1
    nxt = [x]
    for below in diagonal:
        x -= 1
        nxt.append(x * x * (nxt[-1] - below))
    return nxt


def _gandhi_rows(order: int, prefix: _Rows | None) -> _Rows:
    """A(m, 1) for m = 0..order.  The entry keeps the last anti-diagonal,
    A(j, order+1-j) for j = 0..order, which the next row grows from."""
    if prefix is None:
        rows, diagonal = _Rows([1]), [1]
    else:
        rows, diagonal = _Rows(prefix), prefix.diagonal
    while rows.order < order:
        diagonal = _next_gandhi_diagonal(diagonal)
        rows.append(diagonal[-1])
    rows.diagonal = diagonal
    return rows


# The coefficient [t^n] of a quotient does not depend on the order it is
# truncated at.  So one store keeps one quotient per series, at the largest
# order built so far, under ("g",), ("b", k) or ("c", k) for the upper
# index k; the columns read them, and no single value does.  A column whose
# order the stored quotient covers reads it.  Any other builds its quotient
# cold at exactly its own order, max_n, and that replaces the stored one.
# Every B and C column takes its numerator Li_k(w) from the powers of w
# stored under ("w",) by the same policy: [t^i] w^j does not depend on the
# order either, so a lower order reads the stored table.  The single values
# read two integer triangles from the same store, and these grow: the rows
# F[n] of r! S(n+1, r+1) under ("F",), grown only to the row a lookup sums,
# and the Gandhi rows A(m, 1) under ("A",).  A longer triangle computes
# only the rows past the stored ones, so ascending lookups cost one row
# each.
_BUILDERS = {
    "g": _genocchi_egf, "b": _b_quotient, "c": _c_quotient, "w": _powers_of_w,
    "F": _stirling_rows, "A": _gandhi_rows,
}
_GROWN = ("F", "A")  # the builders that grow the stored entry
_quotients: dict[tuple, TruncatedSeries | PowerTable | _Rows] = {}


def _quotient(order: int, family: str, *k: int) -> TruncatedSeries | PowerTable | _Rows:
    """The stored quotient of the series (family, *k), the stored powers
    of w, or a stored integer triangle, covering `order`: a series built
    cold at `order` if the stored one falls short, a triangle grown from
    the stored one."""
    key = (family, *k)
    stored = _quotients.get(key)
    if stored is None or stored.order < order:
        grown_from = (stored,) if family in _GROWN else ()
        stored = _quotients[key] = _BUILDERS[family](*k, order, *grown_from)
    return stored


def _signed_power_sum(coefficients: list[int], bases: range, exponent: int) -> tuple[int, int]:
    """sum_r (-1)^(len - 1 - r) c_r b_r^exponent over the coefficients c_r
    and the bases b_r, exactly, as a numerator and a denominator: the last
    term counts positive, and the denominator is lcm(bases)^-exponent at a
    negative exponent and 1 otherwise."""
    den, total = 1, 0
    if exponent < 0:
        top, exponent = lcm(*bases), -exponent
        den, bases = top**exponent, [top // b for b in bases]
    for c, b in zip(coefficients, bases):
        total = c * b**exponent - total
    return total, den


def genocchi(n: int) -> int:
    """The n-th Genocchi number, G_2j = (-1)^j A(j-1, 1) from the Gandhi
    rows, with the values of the EGF 2t / (e^t + 1) at n < 2 and odd n:
    G_0 = 0, G_1 = 1 and 0 at odd n > 1."""
    if n < 0:
        raise ValueError("genocchi index must be nonnegative")
    if n < 2 or n % 2:
        return int(n == 1)
    j = n // 2
    return (-1) ** j * _quotient(j - 1, "A")[j - 1]


def genocchi_list(max_n: int) -> list[int]:
    """Genocchi numbers 0..max_n, read from one series division."""
    if max_n < 0:
        raise ValueError("genocchi index must be nonnegative")
    quotient = _quotient(max_n, "g")
    return [
        _require_integer(quotient.egf_coefficient(n), f"genocchi({n})") for n in range(max_n + 1)
    ]


def poly_bernoulli_b(n: int, k: int) -> Fraction:
    """B-variant poly-Bernoulli number: n! [t^n] Li_k(1 - e^{-t}) / (1 - e^{-t}),
    read as (-1)^n sum_m (-1)^m m! S(n, m) / (m+1)^k with
    m! S(n, m) = m F[n-1][m-1].  At k < 0 the sum runs over the smaller
    index s = min(n, -k), with exponent max(n, -k).
    """
    if n < 0:
        raise ValueError("poly_bernoulli_b index n must be nonnegative")
    s, exponent = (-k, n) if 0 < -k < n else (n, -k)
    if s == 0:
        return Fraction(1)
    weights = [m * f for m, f in enumerate(_quotient(s - 1, "F")[s - 1], 1)]  # m! S(s, m)
    return Fraction(*_signed_power_sum(weights, range(2, s + 2), exponent))


def poly_bernoulli_b_column(k: int, max_n: int) -> list[Fraction]:
    """poly_bernoulli_b(n, k) for n = 0..max_n, read from one quotient."""
    if max_n < 0:
        raise ValueError("poly_bernoulli_b index n must be nonnegative")
    quotient = _quotient(max_n, "b", k)
    return [quotient.egf_coefficient(n) for n in range(max_n + 1)]


def poly_bernoulli_c(n: int, k: int) -> Fraction:
    """C-variant poly-Bernoulli number: n! [t^n] Li_k(1 - e^{-t}) / (e^t - 1),
    read as (-1)^n sum_r (-1)^r F[n][r] / (r+1)^k.

    k = 1 reproduces the ordinary Bernoulli numbers (with value -1/2 at n = 1).
    At k < 0 it is c_number(n, -k-1).
    """
    if n < 0:
        raise ValueError("poly_bernoulli_c index n must be nonnegative")
    if k < 0:
        return Fraction(c_number(n, -k - 1))
    return Fraction(*_signed_power_sum(_quotient(n, "F")[n], range(1, n + 2), -k))


def c_number(n: int, k: int) -> int:
    """The positive integer C_n^k = C-variant poly-Bernoulli at upper index -k-1.

    These are the counts of barred Callan sequences with k blue and n red
    elements; the table is symmetric in (n, k).  Read as
    (-1)^s sum_r (-1)^r F[s][r] (r+1)^(L+1) over the smaller index
    s = min(n, k), with L = max(n, k).
    """
    if n < 0 or k < 0:
        raise ValueError("c_number indices must be nonnegative")
    s, top = sorted((n, k))
    value, _ = _signed_power_sum(_quotient(s, "F")[s], range(1, s + 2), top + 1)  # over 1
    return _positive_c(value, n, k)


def _positive_c(value: Fraction | int, n: int, k: int) -> int:
    """C_n^k from its poly-Bernoulli value, checked to be a positive integer."""
    result = _require_integer(value, f"c_number({n}, {k})")
    if result <= 0:
        raise ConsistencyError(f"c_number({n}, {k}) = {result} is not positive; numbers bug")
    return result


def c_column(k: int, max_n: int) -> list[int]:
    """c_number(n, k) for n = 0..max_n, read from one quotient."""
    if max_n < 0 or k < 0:
        raise ValueError("c_number indices must be nonnegative")
    quotient = _quotient(max_n, "c", -k - 1)
    return [_positive_c(quotient.egf_coefficient(n), n, k) for n in range(max_n + 1)]


def c_table(max_n: int, max_k: int) -> list[list[int]]:
    """Rows n = 0..max_n, columns k = 0..max_k of c_number, built column
    by column."""
    if max_n < 0 or max_k < 0:
        raise ValueError("c_table sizes must be nonnegative")
    return [list(row) for row in zip(*(c_column(k, max_n) for k in range(max_k + 1)))]
