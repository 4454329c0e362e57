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
  c_table reads c_number cell by cell.
* Columns read exponential generating functions, built cold on every
  call: genocchi_list divides 2t by e^t + 1, and poly_bernoulli_b_column
  and c_column compose Li_k with 1 - e^{-t} and divide by 1 - e^{-t} or
  e^t - 1.  The identities the harness certifies read these columns, and
  the tests check the two routes against each other.

Every value is computed exactly; whenever a value is asserted to be an
integer (or a positive integer), that fact is checked after the fact and a
ConsistencyError is raised on failure.  No rounding happens anywhere.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from math import lcm

from .errors import ConsistencyError
from .series import (
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


def _polylog_quotient(
    k: int, order: int, divisor: Callable[[int], TruncatedSeries]
) -> TruncatedSeries:
    """Li_k(1 - e^{-t}) / divisor(t) truncated at `order`, from one
    composition and one division, with divisor one_minus_exp_neg (B) or
    expm1_series (C).  Both have valuation 1: one extra term pays for the
    division."""
    w = one_minus_exp_neg(order + 1)
    return polylog_series(k, order + 1).compose(w).divide(divisor(order + 1))


def _next_stirling_row(row: list[int]) -> list[int]:
    """F[n] from F[n-1], by F[n][r] = (r+1) F[n-1][r] + r F[n-1][r-1]."""
    return [(r + 1) * a + r * b for r, (a, b) in enumerate(zip(row + [0], [0] + row))]


def _next_gandhi_diagonal(diagonal: list[int]) -> list[int]:
    """A(j, m+2-j) for j = 0..m+1 from the anti-diagonal A(j, m+1-j),
    j = 0..m, by A(0, x) = x and A(j, x) = x^2 (A(j-1, x+1) - A(j-1, x))."""
    x = len(diagonal) + 1
    nxt = [x]
    for below in diagonal:
        x -= 1
        nxt.append(x * x * (nxt[-1] - below))
    return nxt


# The single values read two integer triangles, which grow in place and
# are never rebuilt: the rows F[n] of r! S(n+1, r+1) under "F", grown only
# to the row a lookup sums, and the Gandhi rows A(m, 1) under "A", kept
# with the last anti-diagonal A(j, m+1-j), j = 0..m, that the next row
# grows from.  So ascending lookups cost one row each.
_triangles: dict[str, list | tuple[list, list]] = {}


def _stirling_row(n: int) -> list[int]:
    """F[n][r] = r! S(n+1, r+1) for r = 0..n."""
    rows = _triangles.setdefault("F", [[1]])
    while len(rows) <= n:
        rows.append(_next_stirling_row(rows[-1]))
    return rows[n]


def _gandhi(m: int) -> int:
    """A(m, 1), the Gandhi polynomial A(m, x) at x = 1."""
    rows, diagonal = _triangles.setdefault("A", ([1], [1]))
    while len(rows) <= m:
        diagonal[:] = _next_gandhi_diagonal(diagonal)
        rows.append(diagonal[-1])
    return rows[m]


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
    return (-1) ** j * _gandhi(j - 1)


def genocchi_list(max_n: int) -> list[int]:
    """Genocchi numbers 0..max_n, read from one series division."""
    if max_n < 0:
        raise ValueError("genocchi index must be nonnegative")
    quotient = _genocchi_egf(max_n)
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
    weights = [m * f for m, f in enumerate(_stirling_row(s - 1), 1)]  # m! S(s, m)
    return Fraction(*_signed_power_sum(weights, range(2, s + 2), exponent))


def poly_bernoulli_b_column(k: int, max_n: int) -> list[Fraction]:
    """poly_bernoulli_b(n, k) for n = 0..max_n, read from one quotient."""
    if max_n < 0:
        raise ValueError("poly_bernoulli_b index n must be nonnegative")
    quotient = _polylog_quotient(k, max_n, one_minus_exp_neg)
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
    return Fraction(*_signed_power_sum(_stirling_row(n), range(1, n + 2), -k))


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
    value, _ = _signed_power_sum(_stirling_row(s), range(1, s + 2), top + 1)  # over 1
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
    quotient = _polylog_quotient(-k - 1, max_n, expm1_series)
    return [_positive_c(quotient.egf_coefficient(n), n, k) for n in range(max_n + 1)]


def c_table(max_n: int, max_k: int) -> list[list[int]]:
    """Rows n = 0..max_n, columns k = 0..max_k of c_number, read cell by
    cell."""
    if max_n < 0 or max_k < 0:
        raise ValueError("c_table sizes must be nonnegative")
    return [[c_number(n, k) for k in range(max_k + 1)] for n in range(max_n + 1)]
