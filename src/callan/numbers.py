"""Integer and rational number families extracted from exponential
generating functions: Genocchi numbers, the two poly-Bernoulli variants,
and the symmetric table of positive integers counted by barred Callan
sequences.

Every value is computed exactly; whenever a value is asserted to be an
integer (or a positive integer), that fact is checked after the fact and a
ConsistencyError is raised on failure.  No rounding happens anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

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


def _require_integer(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ConsistencyError(f"{what} extracted a non-integer {value}; series bug")
    return int(value)


def _genocchi_egf(order: int) -> TruncatedSeries:
    """2t / (e^t + 1) truncated at `order`, from one series division."""
    if order < 0:
        raise ValueError("genocchi index must be nonnegative")
    numerator = (
        TruncatedSeries.monomial(2, 1, order) if order >= 1 else TruncatedSeries.zero(0)
    )
    denominator = exp_series(order) + TruncatedSeries.constant(1, order)
    return numerator.divide(denominator)


@lru_cache(maxsize=None)
def genocchi(n: int) -> int:
    """The n-th Genocchi number, from the EGF 2t / (e^t + 1)."""
    return _require_integer(_genocchi_egf(n).egf_coefficient(n), f"genocchi({n})")


def genocchi_list(max_n: int) -> list[int]:
    """Genocchi numbers 0..max_n, computed in one series division."""
    quotient = _genocchi_egf(max_n)
    return [
        _require_integer(quotient.egf_coefficient(i), f"genocchi({i})")
        for i in range(max_n + 1)
    ]


def _polylog_of_w(k: int, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """(w, Li_k(w)) with w = 1 - e^{-t}, both truncated at `order`."""
    w = one_minus_exp_neg(order)
    return w, polylog_series(k, order).compose(w)


# The coefficient [t^n] of a quotient does not depend on the order it is
# truncated at, so one compose and one divide at order max_n + 1 give the
# values n = 0..max_n of a column, where the single values pay both per n.
# The divisors have valuation 1: one extra term pays for the division.


def _b_quotient(k: int, order: int) -> TruncatedSeries:
    """Li_k(1 - e^{-t}) / (1 - e^{-t}), reported at order - 1."""
    w, numerator = _polylog_of_w(k, order)
    return numerator.divide(w)


def _c_quotient(k: int, order: int) -> TruncatedSeries:
    """Li_k(1 - e^{-t}) / (e^t - 1), reported at order - 1."""
    _, numerator = _polylog_of_w(k, order)
    return numerator.divide(expm1_series(order))


@lru_cache(maxsize=None)
def poly_bernoulli_b(n: int, k: int) -> Fraction:
    """B-variant poly-Bernoulli number: n! [t^n] Li_k(1 - e^{-t}) / (1 - e^{-t})."""
    if n < 0:
        raise ValueError("poly_bernoulli_b index n must be nonnegative")
    return _b_quotient(k, n + 1).egf_coefficient(n)


def poly_bernoulli_b_column(k: int, max_n: int) -> list[Fraction]:
    """poly_bernoulli_b(n, k) for n = 0..max_n, from one compose and one divide."""
    if max_n < 0:
        raise ValueError("poly_bernoulli_b index n must be nonnegative")
    quotient = _b_quotient(k, max_n + 1)
    return [quotient.egf_coefficient(n) for n in range(max_n + 1)]


@lru_cache(maxsize=None)
def poly_bernoulli_c(n: int, k: int) -> Fraction:
    """C-variant poly-Bernoulli number: n! [t^n] Li_k(1 - e^{-t}) / (e^t - 1).

    k = 1 reproduces the ordinary Bernoulli numbers (with value -1/2 at n = 1).
    """
    if n < 0:
        raise ValueError("poly_bernoulli_c index n must be nonnegative")
    return _c_quotient(k, n + 1).egf_coefficient(n)


@lru_cache(maxsize=None)
def c_number(n: int, k: int) -> int:
    """The positive integer C_n^k = C-variant poly-Bernoulli at upper index -k-1.

    These are the counts of barred Callan sequences with k blue and n red
    elements; the table is symmetric in (n, k).
    """
    if n < 0 or k < 0:
        raise ValueError("c_number indices must be nonnegative")
    return _positive_c(poly_bernoulli_c(n, -k - 1), n, k)


def _positive_c(value: Fraction, n: int, k: int) -> int:
    """C_n^k from its poly-Bernoulli value, checked to be a positive integer."""
    result = _require_integer(value, f"c_number({n}, {k})")
    if result <= 0:
        raise ConsistencyError(f"c_number({n}, {k}) = {result} is not positive; series bug")
    return result


def c_column(k: int, max_n: int) -> list[int]:
    """c_number(n, k) for n = 0..max_n, from one compose and one divide."""
    if max_n < 0 or k < 0:
        raise ValueError("c_number indices must be nonnegative")
    quotient = _c_quotient(-k - 1, max_n + 1)
    return [_positive_c(quotient.egf_coefficient(n), n, k) for n in range(max_n + 1)]


def c_table(max_n: int, max_k: int) -> list[list[int]]:
    """Rows n = 0..max_n, columns k = 0..max_k of c_number, built column
    by column."""
    if max_n < 0 or max_k < 0:
        raise ValueError("c_table sizes must be nonnegative")
    return [list(row) for row in zip(*(c_column(k, max_n) for k in range(max_k + 1)))]
