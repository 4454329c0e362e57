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


def _require_integer(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ConsistencyError(f"{what} extracted a non-integer {value}; series bug")
    return int(value)


def _genocchi_egf(order: int, prefix: TruncatedSeries | None) -> TruncatedSeries:
    """2t / (e^t + 1) truncated at `order`, from one series division."""
    numerator = (
        TruncatedSeries.monomial(2, 1, order) if order >= 1 else TruncatedSeries.zero(0)
    )
    denominator = exp_series(order) + TruncatedSeries.constant(1, order)
    return numerator.divide(denominator, prefix)


def _powers_of_w(order: int, prefix: PowerTable | None) -> PowerTable:
    """w, w², …, w^order with w = 1 - e^{-t}, truncated at `order`."""
    return PowerTable(one_minus_exp_neg(order), prefix)


def _polylog_of_w(k: int, order: int, prefix: TruncatedSeries | None) -> TruncatedSeries:
    """Li_k(w) = sum_j j^{-k} w^j with w = 1 - e^{-t}, truncated at `order`
    and read from the stored powers of w.  For a quotient growing from
    `prefix` the coefficients that built it, through index
    prefix.order + 1, are left 0."""
    start = 0 if prefix is None else prefix.order + 2
    return _quotient(order, "w").evaluate(polylog_series(k, order), start)


# The divisors below have valuation 1: one extra term pays for the division.


def _b_quotient(k: int, order: int, prefix: TruncatedSeries | None) -> TruncatedSeries:
    """Li_k(1 - e^{-t}) / (1 - e^{-t}) truncated at `order`."""
    return _polylog_of_w(k, order + 1, prefix).divide(one_minus_exp_neg(order + 1), prefix)


def _c_quotient(k: int, order: int, prefix: TruncatedSeries | None) -> TruncatedSeries:
    """Li_k(1 - e^{-t}) / (e^t - 1) truncated at `order`."""
    return _polylog_of_w(k, order + 1, prefix).divide(expm1_series(order + 1), prefix)


# The coefficient [t^n] of a quotient does not depend on the order it is
# truncated at.  So one store keeps one quotient per series, at the largest
# order asked so far, under ("g",), ("b", k) or ("c", k) for the upper
# index k; c_number(n, k) reads ("c", -k-1).  A value or a column whose
# order the stored quotient covers reads it.  Any other grows the stored
# quotient to exactly its own order, n or max_n: the division resumes past
# the stored coefficients, so each coefficient of a series is computed once
# however the lookups are ordered, and the longer quotient replaces the
# stored one.  Every B and C column takes its numerator Li_k(w) from the
# powers of w stored under ("w",) by the same policy: [t^i] w^j does not
# depend on the order either, so a lower order reads a prefix of the
# stored table and a higher one adds only the new columns.  A quotient
# growing by one term then costs one new coefficient of Li_k(w), one step
# of the division and, for the first series to reach that order, one
# column of the table; a cold build is growth from nothing.
_BUILDERS = {"g": _genocchi_egf, "b": _b_quotient, "c": _c_quotient, "w": _powers_of_w}
_quotients: dict[tuple, TruncatedSeries | PowerTable] = {}


def _quotient(order: int, family: str, *k: int) -> TruncatedSeries | PowerTable:
    """The stored quotient of the series (family, *k), or the stored powers
    of w, covering `order`, grown from the stored one if that falls short."""
    key = (family, *k)
    stored = _quotients.get(key)
    if stored is None or stored.order < order:
        stored = _quotients[key] = _BUILDERS[family](*k, order, stored)
    return stored


def genocchi(n: int) -> int:
    """The n-th Genocchi number, from the EGF 2t / (e^t + 1)."""
    if n < 0:
        raise ValueError("genocchi index must be nonnegative")
    return _genocchi_value(_quotient(n, "g"), n)


def _genocchi_value(quotient: TruncatedSeries, n: int) -> int:
    return _require_integer(quotient.egf_coefficient(n), f"genocchi({n})")


def genocchi_list(max_n: int) -> list[int]:
    """Genocchi numbers 0..max_n, read from one series division."""
    if max_n < 0:
        raise ValueError("genocchi index must be nonnegative")
    quotient = _quotient(max_n, "g")
    return [_genocchi_value(quotient, i) for i in range(max_n + 1)]


def poly_bernoulli_b(n: int, k: int) -> Fraction:
    """B-variant poly-Bernoulli number: n! [t^n] Li_k(1 - e^{-t}) / (1 - e^{-t})."""
    if n < 0:
        raise ValueError("poly_bernoulli_b index n must be nonnegative")
    return _quotient(n, "b", k).egf_coefficient(n)


def poly_bernoulli_b_column(k: int, max_n: int) -> list[Fraction]:
    """poly_bernoulli_b(n, k) for n = 0..max_n, read from one quotient."""
    if max_n < 0:
        raise ValueError("poly_bernoulli_b index n must be nonnegative")
    quotient = _quotient(max_n, "b", k)
    return [quotient.egf_coefficient(n) for n in range(max_n + 1)]


def poly_bernoulli_c(n: int, k: int) -> Fraction:
    """C-variant poly-Bernoulli number: n! [t^n] Li_k(1 - e^{-t}) / (e^t - 1).

    k = 1 reproduces the ordinary Bernoulli numbers (with value -1/2 at n = 1).
    """
    if n < 0:
        raise ValueError("poly_bernoulli_c index n must be nonnegative")
    return _quotient(n, "c", k).egf_coefficient(n)


def c_number(n: int, k: int) -> int:
    """The positive integer C_n^k = C-variant poly-Bernoulli at upper index -k-1.

    These are the counts of barred Callan sequences with k blue and n red
    elements; the table is symmetric in (n, k).
    """
    if n < 0 or k < 0:
        raise ValueError("c_number indices must be nonnegative")
    return _positive_c(_quotient(n, "c", -k - 1).egf_coefficient(n), n, k)


def _positive_c(value: Fraction, n: int, k: int) -> int:
    """C_n^k from its poly-Bernoulli value, checked to be a positive integer."""
    result = _require_integer(value, f"c_number({n}, {k})")
    if result <= 0:
        raise ConsistencyError(f"c_number({n}, {k}) = {result} is not positive; series bug")
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
