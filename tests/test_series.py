from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from callan.series import (
    TruncatedSeries,
    exp_series,
    expm1_series,
    one_minus_exp_neg,
    polylog_series,
)

F = Fraction


def series(coeffs):
    return TruncatedSeries(tuple(F(c) for c in coeffs))


def test_exp_coefficients():
    e = exp_series(5)
    assert [e.coefficient(i) for i in range(6)] == [
        F(1), F(1), F(1, 2), F(1, 6), F(1, 24), F(1, 120)
    ]
    assert all(e.egf_coefficient(i) == 1 for i in range(6))


def test_exp_times_exp_neg_is_one():
    n = 12
    exp_neg = TruncatedSeries.constant(1, n) - one_minus_exp_neg(n)
    prod = exp_series(n) * exp_neg
    assert prod == TruncatedSeries.constant(F(1), n)


def test_exp_squared():
    # e^t * e^t = e^{2t}: coefficients 2^i / i!
    sq = exp_series(3) * exp_series(3)
    assert list(sq) == [F(1), F(2), F(2), F(4, 3)]


def test_scalar_multiplication():
    s = series([1, 2, 3])
    assert 2 * s == series([2, 4, 6])
    assert s * F(1, 2) == series([F(1, 2), 1, F(3, 2)])


def test_addition_and_negation():
    a, b = series([1, 0, 2]), series([0, 5, -2])
    assert a + b == series([1, 5, 0])
    assert a - a == TruncatedSeries.zero(2)
    assert -(a - b) == b - a


def test_mismatched_orders_rejected():
    with pytest.raises(ValueError):
        series([1, 2]) + series([1, 2, 3])
    with pytest.raises(ValueError):
        series([1, 2]) * series([1, 2, 3])


def test_divide_shifts_common_valuation():
    # (e^t - 1) / t has coefficients 1/(i+1)!
    num = expm1_series(6)
    den = TruncatedSeries.monomial(F(1), 1, 6)
    q = num.divide(den)
    assert q.order == 5
    assert [q.coefficient(i) for i in range(3)] == [F(1), F(1, 2), F(1, 6)]


def test_divide_errors():
    with pytest.raises(ZeroDivisionError):
        exp_series(4).divide(TruncatedSeries.zero(4))
    with pytest.raises(ValueError):
        # numerator valuation below denominator valuation
        exp_series(4).divide(TruncatedSeries.monomial(F(1), 1, 4))


def test_compose_requires_zero_constant_term():
    with pytest.raises(ValueError):
        exp_series(4).compose(exp_series(4))


def test_compose_polylog_with_one_minus_exp_neg():
    """Li_k evaluated at 1-e^{-t} equals the term-by-term substituted sum."""
    n = 8
    inner = one_minus_exp_neg(n)
    for k in (-2, -1, 0, 1, 2):
        composed = polylog_series(k, n).compose(inner)
        acc = TruncatedSeries.zero(n)
        power = TruncatedSeries.constant(F(1), n)
        for m in range(1, n + 1):
            power = power * inner
            weight = F(1, m**k) if k >= 0 else F(m ** (-k))
            acc = acc + weight * power
        assert composed == acc


def test_polylog_small_values():
    li1 = polylog_series(1, 4)
    assert list(li1) == [F(0), F(1), F(1, 2), F(1, 3), F(1, 4)]
    li_neg1 = polylog_series(-1, 4)
    assert list(li_neg1) == [F(0), F(1), F(2), F(3), F(4)]


def test_valuation():
    assert TruncatedSeries.monomial(F(3), 2, 5).valuation() == 2
    assert TruncatedSeries.zero(3).valuation() == 4
    assert exp_series(3).valuation() == 0


small_series = st.builds(
    lambda cs: series(cs),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=5, max_size=5),
)


@given(small_series, small_series)
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(small_series, small_series, small_series)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@given(small_series)
def test_multiplicative_identity(a):
    one = TruncatedSeries.constant(F(1), a.order)
    assert a * one == a


@given(small_series)
def test_division_undoes_multiplication(a):
    den = series([1, 3, -2, 0, 5])  # unit: nonzero constant term
    assert (a * den).divide(den) == a
