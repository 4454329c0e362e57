from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


# -- test-only oracle: the plain per-term Fraction loops the integer kernels
# replaced, on coefficient sequences.


def oracle_mul(a, b):
    n = len(a) - 1
    out = [F(0)] * (n + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(n + 1 - i):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def oracle_divide(num, den):
    """Quotient of num by den after cancelling den's leading t**v."""
    v = next(i for i, c in enumerate(den) if c)
    num, den = num[v:], den[v:]
    q = [F(0)] * len(num)
    for i in range(len(num)):
        acc = num[i]
        for j in range(i):
            if den[i - j] and q[j]:
                acc -= q[j] * den[i - j]
        q[i] = acc / den[0]
    return q


def oracle_compose(outer, inner):
    n = len(outer) - 1
    acc = [outer[n]] + [F(0)] * n
    for i in range(n - 1, -1, -1):
        acc = oracle_mul(acc, inner)
        acc[0] += outer[i]
    return acc


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)
nonzero_rationals = rationals.filter(bool)


@st.composite
def rational_series(draw, order, valuation=0):
    """A series of the given order whose first `valuation` coefficients are 0."""
    size = order + 1 - valuation
    return [F(0)] * valuation + draw(st.lists(rationals, min_size=size, max_size=size))


orders = st.integers(min_value=0, max_value=20)


@settings(max_examples=60)
@given(st.data())
def test_mul_matches_oracle_on_rationals(data):
    n = data.draw(orders)
    a, b = data.draw(rational_series(n)), data.draw(rational_series(n))
    assert list(series(a) * series(b)) == oracle_mul(a, b)


@settings(max_examples=60)
@given(st.data())
def test_divide_matches_oracle_on_rationals(data):
    n = data.draw(orders)
    v = data.draw(st.integers(min_value=0, max_value=min(n, 3)))
    den = [F(0)] * v + [data.draw(nonzero_rationals)] + data.draw(rational_series(n - v - 1))
    num = data.draw(st.one_of(st.just([F(0)] * (n + 1)), rational_series(n, v)))
    q = series(num).divide(series(den))
    assert q.order == n - v
    assert list(q) == oracle_divide(num, den)


@settings(max_examples=60)
@given(st.data())
def test_compose_matches_oracle_on_rationals(data):
    n = data.draw(orders)
    outer = data.draw(rational_series(n))
    inner = data.draw(rational_series(n, 1))
    assert list(series(outer).compose(series(inner))) == oracle_compose(outer, inner)


@pytest.mark.parametrize(
    "num, den",
    [
        # lead other than 1
        ([F(1), F(2, 3), F(-5, 7), F(1, 2)], [F(-3, 4), F(1, 6), F(0), F(9, 5)]),
        # valuation >= 1 on both sides, lead 5/2
        ([F(0), F(0), F(7, 3), F(-1, 9)], [F(0), F(0), F(5, 2), F(1, 4)]),
        # zero dividend over a valuation-1 divisor
        ([F(0)] * 5, [F(0), F(3, 2), F(-1, 5), F(0), F(2)]),
    ],
    ids=["lead", "valuation", "zero-dividend"],
)
def test_divide_divisor_cases_match_oracle(num, den):
    assert list(series(num).divide(series(den))) == oracle_divide(num, den)


def test_divide_by_exp_plus_one_at_order_80():
    # 2t / (e^t + 1): the Genocchi EGF, lead 2 and denominators up to 80!
    n = 80
    den = list(exp_series(n) + TruncatedSeries.constant(1, n))
    num = [F(0), F(2)] + [F(0)] * (n - 1)
    assert list(series(num).divide(series(den))) == oracle_divide(num, den)
    one = list(exp_series(n))
    assert list(series(one).divide(series(den))) == oracle_divide(one, den)



def test_series_builds_one_fraction_per_coefficient_read(monkeypatch):
    # the kernels and the constructors work on integer numerators; only a
    # read of a coefficient builds a Fraction
    import callan.series
    from callan.numbers import c_column

    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(callan.series, "Fraction", Counted)
    column = c_column(5, 20)  # 21 values, one egf_coefficient read each
    assert column[:5] == [1, 63, 1267, 16275, 164731]
    assert len(built) <= len(column)


@settings(max_examples=60)
@given(st.data())
def test_equal_series_have_equal_storage_whatever_built_them(data):
    n = data.draw(orders)
    a = series(data.draw(rational_series(n)))
    b = series(data.draw(rational_series(n)))
    unit = series([data.draw(nonzero_rationals)] + data.draw(rational_series(n - 1)))
    routes = [
        TruncatedSeries(a.coefficients),
        TruncatedSeries(c.numerator if c.denominator == 1 else c for c in a),
        (a * unit).divide(unit),
        (a + b) - b,
        -(-a),
        (a * 6) * F(1, 6),
    ]
    for route in routes:
        assert route == a
        assert hash(route) == hash(a)
        assert TruncatedSeries(route.coefficients) == route
