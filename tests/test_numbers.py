import math
import random
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from callan import numbers
from callan.numbers import (
    genocchi,
    genocchi_list,
    poly_bernoulli_b,
    poly_bernoulli_b_column,
    poly_bernoulli_c,
    c_column,
    c_number,
    c_table,
)
from callan.series import TruncatedSeries, expm1_series

GENOCCHI_FIRST = [0, 1, -1, 0, 1, 0, -3, 0, 17, 0, -155]

C_TABLE_5 = [
    [1, 1, 1, 1, 1, 1],
    [1, 3, 7, 15, 31, 63],
    [1, 7, 31, 115, 391, 1267],
    [1, 15, 115, 675, 3451, 16275],
    [1, 31, 391, 3451, 25231, 164731],
    [1, 63, 1267, 16275, 164731, 1441923],
]

BERNOULLI_FIRST = [
    Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
    Fraction(-1, 30), Fraction(0), Fraction(1, 42), Fraction(0),
]


def test_genocchi_first_values():
    assert genocchi_list(10) == GENOCCHI_FIRST


def test_genocchi_odd_indices_vanish():
    assert all(genocchi(2 * m + 1) == 0 for m in range(1, 11))


def test_genocchi_larger_values():
    assert genocchi(12) == 2073
    assert genocchi(14) == -38227


def test_c_table_six_by_six():
    assert c_table(5, 5) == C_TABLE_5


def test_c_table_transpose_symmetric():
    t = c_table(8, 8)
    assert t == [list(row) for row in zip(*t)]


@pytest.mark.parametrize("max_n,max_k", [(0, 0), (0, 4), (9, 2), (3, 11)])
def test_c_table_columns_equal_c_number_cells(max_n, max_k):
    # c_table reads each cell from the integer triangle over the smaller
    # index, c_column each column from one series composition and division
    table = c_table(max_n, max_k)
    assert table == [list(row) for row in zip(*(c_column(k, max_n) for k in range(max_k + 1)))]


def test_columns_equal_the_single_values_on_the_full_triangles():
    # the triangles the pb-zero (n <= 20) and thm1 (n <= 16) claims read
    # from series columns, against the single values of the integer route
    for j in range(21):
        column = poly_bernoulli_b_column(-j, 20 - j)
        assert column == [poly_bernoulli_b(n, -j) for n in range(21 - j)], j
    for j in range(17):
        column = c_column(j, 16 - j)
        assert column == [c_number(n, j) for n in range(17 - j)], j


def test_lookups_below_the_stored_order_build_nothing(kernel_calls, monkeypatch):
    # once the Stirling rows reach row 12 and the Gandhi rows A(10, 1), no
    # single lookup at n <= 11 computes a row or builds a series
    genocchi(22)
    poly_bernoulli_b(12, 3)
    poly_bernoulli_c(12, 2)
    c_number(12, 3)
    stored = {"F": len(numbers._triangles["F"]), "A": len(numbers._triangles["A"][0])}
    assert stored == {"F": 13, "A": 11}
    for name in ("_next_stirling_row", "_next_gandhi_diagonal"):
        monkeypatch.setattr(numbers, name, lambda last: pytest.fail("a row was computed"))
    lookups = (
        lambda n: genocchi(2 * n), lambda n: poly_bernoulli_b(n, -2),
        lambda n: poly_bernoulli_b(n, 3), lambda n: poly_bernoulli_c(n, 2),
        lambda n: poly_bernoulli_c(n, -4), lambda n: c_number(n, 3), lambda n: c_number(3, n),
    )
    for n in range(12):
        for lookup in lookups:
            lookup(n)
    assert kernel_calls == {}


def test_c_number_and_poly_bernoulli_c_share_one_quotient(kernel_calls):
    # at a negative upper index both read the one stored integer triangle,
    # grown to the smaller index, and no series; a column composes and
    # divides once
    assert c_number(7, 2) == poly_bernoulli_c(7, -3)
    assert poly_bernoulli_c(9, -5) == c_number(9, 4)
    assert kernel_calls == {} and list(numbers._triangles) == ["F"]
    assert len(numbers._triangles["F"]) == 5
    assert poly_bernoulli_c(8, -5) == c_column(4, 9)[8]
    assert kernel_calls == {"compose": 1, "divide": 1}


GROWN_KEYS = ["F", "A"]
_orders = st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=8)
ORDER_SEQUENCES = st.one_of(_orders.map(sorted), _orders, _orders.map(lambda xs: xs + xs))
GROW = {"F": numbers._stirling_row, "A": numbers._gandhi}


def _built_cold(key, order):
    """The triangle under `key` built from empty to row `order`, with the
    stored triangles left as they were."""
    kept = dict(numbers._triangles)
    numbers._triangles.clear()
    GROW[key](order)
    cold = numbers._triangles[key]
    numbers._triangles.clear()
    numbers._triangles.update(kept)
    return cold


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(GROWN_KEYS), ORDER_SEQUENCES)
def test_a_grown_entry_equals_the_entry_built_cold_at_its_order(key, orders):
    # the rows, and for the Gandhi rows the anti-diagonal they grow from
    numbers._triangles.clear()
    for i, order in enumerate(orders):
        GROW[key](order)
        grown = numbers._triangles[key]
        largest = max(orders[:i + 1])
        assert len(grown if key == "F" else grown[0]) == largest + 1  # exactly the rows asked
        assert grown == _built_cold(key, largest), (key, orders[:i + 1])


@pytest.fixture
def computed(monkeypatch) -> dict:
    """The rows past row 0 that each triangle computes, in order, under
    "F" and "A"."""
    indices = defaultdict(list)

    def counted_step(key, step):
        def counted(last):
            indices[key].append(len(last))  # row n grows from a row of n entries
            return step(last)
        return counted

    for key, name in (("F", "_next_stirling_row"), ("A", "_next_gandhi_diagonal")):
        monkeypatch.setattr(numbers, name, counted_step(key, getattr(numbers, name)))
    return indices


def test_single_lookups_build_at_their_own_order(monkeypatch):
    # a column at index n builds its quotient cold at order n, from
    # operands of order at most n + 1 (one extra term for a divisor of
    # valuation 1)
    operands = []
    for name in ("compose", "divide"):
        kernel = getattr(TruncatedSeries, name)
        monkeypatch.setattr(
            TruncatedSeries, name,
            lambda self, other, kernel=kernel: operands.append(other.order) or kernel(self, other),
        )
    lookups = {
        "g": (genocchi_list, 1),
        "b -3": (lambda n: poly_bernoulli_b_column(-3, n), 2),
        "b 2": (lambda n: poly_bernoulli_b_column(2, n), 2),
        "c 1": (lambda n: numbers._polylog_quotient(1, n, expm1_series), 2),
        "c -5": (lambda n: c_column(4, n), 2),
    }
    for key, (lookup, kernels) in lookups.items():
        for n in (0, 1, 6, 2, 17, 30):
            operands.clear()
            lookup(n)
            assert len(operands) == kernels and max(operands) in (n, n + 1), (key, n)
            assert all(order <= n + 1 for order in operands), (key, n)


def test_integer_route_agrees_with_the_series_columns():
    # genocchi against the series list; poly_bernoulli_b on the grid
    # n <= 80, upper indices 0..-80; and c_number and poly_bernoulli_c at
    # a negative upper index for n <= 40 and upper indices -1..-41
    # (c_number's k <= 40), each against the series columns
    assert [genocchi(n) for n in range(301)] == genocchi_list(300)
    for j in range(81):
        assert [poly_bernoulli_b(n, -j) for n in range(81)] == poly_bernoulli_b_column(-j, 80), j
    for j in range(1, 42):
        c_col = c_column(j - 1, 40)
        assert [poly_bernoulli_c(n, -j) for n in range(41)] == c_col, j
        assert [c_number(n, j - 1) for n in range(41)] == c_col, j


def test_rational_b_values_agree_with_the_series_columns():
    # poly_bernoulli_b at a nonnegative upper index reads Kaneko's sum from
    # the integer triangle, the column reads the series
    for k in range(9):
        assert [poly_bernoulli_b(n, k) for n in range(41)] == poly_bernoulli_b_column(k, 40), k


def test_rational_c_values_agree_with_the_stored_c_quotients():
    # poly_bernoulli_c at a nonnegative upper index against the C quotient
    # Li_k(1 - e^{-t}) / (e^t - 1) that the columns build for the same k
    for k in range(9):
        quotient = numbers._polylog_quotient(k, 40, expm1_series)
        expected = [quotient.egf_coefficient(n) for n in range(41)]
        assert [poly_bernoulli_c(n, k) for n in range(41)] == expected, k


def test_shuffled_repeated_integer_lookups_compute_each_row_once(computed, kernel_calls):
    # single lookups in a shuffled order, asked twice, at negative and
    # nonnegative upper indices: no series is built, each triangle row
    # and each Gandhi anti-diagonal is computed once, in order, and the
    # stored triangles equal the ones built cold at their order (B's
    # upper indices run to -40, past the rows any lookup needs)
    rng = random.Random(7)
    cells = [(n, k) for n in range(25) for k in range(25)]
    lookups = [("c", n, k) for n, k in cells] + [("b", n, -k - 16) for n, k in cells]
    lookups += [("pc", n, -k - 1) for n, k in cells] + [("g", n) for n in range(121)]
    lookups += [(f, n, k) for f in ("b", "pc") for n in range(25) for k in range(4)]
    rng.shuffle(lookups)
    functions = {"c": c_number, "b": poly_bernoulli_b, "pc": poly_bernoulli_c, "g": genocchi}
    first = [functions[f](*args) for f, *args in lookups]
    assert [functions[f](*args) for f, *args in lookups] == first
    assert computed == {"F": list(range(1, 25)), "A": list(range(1, 60))}
    assert kernel_calls == {} and set(numbers._triangles) == {"F", "A"}
    for key, order in (("F", 24), ("A", 59)):
        assert numbers._triangles[key] == _built_cold(key, order), key


@pytest.mark.parametrize("lookup,n,k,series", [
    (poly_bernoulli_b, 5, -100000, lambda: poly_bernoulli_b_column(-100000, 5)[5]),
    (c_number, 100000, 3, lambda: c_column(100000, 3)[3]),
    (c_number, 3, 100000, lambda: c_column(100000, 3)[3]),
    (poly_bernoulli_c, 100000, -4, lambda: c_column(100000, 3)[3]),
])
def test_lopsided_lookups_grow_the_triangle_to_the_smaller_index(lookup, n, k, series):
    # the larger index is only an exponent: at most min(n, |k|) + 1 rows,
    # and the value equals the series column at the smaller index
    value = lookup(n, k)
    assert list(numbers._triangles) == ["F"]
    assert len(numbers._triangles["F"]) <= min(n, abs(k)) + 1
    assert value == series()


def test_columns_refuse_negative_indices():
    for bad in (lambda: poly_bernoulli_b_column(0, -1), lambda: c_column(0, -1),
                lambda: c_column(-1, 3)):
        with pytest.raises(ValueError):
            bad()


def test_c_number_row_one():
    assert [c_number(1, k) for k in range(6)] == [1, 3, 7, 15, 31, 63]


def test_poly_bernoulli_b_known_point():
    assert poly_bernoulli_b(2, -2) == 14


def test_poly_bernoulli_b_degenerate_rows():
    # upper index 0 gives the constant sequence, -1 gives powers of two
    assert [poly_bernoulli_b(n, 0) for n in range(7)] == [1] * 7
    assert [poly_bernoulli_b(n, -1) for n in range(7)] == [2**n for n in range(7)]


def test_poly_bernoulli_c_at_one_is_bernoulli():
    assert [poly_bernoulli_c(n, 1) for n in range(8)] == BERNOULLI_FIRST


def test_bernoulli_recurrence_oracle():
    """Independent check: the k=1 column satisfies the classical
    binomial recurrence sum(comb(n+1, j) * B_j, j=0..n) = [n == 0]."""
    for n in range(0, 14):
        total = sum(
            math.comb(n + 1, j) * poly_bernoulli_c(j, 1) for j in range(n + 1)
        )
        assert total == (1 if n == 0 else 0), n


@lru_cache(maxsize=None)
def _stirling2(n, j):
    if n == 0:
        return 1 if j == 0 else 0
    if j == 0:
        return 0
    return j * _stirling2(n - 1, j) + _stirling2(n - 1, j - 1)


def _weight(j, k):
    return Fraction(1, (j + 1) ** k) if k >= 0 else Fraction((j + 1) ** (-k))


def test_stirling_closed_form_oracle_b():
    """Both families admit a finite Stirling-number expansion; computing
    it independently cross-checks the series route at every (n, k)."""
    for n in range(9):
        for k in range(-4, 5):
            expected = sum(
                (-1) ** (n + j) * _stirling2(n, j) * math.factorial(j) * _weight(j, k)
                for j in range(n + 1)
            )
            assert poly_bernoulli_b(n, k) == expected, (n, k)


def test_stirling_closed_form_oracle_c():
    for n in range(9):
        for k in range(-4, 5):
            expected = sum(
                (-1) ** (n + j)
                * _stirling2(n + 1, j + 1)
                * math.factorial(j)
                * _weight(j, k)
                for j in range(n + 1)
            )
            assert poly_bernoulli_c(n, k) == expected, (n, k)


def test_c_table_matches_stirling_formula_at_24():
    """A second route far past enumeration: C(n, k) =
    sum_r r! (r+1)! S(k+1, r+1) S(n+1, r+1)."""
    size = 24
    expected = [
        [
            sum(
                math.factorial(r) * math.factorial(r + 1)
                * _stirling2(k + 1, r + 1) * _stirling2(n + 1, r + 1)
                for r in range(min(n, k) + 1)
            )
            for k in range(size + 1)
        ]
        for n in range(size + 1)
    ]
    assert c_table(size, size) == expected


def test_c_table_matches_stirling_formula_at_80():
    # the whole 80x80 table, against the same closed form
    size = 80
    weights = [math.factorial(r) * math.factorial(r + 1) for r in range(size + 1)]
    s = [[_stirling2(i + 1, r + 1) for r in range(i + 1)] for i in range(size + 1)]
    expected = [
        [sum(w * a * b for w, a, b in zip(weights, s[n], s[k])) for k in range(size + 1)]
        for n in range(size + 1)
    ]
    assert c_table(size, size) == expected


def test_genocchi_matches_bernoulli_recurrence_to_150():
    """G_n = 2 (1 - 2^n) B_n, with B_n from sum_{j<=n} C(n+1, j) B_j = [n == 0]."""
    size = 150
    bernoulli = []
    for n in range(size + 1):
        partial = sum(math.comb(n + 1, j) * b for j, b in enumerate(bernoulli))
        bernoulli.append((Fraction(n == 0) - partial) / (n + 1))
    assert genocchi_list(size) == [2 * (1 - 2**n) * b for n, b in enumerate(bernoulli)]


def test_alternating_b_sum_vanishes():
    # the alternating diagonal sum is 1 at n=0 and 0 afterwards
    def diag(n):
        return sum((-1) ** j * poly_bernoulli_b(n - j, -j) for j in range(n + 1))

    assert diag(0) == 1
    for n in range(1, 13):
        assert diag(n) == 0, n


def test_alternating_c_diagonal_hits_genocchi():
    for n in range(0, 17):
        total = sum((-1) ** j * c_number(n - j, j) for j in range(n + 1))
        assert total == -genocchi(n + 2), n


@given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=8))
def test_c_number_symmetric(n, k):
    assert c_number(n, k) == c_number(k, n)


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
def test_c_number_positive_integer(n, k):
    value = c_number(n, k)
    assert isinstance(value, int)
    assert value >= 1


def test_negative_n_rejected():
    with pytest.raises(ValueError):
        genocchi(-1)
    with pytest.raises(ValueError):
        c_number(-1, 0)
