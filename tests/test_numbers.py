import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from callan.numbers import (
    genocchi,
    genocchi_list,
    poly_bernoulli_b,
    poly_bernoulli_c,
    c_number,
    c_table,
)

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
    # c_table builds each column from one series division; c_number
    # divides once per cell
    assert c_table(max_n, max_k) == [
        [c_number(n, k) for k in range(max_k + 1)] for n in range(max_n + 1)
    ]


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
