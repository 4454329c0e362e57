"""Truncated formal power series over exact rationals.

A series is a fixed-length window of coefficients c_0..c_N (N = the order).
All arithmetic is exact; nothing is ever rounded.  A series is stored in
the form its kernels compute on: a tuple of integer numerators over one
positive denominator, in lowest terms (the denominator is the lcm of the
reduced coefficient denominators, so equal series have equal storage).
Sums, products, quotients and compositions run on these ints and reduce
their result once; a fractions.Fraction is built only where a coefficient
is read.  Binary operations require both operands to share the same
order so that truncation effects stay explicit at call sites.  compose is
the one composition kernel: each poly-Bernoulli column in callan.numbers
is one compose and one divide.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial, gcd, lcm
from operator import mul
from typing import Iterable, Iterator, Union

__all__ = [
    "TruncatedSeries",
    "exp_series",
    "expm1_series",
    "one_minus_exp_neg",
    "polylog_series",
]

Scalar = Union[int, Fraction]


class TruncatedSeries:
    """Coefficients c_0..c_order of a formal power series, exact rationals:
    c_i = _nums[i] / _den."""

    __slots__ = ("_nums", "_den")

    def __init__(self, coefficients: Iterable[Scalar]):
        coeffs = tuple(coefficients)
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant coefficient")
        den = lcm(*(c.denominator for c in coeffs))
        self._nums = tuple(c.numerator * (den // c.denominator) for c in coeffs)
        self._den = den

    @classmethod
    def _over(cls, nums: list[int], den: int) -> "TruncatedSeries":
        """The series nums[i] / den (den > 0), reduced to lowest terms once."""
        g = gcd(den, *nums)
        if g == 1:
            return cls._lowest(nums, den)
        return cls._lowest([x // g for x in nums], den // g)

    @classmethod
    def _lowest(cls, nums: list[int], den: int) -> "TruncatedSeries":
        """The series nums[i] / den, already in lowest terms: gcd(den, *nums) == 1."""
        series = object.__new__(cls)
        series._nums, series._den = tuple(nums), den
        return series

    # -- basic structure ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(x, den) for x in self._nums)

    def coefficient(self, i: int) -> Fraction:
        self._require_index(i)
        return Fraction(self._nums[i], self._den)

    def _require_index(self, i: int) -> None:
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient index {i} outside truncation order {self.order}")

    def valuation(self) -> int:
        """Index of the first nonzero coefficient; order+1 if identically zero."""
        for i, x in enumerate(self._nums):
            if x:
                return i
        return self.order + 1

    def is_zero(self) -> bool:
        return not any(self._nums)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([0] * (order + 1))

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "TruncatedSeries":
        return cls([value] + [0] * order)

    @classmethod
    def monomial(cls, coefficient: Scalar, power: int, order: int) -> "TruncatedSeries":
        """coefficient * t**power, truncated at `order` (0 <= power <= order)."""
        if not 0 <= power <= order:
            raise ValueError(f"monomial power {power} outside order {order}")
        coeffs = [0] * (order + 1)
        coeffs[power] = coefficient
        return cls(coeffs)

    def _require_same_order(self, other: "TruncatedSeries", op: str) -> None:
        if self.order != other.order:
            raise ValueError(
                f"{op}: operand orders differ ({self.order} vs {other.order})"
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other, "add")
        return self._plus(other, 1)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other, "sub")
        return self._plus(other, -1)

    def _plus(self, other: "TruncatedSeries", sign: int) -> "TruncatedSeries":
        """self + sign * other, over the lcm of the two denominators."""
        den = lcm(self._den, other._den)
        a, b = den // self._den, sign * (den // other._den)
        return TruncatedSeries._over([x * a + y * b for x, y in zip(self._nums, other._nums)], den)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries._over([-x for x in self._nums], self._den)

    def __mul__(self, other: Union["TruncatedSeries", Scalar]) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return TruncatedSeries._over([x * p for x in self._nums], self._den * q)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other, "mul")
        n = self.order
        a, b_rev = self._nums, other._nums[::-1]
        # c_k = sum_{i<=k} a_i b_{k-i}: zip a against the last k+1 of b reversed
        return TruncatedSeries._over(
            [sum(map(mul, a, b_rev[n - k:])) for k in range(n + 1)], self._den * other._den
        )

    __rmul__ = __mul__

    def divide(self, divisor: "TruncatedSeries") -> "TruncatedSeries":
        """Exact quotient q with q * divisor == self through order (order - v),
        where v = divisor.valuation().  Requires self.valuation() >= v.

        Both leading t**v factors are cancelled, so quotients like t/t or
        Li-type numerators over (1 - e^{-t}) stay exact.  The result is
        reported at order (self.order - v), by the recurrence
        q_i = (a_i - sum_{j<i} q_j d_{i-j}) / d_0.
        """
        if not isinstance(divisor, TruncatedSeries):
            raise TypeError("divide expects a TruncatedSeries divisor")
        self._require_same_order(divisor, "divide")
        if divisor.is_zero():
            raise ZeroDivisionError("division by an identically zero truncated series")
        v = divisor.valuation()
        if any(self._nums[:v]):
            raise ValueError(
                f"divide: dividend valuation {self.valuation()} below divisor valuation {v}"
            )
        n = self.order - v
        num, num_den = self._nums[v:], self._den
        den, den_den = divisor._nums[v:], divisor._den
        lead, den_rev = den[0], den[::-1]
        # q_j = q_nums[j] / q_den for j < i, q_den the lcm of their reduced
        # denominators, in lowest terms; with d_l = den[l] / den_den and
        # a_i = num[i] / num_den,
        # q_i = (a_i - sum_{j<i} q_j d_{i-j}) / d_0 = top / bottom, reduced.
        # Reducing every q_i keeps powers of d_0 out of the running numbers.
        q_nums, q_den = [], 1
        for i in range(n + 1):
            s = sum(map(mul, q_nums, den_rev[n - i:n]))
            top = num[i] * q_den * den_den - s * num_den
            bottom = num_den * q_den * lead
            g = gcd(top, bottom) if bottom > 0 else -gcd(top, bottom)
            top, bottom = top // g, bottom // g
            if q_den % bottom:
                grown = lcm(q_den, bottom)
                scale = grown // q_den
                q_nums = [x * scale for x in q_nums]
                q_den = grown
            q_nums.append(top * (q_den // bottom))
        return TruncatedSeries._lowest(q_nums, q_den)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(t)), truncated; inner must have zero constant term."""
        if not isinstance(inner, TruncatedSeries):
            raise TypeError("compose expects a TruncatedSeries argument")
        self._require_same_order(inner, "compose")
        if inner._nums[0] != 0:
            raise ValueError("compose: inner series must have zero constant term")
        n = self.order
        outer = self._nums
        inner_den, inner_rev = inner._den, inner._nums[::-1]
        # Integer Horner on the outer numerators: acc_i = o_i + inner * acc_{i+1},
        # kept as numerators `acc` over `den`; the outer denominator is folded
        # in once at the end.  acc_i is later multiplied by inner**i, whose
        # valuation is >= i, so only its coefficients up to t**(n-i) matter.
        acc, den = [outer[n]], 1
        for i in range(n - 1, -1, -1):
            # [t^j] inner * acc = sum_{l=1..j} inner_l acc_{j-l}; inner_0 = 0
            step = [0] + [sum(map(mul, acc, inner_rev[n - j:n])) for j in range(1, n - i + 1)]
            den *= inner_den
            step[0] = outer[i] * den
            g = gcd(den, *step)
            if g > 1:
                step = [x // g for x in step]
                den //= g
            acc = step
        return TruncatedSeries._over(acc, den * self._den)

    def egf_coefficient(self, n: int) -> Fraction:
        """n! * c_n, the value whose EGF this series is."""
        self._require_index(n)
        return Fraction(self._nums[n] * factorial(n), self._den)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coefficients)

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self.coefficients)
        return f"TruncatedSeries([{body}])"


def _factorial_quotients(order: int) -> list[int]:
    """order!/i! for i = 0..order, the numerators of e^t over order!."""
    return list(accumulate(range(order, 0, -1), mul, initial=1))[::-1]


# The last numerator of each series below is ±1 (or the series is 0 over
# 1), so it is in lowest terms as built.


def exp_series(order: int) -> TruncatedSeries:
    """e^t truncated at `order`: the integers order!/i! over order!."""
    nums = _factorial_quotients(order)
    return TruncatedSeries._lowest(nums, nums[0])


def expm1_series(order: int) -> TruncatedSeries:
    """e^t - 1 truncated at `order` (valuation 1)."""
    nums = _factorial_quotients(order)
    top, nums[0] = nums[0], 0
    return TruncatedSeries._lowest(nums, top)


def one_minus_exp_neg(order: int) -> TruncatedSeries:
    """1 - e^{-t} truncated at `order` (valuation 1)."""
    nums = _factorial_quotients(order)
    top, nums[0] = nums[0], 0
    nums[2::2] = [-x for x in nums[2::2]]
    return TruncatedSeries._lowest(nums, top)


def polylog_series(k: int, order: int) -> TruncatedSeries:
    """The polylogarithm Li_k(z) = sum_{m>=1} z^m / m^k as a series in z.

    For k <= 0 the coefficients are the integers m^(-k); for k >= 1 they are
    exact unit fractions 1/m^k, stored over lcm(1..order)^k.
    """
    if k <= 0:
        return TruncatedSeries._lowest([0, *map(pow, range(1, order + 1), repeat(-k))], 1)
    top = lcm(*range(1, order + 1)) ** k
    return TruncatedSeries._over([0] + [top // m**k for m in range(1, order + 1)], top)
