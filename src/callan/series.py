"""Truncated formal power series over exact rationals.

A series is a fixed-length window of coefficients c_0..c_N (N = the order).
All arithmetic is exact; nothing is ever rounded.  Coefficients are stored
and returned as fractions.Fraction, but the product, quotient and
composition kernels run their inner loops on Python ints: each operand is
rewritten as integer numerators over one common denominator (the lcm of its
coefficient denominators), and a Fraction is built, once, per output
coefficient.  Binary operations require both operands to share the same
order so that truncation effects stay explicit at call sites.
"""

from __future__ import annotations

from fractions import Fraction
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


def _as_fraction_tuple(coefficients: Iterable[Scalar]) -> tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in coefficients)


def _over_common_denominator(coefficients: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Integer numerators over the lcm of the denominators: c_i = nums[i] / den."""
    den = 1
    for c in coefficients:  # a loop, not lcm(*...): no argument tuple per call
        if den % c.denominator:
            den = lcm(den, c.denominator)
    return [c.numerator * (den // c.denominator) for c in coefficients], den


class TruncatedSeries:
    """Coefficients c_0..c_order of a formal power series, exact rationals."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[Scalar]):
        coeffs = _as_fraction_tuple(coefficients)
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def _exact(cls, fractions: Iterable[Fraction]) -> "TruncatedSeries":
        """A series from Fractions as they are, skipping the conversion."""
        series = object.__new__(cls)
        object.__setattr__(series, "coefficients", tuple(fractions))
        return series

    # -- basic structure ---------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, i: int) -> Fraction:
        if not 0 <= i <= self.order:
            raise IndexError(f"coefficient index {i} outside truncation order {self.order}")
        return self.coefficients[i]

    def valuation(self) -> int:
        """Index of the first nonzero coefficient; order+1 if identically zero."""
        for i, c in enumerate(self.coefficients):
            if c:
                return i
        return self.order + 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

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
        coeffs = [Fraction(0)] * (order + 1)
        coeffs[power] = Fraction(coefficient)
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
        return TruncatedSeries(a + b for a, b in zip(self.coefficients, other.coefficients))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other, "sub")
        return TruncatedSeries(a - b for a, b in zip(self.coefficients, other.coefficients))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(-c for c in self.coefficients)

    def __mul__(self, other: Union["TruncatedSeries", Scalar]) -> "TruncatedSeries":
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries(c * other for c in self.coefficients)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_order(other, "mul")
        n = self.order
        a, a_den = _over_common_denominator(self.coefficients)
        b, b_den = _over_common_denominator(other.coefficients)
        b_rev = b[::-1]
        den = a_den * b_den
        # c_k = sum_{i<=k} a_i b_{k-i}: zip a against the last k+1 of b reversed
        return TruncatedSeries._exact(
            Fraction(sum(map(mul, a, b_rev[n - k:])), den) for k in range(n + 1)
        )

    __rmul__ = __mul__

    def divide(self, divisor: "TruncatedSeries") -> "TruncatedSeries":
        """Exact quotient q with q * divisor == self through order (order - v),
        where v = divisor.valuation().  Requires self.valuation() >= v.

        Both leading t**v factors are cancelled, so quotients like t/t or
        Li-type numerators over (1 - e^{-t}) stay exact.  The result is
        reported at order (self.order - v).
        """
        if not isinstance(divisor, TruncatedSeries):
            raise TypeError("divide expects a TruncatedSeries divisor")
        self._require_same_order(divisor, "divide")
        if divisor.is_zero():
            raise ZeroDivisionError("division by an identically zero truncated series")
        v = divisor.valuation()
        if not self.is_zero() and self.valuation() < v:
            raise ValueError(
                f"divide: dividend valuation {self.valuation()} below divisor valuation {v}"
            )
        n = self.order - v
        num, num_den = _over_common_denominator(self.coefficients[v:])
        den, den_den = _over_common_denominator(divisor.coefficients[v:])
        lead, den_rev = den[0], den[::-1]
        # q_j = q_nums[j] / q_den for j < i, q_den the lcm of their denominators;
        # with d_l = den[l] / den_den and a_i = num[i] / num_den,
        # q_i = (a_i - sum_{j<i} q_j d_{i-j}) / d_0 in one normalising Fraction.
        # Reducing every q_i keeps powers of d_0 out of the running numbers.
        q: list[Fraction] = []
        q_nums: list[int] = []
        q_den = 1
        for i in range(n + 1):
            s = sum(map(mul, q_nums, den_rev[n - i:n]))
            qi = Fraction(num[i] * q_den * den_den - s * num_den, num_den * q_den * lead)
            q.append(qi)
            if q_den % qi.denominator:
                grown = lcm(q_den, qi.denominator)
                scale = grown // q_den
                q_nums = [x * scale for x in q_nums]
                q_den = grown
            q_nums.append(qi.numerator * (q_den // qi.denominator))
        return TruncatedSeries._exact(q)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(t)), truncated; inner must have zero constant term."""
        if not isinstance(inner, TruncatedSeries):
            raise TypeError("compose expects a TruncatedSeries argument")
        self._require_same_order(inner, "compose")
        if inner.coefficients[0] != 0:
            raise ValueError("compose: inner series must have zero constant term")
        n = self.order
        outer = self.coefficients
        inner_nums, inner_den = _over_common_denominator(inner.coefficients)
        inner_rev = inner_nums[::-1]
        # Integer Horner: acc_i = c_i + inner * acc_{i+1}, kept as numerators
        # `acc` over `den`.  acc_i is later multiplied by inner**i, whose
        # valuation is >= i, so only its coefficients up to t**(n-i) matter.
        acc, den = [outer[n].numerator], outer[n].denominator
        for i in range(n - 1, -1, -1):
            # [t^j] inner * acc = sum_{l=1..j} inner_l acc_{j-l}; inner_0 = 0
            step = [0] + [sum(map(mul, acc, inner_rev[n - j:n])) for j in range(1, n - i + 1)]
            den *= inner_den
            c = outer[i]
            if den % c.denominator:
                grown = lcm(den, c.denominator)
                scale = grown // den
                step = [x * scale for x in step]
                den = grown
            step[0] = c.numerator * (den // c.denominator)
            g = den
            for x in step:
                if g == 1:
                    break
                g = gcd(g, x)
            if g > 1:
                step = [x // g for x in step]
                den //= g
            acc = step
        return TruncatedSeries._exact(Fraction(x, den) for x in acc)

    def egf_coefficient(self, n: int) -> Fraction:
        """n! * c_n, the value whose EGF this series is."""
        return self.coefficient(n) * factorial(n)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coefficients)

    def __repr__(self) -> str:
        body = ", ".join(str(c) for c in self.coefficients)
        return f"TruncatedSeries([{body}])"


def exp_series(order: int) -> TruncatedSeries:
    """e^t truncated at `order`."""
    return TruncatedSeries(Fraction(1, factorial(i)) for i in range(order + 1))


def expm1_series(order: int) -> TruncatedSeries:
    """e^t - 1 truncated at `order` (valuation 1)."""
    coeffs = [Fraction(0)] + [Fraction(1, factorial(i)) for i in range(1, order + 1)]
    return TruncatedSeries(coeffs)


def one_minus_exp_neg(order: int) -> TruncatedSeries:
    """1 - e^{-t} truncated at `order` (valuation 1)."""
    coeffs = [Fraction(0)] + [
        Fraction(-((-1) ** i), factorial(i)) for i in range(1, order + 1)
    ]
    return TruncatedSeries(coeffs)


def polylog_series(k: int, order: int) -> TruncatedSeries:
    """The polylogarithm Li_k(z) = sum_{m>=1} z^m / m^k as a series in z.

    For k <= 0 the coefficients are the integers m^(-k); for k >= 1 they are
    exact unit fractions 1/m^k.
    """
    coeffs = [Fraction(0)]
    for m in range(1, order + 1):
        if k >= 0:
            coeffs.append(Fraction(1, m**k))
        else:
            coeffs.append(Fraction(m ** (-k)))
    return TruncatedSeries(coeffs)
