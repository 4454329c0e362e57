"""Truncated formal power series over exact rationals.

A series is a fixed-length window of coefficients c_0..c_N (N = the order).
All arithmetic is exact (fractions.Fraction); nothing is ever rounded.
Binary operations require both operands to share the same order so that
truncation effects stay explicit at call sites.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
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


class TruncatedSeries:
    """Coefficients c_0..c_order of a formal power series, exact rationals."""

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[Scalar]):
        coeffs = _as_fraction_tuple(coefficients)
        if not coeffs:
            raise ValueError("a truncated series needs at least the constant coefficient")
        object.__setattr__(self, "coefficients", coeffs)

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
        a, b = self.coefficients, other.coefficients
        out = [Fraction(0)] * (n + 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j in range(n + 1 - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        return TruncatedSeries(out)

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
        num = self.coefficients[v:]
        den = divisor.coefficients[v:]
        lead = den[0]
        q = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            acc = num[i] if i < len(num) else Fraction(0)
            for j in range(i):
                dj = den[i - j] if i - j < len(den) else Fraction(0)
                if dj and q[j]:
                    acc -= q[j] * dj
            q[i] = acc / lead
        return TruncatedSeries(q)

    def compose(self, inner: "TruncatedSeries") -> "TruncatedSeries":
        """self(inner(t)), truncated; inner must have zero constant term."""
        if not isinstance(inner, TruncatedSeries):
            raise TypeError("compose expects a TruncatedSeries argument")
        self._require_same_order(inner, "compose")
        if inner.coefficients[0] != 0:
            raise ValueError("compose: inner series must have zero constant term")
        n = self.order
        # Horner evaluation keeps the truncation exact because inner has
        # valuation >= 1: higher powers cannot pollute low coefficients.
        acc = TruncatedSeries.constant(self.coefficients[n], n)
        for i in range(n - 1, -1, -1):
            acc = acc * inner + TruncatedSeries.constant(self.coefficients[i], n)
        return acc

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
