"""Directed-rounded rational enclosures for roots and rational powers.

Several inequality checks involve constants like 2**(2/3) or K**(-1/6) that
are irrational.  To keep every comparison auditable we never evaluate them in
floating point; instead each such quantity is enclosed in a rational interval
[lo, hi] with lo <= value <= hi, computed from integer n-th roots.  Interval
widening can only make a precondition stricter and a conclusion check more
conservative, so "holds" verdicts derived from these intervals are sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

# 10**-DIGITS is the enclosure width per root extraction.
DIGITS = 30


@dataclass(frozen=True, slots=True)
class Interval:
    """Rational interval [lo, hi] enclosing a real value.

    Interval - Interval and Interval * Interval are the arithmetic; scale
    multiplies by a rational.  No other operator is defined, so every other
    one, and - or * with an operand that is not an Interval, raises
    TypeError."""

    lo: Fraction
    hi: Fraction

    @staticmethod
    def exact(value) -> "Interval":
        f = Fraction(value)
        return Interval(f, f)

    def __sub__(self, other: "Interval") -> "Interval":
        if not isinstance(other, Interval):
            return NotImplemented
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        if not isinstance(other, Interval):
            return NotImplemented
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    def inverse(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval straddles zero")
        return Interval(1 / self.hi, 1 / self.lo)

    def scale(self, c) -> "Interval":
        c = Fraction(c)
        if c >= 0:
            return Interval(self.lo * c, self.hi * c)
        return Interval(self.hi * c, self.lo * c)


def integer_nth_root(m: int, n: int) -> int:
    """Largest r >= 0 with r**n <= m, for integers m >= 0, n >= 1.

    Pure-integer Newton iteration; floats would lose whole digits at the
    magnitudes the enclosures use.
    """
    if m < 0 or n < 1:
        raise ValueError("need m >= 0 and n >= 1")
    if m < 2 or n == 1:
        return m
    x = 1 << -(-m.bit_length() // n)  # 2**ceil(bits/n) >= m**(1/n)
    while True:
        y = ((n - 1) * x + m // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    while x**n > m:
        x -= 1
    while (x + 1) ** n <= m:
        x += 1
    return x


def root_interval(q, n: int) -> Interval:
    """Enclosure of q**(1/n) for rational q >= 0 and integer n >= 1."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return Interval(Fraction(0), Fraction(0))
    scale = 10**DIGITS
    m = (q.numerator * scale**n) // q.denominator
    lo = integer_nth_root(m, n)
    hi = integer_nth_root(m + 1, n) + 1
    return Interval(Fraction(lo, scale), Fraction(hi, scale))


def power_interval(q, num: int, den: int) -> Interval:
    """Enclosure of q**(num/den) for rational q > 0 and integers num, den >= 1.

    Negative exponents are handled by inverting the positive-power enclosure.
    """
    q = Fraction(q)
    if q <= 0:
        raise ValueError("base must be positive")
    if den < 1:
        raise ValueError("denominator must be >= 1")
    if num < 0:
        return power_interval(q, -num, den).inverse()
    if num == 0:
        return Interval.exact(1)
    return root_interval(q**num, den)

