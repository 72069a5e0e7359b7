"""Exact arithmetic substrate: rational helpers, a primality test and circle
(torus) geometry.

Every probability produced by the analyzer is a ``fractions.Fraction``.
Floats never enter the exact path; they only appear in sampler exports and
in the variance lab.
"""

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "Rational",
    "is_prime",
    "parse_rational",
    "format_rational",
    "torus_dist",
    "CircularInterval",
    "circular_overlap",
]

# Exact probabilities are plain stdlib fractions (arbitrary precision,
# normalized with positive denominator, which is exactly the contract).
Rational = Fraction


def is_prime(n: int) -> bool:
    """Trial-division primality test; moduli here stay small (a few hundred)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def parse_rational(text: str) -> Fraction:
    """Parse "num/den", integer, or decimal strings into an exact rational.

    Decimal strings are read exactly ("0.6" -> 3/5); binary floats are
    rejected so they can never leak into the exact path.
    """
    if isinstance(text, float):
        raise TypeError("refusing to parse a binary float into the exact path")
    if isinstance(text, (Fraction, int)):
        return Fraction(text)
    return Fraction(text.strip())


def format_rational(x: Fraction) -> str:
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def torus_dist(x, y) -> Fraction:
    """Distance on the circle T^1: min of the two arc lengths between x, y."""
    x, y = Fraction(x), Fraction(y)
    if not (0 <= x < 1 and 0 <= y < 1):
        raise ValueError("torus coordinates must lie in [0, 1)")
    hi, lo = (x, y) if x >= y else (y, x)
    return min(hi - lo, 1 - hi + lo)


@dataclass(frozen=True)
class CircularInterval:
    """Half-open arc [start, start+length) on the unit circle.

    start lies in [0,1); length in [0,1]. start+length > 1 wraps past 1.
    """

    start: Fraction
    length: Fraction

    def __post_init__(self):
        object.__setattr__(self, "start", Fraction(self.start))
        object.__setattr__(self, "length", Fraction(self.length))
        if not 0 <= self.start < 1:
            raise ValueError("start must lie in [0, 1)")
        if not 0 <= self.length <= 1:
            raise ValueError("length must lie in [0, 1]")

    def segments(self) -> list:
        """The arc as one or two linear half-open pieces inside [0, 1)."""
        end = self.start + self.length
        if end <= 1:
            return [(self.start, end)]
        return [(self.start, Fraction(1)), (Fraction(0), end - 1)]


def circular_overlap(a: CircularInterval, b: CircularInterval) -> Fraction:
    """Lebesgue measure of the intersection of two arcs on the circle."""
    total = Fraction(0)
    for lo1, hi1 in a.segments():
        for lo2, hi2 in b.segments():
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if hi > lo:
                total += hi - lo
    return total
