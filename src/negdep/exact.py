"""Exact arithmetic substrate: rational helpers and a primality test.

Every probability produced by the analyzer is a ``fractions.Fraction``,
computed on integers over a known common denominator (the continuous torus
shift included: its arc overlaps are integers on a grid 1/D).  Floats never
enter the exact path; they only appear in sampler exports and in the
variance lab.
"""

from fractions import Fraction

__all__ = [
    "Rational",
    "is_prime",
    "parse_rational",
    "format_rational",
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
    rejected so they can never leak into the exact path.  A zero
    denominator ("1/0") raises ValueError, like any other malformed text.
    """
    if isinstance(text, float):
        raise TypeError("refusing to parse a binary float into the exact path")
    if isinstance(text, (Fraction, int)):
        return Fraction(text)
    text = text.strip()
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def format_rational(x: Fraction) -> str:
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"
