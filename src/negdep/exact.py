"""Exact arithmetic substrate: rational helpers and a primality test.

Every probability produced by the analyzer is a ``fractions.Fraction``,
computed on integers over a known common denominator (the continuous torus
shift included: its arc overlaps are integers on a grid 1/D).  Floats never
enter the exact path; they only appear in sampler exports and in the
variance lab.
"""

import numbers
import sys
from decimal import Decimal
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


# Miller-Rabin with the prime bases up to 41 decides every n below this
# bound exactly (Sorenson and Webster, 2015).  Bases up to 37 alone do not:
# 318665857834031151167461 is a strong pseudoprime to all of them.
_MILLER_RABIN_BOUND = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact for n below _MILLER_RABIN_BOUND.

    A larger n raises ValueError naming the bound.
    """
    if n >= _MILLER_RABIN_BOUND:
        raise ValueError(f"primality is decided only below {_MILLER_RABIN_BOUND}, not for {n}")
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def parse_rational(value) -> Fraction:
    """value as an exact rational: the one reader of every exact input.

    Takes anything numbers.Rational (Fraction, int, numpy integers), a
    decimal.Decimal, or a "num/den", integer or decimal string, read
    exactly with any number of digits ("0.6" -> 3/5).  Binary floats,
    numpy floats included, raise TypeError so they can never leak into the
    exact path, and so does any other type.  A zero denominator ("1/0"),
    malformed text and a non-finite Decimal raise ValueError.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, str):
        try:
            with any_digits():
                return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, (numbers.Rational, Decimal)):
        try:
            return Fraction(value)
        except OverflowError:  # an infinite Decimal; a NaN raises ValueError itself
            raise ValueError(f"{value!r} is not a finite rational") from None
    raise TypeError(f"refusing {value!r} in the exact path: it takes rationals, Decimals and "
                    "strings, never a binary float")


class any_digits:
    """Lift the interpreter's int-to-str digit limit inside a with block, and restore it after.

    Exact counts and rationals can pass the limit (4300 digits by default,
    none before Python 3.10.7), which would make printing them raise.  A
    class rather than a generator context manager: format_rational enters
    it on every call, and this costs about a third as much per entry.
    """

    def __enter__(self):
        self.limit = getattr(sys, "get_int_max_str_digits", int)()  # int() is 0: no limit
        if self.limit:
            sys.set_int_max_str_digits(0)

    def __exit__(self, *exc):
        if self.limit:
            sys.set_int_max_str_digits(self.limit)


def format_rational(x: Fraction) -> str:
    """x as "num/den" in lowest terms, with any number of digits."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    with any_digits():
        return f"{x.numerator}/{x.denominator}"
