import sys
from decimal import Decimal
from fractions import Fraction as F
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from negdep.analyzer import _csv_block
from negdep.exact import format_rational, is_prime, parse_rational
# the circle geometry is the torus route's test oracle, kept in test_kernel
from test_kernel import CircularInterval, circular_overlap, torus_dist


def test_is_prime_small():
    primes = [2, 3, 5, 7, 11, 13, 17, 101, 251]
    composites = [0, 1, 4, 6, 9, 15, 49, 100, 121]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))

    assert [n for n in range(5000) if is_prime(n)] == [n for n in range(5000) if trial(n)]


def test_is_prime_refutes_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37
    for n, factor in ((3215031751, 151), (3825123056546413051, 149491),
                      (318665857834031151167461, 399165290221)):
        assert n % factor == 0 and not is_prime(n)
    assert is_prime(10**18 + 3) and is_prime(2**61 - 1)


def test_is_prime_refuses_past_its_bound():
    assert not is_prime(3317044064679887385961981 - 1)  # even, and below the bound
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        is_prime(3317044064679887385961981)


def test_parse_rational_exact():
    assert parse_rational("0.6") == F(3, 5)
    assert parse_rational("3/5") == F(3, 5)
    assert parse_rational("1") == F(1)
    with pytest.raises(TypeError):
        parse_rational(0.6)


def test_parse_rational_past_the_digit_limit():
    # 5000 digits under the interpreter's default str-to-int limit, 4300,
    # which is back in place after the call
    outer = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        x = parse_rational(" 0." + "3" * 5000 + " ")
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(outer)
    assert x == F(10**5000 // 3, 10**5000)


@pytest.mark.parametrize("text", ["1/0", " 3/0 ", "0/0", "-2/0"])
def test_parse_rational_zero_denominator_is_a_value_error(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational(text)


def test_parse_rational_reads_every_exact_type():
    # numbers.Rational (numpy integers included) and Decimal, read exactly
    assert parse_rational(np.int64(3)) == 3 and type(parse_rational(np.int64(3))) is F
    assert parse_rational(np.uint8(7)) == 7
    assert parse_rational(Decimal("0.1")) == F(1, 10)
    assert parse_rational(F(2, 6)) == F(1, 3) and parse_rational(True) == 1
    for bad in (Decimal("NaN"), Decimal("-Infinity")):
        with pytest.raises(ValueError):
            parse_rational(bad)


@pytest.mark.parametrize("bad", [np.float64(0.5), np.float32(0.5), np.float16(0.5),
                                 None, b"1/2", [1, 2], 1j])
def test_parse_rational_refuses_binary_floats_and_other_types(bad):
    with pytest.raises(TypeError):
        parse_rational(bad)


def test_format_rational():
    assert format_rational(F(3, 5)) == "3/5"
    assert format_rational(F(0)) == "0/1"


def test_rationals_past_the_digit_limit_are_formatted():
    # 5000 digits under the interpreter's default limit, 4300, which is back
    # in place after each call: one rational, and a block of pairs-CSV rows
    big = 10**4999 + 1
    outer = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        text = format_rational(F(big, 3))
        assert sys.get_int_max_str_digits() == 4300
        joint = np.array([[1, 2], [2, 0]], dtype=object)
        p1, p2 = np.array([2, 1], dtype=object), np.array([1, 0], dtype=object)
        labels = np.array(["a,", "b,"], dtype=object), np.array(["c,", "d,"], dtype=object)
        rows = _csv_block(*labels, joint, joint > np.multiply.outer(p1, p2), p1, p2, 2 * big)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(outer)
    assert text == "1" + "0" * 4998 + "1/3"
    half, one = "1/2" + "0" * 4998 + "2", f"1/{text[:-2]}"
    assert rows == (f"a,c,{half},{one},False\na,d,{one},0/1,True\n"
                    f"b,c,{one},{half},True\nb,d,0/1,0/1,False\n")


def test_rational_arithmetic_exact_random_pairs():
    # cross-multiplication identity on 1e4 seeded random pairs
    import random

    rnd = random.Random(7)
    for _ in range(10**4):
        p, q = rnd.randint(-999, 999), rnd.randint(1, 999)
        r, s = rnd.randint(-999, 999), rnd.randint(1, 999)
        assert F(p, q) + F(r, s) == F(p * s + r * q, q * s)


def test_torus_dist_examples():
    assert torus_dist(F(0), F(1, 2)) == F(1, 2)
    assert torus_dist(F(3, 10), F(3, 10)) == 0
    assert torus_dist(F(1, 10), F(9, 10)) == F(1, 5)


def test_torus_dist_grid_properties():
    pts = [F(k, 20) for k in range(20)]
    for x in pts:
        for y in pts:
            d = torus_dist(x, y)
            assert d == torus_dist(y, x)
            assert 0 <= d <= F(1, 2)
    for x in pts:
        for y in pts:
            for z in pts:
                assert torus_dist(x, z) <= torus_dist(x, y) + torus_dist(y, z)


def test_circular_overlap_examples():
    a = CircularInterval(F(0), F(1, 2))
    b = CircularInterval(F(1, 4), F(1, 2))
    assert circular_overlap(a, b) == F(1, 4)
    assert circular_overlap(a, a) == a.length
    wrap = CircularInterval(F(3, 4), F(1, 2))  # [3/4, 1) + [0, 1/4)
    small = CircularInterval(F(0), F(1, 8))
    assert circular_overlap(wrap, small) == F(1, 8)


def test_circular_overlap_full_circle():
    full = CircularInterval(F(0), F(1))
    a = CircularInterval(F(2, 7), F(3, 7))
    assert circular_overlap(a, full) == a.length
    assert circular_overlap(full, full) == 1


_frac = st.fractions(min_value=0, max_value=F(63, 64), max_denominator=64)
_len = st.fractions(min_value=0, max_value=1, max_denominator=64)


@given(s1=_frac, l1=_len, s2=_frac, l2=_len)
@settings(max_examples=200)
def test_circular_overlap_properties(s1, l1, s2, l2):
    a, b = CircularInterval(s1, l1), CircularInterval(s2, l2)
    ov = circular_overlap(a, b)
    assert ov == circular_overlap(b, a)
    assert 0 <= ov <= min(a.length, b.length)


@given(x=_frac, y=_frac)
@settings(max_examples=200)
def test_torus_dist_shift_invariance(x, y):
    shift = F(13, 64)
    assert torus_dist(x, y) == torus_dist((x + shift) % 1, (y + shift) % 1)


def test_every_exported_name_resolves():
    # each module's __all__ names only what the module defines
    import importlib
    import pkgutil

    import negdep

    modules = [negdep] + [importlib.import_module(f"negdep.{info.name}")
                          for info in pkgutil.iter_modules(negdep.__path__)]
    assert len(modules) > 8
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
