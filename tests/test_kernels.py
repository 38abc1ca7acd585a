"""The kernels against naive oracles."""

from fractions import Fraction
from math import factorial, gcd
from random import Random

import pytest

import apobern._kernels as pure


# One implementation; the parameter id keeps the test names stable.
@pytest.fixture(params=[pure], ids=["pure"])
def impl(request):
    return request.param


def frac_vec(values):
    fracs = [Fraction(v) for v in values]
    return [f.numerator for f in fracs], [f.denominator for f in fracs]


def naive_conv(a, b, out_len):
    out = [Fraction(0)] * out_len
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j < out_len:
                out[i + j] += ai * bj
    return out


def test_conv_int_matches_naive(impl):
    rng = Random(101)
    for _ in range(50):
        a = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
        b = [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
        expected = []
        if a and b:
            expected = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    expected[i + j] += ai * bj
        assert impl.conv_int(a, b) == expected


def _conv_frac_cases():
    """Operand pairs: small random ones, long ones over exponential-type
    denominators m! q^m and over pairwise coprime primes, an all-zero
    operand and one-entry operands."""
    rng = Random(202)
    for _ in range(50):
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 6))]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 6))]
        yield a, b
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    for q in (1, 2, 3, 7):
        a = [Fraction(rng.randint(-9, 9), factorial(m) * q**m) for m in range(rng.randint(20, 40))]
        b = [Fraction(rng.randint(-9, 9), factorial(m) * (q + 1) ** m) for m in range(rng.randint(20, 40))]
        yield a, b
    for _ in range(4):
        a = [Fraction(rng.randint(-9, 9), rng.choice(primes)) for _ in range(rng.randint(20, 40))]
        b = [Fraction(rng.randint(-9, 9), rng.choice(primes)) for _ in range(rng.randint(20, 40))]
        yield a, b
    zeros = [Fraction(0)] * 7
    yield zeros, [Fraction(1, 3), Fraction(-2, 5)]
    yield [Fraction(3, 4)], zeros
    yield [Fraction(-5, 6)], [Fraction(2, 3), Fraction(1, 2), Fraction(-7, 9)]
    yield [Fraction(1, 2), Fraction(1, 3)], [Fraction(4, 9)]
    yield [Fraction(6, 35)], [Fraction(-14, 15)]


def test_conv_frac_matches_naive(impl):
    for a, b in _conv_frac_cases():
        an, ad = frac_vec(a)
        bn, bd = frac_vec(b)
        full = len(a) + len(b) - 1
        for out_len in sorted({1, 2, full // 2 or 1, full - 1 or 1, full, full + 2}):
            cn, cd = impl.conv_frac(an, ad, bn, bd, out_len)
            expected = naive_conv(a, b, out_len)
            assert [Fraction(n, d) for n, d in zip(cn, cd)] == expected
            # canonical pairs: reduced, positive denominators, zero as (0, 1)
            for n, d in zip(cn, cd):
                assert d > 0 and gcd(n, d) == 1
                assert n or d == 1


def test_recip_frac_inverts(impl):
    rng = Random(303)
    for _ in range(50):
        a = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 8))]
        if a[0] == 0:
            a[0] = Fraction(1, 2)
        an, ad = frac_vec(a)
        out_len = len(a)
        bn, bd = impl.recip_frac(an, ad, out_len)
        b = [Fraction(n, d) for n, d in zip(bn, bd)]
        product = naive_conv(a, b, out_len)
        assert product[0] == 1
        assert all(c == 0 for c in product[1:])


def test_recip_frac_rejects_zero_constant(impl):
    with pytest.raises(ZeroDivisionError):
        impl.recip_frac([0, 1], [1, 1], 2)


def test_prim_gcd_basics(impl):
    assert impl.prim_gcd_int([], []) == []
    assert impl.prim_gcd_int([4], []) == [1]
    assert impl.prim_gcd_int([], [0, -6]) == [0, 1]
    # (x^2 - 1, x - 1) -> x - 1
    assert impl.prim_gcd_int([-1, 0, 1], [-1, 1]) == [-1, 1]
    # content is discarded: constants are units over the rationals
    assert impl.prim_gcd_int([2, 4], [6]) == [1]


def exact_div(f, g):
    """Quotient of integer polynomials, None if not exact."""
    f = list(f)
    if not any(f):
        return []
    q = [0] * (len(f) - len(g) + 1)
    for i in range(len(f) - 1, len(g) - 2, -1):
        if f[i] == 0:
            continue
        if f[i] % g[-1]:
            return None
        c = f[i] // g[-1]
        q[i - len(g) + 1] = c
        for j, gj in enumerate(g):
            f[i - len(g) + 1 + j] -= c * gj
    return None if any(f) else q


def test_prim_gcd_divides_and_captures_common_factor(impl):
    rng = Random(404)
    for _ in range(60):
        h = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
        if not any(h):
            h = [1]
        a = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        b = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
        if not any(a):
            a = [1]
        if not any(b):
            b = [1]
        f = impl.conv_int(a, h)
        g = impl.conv_int(b, h)
        d = impl.prim_gcd_int(f, g)
        # the gcd divides both inputs ...
        assert exact_div(f, d) is not None
        assert exact_div(g, d) is not None
        # ... and contains the planted common factor
        hp = pure._primitive(h)
        assert exact_div(d, hp) is not None
        # normalized output: positive leading coefficient, unit content
        assert d[-1] > 0
        content = 0
        for c in d:
            content = gcd(content, c)
        assert content == 1


class _Counted:
    """An integer that counts the products it takes part in."""

    products = 0

    def __init__(self, value):
        self.value = value

    def __mul__(self, other):
        _Counted.products += 1
        return _Counted(self.value * other.value)


def test_power_matches_repeated_products(impl):
    one = _Counted(1)
    assert impl.power(_Counted(3), 0, one) is one
    for exponent in range(20):
        assert impl.power(Fraction(-3, 2), exponent, Fraction(1)) == Fraction(-3, 2) ** exponent
        _Counted.products = 0
        assert impl.power(_Counted(3), exponent, _Counted(1)).value == 3 ** exponent
        # binary powering from the lowest set bit, with no product by one:
        # a square per further bit and a product per further set bit
        expected = bin(exponent).count("1") + exponent.bit_length() - 2 if exponent else 0
        assert _Counted.products == expected
