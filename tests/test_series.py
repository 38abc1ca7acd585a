"""Truncated-series engine: frozen examples and algebraic properties."""

from fractions import Fraction
from random import Random

import pytest

from apobern import (
    NonInvertibleSeriesError,
    TruncatedSeries,
    XPolynomial,
    exp_scaled_series,
)
from apobern.series import convolve

from _util import SYM, TWO, random_fraction, random_ratfunc, random_xpoly


def frac_series(*values):
    return TruncatedSeries([Fraction(v) for v in values])


def test_add_examples():
    one_plus_t = frac_series(1, 1, 0, 0)
    one_minus_t = frac_series(1, -1, 0, 0)
    assert one_plus_t + one_minus_t == frac_series(2, 0, 0, 0)
    zero = frac_series(0, 0, 0, 0)
    assert one_plus_t + zero == one_plus_t
    # e^t + e^{-t} doubles the even part
    e = exp_scaled_series(Fraction(1), 3)
    e_neg = exp_scaled_series(Fraction(-1), 3)
    total = e + e_neg
    assert [total.coefficient(i) for i in range(4)] == [2, 0, 1, 0]


def test_mul_examples():
    one_plus_t = frac_series(1, 1, 0)
    one_minus_t = frac_series(1, -1, 0)
    assert one_plus_t * one_minus_t == frac_series(1, 0, -1)
    one = frac_series(1, 0, 0)
    assert one_plus_t * one == one_plus_t
    e = exp_scaled_series(Fraction(1), 3)
    square = e * e
    assert [square.coefficient(i) for i in range(4)] == [
        Fraction(1),
        Fraction(2),
        Fraction(2),
        Fraction(4, 3),
    ]


def test_recip_examples():
    geometric = frac_series(1, -1, 0, 0).recip()
    assert geometric == frac_series(1, 1, 1, 1)
    e = exp_scaled_series(Fraction(1), 3)
    assert e.recip() == exp_scaled_series(Fraction(-1), 3)


def test_recip_symbolic_one_step():
    # (L e^t - 1) up to order 1 is (L-1) + L t; its reciprocal starts
    # 1/(L-1) - L/(L-1)^2 t.
    lam = SYM.lam
    series = TruncatedSeries([lam - 1, lam])
    rec = series.recip()
    assert rec.coefficient(0) == 1 / (lam - 1)
    assert rec.coefficient(1) == -lam / (lam - 1) ** 2


def test_recip_requires_invertible_constant():
    with pytest.raises(NonInvertibleSeriesError):
        frac_series(0, 1).recip()


def test_pow_examples():
    t = frac_series(0, 1, 0)
    assert t ** 0 == frac_series(1, 0, 0)
    one_plus_t = frac_series(1, 1, 0)
    assert one_plus_t ** 2 == frac_series(1, 2, 1)
    lam = SYM.lam
    affine = TruncatedSeries([lam - 1, lam, lam / 2])
    assert (affine ** 2).coefficient(0) == (lam - 1) ** 2


def test_order_mismatch_raises():
    with pytest.raises(ValueError):
        frac_series(1, 2) + frac_series(1, 2, 3)
    with pytest.raises(ValueError):
        frac_series(1, 2) * frac_series(1, 2, 3)


def test_times_t_power():
    s = frac_series(3, 2, 1)
    assert s.times_t_power(0) == s
    assert s.times_t_power(1) == frac_series(0, 3, 2)
    assert s.times_t_power(5) == frac_series(0, 0, 0)


def test_exp_scaled_series_examples():
    zero = exp_scaled_series(Fraction(0), 3)
    assert zero == frac_series(1, 0, 0, 0)
    e = exp_scaled_series(Fraction(1), 3)
    assert e == frac_series(1, 1, Fraction(1, 2), Fraction(1, 6))
    lam = SYM.lam
    sym = exp_scaled_series(lam, 2)
    assert sym.coefficient(1) == lam
    assert sym.coefficient(2) == lam * lam / 2


def test_recip_roundtrip_100_random_series():
    rng = Random(777)
    one = frac_series(*([1] + [0] * 7))
    for _ in range(100):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(8)]
        if coeffs[0] == 0:
            coeffs[0] = Fraction(rng.randint(1, 9))
        series = TruncatedSeries(coeffs)
        assert series * series.recip() == one


def test_pow_additivity():
    rng = Random(888)
    for _ in range(20):
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(6)]
        series = TruncatedSeries(coeffs)
        j, k = rng.randint(0, 3), rng.randint(0, 3)
        assert series ** (j + k) == (series ** j) * (series ** k)


def test_exp_turns_sums_into_products():
    rng = Random(999)
    for _ in range(20):
        a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        b = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        lhs = exp_scaled_series(a + b, 8)
        rhs = exp_scaled_series(a, 8) * exp_scaled_series(b, 8)
        assert lhs == rhs
    lam = SYM.lam
    lhs = exp_scaled_series(lam + 1, 4)
    rhs = exp_scaled_series(lam, 4) * exp_scaled_series(SYM.one, 4)
    assert lhs == rhs


def _naive_convolution(a, b, out_len, zero):
    out = []
    for n in range(out_len):
        acc = zero
        for i in range(len(a)):
            if 0 <= n - i < len(b):
                acc = acc + a[i] * b[n - i]
        out.append(acc)
    return out


@pytest.mark.parametrize("ring", ["fraction", "ratfunc", "xpoly"])
def test_convolve_matches_naive_double_loop(ring):
    rng = Random(4242)
    draw, zero = {
        "fraction": (lambda: random_fraction(rng), Fraction(0)),
        "ratfunc": (lambda: random_ratfunc(rng), SYM.zero),
        "xpoly": (lambda: random_xpoly(rng, TWO, max_deg=3), XPolynomial.zero(TWO)),
    }[ring]
    for _ in range(6):
        a = [draw() for _ in range(rng.randint(1, 5))]
        b = [draw() for _ in range(rng.randint(1, 5))]
        # zero entries, the constant term included, take the skipping branch
        a[rng.randrange(len(a))] = zero
        b[rng.randrange(len(b))] = zero
        for out_len in range(1, len(a) + len(b)):
            got = convolve(a, b, out_len)
            assert got == _naive_convolution(a, b, out_len, zero)
            assert all(type(c) is type(zero) for c in got)
