"""Exact scalar domains: canonical forms, field axioms, rendering."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apobern import (
    LambdaMode,
    LambdaPoly,
    LambdaRatFunc,
    MixedModeError,
    NonLocalDenominatorError,
    PoleError,
    evaluate_at,
    parse_rational,
    poly_gcd,
    rational,
    render_rational,
)
from apobern.render import render_lambda_poly, render_ratfunc

from _util import random_ratfunc


# -- rationals ---------------------------------------------------------------


def test_rational_normalization_examples():
    assert rational(2, 4) == Fraction(1, 2)
    assert rational(0, 5) == Fraction(0, 1)
    assert rational(3, -6) == Fraction(-1, 2)
    assert rational(3, -6).denominator == 2


def test_rational_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        rational(1, 0)


def test_parse_and_render_rational():
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational("-7") == Fraction(-7)
    assert render_rational(Fraction(1, 2)) == "1/2"
    assert render_rational(Fraction(-3)) == "-3"
    assert render_rational(Fraction(0)) == "0"


# -- polynomials over the deformation parameter --------------------------------


def test_lambda_poly_strips_trailing_zeros():
    p = LambdaPoly([1, 2, 0, 0])
    assert p.degree == 1
    assert LambdaPoly([0, 0]).is_zero
    assert LambdaPoly([]).degree == -1


def test_lambda_poly_arithmetic():
    lam = LambdaPoly([0, 1])
    assert lam * lam == LambdaPoly([0, 0, 1])
    assert (lam + 1) * (lam - 1) == LambdaPoly([-1, 0, 1])
    assert (lam - lam).is_zero
    assert lam ** 3 == LambdaPoly([0, 0, 0, 1])
    assert lam.evaluate(Fraction(1, 2)) == Fraction(1, 2)


def test_poly_gcd_common_factor():
    lam = LambdaPoly([0, 1])
    a = (lam - 1) * (lam + 2)
    b = (lam - 1) * (lam - 3)
    assert poly_gcd(a, b) == lam - 1


# -- canonical rational functions ----------------------------------------------


def test_ratfunc_canonical_examples():
    lam = LambdaPoly([0, 1])
    f = LambdaRatFunc(lam * lam - 1, lam - 1)
    assert f == LambdaRatFunc(lam + 1)
    assert f.den == LambdaPoly([1])

    g = LambdaRatFunc(LambdaPoly([0, 2]), LambdaPoly([4]))
    assert g.num == LambdaPoly([0, Fraction(1, 2)])
    assert g.den == LambdaPoly([1])

    z = LambdaRatFunc(LambdaPoly(), lam ** 3)
    assert z.is_zero
    assert z.den == LambdaPoly([1])

    # the same value reached through different denominators is one key
    h = LambdaRatFunc(lam.scale(2) + 2, ((lam - 1) * (lam + 1)).scale(6))
    assert h == LambdaRatFunc(LambdaPoly([1]), (lam - 1).scale(3))
    assert h.pole_orders == (1, 0)
    with pytest.raises(NonLocalDenominatorError):
        LambdaRatFunc(LambdaPoly([1]), lam ** 3)


def test_ratfunc_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        LambdaRatFunc(LambdaPoly([1]), LambdaPoly())


def test_ratfunc_monic_denominator_invariant():
    lam = LambdaPoly([0, 1])
    f = LambdaRatFunc(LambdaPoly([1]), LambdaPoly([-4, 4]))  # 1/(4L-4)
    assert f.den.leading == 1
    assert f.den == lam - 1
    assert f.num == LambdaPoly([Fraction(1, 4)])
    assert f.evaluate_at(3) == Fraction(1, 8)
    # 4L+2 has its root at -1/2, outside the ring's denominators
    with pytest.raises(NonLocalDenominatorError):
        LambdaRatFunc(LambdaPoly([1]), LambdaPoly([2, 4]))


def test_evaluate_at_examples():
    lam = LambdaMode.symbolic().lam
    f = (lam - 1) ** -1
    assert evaluate_at(f, 3) == Fraction(1, 2)
    assert evaluate_at(lam + 1, 2) == 3
    with pytest.raises(PoleError):
        evaluate_at(f, 1)


def test_ratfunc_addition_shared_denominator_factors():
    # exercises the lifted addition: a shared factor in the denominators,
    # and a further factor L-1 the numerator sum cancels
    lam = LambdaMode.symbolic().lam
    a = 2 / ((lam - 1) ** 2)
    b = -4 / ((lam - 1) ** 2 * (lam + 1))
    total = a + b
    assert total == 2 / ((lam - 1) * (lam + 1))
    assert total.den == LambdaPoly([-1, 0, 1])
    # cancellation down to zero through the same path
    assert (a + (-a)).is_zero
    # reflected int operands
    assert 1 - lam == -(lam - 1)
    assert (2 / (lam - 1)) * (lam - 1) == LambdaRatFunc.from_rational(2)
    # L is not a unit of the ring
    with pytest.raises(NonLocalDenominatorError):
        2 / lam
    with pytest.raises(NonLocalDenominatorError):
        1 / (lam * (lam - 1))


def test_ratfunc_inverse_of_units():
    lam = LambdaMode.symbolic().lam
    f = 3 * (lam - 1) ** 2 * (lam + 1) / 2
    g = f.inverse()
    assert g.num == LambdaPoly([Fraction(2, 3)])
    assert g.pole_orders == (2, 1)
    assert f * g == 1
    # the numerator factor L-1 cancels against the existing pole
    h = (lam - 1) * (lam + 1) ** -2
    assert h.inverse() == (lam + 1) ** 2 / (lam - 1)
    assert h.evaluate_at(1) == 0
    with pytest.raises(PoleError):
        h.evaluate_at(-1)
    with pytest.raises(ZeroDivisionError):
        LambdaRatFunc.from_rational(0).inverse()


# -- field axioms (randomized) ---------------------------------------------------


def _ratfuncs(seed):
    rng = Random(seed)
    return [random_ratfunc(rng) for _ in range(3)]


def _is_unit(f: LambdaRatFunc) -> bool:
    """Whether the numerator is c (L-1)^p (L+1)^q."""
    lam = LambdaPoly([0, 1])
    num = f.num
    if num.is_zero:
        return False
    monic = num.scale(1 / num.leading)
    return any(
        monic == (lam - 1) ** p * (lam + 1) ** (num.degree - p)
        for p in range(num.degree + 1)
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_field_axioms(seed):
    a, b, c = _ratfuncs(seed)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if _is_unit(a):
        assert a * a.inverse() == LambdaRatFunc.from_rational(1)
    elif not a.is_zero:
        with pytest.raises(NonLocalDenominatorError):
            a.inverse()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
)
def test_evaluate_at_is_a_homomorphism(seed, point):
    a, b, _ = _ratfuncs(seed)
    for op, combined in (("add", a + b), ("mul", a * b)):
        try:
            lhs = combined.evaluate_at(point)
            ra = a.evaluate_at(point)
            rb = b.evaluate_at(point)
        except PoleError:
            continue
        assert lhs == (ra + rb if op == "add" else ra * rb)


# -- modes -------------------------------------------------------------------


def test_lambda_mode_parse_and_labels():
    assert LambdaMode.parse("symbolic").is_symbolic
    assert LambdaMode.parse("1") == LambdaMode.numeric(1)
    assert LambdaMode.parse("-2").value == -2
    assert LambdaMode.parse("1/3").value == Fraction(1, 3)
    assert LambdaMode.numeric(Fraction(1, 3)).label() == "1/3"
    assert LambdaMode.symbolic().label() == "symbolic"


def test_lambda_mode_scalar_embedding():
    sym = LambdaMode.symbolic()
    assert isinstance(sym.scalar(Fraction(1, 2)), LambdaRatFunc)
    num = LambdaMode.numeric(2)
    assert num.scalar(3) == Fraction(3)
    with pytest.raises(MixedModeError):
        num.scalar(sym.lam)


# -- rendering ------------------------------------------------------------------


def test_render_lambda_poly_spellings():
    lam = LambdaPoly([0, 1])
    assert render_lambda_poly(lam + 1) == "L+1"
    assert render_lambda_poly(lam * lam - lam.scale(2) + 1) == "L^2-2L+1"
    assert render_lambda_poly(LambdaPoly([Fraction(1, 2)])) == "1/2"
    assert render_lambda_poly(LambdaPoly([0, Fraction(-1, 2)])) == "-L/2"
    assert render_lambda_poly(LambdaPoly([0, 0, Fraction(2, 3)])) == "2L^2/3"
    assert render_lambda_poly(LambdaPoly()) == "0"


def test_render_ratfunc_spellings():
    lam = LambdaPoly([0, 1])
    assert render_ratfunc(LambdaRatFunc(LambdaPoly([1]), lam - 1)) == "1/(L-1)"
    assert (
        render_ratfunc(LambdaRatFunc(LambdaPoly([0, -2]), (lam - 1) ** 2))
        == "-2L/(L-1)^2"
    )
    assert render_ratfunc(LambdaRatFunc(lam + 1, LambdaPoly([2]))) == "L/2+1/2"
    mixed = LambdaRatFunc(LambdaPoly([1]), (lam - 1) * (lam + 1))
    assert render_ratfunc(mixed) == "1/((L-1)*(L+1))"
    assert (
        render_ratfunc(LambdaRatFunc(LambdaPoly([1]), (lam - 1) ** 2 * (lam + 1)))
        == "1/((L-1)^2*(L+1))"
    )
    with pytest.raises(NonLocalDenominatorError):
        LambdaRatFunc(LambdaPoly([1]), lam ** 2)
    # human format swaps the symbol
    assert render_ratfunc(LambdaRatFunc(LambdaPoly([1]), lam - 1), "λ") == "1/(λ-1)"
