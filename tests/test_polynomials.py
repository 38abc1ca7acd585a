"""XPolynomial structure, mode discipline, and rendering."""

from fractions import Fraction
from random import Random

import pytest

from apobern import LambdaPoly, LambdaRatFunc, MixedModeError, XPolynomial, embed_poly
from apobern.render import render_x_poly

from _util import ONE, SYM, TWO, random_xpoly


def test_trailing_zeros_stripped():
    p = XPolynomial([1, 2, 0, 0], ONE)
    assert p.degree == 1
    assert XPolynomial([0], ONE).is_zero
    assert XPolynomial.zero(SYM).degree == -1


def test_mode_discipline():
    with pytest.raises(MixedModeError):
        XPolynomial([SYM.lam], ONE)
    p = XPolynomial.monomial(ONE, 1)
    q = XPolynomial.monomial(SYM, 1)
    with pytest.raises(MixedModeError):
        p + q
    with pytest.raises(MixedModeError):
        p.scalar_mul(SYM.lam)
    with pytest.raises(MixedModeError):
        XPolynomial([1, SYM.lam, 2], TWO)


def test_arithmetic_results_are_canonical():
    # sums, negations and products skip the constructor's domain pass but
    # must still strip trailing zeros, so equality stays structural
    rng = Random(8080)
    for mode in (ONE, TWO, SYM):
        for _ in range(10):
            p = random_xpoly(rng, mode, max_deg=5)
            q = random_xpoly(rng, mode, max_deg=5)
            top = XPolynomial.monomial(mode, 6, 3)
            results = (
                p - p,
                p + (-p),
                (p + top) - top,
                (top + p) + top.scalar_mul(-1),
                p * XPolynomial.zero(mode),
                p.scalar_mul(0),
                p * q,
                -p,
            )
            for r in results:
                assert not r.coeffs or r.coeffs[-1]
                assert r == XPolynomial(list(r.coeffs), r.mode)
            assert (p - p).coeffs == ()
            assert (p + (-p)).coeffs == ()
            assert (p + top) - top == p


def test_arithmetic_and_evaluation():
    x = XPolynomial.monomial(ONE, 1)
    p = (x - XPolynomial([Fraction(1, 2)], ONE)) * (x + XPolynomial.one(ONE))
    assert p == XPolynomial([Fraction(-1, 2), Fraction(1, 2), 1], ONE)
    assert p.evaluate(Fraction(1, 2)) == 0
    assert p.derivative() == XPolynomial([Fraction(1, 2), 2], ONE)
    assert (x ** 3).degree == 3
    assert x.scalar_div(2) == XPolynomial([0, Fraction(1, 2)], ONE)


def test_symbolic_coefficients():
    lam = SYM.lam
    p = XPolynomial([lam, lam - 1], SYM)
    assert p.evaluate(1) == lam + (lam - 1)
    q = p * p
    assert q.coefficient(0) == lam * lam
    assert q.coefficient(2) == (lam - 1) * (lam - 1)


def test_embed_poly():
    p = XPolynomial([Fraction(1, 2), -1], ONE)
    s = embed_poly(p, SYM)
    assert s.mode == SYM
    assert s.coefficient(0) == SYM.scalar(Fraction(1, 2))
    back = embed_poly(s, TWO)
    assert back == XPolynomial([Fraction(1, 2), -1], TWO)
    with pytest.raises(ValueError):
        embed_poly(XPolynomial([SYM.lam], SYM), ONE)


def test_render_x_poly_spellings():
    assert render_x_poly(XPolynomial.zero(ONE)) == "0"
    assert render_x_poly(XPolynomial([Fraction(-1, 2), 1], ONE)) == "x - 1/2"
    assert render_x_poly(XPolynomial.monomial(ONE, 3)) == "x^3"
    assert render_x_poly(XPolynomial([0, 0, Fraction(2, 3)], ONE)) == "2x^2/3"
    assert render_x_poly(XPolynomial([1, -1], ONE)) == "-x + 1"
    lam = SYM.lam
    inv = LambdaRatFunc(LambdaPoly([1]), LambdaPoly([-1, 1]))
    witness = XPolynomial([-lam * inv, -SYM.one], SYM)
    assert render_x_poly(witness) == "-x - L/(L-1)"
    coeff_term = XPolynomial([SYM.zero, inv * 2], SYM)
    assert render_x_poly(coeff_term) == "(2/(L-1))*x"
