"""Basis expansion: oracle soundness and adjudication of the two formulas."""

from fractions import Fraction
from random import Random

import pytest

from apobern import (
    ExpansionMethod,
    UnsupportedModeError,
    XPolynomial,
    closed_form_coefficients,
    corrected_coefficients,
    expand_oracle,
    reconstruct,
)

from _util import ALL_MODES, NOT_ONE_MODES, ONE, SYM, random_xpoly


def test_oracle_monomial_order_zero():
    for n in range(5):
        q = XPolynomial.monomial(SYM, n)
        e = expand_oracle(q, 0)
        assert (e.j_lo, e.j_hi) == (0, n)
        for j in e.indices():
            expected = SYM.one if j == n else SYM.zero
            assert e.coefficient(j) == expected
        assert e.exact and e.method is ExpansionMethod.ORACLE


def test_oracle_x_symbolic_example():
    q = XPolynomial.monomial(SYM, 1)
    e = expand_oracle(q, 1)
    assert (e.j_lo, e.j_hi) == (1, 2)
    assert e.coefficient(1) == SYM.lam
    assert e.coefficient(2) == (SYM.lam - 1) / 2
    assert reconstruct(e) == q


def test_oracle_x_classical_example():
    q = XPolynomial.monomial(ONE, 1)
    e = expand_oracle(q, 1)
    assert (e.j_lo, e.j_hi) == (0, 1)
    assert e.coefficient(0) == Fraction(1, 2)
    assert e.coefficient(1) == Fraction(1)
    assert reconstruct(e) == q


def test_oracle_zero_polynomial():
    e = expand_oracle(XPolynomial.zero(SYM), 2)
    assert e.j_lo > e.j_hi
    assert e.exact
    assert reconstruct(e).is_zero


def test_oracle_roundtrip_monomials_all_modes():
    for mode in ALL_MODES:
        for k in range(4):
            for n in range(7):
                q = XPolynomial.monomial(mode, n)
                assert reconstruct(expand_oracle(q, k)) == q


def test_oracle_roundtrip_random_and_uniqueness():
    rng = Random(24601)
    for _ in range(60):
        mode = rng.choice(ALL_MODES)
        k = rng.randint(0, 3)
        q = random_xpoly(rng, mode, max_deg=6)
        first = expand_oracle(q, k)
        assert reconstruct(first) == q
        again = expand_oracle(q, k)
        assert first.coefficients == again.coefficients
        assert (first.j_lo, first.j_hi) == (again.j_lo, again.j_hi)


def test_closed_form_taylor_case():
    q = XPolynomial.monomial(SYM, 1)
    e = closed_form_coefficients(q, 0)
    assert (e.j_lo, e.j_hi) == (0, 1)
    assert e.coefficient(0) == SYM.zero
    assert e.coefficient(1) == SYM.one
    assert e.exact


def test_closed_form_counterexample_symbolic():
    q = XPolynomial.monomial(SYM, 1)
    e = closed_form_coefficients(q, 1)
    assert (e.j_lo, e.j_hi) == (1, 1)
    assert e.coefficient(1) == -SYM.lam
    assert not e.exact
    recon = reconstruct(e)
    assert recon.degree == 0
    assert recon.coefficient(0) == -SYM.lam / (SYM.lam - 1)


def test_closed_form_window_below_order():
    # degree below the order: empty window; exact only for the zero input
    q = XPolynomial.one(ONE)
    e = closed_form_coefficients(q, 1)
    assert e.j_lo > e.j_hi
    assert not e.exact
    assert reconstruct(e).is_zero
    z = closed_form_coefficients(XPolynomial.zero(ONE), 1)
    assert z.exact


def test_corrected_examples():
    q = XPolynomial.monomial(SYM, 1)
    e = corrected_coefficients(q, 1)
    assert (e.j_lo, e.j_hi) == (1, 2)
    assert e.coefficient(1) == SYM.lam
    assert e.coefficient(2) == (SYM.lam - 1) / 2
    assert e.exact

    sq = XPolynomial.monomial(SYM, 2)
    taylor = corrected_coefficients(sq, 0)
    assert [taylor.coefficient(j) for j in taylor.indices()] == [
        SYM.zero,
        SYM.zero,
        SYM.one,
    ]
    assert taylor.exact

    z = corrected_coefficients(XPolynomial.zero(SYM), 3)
    assert z.exact and z.j_lo > z.j_hi


def test_corrected_rejected_at_one():
    with pytest.raises(UnsupportedModeError):
        corrected_coefficients(XPolynomial.monomial(ONE, 2), 1)


def test_corrected_matches_oracle_on_grid():
    rng = Random(5150)
    for mode in NOT_ONE_MODES:
        for k in range(4):
            for n in range(5):
                q = XPolynomial.monomial(mode, n)
                oracle = expand_oracle(q, k)
                corrected = corrected_coefficients(q, k)
                assert corrected.exact
                assert corrected.coefficients == oracle.coefficients
    for _ in range(30):
        mode = rng.choice(NOT_ONE_MODES)
        k = rng.randint(0, 3)
        q = random_xpoly(rng, mode, max_deg=6)
        oracle = expand_oracle(q, k)
        corrected = corrected_coefficients(q, k)
        assert corrected.exact
        assert corrected.coefficients == oracle.coefficients

