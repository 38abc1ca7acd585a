"""Twisted-difference operator calculus: examples and brute-force checks."""

from fractions import Fraction
from math import comb
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apobern import (
    DifferencePowerMethod,
    LambdaMode,
    MixedModeError,
    XPolynomial,
    alternating_lambda_sum,
    apostol_bernoulli_poly,
    apostol_euler_poly,
    corrected_power_at_zero,
    d_op,
    lambda_op,
    lambda_power_at_zero,
    shift_poly,
)

from _util import ALL_MODES, ONE, SYM, TWO, random_fraction, random_xpoly, symbolic_scalars

ITERATED = DifferencePowerMethod.ITERATED
CLOSED = DifferencePowerMethod.CLOSED_FORM


def test_shift_examples():
    x = XPolynomial.monomial(ONE, 1)
    assert shift_poly(x * x, 1) == XPolynomial([1, 2, 1], ONE)
    assert shift_poly(x, 0) == x
    cube = XPolynomial.monomial(ONE, 3)
    assert shift_poly(shift_poly(cube, 1), 2) == shift_poly(cube, 3)
    # exact rational shifts
    p = XPolynomial([Fraction(1, 3), 0, 1], ONE)
    assert shift_poly(p, Fraction(-1, 2)) == XPolynomial(
        [Fraction(7, 12), -1, 1], ONE
    )


def _power_sum_shift(p, h):
    # p(x + h) as sum_m c_m (x + h)^m, one x-polynomial product per power
    mode = p.mode
    h = mode.scalar(h) if isinstance(h, (int, Fraction)) else h
    if not h or p.is_zero:
        return p
    x_plus_h = XPolynomial([h, 1], mode)
    result = XPolynomial.zero(mode)
    power = XPolynomial.one(mode)
    for m, c in enumerate(p.coeffs):
        if m:
            power = power * x_plus_h
        if c:
            result = result + power.scalar_mul(c)
    return result


def test_shift_matches_power_sum_reference():
    rng = Random(6104)
    for mode in ALL_MODES:
        shifts = [0, 1, Fraction(-1, 2), Fraction(7, 3)]
        if mode.is_symbolic:
            shifts.append(mode.lam)
        polys = [XPolynomial.zero(mode)]
        for deg in range(13):
            lead = Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4))
            coeffs = [random_fraction(rng) for _ in range(deg)] + [lead]
            polys.append(XPolynomial(coeffs, mode))
        for p in polys:
            for h in shifts:
                shifted = shift_poly(p, h)
                assert shifted == _power_sum_shift(p, h), (mode, p, h)
                assert shift_poly(shifted, -h) == p


def _reference_taylor_shift(coeffs, h):
    # the synthetic division on one scalar per coefficient
    c = list(coeffs)
    top = len(c) - 1
    for i in range(top):
        for j in range(top - 1, i - 1, -1):
            c[j] = c[j] + h * c[j + 1]
    return tuple(c)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=7), max_size=9),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.sampled_from((1, 2, Fraction(-1, 2), Fraction(7, 3))),
)
def test_integer_shift_matches_fraction_reference(coeffs, h, lam):
    # numeric shifts run on integers over a common denominator
    mode = LambdaMode.numeric(lam)
    p = XPolynomial(coeffs, mode)
    shifted = shift_poly(p, h)
    assert shifted.coeffs == _reference_taylor_shift(p.coeffs, h)
    assert shifted == XPolynomial(list(shifted.coeffs), mode)
    back = shift_poly(shifted, -h)
    assert back == p and back._key == p._key


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.one_of(st.fractions(min_value=-6, max_value=6, max_denominator=7), symbolic_scalars()),
        max_size=6,
    ),
    st.one_of(
        st.fractions(min_value=-4, max_value=4, max_denominator=5),
        st.just(SYM.lam),
        symbolic_scalars(local_numerator=True),
    ),
)
def test_symbolic_shift_matches_ratfunc_reference(coeffs, h):
    # one symbolic path for every shift u/v: rational, L, or with poles
    p = XPolynomial(coeffs, SYM)
    h = SYM.scalar(h)
    shifted = shift_poly(p, h)
    assert shifted.coeffs == _reference_taylor_shift(p.coeffs, h)
    assert shifted == XPolynomial(list(shifted.coeffs), SYM)
    back = shift_poly(shifted, -h)
    assert back == p and back._key == p._key


def test_shift_rejects_a_shift_from_another_mode():
    p = XPolynomial([1, 2, 3], ONE)
    with pytest.raises(MixedModeError):
        shift_poly(p, SYM.lam)
    # a zero shift and the zero polynomial are checked too
    with pytest.raises(MixedModeError):
        shift_poly(p, SYM.zero)
    with pytest.raises(MixedModeError):
        shift_poly(XPolynomial.zero(TWO), SYM.lam)


def test_lambda_op_examples():
    const = XPolynomial.one(SYM)
    assert lambda_op(const) == XPolynomial([SYM.lam - 1], SYM)
    x = XPolynomial.monomial(SYM, 1)
    assert lambda_op(x) == XPolynomial([SYM.lam, SYM.lam - 1], SYM)
    # dropping order and index: on the order-k member n it yields
    # n times the order-(k-1) member n-1
    p = apostol_bernoulli_poly(3, 2, SYM)
    assert lambda_op(p) == apostol_bernoulli_poly(2, 1, SYM) * 3


def test_d_op_examples():
    cube = XPolynomial.monomial(ONE, 3)
    assert d_op(cube, 1) == XPolynomial([0, 0, 3], ONE)
    assert d_op(XPolynomial.monomial(ONE, 2), 3).is_zero
    # on the classical order-k Euler member: s-fold derivative rescales
    # and shifts the index
    from math import factorial

    n, k, j = 4, 1, 2
    lhs = d_op(apostol_euler_poly(n, k, ONE), j - k)
    rhs = apostol_euler_poly(n - j + k, k, ONE) * (
        factorial(n) // factorial(n - j + k)
    )
    assert lhs == rhs


def test_power_at_zero_examples():
    sq = XPolynomial.monomial(SYM, 2)
    assert lambda_power_at_zero(sq, 0, ITERATED).is_zero
    assert lambda_power_at_zero(sq, 0, CLOSED).is_zero

    x = XPolynomial.monomial(SYM, 1)
    two_step = 2 * SYM.lam ** 2 - 2 * SYM.lam
    assert lambda_power_at_zero(x, 2, ITERATED) == two_step
    assert lambda_power_at_zero(x, 2, CLOSED) == two_step

    # the known sign split at k = 1
    assert lambda_power_at_zero(x, 1, ITERATED) == SYM.lam
    assert lambda_power_at_zero(x, 1, CLOSED) == -SYM.lam
    assert corrected_power_at_zero(x, 1) == SYM.lam


def test_closed_form_sign_pattern():
    # closed form agrees with iteration exactly for even powers and is
    # globally sign-flipped for odd powers; the corrected form agrees
    # everywhere (brute force over monomials)
    for k in range(6):
        for deg in range(6):
            p = XPolynomial.monomial(SYM, deg)
            direct = lambda_power_at_zero(p, k, ITERATED)
            closed = lambda_power_at_zero(p, k, CLOSED)
            corrected = corrected_power_at_zero(p, k)
            assert corrected == direct
            if k % 2 == 0:
                assert closed == direct
            else:
                assert closed == -direct
                assert closed != direct  # no accidental zero hides the flip


def test_commutator_examples():
    for p in (
        XPolynomial.monomial(ONE, 3),
        apostol_bernoulli_poly(3, 2, SYM),
        XPolynomial.zero(SYM),
    ):
        assert lambda_op(d_op(p, 1)) == d_op(lambda_op(p), 1)


def test_commutator_on_monomial_grid():
    for mode in ALL_MODES:
        for deg in range(9):
            p = XPolynomial.monomial(mode, deg)
            assert lambda_op(d_op(p, 1)) == d_op(lambda_op(p), 1)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_lambda_op_linearity(seed, alpha, beta):
    rng = Random(seed)
    mode = rng.choice([SYM, ONE, TWO])
    p = random_xpoly(rng, mode, max_deg=4)
    q = random_xpoly(rng, mode, max_deg=4)
    lhs = lambda_op(p.scalar_mul(alpha) + q.scalar_mul(beta))
    rhs = lambda_op(p).scalar_mul(alpha) + lambda_op(q).scalar_mul(beta)
    assert lhs == rhs


def test_iterated_power_brute_force_vs_corrected_formula():
    # independent confirmation of the corrected sign: literal iteration
    # against sum (-1)^(k-l) C(k,l) L^l p(l) computed from scratch
    from math import comb

    rng = Random(424242)
    for _ in range(25):
        p = random_xpoly(rng, SYM, max_deg=5)
        k = rng.randint(0, 5)
        direct = lambda_power_at_zero(p, k, ITERATED)
        acc = SYM.zero
        for l in range(k + 1):
            sign = -1 if (k - l) % 2 else 1
            acc = acc + (SYM.lam ** l) * p.evaluate(l) * (comb(k, l) * sign)
        assert direct == acc


def test_alternating_lambda_sum_with_unit_weight():
    # sum_a (-1)^a C(k,a) L^a = (1 - L)^k
    for mode in ALL_MODES:
        for k in range(6):
            expected = (mode.one - mode.lam) ** k
            assert alternating_lambda_sum(mode, k, lambda a: 1) == expected
            assert alternating_lambda_sum(mode, k, lambda a: mode.one) == expected


def _horner_lambda_sum(mode, k, weight):
    # one field operation per term, Horner's rule in -L
    acc = mode.zero
    for a in range(k, -1, -1):
        acc = acc * -mode.lam + mode.scalar(comb(k, a) * weight(a))
    return acc


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6), min_size=1, max_size=6),
    st.lists(symbolic_scalars(), min_size=6, max_size=6),
)
def test_alternating_lambda_sum_matches_horner_reference(weights, symbolic_weights):
    k = len(weights) - 1
    for mode in ALL_MODES:
        for weight in (weights.__getitem__, lambda a: a * a - 2):
            got = alternating_lambda_sum(mode, k, weight)
            assert mode.matches(got)
            assert got == _horner_lambda_sum(mode, k, weight)
        # field-valued weights: scalars of the mode
        field_weights = [mode.scalar(w) for w in weights]
        got = alternating_lambda_sum(mode, k, field_weights.__getitem__)
        assert got == _horner_lambda_sum(mode, k, field_weights.__getitem__)
    got = alternating_lambda_sum(SYM, k, symbolic_weights.__getitem__)
    assert got == _horner_lambda_sum(SYM, k, symbolic_weights.__getitem__)
