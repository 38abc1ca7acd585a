"""XPolynomial structure, mode discipline, and rendering."""

from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apobern import (
    LambdaMode,
    LambdaRatFunc,
    MixedModeError,
    XPolynomial,
    embed_poly,
    shift_poly,
)
from apobern.render import render_x_poly

from _util import ONE, SYM, TWO, random_xpoly, symbolic_scalars

# The numeric modes of the property tests.
PROPERTY_MODES = (ONE, TWO, LambdaMode.numeric(Fraction(-1, 2)), LambdaMode.numeric(Fraction(7, 3)))

small_fractions = st.fractions(min_value=-6, max_value=6, max_denominator=7)
coeff_lists = st.lists(
    st.one_of(st.just(Fraction(0)), small_fractions), min_size=0, max_size=7
)
modes = st.sampled_from(PROPERTY_MODES)


# Reference algorithms with one scalar per coefficient (a Fraction, or a
# LambdaRatFunc in symbolic mode); the integer key of a polynomial must
# give exactly their results.


def _ref_strip(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _ref_add(a, b):
    longer, shorter = (a, b) if len(a) >= len(b) else (b, a)
    out = list(longer)
    for i, c in enumerate(shorter):
        out[i] = out[i] + c
    return _ref_strip(out)


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [a[0] * 0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _ref_strip(out)


def _ref_evaluate(a, point):
    acc = 0
    for c in reversed(a):
        acc = acc * point + c
    return acc


def _assert_canonical(p):
    n, d = p._key
    assert d > 0
    assert not n or n[-1]
    assert gcd(d, *n) == 1
    if not n:
        assert p._key == ((), 1)


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


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists, small_fractions, modes)
def test_numeric_arithmetic_matches_fraction_reference(a, b, top, factor, mode):
    p, q = XPolynomial(a, mode), XPolynomial(b, mode)
    ra, rb = _ref_strip(a), _ref_strip(b)
    assert p.coeffs == ra and q.coeffs == rb
    # a cancelling higher part t: (p + t) + (q - t) keeps only p + q
    t = XPolynomial([0] * 7 + top, mode)
    results = {
        "add": (p + q, _ref_add(ra, rb)),
        "sub": (p - q, _ref_add(ra, [-c for c in rb])),
        "neg": (-p, _ref_strip([-c for c in ra])),
        "mul": (p * q, _ref_mul(ra, rb)),
        "cancel": ((p + t) + (q - t), _ref_add(ra, rb)),
        "self": (p - p, ()),
        "scalar_mul": (p.scalar_mul(factor), _ref_strip([c * factor for c in ra])),
        "int_mul": (p * 3, _ref_strip([c * 3 for c in ra])),
        "derivative": (p.derivative(), _ref_strip([c * m for m, c in enumerate(ra)][1:])),
    }
    if factor:
        results["scalar_div"] = (p.scalar_div(factor), _ref_strip([c / factor for c in ra]))
    for name, (got, want) in results.items():
        assert got.coeffs == want, name
        assert got.mode == mode
        _assert_canonical(got)
        same = XPolynomial(list(got.coeffs), mode)
        assert same == got and same._key == got._key and hash(same) == hash(got), name
    for point in (0, 1, -2, Fraction(-1, 2), Fraction(7, 3), factor):
        assert p.evaluate(point) == _ref_evaluate(ra, Fraction(point))
    assert p.evaluate(0) == (ra[0] if ra else 0)


@settings(max_examples=40, deadline=None)
@given(coeff_lists, modes)
def test_embedding_keeps_the_rational_values(a, mode):
    p = XPolynomial(a, ONE)
    ra = _ref_strip(a)
    moved = embed_poly(p, mode)
    assert moved.mode == mode and moved.coeffs == ra and moved._key == p._key
    symbolic = embed_poly(p, SYM)
    assert symbolic.coeffs == tuple(LambdaRatFunc.from_rational(c) for c in ra)
    n, d = p._key
    assert symbolic._key == (tuple((c,) if c else () for c in n), d, 0, 0)
    assert symbolic == XPolynomial(ra, SYM)
    assert embed_poly(symbolic, mode) == moved
    assert embed_poly(moved, ONE) == p


@settings(max_examples=40, deadline=None)
@given(coeff_lists, coeff_lists, modes)
def test_equal_values_have_equal_keys_and_hashes(a, b, mode):
    p, q = XPolynomial(a, mode), XPolynomial(b, mode)
    for left, right in (
        (p + q, q + p),
        (p * q, q * p),
        ((p + q) - q, p),
        (p.scalar_mul(Fraction(3, 5)).scalar_div(Fraction(3, 5)), p),
        (shift_poly(shift_poly(p, Fraction(2, 3)), Fraction(-2, 3)), p),
    ):
        assert left == right
        assert left._key == right._key and hash(left) == hash(right)


sym_coeff_lists = st.lists(
    st.one_of(st.just(0), small_fractions, symbolic_scalars()), max_size=5
)
units = symbolic_scalars(local_numerator=True)


def _assert_symbolic_canonical(p):
    rows, d, a, b = p._key
    assert d > 0 and a >= 0 and b >= 0
    assert not rows or rows[-1]
    assert all(not r or r[-1] for r in rows)
    if a:
        assert any(sum(r) for r in rows)
    if b:
        assert any(sum(r[0::2]) - sum(r[1::2]) for r in rows)
    assert gcd(d, *[c for r in rows for c in r]) == 1
    if not rows:
        assert p._key == ((), 1, 0, 0)


@settings(max_examples=60, deadline=None)
@given(
    sym_coeff_lists, sym_coeff_lists, sym_coeff_lists,
    small_fractions, symbolic_scalars(), units,
)
def test_symbolic_arithmetic_matches_ratfunc_reference(a, b, top, rational, scalar, unit):
    p, q = XPolynomial(a, SYM), XPolynomial(b, SYM)
    ra = _ref_strip([SYM.scalar(c) for c in a])
    rb = _ref_strip([SYM.scalar(c) for c in b])
    assert p.coeffs == ra and q.coeffs == rb
    # t carries its own poles, which cancel in (p + t) + (q - t)
    t = XPolynomial([0] * 5 + top, SYM)
    results = {
        "add": (p + q, _ref_add(ra, rb)),
        "sub": (p - q, _ref_add(ra, [-c for c in rb])),
        "neg": (-p, _ref_strip([-c for c in ra])),
        "mul": (p * q, _ref_mul(ra, rb)),
        "cancel": ((p + t) + (q - t), _ref_add(ra, rb)),
        "self": (p - p, ()),
        "scalar_mul_rational": (
            p.scalar_mul(rational), _ref_strip([c * SYM.scalar(rational) for c in ra])
        ),
        "scalar_mul": (p.scalar_mul(scalar), _ref_strip([c * scalar for c in ra])),
        "int_mul": (p * 3, _ref_strip([c * 3 for c in ra])),
        "scalar_div": (p.scalar_div(unit), _ref_strip([c / unit for c in ra])),
        "derivative": (p.derivative(), _ref_strip([c * m for m, c in enumerate(ra)][1:])),
    }
    if rational:
        results["scalar_div_rational"] = (
            p.scalar_div(rational), _ref_strip([c / SYM.scalar(rational) for c in ra])
        )
    for name, (got, want) in results.items():
        assert got.coeffs == want, name
        assert got.mode == SYM
        _assert_symbolic_canonical(got)
        same = XPolynomial(list(got.coeffs), SYM)
        assert same == got and same._key == got._key and hash(same) == hash(got), name
    for point in (0, 1, -2, Fraction(-1, 2), SYM.lam, scalar, unit):
        assert p.evaluate(point) == _ref_evaluate(ra, SYM.scalar(point))


@settings(max_examples=40, deadline=None)
@given(sym_coeff_lists, sym_coeff_lists, units, small_fractions)
def test_symbolic_equal_values_have_equal_keys_and_hashes(a, b, unit, h):
    p, q = XPolynomial(a, SYM), XPolynomial(b, SYM)
    for left, right in (
        (p + q, q + p),
        (p * q, q * p),
        ((p + q) - q, p),
        (p.scalar_mul(unit).scalar_div(unit), p),
        (p.scalar_div(unit).scalar_mul(unit), p),
        (shift_poly(shift_poly(p, h), -h), p),
        (shift_poly(shift_poly(p, SYM.lam), -SYM.lam), p),
    ):
        assert left == right
        assert left._key == right._key and hash(left) == hash(right)


def test_numeric_mode_refuses_symbolic_scalars():
    for mode in PROPERTY_MODES:
        p = XPolynomial([1, Fraction(1, 2), 3], mode)
        with pytest.raises(MixedModeError):
            XPolynomial([1, SYM.lam], mode)
        with pytest.raises(MixedModeError):
            p.scalar_mul(SYM.lam)
        with pytest.raises(MixedModeError):
            p.scalar_div(SYM.lam)
        with pytest.raises(MixedModeError):
            p.evaluate(SYM.lam)
        with pytest.raises(MixedModeError):
            shift_poly(p, SYM.lam)
        with pytest.raises(MixedModeError):
            p + XPolynomial([1], SYM)


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
    inv = 1 / (lam - 1)
    witness = XPolynomial([-lam * inv, -SYM.one], SYM)
    assert render_x_poly(witness) == "-x - L/(L-1)"
    coeff_term = XPolynomial([SYM.zero, inv * 2], SYM)
    assert render_x_poly(coeff_term) == "(2/(L-1))*x"
