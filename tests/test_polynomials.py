"""XPolynomial structure, mode discipline, and rendering."""

from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apobern import (
    LambdaMode,
    LambdaRatFunc,
    MixedModeError,
    XPolynomial,
    embed_poly,
    shift_poly,
)
from apobern._kernels import conv_int
from apobern.polynomials import dot
from apobern.render import (
    LATEX_SYMBOL,
    TEXT_SYMBOL,
    _specialized_text,
    _terms_text,
    render_field_element,
    render_x_poly,
)

from _util import ONE, PROPERTY_MODES, SYM, TWO, random_xpoly, symbolic_scalars

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


def _running_sum(mode, factors, polys):
    # the reference: a running sum of coefficients in the scalar domain
    total = ()
    for f, p in zip(factors, polys):
        if isinstance(f, XPolynomial):
            term = _ref_mul(f.coeffs, p.coeffs)
        else:
            term = _ref_strip([mode.scalar(f) * c for c in p.coeffs])
        total = _ref_add(total, term)
    return total


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_dot_matches_the_running_sum(data):
    for mode in (SYM, data.draw(modes)):
        coeffs = sym_coeff_lists if mode is SYM else coeff_lists
        polys = coeffs.map(lambda cs: XPolynomial(cs, mode))
        # symbolic scalars carry poles of several orders at L = 1 and L = -1
        scalars = st.just(0) | small_fractions
        if mode is SYM:
            scalars = scalars | symbolic_scalars()
        pairs = data.draw(st.lists(st.tuples(scalars | polys, polys), max_size=4))
        factors, terms = [f for f, _ in pairs], [p for _, p in pairs]
        got = dot(mode, factors, terms)
        assert got.coeffs == _running_sum(mode, factors, terms) and got.mode is mode
        (_assert_symbolic_canonical if mode is SYM else _assert_canonical)(got)
        # the same terms again, negated, cancel to zero
        assert dot(mode, factors + [-f for f in factors], terms + terms) == XPolynomial.zero(mode)


def test_dot_refuses_mixed_modes():
    p, s = XPolynomial([1, 2], TWO), XPolynomial([1, SYM.lam], SYM)
    for mode, factors, polys in (
        (TWO, [1], [s]),
        (TWO, [SYM.lam], [p]),
        (TWO, [s], [p]),
        (SYM, [p], [s]),
        (SYM, [1], [XPolynomial([1], ONE)]),
    ):
        with pytest.raises(MixedModeError):
            dot(mode, factors, polys)


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


_TWINS = (Fraction(2), Fraction(-2), Fraction(1, 3), Fraction(3, 2), Fraction(-1, 2))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(st.integers(-9, 9), max_size=9), min_size=1, max_size=6),
    st.integers(1, 60),
    st.integers(0, 8),
    st.integers(0, 8),
    st.sampled_from((None,) + _TWINS),
    st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(lambda q: abs(q) != 1),
)
@example([[1, -1]], 1, 8, 0, None, Fraction(0))
@example([[0, 3], [5]], 4, 0, 8, Fraction(1, 3), Fraction(-5, 6))
def test_specialized_text_is_the_text_of_the_specialized_residual(rows, d, a, b, root, q):
    # a symbolic residual key with poles up to order 8 at L = 1 and
    # L = -1, several rows of unequal length, zero rows and mixed d, every
    # row taking the factor (v L - u) of a root u/v when one is drawn, so
    # that its twin passes.  At each twin value and at q (q < 1 makes
    # u - v negative) the twin's pass bit and text are those of each
    # coefficient evaluated on its own: evaluate_at runs Horner and shares
    # no code with _keys._specialized, a dot with cached powers
    from apobern._keys import _sym_reduced
    from apobern.polynomials import _new

    if root is not None:
        rows = [conv_int(r, [-root.numerator, root.denominator]) for r in rows]
    key = _sym_reduced([list(r) for r in rows], d, a, b)
    if not key[0]:
        return
    residual = _new(SYM, key)
    for value in _TWINS + (q,):
        mode = LambdaMode.numeric(value)
        reference = XPolynomial([c.evaluate_at(value) for c in residual.coeffs], mode)
        text = _specialized_text(key, value)
        assert (text == "") == (not reference) and (text == "" or value != root), value
        assert text == "" or text == render_x_poly(reference), value


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


# The renderer as it read each coefficient as a scalar: the reference for
# rendering from the coefficient keys.


def _ref_sign(value):
    if isinstance(value, LambdaRatFunc):
        n = value._key[0]
        return 0 if not n else (1 if n[-1] > 0 else -1)
    return 0 if not value else (1 if value > 0 else -1)


def _ref_term(magnitude, sym, exponent):
    xpow = "x" if exponent == 1 else f"x^{exponent}"
    if exponent == 0:
        return render_field_element(magnitude, sym)
    if isinstance(magnitude, LambdaRatFunc):
        n, q, a, b = magnitude._key
        if a or b or len(n) > 1:
            body = render_field_element(magnitude, sym)
            if a or b or len(n) - n.count(0) > 1:
                body = f"({body})"
            return f"{body}*{xpow}"
        p = n[0]
    else:
        p, q = magnitude.numerator, magnitude.denominator
    head = xpow if p == 1 else f"{p}{xpow}"
    return head if q == 1 else f"{head}/{q}"


def _ref_render_x_poly(coeffs, sym):
    # coeffs: the ascending scalars of the mode, trailing zeros allowed
    parts = []
    for exponent in range(len(coeffs) - 1, -1, -1):
        c = coeffs[exponent]
        sign = _ref_sign(c)
        if sign == 0:
            continue
        body = _ref_term(c if sign > 0 else -c, sym, exponent)
        if not parts:
            parts.append(body if sign > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if sign > 0 else f" - {body}")
    return "".join(parts) or "0"


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_render_x_poly_matches_the_per_coefficient_renderer(data):
    # symbolic coefficients carry poles at both L = 1 and L = -1,
    # multi-term numerators and negative leading entries; pole-free
    # monomials c L^i take the unbracketed "cL^i*x" spelling
    mode = data.draw(st.sampled_from((SYM,) + PROPERTY_MODES))
    monomials = st.lists(st.builds(lambda c, i: SYM.lam ** i * c, st.integers(-3, 3),
                                   st.integers(0, 2)), max_size=4)
    coeffs = data.draw((sym_coeff_lists | monomials) if mode is SYM else coeff_lists)
    p = XPolynomial(coeffs, mode)
    # the reference reads the drawn scalars, not the polynomial's key
    scalars = [mode.scalar(c) for c in coeffs]
    for poly, ref in ((p, scalars), (-p, [-c for c in scalars])):
        for sym in ("L", TEXT_SYMBOL, LATEX_SYMBOL):
            assert render_x_poly(poly, sym) == _ref_render_x_poly(ref, sym)


# The term loop as it called _monomial once per term: the reference for
# the inline term texts of _terms_text.


def _monomial(p, q, sym, exponent):
    # term p/q sym^exponent, p/q > 0 in lowest terms: "2L^3", "L/2", "2L^2/3"
    if exponent == 0:
        return str(p) if q == 1 else f"{p}/{q}"
    power = sym if exponent == 1 else f"{sym}^{exponent}"
    head = power if p == 1 else f"{p}{power}"
    return head if q == 1 else f"{head}/{q}"


def _ref_terms_text(n, d, sym, space):
    parts = []
    for exponent in range(len(n) - 1, -1, -1):
        p = n[exponent]
        if p:
            if parts:
                parts.append(f"{space}-{space}" if p < 0 else f"{space}+{space}")
            elif p < 0:
                parts.append("-")
            g = gcd(p, d)
            parts.append(_monomial(abs(p) // g, d // g, sym, exponent))
    return "".join(parts)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-30, 30), max_size=7), st.integers(1, 36) | st.just(1),
       st.sampled_from(("L", TEXT_SYMBOL, LATEX_SYMBOL, "x")), st.sampled_from(("", " ")))
@example([0, -1, 0, 6, 1], 1, "x", " ")
@example([-4, 2, 0, -6], 6, "L", "")
def test_terms_text_matches_the_per_term_monomial_loop(n, d, sym, space):
    assert _terms_text(n, d, sym, space) == _ref_terms_text(n, d, sym, space)


@settings(max_examples=80, deadline=None)
@given(mode=st.sampled_from((SYM,) + PROPERTY_MODES), exponent=st.integers(0, 6),
       coeff=st.one_of(symbolic_scalars(), st.sampled_from((0, Fraction(0))),
                       st.integers(-5, 5), small_fractions))
@example(mode=SYM, exponent=2, coeff=3 / (SYM.lam - 1))
@example(mode=SYM, exponent=3, coeff=Fraction(0))
def test_monomial_equals_the_constructor(mode, exponent, coeff):
    # the monomial writes its key directly; zero coefficients included
    terms = [0] * exponent + [coeff]
    if mode is not SYM and isinstance(coeff, LambdaRatFunc):
        with pytest.raises(MixedModeError):
            XPolynomial.monomial(mode, exponent, coeff)
        with pytest.raises(MixedModeError):
            XPolynomial(terms, mode)
        return
    monomial = XPolynomial.monomial(mode, exponent, coeff)
    assert monomial.mode is mode
    assert monomial._key == XPolynomial(terms, mode)._key
