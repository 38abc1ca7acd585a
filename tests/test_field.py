"""Exact scalar domains: canonical forms, field axioms, rendering."""

import ast
import re
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apobern
from apobern import (
    LambdaMode,
    LambdaRatFunc,
    MixedModeError,
    NonLocalDenominatorError,
    PoleError,
    evaluate_at,
    parse_rational,
    rational,
    render_rational,
)
from apobern._kernels import conv_int
from apobern._keys import _add_into, _canonical, _divided, _lift, _sum, _sym_reduced
from apobern.field import LambdaPoly, poly_gcd
from apobern.render import render_ratfunc

from _util import SYM, random_ratfunc, symbolic_scalars


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
    assert parse_rational(" -1.5e3 ") == Fraction(-1500)
    assert parse_rational("2E-4_0") == Fraction(2, 10 ** 40)
    assert parse_rational("1e4299") == 10 ** 4299
    # the digit limit is read from the text, exponents counted
    for text in ("1e4300", "12e-4299", "1e99999999999999999999", "9" * 4301, "1/" + "3" * 4301):
        with pytest.raises(ValueError, match="more than 4300 digits"):
            parse_rational(text)
    assert render_rational(Fraction(1, 2)) == "1/2"
    assert render_rational(Fraction(-3)) == "-3"
    assert render_rational(Fraction(0)) == "0"


# -- the polynomial hooks kept for the benchmark tracer ---------------------------


def test_lambda_poly_strips_trailing_zeros():
    assert LambdaPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert LambdaPoly([0, 0]).coeffs == ()
    assert LambdaPoly().coeffs == ()


def test_lambda_poly_arithmetic():
    # (L+1)(L-1/2) = L^2 + L/2 - 1/2
    product = LambdaPoly([1, 1]) * LambdaPoly([Fraction(-1, 2), 1])
    assert product.coeffs == (Fraction(-1, 2), Fraction(1, 2), 1)
    assert (LambdaPoly([0, 1]) * LambdaPoly()).coeffs == ()


def test_poly_gcd_common_factor():
    a = LambdaPoly([-1, 1]) * LambdaPoly([2, 1])  # (L-1)(L+2)
    b = LambdaPoly([-1, 1]) * LambdaPoly([-3, 1])  # (L-1)(L-3)
    assert poly_gcd(a, b).coeffs == (-1, 1)


def test_gcd_hooks_gain_no_caller():
    # LambdaPoly, poly_gcd and prim_gcd_int stay only as the benchmark's
    # traced names: no other module may start using them
    package = Path(apobern.__file__).parent
    allowed = {"LambdaPoly": {"field.py"}, "poly_gcd": {"field.py"},
               "prim_gcd_int": {"field.py", "_kernels.py"}}
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 10
    for path in modules:
        module = path.relative_to(package).as_posix()
        text = path.read_text(encoding="utf-8")
        for name, owners in allowed.items():
            if module not in owners:
                assert not re.search(rf"\b{name}\b", text), f"{module} names {name}"
    assert not hasattr(apobern, "LambdaPoly") and not hasattr(apobern, "poly_gcd")


# The routines (and zero keys) that build or keep the canonical integer key.
KEY_ROUTINES = {
    "_pole_poly", "_divided", "_horner", "_sym_reduced", "_canonical", "_lift", "_ZERO_KEY",
    "_reduced", "_add_into", "_scaled", "_times", "_sum", "_lifted", "_scalar_key",
    "_checked_rational", "_NUM_ZERO_KEY", "_specialized",
}


def test_the_key_algebra_lives_in_keys_only():
    # _keys alone defines the key routines, and no module reaches into
    # field or polynomials for a private name other than a constructor:
    # _new and _fast_fraction wrap canonical keys, _finish reduces a raw one
    package = Path(apobern.__file__).parent
    constructors = {"_new", "_fast_fraction", "_finish"}
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        if module == "_keys.py":
            assert KEY_ROUTINES <= defined, KEY_ROUTINES - defined
        else:
            assert not KEY_ROUTINES & defined, (module, KEY_ROUTINES & defined)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                    "field", "polynomials", "apobern.field", "apobern.polynomials"):
                private = {a.name for a in node.names if a.name.startswith("_")}
                assert private <= constructors, (module, node.module, private - constructors)


# -- canonical rational functions ----------------------------------------------


def test_ratfunc_canonical_examples():
    lam = SYM.lam
    f = (lam * lam - 1) / (lam - 1)
    assert f == lam + 1
    assert f.pole_orders == (0, 0)

    g = 2 * lam / 4
    assert g == SYM.scalar(Fraction(1, 2)) * lam
    assert g.pole_orders == (0, 0)

    z = SYM.zero / (lam - 1) ** 3
    assert z.is_zero
    assert z.pole_orders == (0, 0)

    # the same value reached through different denominators is one key
    h = (2 * lam + 2) / (6 * (lam - 1) * (lam + 1))
    assert h == 1 / (3 * (lam - 1))
    assert h.pole_orders == (1, 0)
    with pytest.raises(NonLocalDenominatorError):
        1 / lam ** 3


def test_ratfunc_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        SYM.one / SYM.zero
    with pytest.raises(ZeroDivisionError):
        SYM.lam / 0


def test_ratfunc_has_no_public_constructor():
    # symbolic values come from SYM.lam, from_rational and arithmetic
    with pytest.raises(TypeError):
        LambdaRatFunc()
    with pytest.raises(TypeError):
        LambdaRatFunc(1)
    with pytest.raises(TypeError):
        LambdaRatFunc(SYM.lam, SYM.lam - 1)


@settings(max_examples=100, deadline=None)
@given(st.fractions(), symbolic_scalars())
def test_a_ratfunc_hashes_like_the_rational_it_equals(q, f):
    c = LambdaRatFunc.from_rational(q)
    assert c == q and hash(c) == hash(q)
    assert len({q, c}) == 1 and {q: "q"}.get(c) == "q" and {c: "c"}.get(q) == "c"
    if q.denominator == 1:
        assert {q.numerator: "n"}.get(c) == "n"
    # a non-constant key keeps its own hash
    if not f.is_rational:
        assert hash(f) == hash(("LambdaRatFunc", f._key))
    else:
        assert hash(f) == hash(f.as_rational())


def test_ratfunc_zero_is_the_key_of_zero():
    assert {0: "a"}.get(LambdaRatFunc.from_rational(0)) == "a"
    assert len({Fraction(1, 2), LambdaRatFunc.from_rational(Fraction(1, 2))}) == 1


def test_ratfunc_monic_denominator_invariant():
    lam = SYM.lam
    f = 1 / (4 * lam - 4)
    assert f.pole_orders == (1, 0)
    assert f * (lam - 1) == Fraction(1, 4)
    assert f.evaluate_at(3) == Fraction(1, 8)
    # 4L+2 has its root at -1/2, outside the ring's denominators
    with pytest.raises(NonLocalDenominatorError):
        1 / (4 * lam + 2)


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
    assert total.pole_orders == (1, 1)
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
    assert g * (lam - 1) ** 2 * (lam + 1) == Fraction(2, 3)
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
    # deep roots: c (L-1)^p (L+1)^q over poles (L-1)^a (L+1)^b
    for p in range(7):
        for q in range(7):
            top = (lam - 1) ** p * (lam + 1) ** q
            for a in range(7):
                for b in range(7):
                    c = SYM.scalar(Fraction((-1) ** (p + a) * (p + 2 * q + 1), b + 1))
                    u = top * (lam - 1) ** -a * (lam + 1) ** -b * c
                    assert u.pole_orders == (max(a - p, 0), max(b - q, 0))
                    v = u.inverse()
                    assert v.pole_orders == (max(p - a, 0), max(q - b, 0))
                    assert u * v == 1


# -- field axioms (randomized) ---------------------------------------------------


def _ratfuncs(seed):
    rng = Random(seed)
    return [random_ratfunc(rng) for _ in range(3)]


def _is_unit(f: LambdaRatFunc) -> bool:
    """Whether the numerator is c (L-1)^p (L+1)^q: clear the poles, then
    divide out L-1 and L+1 while the value vanishes there; a unit leaves
    a nonzero constant."""
    if f.is_zero:
        return False
    lam = SYM.lam
    a, b = f.pole_orders
    rest = f * (lam - 1) ** a * (lam + 1) ** b
    for root in (1, -1):
        while rest.evaluate_at(root) == 0:
            rest = rest / (lam - root)
    return rest.is_rational


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


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(lambda q: q[-1]),
             min_size=1, max_size=4),
    st.sampled_from((1, -1)),
)
def test_divided_is_synthetic_division_by_l_minus_root(quotients, root):
    rows = [conv_int(q, [-root, 1]) for q in quotients]
    assert _divided(rows, root) == quotients
    # a row that no longer vanishes at root stops the division
    rows[0][0] += 1
    assert _divided(rows, root) is None


def _raw_value(row, d, a, b, point):
    # row / (d (L-1)^a (L+1)^b) at L = point, in plain Fraction arithmetic
    num = sum((Fraction(c) * point ** i for i, c in enumerate(row)), Fraction(0))
    return num / (d * (point - 1) ** a * (point + 1) ** b)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-40, 40),
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    st.integers(0, 8), st.integers(0, 8), st.integers(0, 8), st.integers(0, 8),
    st.integers(1, 5040),
    st.integers(0, 2),
)
def test_canonical_reduces_a_row_to_its_unique_form(c, r, i, j, a, b, d, zeros):
    # c (L-1)^i (L+1)^j r over d (L-1)^a (L+1)^b, with trailing zeros: the
    # key satisfies every invariant of the canonical form and keeps the value
    row = [c * x for x in r]
    for _ in range(i):
        row = conv_int(row, [-1, 1])
    for _ in range(j):
        row = conv_int(row, [1, 1])
    n, e, a2, b2 = _canonical(row + [0] * zeros, d, a, b)
    assert isinstance(n, tuple) and (not n or n[-1])
    assert e > 0 and gcd(e, *n) == 1
    assert 0 <= a2 <= a and 0 <= b2 <= b
    if a2:
        assert sum(n)
    if b2:
        assert sum(n[0::2]) - sum(n[1::2])
    if not n:
        assert (e, a2, b2) == (1, 0, 0)
    for point in (Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)):
        assert _raw_value(n, e, a2, b2, point) == _raw_value(row, d, a, b, point)


def _per_term_sum(terms):
    # _sum's symbolic branch as it lifted every term to the largest pole
    # orders on its own: the reference for the Horner order over one pole
    d = lcm(*[t[1] for t in terms])
    a = max([t[2] for t in terms], default=0)
    b = max([t[3] for t in terms], default=0)
    acc = []
    for rows, e, ta, tb in terms:
        for i, r in enumerate(rows):
            r = _lift(r, d // e, a - ta, b - tb)
            if i < len(acc):
                acc[i] = _add_into(r, acc[i])
            else:
                acc.append(r)
    return _sym_reduced(acc, d, a, b)


_unreduced_terms = st.lists(st.tuples(
    st.lists(st.lists(st.integers(-9, 9), max_size=5), max_size=4),
    st.sampled_from((1, 2, 3, 4, 6, 9, 10, 12)),
    st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(_unreduced_terms)
def test_sum_in_horner_order_equals_the_per_term_lift(terms):
    # pole orders up to 12 at both poles, several rows (zero rows and
    # trailing zeros among them) and mixed denominators; each routine
    # gets fresh lists, as _sum's callers give it
    def fresh():
        return [([list(r) for r in rows], d, a, b) for rows, d, a, b in terms]

    assert _sum(True, fresh()) == _per_term_sum(fresh())


# -- modes -------------------------------------------------------------------


def test_lambda_mode_parse_and_labels():
    assert LambdaMode.parse("symbolic").is_symbolic
    assert LambdaMode.parse("1") == LambdaMode.numeric(1)
    assert LambdaMode.parse("-2").value == -2
    assert LambdaMode.parse("1/3").value == Fraction(1, 3)
    assert LambdaMode.numeric(Fraction(1, 3)).label() == "1/3"
    assert LambdaMode.symbolic().label() == "symbolic"


def test_lambda_modes_are_interned():
    two = LambdaMode.numeric(2)
    assert LambdaMode.parse(" 4/2 ") is two
    assert LambdaMode.parse("symbolic") is LambdaMode.symbolic()
    assert LambdaMode(Fraction(2)) is two and LambdaMode._make([2]) is two
    assert two._replace(value=None) is LambdaMode.symbolic()
    assert two != LambdaMode.numeric(-2) and not two == LambdaMode.numeric(-2)
    memo = {two: "2", LambdaMode.numeric(-2): "-2", LambdaMode.symbolic(): "symbolic"}
    assert memo[LambdaMode.parse("2")] == "2" and memo[LambdaMode.numeric(-2)] == "-2"
    assert memo[LambdaMode(None)] == "symbolic" and len(memo) == 3


def test_lambda_mode_scalar_embedding():
    sym = LambdaMode.symbolic()
    assert isinstance(sym.scalar(Fraction(1, 2)), LambdaRatFunc)
    num = LambdaMode.numeric(2)
    assert num.scalar(3) == Fraction(3)
    with pytest.raises(MixedModeError):
        num.scalar(sym.lam)


# -- rendering ------------------------------------------------------------------


def test_render_lambda_poly_spellings():
    # values without poles: polynomials in L, spelled by render_ratfunc
    lam = SYM.lam
    assert render_ratfunc(lam + 1) == "L+1"
    assert render_ratfunc(lam * lam - 2 * lam + 1) == "L^2-2L+1"
    assert render_ratfunc(SYM.scalar(Fraction(1, 2))) == "1/2"
    assert render_ratfunc(-lam / 2) == "-L/2"
    assert render_ratfunc(2 * lam ** 2 / 3) == "2L^2/3"
    assert render_ratfunc(SYM.zero) == "0"


def test_render_ratfunc_spellings():
    lam = SYM.lam
    assert render_ratfunc(1 / (lam - 1)) == "1/(L-1)"
    assert render_ratfunc(-2 * lam / (lam - 1) ** 2) == "-2L/(L-1)^2"
    assert render_ratfunc((lam + 1) / 2) == "L/2+1/2"
    mixed = 1 / ((lam - 1) * (lam + 1))
    assert render_ratfunc(mixed) == "1/((L-1)*(L+1))"
    assert render_ratfunc(1 / ((lam - 1) ** 2 * (lam + 1))) == "1/((L-1)^2*(L+1))"
    with pytest.raises(NonLocalDenominatorError):
        1 / lam ** 2
    # human format swaps the symbol
    assert render_ratfunc(1 / (lam - 1), "λ") == "1/(λ-1)"
