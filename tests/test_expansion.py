"""Basis expansion: oracle soundness and adjudication of the two formulas."""

from fractions import Fraction
from math import factorial
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apobern import (
    BasisExpansion,
    DifferencePowerMethod,
    ExpansionMethod,
    UnsupportedModeError,
    XPolynomial,
    closed_form_coefficients,
    corrected_coefficients,
    expand_oracle,
    reconstruct,
)
from apobern.expansion import basis_sum
from apobern.operators import alternating_lambda_sum, d_op, lambda_power_at_zero

from _util import ALL_MODES, NOT_ONE_MODES, ONE, PROPERTY_MODES, SYM, random_xpoly, symbolic_scalars


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
                oracle = expand_oracle(q, k)
                assert reconstruct(oracle) == q and oracle.reconstruction is q


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


small = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(ALL_MODES), k=st.integers(0, 3),
       lower=st.lists(small, max_size=5), lead=small.filter(bool), data=st.data())
def test_a_changed_coefficient_breaks_the_reconstruction(mode, k, lower, lead, data):
    # the basis is triangular with a nonzero diagonal over the oracle's
    # window, so only the oracle's coefficients reconstruct q: a window
    # judged by its reconstruction alone needs no comparison with the oracle
    q = XPolynomial(lower + [lead], mode)
    oracle = expand_oracle(q, k)
    changed = list(oracle.coefficients)
    i = data.draw(st.integers(0, len(changed) - 1))
    changed[i] = changed[i] + mode.scalar(data.draw(small.filter(bool)))
    assert basis_sum(changed, oracle.j_lo, k, mode) != q



# The per-j loops of the two coefficient formulas as they stood before
# both became one windowed route; the route must reproduce them.


def _ref_empty(method, k, mode, exact):
    return BasisExpansion(method, k, mode, k, k - 1, (), exact, XPolynomial.zero(mode))


def _ref_reconstructed(method, q, k, j_hi, coeffs):
    expansion = BasisExpansion(method, k, q.mode, k, j_hi, tuple(coeffs), False, None)
    reconstruction = reconstruct(expansion)
    return expansion._replace(exact=reconstruction == q, reconstruction=reconstruction)


def _ref_closed_form(q, k):
    mode = q.mode
    n = q.degree
    if n < k:
        return _ref_empty(ExpansionMethod.CLOSED_FORM, k, mode, exact=q.is_zero)
    coeffs = [
        alternating_lambda_sum(mode, k, d_op(q, j - k).evaluate) / factorial(j)
        for j in range(k, n + 1)
    ]
    return _ref_reconstructed(ExpansionMethod.CLOSED_FORM, q, k, n, coeffs)


def _ref_corrected(q, k):
    mode = q.mode
    if q.is_zero:
        return _ref_empty(ExpansionMethod.CORRECTED, k, mode, exact=True)
    n = q.degree
    coeffs = [
        lambda_power_at_zero(d_op(q, j - k), k, DifferencePowerMethod.ITERATED) / factorial(j)
        for j in range(k, k + n + 1)
    ]
    return _ref_reconstructed(ExpansionMethod.CORRECTED, q, k, k + n, coeffs)


_small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def _window_cases(draw):
    """(q, k) in every mode, q of degree at most 6 (zero included), with
    symbolic coefficients that carry poles in symbolic mode."""
    mode = draw(st.sampled_from(ALL_MODES + PROPERTY_MODES[2:]))
    k = draw(st.integers(0, 4))
    scalars = symbolic_scalars() if mode.is_symbolic else _small_fractions
    coeffs = draw(st.lists(st.one_of(st.just(0), scalars), max_size=7))
    return XPolynomial(coeffs, mode), k


def _assert_same_route(q, k):
    routes = [(closed_form_coefficients, _ref_closed_form)]
    if not q.mode.is_one:
        routes.append((corrected_coefficients, _ref_corrected))
    for route, reference in routes:
        got, want = route(q, k), reference(q, k)
        assert (got.method, got.k, got.mode) == (want.method, want.k, want.mode)
        assert (got.j_lo, got.j_hi) == (want.j_lo, want.j_hi)
        assert got.coefficients == want.coefficients
        assert got.exact == want.exact
        assert got.reconstruction == want.reconstruction


@settings(max_examples=60, deadline=None)
@given(_window_cases())
@example((XPolynomial.zero(SYM), 3))
@example((XPolynomial.one(ONE), 4))
def test_windowed_route_matches_the_per_j_loops(case):
    _assert_same_route(*case)


def test_windowed_route_on_zero_and_empty_windows():
    # q = 0 and deg q < k - 1 give empty windows that still end at k - 1
    for mode in ALL_MODES:
        for k in range(5):
            _assert_same_route(XPolynomial.zero(mode), k)
            for deg in range(k - 1):
                _assert_same_route(XPolynomial([-1] * deg + [3], mode), k)
            assert closed_form_coefficients(XPolynomial.zero(mode), k).j_hi == k - 1


def test_windowed_route_errors():
    for mode in ALL_MODES:
        q = XPolynomial.monomial(mode, 2)
        # a negative order is refused first, also at L = 1
        for route in (closed_form_coefficients, corrected_coefficients):
            with pytest.raises(ValueError) as info:
                route(q, -1)
            assert not isinstance(info.value, UnsupportedModeError)
    with pytest.raises(UnsupportedModeError):
        corrected_coefficients(XPolynomial.zero(ONE), 0)
