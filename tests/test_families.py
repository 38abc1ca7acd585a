"""Number tables and polynomial families: frozen values and invariants."""

from fractions import Fraction

import pytest

from apobern import (
    Family,
    LambdaMode,
    PoleError,
    XPolynomial,
    apostol_bernoulli_numbers,
    apostol_bernoulli_poly,
    apostol_euler_numbers,
    apostol_euler_poly,
    bernoulli_numbers_by_recurrence,
    bernoulli_poly,
    euler_number_from_half_point,
    euler_numbers_by_recurrence,
    euler_poly,
    poly_by_series_extraction,
)

from _util import ALL_MODES, ONE, SYM, TWO

LAM = SYM.lam

# classic tables
BERNOULLI = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    0,
    Fraction(-1, 30),
    0,
    Fraction(1, 42),
    0,
    Fraction(-1, 30),
    0,
    Fraction(5, 66),
    0,
    Fraction(-691, 2730),
]
EULER = [1, 0, -1, 0, 5, 0, -61, 0, 1385, 0, -50521, 0, 2702765]


def test_bernoulli_recurrence_matches_classic_table():
    table = bernoulli_numbers_by_recurrence(12)
    assert list(table.values) == BERNOULLI
    assert table.family is Family.BERNOULLI


def test_bernoulli_recurrence_defining_relation():
    # (B+1)^n - B_n with B^j -> B_j equals 1 exactly at n = 1
    from math import comb

    table = bernoulli_numbers_by_recurrence(16)
    for n in range(17):
        lhs = sum(comb(n, j) * table[j] for j in range(n + 1)) - table[n]
        assert lhs == (1 if n == 1 else 0)


def test_euler_recurrence_matches_classic_table():
    table = euler_numbers_by_recurrence(12)
    assert list(table.values) == EULER


def test_euler_recurrence_defining_relation():
    # (E+1)^n + (E-1)^n equals 2 at n = 0 and vanishes otherwise
    from math import comb

    table = euler_numbers_by_recurrence(14)
    for n in range(15):
        lhs = sum(
            comb(n, j) * table[j] * (1 + (-1) ** (n - j)) for j in range(n + 1)
        )
        assert lhs == (2 if n == 0 else 0)


def test_euler_number_bridge():
    for k in range(13):
        assert euler_number_from_half_point(k) == EULER[k]


def test_series_extraction_matches_recurrence_at_classical_point():
    series_table = apostol_bernoulli_numbers(1, 24, ONE)
    recurrence_table = bernoulli_numbers_by_recurrence(24)
    assert series_table.values == recurrence_table.values


def test_order_zero_numbers():
    table = apostol_bernoulli_numbers(0, 5, SYM)
    assert table[0] == 1
    assert all(v.is_zero for v in table.values[1:])
    table = apostol_euler_numbers(0, 5, TWO)
    assert list(table.values) == [1, 0, 0, 0, 0, 0]


def test_symbolic_bernoulli_values():
    table = apostol_bernoulli_numbers(1, 3, SYM)
    assert table[0].is_zero
    assert table[1] == 1 / (LAM - 1)
    assert table[2] == -2 * LAM / (LAM - 1) ** 2
    assert table[3] == (3 * LAM + 3 * LAM ** 2) / (LAM - 1) ** 3


def test_symbolic_euler_values():
    table = apostol_euler_numbers(1, 2, SYM)
    assert table[0] == 2 / (LAM + 1)
    assert table[1] == -2 * LAM / (LAM + 1) ** 2
    assert table[2] == (2 * LAM ** 2 - 2 * LAM) / (LAM + 1) ** 3


def test_euler_symbolic_specializes_to_classical_at_one():
    # the Euler family has no pole at 1, so substitution must agree with
    # the classical branch
    sym_table = apostol_euler_numbers(1, 6, SYM)
    one_table = apostol_euler_numbers(1, 6, ONE)
    for v_sym, v_one in zip(sym_table.values, one_table.values):
        assert v_sym.evaluate_at(1) == v_one


@pytest.mark.parametrize("point", [2, -2, Fraction(1, 3), 3])
def test_symbolic_values_specialize_to_numeric_mode(point):
    # substitution into the symbolic values must agree with the numeric
    # mode, which computes in plain rationals and never touches Q(L)
    numeric = LambdaMode.numeric(point)
    for numbers, poly in (
        (apostol_bernoulli_numbers, apostol_bernoulli_poly),
        (apostol_euler_numbers, apostol_euler_poly),
    ):
        for k in range(5):
            sym_table = numbers(k, 10, SYM)
            num_table = numbers(k, 10, numeric)
            for v_sym, v_num in zip(sym_table.values, num_table.values, strict=True):
                assert isinstance(v_num, Fraction)
                assert v_sym.evaluate_at(point) == v_num
            for n in range(11):
                sym_poly = poly(n, k, SYM)
                num_poly = poly(n, k, numeric)
                coeffs = [sym_poly.coefficient(m).evaluate_at(point) for m in range(n + 1)]
                assert coeffs == [num_poly.coefficient(m) for m in range(n + 1)]


def test_euler_rejects_minus_one():
    with pytest.raises(PoleError):
        apostol_euler_numbers(1, 3, LambdaMode.numeric(-1))
    with pytest.raises(PoleError):
        apostol_euler_poly(2, 1, LambdaMode.numeric(-1))


def test_classical_polynomials():
    x = XPolynomial.monomial(ONE, 1)
    assert bernoulli_poly(0) == XPolynomial.one(ONE)
    assert bernoulli_poly(1) == x - XPolynomial([Fraction(1, 2)], ONE)
    assert bernoulli_poly(2) == XPolynomial([Fraction(1, 6), -1, 1], ONE)
    assert euler_poly(1) == x - XPolynomial([Fraction(1, 2)], ONE)
    assert euler_poly(2) == XPolynomial([0, -1, 1], ONE)


def test_poly_examples():
    # order zero collapses to monomials in every mode
    for mode in ALL_MODES:
        for n in (0, 1, 4):
            assert apostol_bernoulli_poly(n, 0, mode) == XPolynomial.monomial(mode, n)
            assert apostol_euler_poly(n, 0, mode) == XPolynomial.monomial(mode, n)
    # n=1, k=1 symbolic: the constant 1/(L-1)
    p = apostol_bernoulli_poly(1, 1, SYM)
    assert p.degree == 0
    assert p.coefficient(0) == 1 / (LAM - 1)
    # classical branch
    assert apostol_bernoulli_poly(1, 1, ONE) == XPolynomial(
        [Fraction(-1, 2), 1], ONE
    )
    assert apostol_euler_poly(1, 1, ONE) == XPolynomial([Fraction(-1, 2), 1], ONE)


def test_euler_poly_symbolic_evaluates_to_classical():
    poly = apostol_euler_poly(1, 1, SYM)
    values = [c.evaluate_at(1) for c in poly.coeffs]
    assert values == [Fraction(-1, 2), Fraction(1)]


def test_dual_path_equality_subgrid():
    # full grid is exercised by the acceptance suite
    for mode in (SYM, ONE, TWO):
        for k in range(3):
            for n in range(7):
                assert apostol_bernoulli_poly(n, k, mode) == poly_by_series_extraction(
                    n, k, mode, Family.APOSTOL_BERNOULLI
                )
                assert apostol_euler_poly(n, k, mode) == poly_by_series_extraction(
                    n, k, mode, Family.APOSTOL_EULER
                )


def test_degree_facts():
    for k in range(1, 5):
        for j in range(11):
            sym = apostol_bernoulli_poly(j, k, SYM)
            if j < k:
                assert sym.is_zero
            else:
                assert sym.degree == j - k
                from math import comb, factorial

                lead = sym.leading
                expected = comb(j, j - k) * factorial(k) / (LAM - 1) ** k
                assert lead == expected
            classical = apostol_bernoulli_poly(j, k, ONE)
            assert classical.degree == j
            assert classical.leading == 1


def test_derivative_relation():
    for mode in ALL_MODES:
        for k in range(5):
            for n in range(1, 11):
                lhs = apostol_bernoulli_poly(n, k, mode).derivative()
                rhs = apostol_bernoulli_poly(n - 1, k, mode) * n
                assert lhs == rhs


def test_difference_relation():
    from apobern import shift_poly

    for mode in (SYM, ONE):
        for k in range(1, 5):
            for n in range(9):
                p = apostol_bernoulli_poly(n + 1, k, mode)
                lhs = shift_poly(p, 1).scalar_mul(mode.lam) - p
                rhs = apostol_bernoulli_poly(n, k - 1, mode) * (n + 1)
                assert lhs == rhs


def test_order_additivity_by_umbral_convolution():
    # the kernels multiply, so numbers of order j+k are the binomial
    # convolutions of the order-j and order-k numbers
    from math import comb

    for mode in (SYM, ONE, TWO):
        for j, k in ((1, 1), (1, 2), (2, 2)):
            a = apostol_bernoulli_numbers(j, 6, mode)
            b = apostol_bernoulli_numbers(k, 6, mode)
            combined = apostol_bernoulli_numbers(j + k, 6, mode)
            for n in range(7):
                acc = mode.zero
                for i in range(n + 1):
                    acc = acc + a[i] * b[n - i] * comb(n, i)
                assert acc == combined[n], (mode, j, k, n)


def test_memoization_behaves_as_if_absent():
    a = apostol_bernoulli_numbers(2, 6, SYM)
    b = apostol_bernoulli_numbers(2, 6, SYM)
    assert a is b  # cached
    c = apostol_bernoulli_numbers(2, 6, LambdaMode.symbolic())
    assert c is a  # equal modes hash alike
    fresh = apostol_bernoulli_numbers(2, 4, SYM)
    assert fresh.values == a.values[:5]
