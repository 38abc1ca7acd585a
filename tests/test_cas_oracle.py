"""A CAS oracle for the verdicts of Theorems 4 and 5.

Both sides are rebuilt in sympy from the generating functions, so no
table, kernel or shared formula of the package enters the expected
values.  The order-k members are n! [t^n] (t/(L e^t - 1))^k e^(xt), and
the classical Bernoulli and Euler polynomials are n! [t^n] of
t e^(zt)/(e^t - 1) and 2 e^(zt)/(e^t + 1), all expanded by
``sympy.series``.  The brackets are written as the paper displays them.
At n <= 3, k <= 2, the first two y samples, symbolic L and L = 2, each
verdict of the default suite must be the CAS verdict, and each witness
must be the CAS value of LHS - RHS.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from sympy.parsing.sympy_parser import (  # noqa: E402
    implicit_multiplication_application,
    parse_expr,
    standard_transformations,
)

from apobern import IdentityId, default_grid, verify_identity  # noqa: E402

from _util import SYM, TWO  # noqa: E402

L, x, t, z = sympy.symbols("L x t z")
MAX_N, MAX_K = 3, 2
Y_SAMPLES = (Fraction(-1, 2), Fraction(1, 2))
LAMBDAS = {SYM: L, TWO: 2}
TRANSFORMATIONS = standard_transformations + (implicit_multiplication_application,)


def _coefficients(kernel, count):
    """n! [t^n] kernel for n < count, read from sympy's series."""
    series = sympy.series(kernel, t, 0, count).removeO()
    return [sympy.factorial(n) * series.coeff(t, n) for n in range(count)]


@pytest.fixture(scope="module")
def cas():
    members = {
        k: _coefficients((t / (L * sympy.exp(t) - 1)) ** k * sympy.exp(x * t), MAX_N + 1)
        for k in range(MAX_K + 1)
    }
    # the Theorem 5 bracket reads E_(m+1), so the classical tables run to MAX_N + 1
    bernoulli = _coefficients(t * sympy.exp(z * t) / (sympy.exp(t) - 1), MAX_N + 2)
    euler = _coefficients(2 * sympy.exp(z * t) / (sympy.exp(t) + 1), MAX_N + 2)
    return members, bernoulli, euler


def _ff(n, m):
    return sympy.factorial(n) / sympy.factorial(m)


def _convolution(poly, n, y):
    return sum(sympy.binomial(n, i) * poly(i, x) * poly(n - i, y) for i in range(n + 1))


def _thm4_sides(cas, n, k, y):
    members, bernoulli, _ = cas

    def b(m, arg):
        return bernoulli[m].subs(z, arg)

    rhs = 0
    for j in range(k, n + 1):
        m = n - j + k
        coefficient = 0
        for a in range(k + 1):
            arg = a + y
            bracket = (1 - m) * _ff(n, m) * b(m, arg)
            if m >= 1:
                bracket += (arg - 1) * _ff(n, m - 1) * b(m - 1, arg)
            coefficient += (-1) ** a * sympy.binomial(k, a) * L ** a * bracket
        rhs += coefficient / sympy.factorial(j) * members[k][j]
    return _convolution(b, n, y), rhs


def _thm5_sides(cas, n, k, y):
    members, _, euler = cas

    def e(m, arg):
        return euler[m].subs(z, arg)

    rhs = 0
    for j in range(k, n + 1):
        m = n - j + k
        bracket = (
            _ff(n, m) * (1 - x - y) * e(m, x + y)
            - _ff(n, m + 1) * (n - m) * e(m + 1, x + y)
            + _ff(n + 1, m + 1) * e(m + 1, x + y)
        )
        rhs += bracket / sympy.factorial(j) * members[k][j]
    return _convolution(e, n, y), 2 * (1 - L) ** k * rhs


@pytest.mark.parametrize(
    "ident, sides",
    [(IdentityId.ID_THM4, _thm4_sides), (IdentityId.ID_THM5, _thm5_sides)],
)
def test_verdicts_and_witnesses_match_the_cas(cas, ident, sides):
    report = verify_identity(ident, default_grid(ident, max_n=MAX_N, max_k=MAX_K))
    verdicts = set()
    for entry in report.results:
        pt = entry.point
        if pt.mode not in LAMBDAS or pt.y not in Y_SAMPLES:
            continue
        lhs, rhs = sides(cas, pt.n, pt.k, sympy.Rational(pt.y.numerator, pt.y.denominator))
        difference = sympy.cancel((lhs - rhs).subs(L, LAMBDAS[pt.mode]))
        assert entry.passed == (difference == 0), pt
        if not entry.passed:
            witness = parse_expr(entry.witness.replace("^", "**"), local_dict={"L": L, "x": x},
                                 transformations=TRANSFORMATIONS)
            assert sympy.cancel(witness - difference) == 0, (pt, entry.witness)
        verdicts.add((pt.n, pt.k, pt.mode, pt.y, entry.passed))
    assert len(verdicts) == (MAX_N + 1) * (MAX_K + 1) * len(LAMBDAS) * len(Y_SAMPLES)
    assert {passed for *_, passed in verdicts} == {True, False}
