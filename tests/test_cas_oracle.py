"""A CAS oracle for the verdicts of the basis expansions of x^n,
E_n^(k)(x|1) and B_n^(k)(x|1) (Corollary, Theorems 2 and 3) and of the
convolution expansions (Theorems 4 and 5).

Both sides are rebuilt in sympy from the generating functions, so no
table, kernel or shared formula of the package enters the expected
values.  The order-k members are n! [t^n] (t/(L e^t - 1))^k e^(xt), the
expanded families at L = 1 are n! [t^n] of (2/(e^t + 1))^k e^(zt) and
(t/(e^t - 1))^k e^(zt), and the classical Bernoulli and Euler
polynomials are n! [t^n] of t e^(zt)/(e^t - 1) and 2 e^(zt)/(e^t + 1),
all expanded by ``sympy.series``.  A basis coefficient is Theorem 1's
(1/j!) sum_a (-1)^a C(k,a) L^a (D^(j-k) q_n)(a), with the derivative
taken by sympy, and the brackets of Theorems 4 and 5 are written as the
paper displays them.  At n <= 3, k <= 2, the first two y samples,
symbolic L, L = 2 and L = 1/3, each verdict of the default suite must be
the CAS verdict, and so must the verdict that the packaged expectation
file records at that point, and each witness must be the CAS value of
LHS - RHS.
"""

import json
from fractions import Fraction
from importlib import resources

import pytest

sympy = pytest.importorskip("sympy")

from sympy.parsing.sympy_parser import (  # noqa: E402
    implicit_multiplication_application,
    parse_expr,
    standard_transformations,
)

from apobern import IdentityId, default_grid, verify_identity  # noqa: E402

from _util import SYM, THIRD, TWO  # noqa: E402

L, x, t, z = sympy.symbols("L x t z")
MAX_N, MAX_K = 3, 2
Y_SAMPLES = (Fraction(-1, 2), Fraction(1, 2))
LAMBDAS = {SYM: L, TWO: 2, THIRD: sympy.Rational(1, 3)}
# how the expectation file writes each of them
LAMBDA_TEXT = {SYM: "symbolic", TWO: "2", THIRD: "1/3"}
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
    # the expanded families at L = 1 in z, by order k and index n
    families = {
        IdentityId.ID_COR_XN: [[z ** n for n in range(MAX_N + 1)]] * (MAX_K + 1),
        IdentityId.ID_THM2: [
            _coefficients((2 / (sympy.exp(t) + 1)) ** k * sympy.exp(z * t), MAX_N + 1)
            for k in range(MAX_K + 1)
        ],
        IdentityId.ID_THM3: [
            _coefficients((t / (sympy.exp(t) - 1)) ** k * sympy.exp(z * t), MAX_N + 1)
            for k in range(MAX_K + 1)
        ],
    }
    return members, bernoulli, euler, families


@pytest.fixture(scope="module")
def expected():
    """The packaged expectation's verdicts, passed or not, by identity name
    and point (n, k, lambda, y, variant) as the file writes them."""
    text = resources.files("apobern").joinpath("data", "expected_verdicts.json").read_text(
        encoding="utf-8")
    verdicts = {}
    for item in json.loads(text):
        for result in item["results"]:
            p = result["point"]
            key = (item["identity"], p["n"], p["k"], p["lambda"], p["y"], p["variant"])
            verdicts[key] = result["verdict"] == "pass"
    return verdicts


def _ff(n, m):
    return sympy.factorial(n) / sympy.factorial(m)


def _convolution(poly, n, y):
    return sum(sympy.binomial(n, i) * poly(i, x) * poly(n - i, y) for i in range(n + 1))


def _basis_sides(ident):
    def sides(cas, n, k, y):
        members, *_, families = cas
        q = families[ident][k][n]
        rhs = 0
        for j in range(k, n + 1):
            derivative = sympy.diff(q, z, j - k)
            coefficient = sum((-1) ** a * sympy.binomial(k, a) * L ** a * derivative.subs(z, a)
                              for a in range(k + 1))
            rhs += coefficient / sympy.factorial(j) * members[k][j]
        return q.subs(z, x), rhs

    return sides


def _thm4_sides(cas, n, k, y):
    members, bernoulli, *_ = cas

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
    members, _, euler, _ = cas

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


@pytest.mark.parametrize("ident, sides", [
    *[(ident, _basis_sides(ident))
      for ident in (IdentityId.ID_COR_XN, IdentityId.ID_THM2, IdentityId.ID_THM3)],
    (IdentityId.ID_THM4, _thm4_sides),
    (IdentityId.ID_THM5, _thm5_sides),
])
def test_verdicts_and_witnesses_match_the_cas(cas, expected, ident, sides):
    report = verify_identity(ident, default_grid(ident, max_n=MAX_N, max_k=MAX_K))
    ys = (None,) if report.results[0].point.y is None else Y_SAMPLES
    differences = {}
    verdicts = set()
    for entry in report.results:
        pt = entry.point
        if pt.mode not in LAMBDAS or pt.y not in ys:
            continue
        if (pt.n, pt.k, pt.y) not in differences:
            y = None if pt.y is None else sympy.Rational(pt.y.numerator, pt.y.denominator)
            lhs, rhs = sides(cas, pt.n, pt.k, y)
            differences[pt.n, pt.k, pt.y] = lhs - rhs
        difference = sympy.cancel(differences[pt.n, pt.k, pt.y].subs(L, LAMBDAS[pt.mode]))
        assert entry.passed == (difference == 0), pt
        y_text = None if pt.y is None else str(pt.y)
        key = (ident.value, pt.n, pt.k, LAMBDA_TEXT[pt.mode], y_text, entry.variant)
        assert expected[key] == (difference == 0), key
        if not entry.passed:
            witness = parse_expr(entry.witness.replace("^", "**"), local_dict={"L": L, "x": x},
                                 transformations=TRANSFORMATIONS)
            assert sympy.cancel(witness - difference) == 0, (pt, entry.witness)
        verdicts.add((pt.n, pt.k, pt.mode, pt.y, entry.passed))
    assert len(verdicts) == (MAX_N + 1) * (MAX_K + 1) * len(LAMBDAS) * len(ys)
    assert {passed for *_, passed in verdicts} == {True, False}
