"""Number tables and polynomial families: frozen values and invariants."""

import collections
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from apobern import families
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
from apobern.identities import IdentityId, default_grid, default_suite_config, run_suite, verify_identity

from _util import ALL_MODES, ONE, PROPERTY_MODES, SYM, TWO

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


@pytest.mark.parametrize("numbers, family", [
    (bernoulli_numbers_by_recurrence, Family.BERNOULLI),
    (euler_numbers_by_recurrence, Family.EULER),
], ids=["bernoulli", "euler"])
def test_classical_recurrences_read_prefixes_of_one_table(numbers, family):
    # like the family tables, each recurrence extends its longest table
    families.clear_caches()
    fresh = [numbers(n) for n in (0, 5, 12)]
    families.clear_caches()
    longest = numbers(20)
    assert [numbers(n) for n in (0, 5, 12)] == fresh
    assert [key for key in families._LONGEST if key[0] is family] == [(family, 1, ONE)]
    assert len(families._LONGEST[family, 1, ONE]) == 21
    # and a table longer than any built so far extends the stored one
    table = numbers(24)
    assert len(table) == 25 and table.values[:21] == longest.values


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


def test_number_tables_replace_and_make_by_field():
    table = apostol_bernoulli_numbers(1, 5, TWO)
    assert len(table) == 6 and table[3] == 18
    assert table._replace(k=1) == table
    shorter = table._replace(values=table.values[:3])
    assert len(shorter) == 3 and shorter[2] == table[2] and shorter.mode is TWO
    assert type(table)._make(tuple(table)) == table
    with pytest.raises(TypeError):
        type(table)._make(tuple(table)[:3])


@settings(max_examples=40, deadline=None)
@given(k=st.integers(0, 4), n=st.integers(0, 12), euler=st.booleans())
def test_symbolic_recurrence_equals_the_series(k, n, euler):
    # symbolic tables grow by the Z[L] recurrence; the kernel series is the
    # independent definition
    families.clear_caches()
    numbers, kernel = ((apostol_euler_numbers, families._euler_kernel) if euler
                       else (apostol_bernoulli_numbers, families._bernoulli_kernel))
    series = kernel(k, n, SYM)
    assert numbers(k, n, SYM).values == tuple(
        series.coefficient(i) * factorial(i) for i in range(n + 1))


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 4), n=st.integers(0, 12), euler=st.booleans(),
       mode=st.sampled_from((SYM,) + PROPERTY_MODES))
def test_member_equals_the_binomial_sum_of_scalars(k, n, euler, mode):
    # the reference builds one scalar C(n, l) beta_(n-l) per coefficient and
    # hands them to the public constructor
    numbers = (apostol_euler_numbers if euler else apostol_bernoulli_numbers)(k, n, mode)
    reference = XPolynomial([numbers[n - l] * comb(n, l) for l in range(n + 1)], mode)
    member = families._member(numbers, n)
    assert member.mode is mode
    assert member._key == reference._key


@pytest.mark.parametrize("mode", ALL_MODES, ids=str)
@pytest.mark.parametrize("numbers", [apostol_bernoulli_numbers, apostol_euler_numbers])
def test_short_tables_read_after_long_ones_equal_fresh_tables(mode, numbers):
    for k in (0, 1, 3):
        families.clear_caches()
        fresh = [numbers(k, n, mode) for n in (2, 5)]
        families.clear_caches()
        long = numbers(k, 9, mode)
        assert [numbers(k, n, mode) for n in (2, 5)] == fresh
        assert long.values[:6] == fresh[1].values
        # and a table longer than any built so far extends the stored one
        assert numbers(k, 11, mode).values[:10] == long.values


def test_a_suite_reads_the_stored_tables_in_place():
    # members, basis columns and ID_EULER_RAMANUJAN index the stored tables,
    # so no public table function is called, and no prefix is cut
    families.clear_caches()
    run_suite(default_suite_config())
    for numbers in (apostol_bernoulli_numbers, apostol_euler_numbers,
                    bernoulli_numbers_by_recurrence, euler_numbers_by_recurrence):
        assert numbers.cache_info().misses == 0, numbers.__name__
    # the Euler-Ramanujan check walks down from m = 20: one table through 20
    assert len(families._LONGEST[Family.BERNOULLI, 1, ONE]) == 21


def _kernel_builds(monkeypatch) -> collections.Counter:
    """Counter of series kernels built, by (family, k, mode)."""
    builds = collections.Counter()
    for name in ("_bernoulli_kernel", "_euler_kernel"):
        build = getattr(families, name).__wrapped__

        def counted(k, order, mode, build=build, name=name):
            builds[name, k, mode] += 1
            return build(k, order, mode)

        monkeypatch.setattr(families, name, families.lru_cache(maxsize=None)(counted))
    return builds


def test_a_verify_builds_each_series_kernel_once(monkeypatch):
    # grids walk from the largest n down and each point reads its longest
    # table first, so later points read prefixes: one kernel per (family,
    # k, mode) and identity, and symbolic tables build none
    builds = _kernel_builds(monkeypatch)
    for identity in IdentityId:
        families.clear_caches()
        builds.clear()
        verify_identity(identity, default_grid(identity))
        assert max(builds.values(), default=1) == 1, (identity, builds)
        assert not any(mode is SYM for _, _, mode in builds), identity
    # across the suite only the classical Euler table grows once more:
    # ID_THM2 reads it through n = 8 before ID_DILCHER needs n = 11
    families.clear_caches()
    builds.clear()
    run_suite(default_suite_config())
    assert {key: count for key, count in builds.items() if count > 1} == {
        ("_euler_kernel", 1, ONE): 2}
    # 5 Bernoulli-type and 5 Euler-type builds, all at L = 1
    assert sum(builds.values()) == 10


# -- a third route to every number table: the explicit Stirling formulas -------
#
# Expanding the kernel in powers of u = e^t - 1, u^j = j! sum_m S(m, j) t^m/m!
# with S the Stirling numbers of the second kind, gives (Luo and Srivastava,
# J. Math. Anal. Appl. 308 (2005); Srivastava and Todorov, J. Math. Anal.
# Appl. 130 (1988)) with R(k, j) = C(k+j-1, j), read as [j = 0] at k = 0:
#   B_n^(k)(L) = n!/(n-k)! (L-1)^-k sum_j R(k, j) (-L/(L-1))^j j! S(n-k, j), L != 1;
#   E_n^(k)(L) = 2^k (L+1)^-k sum_j R(k, j) (-L/(L+1))^j j! S(n, j), L != -1;
#   B_n^(k)(1) = sum_j (-1)^j C(k+n, n-j) R(k, j) j! n!/(n+j)! S(n+j, j).
# No series, recurrence or key routine of the package is used.

N_MAX = 16


def _stirling2(size: int) -> list:
    s = [[1] + [0] * size]
    for _ in range(size):
        prev = s[-1]
        s.append([0] + [j * prev[j] + prev[j - 1] for j in range(1, size + 1)])
    return s


STIRLING2 = _stirling2(2 * N_MAX)


def _rising(k: int, j: int) -> int:
    return comb(k + j - 1, j) if k else int(j == 0)


def _stirling_table(euler: bool, k: int, lam: Fraction) -> list:
    """The order-k numbers of n <= N_MAX at the rational L = lam."""
    s = STIRLING2
    if not euler and lam == 1:
        return [sum((-1) ** j * comb(k + n, n - j) * _rising(k, j)
                    * Fraction(factorial(j) * factorial(n), factorial(n + j)) * s[n + j][j]
                    for j in range(n + 1)) for n in range(N_MAX + 1)]
    pole = lam + 1 if euler else lam - 1
    weights = [_rising(k, j) * (-lam / pole) ** j * factorial(j) for j in range(N_MAX + 1)]
    inner = [sum(w * row[j] for j, w in enumerate(weights)) for row in s[: N_MAX + 1]]
    if euler:
        return [2 ** k * inner[n] / pole ** k for n in range(N_MAX + 1)]
    return [Fraction(0) if n < k else
            Fraction(factorial(n), factorial(n - k)) * inner[n - k] / pole ** k
            for n in range(N_MAX + 1)]


@settings(max_examples=30, deadline=None)
@given(euler=st.booleans(), k=st.integers(0, 4),
       lam=st.one_of(st.sampled_from([1, -1]), st.fractions(-5, 5, max_denominator=7)))
@example(euler=False, k=3, lam=1).via("the Srivastava-Todorov form")
@example(euler=False, k=2, lam=-1).via("the Bernoulli form at L = -1")
@example(euler=True, k=4, lam=1).via("the Euler form at L = 1")
def test_numeric_tables_equal_the_stirling_formulas(euler, k, lam):
    lam = Fraction(lam)
    assume(not (euler and lam == -1))
    numbers = apostol_euler_numbers if euler else apostol_bernoulli_numbers
    table = numbers(k, N_MAX, LambdaMode.numeric(lam))
    assert list(table.values) == _stirling_table(euler, k, lam)


@pytest.mark.parametrize("euler", [False, True])
@pytest.mark.parametrize("k", range(5))
def test_symbolic_tables_equal_the_stirling_formulas(euler, k):
    # v_n = N / (d (L-1)^a (L+1)^b) against the formula's P / Q, with
    # deg P <= n and Q = (L-1)^n or (L+1)^(n+k): the cross-multiplied
    # identity has degree below max(len(N) + n + k, n + a + b + 1), so
    # that many distinct values of L (none a pole) decide it
    numbers = apostol_euler_numbers if euler else apostol_bernoulli_numbers
    values = numbers(k, N_MAX, SYM).values
    points = [Fraction(i, 3) for i in range(-90, 91) if abs(i) != 3]
    degrees = [max(len(v._key[0]) + n + k, n + sum(v.pole_orders) + 1)
               for n, v in enumerate(values)]
    assert len(points) >= max(degrees)
    for point in points[: max(degrees)]:
        assert [v.evaluate_at(point) for v in values] == _stirling_table(euler, k, point), point


def test_classical_tables_equal_the_stirling_formulas():
    # Euler's integers: sech t = (2 / (e^s + 1)) e^(s/2) at s = 2t, so
    # E_n = sum_l C(n, l) e_(n-l) 2^(n-l) with e_m the L = 1 Euler-type numbers
    e = _stirling_table(True, 1, Fraction(1))
    assert list(bernoulli_numbers_by_recurrence(N_MAX).values) == \
        _stirling_table(False, 1, Fraction(1))
    assert list(euler_numbers_by_recurrence(N_MAX).values) == [
        sum(comb(n, l) * e[n - l] * 2 ** (n - l) for l in range(n + 1))
        for n in range(N_MAX + 1)]
