"""Catalog of displayed identities, compiled to exact equality checks.

Every identity is checked by forming the difference of its two sides
over a grid of parameter points and testing it against zero in exact
arithmetic.  Bivariate identities fix the second variable at more
rational sample points than its degree, which is a complete test for a
polynomial identity.  Checks never repair a formula: where a repaired
variant exists it is reported alongside the cataloged form under its own
variant label.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .expansion import (
    basis_sum,
    closed_form_coefficients,
    corrected_coefficients,
    expand_oracle,
    reconstruct,
)
from .families import (
    NumberTable,
    apostol_bernoulli_numbers,
    apostol_bernoulli_poly,
    apostol_euler_numbers,
    apostol_euler_poly,
    bernoulli_numbers_by_recurrence,
    bernoulli_poly,
    euler_poly,
)
from .field import LambdaMode, LambdaRatFunc
from .operators import (
    DifferencePowerMethod,
    alternating_lambda_sum,
    corrected_power_at_zero,
    lambda_op,
    lambda_power_at_zero,
    shift_poly,
)
from .polynomials import XPolynomial, embed_poly
from .render import render_field_element, render_x_poly

__all__ = [
    "IdentityId",
    "GridPoint",
    "ResultEntry",
    "IdentitySummary",
    "IdentityReport",
    "SuiteConfig",
    "GridBoundsError",
    "default_grid",
    "default_suite_config",
    "verify_identity",
    "run_suite",
]

_SYM = LambdaMode.symbolic()
_ONE = LambdaMode.numeric(1)
_FULL_MODES = (
    _SYM,
    _ONE,
    LambdaMode.numeric(2),
    LambdaMode.numeric(-2),
    LambdaMode.numeric(Fraction(1, 3)),
)
_NOT_ONE_MODES = (
    _SYM,
    LambdaMode.numeric(2),
    LambdaMode.numeric(-2),
    LambdaMode.numeric(Fraction(1, 3)),
)
_AUDIT_MODES = (_SYM, LambdaMode.numeric(2), LambdaMode.numeric(Fraction(1, 3)))


class IdentityId(enum.Enum):
    """Catalog keys; the enum order fixes the report order."""

    ID_DERIV = "ID_DERIV"
    ID_DIFF = "ID_DIFF"
    ID_LOWER_ORDER = "ID_LOWER_ORDER"
    ID_ZERO_ORDER = "ID_ZERO_ORDER"
    ID_LEMMA_CLOSED_FORM = "ID_LEMMA_CLOSED_FORM"
    ID_THM1 = "ID_THM1"
    ID_COR_XN = "ID_COR_XN"
    ID_THM2 = "ID_THM2"
    ID_THM3 = "ID_THM3"
    ID_HANSEN = "ID_HANSEN"
    ID_EULER_RAMANUJAN = "ID_EULER_RAMANUJAN"
    ID_THM4 = "ID_THM4"
    ID_DILCHER = "ID_DILCHER"
    ID_THM5 = "ID_THM5"


_ID_ORDER = {identity: i for i, identity in enumerate(IdentityId)}


class GridBoundsError(ValueError):
    """Grid outside the desk-scale bounds the catalog certifies."""


class GridPoint(NamedTuple):
    """One parameter point; fields that do not apply stay None."""

    n: int
    k: Optional[int] = None
    mode: Optional[LambdaMode] = None
    y: Optional[Fraction] = None


class ResultEntry(NamedTuple):
    point: GridPoint
    variant: Optional[str]
    passed: bool
    witness: Optional[str]


class IdentitySummary(NamedTuple):
    passed: int
    failed: int
    validity_domain: str


class IdentityReport(NamedTuple):
    identity: IdentityId
    results: Tuple[ResultEntry, ...]
    summary: IdentitySummary

    @property
    def grid(self) -> Tuple[GridPoint, ...]:
        return tuple(dict.fromkeys(e.point for e in self.results))


# --------------------------------------------------------------------------
# helpers


def _mode_sort_key(mode: Optional[LambdaMode]):
    if mode is None:
        return (0, Fraction(0))
    if mode.is_symbolic:
        return (1, Fraction(0))
    return (2, mode.value)


def _point_sort_key(point: GridPoint):
    return (
        point.n,
        -1 if point.k is None else point.k,
        _mode_sort_key(point.mode),
        (0, Fraction(0)) if point.y is None else (1, point.y),
    )


def _ff(n: int, m: int) -> Fraction:
    """Falling-factorial quotient n!/m!, zero when m is negative."""
    if m < 0:
        return Fraction(0)
    return Fraction(factorial(n), factorial(m))


def _y_samples(count: int) -> List[Fraction]:
    return [Fraction(2 * i - 1, 2) for i in range(count)]


def _poly_witness(diff: XPolynomial) -> Optional[str]:
    if diff.is_zero:
        return None
    return render_x_poly(diff)


def _check_poly_identity(lhs: XPolynomial, rhs: XPolynomial):
    diff = lhs - rhs
    return diff.is_zero, _poly_witness(diff)


CheckOutcome = List[Tuple[Optional[str], bool, Optional[str]]]


# --------------------------------------------------------------------------
# checkers, one per catalog entry


def _check_deriv(pt: GridPoint) -> CheckOutcome:
    # d/dx of the order-k family member n equals n times member n-1.
    lhs = apostol_bernoulli_poly(pt.n, pt.k, pt.mode).derivative()
    rhs = apostol_bernoulli_poly(pt.n - 1, pt.k, pt.mode) * pt.n
    ok, witness = _check_poly_identity(lhs, rhs)
    return [(None, ok, witness)]


def _check_diff(pt: GridPoint) -> CheckOutcome:
    # (L*p_{n+1}(x+1) - p_{n+1}(x)) / (n+1) equals the order-(k-1) member n.
    p = apostol_bernoulli_poly(pt.n + 1, pt.k, pt.mode)
    lhs = lambda_op(p).scalar_div(pt.n + 1)
    rhs = apostol_bernoulli_poly(pt.n, pt.k - 1, pt.mode)
    ok, witness = _check_poly_identity(lhs, rhs)
    return [(None, ok, witness)]


def _check_lower_order(pt: GridPoint) -> CheckOutcome:
    # The twisted difference drops the order by one and the index by one.
    lhs = lambda_op(apostol_bernoulli_poly(pt.n, pt.k, pt.mode))
    rhs = apostol_bernoulli_poly(pt.n - 1, pt.k - 1, pt.mode) * pt.n
    ok, witness = _check_poly_identity(lhs, rhs)
    return [(None, ok, witness)]


def _check_zero_order(pt: GridPoint) -> CheckOutcome:
    # Order zero collapses both families to plain monomials.
    monomial = XPolynomial.monomial(pt.mode, pt.n)
    bern = apostol_bernoulli_poly(pt.n, 0, pt.mode) - monomial
    euler = apostol_euler_poly(pt.n, 0, pt.mode) - monomial
    if bern.is_zero and euler.is_zero:
        return [(None, True, None)]
    parts = []
    if not bern.is_zero:
        parts.append(f"bernoulli-type: {render_x_poly(bern)}")
    if not euler.is_zero:
        parts.append(f"euler-type: {render_x_poly(euler)}")
    return [(None, False, "; ".join(parts))]


def _check_lemma(pt: GridPoint) -> CheckOutcome:
    # Both closed forms for the k-th twisted-difference power at zero,
    # judged against literal iteration on the monomial x^n.
    p = XPolynomial.monomial(pt.mode, pt.n)
    direct = lambda_power_at_zero(p, pt.k, DifferencePowerMethod.ITERATED)
    closed = lambda_power_at_zero(p, pt.k, DifferencePowerMethod.CLOSED_FORM)
    corrected = corrected_power_at_zero(p, pt.k)
    out: CheckOutcome = []
    for variant, value in (("closed-form", closed), ("corrected-sign", corrected)):
        if value == direct:
            out.append((variant, True, None))
        else:
            witness = (
                f"iterated = {render_field_element(direct)}, "
                f"{variant} = {render_field_element(value)}"
            )
            out.append((variant, False, witness))
    return out


def _check_thm1(pt: GridPoint) -> CheckOutcome:
    # Basis-expansion coefficient formula versus the exact solve, both for
    # the cataloged window k..n and for the repaired window k..k+n.
    q = XPolynomial.monomial(pt.mode, pt.n)
    oracle = expand_oracle(q, pt.k)
    out: CheckOutcome = []

    literal = closed_form_coefficients(q, pt.k)
    diff = reconstruct(literal) - q
    out.append(("closed-form", literal.exact, _poly_witness(diff)))

    if pt.mode.is_one:
        # The repaired window presumes basis degrees j-k, which only holds
        # away from 1; no corrected variant is defined there.
        return out

    corrected = corrected_coefficients(q, pt.k)
    agrees = (
        corrected.exact
        and corrected.j_lo == oracle.j_lo
        and corrected.j_hi == oracle.j_hi
        and corrected.coefficients == oracle.coefficients
    )
    witness = None
    if not agrees:
        witness = _poly_witness(reconstruct(corrected) - q) or "coefficients differ from oracle"
    out.append(("corrected", agrees, witness))
    return out


# Memos of the mode-independent parts of the checks, keyed on everything
# their values depend on; each verify_identity call starts them empty.


@lru_cache(maxsize=None)
def _basis_coefficient(weight, n: int, j: int, k: int, y: Optional[Fraction]) -> LambdaRatFunc:
    # c_j = (1/j!) sum_a (-1)^a C(k,a) L^a w(a) with w(a) = weight(n, m, k, y, a)
    # and m = n - j + k, as one symbolic value that every mode specializes
    m = n - j + k
    scale = factorial(j)
    return alternating_lambda_sum(_SYM, k, lambda a: weight(n, m, k, y, a) / scale)


def _basis_checker(lhs: Callable[[GridPoint], XPolynomial], weight):
    """Checker of an expansion in the order-k basis over the window j = k..n:
    lhs(pt) against sum_j c_j * basis_j, with c_j from ``weight``."""

    def check(pt: GridPoint) -> CheckOutcome:
        n, k, mode = pt.n, pt.k, pt.mode
        coeffs = [mode.specialize(_basis_coefficient(weight, n, j, k, pt.y)) for j in range(k, n + 1)]
        ok, witness = _check_poly_identity(lhs(pt), basis_sum(coeffs, k, k, mode))
        return [(None, ok, witness)]

    return check


def _umbral_weight(numbers: Callable[[int, int, LambdaMode], NumberTable]):
    # n!/m! sum_l C(m,l) a^l N_(m-l), with N the family's order-k numbers at L = 1
    def weight(n: int, m: int, k: int, y: None, a: int) -> Fraction:
        table = numbers(k, n, _ONE)
        return _ff(n, m) * sum(comb(m, l) * a ** l * table[m - l] for l in range(m + 1))

    return weight


@lru_cache(maxsize=None)
def _convolution(poly: Callable[[int], XPolynomial], m: int, y: Fraction) -> XPolynomial:
    """sum_i C(m, i) p_i(x) p_(m-i)(y) for the classical family p."""
    total = XPolynomial.zero(_ONE)
    for i in range(m + 1):
        scalar = comb(m, i) * poly(m - i).evaluate(y)
        if scalar:
            total = total + poly(i).scalar_mul(scalar)
    return total


@lru_cache(maxsize=None)
def _shifted_euler(m: int, y: Fraction) -> XPolynomial:
    """E_m(x + y) with rational coefficients."""
    return shift_poly(euler_poly(m), y)


@lru_cache(maxsize=None)
def _thm4_bracket(n: int, m: int, y: Fraction, a: int) -> Fraction:
    # (1 - n + j - k) = (1 - m) with m = n - j + k; the two terms of that
    # factor share B_m(a + y)
    arg = a + y
    value = (1 - m) * _ff(n, m) * bernoulli_poly(m).evaluate(arg)
    if m >= 1:
        value += (arg - 1) * _ff(n, m - 1) * bernoulli_poly(m - 1).evaluate(arg)
    return value


@lru_cache(maxsize=None)
def _thm5_bracket(n: int, m: int, y: Fraction) -> XPolynomial:
    # n!/m! (1-x-y) E_m(x+y) - n!/(m+1)! (j-k) E_{m+1}(x+y)
    # + (n+1)!/(m+1)! E_{m+1}(x+y), with j - k = n - m
    bracket = (XPolynomial([1 - y, -1], _ONE) * _shifted_euler(m, y)).scalar_mul(_ff(n, m))
    middle = _ff(n, m + 1) * (n - m)
    if middle:
        bracket = bracket - _shifted_euler(m + 1, y).scalar_mul(middle)
    return bracket + _shifted_euler(m + 1, y).scalar_mul(_ff(n + 1, m + 1))


@lru_cache(maxsize=None)
def _embedded_thm5_bracket(n: int, m: int, y: Fraction, mode: LambdaMode) -> XPolynomial:
    return embed_poly(_thm5_bracket(n, m, y), mode)


_MEMOS = (
    _basis_coefficient, _convolution, _shifted_euler,
    _thm4_bracket, _thm5_bracket, _embedded_thm5_bracket,
)


def _check_hansen(pt: GridPoint) -> CheckOutcome:
    # Binomial convolution of Bernoulli polynomials versus
    # (1-m) B_m(x+y) + (x+y-1) m B_{m-1}(x+y).
    m, y = pt.n, pt.y
    lhs = _convolution(bernoulli_poly, m, y)
    rhs = shift_poly(bernoulli_poly(m), y).scalar_mul(Fraction(1 - m))
    if m >= 1:
        affine = XPolynomial([y - 1, 1], _ONE)
        rhs = rhs + (affine * shift_poly(bernoulli_poly(m - 1), y)) * m
    ok, witness = _check_poly_identity(lhs, rhs)
    return [(None, ok, witness)]


def _check_euler_ramanujan(pt: GridPoint) -> CheckOutcome:
    # B_m = -(sum_{i=2}^{m-2} C(m,i) B_i B_{m-i}) / (m+1).
    m = pt.n
    numbers = bernoulli_numbers_by_recurrence(m)
    acc = Fraction(0)
    for i in range(2, m - 1):
        acc += comb(m, i) * numbers[i] * numbers[m - i]
    rhs = -acc / (m + 1)
    diff = numbers[m] - rhs
    if not diff:
        return [(None, True, None)]
    return [(None, False, render_field_element(diff))]


def _check_dilcher(pt: GridPoint) -> CheckOutcome:
    # Binomial convolution of Euler polynomials versus
    # 2 (1-x-y) E_n(x+y) + 2 E_{n+1}(x+y).
    n, y = pt.n, pt.y
    lhs = _convolution(euler_poly, n, y)
    affine = XPolynomial([1 - y, -1], _ONE)
    rhs = (affine * _shifted_euler(n, y)) * 2
    rhs = rhs + _shifted_euler(n + 1, y) * 2
    ok, witness = _check_poly_identity(lhs, rhs)
    return [(None, ok, witness)]


def _check_thm5(pt: GridPoint) -> CheckOutcome:
    # Euler convolution expanded in the order-k basis; the bracket keeps
    # the variable x exactly as the cataloged display does.
    n, k, mode, y = pt.n, pt.k, pt.mode, pt.y
    lhs = embed_poly(_convolution(euler_poly, n, y), mode)
    # The bracket carries the x-dependence, so the lambda-sum has weight 1
    # and equals (1 - L)^k for every j: the common factor 2 (1 - L)^k is
    # applied once, after the sum over j.
    factor = alternating_lambda_sum(mode, k, lambda a: 2)
    rhs = XPolynomial.zero(mode)
    if factor:
        for j in range(k, n + 1):
            bracket = _embedded_thm5_bracket(n, n - j + k, y, mode)
            term = bracket * apostol_bernoulli_poly(j, k, mode)
            rhs = rhs + term.scalar_mul(Fraction(1, factorial(j)))
        rhs = rhs.scalar_mul(factor)
    ok, witness = _check_poly_identity(lhs, rhs)
    return [(None, ok, witness)]


# --------------------------------------------------------------------------
# catalog


class _Spec(NamedTuple):
    """One catalog entry: its checker and the grid the default suite certifies.

    ``n`` and a pair ``k`` are (first, default last) ranges that max_n and
    max_k shrink; an int ``k`` is an order max_k leaves alone, None marks
    an identity without one.  ``modes`` None marks a lambda-free identity;
    ``fixed_modes`` keeps the listed modes whatever the selection.
    Bivariate identities sample y at n + ``y_extra`` points.
    """

    checker: Callable[[GridPoint], CheckOutcome]
    letter: str  # parameter letter used in validity-domain summaries
    n: Tuple[int, int]
    k: Union[None, int, Tuple[int, int]] = None
    modes: Optional[Tuple[LambdaMode, ...]] = None
    fixed_modes: bool = False
    y_extra: Optional[int] = None


_CATALOG: Dict[IdentityId, _Spec] = {
    IdentityId.ID_DERIV: _Spec(_check_deriv, "n", (1, 10), (0, 4), _FULL_MODES),
    IdentityId.ID_DIFF: _Spec(_check_diff, "n", (0, 8), (1, 4), _FULL_MODES),
    IdentityId.ID_LOWER_ORDER: _Spec(_check_lower_order, "n", (1, 8), (1, 4), _FULL_MODES),
    IdentityId.ID_ZERO_ORDER: _Spec(_check_zero_order, "n", (0, 10), 0, _FULL_MODES),
    IdentityId.ID_LEMMA_CLOSED_FORM: _Spec(
        _check_lemma, "k", (0, 5), (0, 5), (_SYM,), fixed_modes=True
    ),
    IdentityId.ID_THM1: _Spec(_check_thm1, "k", (0, 6), (0, 3), _NOT_ONE_MODES),
    # basis expansions: (left-hand side, weight w(a) of the coefficient formula)
    IdentityId.ID_COR_XN: _Spec(
        _basis_checker(lambda pt: XPolynomial.monomial(pt.mode, pt.n),
                       lambda n, m, k, y, a: _ff(n, m) * a ** m),
        "k", (0, 8), (0, 3), _FULL_MODES),
    IdentityId.ID_THM2: _Spec(
        _basis_checker(lambda pt: embed_poly(apostol_euler_poly(pt.n, pt.k, _ONE), pt.mode),
                       _umbral_weight(apostol_euler_numbers)),
        "k", (0, 8), (0, 3), _AUDIT_MODES),
    IdentityId.ID_THM3: _Spec(
        _basis_checker(lambda pt: embed_poly(apostol_bernoulli_poly(pt.n, pt.k, _ONE), pt.mode),
                       _umbral_weight(apostol_bernoulli_numbers)),
        "k", (0, 8), (0, 3), _AUDIT_MODES),
    IdentityId.ID_HANSEN: _Spec(_check_hansen, "m", (0, 10), y_extra=2),
    IdentityId.ID_EULER_RAMANUJAN: _Spec(_check_euler_ramanujan, "m", (2, 20)),
    # the bracket is evaluated at a+y per the cataloged display; its memo
    # leaves out k, on which it does not depend
    IdentityId.ID_THM4: _Spec(
        _basis_checker(lambda pt: embed_poly(_convolution(bernoulli_poly, pt.n, pt.y), pt.mode),
                       lambda n, m, k, y, a: _thm4_bracket(n, m, y, a)),
        "k", (0, 8), (0, 3), _AUDIT_MODES, y_extra=2),
    IdentityId.ID_DILCHER: _Spec(_check_dilcher, "n", (0, 10), y_extra=2),
    IdentityId.ID_THM5: _Spec(_check_thm5, "k", (0, 8), (0, 3), _AUDIT_MODES, y_extra=3),
}


def _clamped(span: Tuple[int, int], bound: Optional[int]) -> range:
    first, last = span
    return range(first, (last if bound is None else min(last, bound)) + 1)


def default_grid(
    identity: IdentityId,
    max_n: Optional[int] = None,
    max_k: Optional[int] = None,
    modes: Optional[Tuple[LambdaMode, ...]] = None,
) -> List[GridPoint]:
    """The grid the default suite certifies for one identity.

    ``max_n``/``max_k`` shrink (never extend) the default ranges; ``modes``
    restricts the deformation-parameter selection for identities that have
    one.
    """
    if not isinstance(identity, IdentityId):
        raise ValueError(f"unknown identity: {identity!r}")
    spec = _CATALOG[identity]
    k_values = _clamped(spec.k, max_k) if isinstance(spec.k, tuple) else [spec.k]
    chosen = spec.modes or (None,)
    if modes is not None and spec.modes and not spec.fixed_modes:
        chosen = tuple(m for m in spec.modes if m in modes)
        if not chosen:
            raise ValueError(f"mode selection leaves no grid for {identity.value}")
    points = []
    for n in _clamped(spec.n, max_n):
        ys = [None] if spec.y_extra is None else _y_samples(n + spec.y_extra)
        for k in k_values:
            for mode in chosen:
                points.extend(GridPoint(n=n, k=k, mode=mode, y=y) for y in ys)
    return points


def _check_bounds(identity: IdentityId, grid: Sequence[GridPoint]):
    k_limit = 5 if identity is IdentityId.ID_LEMMA_CLOSED_FORM else 4
    for pt in grid:
        if pt.n < 0:
            raise GridBoundsError(f"negative index in grid point {pt}")
        if pt.k is not None and not 0 <= pt.k <= k_limit:
            raise GridBoundsError(f"order {pt.k} outside 0..{k_limit}")
        n_limit = 10 if (pt.mode is not None and pt.mode.is_symbolic) else 24
        if pt.n > n_limit:
            raise GridBoundsError(f"index {pt.n} outside desk scale (limit {n_limit})")


def _ranges(values: Sequence[int]) -> str:
    parts = []
    run_start = prev = values[0]
    for v in list(values[1:]) + [None]:
        if v is not None and v == prev + 1:
            prev = v
            continue
        parts.append(str(run_start) if run_start == prev else f"{run_start}..{prev}")
        if v is not None:
            run_start = prev = v
    return ",".join(parts)


def _domain_for(letter: str, outcomes: Dict[int, bool]) -> str:
    passing = sorted(v for v, ok in outcomes.items() if ok)
    failing = sorted(v for v, ok in outcomes.items() if not ok)
    if not failing:
        return "all tested points pass"
    if not passing:
        return "no tested points pass"
    return (
        f"pass at every point with {letter} in {_ranges(passing)}; "
        f"fail at some point with {letter} in {_ranges(failing)}"
    )


def _validity_domain(identity: IdentityId, results: Sequence[ResultEntry]) -> str:
    letter = _CATALOG[identity].letter

    def value_of(point: GridPoint) -> int:
        return point.k if letter == "k" else point.n

    variants = []
    for entry in results:
        if entry.variant not in variants:
            variants.append(entry.variant)
    domains = []
    for variant in variants:
        outcomes: Dict[int, bool] = {}
        for entry in results:
            if entry.variant != variant:
                continue
            v = value_of(entry.point)
            outcomes[v] = outcomes.get(v, True) and entry.passed
        domain = _domain_for(letter, outcomes)
        domains.append(domain if variant is None else f"{variant}: {domain}")
    return "; ".join(domains)


def verify_identity(identity: IdentityId, grid: Sequence[GridPoint]) -> IdentityReport:
    """Check one identity over a grid and assemble the ordered report."""
    if not isinstance(identity, IdentityId):
        raise ValueError(f"unknown identity: {identity!r}")
    if not grid:
        raise ValueError("empty grid")
    _check_bounds(identity, grid)
    for memo in _MEMOS:
        memo.cache_clear()
    checker = _CATALOG[identity].checker
    ordered = sorted(set(grid), key=_point_sort_key)
    results: List[ResultEntry] = []
    for pt in ordered:
        for variant, passed, witness in checker(pt):
            results.append(
                ResultEntry(point=pt, variant=variant, passed=passed, witness=witness)
            )
    passed = sum(1 for r in results if r.passed)
    summary = IdentitySummary(
        passed=passed,
        failed=len(results) - passed,
        validity_domain=_validity_domain(identity, results),
    )
    return IdentityReport(identity=identity, results=tuple(results), summary=summary)


class _SuiteFields(NamedTuple):
    ids: Tuple[IdentityId, ...] = tuple(IdentityId)
    max_n: Optional[int] = None
    max_k: Optional[int] = None
    modes: Optional[Tuple[LambdaMode, ...]] = None


class SuiteConfig(_SuiteFields):
    """Which identities to verify and how far to push their grids."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.ids:
            raise ValueError("identity subset must not be empty")
        for identity in self.ids:
            if not isinstance(identity, IdentityId):
                raise ValueError(f"unknown identity: {identity!r}")
        return self


def default_suite_config() -> SuiteConfig:
    return SuiteConfig()


def run_suite(config: SuiteConfig) -> List[IdentityReport]:
    """One report per selected identity, ordered by the catalog order."""
    reports = []
    for identity in sorted(set(config.ids), key=_ID_ORDER.get):
        grid = default_grid(identity, config.max_n, config.max_k, config.modes)
        reports.append(verify_identity(identity, grid))
    return reports
