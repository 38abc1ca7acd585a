"""Catalog of displayed identities, compiled to exact equality checks.

Every identity is checked by forming the difference of its two sides
over a grid of parameter points and testing it against zero in exact
arithmetic.  Bivariate identities fix the second variable at more
rational sample points than its degree, which is a complete test for a
polynomial identity.  Checks never repair a formula: where a repaired
variant exists it is reported alongside the cataloged form under its own
variant label.  Each classical formula is written once: the brackets of
the two convolution expansions (Theorems 4 and 5) are n!/m! times the
right sides of Hansen's and of Dilcher's identity, with m = n - j + k.
A basis expansion is declared by the family q it expands: Theorem 1
reads D^(j-k) q_n = n!/m! q_m at a = 0..k, so a coefficient is n!/(m! j!)
times sum_a L^a w_(m,a), and the lambda-free terms w_(m,a) = (-1)^a
C(k,a) q_m(a) are built once per (m, k, y).  All five basis expansions
(the Corollary, Theorems 2 to 5) sum through the order-k number table:
by B_j^(k)(x|L) = sum_i C(j,i) beta_i x^(j-i) the right side is
sum_a L^a sum_i beta_i T_(a,i)(x) with lambda-free integer rows T, and
the numbers of each (k, n, mode) are lifted once.  Theorem 5 has one
power of L, and its factor 2 (1-L)^k is applied once.  The basis checks
take the y samples of one (n, k, mode) together, as one block.

Each residual is computed once, and it is all that a point takes from
another mode.  Every check with a deformation parameter is ring
arithmetic in Z[L] localized at L-1 and L+1, where evaluation at a
rational L other than +-1 is a ring map, so a numeric point whose
symbolic twin (same n, k and y) is in the grid takes the text of the
twin's residual evaluated there, unless the twin returned witness text,
which has no value at L.  Every other point runs its checker, which
computes in the point's own mode: L = +-1, and grids without a symbolic
twin (a mode selection of :func:`default_grid`).  Each y sample keeps
its hash.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain, cycle, groupby, zip_longest
from math import comb, factorial, lcm
from operator import add, attrgetter, mul
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from ._keys import _horner, _lifted, _pole_poly, _sum, _sym_reduced
from .expansion import closed_form_coefficients, corrected_coefficients
from .families import (
    Family,
    _stored,
    apostol_bernoulli_poly,
    apostol_euler_poly,
    bernoulli_poly,
    euler_poly,
)
from .field import LambdaMode
from .operators import (
    DifferencePowerMethod,
    corrected_power_at_zero,
    lambda_op,
    lambda_power_at_zero,
    shift_poly,
)
from .polynomials import XPolynomial, _new, embed_poly
from .render import _specialized_text, render_field_element, render_x_poly

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
_NOT_ONE_MODES = tuple(mode for mode in _FULL_MODES if not mode.is_one)
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
    """Grid that is empty or outside the desk-scale bounds of the catalog."""


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
        return (0, 0)
    if mode.is_symbolic:
        return (1, 0)
    return (2, mode.value)


def _sorted_points(grid: Sequence[GridPoint]) -> List[GridPoint]:
    """The distinct points of a grid by n, k (None first), mode (None, the
    symbolic mode, then by value) and y (None first), compared as ints:
    each mode and sample is ranked once per grid."""
    points = set(grid)
    modes = sorted({pt.mode for pt in points}, key=_mode_sort_key)
    mode_rank = {mode: rank for rank, mode in enumerate(modes)}
    samples = sorted({pt.y for pt in points if pt.y is not None})
    y_rank = {y: rank for rank, y in enumerate([None] + samples)}
    return sorted(points, key=lambda pt: (
        pt.n, -1 if pt.k is None else pt.k, mode_rank[pt.mode], y_rank[pt.y]))


class _Sample(Fraction):
    """A y sample: a Fraction that keeps its hash, which Fraction does not,
    for the thousands of lookups of each sample per suite."""

    __slots__ = ("_hash",)

    def __new__(cls, *args):
        self = super().__new__(cls, *args)
        self._hash = Fraction.__hash__(self)
        return self

    def __hash__(self):
        return self._hash


# A residual is LHS - RHS as an x-polynomial, or, where no single
# difference says what failed, None for a pass and the witness text for a
# fail; zero means the point passes.
Residual = Union[None, str, XPolynomial]
CheckOutcome = List[Tuple[Optional[str], Residual]]


def _witness(residual: Residual) -> Optional[str]:
    if not residual:
        return None
    return residual if isinstance(residual, str) else render_x_poly(residual)


# --------------------------------------------------------------------------
# checkers, one per catalog entry


def _check_deriv(pt: GridPoint) -> CheckOutcome:
    # d/dx of the order-k family member n equals n times member n-1.
    lhs = apostol_bernoulli_poly(pt.n, pt.k, pt.mode).derivative()
    rhs = apostol_bernoulli_poly(pt.n - 1, pt.k, pt.mode) * pt.n
    return [(None, lhs - rhs)]


def _check_diff(pt: GridPoint) -> CheckOutcome:
    # (L*p_{n+1}(x+1) - p_{n+1}(x)) / (n+1) equals the order-(k-1) member n.
    p = apostol_bernoulli_poly(pt.n + 1, pt.k, pt.mode)
    lhs = _twisted(p, 1).scalar_div(pt.n + 1)
    rhs = apostol_bernoulli_poly(pt.n, pt.k - 1, pt.mode)
    return [(None, lhs - rhs)]


def _check_lower_order(pt: GridPoint) -> CheckOutcome:
    # The twisted difference drops the order by one and the index by one.
    lhs = _twisted(apostol_bernoulli_poly(pt.n, pt.k, pt.mode), 1)
    rhs = apostol_bernoulli_poly(pt.n - 1, pt.k - 1, pt.mode) * pt.n
    return [(None, lhs - rhs)]


def _check_zero_order(pt: GridPoint) -> CheckOutcome:
    # Order zero collapses both families to plain monomials.
    monomial = XPolynomial.monomial(pt.mode, pt.n)
    bern = apostol_bernoulli_poly(pt.n, 0, pt.mode) - monomial
    euler = apostol_euler_poly(pt.n, 0, pt.mode) - monomial
    parts = [f"{label}: {render_x_poly(diff)}"
             for label, diff in (("bernoulli-type", bern), ("euler-type", euler)) if diff]
    return [(None, "; ".join(parts) or None)]


def _check_lemma(pt: GridPoint) -> CheckOutcome:
    # Both closed forms for the k-th twisted-difference power at zero,
    # judged against literal iteration on the monomial x^n.
    p = XPolynomial.monomial(pt.mode, pt.n)
    direct = _twisted(p, pt.k).evaluate(0)
    closed = lambda_power_at_zero(p, pt.k, DifferencePowerMethod.CLOSED_FORM)
    corrected = corrected_power_at_zero(p, pt.k)
    return [
        (variant, None if value == direct else
         f"iterated = {render_field_element(direct)}, {variant} = {render_field_element(value)}")
        for variant, value in (("closed-form", closed), ("corrected-sign", corrected))
    ]


def _check_thm1(pt: GridPoint) -> CheckOutcome:
    # Basis-expansion coefficient formula, for the cataloged window k..n and
    # for the repaired window k..k+n, each judged by its reconstruction:
    # away from 1 the basis is triangular with a nonzero diagonal, so an
    # exact reconstruction over k..k+n has the exact solve's coefficients.
    q = XPolynomial.monomial(pt.mode, pt.n)
    out: CheckOutcome = [("closed-form", closed_form_coefficients(q, pt.k).reconstruction - q)]

    if pt.mode.is_one:
        # The repaired window presumes basis degrees j-k, which only holds
        # away from 1; no corrected variant is defined there.
        return out

    corrected = corrected_coefficients(q, pt.k, _twisted(q, pt.k))
    out.append(("corrected", corrected.reconstruction - q))
    return out


def _basis_block(lhs: Callable[..., XPolynomial], weight: Optional[Callable] = None):
    """Block checker of q_n = lhs(n, k, y), a family at L = 1, expanded in the
    order-k basis over j = k..n by Theorem 1's c_j = (1/j!) sum_a (-1)^a
    C(k,a) L^a (D^(j-k) q_n)(a).  For an Appell family D^(j-k) q_n = n!/m! q_m,
    m = n - j + k, so ``weight`` defaults to ``lhs``, and c_j is n!/(m! j!)
    times sum_a L^a w_(m,a), where w_(m,a) = (-1)^a C(k,a) q_m(a) with
    q_m = weight(m, k, y) is free of L (:func:`_omega`): the bracket of
    member j is constant in x."""
    weight = weight or lhs

    def block(points: Sequence[GridPoint]) -> List[CheckOutcome]:
        n, k, mode = points[0][:3]
        sides = [(lhs(n, k, pt.y), [_omega(weight, n - j + k, k, pt.y) for j in range(k, n + 1)])
                 for pt in points]
        return [[(None, r)] for r in _expansion_residuals(n, k, mode, sides, powers=k + 1)]

    return block


# Memos of the parts that many points read, keyed on everything their
# values depend on; each verify_identity call and each run_suite starts
# them empty, and run_suite empties them again when it returns, so the
# identities of one suite share them (ID_THM4 and ID_THM5 read the right
# sides and convolutions of ID_HANSEN and ID_DILCHER, and ID_THM1 the
# twisted differences of ID_LEMMA_CLOSED_FORM).  Every memo but the lifted
# number table and the twisted differences is free of L; those are kept
# per mode.


@lru_cache(maxsize=None)
def _twisted(p: XPolynomial, power: int) -> XPolynomial:
    """Lambda^power p by literal application, one lambda_op per step:
    ID_DIFF at (n, k) and ID_LOWER_ORDER at (n + 1, k) share
    Lambda B_(n+1)^(k), ID_LEMMA_CLOSED_FORM builds Lambda^k x^n on
    Lambda^(k-1) x^n, and ID_THM1 reads the same powers of x^n."""
    return lambda_op(_twisted(p, power - 1)) if power else p


@lru_cache(maxsize=None)
def _omega(weight, m: int, k: int, y: Optional[Fraction]) -> Tuple[tuple, int]:
    """The terms (-1)^a C(k,a) q_m(a), a = 0..k, of the lambda-sum of
    q_m = weight(m, k, y), as one integer row over one denominator: the
    part of a basis coefficient that every n with the same m shares.
    On the key (N, d) of the nonzero q_m, q_m(a) = H_a / d with H_a the
    integer Horner value of N at a, so the row of the H_a is over q_m's d,
    not in lowest terms (the residual's one reduction settles that)."""
    n, d = weight(m, k, y)._key
    return tuple([(-1) ** a * comb(k, a) * _horner(n, a, 1)[0] for a in range(k + 1)]), d


@lru_cache(maxsize=None)
def _beta_columns(k: int, n: int, mode: LambdaMode) -> tuple:
    """The nonzero order-k numbers among beta_0..beta_n of ``mode``, lifted
    to one denominator d (L-1)^a (L+1)^b: their indices, the columns of
    their Z[L] rows (column p holds the coefficients of L^p; a numeric
    number is one constant column), and d, a, b."""
    values = _stored(Family.APOSTOL_BERNOULLI, k, n, mode).values[: n + 1]
    if mode.is_symbolic:
        rows, d, a, b = _lifted(True, values)
    else:
        row, d = _lifted(False, values)
        rows, a, b = [[c] if c else [] for c in row], 0, 0
    nonzero = [i for i, r in enumerate(rows) if r]
    width = max([len(rows[i]) for i in nonzero])
    return nonzero, list(zip(*[rows[i] + [0] * (width - len(rows[i])) for i in nonzero])), d, a, b


@lru_cache(maxsize=None)
def _convolution(poly: Callable[[int], XPolynomial], m: int, y: Fraction) -> XPolynomial:
    """sum_i C(m, i) p_i(x) p_(m-i)(y) for the classical family p, on the
    integer keys: at y = u/v Horner on the key (N, d) of p_(m-i) gives
    p_(m-i)(y) = H / (d v^t), t = len(N) - 1, so term i is the row
    C(m, i) H N_i over d v^t d_i, (N_i, d_i) the key of p_i, and one sum
    reduces all the terms."""
    u, v = y.numerator, y.denominator
    terms = []
    for i in range(m + 1):
        (n, d), (row, e) = poly(m - i)._key, poly(i)._key
        h, v_power = _horner(n, u, v)
        c = comb(m, i) * h
        terms.append(([c * x for x in row], d * v_power * e))
    return _new(_ONE, _sum(False, terms))


@lru_cache(maxsize=None)
def _shifted(poly: Callable[[int], XPolynomial], m: int, y: Fraction) -> XPolynomial:
    """p_m(x + y) with rational coefficients for the classical family p."""
    return shift_poly(poly(m), y)


@lru_cache(maxsize=None)
def _hansen_rhs(m: int, y: Fraction) -> XPolynomial:
    """Hansen's right side (1-m) B_m(x+y) + m (x+y-1) B_(m-1)(x+y)."""
    rhs = _shifted(bernoulli_poly, m, y).scalar_mul(Fraction(1 - m))
    if m >= 1:
        rhs = rhs + (XPolynomial([y - 1, 1], _ONE) * _shifted(bernoulli_poly, m - 1, y)) * m
    return rhs


@lru_cache(maxsize=None)
def _dilcher_rhs(m: int, y: Fraction) -> XPolynomial:
    """Half of Dilcher's right side, (1-x-y) E_m(x+y) + E_(m+1)(x+y)."""
    top = _shifted(euler_poly, m + 1, y)  # first: the longer Euler table
    return XPolynomial([1 - y, -1], _ONE) * _shifted(euler_poly, m, y) + top


def _bits(terms: Sequence[tuple]) -> int:
    """A bound on the bits of scale * x over the (scale, row) terms."""
    return (max([abs(s) for s, _ in terms]).bit_length()
            + max([abs(x) for _, row in terms for x in row], default=0).bit_length())


def _lanes(terms: Sequence[tuple], width: int) -> list:
    """Cell i of the integer rows of (scale, row) terms, term y in lane y:
    sum_y scale_y row_y[i] 2^(width y), one integer whose width-bit lanes
    hold signed values, lane 0 lowest."""
    scales = [s << (width * y) for y, (s, _) in enumerate(terms)]
    return [sum(map(mul, cell, scales))
            for cell in zip_longest(*[row for _, row in terms], fillvalue=0)]


def _unlaned(rows: list, width: int, lanes: int) -> list:
    """The rows of each lane of packed rows (values below 2^(width-1) in
    absolute value): a bias makes every lane nonnegative, its bits."""
    if lanes == 1:
        return [rows]
    half, mask = 1 << (width - 1), (1 << width) - 1
    shifts = range(0, width * lanes, width)
    bias = sum([half << s for s in shifts])
    rows = [[x + bias for x in row] for row in rows]
    return [[[((x >> s) & mask) - half for x in row] for row in rows] for s in shifts]


def _expansion_residuals(n: int, k: int, mode: LambdaMode, sides: Sequence[tuple],
                         powers: int = 1, scale: int = 1, power: int = 0) -> List[XPolynomial]:
    """lhs - scale (1-L)^power sum_j s_j S_j(x, L) B_j^(k)(x|L) over
    j = k..n in ``mode``, s_j = n!/(m! j!), m = n - j + k, for each sample
    (lhs, brackets) of ``sides`` (the y samples of one (n, k) block),
    where brackets[j - k] = (S, e) holds the rational bracket S_j as an
    integer row over e: S[f * powers + a] / e is the coefficient of x^f L^a.

    T_i = sum_(j>=i) C(j,i) s_j x^(j-i) S_j is one integer row in that
    layout over one denominator q, built for the nonzero beta_i only, and
    column (e, a) of the T_i dotted with column p of the lifted betas is
    the coefficient of x^e L^(p+a).  At L = u/v, L^a is u^a v^(K-a) / v^K
    with K = powers - 1, and (1-L)^power is (v-u)^power / v^power; in
    symbolic mode it is (-1)^power with that many poles at L = 1 fewer,
    which presumes a >= power for the lifted betas (their pole order at
    L = 1 is at least k >= power, as beta_k^(k) = k!/(L-1)^k), so the
    right side is never lifted.  lhs is a polynomial of the mode at L = 1,
    free of L: its rows take the right side's denominator, and one
    reduction makes the residual canonical.

    The samples share that denominator, and each cell packs them into one
    integer, sample y in the lane at 2^(width y), wider than any final
    value: the T rows, the dots and the lift are linear, so each runs once
    per block, and each sample's rows are read back from its lane."""
    if n < k:
        return [embed_poly(lhs, mode) for lhs, _ in sides]  # no member: the right side is zero
    nonzero, columns, d, a, b = _beta_columns(k, n, mode)
    top = powers - 1
    # the sign and the scale c, and per power a the factor of L^a; in
    # symbolic mode L^a shifts the L-row by a instead
    if mode.is_symbolic:
        c, v, a, shift, fold = -scale * (-1) ** power, 1, a - power, 1, [1]
    else:
        u, v = mode.value.numerator, mode.value.denominator
        c, shift = -scale * (v - u) ** power, 0
        fold = [u ** p * v ** (top - p) for p in range(powers)]
        v = v ** (top + power)
    # member j's right side is over m! j! e d v, each left side over its e:
    # per member, the scale to one denominator and the row of each sample
    dens = [factorial(n - j + k) * factorial(j) * d * v for j in range(k, n + 1)]
    den = lcm(*[lhs._key[1] for lhs, _ in sides],
              *[f * e for _, brackets in sides for f, (_, e) in zip(dens, brackets)])
    members = list(zip(*[[(c * factorial(n) * (den // (f * e)), row)
                          for f, (row, e) in zip(dens, brackets)] for _, brackets in sides]))
    lefts = [(den // lhs._key[1], lhs._key[0]) for lhs, _ in sides]
    pole = _pole_poly(a, b)
    # lanes wider than any final value: sum_(j>=i) C(j,i) <= 2^(n+1) of
    # the largest scaled entry, times a fold, the largest beta times their
    # count and the powers meeting in one cell, plus a left side times the
    # pole's coefficient sum; one sample needs no lanes
    width = 0
    if len(sides) > 1:
        right = max([_bits(terms) for terms in members]) + n + 1
        right += (max(map(abs, fold)).bit_length() + powers.bit_length()
                  + max(map(abs, chain(*columns))).bit_length() + len(nonzero).bit_length())
        width = max(right, _bits(lefts) + sum(map(abs, pole)).bit_length()) + 2
    packed = [_lanes(terms, width) for terms in members]
    # T_i spans x^0 .. x^(span-1): j - i + deg S_j with i >= nonzero[0]
    span = max(j + len(row) // powers for j, row in zip(range(k, n + 1), packed)) - nonzero[0]
    t = [[0] * (span * powers) for _ in nonzero]
    for j, row in zip(range(k, n + 1), packed):
        if len(fold) > 1:
            row = [g * x for g, x in zip(cycle(fold), row)]
        for ti, i in zip(t, nonzero):
            if i > j:
                break
            c, lo = comb(j, i), (j - i) * powers
            hi = lo + len(row)
            ti[lo:hi] = map(add, ti[lo:hi], [c * x for x in row])
    lefts = _lanes(lefts, width)
    out = [[0] * (len(columns) + top) for _ in range(max(span, len(lefts)))]
    for index, column in enumerate(zip(*t)):
        row = out[index // powers]
        for p, beta in enumerate(columns, shift * (index % powers)):
            row[p] += sum(map(mul, column, beta))
    for row, x in zip(out, lefts):
        if x:
            row.extend([0] * (len(pole) - len(row)))
            row[:len(pole)] = map(add, row, [x * c for c in pole])
    # out is lhs minus the right side over den (L-1)^a (L+1)^b, sample y in lane y
    return [embed_poly(_new(_SYM, _sym_reduced(rows, den, a, b)), mode)
            for rows in _unlaned(out, width, len(sides))]


_MEMOS = (_twisted, _omega, _beta_columns, _convolution, _shifted, _hansen_rhs, _dilcher_rhs)


def _check_hansen(pt: GridPoint) -> CheckOutcome:
    # Binomial convolution of Bernoulli polynomials versus Hansen's right side.
    return [(None, _convolution(bernoulli_poly, pt.n, pt.y) - _hansen_rhs(pt.n, pt.y))]


def _check_euler_ramanujan(pt: GridPoint) -> CheckOutcome:
    # B_m = -(sum_{i=2}^{m-2} C(m,i) B_i B_{m-i}) / (m+1).
    m = pt.n
    numbers = _stored(Family.BERNOULLI, 1, m, _ONE)
    acc = Fraction(0)
    for i in range(2, m - 1):
        acc += comb(m, i) * numbers[i] * numbers[m - i]
    rhs = -acc / (m + 1)
    return [(None, XPolynomial([numbers[m] - rhs], _ONE))]


def _check_dilcher(pt: GridPoint) -> CheckOutcome:
    # Binomial convolution of Euler polynomials versus Dilcher's right side.
    # the right side first: it reads E_(n+1), the longest Euler table
    rhs = _dilcher_rhs(pt.n, pt.y) * 2
    return [(None, _convolution(euler_poly, pt.n, pt.y) - rhs)]


def _thm5_block(points: Sequence[GridPoint]) -> List[CheckOutcome]:
    # Euler convolution expanded in the order-k basis.  The bracket of
    # member j keeps the variable x as the cataloged display does: its
    # E_(m+1) terms n!/(m+1)! (-(n-m) + (n+1)) add up to n!/m!, so with
    # m = n - j + k it is n!/m! times D_m, half of Dilcher's right side.
    # The lambda-sum has weight 1, so every member carries 2 (1-L)^k, and
    # D_m is the member's one bracket, free of L.
    n, k, mode = points[0][:3]
    # the brackets first, j = k first: D_n reads E_(n+1), the longest Euler table
    brackets = [[_dilcher_rhs(n - j + k, pt.y)._key for j in range(k, n + 1)] for pt in points]
    sides = [(_convolution(euler_poly, n, pt.y), rows) for pt, rows in zip(points, brackets)]
    return [[(None, r)] for r in _expansion_residuals(n, k, mode, sides, scale=2, power=k)]


# --------------------------------------------------------------------------
# catalog


class _Spec(NamedTuple):
    """One catalog entry: its checker and the grid the default suite certifies.

    ``n`` and a pair ``k`` are (first, default last) ranges that max_n and
    max_k shrink; an int ``k`` is an order max_k leaves alone, None marks
    an identity without one.  ``modes`` None marks a lambda-free identity;
    a mode selection leaves an identity with a single mode alone.
    Bivariate identities sample y at n + ``y_extra`` points.  The checker
    takes the points of one (n, k, mode) together, one outcome each.
    """

    checker: Callable[[Sequence[GridPoint]], List[CheckOutcome]]
    letter: str  # parameter letter used in validity-domain summaries
    n: Tuple[int, int]
    k: Union[None, int, Tuple[int, int]] = None
    modes: Optional[Tuple[LambdaMode, ...]] = None
    y_extra: Optional[int] = None


def _each(check: Callable[[GridPoint], CheckOutcome]):
    """The checker that checks each point of a block on its own."""
    return lambda points: list(map(check, points))


_CATALOG: Dict[IdentityId, _Spec] = {
    IdentityId.ID_DERIV: _Spec(_each(_check_deriv), "n", (1, 10), (0, 4), _FULL_MODES),
    IdentityId.ID_DIFF: _Spec(_each(_check_diff), "n", (0, 8), (1, 4), _FULL_MODES),
    IdentityId.ID_LOWER_ORDER: _Spec(_each(_check_lower_order), "n", (1, 8), (1, 4), _FULL_MODES),
    IdentityId.ID_ZERO_ORDER: _Spec(_each(_check_zero_order), "n", (0, 10), 0, _FULL_MODES),
    IdentityId.ID_LEMMA_CLOSED_FORM: _Spec(_each(_check_lemma), "k", (0, 5), (0, 5), (_SYM,)),
    IdentityId.ID_THM1: _Spec(_each(_check_thm1), "k", (0, 6), (0, 3), _NOT_ONE_MODES),
    # basis expansions of q_n, an Appell family at L = 1 (Corollary, Theorems 2 and 3)
    IdentityId.ID_COR_XN: _Spec(
        _basis_block(lambda n, k, y: XPolynomial.monomial(_ONE, n)),
        "k", (0, 8), (0, 3), _FULL_MODES),
    IdentityId.ID_THM2: _Spec(
        _basis_block(lambda n, k, y: apostol_euler_poly(n, k, _ONE)),
        "k", (0, 8), (0, 3), _AUDIT_MODES),
    IdentityId.ID_THM3: _Spec(
        _basis_block(lambda n, k, y: apostol_bernoulli_poly(n, k, _ONE)),
        "k", (0, 8), (0, 3), _AUDIT_MODES),
    IdentityId.ID_HANSEN: _Spec(_each(_check_hansen), "m", (0, 10), y_extra=2),
    IdentityId.ID_EULER_RAMANUJAN: _Spec(_each(_check_euler_ramanujan), "m", (2, 20)),
    # the bracket, read at a per the cataloged display, is n!/m! times
    # Hansen's right side; the basis checker applies n!/m!
    IdentityId.ID_THM4: _Spec(
        _basis_block(lambda n, k, y: _convolution(bernoulli_poly, n, y),
                     lambda m, k, y: _hansen_rhs(m, y)),
        "k", (0, 8), (0, 3), _AUDIT_MODES, y_extra=2),
    IdentityId.ID_DILCHER: _Spec(_each(_check_dilcher), "n", (0, 10), y_extra=2),
    IdentityId.ID_THM5: _Spec(_thm5_block, "k", (0, 8), (0, 3), _AUDIT_MODES, y_extra=3),
}


# The y samples (2i - 1)/2 of every bivariate grid, one object per index.
_SAMPLES = tuple(_Sample(2 * i - 1, 2) for i in range(
    max(spec.n[1] + (spec.y_extra or 0) for spec in _CATALOG.values())))


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
    if modes is not None and len(chosen) > 1:
        chosen = tuple(m for m in spec.modes if m in modes)
        if not chosen:
            raise ValueError(f"mode selection leaves no grid for {identity.value}")
    points = []
    for n in _clamped(spec.n, max_n):
        ys = [None] if spec.y_extra is None else _SAMPLES[:n + spec.y_extra]
        for k in k_values:
            for mode in chosen:
                points.extend(GridPoint(n=n, k=k, mode=mode, y=y) for y in ys)
    return points


def _check_bounds(identity: IdentityId, grid: Sequence[GridPoint]):
    if not grid:
        raise GridBoundsError(f"empty grid for {identity.value}")
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
    # the values of one run of consecutive integers share value - index
    runs = groupby(enumerate(values), lambda iv: iv[1] - iv[0])
    runs = [[v for _, v in run] for _, run in runs]
    return ",".join(str(r[0]) if len(r) == 1 else f"{r[0]}..{r[-1]}" for r in runs)


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
    # per variant, in order of first appearance: does every point of each
    # value of the letter pass?
    by_variant: Dict[Optional[str], Dict[int, bool]] = {}
    for entry in results:
        outcomes = by_variant.setdefault(entry.variant, {})
        v = entry.point.k if letter == "k" else entry.point.n
        outcomes[v] = outcomes.get(v, True) and entry.passed
    domains = []
    for variant, outcomes in by_variant.items():
        domain = _domain_for(letter, outcomes)
        domains.append(domain if variant is None else f"{variant}: {domain}")
    return "; ".join(domains)


def _clear_memos():
    for memo in _MEMOS:
        memo.cache_clear()


def verify_identity(identity: IdentityId, grid: Sequence[GridPoint]) -> IdentityReport:
    """Check one identity over a grid and assemble the ordered report."""
    if not isinstance(identity, IdentityId):
        raise ValueError(f"unknown identity: {identity!r}")
    _check_bounds(identity, grid)
    _clear_memos()
    return _verify(identity, grid)


def _verify(identity: IdentityId, grid: Sequence[GridPoint]) -> IdentityReport:
    # the body of verify_identity over a grid already bounds-checked
    spec = _CATALOG[identity]
    # The n-groups run from the largest n down, so the first point of each
    # number table builds it at its longest and later points read prefixes;
    # the entries come out in ascending order all the same.
    groups = groupby(_sorted_points(grid), key=attrgetter("n"))
    blocks: List[List[ResultEntry]] = []
    for group in reversed([list(points) for _, points in groups]):
        # symbolic outcomes of this n by (k, y); the sort puts each before its numeric twins
        twins: Dict[tuple, CheckOutcome] = {}
        block: List[ResultEntry] = []
        for (k, mode), points in groupby(group, key=attrgetter("k", "mode")):
            points = list(points)
            twinned = [(k, pt.y) in twins and mode.value not in (1, -1) for pt in points]
            native = [pt for pt, twin in zip(points, twinned) if not twin]
            outcomes = iter(spec.checker(native) if native else ())
            for pt, twin in zip(points, twinned):
                if twin:
                    # the symbolic residual's text at L; None and zero pass there
                    for variant, r in twins[(k, pt.y)]:
                        text = r and _specialized_text(r._key, mode.value)
                        block.append(ResultEntry(pt, variant, not text, text or None))
                    continue
                outcome = next(outcomes)
                # witness text has no value at L: its twins run the checker
                if mode is _SYM and not any(isinstance(r, str) for _, r in outcome):
                    twins[(k, pt.y)] = outcome
                block.extend(ResultEntry(pt, variant, not residual, _witness(residual))
                             for variant, residual in outcome)
        blocks.append(block)
    results = [entry for block in reversed(blocks) for entry in block]
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
    """One report per selected identity, ordered by the catalog order;
    every grid is checked before any identity runs.  The identities share
    the memos, which are empty when the suite starts and when it returns."""
    ids = sorted(set(config.ids), key=_ID_ORDER.get)
    grids = [default_grid(identity, config.max_n, config.max_k) for identity in ids]
    for identity, grid in zip(ids, grids):
        _check_bounds(identity, grid)
    _clear_memos()
    try:
        return [_verify(identity, grid) for identity, grid in zip(ids, grids)]
    finally:
        _clear_memos()
