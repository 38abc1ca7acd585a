"""Number sequences and polynomial families from the generating kernels.

The two kernels are

* Bernoulli-type: t^k / (L e^t - 1)^k, with the L = 1 case routed through
  (t / (e^t - 1))^k because substituting 1 into the symbolic values hits
  the pole at L = 1;
* Euler-type: 2^k / (L e^t + 1)^k, which is regular at L = 1 and singular
  only at L = -1 (rejected).

Numbers are n! times the n-th ordinary series coefficient; polynomials
come from the binomial sum over the numbers, with an independent
series-product extraction kept alongside for cross-checking.  The sum
sum_l C(n, l) beta_(n-l) x^l is written from the numbers' integer keys
(:func:`_member`): one lift to one denominator d (L-1)^a (L+1)^b, each
binomial in its number's scale, and one reduction, with no scalar built
per coefficient.

Each (family, k, mode) keeps the longest number table built since the
last :func:`clear_caches`, and only :func:`_stored` extends it: symbolic
and classical tables by the one recurrence of :func:`_recurrence_values`
over ``_RECURRENCES`` (Luo and Srivastava, J. Math. Anal. Appl. 308
(2005)), which never touches the series, so the extraction above is an
independent check of them; numeric Apostol tables from the kernel series
at the longer order.  The public table functions cut prefixes of it;
members, ``identities``' basis columns and ID_EULER_RAMANUJAN index it
in place.  ``identities.verify_identity`` walks its grid from the
largest n down, so a grid builds each table once.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple, Tuple

from ._kernels import conv_int
from ._keys import _lifted, _scalar_key, _sum
from .field import FieldElement, LambdaMode, PoleError, _new
from .polynomials import XPolynomial, _finish
from .series import TruncatedSeries, exp_scaled_series

__all__ = [
    "Family",
    "NumberTable",
    "apostol_bernoulli_numbers",
    "apostol_euler_numbers",
    "bernoulli_numbers_by_recurrence",
    "euler_numbers_by_recurrence",
    "euler_number_from_half_point",
    "apostol_bernoulli_poly",
    "apostol_euler_poly",
    "poly_by_series_extraction",
    "bernoulli_poly",
    "euler_poly",
    "clear_caches",
]

# The classical families live in the numeric mode at L = 1.
_ONE = LambdaMode.numeric(1)


class Family(enum.Enum):
    APOSTOL_BERNOULLI = "apostol-bernoulli"
    APOSTOL_EULER = "apostol-euler"
    BERNOULLI = "bernoulli"
    EULER = "euler"


class _TableFields(NamedTuple):
    family: Family
    k: int
    mode: LambdaMode
    values: Tuple[FieldElement, ...]


class NumberTable(_TableFields):
    """values[n] = n! * [t^n] of the family's generating kernel; the table
    indexes and counts its values."""

    __slots__ = ()

    def __getitem__(self, n: int) -> FieldElement:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def _make(cls, iterable) -> "NumberTable":
        # checks the field count, which len() no longer gives
        return cls(*iterable)


def _kernel(k: int, order: int, mode: LambdaMode, s: int) -> TruncatedSeries:
    """1 / (L e^t + s)^k for s = +-1, and 1 for k = 0."""
    if k == 0:
        return TruncatedSeries([mode.one] + [mode.zero] * order)
    lam_exp = exp_scaled_series(mode.one, order).scale(mode.lam).coeffs
    return (TruncatedSeries([lam_exp[0] + s, *lam_exp[1:]]) ** k).recip()


@lru_cache(maxsize=None)
def _bernoulli_kernel(k: int, order: int, mode: LambdaMode) -> TruncatedSeries:
    if k and mode.is_one:
        # (e^t - 1)/t has coefficients 1/(m+1)! and unit constant term.
        base = TruncatedSeries(
            [Fraction(1, factorial(m + 1)) for m in range(order + 1)]
        )
        return (base ** k).recip()
    return _kernel(k, order, mode, -1).times_t_power(k)


@lru_cache(maxsize=None)
def _euler_kernel(k: int, order: int, mode: LambdaMode) -> TruncatedSeries:
    if not mode.is_symbolic and mode.value == -1:
        raise PoleError("Euler-family kernel has a pole at lambda = -1")
    return _kernel(k, order, mode, 1).scale(mode.scalar(2 ** k))


# The tables of the one recurrence as data.  The kernel K of order k
# solves F K = H: (L e^t - 1)^k K = t^k and (L e^t + 1)^k K = 2^k for the
# Apostol families, (e^t - 1) K = t and (e^t + e^-t) K = 2 for the
# classical ones (k = 1).  A row gives, for k, the G_m in Z[L] of
# F = sum_m G_m t^m/m!, the nonzero c_N of H = sum_N c_N t^N/N!, the
# valuation v of F and 1/G_v as (d, a, b), that is 1/(d (L-1)^a (L+1)^b).
_RECURRENCES = {
    Family.APOSTOL_BERNOULLI: lambda k: (
        lambda m: [comb(k, j) * (-1) ** (k - j) * j ** m for j in range(k + 1)],
        {k: factorial(k)}, 0, (1, k, 0)),
    Family.APOSTOL_EULER: lambda k: (
        lambda m: [comb(k, j) * j ** m for j in range(k + 1)], {0: 2 ** k}, 0, (1, 0, k)),
    Family.BERNOULLI: lambda k: (lambda m: [1] if m else [], {1: 1}, 1, (1, 0, 0)),
    Family.EULER: lambda k: (lambda m: [1 + (-1) ** m], {0: 2}, 0, (2, 0, 0)),
}


def _recurrence_values(spec: tuple, values: tuple, n_max: int, mode: LambdaMode) -> tuple:
    """The kernel's numbers through n_max, extending ``values``, from its
    row ``spec`` of _RECURRENCES.  At t^N/N!, F K = H reads
    sum_m C(N,m) G_m v_(N-m) = c_N, so with N = n + v, v_n is
    (c_N - sum_(m>v) C(N,m) G_m v_(N-m)) / (C(N,v) G_v); each term takes
    the divisor into its key, and one sum reduces the value once."""
    g_row, c, v, (d, a, b) = spec
    g = [g_row(m) for m in range(n_max + v + 1)]
    keys = [_scalar_key(x) for x in values]
    for n in range(len(keys), n_max + 1):
        N = n + v
        e = comb(N, v) * d
        terms = [([[c[N]]], e, a, b)] if N in c else []
        for m in range(v + 1, N + 1):
            row, f, fa, fb = keys[N - m]
            if row:
                weights = [-comb(N, m) * x for x in g[m]]
                terms.append(([conv_int(weights, row)], e * f, a + fa, b + fb))
        rows, f, fa, fb = _sum(True, terms)
        keys.append((rows[0] if rows else (), f, fa, fb))
    return values + tuple(mode.specialize(_new(key)) for key in keys[len(values):])


# The longest table built per (family, k, mode), the classical ones under
# (Family.BERNOULLI or Family.EULER, 1, L = 1); only _stored grows it.
_LONGEST: dict = {}


def _stored(family: Family, k: int, n_max: int, mode: LambdaMode) -> NumberTable:
    """The longest table of (family, k, mode) built so far, first extended
    through n_max if it is shorter.  Internal readers index it in place;
    only the public table functions cut a prefix from it."""
    if k < 0 or n_max < 0:
        raise ValueError("order and index bound must be nonnegative")
    table = _LONGEST.get((family, k, mode))
    if table is None or len(table) <= n_max:
        values = table.values if table else ()
        if mode.is_symbolic or family in (Family.BERNOULLI, Family.EULER):
            values = _recurrence_values(_RECURRENCES[family](k), values, n_max, mode)
        else:
            kernel = (_bernoulli_kernel if family is Family.APOSTOL_BERNOULLI
                      else _euler_kernel)(k, n_max, mode)
            values = tuple(kernel.coefficient(n) * factorial(n) for n in range(n_max + 1))
        table = _LONGEST[family, k, mode] = NumberTable(family, k, mode, values)
    return table


def _prefix(family: Family, k: int, n_max: int, mode: LambdaMode) -> NumberTable:
    table = _stored(family, k, n_max, mode)
    return table._replace(values=table.values[: n_max + 1])


@lru_cache(maxsize=None)
def apostol_bernoulli_numbers(k: int, n_max: int, mode: LambdaMode) -> NumberTable:
    """Bernoulli-type numbers of order k through index n_max."""
    return _prefix(Family.APOSTOL_BERNOULLI, k, n_max, mode)


@lru_cache(maxsize=None)
def apostol_euler_numbers(k: int, n_max: int, mode: LambdaMode) -> NumberTable:
    """Euler-type numbers of order k through index n_max."""
    return _prefix(Family.APOSTOL_EULER, k, n_max, mode)


@lru_cache(maxsize=None)
def bernoulli_numbers_by_recurrence(n_max: int) -> NumberTable:
    """Classical Bernoulli numbers from (B+1)^n - B_n = [n == 1]."""
    return _prefix(Family.BERNOULLI, 1, n_max, _ONE)


@lru_cache(maxsize=None)
def euler_numbers_by_recurrence(n_max: int) -> NumberTable:
    """Integer Euler numbers from (E+1)^n + (E-1)^n = 2*[n == 0]."""
    return _prefix(Family.EULER, 1, n_max, _ONE)


def euler_number_from_half_point(k: int) -> Fraction:
    """The bridge value 2^k E_k(1/2) from the classical Euler polynomial."""
    value = euler_poly(k).evaluate(Fraction(1, 2))
    return value * 2 ** k


def _member(numbers: NumberTable, n: int) -> XPolynomial:
    """The family member sum_l C(n, l) beta_(n-l) x^l of the table's
    numbers beta_0..beta_n (the table may run further), written from their
    keys: one lift to one denominator with each binomial in its scale,
    reduced once."""
    mode = numbers.mode
    scales = [comb(n, l) for l in range(n + 1)]
    return _finish(mode, _lifted(mode.is_symbolic, numbers.values[n::-1], scales))


@lru_cache(maxsize=None)
def apostol_bernoulli_poly(n: int, k: int, mode: LambdaMode) -> XPolynomial:
    """Degree-indexed Bernoulli-type polynomial via the binomial sum
    sum_l C(n, l) x^l * number_{n-l}."""
    return _member(_stored(Family.APOSTOL_BERNOULLI, k, n, mode), n)


@lru_cache(maxsize=None)
def apostol_euler_poly(n: int, k: int, mode: LambdaMode) -> XPolynomial:
    """Degree-indexed Euler-type polynomial via the binomial sum."""
    return _member(_stored(Family.APOSTOL_EULER, k, n, mode), n)


def poly_by_series_extraction(
    n: int, k: int, mode: LambdaMode, family: Family = Family.APOSTOL_BERNOULLI
) -> XPolynomial:
    """Independent construction: n! * [t^n] (kernel * e^{xt}).

    The kernel series is lifted to polynomial coefficients and multiplied
    by the series with coefficients x^m / m!; no binomial identities are
    involved, so this cross-checks the table-based construction.
    """
    if family in (Family.APOSTOL_BERNOULLI, Family.BERNOULLI):
        kernel = _bernoulli_kernel(k, n, mode)
    elif family in (Family.APOSTOL_EULER, Family.EULER):
        kernel = _euler_kernel(k, n, mode)
    else:
        raise ValueError(f"unknown family: {family}")
    lifted = TruncatedSeries(
        [XPolynomial([c], mode) for c in kernel.coeffs]
    )
    exp_xt = TruncatedSeries(
        [
            XPolynomial.monomial(mode, m, Fraction(1, factorial(m)))
            for m in range(n + 1)
        ]
    )
    product = lifted * exp_xt
    return product.coefficient(n) * factorial(n)


def bernoulli_poly(n: int) -> XPolynomial:
    """Classical Bernoulli polynomial (numeric mode at 1)."""
    return apostol_bernoulli_poly(n, 1, _ONE)


def euler_poly(n: int) -> XPolynomial:
    """Classical Euler polynomial (numeric mode at 1)."""
    return apostol_euler_poly(n, 1, _ONE)


def clear_caches():
    """Drop all memoized tables (results are unaffected; timing tests use this).

    The identity-level memos are not family caches: each
    ``verify_identity`` call empties them when it starts."""
    for fn in (
        _bernoulli_kernel,
        _euler_kernel,
        apostol_bernoulli_numbers,
        apostol_euler_numbers,
        bernoulli_numbers_by_recurrence,
        euler_numbers_by_recurrence,
        apostol_bernoulli_poly,
        apostol_euler_poly,
    ):
        fn.cache_clear()
    _LONGEST.clear()
