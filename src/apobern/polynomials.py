"""Dense polynomials in x over a mode's scalar domain.

An :class:`XPolynomial` carries the :class:`~apobern.field.LambdaMode`
that fixes its coefficient domain and one canonical integer key, so
equality compares keys.  Arithmetic works on the integers and reduces
once per result, not once per coefficient.

* numeric mode: ``(N, d)`` for the value sum N[i] x^i / d, where ``N`` is
  a tuple of ints with no trailing zeros, ``d > 0`` and the content of
  ``N`` is coprime to ``d``; zero is ``((), 1)``.
* symbolic mode: ``(R, d, a, b)`` for the value
  sum R[i](L) x^i / (d (L-1)^a (L+1)^b), one denominator of the
  :class:`~apobern.field.LambdaRatFunc` shape for all coefficients.
  Each row ``R[i]`` is a tuple of ints, the Z[L] numerator of x^i with
  no trailing zeros (``()`` is a zero coefficient).  There is no
  trailing zero row, not every row vanishes at L = 1 when a > 0 (nor at
  L = -1 when b > 0), d > 0 and the content of all rows is coprime to
  ``d``; zero is ``((), 1, 0, 0)``.

Coefficients ascend by power.  ``coeffs`` reads them as scalars of the
mode, Fractions or one LambdaRatFunc per row, built on first read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from ._kernels import conv_int, power
from .field import (
    FieldElement,
    LambdaMode,
    LambdaRatFunc,
    MixedModeError,
    _alt_sum,
    _canonical,
    _div_root,
    _fast_fraction,
    _horner,
    _lift,
)

__all__ = ["XPolynomial", "embed_poly", "shift_poly"]

_ZERO_KEY = ((), 1)
_SYM_ZERO_KEY = ((), 1, 0, 0)


def _reduced(n: list, d: int) -> tuple:
    """Canonical numeric key of sum n[i] x^i / d; ``n`` is a fresh int
    list (trailing zeros allowed) and ``d > 0``."""
    while n and not n[-1]:
        n.pop()
    if not n:
        return _ZERO_KEY
    g = gcd(d, *n)
    if g != 1:
        n = [c // g for c in n]
        d //= g
    return tuple(n), d


def _sym_reduced(rows: list, d: int, a: int, b: int) -> tuple:
    """Canonical symbolic key of sum rows[i] x^i / (d (L-1)^a (L+1)^b);
    ``rows`` is a fresh list of fresh int lists (trailing zeros allowed)
    and ``d > 0``.  Divides L-1 and L+1 out of all rows at once while
    every row vanishes there, then the content out against ``d``."""
    for r in rows:
        while r and not r[-1]:
            r.pop()
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        return _SYM_ZERO_KEY
    while a and not any(map(sum, rows)):
        rows = [_div_root(r, 1) for r in rows]
        a -= 1
    while b and not any(map(_alt_sum, rows)):
        rows = [_div_root(r, -1) for r in rows]
        b -= 1
    if d != 1:
        g = d
        for r in rows:
            g = gcd(g, *r)
            if g == 1:
                break
        if g != 1:
            rows = [[c // g for c in r] for r in rows]
            d //= g
    return tuple(map(tuple, rows)), d, a, b


def _add_into(p: list, q) -> list:
    """p + q for integer lists; ``p`` is fresh and may come back changed."""
    if len(p) < len(q):
        p, q = list(q), p
    for i, c in enumerate(q):
        p[i] += c
    return p


def _sym_add(k1: tuple, k2: tuple) -> tuple:
    # Lift both to max(a), max(b) and lcm(d), then add rows.
    r1, d1, a1, b1 = k1
    r2, d2, a2, b2 = k2
    a = a1 if a1 > a2 else a2
    b = b1 if b1 > b2 else b2
    d = d1 if d1 == d2 else lcm(d1, d2)
    p = [_lift(r, d // d1, a - a1, b - b1) for r in r1]
    q = [_lift(r, d // d2, a - a2, b - b2) for r in r2]
    if len(p) < len(q):
        p, q = q, p
    for i, r in enumerate(q):
        p[i] = _add_into(p[i], r)
    return _sym_reduced(p, d, a, b)


def _sym_mul(k1: tuple, k2: tuple) -> tuple:
    r1, d1, a1, b1 = k1
    r2, d2, a2, b2 = k2
    out = [[] for _ in range(len(r1) + len(r2) - 1)]
    for i, r in enumerate(r1):
        if r:
            for j, s in enumerate(r2):
                if s:
                    out[i + j] = _add_into(conv_int(r, s), out[i + j])
    return _sym_reduced(out, d1 * d2, a1 + a2, b1 + b2)


def _sym_scaled(key: tuple, by: tuple) -> tuple:
    """A symbolic key times the nonzero scalar with key ``by``."""
    rows, d, a, b = key
    n, e, a2, b2 = by
    if len(n) == 1:
        c = n[0]
        out = [[x * c for x in r] for r in rows]
    else:
        out = [conv_int(r, n) for r in rows]
    return _sym_reduced(out, d * e, a + a2, b + b2)


def _scalar_key(value) -> tuple:
    """Key (N, d, a, b) of a scalar of symbolic mode: an int, a Fraction
    or a LambdaRatFunc, else MixedModeError."""
    if isinstance(value, LambdaRatFunc):
        return value._key
    if isinstance(value, (int, Fraction)):
        return ((value.numerator,), value.denominator, 0, 0) if value else _SYM_ZERO_KEY
    raise MixedModeError("scalar domain does not match the mode")


def _fraction(c: int, d: int) -> Fraction:
    """c / d in lowest terms, for d > 0."""
    g = gcd(c, d)
    return _fast_fraction(c // g, d // g)


def _checked_rational(value) -> Union[int, Fraction]:
    """A scalar of a numeric mode: an int or a Fraction, else MixedModeError."""
    if isinstance(value, (int, Fraction)):
        return value
    raise MixedModeError("symbolic scalar used in numeric mode")


class XPolynomial:
    """Immutable polynomial in x over the scalars selected by ``mode``."""

    __slots__ = ("mode", "_key", "_coeffs")

    def __init__(self, coeffs: Iterable[Union[int, FieldElement]], mode: LambdaMode):
        if mode.is_symbolic:
            keys = [_scalar_key(c) for c in coeffs]
            a = max([k[2] for k in keys], default=0)
            b = max([k[3] for k in keys], default=0)
            d = lcm(*[k[1] for k in keys])
            rows = [_lift(n, d // e, a - ai, b - bi) for n, e, ai, bi in keys]
            _fill(self, mode, _sym_reduced(rows, d, a, b))
        else:
            cs = [_checked_rational(c) for c in coeffs]
            d = lcm(*[c.denominator for c in cs])
            _fill(self, mode, _reduced([c.numerator * (d // c.denominator) for c in cs], d))

    def __setattr__(self, name, value):
        raise AttributeError("XPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, mode: LambdaMode) -> "XPolynomial":
        return cls((), mode)

    @classmethod
    def one(cls, mode: LambdaMode) -> "XPolynomial":
        return cls((1,), mode)

    @classmethod
    def monomial(cls, mode: LambdaMode, exponent: int, coeff=1) -> "XPolynomial":
        return cls([0] * exponent + [coeff], mode)

    # -- structure ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Coefficients as scalars of the mode, ascending, no trailing zeros."""
        cs = self._coeffs
        if cs is None:
            if self.mode.is_symbolic:
                rows, d, a, b = self._key
                cs = tuple([_canonical(list(r), d, a, b) for r in rows])
            else:
                n, d = self._key
                cs = tuple([_fraction(c, d) for c in n])
            _set_coeffs(self, cs)
        return cs

    @property
    def degree(self) -> int:
        """Degree, -1 for the zero polynomial."""
        return len(self._key[0]) - 1

    @property
    def is_zero(self) -> bool:
        return not self._key[0]

    @property
    def leading(self) -> FieldElement:
        return self.coefficient(self.degree)

    def coefficient(self, exponent: int) -> FieldElement:
        if 0 <= exponent < len(self._key[0]):
            return self.coeffs[exponent]
        return self.mode.zero

    def __bool__(self) -> bool:
        return bool(self._key[0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, XPolynomial):
            return NotImplemented
        return self.mode == other.mode and self._key == other._key

    def __hash__(self):
        return hash(("XPolynomial", self.mode, self._key))

    def __repr__(self):
        from .render import render_x_poly

        return render_x_poly(self)

    def _check_mode(self, other: "XPolynomial"):
        if not isinstance(other, XPolynomial):
            raise TypeError("expected an XPolynomial operand")
        if self.mode != other.mode:
            raise MixedModeError("polynomials from different modes")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        self._check_mode(other)
        k1, k2 = self._key, other._key
        if not k2[0]:
            return self
        if not k1[0]:
            return other
        if self.mode.is_symbolic:
            return _new(self.mode, _sym_add(k1, k2))
        (a, d1), (b, d2) = k1, k2
        if d1 != d2:
            g = gcd(d1, d2)
            a = [c * (d2 // g) for c in a]
            b = [c * (d1 // g) for c in b]
            d1 = d1 // g * d2
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return _new(self.mode, _reduced(out, d1))

    def __sub__(self, other):
        self._check_mode(other)
        return self + (-other)

    def __neg__(self):
        if self.mode.is_symbolic:
            rows, d, a, b = self._key
            return _new(self.mode, (tuple([tuple([-c for c in r]) for r in rows]), d, a, b))
        n, d = self._key
        return _new(self.mode, (tuple([-c for c in n]), d))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scalar_mul(other)
        self._check_mode(other)
        k1, k2 = self._key, other._key
        if not k1[0] or not k2[0]:
            return XPolynomial.zero(self.mode)
        if self.mode.is_symbolic:
            return _new(self.mode, _sym_mul(k1, k2))
        (a, d1), (b, d2) = k1, k2
        return _new(self.mode, _reduced(conv_int(a, b), d1 * d2))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "XPolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        return power(self, exponent, XPolynomial.one(self.mode))

    def scalar_mul(self, factor: Union[int, FieldElement]) -> "XPolynomial":
        mode = self.mode
        if mode.is_symbolic:
            by = _scalar_key(factor)
            if not by[0]:
                return XPolynomial.zero(mode)
            return _new(mode, _sym_scaled(self._key, by))
        factor = _checked_rational(factor)
        if not factor:
            return XPolynomial.zero(mode)
        n, d = self._key
        p, q = factor.numerator, factor.denominator
        return _new(mode, _reduced([c * p for c in n], d * q))

    def scalar_div(self, divisor: Union[int, FieldElement]) -> "XPolynomial":
        mode = self.mode
        if mode.is_symbolic:
            if not _scalar_key(divisor)[0]:
                raise ZeroDivisionError("polynomial divided by the zero scalar")
            inverse = divisor.inverse() if isinstance(divisor, LambdaRatFunc) else 1 / Fraction(divisor)
            return _new(mode, _sym_scaled(self._key, _scalar_key(inverse)))
        divisor = _checked_rational(divisor)
        if not divisor:
            raise ZeroDivisionError("polynomial divided by the zero scalar")
        n, d = self._key
        p, q = divisor.numerator, divisor.denominator
        if p < 0:
            p, q = -p, -q
        return _new(mode, _reduced([c * q for c in n], d * p))

    def evaluate(self, point: Union[int, FieldElement]) -> FieldElement:
        mode = self.mode
        if mode.is_symbolic:
            # Horner on rows with the point u / v, v = e (L-1)^a' (L+1)^b':
            # S = sum R_i u^i v^(t-i) over d v^t (L-1)^a (L+1)^b.
            u, e, pa, pb = _scalar_key(point)
            rows, d, a, b = self._key
            if not rows:
                return mode.zero
            v = _lift((e,), 1, pa, pb)
            acc, v_power = list(rows[-1]), [1]
            for r in rows[-2::-1]:
                v_power = conv_int(v_power, v)
                acc = _add_into(conv_int(acc, u), conv_int(r, v_power))
            t = len(rows) - 1
            return _canonical(acc, d * e ** t, a + t * pa, b + t * pb)
        # Horner on integers: S = sum N_i u^i v^(t-i), value S / (d v^t).
        point = _checked_rational(point)
        n, d = self._key
        if not n:
            return Fraction(0)
        s, v_power = _horner(n, point.numerator, point.denominator)
        return Fraction(s, d * v_power)

    def derivative(self) -> "XPolynomial":
        if self.mode.is_symbolic:
            rows, d, a, b = self._key
            out = [[c * m for c in r] for m, r in enumerate(rows) if m]
            return _new(self.mode, _sym_reduced(out, d, a, b))
        n, d = self._key
        return _new(self.mode, _reduced([c * m for m, c in enumerate(n) if m], d))


_set_mode = XPolynomial.mode.__set__
_set_key = XPolynomial._key.__set__
_set_coeffs = XPolynomial._coeffs.__set__


def _fill(poly: XPolynomial, mode: LambdaMode, key: tuple):
    _set_mode(poly, mode)
    _set_key(poly, key)
    _set_coeffs(poly, None)


def _new(mode: LambdaMode, key: tuple) -> XPolynomial:
    # Trusted constructor: the key is already canonical.
    poly = object.__new__(XPolynomial)
    _fill(poly, mode, key)
    return poly


def embed_poly(poly: XPolynomial, mode: LambdaMode) -> XPolynomial:
    """Re-home a polynomial with rational coefficients into another mode."""
    if poly.mode == mode:
        return poly
    if poly.mode.is_symbolic:
        rows, d, a, b = poly._key
        if a or b or any(len(r) > 1 for r in rows):
            raise ValueError(f"not a polynomial with rational coefficients: {poly!r}")
        return _new(mode, (tuple([r[0] if r else 0 for r in rows]), d))
    n, d = poly._key
    if mode.is_symbolic:
        return _new(mode, (tuple([(c,) if c else () for c in n]), d, 0, 0))
    return _new(mode, (n, d))


def shift_poly(p: XPolynomial, h: Union[int, Fraction, FieldElement]) -> XPolynomial:
    """Exact coefficients of p(x + h), by the Taylor shift of repeated
    synthetic division: pass i runs c[j] += h * c[j+1] for j = deg p - 1
    down to i, in place (von zur Gathen & Gerhard, ISSAC 1997).

    With h = u/v and t = deg p the passes run on a_i = N_i v^(t-i) with
    step u, and the result is sum c_j v^j x^j / (d v^t).  In numeric mode
    u and v > 0 are integers; in symbolic mode they are Z[L] rows, with
    v = e (L-1)^a' (L+1)^b' read off the key of h (constant for a
    rational h), and the passes run on rows.
    """
    mode = p.mode
    h = mode.scalar(h) if isinstance(h, (int, Fraction)) else h
    if not mode.matches(h):
        raise MixedModeError("shift domain does not match the mode")
    if p.is_zero:
        return p
    if mode.is_symbolic:
        u, e, ha, hb = h._key
        rows, d, a, b = p._key
        top = len(rows) - 1
        v = _lift((e,), 1, ha, hb)
        powers = [[1]]
        for _ in range(top):
            powers.append(conv_int(powers[-1], v))
        c = [conv_int(r, powers[top - i]) for i, r in enumerate(rows)]
        for i in range(top):
            for j in range(top - 1, i - 1, -1):
                c[j] = _add_into(conv_int(u, c[j + 1]), c[j])
        out = [conv_int(x, powers[j]) for j, x in enumerate(c)]
        return _new(mode, _sym_reduced(out, d * e ** top, a + top * ha, b + top * hb))
    n, d = p._key
    top = len(n) - 1
    step, v = h.numerator, h.denominator
    powers = [v ** i for i in range(top + 1)]
    c = [x * powers[top - i] for i, x in enumerate(n)]
    for i in range(top):
        for j in range(top - 1, i - 1, -1):
            c[j] = c[j] + step * c[j + 1]
    return _new(mode, _reduced([x * powers[j] for j, x in enumerate(c)], d * powers[top]))
