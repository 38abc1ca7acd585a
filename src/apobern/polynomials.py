"""Dense polynomials in x over a mode's scalar domain.

An :class:`XPolynomial` carries the :class:`~apobern.field.LambdaMode`
that fixes its coefficient domain and one canonical key, so equality
compares keys:

* numeric mode: ``(N, d)`` for the value sum N[i] x^i / d, where ``N`` is
  a tuple of ints with no trailing zeros, ``d > 0`` and the content of
  ``N`` is coprime to ``d``; zero is ``((), 1)``.  Arithmetic works on
  the integers and reduces once per result, not once per coefficient.
* symbolic mode: ``(C, 1)`` with ``C`` the tuple of
  :class:`~apobern.field.LambdaRatFunc` coefficients, no trailing zeros.

Coefficients ascend by power.  ``coeffs`` reads them as scalars of the
mode; in numeric mode that tuple of Fractions is built on first read.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from ._kernels import conv_int, power
from .field import FieldElement, LambdaMode, LambdaRatFunc, MixedModeError, _fast_fraction
from .series import convolve

__all__ = ["XPolynomial", "embed_poly", "shift_poly"]

_ZERO_KEY = ((), 1)


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
            cs = [mode.scalar(c) if isinstance(c, (int, Fraction)) else c for c in coeffs]
            if not all(map(mode.matches, cs)):
                raise MixedModeError("coefficient domain does not match the mode")
            cs = _stripped(cs)
            _fill(self, mode, (cs, 1), cs)
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
        (a, d1), (b, d2) = self._key, other._key
        if not b:
            return self
        if not a:
            return other
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
        if self.mode.is_symbolic:
            return _symbolic(out, self.mode)
        return _new(self.mode, _reduced(out, d1))

    def __sub__(self, other):
        self._check_mode(other)
        return self + (-other)

    def __neg__(self):
        n, d = self._key
        neg = tuple([-c for c in n])
        return _new(self.mode, (neg, d), neg if self.mode.is_symbolic else None)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scalar_mul(other)
        self._check_mode(other)
        (a, d1), (b, d2) = self._key, other._key
        if not a or not b:
            return XPolynomial.zero(self.mode)
        if self.mode.is_symbolic:
            return _symbolic(convolve(a, b, len(a) + len(b) - 1), self.mode)
        return _new(self.mode, _reduced(conv_int(a, b), d1 * d2))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "XPolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        return power(self, exponent, XPolynomial.one(self.mode))

    def scalar_mul(self, factor: Union[int, FieldElement]) -> "XPolynomial":
        mode = self.mode
        if mode.is_symbolic:
            factor = mode.scalar(factor) if isinstance(factor, (int, Fraction)) else factor
            if not mode.matches(factor):
                raise MixedModeError("scalar domain does not match the mode")
            if not factor:
                return XPolynomial.zero(mode)
            return _symbolic([c * factor for c in self._key[0]], mode)
        factor = _checked_rational(factor)
        if not factor:
            return XPolynomial.zero(mode)
        n, d = self._key
        p, q = factor.numerator, factor.denominator
        return _new(mode, _reduced([c * p for c in n], d * q))

    def scalar_div(self, divisor: Union[int, FieldElement]) -> "XPolynomial":
        mode = self.mode
        if mode.is_symbolic:
            divisor = mode.scalar(divisor) if isinstance(divisor, (int, Fraction)) else divisor
            if not divisor:
                raise ZeroDivisionError("polynomial divided by the zero scalar")
            return XPolynomial([c / divisor for c in self._key[0]], mode)
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
            point = mode.scalar(point) if isinstance(point, (int, Fraction)) else point
            acc = mode.zero
            for c in reversed(self._key[0]):
                acc = acc * point + c
            return acc
        # Horner on integers: S = sum N_i u^i v^(t-i), value S / (d v^t).
        point = _checked_rational(point)
        n, d = self._key
        u, v = point.numerator, point.denominator
        if not n:
            return Fraction(0)
        acc, v_power = n[-1], 1
        for c in n[-2::-1]:
            v_power *= v
            acc = acc * u + c * v_power
        return Fraction(acc, d * v_power)

    def derivative(self) -> "XPolynomial":
        n, d = self._key
        out = [c * m for m, c in enumerate(n) if m >= 1]
        if self.mode.is_symbolic:
            return XPolynomial(out, self.mode)
        return _new(self.mode, _reduced(out, d))


_set_mode = XPolynomial.mode.__set__
_set_key = XPolynomial._key.__set__
_set_coeffs = XPolynomial._coeffs.__set__


def _fill(poly: XPolynomial, mode: LambdaMode, key: tuple, coeffs=None):
    _set_mode(poly, mode)
    _set_key(poly, key)
    _set_coeffs(poly, coeffs)


def _new(mode: LambdaMode, key: tuple, coeffs=None) -> XPolynomial:
    # Trusted constructor: the key is already canonical; ``coeffs`` is
    # the coefficient tuple in symbolic mode and None in numeric mode.
    poly = object.__new__(XPolynomial)
    _fill(poly, mode, key, coeffs)
    return poly


def _stripped(cs: list) -> tuple:
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _symbolic(cs: list, mode: LambdaMode) -> XPolynomial:
    """Wrap a list of scalars of ``mode`` built from checked operands:
    strips trailing zeros in place, skips the per-coefficient check."""
    cs = _stripped(cs)
    return _new(mode, (cs, 1), cs)


def embed_poly(poly: XPolynomial, mode: LambdaMode) -> XPolynomial:
    """Re-home a polynomial with rational coefficients into another mode."""
    if poly.mode == mode:
        return poly
    if poly.mode.is_symbolic:
        return XPolynomial([c.as_rational() for c in poly.coeffs], mode)
    if not mode.is_symbolic:
        return _new(mode, poly._key)
    n, d = poly._key
    return _symbolic([LambdaRatFunc.from_rational(_fraction(c, d)) for c in n], mode)


def shift_poly(p: XPolynomial, h: Union[int, Fraction, FieldElement]) -> XPolynomial:
    """Exact coefficients of p(x + h), by the Taylor shift of repeated
    synthetic division: pass i runs c[j] += h * c[j+1] for j = deg p - 1
    down to i, in place (von zur Gathen & Gerhard, ISSAC 1997).

    In numeric mode with h = u/v, v > 0 and t = deg p, the passes run on
    the integers a_i = N_i v^(t-i) with step u, and the result is
    sum c_j v^j x^j / (d v^t).
    """
    mode = p.mode
    h = mode.scalar(h) if isinstance(h, (int, Fraction)) else h
    if not mode.matches(h):
        raise MixedModeError("shift domain does not match the mode")
    if p.is_zero:
        return p
    n, d = p._key
    top = len(n) - 1
    if mode.is_symbolic:
        step, c = h, list(n)
    else:
        step, v = h.numerator, h.denominator
        powers = [v ** i for i in range(top + 1)]
        c = [x * powers[top - i] for i, x in enumerate(n)]
    for i in range(top):
        for j in range(top - 1, i - 1, -1):
            c[j] = c[j] + step * c[j + 1]
    if mode.is_symbolic:
        return _symbolic(c, mode)
    return _new(mode, _reduced([x * powers[j] for j, x in enumerate(c)], d * powers[top]))
