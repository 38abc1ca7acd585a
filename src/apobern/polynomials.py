"""Dense polynomials in x over a mode's scalar domain.

An :class:`XPolynomial` carries the :class:`~apobern.field.LambdaMode`
that fixes its coefficient domain and one canonical integer key, so
equality compares keys: the numeric key ``(N, d)`` or the symbolic key
``(R, d, a, b)`` of ``_keys``, which states the invariant and keeps it.
Arithmetic works on the integers and reduces once per result, not once
per coefficient.  Coefficients ascend by power.  ``coeffs`` and
``coefficient`` build the mode's scalars on each read, uncached, from
each coefficient's canonical scalar key ``(N, d, a, b)``, which the
renderer also reads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence, Union

from ._kernels import conv_int, power
from ._keys import (_NUM_ZERO_KEY, _ZERO_KEY, _add_into, _canonical, _checked_rational, _horner,
                    _lift, _lifted, _reduced, _scalar_key, _scaled, _sum, _sym_reduced, _times)
from .field import (
    FieldElement,
    LambdaMode,
    MixedModeError,
    _fast_fraction,
    _new as _ratfunc,
)

__all__ = ["XPolynomial", "dot", "embed_poly", "shift_poly"]


class XPolynomial:
    """Immutable polynomial in x over the scalars selected by ``mode``."""

    __slots__ = ("mode", "_key")

    def __new__(cls, coeffs: Iterable[Union[int, FieldElement]], mode: LambdaMode):
        return _finish(mode, _lifted(mode.is_symbolic, coeffs))

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
        # a canonical scalar key is the canonical key of its one row
        if mode.is_symbolic:
            n, d, a, b = _scalar_key(coeff)
            key = (((),) * exponent + (n,), d, a, b) if n else _ZERO_KEY
        else:
            c = _checked_rational(coeff)
            key = ((0,) * exponent + (c.numerator,), c.denominator) if c else _NUM_ZERO_KEY
        return _new(mode, key)

    # -- structure ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Coefficients as scalars of the mode, ascending, no trailing zeros."""
        return tuple([self.coefficient(i) for i in range(len(self._key[0]))])

    def _coeff_key(self, exponent: int) -> tuple:
        """Canonical scalar key (N, d, a, b) of the coefficient of
        x^exponent, 0 <= exponent <= degree: a numeric c/d gives
        ((c,), d, 0, 0) and zero ((), 1, 0, 0)."""
        if self.mode.is_symbolic:
            rows, d, a, b = self._key
            return _canonical(list(rows[exponent]), d, a, b)
        n, d = self._key
        g = gcd(n[exponent], d)
        return ((n[exponent] // g,), d // g, 0, 0) if n[exponent] else _ZERO_KEY

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
        if not 0 <= exponent < len(self._key[0]):
            return self.mode.zero
        key = self._coeff_key(exponent)
        if self.mode.is_symbolic:
            return _ratfunc(key)
        return _fast_fraction(key[0][0], key[1]) if key[0] else Fraction(0)

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
        if not other._key[0]:
            return self
        if not self._key[0]:
            return other
        return _new(self.mode, _sum(self.mode.is_symbolic, (self._key, other._key)))

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
        return _finish(self.mode, _times(self.mode.is_symbolic, self._key, other._key))

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "XPolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        return power(self, exponent, XPolynomial.one(self.mode))

    def scalar_mul(self, factor: Union[int, FieldElement]) -> "XPolynomial":
        return _finish(self.mode, _scaled(self.mode.is_symbolic, self._key, factor))

    def scalar_div(self, divisor: Union[int, FieldElement]) -> "XPolynomial":
        symbolic = self.mode.is_symbolic
        divisor = self.mode.scalar(divisor)
        if not divisor:
            raise ZeroDivisionError("polynomial divided by the zero scalar")
        inverse = divisor.inverse() if symbolic else 1 / divisor
        return _finish(self.mode, _scaled(symbolic, self._key, inverse))

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
            return _ratfunc(_canonical(acc, d * e ** t, a + t * pa, b + t * pb))
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


def _new(mode: LambdaMode, key: tuple) -> XPolynomial:
    # Trusted constructor: the key is already canonical.
    poly = object.__new__(XPolynomial)
    _set_mode(poly, mode)
    _set_key(poly, key)
    return poly


def _finish(mode: LambdaMode, raw) -> XPolynomial:
    # The polynomial of an unreduced key of the mode, or zero for None.
    if raw is None:
        return _new(mode, _ZERO_KEY if mode.is_symbolic else _NUM_ZERO_KEY)
    return _new(mode, _sym_reduced(*raw) if mode.is_symbolic else _reduced(*raw))


def dot(mode: LambdaMode, factors: Sequence, polys: Sequence[XPolynomial]) -> XPolynomial:
    """sum factors[i] * polys[i] over polynomials of ``mode``, each factor a
    scalar of the mode or an XPolynomial of it; the empty sum is zero.
    The raw integer products are summed and reduced once."""
    symbolic = mode.is_symbolic
    terms = []
    for factor, poly in zip(factors, polys, strict=True):
        if poly.mode is not mode:
            raise MixedModeError("polynomials from different modes")
        if isinstance(factor, XPolynomial):
            poly._check_mode(factor)
            term = _times(symbolic, factor._key, poly._key)
        else:
            term = _scaled(symbolic, poly._key, factor)
        if term is not None:
            terms.append(term)
    return _new(mode, _sum(symbolic, terms))


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
    h = _scalar_key(h) if mode.is_symbolic else _checked_rational(h)
    if p.is_zero:
        return p
    if mode.is_symbolic:
        u, e, ha, hb = h
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
