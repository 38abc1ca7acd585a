"""Dense polynomials in x over a mode's scalar domain.

An :class:`XPolynomial` carries the :class:`~apobern.field.LambdaMode`
that fixes its coefficient domain: plain rationals in numeric mode,
rational functions of the deformation parameter in symbolic mode.
Coefficients ascend by power and carry no trailing zeros, so equality is
structural.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Union

from ._kernels import power
from .field import FieldElement, LambdaMode, LambdaRatFunc, MixedModeError
from .series import convolve

__all__ = ["XPolynomial", "embed_poly"]


class XPolynomial:
    """Immutable polynomial in x over the scalars selected by ``mode``."""

    __slots__ = ("coeffs", "mode")

    def __init__(self, coeffs: Iterable[Union[int, FieldElement]], mode: LambdaMode):
        cs = [mode.scalar(c) if isinstance(c, (int, Fraction)) else c for c in coeffs]
        for c in cs:
            if not mode.matches(c):
                raise MixedModeError("coefficient domain does not match the mode")
        self._fill(cs, mode)

    def _fill(self, cs: list, mode: LambdaMode):
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "mode", mode)

    @classmethod
    def _trusted(cls, cs: list, mode: LambdaMode) -> "XPolynomial":
        """Wrap a list of scalars of ``mode`` built from checked operands:
        strips trailing zeros in place, skips the per-coefficient check."""
        poly = object.__new__(cls)
        poly._fill(cs, mode)
        return poly

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
    def degree(self) -> int:
        """Degree, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> FieldElement:
        if not self.coeffs:
            return self.mode.zero
        return self.coeffs[-1]

    def coefficient(self, exponent: int) -> FieldElement:
        if 0 <= exponent < len(self.coeffs):
            return self.coeffs[exponent]
        return self.mode.zero

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, XPolynomial):
            return NotImplemented
        return self.mode == other.mode and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("XPolynomial", self.mode, self.coeffs))

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
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return XPolynomial._trusted(out, self.mode)

    def __sub__(self, other):
        self._check_mode(other)
        return self + (-other)

    def __neg__(self):
        return XPolynomial._trusted([-c for c in self.coeffs], self.mode)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scalar_mul(other)
        self._check_mode(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return XPolynomial.zero(self.mode)
        return XPolynomial._trusted(convolve(a, b, len(a) + len(b) - 1), self.mode)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "XPolynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers take nonnegative integer exponents")
        return power(self, exponent, XPolynomial.one(self.mode))

    def scalar_mul(self, factor: Union[int, FieldElement]) -> "XPolynomial":
        factor = self.mode.scalar(factor) if isinstance(factor, (int, Fraction)) else factor
        if not self.mode.matches(factor):
            raise MixedModeError("scalar domain does not match the mode")
        if not factor:
            return XPolynomial.zero(self.mode)
        return XPolynomial._trusted([c * factor for c in self.coeffs], self.mode)

    def scalar_div(self, divisor: Union[int, FieldElement]) -> "XPolynomial":
        divisor = self.mode.scalar(divisor) if isinstance(divisor, (int, Fraction)) else divisor
        if not divisor:
            raise ZeroDivisionError("polynomial divided by the zero scalar")
        return XPolynomial([c / divisor for c in self.coeffs], self.mode)

    def evaluate(self, point: Union[int, FieldElement]) -> FieldElement:
        point = self.mode.scalar(point) if isinstance(point, (int, Fraction)) else point
        acc = self.mode.zero
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def derivative(self) -> "XPolynomial":
        return XPolynomial(
            [c * m for m, c in enumerate(self.coeffs) if m >= 1],
            self.mode,
        )


def embed_poly(poly: XPolynomial, mode: LambdaMode) -> XPolynomial:
    """Re-home a polynomial with rational coefficients into another mode."""
    if poly.mode == mode:
        return poly
    rationals = []
    for c in poly.coeffs:
        if isinstance(c, LambdaRatFunc):
            rationals.append(c.as_rational())
        else:
            rationals.append(c)
    return XPolynomial(rationals, mode)
