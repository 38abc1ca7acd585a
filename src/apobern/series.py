"""Truncated formal power series, and the dense product behind every
series.

:func:`convolve` is the Cauchy product of two coefficient sequences.
Rational sequences go through the ``conv_frac`` kernel: one integer
convolution over a common denominator per operand, each output reduced
once.  Any other ring (rational functions of the deformation parameter,
or polynomials in x for the dual-path generating-function extraction)
takes one generic loop.  ``TruncatedSeries.__mul__`` is one call to it,
and ``__pow__`` takes popcount + bit_length - 2 of them (none by the
identity series); x-polynomials multiply their integer keys with
``conv_int``.

A series of order N stores the N+1 ordinary coefficients c_0..c_N of
sum c_n t^n; the factorial scaling used to read off polynomial-family
values is applied by the callers at extraction time.  Coefficients may
be any ring elements supporting +, *, ``bool`` and ** 0.  Operations
never extend the truncation order; combining series of different orders
is an error.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from ._kernels import conv_frac, power, recip_frac
from .field import FieldElement, _fast_fraction

__all__ = ["TruncatedSeries", "convolve", "exp_scaled_series", "NonInvertibleSeriesError"]


def _pairs(coeffs) -> tuple:
    """Parallel numerator and denominator lists of rational coefficients."""
    return [c.numerator for c in coeffs], [c.denominator for c in coeffs]


def convolve(a, b, out_len: int) -> list:
    """c_n = sum_i a_i * b_{n-i} for n < out_len over nonempty sequences.

    Rational sequences go through the ``conv_frac`` kernel; any other
    ring runs one loop that skips zero coefficients.
    """
    if isinstance(a[0], Fraction) and isinstance(b[0], Fraction):
        cn, cd = conv_frac(*_pairs(a), *_pairs(b), out_len)
        return [_fast_fraction(p, q) for p, q in zip(cn, cd)]
    out = [a[0] * 0] * out_len
    for i, ai in enumerate(a[:out_len]):
        if ai:
            for j, bj in enumerate(b[: out_len - i]):
                if bj:
                    out[i + j] = out[i + j] + ai * bj
    return out


class NonInvertibleSeriesError(ZeroDivisionError):
    """Reciprocal of a series whose constant term is zero."""


class TruncatedSeries:
    """Immutable dense series c_0 + c_1 t + ... + c_N t^N."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a truncated series needs at least its constant term")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int):
        return self.coeffs[n]

    @property
    def _zero(self):
        return self.coeffs[0] * 0

    @property
    def _one(self):
        return self.coeffs[0] ** 0

    def _check_compatible(self, other: "TruncatedSeries"):
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries operand")
        if self.order != other.order:
            raise ValueError(
                f"series order mismatch: {self.order} vs {other.order}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("TruncatedSeries", self.coeffs))

    def __repr__(self):
        inner = ", ".join(repr(c) for c in self.coeffs)
        return f"TruncatedSeries([{inner}])"

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        return TruncatedSeries(a + b for a, b in zip(self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check_compatible(other)
        return TruncatedSeries(a - b for a, b in zip(self.coeffs, other.coeffs))

    def __neg__(self):
        return TruncatedSeries(-c for c in self.coeffs)

    def __mul__(self, other):
        """Cauchy product truncated at the common order."""
        self._check_compatible(other)
        return TruncatedSeries(convolve(self.coeffs, other.coeffs, self.order + 1))

    def recip(self) -> "TruncatedSeries":
        """Series b with (self * b)_n = [n == 0] up to the order."""
        a0 = self.coeffs[0]
        if not a0:
            raise NonInvertibleSeriesError(
                "series has no multiplicative inverse: zero constant term"
            )
        n = self.order + 1
        if isinstance(a0, Fraction):
            bn, bd = recip_frac(*_pairs(self.coeffs), n)
            return TruncatedSeries(_fast_fraction(p, q) for p, q in zip(bn, bd))
        inv0 = self._one / a0
        out = [inv0]
        a = self.coeffs
        for m in range(1, n):
            acc = a[1] * out[m - 1]
            for i in range(2, m + 1):
                acc = acc + a[i] * out[m - i]
            out.append(-inv0 * acc)
        return TruncatedSeries(out)

    def __pow__(self, exponent: int) -> "TruncatedSeries":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series powers take nonnegative integer exponents")
        one = TruncatedSeries([self._one] + [self._zero] * self.order)
        return power(self, exponent, one)

    def times_t_power(self, k: int) -> "TruncatedSeries":
        """Multiply by t^k, discarding coefficients pushed past the order."""
        if k < 0:
            raise ValueError("t-power shifts take nonnegative exponents")
        if k == 0:
            return self
        zero = self._zero
        kept = self.coeffs[: max(self.order + 1 - k, 0)]
        return TruncatedSeries([zero] * min(k, self.order + 1) + list(kept))

    def scale(self, factor) -> "TruncatedSeries":
        return TruncatedSeries(c * factor for c in self.coeffs)


def exp_scaled_series(c: FieldElement, order: int) -> TruncatedSeries:
    """The series with coefficients c^m / m! for m = 0..order."""
    coeffs = [c ** 0]
    for m in range(1, order + 1):
        coeffs.append(coeffs[-1] * c / m)
    return TruncatedSeries(coeffs)
