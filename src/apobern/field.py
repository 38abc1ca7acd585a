"""Exact scalar arithmetic: rationals and the symbolic ring in L.

Two scalar domains are used throughout the package, selected by
:class:`LambdaMode`:

* plain arbitrary-precision rationals (``fractions.Fraction``), used when
  the deformation parameter is a fixed rational number;
* :class:`LambdaRatFunc`, a function of the deformation parameter ``L``,
  used in symbolic mode.

The families come from the kernels t^k/(L e^t - 1)^k and
2^k/(L e^t + 1)^k, so every symbolic value has a denominator of the form
d (L-1)^a (L+1)^b.  :class:`LambdaRatFunc` is therefore the ring Z[L]
localized at the integers and at L-1 and L+1: it stores an integer
numerator list next to d, a and b, and normalizes by synthetic division
at L = +-1 and by integer content, with no polynomial gcd.  Inverting an
element whose numerator has any other non-constant factor raises
:class:`NonLocalDenominatorError`.

Both domains are immutable, exact, and have a unique canonical form, so
equality is a plain field-by-field comparison.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, NamedTuple, Optional, Union

from ._kernels import conv_frac, conv_int, power, prim_gcd_int

__all__ = [
    "Fraction",
    "PoleError",
    "MixedModeError",
    "NonLocalDenominatorError",
    "rational",
    "parse_rational",
    "render_rational",
    "LambdaRatFunc",
    "FieldElement",
    "LambdaMode",
    "evaluate_at",
]

RationalLike = Union[int, Fraction]


class PoleError(ZeroDivisionError):
    """Evaluation of a rational function at a root of its denominator."""


class MixedModeError(TypeError):
    """Operands from different scalar domains mixed in one computation."""


def rational(numerator: int, denominator: int = 1) -> Fraction:
    """Canonical rational p/q: reduced, denominator positive, zero is 0/1."""
    return Fraction(numerator, denominator)


def parse_rational(text: str) -> Fraction:
    """Parse "p" or "p/q" into an exact rational."""
    return Fraction(text.strip())


def render_rational(value: RationalLike) -> str:
    """Render as "p/q", omitting "/q" when the denominator is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _fast_fraction(numerator: int, denominator: int) -> Fraction:
    # Bypasses Fraction's normalization; only for pairs the kernels
    # already returned in lowest terms with positive denominator.
    f = Fraction.__new__(Fraction)
    f._numerator = numerator
    f._denominator = denominator
    return f


class LambdaPoly:
    """Dense polynomial in the deformation parameter over Q: ascending
    ``coeffs``, no trailing zeros.

    No package code uses this class or :func:`poly_gcd`.  They remain
    only because the benchmark tracer in ``perfbench/tracing.py`` patches
    ``LambdaPoly.__mul__``, ``poly_gcd`` and ``_kernels.prim_gcd_int`` by
    name; they go once it stops tracing them.  Symbolic values are
    :class:`LambdaRatFunc`.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    def __mul__(self, other):
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return LambdaPoly()
        cn, cd = conv_frac(
            [c.numerator for c in a],
            [c.denominator for c in a],
            [c.numerator for c in b],
            [c.denominator for c in b],
            len(a) + len(b) - 1,
        )
        return LambdaPoly([_fast_fraction(n, d) for n, d in zip(cn, cd)])

    def int_primitive(self) -> list:
        """Integer coefficient list proportional to this polynomial."""
        if not self.coeffs:
            return []
        common = lcm(*(c.denominator for c in self.coeffs))
        return [c.numerator * (common // c.denominator) for c in self.coeffs]


def poly_gcd(a: LambdaPoly, b: LambdaPoly) -> LambdaPoly:
    """Gcd in Q[L], returned with integer primitive coefficients and a
    positive leading coefficient (constants are units, so any nonzero
    constant gcd comes back as 1)."""
    return LambdaPoly(prim_gcd_int(a.int_primitive(), b.int_primitive()))


@lru_cache(maxsize=None)
def _pole_poly(a: int, b: int) -> list:
    """Integer coefficients of (L-1)^a (L+1)^b; callers must not mutate."""
    if a:
        return conv_int(_pole_poly(a - 1, b), [-1, 1])
    if b:
        return conv_int(_pole_poly(0, b - 1), [1, 1])
    return [1]


def _alt_sum(n) -> int:
    """Value of an integer polynomial at L = -1."""
    return sum(n[0::2]) - sum(n[1::2])


def _div_root(n, root: int) -> list:
    """Quotient of the integer polynomial n by (L - root), root = +-1,
    by synthetic division; exact when n vanishes at root."""
    q = [0] * (len(n) - 1)
    acc = 0
    for i in range(len(n) - 1, 0, -1):
        acc = n[i] + root * acc
        q[i - 1] = acc
    return q


def _strip_root(n: list, root: int, limit: int) -> tuple:
    """Divide (L - root) out of the nonzero n, root = +-1, at most limit
    times; returns the quotient and the count."""
    value_at = sum if root == 1 else _alt_sum
    count = 0
    while count < limit and not value_at(n):
        n = _div_root(n, root)
        count += 1
    return n, count


def _horner(n, u: int, v: int) -> tuple:
    """(S, v^t) with S = sum n_i u^i v^(t-i) and t = len(n) - 1, so the
    integer polynomial n takes the value S / v^t at u/v; n is nonempty."""
    acc, v_power = n[-1], 1
    for c in n[-2::-1]:
        v_power *= v
        acc = acc * u + c * v_power
    return acc, v_power


def _canonical(n: list, d: int, a: int, b: int) -> "LambdaRatFunc":
    """The element n / (d (L-1)^a (L+1)^b) in canonical form.

    ``n`` is a fresh integer list (trailing zeros allowed) and ``d > 0``.
    Cancels L-1 and L+1 against the numerator by synthetic division and
    the integer content against ``d``.
    """
    while n and not n[-1]:
        n.pop()
    if not n:
        return _RATFUNC_ZERO
    if a:
        n, k = _strip_root(n, 1, a)
        a -= k
    if b:
        n, k = _strip_root(n, -1, b)
        b -= k
    if d != 1:
        g = d
        for c in n:
            g = gcd(g, c)
            if g == 1:
                break
        if g != 1:
            n = [c // g for c in n]
            d //= g
    return _new((tuple(n), d, a, b))


def _lift(n: tuple, scale: int, a: int, b: int) -> list:
    """n * scale * (L-1)^a (L+1)^b as a fresh integer list."""
    out = list(n) if scale == 1 else [c * scale for c in n]
    if a or b:
        out = conv_int(out, _pole_poly(a, b))
    return out


class NonLocalDenominatorError(ArithmeticError):
    """A symbolic value would need a denominator factor other than L-1
    and L+1, which the scalar ring cannot represent."""


class LambdaRatFunc:
    """Element of Z[L] localized at d (L-1)^a (L+1)^b.

    Stored as the tuple ``(N, d, a, b)`` for the value
    N / (d (L-1)^a (L+1)^b): ``N`` is a tuple of ints (ascending powers,
    no trailing zeros), ``d > 0``, the content of ``N`` is coprime to
    ``d``, N(1) != 0 when a > 0 and N(-1) != 0 when b > 0.  Zero is
    ``((), 1, 0, 0)``.  This form is unique, so equality compares keys.

    There is no public constructor: values come from
    ``LambdaMode.symbolic().lam``, :meth:`from_rational` and ring
    arithmetic, which includes ``/`` by units and negative powers.
    """

    __slots__ = ("_key",)

    def __new__(cls, *args, **kwargs):
        raise TypeError("build symbolic values from LambdaMode.symbolic().lam, "
                        "LambdaRatFunc.from_rational and arithmetic")

    @classmethod
    def from_rational(cls, value: RationalLike) -> "LambdaRatFunc":
        value = Fraction(value)
        if not value:
            return _RATFUNC_ZERO
        return _new(((value.numerator,), value.denominator, 0, 0))

    def __setattr__(self, name, value):
        raise AttributeError("LambdaRatFunc is immutable")

    # -- structure --------------------------------------------------------

    @property
    def pole_orders(self) -> tuple:
        """Pole orders (a, b) at L = 1 and L = -1."""
        return self._key[2], self._key[3]

    @property
    def is_zero(self) -> bool:
        return not self._key[0]

    @property
    def is_rational(self) -> bool:
        n, _, a, b = self._key
        return len(n) <= 1 and not a and not b

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"not a constant rational function: {self!r}")
        n, d = self._key[0], self._key[1]
        return _fast_fraction(n[0], d) if n else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self._key[0])

    def __eq__(self, other) -> bool:
        if isinstance(other, LambdaRatFunc):
            return self._key == other._key
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.as_rational() == other
        return NotImplemented

    def __hash__(self):
        return hash(("LambdaRatFunc", self._key))

    def __repr__(self):
        from .render import render_ratfunc

        return render_ratfunc(self, "L")

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LambdaRatFunc):
            return other
        if isinstance(other, int):
            return LambdaRatFunc.from_rational(other)
        # Fractions embed through LambdaMode.scalar / from_rational; an
        # implicit crossing here usually means a mode bug, so refuse it.
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n1, d1, a1, b1 = self._key
        n2, d2, a2, b2 = rhs._key
        if not n1:
            return rhs
        if not n2:
            return self
        a = a1 if a1 > a2 else a2
        b = b1 if b1 > b2 else b2
        d = d1 if d1 == d2 else lcm(d1, d2)
        p = _lift(n1, d // d1, a - a1, b - b1)
        q = _lift(n2, d // d2, a - a2, b - b2)
        if len(p) < len(q):
            p, q = q, p
        for i, c in enumerate(q):
            p[i] += c
        return _canonical(p, d, a, b)

    __radd__ = __add__

    def __neg__(self):
        n, d, a, b = self._key
        return _new((tuple([-c for c in n]), d, a, b))

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        n1, d1, a1, b1 = self._key
        n2, d2, a2, b2 = rhs._key
        if not n1 or not n2:
            return _RATFUNC_ZERO
        return _canonical(conv_int(list(n1), list(n2)), d1 * d2, a1 + a2, b1 + b2)

    __rmul__ = __mul__

    def inverse(self) -> "LambdaRatFunc":
        """Reciprocal; the numerator must be c (L-1)^p (L+1)^q."""
        n, d, a, b = self._key
        if not n:
            raise ZeroDivisionError("inverse of the zero rational function")
        rest, p = _strip_root(list(n), 1, len(n))
        rest, q = _strip_root(rest, -1, len(rest))
        if len(rest) > 1:
            raise NonLocalDenominatorError(
                f"1/({self!r}) has a denominator factor other than L-1 and L+1"
            )
        c = rest[0]
        top = _pole_poly(max(a - p, 0), max(b - q, 0))
        scale = d if c > 0 else -d
        return _new((tuple([scale * t for t in top]), abs(c), max(p - a, 0), max(q - b, 0)))

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise TypeError("rational-function powers take integer exponents")
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return power(self, exponent, _RATFUNC_ONE)

    def evaluate_at(self, point: RationalLike) -> Fraction:
        """Exact substitution; raises PoleError at L = 1 or L = -1 when
        the value has a pole there."""
        point = Fraction(point)
        n, d, a, b = self._key
        if (a and point == 1) or (b and point == -1):
            raise PoleError(f"pole at {render_rational(point)}")
        if not n:
            return Fraction(0)
        # With L = u/v: S / v^t over d ((u-v)/v)^a ((u+v)/v)^b.
        u, v = point.numerator, point.denominator
        s, v_power = _horner(n, u, v)
        return Fraction(s * v ** (a + b), d * v_power * (u - v) ** a * (u + v) ** b)


_set_key = LambdaRatFunc._key.__set__


def _new(key: tuple) -> LambdaRatFunc:
    # Trusted constructor: the key is already canonical.
    obj = object.__new__(LambdaRatFunc)
    _set_key(obj, key)
    return obj


_RATFUNC_ZERO = _new(((), 1, 0, 0))
_RATFUNC_ONE = _new(((1,), 1, 0, 0))
_RATFUNC_LAMBDA = _new(((0, 1), 1, 0, 0))


FieldElement = Union[Fraction, LambdaRatFunc]


class LambdaMode(NamedTuple):
    """Scalar-domain selector: symbolic deformation parameter or a fixed
    rational value.  ``value`` is None in symbolic mode."""

    value: Optional[Fraction]

    @classmethod
    def symbolic(cls) -> "LambdaMode":
        return cls(None)

    @classmethod
    def numeric(cls, value: RationalLike) -> "LambdaMode":
        return cls(Fraction(value))

    @classmethod
    def parse(cls, text: str) -> "LambdaMode":
        text = text.strip()
        if text.lower() == "symbolic":
            return cls.symbolic()
        return cls.numeric(parse_rational(text))

    @property
    def is_symbolic(self) -> bool:
        return self.value is None

    @property
    def is_one(self) -> bool:
        return self.value == 1

    @property
    def zero(self) -> FieldElement:
        return _RATFUNC_ZERO if self.is_symbolic else Fraction(0)

    @property
    def one(self) -> FieldElement:
        return _RATFUNC_ONE if self.is_symbolic else Fraction(1)

    @property
    def lam(self) -> FieldElement:
        """The deformation parameter itself as a scalar of this mode."""
        return _RATFUNC_LAMBDA if self.is_symbolic else self.value

    def scalar(self, value: RationalLike) -> FieldElement:
        """Embed a plain rational into this mode's scalar domain."""
        if self.is_symbolic:
            if isinstance(value, LambdaRatFunc):
                return value
            return LambdaRatFunc.from_rational(value)
        if isinstance(value, Fraction):
            return value
        if isinstance(value, LambdaRatFunc):
            raise MixedModeError("symbolic scalar used in numeric mode")
        return Fraction(value)

    def specialize(self, value: LambdaRatFunc) -> FieldElement:
        """A symbolic value as a scalar of this mode: itself, or its value
        at this mode's L."""
        return value if self.is_symbolic else value.evaluate_at(self.value)

    def matches(self, value: FieldElement) -> bool:
        if self.is_symbolic:
            return isinstance(value, LambdaRatFunc)
        return isinstance(value, Fraction)

    def label(self) -> str:
        return "symbolic" if self.is_symbolic else render_rational(self.value)

    def __str__(self) -> str:
        return self.label()


def evaluate_at(f: LambdaRatFunc, point: RationalLike) -> Fraction:
    """Substitute a rational value for the deformation parameter."""
    return f.evaluate_at(point)
