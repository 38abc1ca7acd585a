"""Exact scalar arithmetic: rationals and the symbolic ring in L.

Two scalar domains are used throughout the package, selected by
:class:`LambdaMode`:

* plain arbitrary-precision rationals (``fractions.Fraction``), used when
  the deformation parameter is a fixed rational number;
* :class:`LambdaRatFunc`, a function of the deformation parameter ``L``,
  used in symbolic mode: the ring Z[L] localized at the integers and at
  L-1 and L+1, one canonical integer key per element (the scalar key of
  ``_keys``, which states the invariant and keeps it).

Both domains are immutable, exact, and have a unique canonical form, so
equality is a plain field-by-field comparison.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Optional, Union

from ._kernels import conv_frac, conv_int, power, prim_gcd_int
from ._keys import (_ZERO_KEY, _add_into, _canonical, _checked_rational, _horner, _lifted,
                    _pole_poly, _scalar_key)

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


# The most digits parse_rational lets a numerator or denominator have: the
# interpreter's default int-to-str limit, which Fraction skips for exponent
# forms (Fraction("1e16000000") builds the integer first).
_DIGIT_LIMIT = 4300


def parse_rational(text: str) -> Fraction:
    """Parse "p", "p/q" or a decimal such as "-1.5e3" into an exact
    rational.  A part whose digits plus its exponent exceed _DIGIT_LIMIT
    raises ValueError, judged from the text before any integer is built."""
    for part in text.split("/"):
        mantissa, _, exponent = part.lower().partition("e")
        exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        size = sum(map(str.isdecimal, mantissa))
        if exponent.isdecimal():
            size += int(exponent) if len(exponent) <= 4 else _DIGIT_LIMIT + 1
        if size > _DIGIT_LIMIT:
            raise ValueError(f"more than {_DIGIT_LIMIT} digits")
    return Fraction(text.strip())


def render_rational(value: RationalLike) -> str:
    """Render as "p/q", omitting "/q" when the denominator is 1."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    p, q = value.numerator, value.denominator
    return str(p) if q == 1 else f"{p}/{q}"


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


class NonLocalDenominatorError(ArithmeticError):
    """A symbolic value would need a denominator factor other than L-1
    and L+1, which the scalar ring cannot represent."""


class LambdaRatFunc:
    """Element of Z[L] localized at d (L-1)^a (L+1)^b, stored as its
    canonical scalar key ``(N, d, a, b)`` (see ``_keys``).

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
        return _new(_scalar_key(_checked_rational(value)))

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
        # equal to a rational, so hashed like it
        if self.is_rational:
            return hash(self.as_rational())
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
        (p, q), d, a, b = _lifted(True, (self, rhs))
        return _new(_canonical(_add_into(p, q), d, a, b))

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
        return _new(_canonical(conv_int(list(n1), list(n2)), d1 * d2, a1 + a2, b1 + b2))

    __rmul__ = __mul__

    def inverse(self) -> "LambdaRatFunc":
        """Reciprocal; the numerator must be c (L-1)^p (L+1)^q."""
        n, d, a, b = self._key
        if not n:
            raise ZeroDivisionError("inverse of the zero rational function")
        # with poles of order len(n) to spend, the reduction divides out
        # every factor L-1 and L+1 of n: p and q count them
        rest, _, a_left, b_left = _canonical(list(n), 1, len(n), len(n))
        p, q = len(n) - a_left, len(n) - b_left
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
        point = Fraction(_checked_rational(point))
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


_RATFUNC_ZERO = _new(_ZERO_KEY)
_RATFUNC_ONE = _new(((1,), 1, 0, 0))
_RATFUNC_LAMBDA = _new(((0, 1), 1, 0, 0))


FieldElement = Union[Fraction, LambdaRatFunc]


class _ModeFields(NamedTuple):
    value: Optional[Fraction]


class LambdaMode(_ModeFields):
    """Scalar-domain selector: symbolic deformation parameter or a fixed
    rational value.  ``value`` is None in symbolic mode.

    There is one instance per value, so modes compare and hash by
    identity, and memos keyed on them do no rational arithmetic."""

    __slots__ = ()
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __new__(cls, value: Optional[RationalLike]):
        # the type is checked first: -0.5 would find the mode of -1/2
        mode = _MODES.get(value if value is None else _checked_rational(value))
        if mode is None:
            value = None if value is None else Fraction(value)
            mode = _MODES.setdefault(value, super().__new__(cls, value))
        return mode

    @classmethod
    def _make(cls, iterable) -> "LambdaMode":
        return cls(*iterable)

    @classmethod
    def symbolic(cls) -> "LambdaMode":
        return cls(None)

    @classmethod
    def numeric(cls, value: RationalLike) -> "LambdaMode":
        return cls(_checked_rational(value))

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

    def scalar(self, value: Union[RationalLike, LambdaRatFunc]) -> FieldElement:
        """A scalar of this mode (see ``_keys._scalar_key``) in its domain."""
        if self.is_symbolic:
            return _new(_scalar_key(value))
        return Fraction(_checked_rational(value))

    def specialize(self, value: LambdaRatFunc) -> FieldElement:
        """A symbolic value as a scalar of this mode: itself, or its value
        at this mode's L."""
        return value if self.is_symbolic else value.evaluate_at(self.value)

    def label(self) -> str:
        return "symbolic" if self.is_symbolic else render_rational(self.value)

    def __str__(self) -> str:
        return self.label()


# The one LambdaMode of each value (None for the symbolic mode).
_MODES: dict = {}


def evaluate_at(f: LambdaRatFunc, point: RationalLike) -> Fraction:
    """Substitute a rational value for the deformation parameter."""
    return f.evaluate_at(point)
