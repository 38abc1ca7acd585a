"""The canonical integer keys that every exact value of the package keeps.

The kernels t^k/(L e^t - 1)^k and 2^k/(L e^t + 1)^k give every symbolic
value a denominator d (L-1)^a (L+1)^b, so the scalar ring is Z[L]
localized at the integers and at L-1 and L+1; a value that needs any
other denominator factor has no key (``field`` raises
``NonLocalDenominatorError``).  Keys are unique, so equality compares keys.

* Scalar key ``(N, d, a, b)`` for N(L) / (d (L-1)^a (L+1)^b), the key of a
  ``LambdaRatFunc`` and of each x-polynomial coefficient: ``N`` a tuple of
  ints (ascending, no trailing zeros), d > 0 coprime to the content of
  ``N``, a, b >= 0, N(1) != 0 when a > 0 and N(-1) != 0 when b > 0.  A
  rational c/d is ``((c,), d, 0, 0)``; zero is ``_ZERO_KEY``.
* Numeric x-polynomial key ``(N, d)`` for sum N[i] x^i / d, under the same
  rules with no poles; zero is ``_NUM_ZERO_KEY``.
* Symbolic x-polynomial key ``(R, d, a, b)`` for sum R[i](L) x^i /
  (d (L-1)^a (L+1)^b): each row ``R[i]`` is an ``N`` as above (``()`` for
  a zero coefficient), there is no trailing zero row, not every row
  vanishes at L = 1 when a > 0 (nor at L = -1 when b > 0), and d is
  coprime to the content of all rows; zero is ``_ZERO_KEY``.

An unreduced key has the same shape with fresh lists for tuples, trailing
zeros and any d > 0, a, b >= 0.  ``_lift``, ``_lifted``, ``_scaled`` and
``_times`` build them (the last two give None for zero), and
``_specialized`` the numeric one of a symbolic key's value at a rational
L; ``_canonical`` (one row), ``_sym_reduced`` (all rows) and ``_reduced``
(numeric) make them canonical, and ``_sum`` adds them and reduces once.
Those three reductions and ``_add_into`` (its first argument) may change
the fresh lists they take; no other routine changes its arguments, and
nobody may change the cached lists of ``_pole_poly`` and ``_evaluation``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Optional, Sequence, Union

from ._kernels import conv_int

_ZERO_KEY = ((), 1, 0, 0)
_NUM_ZERO_KEY = ((), 1)


@lru_cache(maxsize=None)
def _pole_poly(a: int, b: int) -> list:
    """Integer coefficients of (L-1)^a (L+1)^b; callers must not mutate."""
    if a:
        return conv_int(_pole_poly(a - 1, b), [-1, 1])
    if b:
        return conv_int(_pole_poly(0, b - 1), [1, 1])
    return [1]


def _divided(rows: list, root: int) -> Optional[list]:
    """The integer rows divided by (L - root), root = +-1, when every row
    vanishes at root, else None.  Synthetic division in one pass per row:
    the suffix sums of a row (alternating for root = -1) are its
    quotient, and the last of them, the row's value at root, is the
    remainder."""
    step = None if root == 1 else (lambda acc, c: c - acc)
    out = []
    for r in rows:
        sums = list(accumulate(reversed(r), step))
        if sums and sums[-1]:
            return None
        out.append(sums[-2::-1])
    return out


def _horner(n, u: int, v: int) -> tuple:
    """(S, v^t) with S = sum n_i u^i v^(t-i) and t = len(n) - 1, so the
    integer polynomial n takes the value S / v^t at u/v; n is nonempty."""
    acc, v_power = n[-1], 1
    for c in n[-2::-1]:
        v_power *= v
        acc = acc * u + c * v_power
    return acc, v_power


def _sym_reduced(rows: list, d: int, a: int, b: int) -> tuple:
    """Canonical symbolic x-polynomial key of the unreduced (rows, d, a, b).
    Divides L-1 and L+1 out of all rows at once while every row vanishes
    there, then the content out against ``d``."""
    for r in rows:
        while r and not r[-1]:
            r.pop()
    while rows and not rows[-1]:
        rows.pop()
    if not rows:
        return _ZERO_KEY
    while a and (divided := _divided(rows, 1)) is not None:
        rows, a = divided, a - 1
    while b and (divided := _divided(rows, -1)) is not None:
        rows, b = divided, b - 1
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


def _canonical(n: list, d: int, a: int, b: int) -> tuple:
    """Canonical scalar key of the unreduced row (n, d, a, b).  Divides
    L-1, then L+1, out of the descending row by its prefix sums (see
    :func:`_divided`) until a remainder is nonzero, then one gcd."""
    while n and not n[-1]:
        n.pop()
    if not n:
        return _ZERO_KEY
    n.reverse()
    while a:
        sums = list(accumulate(n))
        if sums.pop():
            break
        n, a = sums, a - 1
    while b:
        sums = list(accumulate(n, lambda acc, c: c - acc))
        if sums.pop():
            break
        n, b = sums, b - 1
    n.reverse()
    g = gcd(d, *n)
    if g != 1:
        n = [c // g for c in n]
        d //= g
    return tuple(n), d, a, b


@lru_cache(maxsize=256)
def _evaluation(u: int, v: int, top: int, a: int, b: int) -> tuple:
    """(|D|, P) with D = v^top (u-v)^a (u+v)^b and P_j = u^j v^(top-j+a+b)
    signed by D: a row of degree <= top over (L-1)^a (L+1)^b at L = u/v is
    its dot with P over |D|.  Callers must not mutate P."""
    den = v ** top * (u - v) ** a * (u + v) ** b
    scale = v ** (a + b) if den >= 0 else -v ** (a + b)
    return abs(den), [scale * u ** j * v ** (top - j) for j in range(top + 1)]


def _specialized(key: tuple, u: int, v: int) -> tuple:
    """Unreduced numeric x-polynomial key (N, D) of the symbolic key
    (R, d, a, b) at L = u/v, v > 0, and D = 0 at a pole: each row is one
    dot with the powers of :func:`_evaluation`."""
    rows, d, a, b = key
    den, powers = _evaluation(u, v, max([len(r) for r in rows], default=1) - 1, a, b)
    return [sum(map(mul, r, powers)) for r in rows], d * den


def _reduced(n: list, d: int) -> tuple:
    """Canonical numeric x-polynomial key of the unreduced (n, d)."""
    while n and not n[-1]:
        n.pop()
    if not n:
        return _NUM_ZERO_KEY
    g = gcd(d, *n)
    if g != 1:
        n = [c // g for c in n]
        d //= g
    return tuple(n), d


def _lift(n: tuple, scale: int, a: int, b: int) -> list:
    """n * scale * (L-1)^a (L+1)^b as a fresh integer list."""
    out = list(n) if scale == 1 else [c * scale for c in n]
    if a or b:
        out = conv_int(out, _pole_poly(a, b))
    return out


def _add_into(p: list, q) -> list:
    """p + q for integer lists; ``p`` is fresh and may come back changed."""
    if len(p) < len(q):
        p, q = list(q), p
    for i, c in enumerate(q):
        p[i] += c
    return p


def _scalar_key(value) -> tuple:
    """Key (N, d, a, b) of a scalar of symbolic mode: an int, a Fraction
    or a LambdaRatFunc, else MixedModeError.  With :func:`_checked_rational`
    this is the package's one rule for what a scalar of a mode is."""
    if isinstance(value, field.LambdaRatFunc):
        return value._key
    if isinstance(value, (int, Fraction)):
        return ((value.numerator,), value.denominator, 0, 0) if value else _ZERO_KEY
    raise field.MixedModeError(
        f"the symbolic mode takes int, Fraction or LambdaRatFunc scalars, not {type(value).__name__}")


def _checked_rational(value) -> Union[int, Fraction]:
    """A scalar of a numeric mode: an int or a Fraction, else MixedModeError."""
    if isinstance(value, (int, Fraction)):
        return value
    raise field.MixedModeError(
        f"a numeric mode takes int or Fraction scalars, not {type(value).__name__}")


def _lifted(symbolic: bool, scalars: Sequence, scales: Optional[Sequence[int]] = None) -> tuple:
    """The scalars of a mode times integer ``scales`` (1 when None) over one
    denominator: the unreduced x-polynomial key with scalar i at x^i.  In
    symbolic mode d is the lcm of the scalars' d and a, b their largest
    pole orders; in numeric mode d is the lcm of their denominators."""
    if scales is None:
        scales = repeat(1)
    if symbolic:
        keys = [_scalar_key(s) for s in scalars]
        d = lcm(*[k[1] for k in keys])
        a = max([k[2] for k in keys], default=0)
        b = max([k[3] for k in keys], default=0)
        rows = [_lift(n, c * (d // e), a - ai, b - bi)
                for c, (n, e, ai, bi) in zip(scales, keys)]
        return rows, d, a, b
    scalars = [_checked_rational(s) for s in scalars]
    d = lcm(*[s.denominator for s in scalars])
    return [c * s.numerator * (d // s.denominator) for c, s in zip(scales, scalars)], d


def _scaled(symbolic: bool, key: tuple, factor) -> Optional[tuple]:
    """Unreduced key of a scalar of the mode times a key, None when zero."""
    if symbolic:
        n, e, a2, b2 = _scalar_key(factor)
        if not n or not key[0]:
            return None
        rows, d, a, b = key
        if len(n) == 1:
            out = [[x * n[0] for x in r] for r in rows]
        else:
            out = [conv_int(r, n) for r in rows]
        return out, d * e, a + a2, b + b2
    factor = _checked_rational(factor)
    if not factor or not key[0]:
        return None
    p = factor.numerator
    return [c * p for c in key[0]], key[1] * factor.denominator


def _times(symbolic: bool, k1: tuple, k2: tuple) -> Optional[tuple]:
    """Unreduced key of the product of two keys, None when zero."""
    if not k1[0] or not k2[0]:
        return None
    if not symbolic:
        return conv_int(k1[0], k2[0]), k1[1] * k2[1]
    r1, d1, a1, b1 = k1
    r2, d2, a2, b2 = k2
    out = [[] for _ in range(len(r1) + len(r2) - 1)]
    for i, r in enumerate(r1):
        if r:
            for j, s in enumerate(r2):
                if s:
                    out[i + j] = _add_into(conv_int(r, s), out[i + j])
    return out, d1 * d2, a1 + a2, b1 + b2


def _sum(symbolic: bool, terms) -> tuple:
    """Canonical key of the sum of (unreduced) keys: each is lifted to the
    lcm of the denominators and, in symbolic mode, the largest pole
    orders, added in one integer accumulator and reduced once.  From three
    terms on, the larger pole is lifted in Horner order: the terms go in by
    their order there, and the accumulator takes each step up once."""
    d = lcm(*[t[1] for t in terms])
    if symbolic:
        a = max([t[2] for t in terms], default=0)
        b = max([t[3] for t in terms], default=0)
        at_one = a >= b
        if horner := len(terms) > 2:
            terms = sorted(terms, key=itemgetter(2 if at_one else 3))
        acc, order = [], 0 if horner else max(a, b)
        for rows, e, ta, tb in terms:
            if (p := ta if at_one else tb) > order:
                lift = _pole_poly(p - order, 0) if at_one else _pole_poly(0, p - order)
                acc, order = [conv_int(r, lift) for r in acc], p
            la, lb = (order - ta, b - tb) if at_one else (a - ta, order - tb)
            for i, r in enumerate(rows):
                r = _lift(r, d // e, la, lb)
                if i < len(acc):
                    acc[i] = _add_into(r, acc[i])
                else:
                    acc.append(r)
        return _sym_reduced(acc, d, a, b)
    acc = [0] * max([len(t[0]) for t in terms], default=0)
    for n, e in terms:
        scale = d // e
        for i, c in enumerate(n):
            acc[i] += c * scale
    return _reduced(acc, d)


# Read at call time for the scalar classes.  Imported last, so that either
# module may be imported first: field imports the routines above.
from . import field  # noqa: E402
