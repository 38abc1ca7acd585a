"""The twisted difference operator, the derivative, and their powers.

The twisted forward difference maps f(x) to L*f(x+1) - f(x); at L = 1 it
is the ordinary forward difference.  Its k-th power at zero has a closed
form as an alternating binomial sum; the catalog carries two sign
conventions for that sum, and literal k-fold application is kept as the
ground truth they are both judged against.
"""

from __future__ import annotations

import enum
from math import comb
from typing import Callable, Union

from ._keys import _add_into, _canonical, _lifted
from .field import FieldElement, LambdaMode, MixedModeError, RationalLike, _new
from .polynomials import XPolynomial, dot, shift_poly

__all__ = [
    "DifferencePowerMethod",
    "shift_poly",
    "lambda_op",
    "d_op",
    "lambda_power_at_zero",
    "corrected_power_at_zero",
    "alternating_lambda_sum",
]


class DifferencePowerMethod(enum.Enum):
    """How to evaluate the k-th twisted-difference power at zero."""

    ITERATED = "iterated"
    CLOSED_FORM = "closed-form"


def lambda_op(p: XPolynomial) -> XPolynomial:
    """The twisted difference L*p(x+1) - p(x) as one sum, reduced once."""
    return dot(p.mode, (p.mode.lam, -1), (shift_poly(p, 1), p))


def d_op(p: XPolynomial, s: int = 1) -> XPolynomial:
    """The s-th derivative; the zero polynomial once s exceeds the degree."""
    if s < 0:
        raise ValueError("derivative order must be nonnegative")
    for _ in range(s):
        if p.is_zero:
            break
        p = p.derivative()
    return p


def lambda_power_at_zero(
    p: XPolynomial,
    k: int,
    method: DifferencePowerMethod = DifferencePowerMethod.ITERATED,
) -> FieldElement:
    """Value of the k-th twisted-difference power of p at x = 0.

    ITERATED applies the operator k times and evaluates; CLOSED_FORM
    evaluates sum_{l=0}^{k} (-1)^l C(k, l) L^l p(l) as written, which
    matches the iterated value only up to a global sign (-1)^k.
    """
    if k < 0:
        raise ValueError("operator powers take nonnegative exponents")
    if method is DifferencePowerMethod.ITERATED:
        for _ in range(k):
            p = lambda_op(p)
        return p.evaluate(0)
    return alternating_lambda_sum(p.mode, k, p.evaluate)


def alternating_lambda_sum(
    mode: LambdaMode, k: int, weight: Callable[[int], Union[RationalLike, FieldElement]]
) -> FieldElement:
    """sum_{a=0}^{k} (-1)^a C(k, a) L^a weight(a) as a scalar of ``mode``.

    The weights, each a scalar of the symbolic mode, times (-1)^a C(k, a)
    are lifted to one denominator d (L-1)^p (L+1)^q; row a, shifted by a
    powers of L, is added into one integer row, which is put in canonical
    form once and specialized to the mode.  A numeric mode refuses a
    weight that depends on L.
    """
    rows, d, p, q = _lifted(True, [weight(a) for a in range(k + 1)],
                            [(-1) ** a * comb(k, a) for a in range(k + 1)])
    if not mode.is_symbolic and (p or q or any(len(r) > 1 for r in rows)):
        raise MixedModeError(f"a weight depends on L in numeric mode {mode.label()}")
    acc = []
    for a, row in enumerate(rows):
        acc = _add_into([0] * a + row, acc)
    return mode.specialize(_new(_canonical(acc, d, p, q)))


def corrected_power_at_zero(p: XPolynomial, k: int) -> FieldElement:
    """The sign-repaired closed form sum (-1)^(k-l) C(k, l) L^l p(l)."""
    value = lambda_power_at_zero(p, k, DifferencePowerMethod.CLOSED_FORM)
    return -value if k % 2 else value
