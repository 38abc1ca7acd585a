"""The twisted difference operator, the derivative, and their powers.

The twisted forward difference maps f(x) to L*f(x+1) - f(x); at L = 1 it
is the ordinary forward difference.  Its k-th power at zero has a closed
form as an alternating binomial sum; the catalog carries two sign
conventions for that sum, and literal k-fold application is kept as the
ground truth they are both judged against.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import comb, lcm
from typing import Callable, List, Sequence, Tuple, Union

from ._keys import _canonical
from .field import FieldElement, LambdaMode, LambdaRatFunc, RationalLike, _new
from .polynomials import XPolynomial, dot, shift_poly

__all__ = [
    "DifferencePowerMethod",
    "shift_poly",
    "lambda_op",
    "d_op",
    "lambda_power_at_zero",
    "corrected_power_at_zero",
    "alternating_lambda_sum",
    "alternating_row",
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

    When every weight is rational (a plain rational, or a symbolic scalar
    free of L), the sum is one integer polynomial in L over the lcm of the
    weights' denominators, put in canonical form once; a numeric mode
    takes its value at L through ``LambdaRatFunc.evaluate_at``.  Weights
    that depend on L go through Horner's rule in -L.
    """
    weights = [weight(a) for a in range(k + 1)]
    weights = [w.as_rational() if isinstance(w, LambdaRatFunc) and w.is_rational else w
               for w in weights]
    if all(isinstance(w, (int, Fraction)) for w in weights):
        n, d = alternating_row(weights)
        return mode.specialize(_new(_canonical(n, d, 0, 0)))
    neg_lam = -mode.lam
    acc = mode.zero
    for a in range(k, -1, -1):
        acc = acc * neg_lam + mode.scalar(comb(k, a) * weights[a])
    return acc


def alternating_row(weights: Sequence[RationalLike]) -> Tuple[List[int], int]:
    """The terms of the alternating lambda-sum of rational weights, free of
    L: integers n[a] over one denominator d, the lcm of the weights'
    denominators, with n[a] / d = (-1)^a C(k, a) weights[a] and
    k = len(weights) - 1, so the sum is sum_a n[a] L^a / d."""
    k = len(weights) - 1
    d = lcm(*[w.denominator for w in weights])
    return [(-1) ** a * comb(k, a) * w.numerator * (d // w.denominator)
            for a, w in enumerate(weights)], d


def corrected_power_at_zero(p: XPolynomial, k: int) -> FieldElement:
    """The sign-repaired closed form sum (-1)^(k-l) C(k, l) L^l p(l)."""
    value = lambda_power_at_zero(p, k, DifferencePowerMethod.CLOSED_FORM)
    return -value if k % 2 else value
