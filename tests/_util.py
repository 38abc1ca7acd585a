"""Shared helpers for the test suite."""

from fractions import Fraction
from random import Random

from hypothesis import strategies as st

from apobern import LambdaMode, LambdaRatFunc, XPolynomial

SYM = LambdaMode.symbolic()
ONE = LambdaMode.numeric(1)
TWO = LambdaMode.numeric(2)
MINUS_TWO = LambdaMode.numeric(-2)
THIRD = LambdaMode.numeric(Fraction(1, 3))

ALL_MODES = (SYM, ONE, TWO, MINUS_TWO, THIRD)
NOT_ONE_MODES = (SYM, TWO, MINUS_TWO, THIRD)


def random_fraction(rng: Random, num_bound: int = 9, den_bound: int = 4) -> Fraction:
    return Fraction(rng.randint(-num_bound, num_bound), rng.randint(1, den_bound))


def random_ratfunc(rng: Random, max_deg: int = 2) -> LambdaRatFunc:
    """N / (c (L-1)^a (L+1)^b) with N over Q and a, b <= 3: the shape of
    every denominator the symbolic ring represents."""
    lam = SYM.lam
    den = (lam - 1) ** rng.randint(0, 3) * (lam + 1) ** rng.randint(0, 3)
    c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
    num = SYM.zero
    for i in range(rng.randint(0, max_deg) + 1):
        num = num + SYM.scalar(random_fraction(rng, 3, 2)) * lam ** i
    return num / (den * SYM.scalar(c))


def random_xpoly(rng: Random, mode: LambdaMode, max_deg: int = 6) -> XPolynomial:
    deg = rng.randint(0, max_deg)
    return XPolynomial([random_fraction(rng) for _ in range(deg + 1)], mode)



@st.composite
def symbolic_scalars(draw, local_numerator: bool = False):
    """Symbolic scalars c N(L) (L-1)^s (L+1)^t / (d (L-1)^a (L+1)^b).

    The factors (L-1)^s and (L+1)^t can cancel poles.  With
    ``local_numerator`` N is 1 and c is nonzero, so the value is a unit of
    the localized ring and may be divided by."""
    lam = SYM.lam
    if local_numerator:
        value = SYM.scalar(draw(st.sampled_from((-3, -2, -1, 1, 2, 3))))
    else:
        value = SYM.zero
        for i, c in enumerate(draw(st.lists(st.integers(-4, 4), max_size=3))):
            value = value + lam ** i * c
    value = value * (lam - 1) ** draw(st.integers(0, 2)) * (lam + 1) ** draw(st.integers(0, 1))
    den = (lam - 1) ** draw(st.integers(0, 2)) * (lam + 1) ** draw(st.integers(0, 2))
    return value / (den * draw(st.integers(1, 4)))
