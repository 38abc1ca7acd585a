"""Expanding polynomials in the Bernoulli-type basis of a fixed order.

Away from L = 1 the family members of order k start at index k (the
lower ones are zero polynomials) and the member of index j has degree
j - k, so representing a degree-n polynomial takes indices k..k+n and the
resulting linear system is triangular.  At L = 1 the members are monic of
degree equal to their index and the natural window is 0..n.

Three routes are provided: an exact triangular solve (the oracle), the
closed-form coefficient formula with index window k..n as cataloged, and
a repaired variant that extends the window to k..k+n and evaluates the
operator power by literal iteration.  The last two share the formula
b_j = (1/j!) (Lambda^k D^(j-k) q)(0): the closed form sums the power at
zero per coefficient, the repaired route reads every b_j off Lambda^k q.
Only the oracle is guaranteed exact; the others flag exactness by reconstruction.
"""

from __future__ import annotations

import enum
from math import factorial, perm
from typing import NamedTuple, Optional, Sequence, Tuple

from .families import apostol_bernoulli_poly
from .field import FieldElement, LambdaMode
from .operators import DifferencePowerMethod, lambda_op, lambda_power_at_zero
from .polynomials import XPolynomial, dot

__all__ = [
    "ExpansionMethod",
    "BasisExpansion",
    "UnsupportedModeError",
    "expand_oracle",
    "closed_form_coefficients",
    "corrected_coefficients",
    "reconstruct",
    "basis_sum",
]


class UnsupportedModeError(ValueError):
    """Expansion route undefined for the requested mode."""


class ExpansionMethod(enum.Enum):
    ORACLE = "oracle"
    CLOSED_FORM = "closed-form"
    CORRECTED = "corrected"


class BasisExpansion(NamedTuple):
    """Coefficients b_j over basis indices j_lo..j_hi (empty if j_lo > j_hi).

    ``reconstruction`` is sum b_j * basis_j, and ``exact`` records whether
    it reproduces the expanded polynomial identically.
    """

    method: ExpansionMethod
    k: int
    mode: LambdaMode
    j_lo: int
    j_hi: int
    coefficients: Tuple[FieldElement, ...]
    exact: bool
    reconstruction: XPolynomial

    def coefficient(self, j: int) -> FieldElement:
        if not self.j_lo <= j <= self.j_hi:
            raise IndexError(f"basis index {j} outside {self.j_lo}..{self.j_hi}")
        return self.coefficients[j - self.j_lo]

    def indices(self) -> range:
        return range(self.j_lo, self.j_hi + 1)


def basis_sum(
    coefficients: Sequence[FieldElement], j_lo: int, k: int, mode: LambdaMode
) -> XPolynomial:
    """sum b_j * basis_j over the order-k basis, b_j = coefficients[j - j_lo];
    no coefficients give zero."""
    terms = [(b, j) for j, b in enumerate(coefficients, j_lo) if b][::-1]
    # the largest member first: it builds the table the others read prefixes of
    return dot(mode, [b for b, _ in terms], [apostol_bernoulli_poly(j, k, mode) for _, j in terms])


def reconstruct(expansion: BasisExpansion) -> XPolynomial:
    """sum b_j * basis_j as a polynomial; the empty expansion gives zero."""
    return basis_sum(expansion.coefficients, expansion.j_lo, expansion.k, expansion.mode)


def expand_oracle(q: XPolynomial, k: int) -> BasisExpansion:
    """Exact expansion by back-substitution on the degree-triangular system."""
    mode = q.mode
    if k < 0:
        raise ValueError("basis order must be nonnegative")
    j_lo = 0 if mode.is_one else k
    j_hi = j_lo + q.degree
    residual = q
    coeffs: dict[int, FieldElement] = {}
    for j in range(j_hi, j_lo - 1, -1):
        basis = apostol_bernoulli_poly(j, k, mode)
        deg = j - j_lo
        c = residual.coefficient(deg)
        if c:
            b = c / basis.coefficient(deg)
            coeffs[j] = b
            residual = residual - basis.scalar_mul(b)
        else:
            coeffs[j] = mode.zero
    if not residual.is_zero:
        raise AssertionError("triangular solve left a nonzero residual")
    return BasisExpansion(
        method=ExpansionMethod.ORACLE,
        k=k,
        mode=mode,
        j_lo=j_lo,
        j_hi=j_hi,
        coefficients=tuple(coeffs[j] for j in range(j_lo, j_hi + 1)),
        exact=True,
        reconstruction=q,  # the zero residual above
    )


def _windowed(method: ExpansionMethod, q: XPolynomial, k: int, coeffs: list) -> BasisExpansion:
    """The expansion with b_j = coeffs[j - k] over the window j = k..k+len-1;
    the exactness flag comes from reconstructing and comparing against q."""
    recon = basis_sum(coeffs, k, k, q.mode)
    j_hi = k + len(coeffs) - 1
    return BasisExpansion(method, k, q.mode, k, j_hi, tuple(coeffs), recon == q, recon)


def closed_form_coefficients(q: XPolynomial, k: int) -> BasisExpansion:
    """Coefficient formula over the window j = k..deg q, as cataloged:

        b_j = (1/j!) * sum_{a=0}^{k} (-1)^a C(k, a) L^a (D^{j-k} q)(a)

    The window cannot reach a degree-n polynomial away from L = 1 (the
    basis members there have degree j - k), so the exactness flag is
    computed by reconstructing and comparing against q.
    """
    if k < 0:
        raise ValueError("basis order must be nonnegative")
    coeffs, derivative = [], q
    for j in range(k, q.degree + 1):
        coeffs.append(lambda_power_at_zero(derivative, k, DifferencePowerMethod.CLOSED_FORM)
                      / factorial(j))
        derivative = derivative.derivative()
    return _windowed(ExpansionMethod.CLOSED_FORM, q, k, coeffs)


def corrected_coefficients(q: XPolynomial, k: int,
                           power: Optional[XPolynomial] = None) -> BasisExpansion:
    """Repaired route: window j = k..k+deg q and literal operator powers,

        b_j = (1/j!) * (Lambda^k D^{j-k} q)(0) = ((j-k)!/j!) [x^{j-k}] Lambda^k q,

    as D and Lambda commute, so Lambda^k q is built once per expansion,
    or passed in as ``power`` by a caller that has it; exactness is
    checked by reconstruction rather than assumed."""
    if k < 0:
        raise ValueError("basis order must be nonnegative")
    if q.mode.is_one:
        raise UnsupportedModeError(
            "the k..k+n window presumes basis degrees j-k, which fails at lambda = 1"
        )
    if power is None:
        power = q
        for _ in range(k):
            power = lambda_op(power)
    coeffs = [power.coefficient(i) / perm(k + i, k) for i in range(q.degree + 1)]
    return _windowed(ExpansionMethod.CORRECTED, q, k, coeffs)
