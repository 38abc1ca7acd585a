"""Deterministic text rendering for scalars and polynomials.

Machine formats (json, csv) spell the deformation parameter "L"; the
human text format uses the Greek letter and latex uses a macro.  All
rendering is pure string work over canonical forms, so equal values
always produce identical bytes.
"""

from __future__ import annotations

from fractions import Fraction

from .field import LambdaPoly, LambdaRatFunc, render_rational

MACHINE_SYMBOL = "L"
TEXT_SYMBOL = "λ"
LATEX_SYMBOL = "\\lambda"


def _power(sym: str, exponent: int) -> str:
    if exponent == 1:
        return sym
    return f"{sym}^{exponent}"


def _monomial(coeff: Fraction, sym: str, exponent: int) -> str:
    """Signed term like "-2L^3", "L/2", "2L^2/3" or a bare rational."""
    if exponent == 0:
        return render_rational(coeff)
    p, q = coeff.numerator, coeff.denominator
    sign = "-" if p < 0 else ""
    p = abs(p)
    head = _power(sym, exponent) if p == 1 else f"{p}{_power(sym, exponent)}"
    tail = "" if q == 1 else f"/{q}"
    return f"{sign}{head}{tail}"


def render_lambda_poly(poly: LambdaPoly, sym: str = MACHINE_SYMBOL) -> str:
    """Compact descending rendering, e.g. "L^2-2L+1"."""
    if poly.is_zero:
        return "0"
    parts = []
    for exponent in range(poly.degree, -1, -1):
        c = poly.coeffs[exponent]
        if not c:
            continue
        term = _monomial(c, sym, exponent)
        if not parts:
            parts.append(term)
        elif term.startswith("-"):
            parts.append("-" + term[1:])
        else:
            parts.append("+" + term)
    return "".join(parts)


def render_ratfunc(f: LambdaRatFunc, sym: str = MACHINE_SYMBOL) -> str:
    """Canonical "(num)/(den)" rendering with factored denominator
    "(L-1)^a*(L+1)^b"."""
    num_poly = f.num
    num = render_lambda_poly(num_poly, sym)
    factors = []
    for sign, count in zip("-+", f.pole_orders):
        if count:
            base = f"({sym}{sign}1)"
            factors.append(base if count == 1 else f"{base}^{count}")
    if not factors:
        return num
    if len([c for c in num_poly.coeffs if c]) > 1:
        num = f"({num})"
    den = factors[0] if len(factors) == 1 else "(" + "*".join(factors) + ")"
    return f"{num}/{den}"


def render_field_element(value, sym: str = MACHINE_SYMBOL) -> str:
    if isinstance(value, LambdaRatFunc):
        return render_ratfunc(value, sym)
    return render_rational(value)


def _element_sign(value) -> int:
    """Display sign: for rational functions, the sign of the leading
    numerator coefficient (the denominator is monic)."""
    if isinstance(value, LambdaRatFunc):
        if value.is_zero:
            return 0
        return 1 if value.num.leading > 0 else -1
    if not value:
        return 0
    return 1 if value > 0 else -1


def _is_unit_coeff(value) -> bool:
    if isinstance(value, LambdaRatFunc):
        return value == 1 or value == -1
    return value == 1 or value == -1


def _coeff_times_x(magnitude, sym: str, exponent: int) -> str:
    """One polynomial term with a nonnegative coefficient; the caller
    handles the sign."""
    xpow = _power("x", exponent)
    if exponent == 0:
        return render_field_element(magnitude, sym)
    if _is_unit_coeff(magnitude):
        return xpow
    if isinstance(magnitude, LambdaRatFunc) and not magnitude.is_rational:
        body = render_field_element(magnitude, sym)
        if magnitude.pole_orders != (0, 0) or len([c for c in magnitude.num.coeffs if c]) > 1:
            body = f"({body})"
        return f"{body}*{xpow}"
    rat = magnitude.as_rational() if isinstance(magnitude, LambdaRatFunc) else Fraction(magnitude)
    p, q = rat.numerator, rat.denominator
    head = xpow if p == 1 else f"{p}{xpow}"
    return head if q == 1 else f"{head}/{q}"


def render_x_poly(poly, sym: str = MACHINE_SYMBOL) -> str:
    """Descending rendering of a polynomial in x, e.g. "x - 1/2"."""
    if poly.is_zero:
        return "0"
    parts = []
    for exponent in range(poly.degree, -1, -1):
        c = poly.coefficient(exponent)
        sign = _element_sign(c)
        if sign == 0:
            continue
        body = _coeff_times_x(c if sign > 0 else -c, sym, exponent)
        if not parts:
            parts.append(body if sign > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if sign > 0 else f" - {body}")
    return "".join(parts)
