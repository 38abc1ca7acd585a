"""Deterministic text rendering for scalars and polynomials.

Machine formats (json, csv) spell the deformation parameter "L"; the
human text format uses the Greek letter and latex uses a macro.  All
rendering is pure string work over canonical forms, so equal values
always produce identical bytes.
"""

from __future__ import annotations

from math import gcd

from .field import LambdaRatFunc, render_rational

MACHINE_SYMBOL = "L"
TEXT_SYMBOL = "λ"
LATEX_SYMBOL = "\\lambda"


def _power(sym: str, exponent: int) -> str:
    if exponent == 1:
        return sym
    return f"{sym}^{exponent}"


def _monomial(p: int, q: int, sym: str, exponent: int) -> str:
    """Signed term p/q sym^exponent like "-2L^3", "L/2", "2L^2/3" or a
    bare rational, for p/q in lowest terms with q > 0."""
    if exponent == 0:
        return str(p) if q == 1 else f"{p}/{q}"
    sign = "-" if p < 0 else ""
    p = abs(p)
    head = _power(sym, exponent) if p == 1 else f"{p}{_power(sym, exponent)}"
    tail = "" if q == 1 else f"/{q}"
    return f"{sign}{head}{tail}"


def _terms_text(pairs, sym: str) -> str:
    """Descending rendering of a nonzero polynomial given by ascending
    coefficient pairs (p, q); zero pairs are skipped."""
    parts = []
    for exponent in range(len(pairs) - 1, -1, -1):
        p, q = pairs[exponent]
        if p:
            term = _monomial(p, q, sym, exponent)
            parts.append(term if not parts or term.startswith("-") else "+" + term)
    return "".join(parts)


def _reduced_pair(c: int, d: int) -> tuple:
    g = gcd(c, d)
    return c // g, d // g


def _nonzero_terms(n) -> int:
    return len(n) - n.count(0)


def render_ratfunc(f: LambdaRatFunc, sym: str = MACHINE_SYMBOL) -> str:
    """Canonical "(num)/(den)" rendering with factored denominator
    "(L-1)^a*(L+1)^b", e.g. "L^2-2L+1" or "-2L/(L-1)^2"; reads the key
    (N, d, a, b), num being N/d."""
    n, d, a, b = f._key
    if not n:
        return "0"
    num = _terms_text([_reduced_pair(c, d) for c in n], sym)
    factors = []
    for sign, count in (("-", a), ("+", b)):
        if count:
            base = f"({sym}{sign}1)"
            factors.append(base if count == 1 else f"{base}^{count}")
    if not factors:
        return num
    if _nonzero_terms(n) > 1:
        num = f"({num})"
    den = factors[0] if len(factors) == 1 else "(" + "*".join(factors) + ")"
    return f"{num}/{den}"


def render_field_element(value, sym: str = MACHINE_SYMBOL) -> str:
    if isinstance(value, LambdaRatFunc):
        return render_ratfunc(value, sym)
    return render_rational(value)


def _element_sign(value) -> int:
    """Display sign: for rational functions, the sign of the leading
    numerator coefficient (the denominator is positive and monic)."""
    if isinstance(value, LambdaRatFunc):
        n = value._key[0]
        if not n:
            return 0
        return 1 if n[-1] > 0 else -1
    if not value:
        return 0
    return 1 if value > 0 else -1


def _coeff_times_x(magnitude, sym: str, exponent: int) -> str:
    """One polynomial term with a positive coefficient; the caller
    handles the sign."""
    xpow = _power("x", exponent)
    if exponent == 0:
        return render_field_element(magnitude, sym)
    if isinstance(magnitude, LambdaRatFunc):
        n, q, a, b = magnitude._key
        if a or b or len(n) > 1:
            body = render_field_element(magnitude, sym)
            if a or b or _nonzero_terms(n) > 1:
                body = f"({body})"
            return f"{body}*{xpow}"
        p = n[0]
    else:
        p, q = magnitude.numerator, magnitude.denominator
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
