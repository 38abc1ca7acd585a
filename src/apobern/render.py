"""Deterministic text rendering for scalars and polynomials.

Machine formats (json, csv) spell the deformation parameter "L"; the
human text format uses the Greek letter and latex uses a macro.  All
rendering is pure string work over canonical keys: a rational function
and each symbolic x-polynomial coefficient go through one key-to-text
path over (N, d, a, b), and a numeric x-polynomial is written from its
key (N, d) by the same term loop, so equal values always produce
identical bytes.
"""

from __future__ import annotations

from math import gcd

from ._keys import _specialized
from .field import LambdaRatFunc, render_rational

MACHINE_SYMBOL = "L"
TEXT_SYMBOL = "λ"
LATEX_SYMBOL = "\\lambda"


def _terms_text(n, d: int, sym: str, space: str = "") -> str:
    """Descending rendering of sum n[i] sym^i / d, zero entries skipped,
    "" for zero: a leading "-" for a negative first term, and between
    terms the sign with ``space`` on both sides, e.g. "L^2-2L+1" or
    "x - 1/2".  A term is "2L^3", "L/2", "2L^2/3" or a bare rational,
    brought to lowest terms by one gcd when d != 1."""
    plus, minus = f"{space}+{space}", f"{space}-{space}"
    parts = []
    for exponent in range(len(n) - 1, -1, -1):
        p = n[exponent]
        if not p:
            continue
        if p < 0:
            parts.append(minus if parts else "-")
            p = -p
        elif parts:
            parts.append(plus)
        tail = ""
        if d != 1:
            g = gcd(p, d)
            if g != d:
                tail = f"/{d // g}"
            p //= g
        if exponent == 0:
            parts.append(f"{p}{tail}")
        else:
            head = sym if exponent == 1 else f"{sym}^{exponent}"
            parts.append(f"{head}{tail}" if p == 1 else f"{p}{head}{tail}")
    return "".join(parts)


def _nonzero_terms(n) -> int:
    return len(n) - n.count(0)


def _key_text(n, d: int, a: int, b: int, sym: str) -> str:
    """Canonical "(num)/(den)" text of the nonzero scalar key (N, d, a, b),
    num being N/d and den the factored "(L-1)^a*(L+1)^b", e.g. "L^2-2L+1"
    or "-2L/(L-1)^2"."""
    num = _terms_text(n, d, sym)
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


def render_ratfunc(f: LambdaRatFunc, sym: str = MACHINE_SYMBOL) -> str:
    """Canonical rendering of a rational function, "0" for zero."""
    n, d, a, b = f._key
    return _key_text(n, d, a, b, sym) if n else "0"


def render_field_element(value, sym: str = MACHINE_SYMBOL) -> str:
    if isinstance(value, LambdaRatFunc):
        return render_ratfunc(value, sym)
    return render_rational(value)


def _term_text(n, d: int, a: int, b: int, sym: str, exponent: int) -> str:
    """One polynomial term whose coefficient has the key (N, d, a, b) with
    N[-1] > 0; the caller handles the sign."""
    if not (a or b or len(n) > 1):
        return _terms_text([0] * exponent + [n[0]], d, "x")
    body = _key_text(n, d, a, b, sym)
    if exponent == 0:
        return body
    if a or b or _nonzero_terms(n) > 1:
        body = f"({body})"
    return f"{body}*x" if exponent == 1 else f"{body}*x^{exponent}"


def _specialized_text(key: tuple, value) -> str:
    """``render_x_poly(specialize_poly(p, mode))`` for the nonzero symbolic
    key of p and the value u/v (not +-1) of the mode, or "" where p vanishes
    there: each term of the unreduced value takes its own lowest terms."""
    n, d = _specialized(key, value.numerator, value.denominator)
    return _terms_text(n, d, "x", " ") if any(n) else ""


def render_x_poly(poly, sym: str = MACHINE_SYMBOL) -> str:
    """Descending rendering of a polynomial in x, e.g. "x - 1/2": numeric
    from its key (N, d), symbolic from coefficient keys signed by N[-1]."""
    if not poly.mode.is_symbolic:
        return _terms_text(*poly._key, "x", " ") or "0"
    parts = []
    for exponent in range(poly.degree, -1, -1):
        n, d, a, b = poly._coeff_key(exponent)
        if not n:
            continue
        negative = n[-1] < 0
        if parts:
            parts.append(" - " if negative else " + ")
        elif negative:
            parts.append("-")
        parts.append(_term_text([-c for c in n] if negative else n, d, a, b, sym, exponent))
    return "".join(parts) or "0"
