"""Dense integer and rational arithmetic kernels, one pure-Python module.

These functions carry the inner loops of the whole package: every
rational series product (dispatched by ``series.convolve``), every
series reciprocal and every integer product behind the symbolic scalars
and the x-polynomials bottoms out here, and
``power`` is the one binary-powering loop behind every ``__pow__``.
``prim_gcd_int`` is off the arithmetic path: it backs the gcd hook that
``field`` keeps for the benchmark tracer.

Conventions:

* integer polynomials are lists of Python ints, ascending powers, no
  trailing zeros, ``[]`` is the zero polynomial;
* rational vectors are parallel lists ``(nums, dens)`` with every pair
  in lowest terms and denominator > 0.
"""

from math import gcd

__all__ = ["conv_int", "conv_frac", "recip_frac", "power", "prim_gcd_int"]


def _add_frac(na, da, nb, db):
    # Knuth 4.5.1: reduced inputs give a reduced result.
    if na == 0:
        return nb, db
    if nb == 0:
        return na, da
    g = gcd(da, db)
    if g == 1:
        return na * db + nb * da, da * db
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return t, s * db
    return t // g2, s * (db // g2)


def _mul_frac(na, da, nb, db):
    if na == 0 or nb == 0:
        return 0, 1
    g1 = gcd(na, db)
    g2 = gcd(nb, da)
    return (na // g1) * (nb // g2), (da // g2) * (db // g1)


def conv_int(a, b):
    """Full convolution of two integer coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def conv_frac(anum, aden, bnum, bden, out_len):
    """Rational convolution c_n = sum_i a_i * b_{n-i}, truncated to out_len."""
    la = len(anum)
    lb = len(bnum)
    cnum = [0] * out_len
    cden = [1] * out_len
    for n in range(out_len):
        sn, sd = 0, 1
        lo = n - lb + 1
        if lo < 0:
            lo = 0
        hi = n if n < la - 1 else la - 1
        for i in range(lo, hi + 1):
            pn, pd = _mul_frac(anum[i], aden[i], bnum[n - i], bden[n - i])
            sn, sd = _add_frac(sn, sd, pn, pd)
        cnum[n] = sn
        cden[n] = sd
    return cnum, cden


def recip_frac(anum, aden, out_len):
    """Multiplicative inverse of a rational series, truncated to out_len.

    b_0 = 1/a_0 and b_n = -(1/a_0) * sum_{i=1..n} a_i b_{n-i}; requires
    a_0 != 0 (checked by the caller as well).
    """
    if not anum or anum[0] == 0:
        raise ZeroDivisionError("series has no multiplicative inverse: zero constant term")
    la = len(anum)
    # 1/a_0 in lowest terms with positive denominator
    r0n, r0d = aden[0], anum[0]
    if r0d < 0:
        r0n, r0d = -r0n, -r0d
    bnum = [0] * out_len
    bden = [1] * out_len
    bnum[0], bden[0] = r0n, r0d
    for n in range(1, out_len):
        sn, sd = 0, 1
        hi = n if n < la - 1 else la - 1
        for i in range(1, hi + 1):
            pn, pd = _mul_frac(anum[i], aden[i], bnum[n - i], bden[n - i])
            sn, sd = _add_frac(sn, sd, pn, pd)
        tn, td = _mul_frac(sn, sd, -r0n, r0d)
        bnum[n], bden[n] = tn, td
    return bnum, bden


def power(base, exponent, one):
    """base ** exponent by binary powering for an int exponent >= 0;
    ``one`` is the identity of base's ring and the exponent-0 result."""
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def _int_content(a):
    c = 0
    for x in a:
        c = gcd(c, x)
        if c == 1:
            return 1
    return c


def _primitive(a):
    """Primitive part with positive leading coefficient; [] for zero."""
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    if not a:
        return []
    c = _int_content(a)
    if a[-1] < 0:
        c = -c
    if c != 1:
        a = [x // c for x in a]
    return a


def _pseudo_rem(f, g):
    """Pseudo-remainder of f by g (deg g <= deg f, g != 0)."""
    f = list(f)
    dg = len(g) - 1
    lg = g[-1]
    while f and len(f) - 1 >= dg:
        shift = len(f) - 1 - dg
        fl = f[-1]
        if lg != 1:
            f = [c * lg for c in f]
        for i in range(dg + 1):
            f[shift + i] -= fl * g[i]
        while f and f[-1] == 0:
            f.pop()
    return f


def prim_gcd_int(a, b):
    """Gcd in Z[x] via the primitive Euclidean remainder sequence.

    Returns the primitive gcd with positive leading coefficient
    (``[]`` only for gcd(0, 0)).  Content of the inputs is discarded:
    callers use this for reduction over Q[x], where constants are units.
    """
    f = _primitive(a)
    g = _primitive(b)
    if not f:
        return g
    if not g:
        return f
    if len(f) < len(g):
        f, g = g, f
    while g:
        r = _primitive(_pseudo_rem(f, g))
        f, g = g, r
    return f
