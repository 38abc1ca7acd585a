"""Dense integer and rational arithmetic kernels, one pure-Python module.

These functions carry the inner loops of the whole package: every
rational series product (dispatched by ``series.convolve``), every
series reciprocal and every integer product behind the symbolic scalars
and the x-polynomials bottoms out here, and
``power`` is the one binary-powering loop behind every ``__pow__``.
``prim_gcd_int`` is off the arithmetic path: it backs the gcd hook that
``field`` keeps for the benchmark tracer.

``conv_frac`` puts each operand over the lcm of its denominators, runs
one integer convolution and reduces each output once, so a product of
length n takes O(n) gcds instead of O(n^2).  ``recip_frac`` keeps a
reduced sum per term: each term sums over the terms built before it,
whose common denominator is not known in advance.  ``power``
starts from the lowest set bit of the exponent and takes no product by
the identity; ``one`` is only the exponent-0 result.

Conventions:

* integer polynomials are lists of Python ints, ascending powers, no
  trailing zeros, ``[]`` is the zero polynomial;
* rational vectors are parallel lists ``(nums, dens)`` with every pair
  in lowest terms and denominator > 0.
"""

from math import gcd, lcm
from operator import mul

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


def _over_lcm(nums, dens):
    """Integer numerators over the lcm of dens, and that lcm."""
    d = lcm(*dens)
    return [n * (d // q) for n, q in zip(nums, dens)], d


def conv_frac(anum, aden, bnum, bden, out_len):
    """Rational convolution c_n = sum_i a_i * b_{n-i}, truncated to out_len.

    Each operand is put over the lcm of its denominators, so c_n is an
    integer convolution over d_a * d_b, reduced once.
    """
    a, da = _over_lcm(anum[:out_len], aden[:out_len])
    b, db = _over_lcm(bnum[:out_len], bden[:out_len])
    d = da * db
    la = len(a)
    lb = len(b)
    rb = b[::-1]
    cnum = [0] * out_len
    cden = [1] * out_len
    for n in range(out_len):
        lo = max(n - lb + 1, 0)
        hi = min(n + 1, la)
        off = lb - 1 - n  # b[n - i] is rb[off + i]
        s = sum(map(mul, a[lo:hi], rb[off + lo:off + hi]))
        if s:
            g = gcd(s, d)
            cnum[n] = s // g
            cden[n] = d // g
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
    """base ** exponent by binary powering for an int exponent >= 0, in
    popcount + bit_length - 2 products; ``one``, the identity of base's
    ring, is the exponent-0 result and never a factor."""
    if not exponent:
        return one
    while not exponent & 1:
        base = base * base
        exponent >>= 1
    result = base
    exponent >>= 1
    while exponent:
        base = base * base
        if exponent & 1:
            result = result * base
        exponent >>= 1
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
