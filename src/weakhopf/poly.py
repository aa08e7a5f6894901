"""Polynomials over the exact fields: coefficient lists, index = degree.

The arithmetic works over every field of `exactla`.  `_find_roots` finds
every root in the field: over GF(p) from gcd(f, x^p - x) by equal-degree
splitting, over Q from the roots modulo a small prime, lifted by Newton's
step and reconstructed as fractions.  `_coprime_split` splits a polynomial
into powers of its linear factors and a leftover without roots.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exactla import QQ, Mod, _is_prime


def _poly_trim(p):
    while p and not p[-1]:
        p.pop()
    return p


def _poly_mul(field, p, q):
    out = [field.zero] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] = out[i + j] + a * b
    return _poly_trim(out)


def _poly_divmod(field, p, q):
    p = list(p)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [field.zero] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    while len(p) >= len(q) and p:
        c = p[-1] / lead
        d = len(p) - len(q)
        quot[d] = c
        for i, b in enumerate(q):
            p[d + i] = p[d + i] - c * b
        _poly_trim(p)
    return _poly_trim(quot), p


def _poly_eval(field, p, x):
    acc = field.zero
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_powmod(field, base, e, modulus):
    """base^e modulo the polynomial modulus, by repeated squaring."""
    result = [field.one]
    base = _poly_divmod(field, base, modulus)[1]
    while e:
        if e & 1:
            result = _poly_divmod(field, _poly_mul(field, result, base), modulus)[1]
        base = _poly_divmod(field, _poly_mul(field, base, base), modulus)[1]
        e >>= 1
    return result


def _poly_sub(field, a, b):
    z = field.zero
    n = max(len(a), len(b))
    return _poly_trim([x - y for x, y in zip(a + [z] * (n - len(a)), b + [z] * (n - len(b)))])


def _poly_extended_gcd(field, a, b):
    """(g, x, y) with x*a + y*b = g, g monic."""
    r0, r1 = list(a), list(b)
    s0, s1 = [field.one], []
    t0, t1 = [], [field.one]
    while r1:
        q, r = _poly_divmod(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(field, s0, _poly_mul(field, q, s1))
        t0, t1 = t1, _poly_sub(field, t0, _poly_mul(field, q, t1))
    if r0:
        inv = field.one / r0[-1]
        r0 = [c * inv for c in r0]
        s0 = [c * inv for c in s0]
        t0 = [c * inv for c in t0]
    return r0, s0, t0


def _find_roots(field, p):
    """All roots of p in the field, in increasing order."""
    if field.kind == "rationals":
        return _rational_roots(p)
    if field.characteristic == 2:
        # equal-degree splitting needs an odd p; GF(2) has two candidates
        return [Mod(v, 2) for v in range(2) if not _poly_eval(field, p, Mod(v, 2))]
    return _gf_roots(field, p)


def _gf_roots(field, f):
    """The roots of f over GF(p) for odd p, in increasing order.

    gcd(f, x^p - x) is the product of the distinct linear factors of f; it is
    split by equal-degree splitting, gcd(g, (x + a)^((p-1)/2) - 1) for the
    shifts a = 0, 1, 2, ... in turn, so the result does not depend on chance.
    """
    char = field.characteristic
    one = field.one
    x = [field.zero, one]
    xp = _poly_powmod(field, x, char, f)
    pending = [_poly_extended_gcd(field, f, _poly_sub(field, xp, x))[0]]
    roots = []
    while pending:
        g = pending.pop()
        if len(g) == 2:
            roots.append(-g[0])
            continue
        if len(g) < 2:
            continue
        a = 0
        while True:
            shifted = _poly_powmod(field, [field.of(a), one], (char - 1) // 2, g)
            d = _poly_extended_gcd(field, g, _poly_sub(field, shifted, [one]))[0]
            if 1 < len(d) < len(g):
                pending.append(d)
                pending.append(_poly_divmod(field, g, d)[0])
                break
            a += 1
    return sorted(roots, key=lambda r: r.value)


def _rational_roots(p):
    """The distinct rational roots of p, a list of Fractions, in increasing order.

    With f = c_n t^n + ... + c_0 (c_0 != 0) the primitive integer form of p
    without the factor t, a root a/b has |a|, b <= B = max(|c_0|, |c_n|).  Its
    residue is a root of f mod l, for the smallest prime l not dividing c_n at
    which every root is simple; f turns square-free at the second l where one
    is not.  Newton's step lifts each root mod l to l^(2^k) > 2 B^2, where a/b
    is the one fraction with |a|, b <= B that matches; lifts that are exact
    roots are kept.  The cost is polynomial in the bit size of the coefficients.
    """
    f = _int_poly(p)
    roots = []
    if f and not f[0]:
        roots.append(Fraction(0))
        while not f[0]:
            f.pop(0)
    if len(f) < 2:
        return roots
    ell, multiple = 2, 0
    while True:
        df = [i * c for i, c in enumerate(f)][1:]
        if f[-1] % ell:
            residues = [r for r in range(ell) if not _eval_mod(f, r, ell)]
            if all(_eval_mod(df, r, ell) for r in residues):
                break
            # l divides the discriminant (two roots agree mod 2 often) or f has
            # a repeated root; at the second such l, f turns square-free
            multiple += 1
            if multiple == 2:
                f = _square_free(f)
                continue
        ell += 1
        while not _is_prime(ell):
            ell += 1
    bound = max(abs(f[0]), abs(f[-1]))
    for r in residues:
        m = ell
        while m <= 2 * bound * bound:
            m *= m
            r = (r - _eval_mod(f, r, m) * pow(_eval_mod(df, r, m), -1, m)) % m
        root = _reconstruct(r, m, bound)
        if root is not None and not _poly_eval(QQ, p, root):
            roots.append(root)
    return sorted(roots)


def _int_poly(p):
    """The rational polynomial p as integers without a common factor."""
    scale = lcm(*[c.denominator for c in p])
    f = [c.numerator * (scale // c.denominator) for c in p]
    content = gcd(*f) or 1
    return [c // content for c in f]


def _square_free(f):
    """The square-free part f / gcd(f, f') of the integer polynomial f, primitive."""
    q = [Fraction(c) for c in f]
    g = _poly_extended_gcd(QQ, q, [i * c for i, c in enumerate(q)][1:])[0]
    return _int_poly(_poly_divmod(QQ, q, g)[0])


def _eval_mod(f, x, m):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _reconstruct(r, m, bound):
    """The fraction a/b = r mod m with |a| <= bound and 0 < b <= bound, if one
    exists; it is unique when m > 2 bound^2 (Wang's rational reconstruction:
    the extended Euclidean algorithm on m and r, stopped at the first
    remainder <= bound)."""
    r0, r1, s0, s1 = m, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return Fraction(r1, s1) if abs(s1) <= bound else None


def _coprime_split(field, minpoly):
    """Split the minimal polynomial into (t - root)^mult factors plus a leftover.

    Returns (factors, leftover): coprime monic polynomials covering the roots
    in the field with full multiplicity, and what is left, which has no root.
    """
    factors = []
    rest = list(minpoly)
    for lam in _find_roots(field, minpoly):
        lin = [-lam, field.one]
        factor = [field.one]
        while True:
            quot, rem = _poly_divmod(field, rest, lin)
            if rem:
                break
            rest = quot
            factor = _poly_mul(field, factor, lin)
        factors.append(factor)
    return factors, rest
