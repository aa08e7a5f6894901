"""The idempotent search of `decomp` before it examined each piece once.

Kept verbatim from the package as it was before the search became a
worklist (`decomp._split_pieces`) and the rational root search became
Newton lifting (`poly._find_roots`): the restart-loop `_split_pieces` with
its separate certification pass, the `_minimal_polynomial` that runs one
`solve` per power, and the trial-division rational root search.
`tests/test_decomp_reference.py` compares the package against them.  The
polynomial arithmetic they share with the package is imported from
`weakhopf.poly`, unchanged.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add

from weakhopf.errors import InternalInconsistency
from weakhopf.exactla import Matrix, Mod, Subspace, solve, vec_zero
from weakhopf.poly import _gf_roots, _poly_divmod, _poly_eval, _poly_extended_gcd, _poly_mul
from weakhopf.weakbia import WeakBialgebra


def _minimal_polynomial(h: WeakBialgebra, w, unit_vec, space: Subspace):
    """Monic minimal polynomial of w in the unital algebra on `space`."""
    field = h.field
    powers = [tuple(unit_vec)]
    current = tuple(unit_vec)
    for _ in range(space.dim):
        current = h.multiply(current, w)
        mat = Matrix.from_cols(field, powers, rows=h.dim)
        target = Matrix.from_cols(field, [current], rows=h.dim)
        x = solve(mat, target)
        if x is not None:
            coeffs = [-c for c in x.col(0)]
            coeffs.append(field.one)
            return coeffs
        powers.append(current)
    raise InternalInconsistency("minimal polynomial exceeded the subalgebra dimension")


def _rational_root_candidates(p):
    """Candidate rational roots of a rational-coefficient polynomial."""
    denom_lcm = lcm(*[c.denominator for c in p])
    ints = [int(c * denom_lcm) for c in p]
    out = []
    if ints and ints[0] == 0:
        out.append(Fraction(0))
        while ints and ints[0] == 0:
            ints = ints[1:]
    if not ints:
        return out
    low, high = ints[0], ints[-1]
    for a in _divisors(abs(low)):
        for b in _divisors(abs(high)):
            out.append(Fraction(a, b))
            out.append(Fraction(-a, b))
    return out


def _divisors(n):
    if n == 0:
        return []
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _find_roots(field, p):
    """All roots of p in the field that this toolkit can certify, plus a
    flag telling whether the search was exhaustive."""
    if field.kind == "rationals":
        roots = []
        seen = set()
        for cand in _rational_root_candidates(p):
            if cand in seen:
                continue
            seen.add(cand)
            if not _poly_eval(field, p, cand):
                roots.append(cand)
        return sorted(roots), True
    if field.characteristic == 2:
        # equal-degree splitting needs an odd p; GF(2) has two candidates
        roots = [Mod(v, 2) for v in range(2) if not _poly_eval(field, p, Mod(v, 2))]
        return roots, True
    return _gf_roots(field, p), True


def _coprime_split(field, minpoly):
    """Split the minimal polynomial into (t - root)^mult factors plus a leftover.

    Returns (factors, leftover, exhaustive) where factors are coprime monic
    polynomials covering the found roots with full multiplicity.
    """
    roots, exhaustive = _find_roots(field, minpoly)
    factors = []
    rest = list(minpoly)
    for lam in roots:
        lin = [-lam, field.one]
        factor = [field.one]
        while True:
            quot, rem = _poly_divmod(field, rest, lin)
            if rem:
                break
            rest = quot
            factor = _poly_mul(field, factor, lin)
        factors.append(factor)
    return factors, rest, exhaustive


def _eval_poly_in_algebra(h: WeakBialgebra, p, w, unit_vec):
    field = h.field
    acc = vec_zero(field, h.dim)
    for c in reversed(p):
        acc = h.multiply(acc, w)
        if c:
            acc = tuple([a + c * u for a, u in zip(acc, unit_vec)])
    return acc


@dataclass
class _Piece:
    idempotent: tuple
    certified: bool = False


def _piece_basis(h: WeakBialgebra, k_space: Subspace, f) -> list[tuple]:
    """Echelon basis of f*K, the piece of K cut out by the idempotent f."""
    vecs = [h.multiply(f, z) for z in k_space.basis]
    return list(Subspace(h.field, h.dim, vecs).basis)


def _split_pieces(h: WeakBialgebra, k_space: Subspace):
    """Primitive idempotents of K with per-piece certificates."""
    field = h.field
    pieces = [_Piece(tuple(h.unit))]
    changed = True
    while changed:
        changed = False
        for idx, piece in enumerate(list(pieces)):
            basis = _piece_basis(h, k_space, piece.idempotent)
            if len(basis) <= 1:
                continue
            space = Subspace(field, h.dim, basis)
            candidates = list(basis)
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    candidates.append(tuple(map(add, basis[i], basis[j])))
                    candidates.append(tuple(h.multiply(basis[i], basis[j])))
            for w in candidates:
                minpoly = _minimal_polynomial(h, w, piece.idempotent, space)
                factors, leftover, _ = _coprime_split(field, minpoly)
                parts = list(factors)
                if len(leftover) > 1:
                    parts.append(leftover)
                if len(parts) < 2:
                    continue
                new_pieces = []
                for part in parts:
                    cof, _ = _poly_divmod(field, minpoly, part)
                    g, x, _ = _poly_extended_gcd(field, cof, part)
                    if len(g) != 1:
                        raise InternalInconsistency("minimal polynomial factors not coprime")
                    u = _poly_mul(field, x, cof)
                    e = _eval_poly_in_algebra(h, u, w, piece.idempotent)
                    if h.multiply(e, e) != e:
                        raise InternalInconsistency("CRT idempotent failed idempotency")
                    if not any(e):
                        raise InternalInconsistency("CRT produced a zero idempotent")
                    new_pieces.append(_Piece(tuple(e)))
                pieces = pieces[:idx] + new_pieces + pieces[idx + 1 :]
                changed = True
                break
            if changed:
                break
    for piece in pieces:
        basis = _piece_basis(h, k_space, piece.idempotent)
        space = Subspace(field, h.dim, basis)
        certified = True
        for w in basis:
            minpoly = _minimal_polynomial(h, w, piece.idempotent, space)
            factors, leftover, exhaustive = _coprime_split(field, minpoly)
            if len(leftover) > 1 or not exhaustive or len(factors) > 1:
                certified = False
                break
        piece.certified = certified
    pieces.sort(key=lambda p: p.idempotent)
    return pieces
