"""The idempotent search of `decomp` against the retired one in `decomp_reference`.

`decomp._split_pieces` examines each piece once and `_minimal_polynomial`
reads the polynomial off one elimination; the reference restarts after every
split, certifies in a second pass and runs one `solve` per power.  Both must
find the same pieces, in the same order, with the same certificates, and
every minimal polynomial either search asks for must agree.  The cases are
the corpus of `decomp_record.cases()` and seeded unimodular-scrambled
k+C2, k+k+k and C2+gpd2 over Q and GF(5).  `poly._find_roots` over Q is
compared with the trial-division root search on seeded polynomials.
"""

import random
import time
from fractions import Fraction

import pytest

import decomp_record
import decomp_reference as ref
from test_axiom_kernels import rebased
from weakhopf import decomp
from weakhopf.exactla import GF, QQ, Subspace, intersect
from weakhopf.fixtures import preset
from weakhopf.poly import _find_roots, _poly_mul
from weakhopf.structure import center
from weakhopf.weakbia import build_weak_bialgebra


def _random_unimodular_cols(field, n, rng):
    """Columns of P L U for a random permutation P and unit triangular L, U
    with entries in [-2, 2]: determinant +-1, so invertible over every field."""
    lower = [[1 if i == j else (rng.randint(-2, 2) if i > j else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (rng.randint(-2, 2) if i < j else 0) for j in range(n)] for i in range(n)]
    prod = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    rows = list(range(n))
    rng.shuffle(rows)
    return [tuple(field.of(prod[rows[r]][c]) for r in range(n)) for c in range(n)]


def _seeded_sums():
    out = []
    for field in (QQ, GF(5)):
        k, c2, gpd2 = preset("k", field), preset("c2", field), preset("gpd2", field)
        sums = {"k+C2": (k, c2), "k+k+k": (k, k, k), "C2+gpd2": (c2, gpd2)}
        for name, summands in sums.items():
            h = decomp.direct_sum(*summands)
            for seed in range(3):
                rng = random.Random(f"{name}:{field}:{seed}")
                alg, coa, _ = rebased(h, _random_unimodular_cols(field, h.dim, rng))
                out.append((f"{name}@{field}@seed{seed}", build_weak_bialgebra(alg, coa)))
    return out


def _search_cases():
    """(name, h, space): K for every case, and the whole algebra where
    `decomp_record` splits it too."""
    out = []
    cases = [(name, h, whole) for name, h, whole in decomp_record.cases()]
    cases += [(name, h, False) for name, h in _seeded_sums()]
    for name, h, whole in cases:
        out.append((name, h, intersect(center(h.alg), intersect(h.ht, h.hs))))
        if whole:
            whole_space = Subspace(h.field, h.dim, h.mult_matrix(h.unit).column_list())
            out.append((name + "@whole", h, whole_space))
    return out


CASES = _search_cases()


def _recording(monkeypatch, module, log):
    inner = module._minimal_polynomial

    def wrapped(h, w, unit_vec, space):
        out = inner(h, w, unit_vec, space)
        log.append((tuple(w), tuple(unit_vec), space, out))
        return out

    monkeypatch.setattr(module, "_minimal_polynomial", wrapped)


@pytest.mark.parametrize("name,h,space", CASES, ids=[c[0] for c in CASES])
def test_pieces_and_minimal_polynomials_match_the_restart_loop(monkeypatch, name, h, space):
    new_log, ref_log = [], []
    _recording(monkeypatch, decomp, new_log)
    _recording(monkeypatch, ref, ref_log)
    got = [(p.idempotent, p.certified) for p in decomp._split_pieces(h, space)]
    want = [(p.idempotent, p.certified) for p in ref._split_pieces(h, space)]
    assert got == want
    monkeypatch.undo()
    # every candidate either search examined, with the other's minimal polynomial
    for w, unit_vec, sub, minpoly in new_log:
        assert ref._minimal_polynomial(h, w, unit_vec, sub) == minpoly
    for w, unit_vec, sub, minpoly in ref_log:
        assert decomp._minimal_polynomial(h, w, unit_vec, sub) == minpoly
    # each piece is examined once, so the search asks for no more
    assert len(new_log) <= len(ref_log)


def test_corpus_has_undecided_and_split_cases():
    certs = [p.certified for _, h, space in CASES for p in decomp._split_pieces(h, space)]
    assert certs.count(False) >= 3
    assert sum(1 for _, h, space in CASES if len(decomp._split_pieces(h, space)) > 1) >= 20


def _seeded_polynomials(count=360):
    """(poly, roots, kinds): products of random linear factors b t - a and
    irreducible quadratics, times a random scalar, with the kinds of factor
    used; every fourth one a random polynomial instead, with roots None."""
    rng = random.Random("rational roots")
    out = []
    for i in range(count):
        if i % 4 == 3:
            poly = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(2, 6))]
            poly[-1] = poly[-1] or Fraction(1)
            out.append((poly, None, set()))
            continue
        poly = [Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(1, 3))]
        roots, kinds = set(), set()
        for _ in range(rng.randint(1, 3)):
            a, b = rng.randint(-6, 6), rng.randint(1, 4)
            mult = rng.choice([1, 1, 2])
            for _ in range(mult):
                poly = _poly_mul(QQ, poly, [Fraction(-a), Fraction(b)])
            roots.add(Fraction(a, b))
            kinds |= {"zero"} if a == 0 else set()
            kinds |= {"non-integer"} if a % b else set()
            kinds |= {"repeated"} if mult > 1 else set()
        for _ in range(rng.choice([0, 0, 1])):
            c = rng.choice([1, 2, 3, 5, 7])
            # t^2 + c and t^2 + t + 2c + 1 have negative discriminants
            quad = [c, 0, 1] if rng.random() < 0.5 else [2 * c + 1, 1, 1]
            poly = _poly_mul(QQ, poly, [Fraction(x) for x in quad])
            kinds.add("quadratic")
        out.append((poly, sorted(roots), kinds))
    return out


def test_rational_roots_match_trial_division():
    polys = _seeded_polynomials()
    assert len(polys) >= 300
    seen = {"zero": 0, "repeated": 0, "non-integer": 0, "quadratic": 0}
    for poly, roots, kinds in polys:
        got = _find_roots(QQ, poly)
        assert got == ref._find_roots(QQ, poly)[0]
        if roots is not None:
            assert got == roots
        for kind in kinds:
            seen[kind] += 1
    assert min(seen.values()) >= 30


def test_rational_roots_of_huge_coefficients_in_bounded_time():
    # (t - 1)(t - N), and (t - N/M)(t + 1)^2 with a repeated root: trial
    # division of N = 10^30 + 57 does not end in useful time
    big, den = 10**30 + 57, 10**20 + 39
    one = Fraction(1)
    start = time.perf_counter()
    assert _find_roots(QQ, [Fraction(big), -one - big, one]) == [one, Fraction(big)]
    poly = _poly_mul(QQ, [Fraction(-big, den), one], [one, 2 * one, one])
    assert _find_roots(QQ, poly) == [-one, Fraction(big, den)]
    assert _find_roots(QQ, [one, Fraction(0), Fraction(big)]) == []
    assert time.perf_counter() - start < 0.5
