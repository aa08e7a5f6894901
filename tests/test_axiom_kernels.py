"""The int-lifted axiom kernels against the field-scalar loops they replaced.

The reference functions below are the earlier `Fraction`/`Mod` loops of
`structure.check_algebra`, `structure.check_coalgebra`,
`weakbia.verify_weak_bialgebra` and `weakbia.verify_antipode`, kept verbatim
in substance.  Every verdict of the corpus (natural and rebased fixtures over
five fields, structure perturbations, crossed algebra/coalgebra pairs and
perturbed antipodes) must be repr-identical between the two: the same laws,
witnesses and both sides' values, in the same order.
"""

from fractions import Fraction
from itertools import product

import pytest

from product_reference import comultiply, counit_of, multiply
from weakhopf.decomp import direct_sum
from weakhopf.errors import Verdict, Violation
from weakhopf.exactla import (
    GF,
    QQ,
    Matrix,
    inverse,
    ints_differ,
    ints_to_field,
    lift_to_ints,
    vec_unit,
    vec_zero,
)
from weakhopf.fixtures import cyclic_group_table, group_algebra, preset
from weakhopf.structure import (
    FiniteAlgebra,
    FiniteCoalgebra,
    check_algebra,
    check_coalgebra,
    dual,
)
from weakhopf.weakbia import build_weak_bialgebra, verify_antipode, verify_weak_bialgebra

# ---------------------------------------------------------------------------
# the field-scalar reference loops


def ref_check_algebra(a):
    n = a.dim
    violations = []
    mu = a.mult
    nz = [
        [tuple((k, c) for k, c in enumerate(mu[i][j]) if c) for j in range(n)]
        for i in range(n)
    ]
    zero_vec = list(vec_zero(a.field, n))
    for i in range(n):
        for j in range(n):
            ij = nz[i][j]
            for k in range(n):
                lhs = list(zero_vec)
                for m, c in ij:
                    for l, d in nz[m][k]:
                        lhs[l] = lhs[l] + c * d
                rhs = list(zero_vec)
                for m, c in nz[j][k]:
                    for l, d in nz[i][m]:
                        rhs[l] = rhs[l] + c * d
                if lhs != rhs:
                    violations.append(
                        Violation("associativity", (i, j, k), tuple(lhs), tuple(rhs))
                    )
    for i in range(n):
        e_i = tuple(a.field.one if j == i else a.field.zero for j in range(n))
        left = multiply(a, a.unit, e_i)
        if left != e_i:
            violations.append(Violation("unit-left", (i,), left, e_i))
        right = multiply(a, e_i, a.unit)
        if right != e_i:
            violations.append(Violation("unit-right", (i,), right, e_i))
    return Verdict(tuple(violations))


def ref_check_coalgebra(c):
    n = c.dim
    violations = []
    delta = c.comult
    eps = c.counit
    nz = [
        tuple((j, k, delta[i][j][k]) for j in range(n) for k in range(n) if delta[i][j][k])
        for i in range(n)
    ]
    for i in range(n):
        lhs = {}
        rhs = {}
        for j, k, d in nz[i]:
            for a, b, e in nz[j]:
                key = (a, b, k)
                lhs[key] = lhs.get(key, c.field.zero) + d * e
            for a, b, e2 in nz[k]:
                key = (j, a, b)
                rhs[key] = rhs.get(key, c.field.zero) + d * e2
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        if lhs != rhs:
            violations.append(
                Violation("coassociativity", (i,), sorted(lhs.items()), sorted(rhs.items()))
            )
    for i in range(n):
        left = list(vec_zero(c.field, n))
        right = list(vec_zero(c.field, n))
        for j in range(n):
            for k in range(n):
                d = delta[i][j][k]
                if not d:
                    continue
                if eps[j]:
                    left[k] = left[k] + eps[j] * d
                if eps[k]:
                    right[j] = right[j] + eps[k] * d
        e_i = tuple(c.field.one if j == i else c.field.zero for j in range(n))
        if tuple(left) != e_i:
            violations.append(Violation("counit-left", (i,), tuple(left), e_i))
        if tuple(right) != e_i:
            violations.append(Violation("counit-right", (i,), tuple(right), e_i))
    return Verdict(tuple(violations))


def _ref_mult_nz(alg):
    n = alg.dim
    return [
        [tuple((k, c) for k, c in enumerate(alg.mult[i][j]) if c) for j in range(n)]
        for i in range(n)
    ]


def _ref_tensor_square_product(alg, u, v):
    n = alg.dim
    mu_nz = _ref_mult_nz(alg)
    out = list(vec_zero(alg.field, n * n))
    nz_u = [(divmod(p, n), x) for p, x in enumerate(u) if x]
    nz_v = [(divmod(q, n), y) for q, y in enumerate(v) if y]
    for (a, b), x in nz_u:
        for (c, d), y in nz_v:
            xy = x * y
            for m, p in mu_nz[a][c]:
                base = m * n
                cp = xy * p
                for l, q in mu_nz[b][d]:
                    out[base + l] = out[base + l] + cp * q
    return tuple(out)


def _ref_delta2(coa, x):
    n = coa.dim
    out = list(vec_zero(coa.field, n * n * n))
    for idx, c in enumerate(comultiply(coa, x)):
        if not c:
            continue
        j, k = divmod(idx, n)
        for a in range(n):
            for b in range(n):
                d = coa.comult[j][a][b]
                if d:
                    out[a * n * n + b * n + k] = out[a * n * n + b * n + k] + c * d
    return tuple(out)


def ref_verify_weak_bialgebra(alg, coa):
    va = ref_check_algebra(alg)
    if not va.ok:
        return va
    vc = ref_check_coalgebra(coa)
    if not vc.ok:
        return vc
    n = alg.dim
    field = alg.field
    wh1 = []
    for i in range(n):
        di = comultiply(coa, vec_unit(field, n, i))
        for j in range(n):
            dj = comultiply(coa, vec_unit(field, n, j))
            lhs = comultiply(coa, alg.mult[i][j])
            rhs = _ref_tensor_square_product(alg, di, dj)
            if lhs != rhs:
                wh1.append(Violation("WH1", (i, j), lhs, rhs))
    if wh1:
        return Verdict(tuple(wh1))

    d2_one = _ref_delta2(coa, alg.unit)
    d1 = comultiply(coa, alg.unit)
    d1nz = [(divmod(idx, n), c) for idx, c in enumerate(d1) if c]
    mu_nz = _ref_mult_nz(alg)
    a = list(vec_zero(field, n * n * n))
    b = list(vec_zero(field, n * n * n))
    for (j, k), c in d1nz:
        for (jp, kp), cp in d1nz:
            cc = c * cp
            for m, q in mu_nz[k][jp]:
                a[(j * n + m) * n + kp] = a[(j * n + m) * n + kp] + cc * q
            for m, q in mu_nz[jp][k]:
                b[(j * n + m) * n + kp] = b[(j * n + m) * n + kp] + cc * q
    wh2 = []
    if d2_one != tuple(a):
        wh2.append(Violation("WH2", ("first",), d2_one, tuple(a)))
    if d2_one != tuple(b):
        wh2.append(Violation("WH2", ("second",), d2_one, tuple(b)))
    if wh2:
        return Verdict(tuple(wh2))

    eps = coa.counit
    etable = [
        [sum((c * eps[l] for l, c in enumerate(alg.mult[i][j]) if c and eps[l]), field.zero)
         for j in range(n)]
        for i in range(n)
    ]
    delta_nz = [
        tuple((x, y, c) for x, row in enumerate(coa.comult[j]) for y, c in enumerate(row) if c)
        for j in range(n)
    ]
    wh3 = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = field.zero
                for m, c in mu_nz[i][j]:
                    if etable[m][k]:
                        lhs = lhs + c * etable[m][k]
                rhs_i = field.zero
                rhs_ii = field.zero
                for a_idx, b_idx, d in delta_nz[j]:
                    if etable[i][a_idx] and etable[b_idx][k]:
                        rhs_i = rhs_i + d * etable[i][a_idx] * etable[b_idx][k]
                    if etable[i][b_idx] and etable[a_idx][k]:
                        rhs_ii = rhs_ii + d * etable[i][b_idx] * etable[a_idx][k]
                if lhs != rhs_i:
                    wh3.append(Violation("WH3(i)", (i, j, k), lhs, rhs_i))
                if lhs != rhs_ii:
                    wh3.append(Violation("WH3(ii)", (i, j, k), lhs, rhs_ii))
    return Verdict(tuple(wh3))


def ref_verify_antipode(h, s):
    n = h.dim
    field = h.field
    violations = []
    mu = h.mult
    for i in range(n):
        flat = comultiply(h.coa, vec_unit(field, n, i))
        lhs_i = list(vec_zero(field, n))
        lhs_ii = list(vec_zero(field, n))
        for idx, c in enumerate(flat):
            if not c:
                continue
            a, b = divmod(idx, n)
            for l, coef in enumerate(s.col(b)):
                if coef:
                    for m, p in enumerate(mu[a][l]):
                        if p:
                            lhs_i[m] = lhs_i[m] + c * coef * p
            for l, coef in enumerate(s.col(a)):
                if coef:
                    for m, p in enumerate(mu[l][b]):
                        if p:
                            lhs_ii[m] = lhs_ii[m] + c * coef * p
        if tuple(lhs_i) != h.eps_t.col(i):
            violations.append(Violation("WH4(i)", (i,), tuple(lhs_i), h.eps_t.col(i)))
        if tuple(lhs_ii) != h.eps_s.col(i):
            violations.append(Violation("WH4(ii)", (i,), tuple(lhs_ii), h.eps_s.col(i)))
        lhs_iii = list(vec_zero(field, n))
        for idx, c in enumerate(_ref_delta2(h.coa, vec_unit(field, n, i))):
            if not c:
                continue
            a, r = divmod(idx, n * n)
            b, cc = divmod(r, n)
            for l, ca in enumerate(s.col(a)):
                if not ca:
                    continue
                for m, p in enumerate(mu[l][b]):
                    if not p:
                        continue
                    cm = c * ca * p
                    for l2, cb in enumerate(s.col(cc)):
                        if cb:
                            for q, pq in enumerate(mu[m][l2]):
                                if pq:
                                    lhs_iii[q] = lhs_iii[q] + cm * cb * pq
        if tuple(lhs_iii) != s.col(i):
            violations.append(Violation("WH4(iii)", (i,), tuple(lhs_iii), s.col(i)))
    return Verdict(tuple(violations))


# ---------------------------------------------------------------------------
# the corpus

FIELDS = (QQ, GF(2), GF(3), GF(5), GF(1009))


def _cyclic(order, field):
    labels, table = cyclic_group_table(order)
    return group_algebra(labels, table, field)


def _natural(field):
    return {
        "k": preset("k", field),
        "c2": preset("c2", field),
        "C3": _cyclic(3, field),
        "k+C2": direct_sum(preset("k", field), preset("c2", field)),
        "gpd2": preset("gpd2", field),
        "C4": _cyclic(4, field),
        "sum": preset("sum", field),
    }


def _scalar(field, q):
    """The rational q in the field, or 1 where its denominator vanishes there."""
    q = Fraction(q)
    den = field.of(q.denominator)
    return field.of(q.numerator) / den if den else field.one


def rebased(h, cols):
    """(alg, coa, antipode) of h in the basis b'_i = cols[i] (old coordinates)."""
    field, n = h.field, h.dim
    q = inverse(Matrix.from_cols(field, cols, rows=n))
    assert q is not None
    qq = q.kron(q)
    mult = [[q.apply(multiply(h.alg, cols[i], cols[j])) for j in range(n)] for i in range(n)]
    comult = []
    for i in range(n):
        flat = qq.apply(comultiply(h.coa, cols[i]))
        comult.append([flat[j * n:(j + 1) * n] for j in range(n)])
    alg = FiniteAlgebra(field, h.labels, mult, q.apply(h.unit))
    coa = FiniteCoalgebra(field, h.labels, comult, [counit_of(h.coa, c) for c in cols])
    s = None
    if h.antipode is not None:
        s = q.mul(h.antipode).mul(Matrix.from_cols(field, cols, rows=n))
    return alg, coa, s


SCALES = ("2", "-1/3", "3/2", "5", "-7/4", "1/6")


def _scaled_cols(field, n):
    cols = []
    for i in range(n):
        c = _scalar(field, SCALES[i % len(SCALES)])
        if not c:
            c = field.one
        cols.append(tuple(c if t == i else field.zero for t in range(n)))
    return cols


def _unimodular_cols(field, n):
    """Columns of L U with unit triangular +-1 factors, each column then scaled."""
    lower = [[(-1) ** (i + j) if i >= j else 0 for j in range(n)] for i in range(n)]
    upper = [[1 if i <= j else 0 for j in range(n)] for i in range(n)]
    prod = [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    scales = _scaled_cols(field, n)
    return [
        tuple(field.of(prod[r][c]) * scales[c][c] for r in range(n)) for c in range(n)
    ]


def documents(field):
    """(name, alg, coa, antipode) for natural and rebased fixtures."""
    out = []
    for name, h in _natural(field).items():
        out.append((name, h.alg, h.coa, h.antipode))
        out.append((name + "@scaled",) + rebased(h, _scaled_cols(field, h.dim)))
        if h.dim <= 4:
            out.append((name + "@unimodular",) + rebased(h, _unimodular_cols(field, h.dim)))
    return out


def _bumped(tensor, pos, field):
    grid = [[list(row) for row in sl] for sl in tensor]
    i, j, k = pos
    grid[i][j][k] = grid[i][j][k] + field.one
    return grid


def perturbations(alg, coa):
    """The doc with one entry bumped: three positions per tensor, one of unit and counit."""
    field, n = alg.field, alg.dim
    positions = [t for t in product(range(n), repeat=3) if (t[0] + 2 * t[1] + 3 * t[2]) % 5 == 0]
    out = []
    for pos in positions[:3]:
        mult = _bumped(alg.mult, pos, field)
        comult = _bumped(coa.comult, pos, field)
        out.append((FiniteAlgebra(field, alg.labels, mult, alg.unit), coa))
        out.append((alg, FiniteCoalgebra(field, coa.labels, comult, coa.counit)))
    unit = list(alg.unit)
    unit[-1] = unit[-1] + field.one
    counit = list(coa.counit)
    counit[-1] = counit[-1] + field.one
    out.append((FiniteAlgebra(field, alg.labels, alg.mult, unit), coa))
    out.append((alg, FiniteCoalgebra(field, coa.labels, coa.comult, counit)))
    return out


def wh2_pair(field):
    """x^2 = x, Delta(1) = 1x + x1 + 2xx, Delta(x) = xx, eps = (1, 1).

    Over GF(3) this fails (WH2) only; elsewhere it breaks the counit law.
    """
    mult = [[[1, 0], [0, 1]], [[0, 1], [0, 1]]]
    comult = [[[0, 1], [1, 2]], [[0, 0], [0, 1]]]
    return (
        FiniteAlgebra(field, ["1", "x"], mult, [1, 0]),
        FiniteCoalgebra(field, ["1", "x"], comult, [1, 1]),
    )


def null_grouplike_pair(field):
    """x^2 = 0, Delta(x) = x (x) x, eps(x) = 1: fails (WH3) only."""
    mult = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    comult = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    return (
        FiniteAlgebra(field, ["1", "x"], mult, [1, 0]),
        FiniteCoalgebra(field, ["1", "x"], comult, [1, 1]),
    )


def _dual_costructure(alg):
    coa = dual(alg)
    return coa.comult, coa.counit


def _typed(x):
    """x with every scalar paired with its type (a Mod prints like an int)."""
    if isinstance(x, (tuple, list)):
        return tuple(_typed(y) for y in x)
    return (type(x).__name__, repr(x))


def _same(new, ref):
    assert repr(new) == repr(ref)
    for a, b in zip(new.violations, ref.violations):
        assert (_typed(a.lhs), _typed(a.rhs)) == (_typed(b.lhs), _typed(b.rhs))
    return {v.law for v in ref.violations}


ALL_LAWS = {
    "associativity", "unit-left", "unit-right", "coassociativity", "counit-left",
    "counit-right", "WH1", "WH2", "WH3(i)", "WH3(ii)", "WH4(i)", "WH4(ii)", "WH4(iii)",
}


@pytest.fixture(scope="module")
def corpus():
    return {field: documents(field) for field in FIELDS}


def test_lift_round_trip():
    for field in FIELDS:
        data = ((_scalar(field, "3/4"), _scalar(field, "-5")), (field.zero, _scalar(field, "7/6")))
        ints, scale = lift_to_ints(field, data)
        assert all(isinstance(x, int) for row in ints for x in row)
        assert ints_to_field(field, ints, scale) == data
        if field == QQ:
            assert (ints, scale) == (((9, -60), (0, 14)), 12)
        else:
            assert scale == 1 and all(0 <= x < field.characteristic for row in ints for x in row)
    assert lift_to_ints(QQ, ()) == ((), 1)
    assert not ints_differ(0, (1, 2), 2, (3, 6), 6)
    assert ints_differ(0, (1,), 2, (1,), 3)
    assert not ints_differ(5, (7, 0), 1, (2, 5), 1)
    assert ints_differ(5, (7,), 1, (3,), 1)
    assert ints_to_field(QQ, (3, -4), 6) == (Fraction(1, 2), Fraction(-2, 3))
    assert ints_to_field(GF(5), (7, -1), 1) == (GF(5).of(2), GF(5).of(4))


def test_structure_and_axioms_match_reference(corpus):
    seen = set()
    for field, docs in corpus.items():
        pairs = [(alg, coa) for _, alg, coa, _ in docs]
        for name, alg, coa, _ in docs:
            if not name.endswith("@scaled"):
                pairs.extend(perturbations(alg, coa))
        # crossed pairs: each algebra with the coalgebra of the next document
        # of its dimension, and with its own dual coalgebra
        by_dim = {}
        for _, alg, coa, _ in docs:
            by_dim.setdefault(alg.dim, []).append((alg, coa))
        for group in by_dim.values():
            for (alg, _), (_, coa) in zip(group, group[1:] + group[:1]):
                pairs.append((alg, FiniteCoalgebra(field, alg.labels, coa.comult, coa.counit)))
                pairs.append((alg, FiniteCoalgebra(field, alg.labels, *_dual_costructure(alg))))
        pairs.append(null_grouplike_pair(field))
        pairs.append(wh2_pair(field))
        for alg, coa in pairs:
            seen |= _same(check_algebra(alg), ref_check_algebra(alg))
            seen |= _same(check_coalgebra(coa), ref_check_coalgebra(coa))
            seen |= _same(verify_weak_bialgebra(alg, coa), ref_verify_weak_bialgebra(alg, coa))
    assert seen == ALL_LAWS - {"WH4(i)", "WH4(ii)", "WH4(iii)"}


def test_antipodes_match_reference(corpus):
    seen = set()
    for field, docs in corpus.items():
        for name, alg, coa, s in docs:
            if s is None:
                continue
            h = build_weak_bialgebra(alg, coa)
            n = h.dim
            candidates = [s, Matrix.identity(field, n), Matrix.zeros(field, n, n), s.transpose()]
            bump = field.one if field.characteristic == 2 else _scalar(field, "1/2")
            for pos in {n * n // 2, n * n - 1}:
                r, c = divmod(pos, n)
                rows = [list(row) for row in s.entries]
                rows[r][c] = rows[r][c] + bump
                candidates.append(Matrix(field, rows, cols=n))
            for cand in candidates:
                seen |= _same(verify_antipode(h, cand), ref_verify_antipode(h, cand))
            assert verify_antipode(h, s).ok, name
    assert seen == {"WH4(i)", "WH4(ii)", "WH4(iii)"}
