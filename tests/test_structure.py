from fractions import Fraction

import pytest

from weakhopf.errors import MalformedInput, PreconditionError
from weakhopf.exactla import QQ, Subspace
from weakhopf.structure import (
    FiniteAlgebra,
    FiniteCoalgebra,
    center,
    check_algebra,
    check_coalgebra,
    comultiply,
    coopposite,
    counit_of,
    dual,
    multiply,
    opposite,
)


def one_dim_field_algebra():
    return FiniteAlgebra(QQ, ["1"], [[[1]]], [1])


def c2_coalgebra():
    # group-like basis (1, g): Delta(x) = x (x) x, eps = 1
    comult = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    return FiniteCoalgebra(QQ, ["1", "g"], comult, [1, 1])


def gpd2_algebra_from_table(table):
    labels = ["e1", "e2", "f", "g"]
    idx = {lab: i for i, lab in enumerate(labels)}
    n = 4
    mult = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (a, b), c in table.items():
        mult[idx[a]][idx[b]][idx[c]] = 1
    return FiniteAlgebra(QQ, labels, mult, [1, 1, 0, 0])


def brute_force_associativity(a):
    """Independent oracle: evaluate both bracketings on all basis triples."""
    n = a.dim
    bad = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                e = lambda m: tuple(
                    a.field.one if t == m else a.field.zero for t in range(n)
                )
                lhs = multiply(a, multiply(a, e(i), e(j)), e(k))
                rhs = multiply(a, e(i), multiply(a, e(j), e(k)))
                if lhs != rhs:
                    bad.append((i, j, k))
    return bad


def test_check_algebra_one_dim():
    assert check_algebra(one_dim_field_algebra()).ok


def test_check_algebra_gpd2(gpd2_table, gpd2):
    a = gpd2_algebra_from_table(gpd2_table)
    assert check_algebra(a).ok
    assert brute_force_associativity(a) == []
    # the generated fixture uses the very same structure constants
    assert gpd2.alg.mult == a.mult
    assert gpd2.alg.unit == a.unit


def test_check_algebra_reports_violations(gpd2_table):
    a = gpd2_algebra_from_table(gpd2_table)
    broken = [
        [list(row) for row in sl] for sl in a.mult
    ]
    broken[2][3] = [0, 0, 0, 0]  # zero out f.g
    b = FiniteAlgebra(QQ, a.labels, broken, a.unit)
    verdict = check_algebra(b)
    assert not verdict.ok
    witnesses = {v.witness for v in verdict.violations if v.law == "associativity"}
    assert witnesses == set(map(tuple, brute_force_associativity(b)))


def test_check_coalgebra_passes():
    assert check_coalgebra(c2_coalgebra()).ok
    one = FiniteCoalgebra(QQ, ["1"], [[[1]]], [1])
    assert check_coalgebra(one).ok


def test_check_coalgebra_counit_failure():
    c = c2_coalgebra()
    broken = FiniteCoalgebra(QQ, c.labels, c.comult, [0, 0])
    verdict = check_coalgebra(broken)
    assert not verdict.ok
    assert all(v.law in ("counit-left", "counit-right") for v in verdict.violations)


def test_multiply_composition_table(gpd2, gpd2_table):
    labels = gpd2.labels
    idx = {lab: i for i, lab in enumerate(labels)}
    e = lambda m: tuple(Fraction(1) if t == m else Fraction(0) for t in range(4))
    for a_lab in labels:
        for b_lab in labels:
            got = multiply(gpd2.alg, e(idx[a_lab]), e(idx[b_lab]))
            want_lab = gpd2_table.get((a_lab, b_lab))
            want = e(idx[want_lab]) if want_lab else (Fraction(0),) * 4
            assert got == want
    # the specific sanity values: g.f = e1, f.g = e2
    assert multiply(gpd2.alg, e(3), e(2)) == e(0)
    assert multiply(gpd2.alg, e(2), e(3)) == e(1)


def test_multiply_unit_is_identity(gpd2):
    for i in range(gpd2.dim):
        e = tuple(Fraction(1) if t == i else Fraction(0) for t in range(gpd2.dim))
        assert multiply(gpd2.alg, tuple(gpd2.unit), e) == e


def test_comultiply_group_like():
    c = c2_coalgebra()
    g = (Fraction(0), Fraction(1))
    flat = comultiply(c, g)
    # g (x) g sits at index 1*2 + 1
    assert flat == (Fraction(0), Fraction(0), Fraction(0), Fraction(1))


def test_dual_double_is_identity(gpd2):
    coa = gpd2.coa
    assert dual(dual(coa)) == coa
    alg = gpd2.alg
    assert dual(dual(alg)) == alg


def test_dual_of_group_like_coalgebra_is_function_algebra():
    a = dual(c2_coalgebra())
    # transpose of Delta(x) = x (x) x: two orthogonal idempotents
    assert a.mult == (
        (((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))),
        (((Fraction(0), Fraction(0)), (Fraction(0), Fraction(1)))),
    )
    assert a.unit == (Fraction(1), Fraction(1))
    assert check_algebra(a).ok


def test_dual_one_dim():
    a = one_dim_field_algebra()
    assert dual(dual(a)) == a


def test_opposite_involution(gpd2):
    assert opposite(opposite(gpd2.alg)) == gpd2.alg
    assert check_algebra(opposite(gpd2.alg)).ok


def test_opposite_preserves_validity_verdict(gpd2):
    # check_algebra(opposite(a)) passes iff check_algebra(a) passes
    broken_mult = [[list(r) for r in sl] for sl in gpd2.alg.mult]
    broken_mult[2][3] = [0, 0, 0, 0]
    bad = FiniteAlgebra(QQ, gpd2.labels, broken_mult, gpd2.alg.unit)
    assert not check_algebra(bad).ok
    assert not check_algebra(opposite(bad)).ok


def test_opposite_commutative_fixed():
    c2_alg = dual(c2_coalgebra())
    assert opposite(c2_alg) == c2_alg


def test_coopposite_involution_and_cocommutative():
    c = c2_coalgebra()
    assert coopposite(c) == c
    assert coopposite(coopposite(c)) == c


def test_center_commutative_is_everything():
    a = dual(c2_coalgebra())
    assert center(a).dim == 2


def test_center_gpd2_is_span_of_unit(gpd2):
    # GPD2 is the 2x2 matrix algebra; its center is the scalars e1 + e2
    z = center(gpd2.alg)
    assert z == Subspace(QQ, 4, [(1, 1, 0, 0)])


def test_center_one_dim():
    assert center(one_dim_field_algebra()).dim == 1


def test_center_contains_unit(gpd2, c2, sum_wba):
    for h in (gpd2, c2, sum_wba):
        assert center(h.alg).contains(tuple(h.unit))


def test_center_requires_valid_algebra():
    bad = FiniteAlgebra(QQ, ["1", "x"], [[[0, 1], [0, 0]], [[0, 0], [0, 1]]], [1, 0])
    with pytest.raises(PreconditionError):
        center(bad)


def test_tensor_shape_validation():
    with pytest.raises(MalformedInput):
        FiniteAlgebra(QQ, ["a", "b"], [[[1]]], [1, 0])
    with pytest.raises(MalformedInput):
        multiply(one_dim_field_algebra(), (Fraction(1),), (Fraction(1), Fraction(0)))


def test_counit_of_checks_length(sum_wba):
    # a short vector was once cut to its length by zip and read as eps(b_0)
    assert counit_of(sum_wba.coa, (1,) * 6) == 6
    for bad in ((1,), (1,) * 7, ()):
        with pytest.raises(MalformedInput, match="coalgebra dimension"):
            counit_of(sum_wba.coa, bad)
        with pytest.raises(MalformedInput, match="coalgebra dimension"):
            comultiply(sum_wba.coa, bad)
