from fractions import Fraction

import pytest

from weakhopf.errors import AxiomViolation, MalformedInput
from weakhopf.exactla import GF, QQ, Matrix
from weakhopf.fixtures import preset
from weakhopf.structure import FiniteAlgebra, FiniteCoalgebra, dual
from weakhopf.weakbia import (
    build_weak_bialgebra,
    counital,
    dualize,
    lemma_suite,
    solve_antipode,
    verify_antipode,
    verify_weak_bialgebra,
)


def e(n, i):
    return tuple(Fraction(1) if t == i else Fraction(0) for t in range(n))


def idempotent_monoid_bialgebra():
    """Monoid algebra of {1, x} with x^2 = x, x group-like: no antipode."""
    mult = [[[1, 0], [0, 1]], [[0, 1], [0, 1]]]
    comult = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    alg = FiniteAlgebra(QQ, ["1", "x"], mult, [1, 0])
    coa = FiniteCoalgebra(QQ, ["1", "x"], comult, [1, 1])
    return build_weak_bialgebra(alg, coa)


def test_fixtures_pass_axioms(k, c2, gpd2, sum_wba, z3gf2):
    # construction already verifies; the dims of the counital subalgebras
    # are the expected ones
    assert (k.ht.dim, k.hs.dim) == (1, 1)
    assert (c2.ht.dim, c2.hs.dim) == (1, 1)
    assert (gpd2.ht.dim, gpd2.hs.dim) == (2, 2)
    assert (sum_wba.ht.dim, sum_wba.hs.dim) == (3, 3)
    assert (z3gf2.ht.dim, z3gf2.hs.dim) == (1, 1)


def test_counital_values_gpd2(gpd2):
    f = e(4, 2)
    assert counital(gpd2, "s", f) == e(4, 0)  # identity at the source of f: 1 -> 2
    assert counital(gpd2, "t", f) == e(4, 1)  # identity at the target
    assert counital(gpd2, "t'", f) == e(4, 0)
    assert counital(gpd2, "s'", f) == e(4, 1)
    with pytest.raises(MalformedInput):
        counital(gpd2, "q", f)


def test_counital_ordinary_bialgebra(c2):
    g = e(2, 1)
    assert counital(c2, "t", g) == e(2, 0)  # eps_t(x) = eps(x) 1
    assert counital(c2, "s", g) == e(2, 0)


def test_counital_maps_idempotent(gpd2, sum_wba):
    for h in (gpd2, sum_wba):
        assert h.eps_t.mul(h.eps_t) == h.eps_t
        assert h.eps_s.mul(h.eps_s) == h.eps_s


def test_build_rejects_broken_counit(gpd2):
    counit = [Fraction(1)] * 4
    counit[2] = Fraction(0)  # eps(f) = 0 breaks the counit law first
    coa = FiniteCoalgebra(QQ, gpd2.labels, gpd2.comult, counit)
    verdict = verify_weak_bialgebra(gpd2.alg, coa)
    assert not verdict.ok
    assert {v.law for v in verdict.violations} <= {"counit-left", "counit-right"}
    with pytest.raises(AxiomViolation):
        build_weak_bialgebra(gpd2.alg, coa)


def test_wh1_violation_detected(c2):
    # group algebra of Z/2 paired with its dual (function) coalgebra:
    # Delta(b1)^2 = 2 (b0 (x) b0 + b1 (x) b1) != Delta(b1 b1) over Q
    coa = dual(c2.alg)
    verdict = verify_weak_bialgebra(c2.alg, coa)
    assert not verdict.ok
    assert all(v.law == "WH1" for v in verdict.violations)
    assert (1, 1) in {v.witness for v in verdict.violations}


def test_wh3_violation_detected():
    # null group-like: x^2 = 0 with Delta(x) = x (x) x and eps(x) = 1 passes
    # the structure laws, WH1 and WH2, but eps(x.1.x) = 0 while
    # eps(x.1)eps(1.x) = 1, so WH3 fires at the triple (x, 1, x)
    mult = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    comult = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    alg = FiniteAlgebra(QQ, ["1", "x"], mult, [1, 0])
    coa = FiniteCoalgebra(QQ, ["1", "x"], comult, [1, 1])
    verdict = verify_weak_bialgebra(alg, coa)
    assert not verdict.ok
    assert {v.law for v in verdict.violations} == {"WH3(i)", "WH3(ii)"}
    assert (1, 0, 1) in {v.witness for v in verdict.violations}


def test_wh2_violation_detected():
    # x^2 = x, Delta(x) = x (x) x, Delta(1) = 1 (x) x + x (x) 1 + 2 x (x) x and
    # eps = (1, 1) over GF(3) pass the structure laws and WH1, but Delta^2(1)
    # = 1xx + x1x + xx1 + xxx while both products of Delta(1) (x) 1 and
    # 1 (x) Delta(1) give 1x1 + x1x + 2 xxx (the algebra is commutative)
    from test_acceptance import witness_violates

    f = GF(3)
    mult = [[[1, 0], [0, 1]], [[0, 1], [0, 1]]]
    comult = [[[0, 1], [1, 2]], [[0, 0], [0, 1]]]
    alg = FiniteAlgebra(f, ["1", "x"], mult, [1, 0])
    coa = FiniteCoalgebra(f, ["1", "x"], comult, [1, 1])
    verdict = verify_weak_bialgebra(alg, coa)
    assert [(v.law, v.witness) for v in verdict.violations] == [
        ("WH2", ("first",)),
        ("WH2", ("second",)),
    ]
    d2_one = tuple(f.of(x) for x in (0, 0, 0, 1, 0, 1, 1, 1))
    product = tuple(f.of(x) for x in (0, 0, 1, 0, 0, 1, 0, 2))
    for v in verdict.violations:
        assert (v.lhs, v.rhs) == (d2_one, product)
        assert witness_violates(alg, coa, v)
    # the oracle rejects a (WH2) witness where the law holds
    assert not witness_violates(preset("gpd2").alg, preset("gpd2").coa, verdict.violations[0])
    with pytest.raises(AxiomViolation):
        build_weak_bialgebra(alg, coa)


def test_lemma_suite_all_fixtures(k, c2, gpd2, sum_wba, z3gf2):
    for h in (k, c2, gpd2, sum_wba, z3gf2):
        verdict = lemma_suite(h)
        assert verdict.ok, verdict.describe()


def test_lemma_suite_dual_fixtures(c2, gpd2, sum_wba):
    for h in (c2, gpd2, sum_wba):
        verdict = lemma_suite(dualize(h))
        assert verdict.ok, verdict.describe()


def test_ordinary_bialgebra_degeneration(c2, z3gf2):
    # H_s = H_t = k 1 and eps_t(x) = eps(x) 1 for ordinary bialgebras
    for h in (c2, z3gf2):
        assert h.hs.basis == (tuple(h.unit),)
        assert h.ht.basis == (tuple(h.unit),)
        for i in range(h.dim):
            expected = tuple(h.counit[i] * u for u in h.unit)
            assert h.eps_t.col(i) == expected


def test_verify_antipode_canonical(gpd2, c2):
    assert verify_antipode(gpd2, gpd2.antipode).ok
    assert verify_antipode(c2, c2.antipode).ok
    assert c2.antipode == Matrix.identity(QQ, 2)


def test_verify_antipode_rejects_identity_on_gpd2(gpd2):
    verdict = verify_antipode(gpd2, Matrix.identity(QQ, 4))
    assert not verdict.ok
    first = verdict.violations[0]
    assert first.law == "WH4(i)"
    assert first.witness == (2,)  # x = f


def test_antipode_uniqueness_on_fixtures(gpd2, c2):
    # every kernel direction of the (i)+(ii) system breaks (WH4)(iii), so
    # no second matrix passes the full verification
    for i, j in [(2, 2), (3, 3), (0, 1), (1, 0)]:
        perturbed = [list(r) for r in gpd2.antipode.entries]
        perturbed[i][j] = perturbed[i][j] + Fraction(1)
        assert not verify_antipode(gpd2, Matrix(QQ, perturbed)).ok
    res = solve_antipode(c2)
    assert res.status == "found" and res.matrix == c2.antipode


def test_solve_antipode_undetermined_on_gpd2(gpd2):
    # for each arrow a there is a basis element z with a z = z a = 0, so
    # the (WH4)(i)+(ii) linear system leaves one free direction per arrow
    res = solve_antipode(gpd2)
    assert res.status == "undetermined"
    assert res.solution_space_dim == 4


def test_solve_antipode_none_for_idempotent_monoid():
    h = idempotent_monoid_bialgebra()
    assert lemma_suite(h).ok
    res = solve_antipode(h)
    assert res.status == "none"


def test_dualize_round_trip(gpd2, c2, sum_wba, z3gf2):
    for h in (gpd2, c2, sum_wba, z3gf2):
        assert dualize(dualize(h)).same_tensors(h)


def test_dualize_c2_passes_axioms(c2):
    d = dualize(c2)
    assert lemma_suite(d).ok
    assert d.alg.mult == dual(c2.coa).mult


def test_dualize_gpd2_source_dim(gpd2):
    assert dualize(gpd2).hs.dim == 2


def test_build_requires_matching_fields(c2, z3gf2):
    with pytest.raises(MalformedInput):
        verify_weak_bialgebra(c2.alg, z3gf2.coa)


def test_delta_one_in_hs_tensor_ht(gpd2, sum_wba):
    # eq (2-4) is verified inside the lemma suite; spot-check the raw data
    from weakhopf.weakbia import _delta_one_in

    for h in (gpd2, sum_wba):
        assert _delta_one_in(h, h.hs, h.ht)
