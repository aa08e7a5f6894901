"""Acceptance gate: one test per criterion, exact checks, pinned runtimes.

Every expected value here is exact (zero tolerance); each test prints one
pass/fail line.  The witness oracle re-evaluates a reported law at its
witness through plain multiply/comultiply compositions, independently of
the checker's internal loops.
"""

import json
import pathlib
import time
from fractions import Fraction

import pytest

from product_reference import comultiply, counit_of, multiply
from weakhopf.cli import main as cli_main
from weakhopf.comod import (
    associator,
    memoized_associator,
    check_lemma25,
    check_pentagon,
    check_triangle,
    regular_comodule,
    tensor_over_source,
    unit_comodule,
    unitors,
)
from weakhopf.decomp import (
    CERT_INDECOMPOSABLE,
    decompose,
    direct_sum,
    regular_module,
    split_comodule,
    split_module,
)
from weakhopf.errors import AxiomViolation
from weakhopf.exactla import QQ, Matrix, vec_unit
from weakhopf.fixtures import enumerate_automorphisms, preset
from weakhopf.structure import FiniteAlgebra, FiniteCoalgebra
from weakhopf.tannaka import functor_from_map, reconstruct_weak_bialgebra_map
from weakhopf.weakbia import (
    build_weak_bialgebra,
    lemma_suite,
    verify_antipode,
    verify_weak_bialgebra,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _report(num, name, t0, bound):
    elapsed = time.perf_counter() - t0
    if elapsed < bound:
        outcome = f"PASS ({elapsed:.2f} s < {bound} s)"
    else:
        outcome = f"FAIL ({elapsed:.2f} s >= {bound} s)"
    print(f"ACCEPTANCE {num} {name}: {outcome}", flush=True)
    assert elapsed < bound, f"criterion {num} exceeded its {bound} s budget"


# ---------------------------------------------------------------------------
# independent witness oracle


def _basis(field, n, i):
    return vec_unit(field, n, i)


def _tensor_mult(alg, u, v):
    """Product in H (x) H evaluated through multiply on decomposed legs."""
    n = alg.dim
    out = [alg.field.zero] * (n * n)
    for p in range(n * n):
        if not u[p]:
            continue
        a, b = divmod(p, n)
        for q in range(n * n):
            if not v[q]:
                continue
            c, d = divmod(q, n)
            left = multiply(alg, _basis(alg.field, n, a), _basis(alg.field, n, c))
            right = multiply(alg, _basis(alg.field, n, b), _basis(alg.field, n, d))
            coeff = u[p] * v[q]
            for m, x in enumerate(left):
                if not x:
                    continue
                for l, y in enumerate(right):
                    if y:
                        out[m * n + l] = out[m * n + l] + coeff * x * y
    return tuple(out)


def witness_violates(alg, coa, violation, antipode=None) -> bool:
    """Re-evaluate the named law at the witness; True if it indeed fails."""
    field = alg.field
    n = alg.dim
    e = lambda i: _basis(field, n, i)
    law, w = violation.law, violation.witness
    if law == "associativity":
        i, j, k = w
        return multiply(alg, multiply(alg, e(i), e(j)), e(k)) != multiply(
            alg, e(i), multiply(alg, e(j), e(k))
        )
    if law in ("unit-left", "unit-right"):
        (i,) = w
        got = (
            multiply(alg, alg.unit, e(i))
            if law == "unit-left"
            else multiply(alg, e(i), alg.unit)
        )
        return got != e(i)
    if law == "coassociativity":
        (i,) = w
        flat = comultiply(coa, e(i))
        lhs = {}
        rhs = {}
        for idx, c in enumerate(flat):
            if not c:
                continue
            a, b = divmod(idx, n)
            for jdx, d in enumerate(comultiply(coa, e(a))):
                if d:
                    x, y = divmod(jdx, n)
                    lhs[(x, y, b)] = lhs.get((x, y, b), field.zero) + c * d
            for jdx, d in enumerate(comultiply(coa, e(b))):
                if d:
                    x, y = divmod(jdx, n)
                    rhs[(a, x, y)] = rhs.get((a, x, y), field.zero) + c * d
        return {k: v for k, v in lhs.items() if v} != {k: v for k, v in rhs.items() if v}
    if law in ("counit-left", "counit-right"):
        (i,) = w
        flat = comultiply(coa, e(i))
        acc = [field.zero] * n
        for idx, c in enumerate(flat):
            if not c:
                continue
            a, b = divmod(idx, n)
            if law == "counit-left":
                acc[b] = acc[b] + c * coa.counit[a]
            else:
                acc[a] = acc[a] + c * coa.counit[b]
        return tuple(acc) != e(i)
    if law == "WH1":
        i, j = w
        lhs = comultiply(coa, multiply(alg, e(i), e(j)))
        rhs = _tensor_mult(alg, comultiply(coa, e(i)), comultiply(coa, e(j)))
        return lhs != rhs
    if law == "WH2":
        # Delta^2(1) against (Delta(1) (x) 1)(1 (x) Delta(1)) for "first" and
        # (1 (x) Delta(1))(Delta(1) (x) 1) for "second", as vectors of H^(x)3
        (side,) = w
        one = comultiply(coa, alg.unit)
        d2 = {}
        for idx, c in enumerate(one):
            if not c:
                continue
            a, b = divmod(idx, n)
            for jdx, d in enumerate(comultiply(coa, e(a))):
                if d:
                    x, y = divmod(jdx, n)
                    d2[(x, y, b)] = d2.get((x, y, b), field.zero) + c * d
        prod = {}
        for idx, c in enumerate(one):
            for jdx, d in enumerate(one):
                if not (c and d):
                    continue
                a, b = divmod(idx, n)
                x, y = divmod(jdx, n)
                # first: 1_(1) (x) 1_(2) 1'_(1) (x) 1'_(2)
                # second: 1_(1) (x) 1'_(1) 1_(2) (x) 1'_(2)
                mid = multiply(alg, e(b), e(x)) if side == "first" else multiply(alg, e(x), e(b))
                for m, v in enumerate(mid):
                    if v:
                        prod[(a, m, y)] = prod.get((a, m, y), field.zero) + c * d * v
        return {k: v for k, v in d2.items() if v} != {k: v for k, v in prod.items() if v}
    if law in ("WH3(i)", "WH3(ii)"):
        i, j, k = w
        eps = lambda v: counit_of(coa, v)
        lhs = eps(multiply(alg, multiply(alg, e(i), e(j)), e(k)))
        rhs = field.zero
        flat = comultiply(coa, e(j))
        for idx, c in enumerate(flat):
            if not c:
                continue
            a, b = divmod(idx, n)
            if law == "WH3(i)":
                rhs = rhs + c * eps(multiply(alg, e(i), e(a))) * eps(multiply(alg, e(b), e(k)))
            else:
                rhs = rhs + c * eps(multiply(alg, e(i), e(b))) * eps(multiply(alg, e(a), e(k)))
        return lhs != rhs
    if law in ("WH4(i)", "WH4(ii)", "WH4(iii)"):
        (i,) = w
        s = antipode
        flat = comultiply(coa, e(i))
        if law == "WH4(iii)":
            acc = [field.zero] * n
            for idx, c in enumerate(flat):
                if not c:
                    continue
                a, b = divmod(idx, n)
                for jdx, d in enumerate(comultiply(coa, e(a))):
                    if not d:
                        continue
                    x, y = divmod(jdx, n)
                    term = multiply(
                        alg,
                        multiply(alg, s.col(x), _basis(field, n, y)),
                        s.col(b),
                    )
                    for m, v in enumerate(term):
                        acc[m] = acc[m] + c * d * v
            return tuple(acc) != s.col(i)
        acc = [field.zero] * n
        for idx, c in enumerate(flat):
            if not c:
                continue
            a, b = divmod(idx, n)
            term = (
                multiply(alg, e(a), s.col(b))
                if law == "WH4(i)"
                else multiply(alg, s.col(a), e(b))
            )
            for m, v in enumerate(term):
                acc[m] = acc[m] + c * v
        # compare with the counital map evaluated from the raw structure
        d1 = comultiply(coa, alg.unit)
        target = [field.zero] * n
        eps = lambda v: counit_of(coa, v)
        for idx, c in enumerate(d1):
            if not c:
                continue
            j, k = divmod(idx, n)
            if law == "WH4(i)":
                coeff = c * eps(multiply(alg, e(j), e(i)))
                target[k] = target[k] + coeff
            else:
                coeff = c * eps(multiply(alg, e(i), e(k)))
                target[j] = target[j] + coeff
        return tuple(acc) != tuple(target)
    raise AssertionError(f"unknown law {law!r}")


GPD2_PERTURBATIONS = (
    [("mult", (i, j, k)) for (i, j, k) in [
        (0, 0, 0), (0, 0, 1), (1, 1, 1), (2, 0, 2), (2, 3, 1), (3, 2, 0),
        (1, 2, 2), (3, 1, 3), (0, 3, 3), (2, 2, 2),
    ]]
    + [("comult", (i, j, k)) for (i, j, k) in [
        (0, 0, 0), (2, 2, 2), (3, 3, 3), (1, 0, 1), (2, 3, 2),
    ]]
    + [("counit", (0,)), ("counit", (2,))]
    + [("unit", (1,))]
    + [("antipode", (2, 2)), ("antipode", (0, 1))]
)


def test_criterion_1_axiom_suite(k, c2, gpd2, sum_wba, z3gf2):
    t0 = time.perf_counter()
    for h in (k, c2, gpd2, sum_wba, z3gf2):
        assert verify_weak_bialgebra(h.alg, h.coa).ok
    assert verify_antipode(gpd2, gpd2.antipode).ok
    assert verify_antipode(c2, c2.antipode).ok

    assert len(GPD2_PERTURBATIONS) == 20
    for target, pos in GPD2_PERTURBATIONS:
        mult = [[list(r) for r in sl] for sl in gpd2.mult]
        comult = [[list(r) for r in sl] for sl in gpd2.comult]
        counit = list(gpd2.counit)
        unit = list(gpd2.unit)
        antipode = [list(r) for r in gpd2.antipode.entries]
        bump = Fraction(1)
        if target == "mult":
            i, j, kk = pos
            mult[i][j][kk] = mult[i][j][kk] + bump
        elif target == "comult":
            i, j, kk = pos
            comult[i][j][kk] = comult[i][j][kk] + bump
        elif target == "counit":
            counit[pos[0]] = counit[pos[0]] + bump
        elif target == "unit":
            unit[pos[0]] = unit[pos[0]] + bump
        else:
            i, j = pos
            antipode[i][j] = antipode[i][j] + bump
        alg = FiniteAlgebra(QQ, gpd2.labels, mult, unit)
        coa = FiniteCoalgebra(QQ, gpd2.labels, comult, counit)
        if target == "antipode":
            verdict = verify_antipode(gpd2, Matrix(QQ, antipode))
        else:
            verdict = verify_weak_bialgebra(alg, coa)
        assert not verdict.ok, (target, pos)
        first = verdict.violations[0]
        assert witness_violates(alg, coa, first, Matrix(QQ, antipode)), (target, pos, first.law)
    _report(1, "axiom-suite", t0, 1.0)


def test_criterion_2_lemma_suite(k, c2, gpd2, sum_wba, z3gf2):
    t0 = time.perf_counter()
    for h in (k, c2, gpd2, sum_wba, z3gf2):
        verdict = lemma_suite(h)
        assert verdict.ok, verdict.describe()
    _report(2, "lemma-suite", t0, 1.0)


def test_criterion_3_monoidal_category(gpd2):
    t0 = time.perf_counter()
    reg = regular_comodule(gpd2)
    un = unit_comodule(gpd2)
    uu = tensor_over_source(un, un)
    assert uu.dim == 2
    ru = tensor_over_source(reg, un)
    objs = [un, reg, ru]

    for com in objs:
        l, l_inv, r, r_inv = unitors(com)
        for m in (l, l_inv, r, r_inv):
            assert m.is_isomorphism()
        assert check_lemma25(com).ok

    memo = {}
    for a in objs:
        for b in objs:
            for c in objs:
                assoc = memoized_associator(memo, a, b, c)
                assert assoc.is_isomorphism()
            assert check_triangle(a, b, memo).ok
    for a in objs:
        for b in objs:
            for c in objs:
                for d in objs:
                    assert check_pentagon(a, b, c, d, memo).ok
    _report(3, "monoidal-category", t0, 5.0)


def test_criterion_4_reconstruction(gpd2, c2):
    t0 = time.perf_counter()
    for h in (gpd2, c2):
        autos = enumerate_automorphisms(h)
        reg = regular_comodule(h)
        un = unit_comodule(h)
        ru = tensor_over_source(reg, un)
        for auto in autos:
            fd = functor_from_map(auto, [reg, un, ru])
            res = reconstruct_weak_bialgebra_map(fd)
            assert res.ok, res.first_failing_layer()
            assert res.phi == auto.matrix
            for name, verdict in res.layers:
                assert verdict.ok, name
    autos = enumerate_automorphisms(gpd2)
    assert len(autos) == 2
    reg = regular_comodule(gpd2)
    from weakhopf.tannaka import induced_coaction

    tables = [induced_coaction(a.matrix, reg, gpd2) for a in autos]
    assert tables[0] != tables[1]
    _report(4, "reconstruction-round-trip", t0, 2.0)


def test_criterion_5_decomposition(c2, gpd2, sum_wba):
    t0 = time.perf_counter()
    rep = decompose(sum_wba)
    assert rep.block_count == 2
    assert sorted(b.dim for b in rep.blocks) == [2, 4]
    assert rep.fully_certified

    rep_a = decompose(direct_sum(gpd2, gpd2, c2))
    rep_b = decompose(direct_sum(c2, gpd2, gpd2))
    assert rep_a.block_count == rep_b.block_count == 3
    assert sorted(b.dim for b in rep_a.blocks) == [2, 4, 4]
    tensors_a = sorted((b.alg.mult, b.coa.comult) for b in rep_a.blocks)
    tensors_b = sorted((b.alg.mult, b.coa.comult) for b in rep_b.blocks)
    assert tensors_a == tensors_b

    single = decompose(gpd2)
    assert single.block_count == 1
    assert single.certificates == (CERT_INDECOMPOSABLE,)

    # reassembly is tensor-exact: block tensors are the originals
    by_dim = {b.dim: b for b in rep.blocks}
    assert by_dim[2].alg.mult == c2.alg.mult and by_dim[2].coa.comult == c2.coa.comult
    assert by_dim[4].alg.mult == gpd2.alg.mult and by_dim[4].coa.comult == gpd2.coa.comult
    _report(5, "decomposition", t0, 2.0)


def test_criterion_6_splitting_functors(sum_wba, c2, gpd2):
    t0 = time.perf_counter()
    mod = regular_module(sum_wba)
    u, v = split_module(sum_wba, mod)
    assert (u.dim, v.dim) == (2, 4)
    pieces = split_comodule(sum_wba, regular_comodule(sum_wba))
    assert [p.dim for p in pieces] == [2, 4]
    assert pieces[0].coaction == regular_comodule(c2).coaction
    assert pieces[1].coaction == regular_comodule(gpd2).coaction
    _report(6, "prop-4.2-splitting", t0, 1.0)


def test_criterion_7_duality(k, c2, gpd2, sum_wba, z3gf2):
    from weakhopf.weakbia import dualize

    t0 = time.perf_counter()
    rational = [k, c2, gpd2, sum_wba]
    duals = {id(h): dualize(h) for h in rational + [z3gf2]}
    pairs = [(a, b) for a in rational for b in rational] + [(z3gf2, z3gf2)]
    for a, b in pairs:
        lhs = dualize(direct_sum(a, b))
        rhs = direct_sum(duals[id(a)], duals[id(b)])
        assert lhs.alg.mult == rhs.alg.mult
        assert lhs.coa.comult == rhs.coa.comult
        assert lhs.alg.unit == rhs.alg.unit
        assert lhs.coa.counit == rhs.coa.counit
    for h in rational + [z3gf2]:
        assert dualize(duals[id(h)]).same_tensors(h)
    _report(7, "duality", t0, 1.0)


def test_criterion_8_cli(capsys, monkeypatch):
    t0 = time.perf_counter()
    monkeypatch.chdir(GOLDEN)

    def run(argv):
        code = cli_main(argv)
        return code, capsys.readouterr().out

    for name, fname in [
        ("k", "k.wba.json"),
        ("c2", "c2.wba.json"),
        ("gpd2", "gpd2.wba.json"),
        ("sum", "sum.wba.json"),
        ("z3@gf2", "z3gf2.wba.json"),
    ]:
        code, out = run(["fixture", name])
        assert code == 0 and out == (GOLDEN / fname).read_text(encoding="utf-8")
    for argv, fname in [
        (["check", "gpd2.wba.json"], "check_gpd2.txt"),
        (["counital", "gpd2.wba.json"], "counital_gpd2.txt"),
        (["lemmas", "c2.wba.json"], "lemmas_c2.txt"),
        (["decompose", "sum.wba.json"], "decompose_sum.txt"),
        (["dsum", "c2.wba.json", "gpd2.wba.json"], "sum.wba.json"),
        (["dualize", "gpd2.wba.json"], "gpd2_dual.wba.json"),
        (
            ["reconstruct", "gpd2.wba.json", "gpd2.wba.json", "swap_functor.json"],
            "reconstruct_swap.txt",
        ),
    ]:
        code, out = run(argv)
        assert code == 0 and out == (GOLDEN / fname).read_text(encoding="utf-8")

    code, _ = run(["check", "gpd2_broken.wba.json"])
    assert code == 1
    code, _ = run(["check", "truncated.wba.json"])
    assert code == 2
    code, _ = run(["reconstruct", "gpd2.wba.json", "gpd2.wba.json", "corrupt_functor.json"])
    assert code == 1
    _report(8, "cli-golden-and-exit-codes", t0, 2.0)
