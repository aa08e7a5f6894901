import pathlib
from fractions import Fraction

import pytest

import weakhopf.comod as comod
import weakhopf.serialize as serialize
import weakhopf.tannaka as tannaka
from weakhopf.errors import InternalInconsistency, MalformedInput
from weakhopf.exactla import QQ, Matrix, inverse
from weakhopf.comod import (
    ComoduleMap,
    comodule_hom_basis,
    regular_comodule,
    tensor_over_source,
    unit_comodule,
)
from weakhopf.fixtures import cyclic_group_table, enumerate_automorphisms, group_algebra, preset
from weakhopf.tannaka import (
    FunctorData,
    WeakBialgebraMap,
    _phi_s_matrix,
    check_isomorphism,
    check_map,
    comonoidal_structure,
    functor_from_map,
    induced_coaction,
    induced_functor,
    induced_map,
    map_verdict,
    reconstruct_coalgebra_map,
    reconstruct_weak_bialgebra_map,
)


def swap_matrix():
    return Matrix(QQ, [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])


def standard_comodules(h):
    reg = regular_comodule(h)
    un = unit_comodule(h)
    return [reg, un, tensor_over_source(reg, un)]


def test_check_map_identity_and_swap(gpd2):
    ident, v = check_map(Matrix.identity(QQ, 4), gpd2, gpd2)
    assert ident is not None and v.ok
    swap, v = check_map(swap_matrix(), gpd2, gpd2)
    assert swap is not None and v.ok


def test_check_map_zero_on_arrows_fails(gpd2):
    phi = Matrix(QQ, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    bmap, verdict = check_map(phi, gpd2, gpd2)
    assert bmap is None
    laws = {v.law for v in verdict.violations}
    assert "counit mismatch" in laws  # eps(0) = 0 != eps(f) = 1


def test_unit_inclusion_is_a_map(k, c2):
    phi = Matrix(QQ, [[1], [0]])
    bmap, verdict = check_map(phi, k, c2)
    assert bmap is not None, verdict.describe()
    assert not check_isomorphism(bmap).is_isomorphism


def test_induced_functor_identity_and_swap(gpd2):
    reg = regular_comodule(gpd2)
    ident = WeakBialgebraMap(gpd2, gpd2, Matrix.identity(QQ, 4))
    assert induced_functor(ident, reg).coaction == reg.coaction
    swap = WeakBialgebraMap(gpd2, gpd2, swap_matrix())
    ind = induced_functor(swap, reg)
    # rho(f) = f (x) g: row 2*4 + 3 of column 2
    col = ind.coaction.col(2)
    assert col[2 * 4 + 3] == 1 and sum(1 for x in col if x) == 1


def test_induced_functor_composition(gpd2):
    reg = regular_comodule(gpd2)
    swap = WeakBialgebraMap(gpd2, gpd2, swap_matrix())
    twice = swap.compose(swap)
    lhs = induced_functor(twice, reg)
    rhs = induced_functor(swap, induced_functor(swap, reg))
    assert lhs.coaction == rhs.coaction


def test_induced_functor_preserves_maps(gpd2):
    reg = regular_comodule(gpd2)
    swap = WeakBialgebraMap(gpd2, gpd2, swap_matrix())
    for m in comodule_hom_basis(reg, reg):
        f = ComoduleMap(reg, reg, m)
        induced_map(swap, f)  # constructor verifies the comodule-map law


def test_comonoidal_structure_identity(gpd2):
    ident = WeakBialgebraMap(gpd2, gpd2, Matrix.identity(QQ, 4))
    u = unit_comodule(gpd2)
    assert comonoidal_structure(ident, tensor_over_source(u, u)).ok
    assert inverse(ident.source_restriction()) is not None


def test_comonoidal_structure_swap_bijective(gpd2):
    swap = WeakBialgebraMap(gpd2, gpd2, swap_matrix())
    u = unit_comodule(gpd2)
    assert comonoidal_structure(swap, tensor_over_source(u, u)).ok
    assert inverse(swap.source_restriction()) is not None


def test_perturbed_target_coaction_breaks_the_comodule_map_law(gpd2, monkeypatch):
    swap = WeakBialgebraMap(gpd2, gpd2, swap_matrix())
    t = tensor_over_source(regular_comodule(gpd2), unit_comodule(gpd2))
    real = tannaka._quotient_coaction

    def doubled(*args):
        """The target side with one entry of its last coaction column doubled."""
        cols, scale = real(*args)
        cols[-1][min(r for r, x in cols[-1].items() if x)] *= 2
        return cols, scale

    monkeypatch.setattr(tannaka, "_quotient_coaction", doubled)
    verdict = comonoidal_structure(swap, t)
    assert [(v.law, v.witness) for v in verdict.violations] == [("comodule map law", (t.dim - 1,))]


def test_non_multiplicative_coalgebra_map_is_caught_by_the_algebra_layer():
    """The comonoidal layer is decided from the earlier ones, so a table whose phi
    breaks multiplicativity (g^0, g^1, g^2 -> g^0, g^1, g^1 on C3: unital and a
    coalgebra map, but g . g -> g^1 != g^2) must fail first at `algebra-map`."""
    c3 = group_algebra(*cyclic_group_table(3), QQ)
    phi = Matrix(QQ, [[1, 0, 0], [0, 1, 1], [0, 0, 0]])
    reg, un = regular_comodule(c3), unit_comodule(c3)
    comods = [reg, un, tensor_over_source(reg, un)]
    fd = FunctorData(c3, c3, [(m, induced_coaction(phi, m, c3)) for m in comods], _phi_s_matrix(phi, c3, c3))
    rec = reconstruct_weak_bialgebra_map(fd)
    assert rec.first_failing_layer() == "algebra-map" and rec.bialgebra_map is None
    assert [name for name, v in rec.layers if not v.ok] == ["algebra-map", "comonoidal-structure"]
    assert {v.law for v in rec.layer("algebra-map").violations} == {"not multiplicative"}
    assert [v.law for v in rec.layer("comonoidal-structure").violations] == ["skipped: earlier layer failed"]


def test_forged_map_breaking_the_counit_raises(gpd2):
    # 2 phi is multiplicative only up to a factor, and eps_K(2 x . 2 y) = 4 eps_H(x y)
    forged = object.__new__(WeakBialgebraMap)
    for slot, value in (("source", gpd2), ("target", gpd2), ("matrix", swap_matrix().scale(QQ.of(2))),
                        ("_eps_pairs_agree", None)):
        object.__setattr__(forged, slot, value)
    u = unit_comodule(gpd2)
    t = tensor_over_source(u, u)
    for _ in range(2):  # decided once, and raised on every use
        with pytest.raises(InternalInconsistency):
            comonoidal_structure(forged, t)
    assert forged._eps_pairs_agree is False


def test_reconstruct_builds_no_tensor_product_or_comodule(monkeypatch):
    """Reading swap_functor.json builds the one tensor product over H_s its comodule
    names ask for, and verifies comodules over the source only; reconstructing it
    then builds no tensor product and verifies no comodule."""
    golden = pathlib.Path(__file__).parent / "golden"
    h, _ = serialize.wba_from_document(serialize.parse_text((golden / "gpd2.wba.json").read_text()))
    k, _ = serialize.wba_from_document(serialize.parse_text((golden / "gpd2.wba.json").read_text()))
    doc = serialize.parse_text((golden / "swap_functor.json").read_text())
    tensors, verified = [], []
    real_tensor, real_init = comod.tensor_over_source, comod.Comodule.__init__
    for mod in (comod, serialize):  # a product built any other way still runs Comodule.__init__
        monkeypatch.setattr(mod, "tensor_over_source", lambda a, b: tensors.append(a.over) or real_tensor(a, b))
    monkeypatch.setattr(comod.Comodule, "__init__",
                        lambda self, over, dim, rho: verified.append(over) or real_init(self, over, dim, rho))
    fd = serialize.functor_from_document(doc, h, {}, k)
    named = sum([a["comodule"].count("*") for a in doc["assignments"]])
    assert len(tensors) == named == 1
    assert verified and all(over is h for over in verified + tensors)
    read = len(verified)
    res = reconstruct_weak_bialgebra_map(fd)
    assert res.ok
    assert len(tensors) == named == 1
    assert len(verified) == read


def test_comonoidal_structure_unit_inclusion(k, c2):
    phi = WeakBialgebraMap(k, c2, Matrix(QQ, [[1], [0]]))
    u = unit_comodule(k)
    assert comonoidal_structure(phi, tensor_over_source(u, u)).ok
    assert inverse(phi.source_restriction()) is not None  # dim-1 source and target


def test_reconstruct_identity_on_c2(c2):
    ident = WeakBialgebraMap(c2, c2, Matrix.identity(QQ, 2))
    fd = functor_from_map(ident, standard_comodules(c2))
    res = reconstruct_weak_bialgebra_map(fd)
    assert res.ok
    assert res.phi == Matrix.identity(QQ, 2)
    assert res.bialgebra_map is not None


def test_reconstruct_swap_round_trip(gpd2):
    swap = WeakBialgebraMap(gpd2, gpd2, swap_matrix())
    fd = functor_from_map(swap, standard_comodules(gpd2))
    res = reconstruct_weak_bialgebra_map(fd)
    assert res.ok
    assert res.phi == swap_matrix()
    assert [name for name, _ in res.layers] == [
        "comodule-validity",
        "coalgebra-map",
        "functor-equality",
        "comodule-map-property",
        "algebra-map",
        "unit-morphism",
        "source-bijectivity",
        "comonoidal-structure",
    ]


def test_reconstruct_requires_regular_assignment(gpd2):
    u = unit_comodule(gpd2)
    fd = FunctorData(gpd2, gpd2, [(u, u.coaction)], Matrix.identity(QQ, 2))
    with pytest.raises(MalformedInput):
        reconstruct_weak_bialgebra_map(fd)


def test_trivial_coaction_table_reconstructs_trivial_map(c2):
    # rho^F(1) = 1 (x) 1, rho^F(g) = g (x) 1 is the functor table of the
    # coalgebra map phi(x) = eps(x) 1, which is even a weak bialgebra map
    # for a group algebra; every layer passes with that phi
    reg = regular_comodule(c2)
    rho = Matrix(
        QQ,
        [
            [1, 0],  # (1, 1) components of the two columns
            [0, 0],
            [0, 1],  # g column: g (x) 1
            [0, 0],
        ],
    )
    fd = FunctorData(c2, c2, [(reg, rho)], Matrix.identity(QQ, 1))
    res = reconstruct_coalgebra_map(fd)
    assert res.ok
    assert res.phi == Matrix(QQ, [[1, 1], [0, 0]])
    full = reconstruct_weak_bialgebra_map(fd)
    assert full.ok


def test_changed_module_leg_fails_comodule_validity(c2):
    # rho^F(g) = 1 (x) g is not coassociative over the target
    reg = regular_comodule(c2)
    rho = Matrix(QQ, [[1, 0], [0, 1], [0, 0], [0, 0]])
    fd = FunctorData(c2, c2, [(reg, rho)], Matrix.identity(QQ, 1))
    res = reconstruct_coalgebra_map(fd)
    assert not res.ok
    assert res.first_failing_layer() == "comodule-validity"


def test_mismatched_assignment_fails_functor_equality(gpd2):
    swap = WeakBialgebraMap(gpd2, gpd2, swap_matrix())
    ident = WeakBialgebraMap(gpd2, gpd2, Matrix.identity(QQ, 4))
    reg = regular_comodule(gpd2)
    un = unit_comodule(gpd2)
    fd = FunctorData(
        gpd2,
        gpd2,
        [
            (reg, induced_coaction(swap.matrix, reg, gpd2)),
            (un, induced_coaction(ident.matrix, un, gpd2)),
        ],
        swap.source_restriction(),
    )
    res = reconstruct_weak_bialgebra_map(fd)
    assert not res.ok
    assert res.first_failing_layer() == "functor-equality"
    witnesses = {v.witness for v in res.layer("functor-equality").violations}
    assert all(w[0] == 1 for w in witnesses)  # the unit assignment mismatches


def test_coalgebra_only_map_fails_algebra_layer(gpd2):
    # e_i -> e_i, f <-> g is a coalgebra map but not multiplicative:
    # phi(f g) = e2 while phi(f) phi(g) = g f = e1
    phi = Matrix(QQ, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    comods = standard_comodules(gpd2)
    assignments = [(m, induced_coaction(phi, m, gpd2)) for m in comods]
    fd = FunctorData(gpd2, gpd2, assignments, Matrix.identity(QQ, 2))
    res = reconstruct_weak_bialgebra_map(fd)
    assert not res.ok
    assert res.first_failing_layer() == "algebra-map"
    violations = res.layer("algebra-map").violations
    assert ("not multiplicative", (2, 3)) in {(v.law, v.witness) for v in violations}
    # the earlier coalgebra layers all pass
    for name in ("comodule-validity", "coalgebra-map", "functor-equality",
                 "comodule-map-property"):
        assert res.layer(name).ok


def test_wrong_unit_map_fails_unit_layer(gpd2):
    swap = WeakBialgebraMap(gpd2, gpd2, swap_matrix())
    fd0 = functor_from_map(swap, standard_comodules(gpd2))
    fd = FunctorData(
        gpd2, gpd2, fd0.assignments, Matrix.identity(QQ, 2)  # should be the swap
    )
    res = reconstruct_weak_bialgebra_map(fd)
    assert not res.ok
    assert res.first_failing_layer() == "unit-morphism"


def test_reconstruction_round_trip_all_automorphisms(gpd2, c2):
    for h in (gpd2, c2):
        for auto in enumerate_automorphisms(h):
            fd = functor_from_map(auto, standard_comodules(h))
            res = reconstruct_weak_bialgebra_map(fd)
            assert res.ok
            assert res.phi == auto.matrix


def test_uniqueness_distinct_maps_distinct_tables(gpd2):
    reg = regular_comodule(gpd2)
    autos = enumerate_automorphisms(gpd2)
    assert len(autos) == 2
    tables = [induced_coaction(a.matrix, reg, gpd2) for a in autos]
    assert tables[0] != tables[1]


def test_remark_32_for_reconstructed_maps(gpd2):
    # Delta_K . phi = (phi (x) id) . rho^F on the regular assignment
    swap = WeakBialgebraMap(gpd2, gpd2, swap_matrix())
    fd = functor_from_map(swap, standard_comodules(gpd2))
    res = reconstruct_weak_bialgebra_map(fd)
    assert res.layer("comodule-map-property").ok


def test_check_isomorphism(gpd2, k, c2):
    swap = WeakBialgebraMap(gpd2, gpd2, swap_matrix())
    iso = check_isomorphism(swap)
    assert iso.is_isomorphism
    assert iso.inverse.matrix == swap_matrix()
    ident = WeakBialgebraMap(gpd2, gpd2, Matrix.identity(QQ, 4))
    assert check_isomorphism(ident).is_isomorphism
    incl = WeakBialgebraMap(k, c2, Matrix(QQ, [[1], [0]]))
    assert not check_isomorphism(incl).is_isomorphism


def test_map_verdict_counital_containment(gpd2, c2):
    # a matrix that is an algebra and coalgebra map keeps H_s inside K_s;
    # spot-check that the verdict includes containment checks by feeding a
    # shape-compatible non-map and confirming those laws can fire
    phi = Matrix(QQ, [[0, 0, 0, 0]] * 4)
    verdict = map_verdict(phi, gpd2, gpd2)
    assert not verdict.ok


def test_functor_document_builds_each_leaf_once(gpd2, monkeypatch):
    import weakhopf.serialize as serialize

    built = []
    for name in ("regular_comodule", "unit_comodule"):
        real = getattr(serialize, name)
        monkeypatch.setattr(serialize, name, lambda h, real=real, name=name: built.append(name) or real(h))
    ident = WeakBialgebraMap(gpd2, gpd2, Matrix.identity(QQ, gpd2.dim))
    names = ["regular", "unit", "regular*unit", "unit*regular", "unit*unit"]
    fd = functor_from_map(ident, [serialize.resolve_comodule(gpd2, {}, e) for e in names])
    doc = serialize.document_from_functor(fd, names)
    built.clear()
    parsed = serialize.functor_from_document(doc, gpd2, {}, gpd2)
    assert sorted(built) == ["regular_comodule", "unit_comodule"]
    regular, unit = parsed.assignments[0][0], parsed.assignments[1][0]
    assert parsed.assignments[2][0].factors == (regular, unit)
    assert parsed.assignments[3][0].factors == (unit, regular)
    assert [m.coaction for m, _ in parsed.assignments] == [m.coaction for m, _ in fd.assignments]
    assert reconstruct_weak_bialgebra_map(parsed).ok
    # a second document builds its own leaves: nothing is kept between documents
    serialize.functor_from_document(doc, gpd2, {}, gpd2)
    assert len(built) == 4
