from fractions import Fraction

import pytest

import weakhopf.decomp as decomp_module
from weakhopf.errors import InternalInconsistency, MalformedInput, PreconditionError
from weakhopf.exactla import QQ, GF, Matrix, Mod, Subspace
from weakhopf.structure import FiniteAlgebra, FiniteCoalgebra
from weakhopf.weakbia import WeakBialgebra, build_weak_bialgebra, dualize
from weakhopf.comod import Comodule, regular_comodule, unit_comodule
from weakhopf.decomp import (
    CERT_INDECOMPOSABLE,
    CERT_UNDECIDED,
    LeftModule,
    _split_pieces,
    _verify_comodule_reassembly,
    _verify_reassembly,
    decompose,
    direct_sum,
    is_indecomposable,
    regular_module,
    split_by_idempotent,
    split_comodule,
    split_module,
)
from weakhopf.fixtures import cyclic_group_table, group_algebra, preset
from weakhopf.poly import _coprime_split, _find_roots, _poly_mul
from test_axiom_kernels import rebased


def test_direct_sum_dims_and_subalgebras(c2, gpd2, sum_wba):
    assert sum_wba.dim == 6
    assert sum_wba.hs.dim == 3
    assert sum_wba.ht.dim == 3
    assert sum_wba.blocks is not None
    assert [s.dim for s in sum_wba.blocks.summands] == [2, 4]


def test_direct_sum_counital_formula(sum_wba):
    # eps_t applied to g + f (componentwise) gives 1_{C2} + e2
    x = (Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(1), Fraction(0))
    expected = (Fraction(1), Fraction(0), Fraction(0), Fraction(1), Fraction(0), Fraction(0))
    assert sum_wba.eps_t.apply(x) == expected


def test_direct_sum_rejects_zero_dimensional():
    zero = build_weak_bialgebra(
        FiniteAlgebra(QQ, [], [], []), FiniteCoalgebra(QQ, [], [], [])
    )
    with pytest.raises(PreconditionError):
        direct_sum(preset("k"), zero)


def test_direct_sum_rejects_mixed_fields(c2, z3gf2):
    with pytest.raises(MalformedInput):
        direct_sum(c2, z3gf2)


def test_split_by_idempotent_recovers_summands(sum_wba, c2, gpd2):
    e_c2 = (Fraction(1), Fraction(0)) + (Fraction(0),) * 4
    a, b = split_by_idempotent(sum_wba, e_c2)
    assert a.alg.mult == c2.alg.mult and a.coa.comult == c2.coa.comult
    assert b.alg.mult == gpd2.alg.mult and b.coa.comult == gpd2.coa.comult


def test_split_by_idempotent_rejects_non_central(gpd2):
    with pytest.raises(PreconditionError, match="not central"):
        split_by_idempotent(gpd2, (1, 0, 0, 0))


def test_split_by_idempotent_rejects_trivial(gpd2):
    with pytest.raises(PreconditionError, match="trivial"):
        split_by_idempotent(gpd2, (1, 1, 0, 0))
    with pytest.raises(PreconditionError, match="trivial"):
        split_by_idempotent(gpd2, (0, 0, 0, 0))


@pytest.mark.parametrize(
    "entry", [0.5, "1", Mod(1, 3)], ids=["float", "str", "residue-of-another-prime"]
)
def test_split_by_idempotent_rejects_non_field_entries(sum_wba, entry):
    with pytest.raises(MalformedInput, match="idempotent entry"):
        split_by_idempotent(sum_wba, [entry] * 6)
    with pytest.raises(MalformedInput, match="idempotent entry"):
        split_by_idempotent(sum_wba, (1, 0, 0, 0, 0, entry))


def test_split_by_idempotent_rejects_wrong_length(sum_wba):
    for e in ((1, 0), (1, 0, 0, 0, 0, 0, 0), ()):
        with pytest.raises(MalformedInput, match="length 6"):
            split_by_idempotent(sum_wba, e)


def test_split_by_idempotent_accepts_ints_and_gf_residues(c2):
    a, b = split_by_idempotent(preset("sum"), (1, 0, 0, 0, 0, 0))
    assert (a.dim, b.dim) == (2, 4)
    f5 = GF(5)
    h = direct_sum(preset("c2", f5), preset("gpd2", f5))
    a, b = split_by_idempotent(h, (Mod(1, 5), 0, 0, 0, 0, 0))
    assert (a.dim, b.dim) == (2, 4) and a.field == f5


def test_split_by_idempotent_rejects_non_idempotent(gpd2):
    with pytest.raises(PreconditionError, match="idempotent"):
        split_by_idempotent(gpd2, (0, 0, 1, 0))


def test_decompose_sum(sum_wba):
    rep = decompose(sum_wba)
    assert rep.block_count == 2
    assert sorted(b.dim for b in rep.blocks) == [2, 4]
    assert rep.certificates == (CERT_INDECOMPOSABLE, CERT_INDECOMPOSABLE)
    # block idempotents are the two unit components
    idems = set(rep.block_idempotents)
    one_c2 = (Fraction(1), Fraction(0)) + (Fraction(0),) * 4
    one_gpd2 = (Fraction(0), Fraction(0), Fraction(1), Fraction(1), Fraction(0), Fraction(0))
    assert idems == {one_c2, one_gpd2}


def test_decompose_indecomposables(gpd2, k, z3gf2):
    for h in (gpd2, k, z3gf2):
        rep = decompose(h)
        assert rep.block_count == 1
        assert rep.certificates == (CERT_INDECOMPOSABLE,)
        assert rep.blocks[0].same_tensors(h)
    assert is_indecomposable(gpd2) == "yes"
    assert is_indecomposable(k) == "yes"


def test_decompose_c2_plus_c2(c2):
    rep = decompose(direct_sum(c2, c2))
    assert rep.block_count == 2
    assert [b.dim for b in rep.blocks] == [2, 2]
    for b in rep.blocks:
        assert b.alg.mult == c2.alg.mult


def test_decompose_order_independence(c2, gpd2):
    rep1 = decompose(direct_sum(gpd2, gpd2, c2))
    rep2 = decompose(direct_sum(c2, gpd2, gpd2))
    assert rep1.block_count == rep2.block_count == 3
    assert sorted(b.dim for b in rep1.blocks) == [2, 4, 4]
    key = lambda b: (b.dim, b.alg.mult)
    tensors1 = sorted(((b.alg.mult, b.coa.comult) for b in rep1.blocks))
    tensors2 = sorted(((b.alg.mult, b.coa.comult) for b in rep2.blocks))
    assert tensors1 == tensors2


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
def test_zero_weak_bialgebra_is_the_empty_sum(field):
    # direct_sum rejects zero-dimensional summands, so the zero algebra has no block
    h = build_weak_bialgebra(FiniteAlgebra(field, [], [], []), FiniteCoalgebra(field, [], [], []))
    report = decompose(h)
    assert (report.block_count, report.blocks, report.block_idempotents, report.certificates) == (0, (), (), ())
    assert is_indecomposable(h) == "no"


def test_is_indecomposable_sum(sum_wba):
    assert is_indecomposable(sum_wba) == "no"


def test_block_delta_condition(sum_wba):
    # Delta(e) in eH (x) eH for every block idempotent
    from weakhopf.decomp import _delta_block_condition

    rep = decompose(sum_wba)
    for e in rep.block_idempotents:
        assert _delta_block_condition(sum_wba, e)


def test_left_module_regular_and_split(sum_wba):
    m = regular_module(sum_wba)
    u, v = split_module(sum_wba, m)
    assert (u.dim, v.dim) == (2, 4)
    assert u.over is sum_wba.blocks.summands[0]
    assert v.over is sum_wba.blocks.summands[1]


def test_split_module_zero_piece(sum_wba, gpd2):
    # action factoring through the gpd2 block: 1_{C2} acts as zero
    proj = sum_wba.blocks.projections[1]
    reg_b = regular_module(gpd2)
    actions = []
    for i in range(sum_wba.dim):
        coords = proj.col(i)
        mat = Matrix.zeros(QQ, 4, 4)
        for r, c in enumerate(coords):
            if c:
                mat = mat.add(reg_b.actions[r].scale(c))
        actions.append(mat)
    x = LeftModule(sum_wba, 4, actions)
    u, v = split_module(sum_wba, x)
    assert (u.dim, v.dim) == (0, 4)


def test_split_module_requires_block_data(gpd2):
    m = regular_module(gpd2)
    with pytest.raises(PreconditionError):
        split_module(gpd2, m)


def test_split_comodule_regular(sum_wba, c2, gpd2):
    pieces = split_comodule(sum_wba, regular_comodule(sum_wba))
    assert [p.dim for p in pieces] == [2, 4]
    assert pieces[0].coaction == regular_comodule(c2).coaction
    assert pieces[1].coaction == regular_comodule(gpd2).coaction


def test_split_comodule_unit(sum_wba, c2, gpd2):
    pieces = split_comodule(sum_wba, unit_comodule(sum_wba))
    assert [p.dim for p in pieces] == [1, 2]
    assert pieces[0].coaction == unit_comodule(c2).coaction
    assert pieces[1].coaction == unit_comodule(gpd2).coaction


def test_split_comodule_supported_on_one_block(sum_wba, c2):
    # a comodule landing entirely in the C2 block splits as (m, zero)
    emb = sum_wba.blocks.embeddings[0]
    reg_a = regular_comodule(c2)
    n = sum_wba.dim
    rows = [[Fraction(0)] * 2 for _ in range(2 * n)]
    for i in range(2):
        for (a, j), coef in reg_a.coact_nonzeros(i):
            for jj, x in enumerate(emb.col(j)):
                if x:
                    rows[a * n + jj][i] = coef * x
    from weakhopf.comod import Comodule

    com = Comodule(sum_wba, 2, Matrix(QQ, rows, cols=2))
    pieces = split_comodule(sum_wba, com)
    assert [p.dim for p in pieces] == [2, 0]


def test_coprime_split_flags_nonlinear_leftover():
    # (t - 1)(t^2 + 1): one rational root, an irreducible leftover
    one = Fraction(1)
    poly = [-one, one, -one, one]  # t^3 - t^2 + t - 1
    factors, leftover = _coprime_split(QQ, poly)
    assert factors == [[-one, one]]
    assert leftover == [one, Fraction(0), one]


def test_split_pieces_reports_undecided():
    # Q[Z/4] with the full group line as the search space: minimal
    # polynomial t^4 - 1 = (t-1)(t+1)(t^2+1) splits off two certified
    # pieces and one that cannot be decided by rational roots
    labels, table = cyclic_group_table(4)
    h = group_algebra(labels, table, QQ)
    k_space = Subspace(QQ, 4, [tuple(Fraction(1 if i == j else 0) for i in range(4)) for j in range(4)])
    pieces = _split_pieces(h, k_space)
    assert len(pieces) == 3
    assert sorted(p.certified for p in pieces) == [False, True, True]


def test_decompose_over_gf2(z3gf2):
    rep = decompose(z3gf2)
    assert rep.block_count == 1
    assert rep.certificates == (CERT_INDECOMPOSABLE,)


def test_decompose_sum_over_large_prime_field():
    # roots come from gcd(f, x^p - x) and equal-degree splitting
    rep = decompose(preset("sum", GF(1009)))
    assert rep.block_count == 2
    assert rep.certificates == (CERT_INDECOMPOSABLE, CERT_INDECOMPOSABLE)


@pytest.mark.parametrize("p", [2, 3, 5, 997, 1009, 7919])
def test_find_roots_over_prime_fields(p):
    # (t - 3)^2 (t - 5)(t^2 - 2) * 7: distinct roots, sorted, nothing else
    f = GF(p)
    poly = [f.of(7)]
    for factor in ([-3, 1], [-3, 1], [-5, 1], [-2, 0, 1]):
        poly = _poly_mul(f, poly, [f.of(c) for c in factor])
    roots = _find_roots(f, poly)
    expected = sorted({3 % p, 5 % p} | {v for v in range(p) if (v * v - 2) % p == 0})
    assert [r.value for r in roots] == expected


def test_decompose_sum_over_gf5(c2):
    f5 = GF(5)
    a = preset("c2", f5)
    b = preset("gpd2", f5)
    rep = decompose(direct_sum(a, b))
    assert rep.block_count == 2
    assert sorted(bl.dim for bl in rep.blocks) == [2, 4]


# ---------------------------------------------------------------------------
# the reassembly checks compare h with the pieces themselves, so a bad piece
# is caught by the law it breaks


def _block_change(rep):
    """The block basis of a decomposition: its embeddings side by side."""
    h = rep.weak_bialgebra
    cols = [c for emb in rep.embeddings for c in emb.column_list()]
    return Matrix.from_cols(h.field, cols, rows=h.dim)


def _forged(block, alg=None, coa=None):
    """block with its algebra or coalgebra replaced, past every check."""
    eps = {"t": block.eps_t, "s": block.eps_s, "t'": block.eps_t_prime, "s'": block.eps_s_prime}
    return WeakBialgebra(alg or block.alg, coa or block.coa, eps, block.ht, block.hs)


def test_reassembly_accepts_the_blocks_of_decompose(sum_wba):
    rep = decompose(sum_wba)
    assert [b.dim for b in rep.blocks] == [4, 2]
    _verify_reassembly(sum_wba, rep.blocks, _block_change(rep))


def test_reassembly_catches_blocks_in_the_wrong_order(sum_wba):
    rep = decompose(sum_wba)
    with pytest.raises(InternalInconsistency, match="reassembled multiplication differs"):
        _verify_reassembly(sum_wba, rep.blocks[::-1], _block_change(rep))


def test_reassembly_catches_a_valid_block_of_another_structure(sum_wba, k):
    rep = decompose(sum_wba)
    gpd2_block, c2_block = rep.blocks
    # the dual of gpd2 is commutative: another algebra on the same dimension
    with pytest.raises(InternalInconsistency, match="reassembled multiplication differs"):
        _verify_reassembly(sum_wba, (dualize(gpd2_block), c2_block), _block_change(rep))
    # k + k in the basis 1, e_1 - e_2 has the algebra of Q[C2] and another coalgebra
    alg, coa, _ = rebased(direct_sum(k, k), [(1, 1), (1, -1)])
    kk = build_weak_bialgebra(alg, coa)
    assert kk.alg.mult == c2_block.alg.mult and kk.alg.unit == c2_block.alg.unit
    with pytest.raises(InternalInconsistency, match="reassembled comultiplication differs"):
        _verify_reassembly(sum_wba, (gpd2_block, kk), _block_change(rep))


def test_reassembly_catches_a_scaled_unit_or_counit(sum_wba):
    rep = decompose(sum_wba)
    gpd2_block, c2_block = rep.blocks
    b = c2_block
    alg = FiniteAlgebra(QQ, b.labels, b.mult, [2 * x for x in b.unit])
    with pytest.raises(InternalInconsistency, match="reassembled unit differs"):
        _verify_reassembly(sum_wba, (gpd2_block, _forged(b, alg=alg)), _block_change(rep))
    coa = FiniteCoalgebra(QQ, b.labels, b.comult, [2 * x for x in b.counit])
    with pytest.raises(InternalInconsistency, match="reassembled counit differs"):
        _verify_reassembly(sum_wba, (gpd2_block, _forged(b, coa=coa)), _block_change(rep))


def test_reassembly_catches_bases_that_do_not_span(sum_wba):
    rep = decompose(sum_wba)
    cols = rep.embeddings[0].column_list()
    change = Matrix.from_cols(QQ, cols + cols[:2], rows=sum_wba.dim)
    with pytest.raises(InternalInconsistency, match="block bases do not span"):
        _verify_reassembly(sum_wba, rep.blocks, change)


def test_comodule_reassembly_catches_a_piece_with_another_coaction(sum_wba):
    reg = regular_comodule(sum_wba)
    data = sum_wba.blocks
    pieces = split_comodule(sum_wba, reg)
    # in the natural basis the pieces of the regular comodule span the blocks
    spaces = [Subspace(QQ, sum_wba.dim, emb.column_list()) for emb in data.embeddings]
    _verify_comodule_reassembly(sum_wba, reg, data, pieces, spaces)
    # C2 coacting trivially, m -> m (x) 1: a valid comodule of the same dimension
    trivial = Comodule(data.summands[0], 2, Matrix(QQ, [[1, 0], [0, 0], [0, 1], [0, 0]], cols=2))
    assert not trivial.same_structure(pieces[0])
    with pytest.raises(InternalInconsistency, match="comodule reassembly differs"):
        _verify_comodule_reassembly(sum_wba, reg, data, (trivial, pieces[1]), spaces)
    with pytest.raises(InternalInconsistency, match="piece bases do not span"):
        _verify_comodule_reassembly(sum_wba, reg, data, pieces, [spaces[0], spaces[0]])


def test_decompose_builds_each_block_once_and_no_direct_sum(monkeypatch, c2, gpd2):
    h = direct_sum(gpd2, gpd2, c2)
    built = []
    build = decomp_module.build_weak_bialgebra

    def counting_build(alg, coa):
        built.append(alg.dim)
        return build(alg, coa)

    def no_direct_sum(*summands):
        raise AssertionError("direct_sum called")

    monkeypatch.setattr(decomp_module, "build_weak_bialgebra", counting_build)
    monkeypatch.setattr(decomp_module, "direct_sum", no_direct_sum)
    rep = decompose(h)
    assert sorted(b.dim for b in rep.blocks) == sorted(built) == [2, 4, 4]
    built.clear()
    split_by_idempotent(h, rep.block_idempotents[0])
    assert len(built) == 2
