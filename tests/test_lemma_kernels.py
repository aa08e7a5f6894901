"""The int-table lemma suite against the field-scalar loop it replaced.

`lemma_reference.ref_lemma_suite` is the earlier `Fraction`/`Mod` loop of
`weakbia.lemma_suite`.  Both run on every instance of the corpus and must
return repr-identical verdicts (the same law, witness and both sides, with
the same scalar types) or raise the same error:

* the fixtures k, C2, C3, gpd2, gpd3, S3, sum and C3 over GF(2), in their
  natural basis and in a unimodular-scrambled one, over five fields;
* forged instances made with the internal `WeakBialgebra(...)` constructor:
  valid structure with swapped, bumped or trivial counital maps, wrong H_t
  and H_s, or a bad antipode;
* pre-structures that are not weak bialgebras (crossed, perturbed and small
  GF(2) pairs) with their counital maps computed by the usual formulas.

Every identity is a theorem for a weak bialgebra, so only forgeries fail.
Some identities cannot fail first: eq (2-3) is 2.1(2) at x = 1 when 1 is a
unit, and eq (2-4) follows from the coideal and unit checks of 2.3(3)(ii).
No instance found fails first at 2.1 "especially", 2.2(2), (3) or (5), the
closure checks of 2.3(3)(ii), 2.3(4) or the (H_op) subspace identities; for
those only passing verdicts are compared.
"""

from fractions import Fraction
from itertools import permutations
from random import Random

import pytest

from lemma_reference import ref_lemma_suite
from test_axiom_kernels import (
    FIELDS,
    _cyclic,
    _unimodular_cols,
    null_grouplike_pair,
    perturbations,
    rebased,
    wh2_pair,
)
from weakhopf.decomp import direct_sum
from weakhopf.errors import ToolkitError
from weakhopf.exactla import (
    GF,
    QQ,
    Matrix,
    Subspace,
    column_space,
    ints_rank,
    lift_to_ints,
    rank,
)
from weakhopf.fixtures import group_algebra, groupoid_algebra, indiscrete_groupoid, preset
from weakhopf.structure import FiniteAlgebra, FiniteCoalgebra, dual
from weakhopf.weakbia import WeakBialgebra, _counital_matrices, build_weak_bialgebra, lemma_suite


def _symmetric3(field):
    perms = list(permutations(range(3)))
    labels = ["".join(map(str, p)) for p in perms]
    table = {}
    for a, pa in zip(labels, perms):
        for b, pb in zip(labels, perms):
            table[(a, b)] = "".join(str(pa[pb[i]]) for i in range(3))
    return group_algebra(labels, table, field)


def fixtures(field):
    return {
        "k": preset("k", field),
        "c2": preset("c2", field),
        "C3": _cyclic(3, field),
        "gpd2": preset("gpd2", field),
        "gpd3": groupoid_algebra(indiscrete_groupoid(3), field),
        "S3": _symmetric3(field),
        "sum": preset("sum", field),
    }


def documents(field):
    """(name, weak bialgebra) in the natural and a unimodular-scrambled basis."""
    out = []
    named = fixtures(field)
    if field == GF(2):
        named["z3gf2"] = preset("z3@gf2")
    for name, h in named.items():
        out.append((name, h))
        alg, coa, s = rebased(h, _unimodular_cols(field, h.dim))
        g = build_weak_bialgebra(alg, coa)
        out.append((name + "@unimodular", g if s is None else g.with_antipode(s)))
    return out


def _outcome(suite, h):
    """(repr of the verdict or the error raised, the first failing law or None)."""
    try:
        verdict = suite(h)
    except ToolkitError as exc:
        return f"{type(exc).__name__}: {exc}", type(exc).__name__
    return repr(verdict), verdict.violations[0].law if verdict.violations else None


def _first_law(h):
    """Run both suites on h, require identical outcomes, return the failing law."""
    new, ref = _outcome(lemma_suite, h), _outcome(ref_lemma_suite, h)
    assert new[0] == ref[0]
    return ref[1]


def _bumped(m: Matrix, r: int, c: int) -> Matrix:
    rows = [list(row) for row in m.entries]
    rows[r][c] = rows[r][c] + m.field.one
    return Matrix(m.field, rows, cols=m.cols)


def forgeries(h):
    """h's structure with one counital map, H_t/H_s or the antipode replaced."""
    field, n = h.field, h.dim
    eps = {"t": h.eps_t, "s": h.eps_s, "t'": h.eps_t_prime, "s'": h.eps_s_prime}
    ident, zero = Matrix.identity(field, n), Matrix.zeros(field, n, n)
    out = []
    for kind, m in eps.items():
        swaps = [other for k, other in eps.items() if k != kind]
        for rep in [ident, zero, _bumped(m, 0, n - 1), _bumped(m, n - 1, 0)] + swaps:
            forged = dict(eps, **{kind: rep})
            out.append(WeakBialgebra(h.alg, h.coa, forged, h.ht, h.hs, h.antipode))
    spaces = [h.ht, h.hs, column_space(ident), Subspace(field, n), Subspace(field, n, [h.unit])]
    for ht in spaces:
        for hs in spaces:
            out.append(WeakBialgebra(h.alg, h.coa, eps, ht, hs, h.antipode))
    if h.antipode is not None:
        for s in (ident, _bumped(h.antipode, 0, 0)):
            out.append(WeakBialgebra(h.alg, h.coa, eps, h.ht, h.hs, s))
    return out


def pre_structure(alg, coa, ht=None, hs=None):
    """alg and coa with the counital maps of the usual formulas, whatever the axioms."""
    eps = _counital_matrices(alg, coa)
    spaces = {k: column_space(m) for k, m in eps.items()}
    n = alg.dim
    spaces["one"] = Subspace(alg.field, n, [alg.unit])
    spaces["full"] = column_space(Matrix.identity(alg.field, n))
    return WeakBialgebra(alg, coa, eps, spaces[ht or "t"], spaces[hs or "s"])


def crossed_and_perturbed(field):
    docs = {
        "c2": preset("c2", field),
        "C3": _cyclic(3, field),
        "C4": _cyclic(4, field),
        "gpd2": preset("gpd2", field),
        "k+C2": direct_sum(preset("k", field), preset("c2", field)),
    }
    pairs = []
    for a, b in (("gpd2", "C4"), ("C4", "gpd2"), ("C3", "k+C2"), ("k+C2", "C3")):
        h, g = docs[a], docs[b]
        pairs.append((h.alg, FiniteCoalgebra(field, h.labels, g.comult, g.counit)))
    for name in ("c2", "C3", "gpd2", "k+C2"):
        pairs += perturbations(docs[name].alg, docs[name].coa)
    pairs += [null_grouplike_pair(field), wh2_pair(field)]
    return [pre_structure(alg, coa) for alg, coa in pairs]


# Pre-structures over GF(2) on three basis vectors: an algebra A and the dual
# coalgebra of an algebra B, each given by its constants m[i][j][k] as 27
# bits and its unit as 3 bits, then the names of H_t and H_s among the column
# spaces of the computed counital maps, span(1) ("one") and k^3 ("full").
GF2_PAIRS = (
    ("100010001010100001001001000", "100", "100010001010010001001001011", "100", "t", "s"),
    ("100010001010000010001010100", "100", "000100000100010001000001000", "010", "full", "one"),
    ("100100111100010001100001010", "010", "100111100000010010100010001", "001", "one", "full"),
    ("100100100111001010100010001", "001", "001010100111010010100010001", "001", "t", "s"),
    ("100010001010001010001010001", "100", "100010001010000010001010011", "100", "full", "full"),
    ("000000100000000010100010001", "001", "100010100010110010100010001", "001", "t", "full"),
    ("000100000100010001000001000", "010", "100100000100010001000001001", "010", "t", "t'"),
    ("100010001010010001001001000", "100", "100100000100010001000001000", "010", "t", "s"),
)


def _gf2_algebra(bits, unit):
    f = GF(2)
    vals = [int(b) for b in bits]
    mult = [[vals[(i * 3 + j) * 3:(i * 3 + j) * 3 + 3] for j in range(3)] for i in range(3)]
    return FiniteAlgebra(f, ["a", "b", "c"], mult, [int(b) for b in unit])


def gf2_pre_structures():
    out = []
    for a_bits, a_unit, b_bits, b_unit, ht, hs in GF2_PAIRS:
        coa = dual(_gf2_algebra(b_bits, b_unit))
        out.append(pre_structure(_gf2_algebra(a_bits, a_unit), coa, ht, hs))
    return out


SECTIONS = {
    "2.1": ("2.1", "eq(2-3)"),
    "2.2": ("2.2",),
    "2.3": ("2.3(1)", "2.3(2)", "2.3(3)"),
    "op/cop/opcop": ("op ", "(eps_", "(H_"),
    "antipode": ("antipode",),
}


def _section(law):
    return next(name for name, prefixes in SECTIONS.items() if law.startswith(prefixes))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_documents_match_reference(field):
    for name, h in documents(field):
        assert _first_law(h) is None, name


def test_failures_match_reference():
    laws = set()
    for field in FIELDS[:3]:
        for name in ("k", "c2", "gpd2", "sum"):
            for g in forgeries(preset(name, field)):
                laws.add(_first_law(g))
        for g in crossed_and_perturbed(field):
            laws.add(_first_law(g))
    for g in gf2_pre_structures():
        laws.add(_first_law(g))
    laws.discard(None)
    assert {_section(law) for law in laws} == set(SECTIONS)
    assert laws >= {
        "2.1(1) eps_t idempotent", "2.1(1) eps_s idempotent", "2.1(2)(i)", "2.1(2)(ii)",
        "eq(2-3) target side", "2.1(3)(i)", "2.2(1) t", "2.2(4) t", "2.2(4) s", "2.3(1)",
        "2.3(2)", "2.3(3)(i)", "2.3(3)(ii) H_t left coideal", "2.3(3)(ii) H_s right coideal",
        "2.3(3)(ii) H_t unital", "2.3(3)(ii) H_s unital", "op variant axioms",
        "(eps_op)_t = eps_t'", "(eps_op)_s = eps_s'", "antipode of opcop",
    }


def test_int_helpers_match_field_arithmetic():
    """ints_rank, Matrix.from_int_cols / col_ints and Subspace.contains_ints."""
    rng = Random(11)
    for field in FIELDS:
        of = field.of
        for _ in range(40):
            rows, cols = rng.randrange(1, 7), rng.randrange(1, 5)
            grid = [
                [of(rng.choice((0, 0, 1, -2, 3))) / of(rng.choice((1, 1, 7))) for _ in range(cols)]
                for _ in range(rows)
            ]
            m = Matrix(field, grid, cols=cols)
            ints, scale = lift_to_ints(field, m.entries)
            assert ints_rank(field.characteristic, ints) == rank(m)
            k = 1 if field.characteristic else 7
            built = Matrix.from_int_cols(field, [{r: k * x for r, x in enumerate(c)} for c in zip(*ints)],
                                         k * scale, rows)
            assert built == m and built.col_ints() == m.col_ints()
            lifted, s = m.col_ints()
            back = [[(r, Fraction(v, s) if field == QQ else of(v)) for r, v in c] for c in lifted]
            assert back == [list(c) for c in m.col_nz()]
            space = Subspace(field, cols, grid[1:])
            v, _ = lift_to_ints(field, grid[0])
            assert space.contains_ints([7 * x for x in v]) == space.contains(grid[0])
