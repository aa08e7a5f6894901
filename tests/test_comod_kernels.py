"""The lifted comodule and map kernels against the field-scalar loops they replaced.

Every verdict is compared by `repr` (law, witness, sides and scalar types)
with `comod_reference`, and every matrix a kernel builds by `==` and `repr`,
on natural and unimodular-scrambled bases of k, c2, gpd2, gpd3, `sum` and
z3gf2 (the group algebra of Z/3) over Q, GF(2), GF(3), GF(5) and GF(1009).
Forged inputs break each law.  Tensor products over H_s are also checked
against the truncation idempotent E: E^2 = E and the relators span the
image of 1 - E.

With verified objects two families of laws cannot fail: 2.5(3)(iii) follows
from coassociativity and the counit law (Lemma 2.5(3)), and the bimodule-map
laws follow from the comodule-map law, which both kernels check first.  The
corpus reaches them only through forged structure: a weak bialgebra whose
eps_s or eps_s' is replaced, and a comodule whose action tensors are swapped
or duplicated, which also breaks Lemma 2.5(3)(i)-(ii).
"""

import random

import pytest

import comod_reference as ref
from product_reference import comultiply
from test_axiom_kernels import _scaled_cols, _unimodular_cols, rebased
from weakhopf.comod import (
    Comodule,
    check_lemma25,
    coaction_verdict,
    comodule_hom_basis,
    comodule_map_verdict,
    regular_comodule,
    tensor_over_source,
    unit_comodule,
)
from weakhopf.decomp import direct_sum
from weakhopf.errors import AxiomViolation, Verdict, Violation
from weakhopf.exactla import GF, QQ, Matrix, column_space, inverse, vec_unit
from weakhopf.fixtures import (
    enumerate_automorphisms,
    groupoid_algebra,
    indiscrete_groupoid,
    preset,
)
from weakhopf.tannaka import (
    FunctorData,
    PhiSEscape,
    comonoidal_structure,
    WeakBialgebraMap,
    _phi_s_matrix,
    functor_from_map,
    induced_coaction,
    induced_functor,
    map_verdict,
    reconstruct_coalgebra_map,
)
from weakhopf.weakbia import WeakBialgebra, build_weak_bialgebra

FIELDS = (QQ, GF(2), GF(3), GF(5), GF(1009))
IDS = [str(f) for f in FIELDS]


def corpus(field):
    """(name, h, base) for the fixtures (base None) and their scrambled copies
    (base the natural-basis fixture and the columns of the new basis)."""
    natural = {
        "k": preset("k", field),
        "gpd2": preset("gpd2", field),
        "gpd3": groupoid_algebra(indiscrete_groupoid(3), field),
        "z3gf2": preset("z3@gf2", field),
        "c2": preset("c2", field),
        "sum": preset("sum", field),
    }
    out = []
    for name, h in natural.items():
        out.append((name, h, None))
        cols = _unimodular_cols(field, h.dim)
        alg, coa, _ = rebased(h, cols)
        out.append((name + "@unimodular", build_weak_bialgebra(alg, coa), (h, cols)))
    return out


CORPUS = {field: corpus(field) for field in FIELDS}


def comodules(h):
    reg, un = regular_comodule(h), unit_comodule(h)
    out = [reg, un, tensor_over_source(reg, un), tensor_over_source(un, reg)]
    if h.dim <= 4:
        out.append(tensor_over_source(reg, reg))
    return out


def _same(got, want):
    assert repr(got) == repr(want)
    assert got == want


def _bumped(m, rng, count):
    """count copies of m, each with one entry raised by 1."""
    rows = [list(r) for r in m.entries]
    out = []
    for _ in range(count):
        r, c = rng.randrange(m.rows), rng.randrange(m.cols)
        grid = [list(row) for row in rows]
        grid[r][c] = grid[r][c] + m.field.one
        out.append(Matrix(m.field, grid, cols=m.cols))
    return out


def _forged_bialgebra(h, **maps):
    """h with some counital matrices replaced, past verification."""
    f = object.__new__(WeakBialgebra)
    for slot in WeakBialgebra.__slots__:
        object.__setattr__(f, slot, getattr(h, slot))
    object.__setattr__(f, "_comodule_ints", None)
    for name, m in maps.items():
        object.__setattr__(f, name, m)
    return f


def _forged_comodule(c, left, right):
    """c with the action tensors left and right, past verification."""
    f = object.__new__(Comodule)
    acts = (left, right, c.act_ints()[2])
    for slot, value in (("over", c.over), ("dim", c.dim), ("coaction", c.coaction),
                        ("_ints", c.ints()), ("_acts", acts), ("_act_matrices", None)):
        object.__setattr__(f, slot, value)
    return f


def _laws(verdict):
    return {v.law for v in verdict.violations}


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_coaction_verdicts_and_action_tensors(field):
    rng = random.Random(f"coaction:{field}")
    reached = set()
    for _, h, _ in CORPUS[field]:
        n = h.dim
        want = [comultiply(h.coa, vec_unit(field, n, i)) for i in range(n)]
        _same(regular_comodule(h).coaction, Matrix.from_cols(field, want, rows=n * n))
        _same(unit_comodule(h).coaction, ref.unit_coaction(h))
        for c in comodules(h):
            _same(coaction_verdict(h, c.dim, c.coaction), ref.coaction_verdict(h, c.dim, c.coaction))
            _same((c.left_act, c.right_act), ref.actions(h, c))
            assert check_lemma25(c).ok
            for mat in _bumped(c.coaction, rng, 3):
                got = coaction_verdict(h, c.dim, mat)
                _same(got, ref.coaction_verdict(h, c.dim, mat))
                reached |= _laws(got)
                if not got.ok:
                    with pytest.raises(AxiomViolation) as err:
                        Comodule(h, c.dim, mat)
                    _same(err.value.verdict, got)
        zero = Matrix.zeros(field, n, n)
        reg = regular_comodule(h)
        for maps in ({"eps_s_prime": zero}, {"eps_s": zero}):
            f = _forged_bialgebra(h, **maps)
            got = coaction_verdict(f, n, reg.coaction)
            _same(got, ref.coaction_verdict(f, n, reg.coaction))
            reached |= _laws(got)
    assert reached == {
        "comodule coassociativity", "comodule counit", "2.5(3)(iii) left", "2.5(3)(iii) right",
    }


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_tensor_products_match_reference(field):
    for _, h, _ in CORPUS[field]:
        reg, un = regular_comodule(h), unit_comodule(h)
        zero = Comodule(h, 0, Matrix.zeros(field, 0, 0))
        objs = [reg, un, tensor_over_source(reg, un), tensor_over_source(un, reg), zero]
        pairs = [(a, b) for a in objs for b in objs if a.dim * b.dim <= 36]
        if h.dim <= 4:
            pairs.append((tensor_over_source(reg, un), reg))
        for a, b in pairs:
            t = tensor_over_source(a, b)
            basis, reps, projection, section, coaction = ref.tensor_data(a, b)
            assert t.relators.basis == basis
            assert t.reps == reps
            _same(t.projection, projection)
            _same(t.section, section)
            _same(t.coaction, coaction)
            _same((t.left_act, t.right_act), ref.actions(h, t))
            trunc = ref.truncation(a, b)
            assert trunc.mul(trunc) == trunc
            assert column_space(Matrix.identity(field, trunc.rows).sub(trunc)) == t.relators


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_comodule_map_verdicts_match_reference(field):
    rng = random.Random(f"maps:{field}")
    reached = set()
    for _, h, _ in CORPUS[field]:
        if h.dim > 6:
            continue
        reg, un = regular_comodule(h), unit_comodule(h)
        ru = tensor_over_source(reg, un)
        for src, dst in ((reg, reg), (un, un), (ru, reg)):
            homs = comodule_hom_basis(src, dst)
            for f in homs[:2] + [m for hom in homs[:2] for m in _bumped(hom, rng, 2)]:
                got = comodule_map_verdict(src, dst, f)
                _same(got, ref.comodule_map_verdict(src, dst, f))
                reached |= _laws(got)
        ident = Matrix.identity(field, reg.dim)
        left, right, _ = reg.act_ints()
        for forged in (_forged_comodule(reg, right, left), _forged_comodule(reg, left, left)):
            for src, dst in ((reg, forged), (forged, reg)):
                got = comodule_map_verdict(src, dst, ident)
                _same(got, ref.comodule_map_verdict(src, dst, ident))
                reached |= _laws(got)
            got = check_lemma25(forged)
            _same(got, ref.check_lemma25(forged))
            reached |= _laws(got)
    assert reached == {
        "comodule map law", "bimodule map (left)", "bimodule map (right)", "2.5(3)(i)", "2.5(3)(ii)",
    }


def _maps(field):
    """(phi, source, target) for valid maps of the corpus: identities, basis
    permutations (conjugated into the scrambled bases, where their entries
    are fractions over Q) and k + k -> gpd2, also from a rescaled k + k."""
    out = []
    for _, h, base in CORPUS[field]:
        out.append((Matrix.identity(field, h.dim), h, h))
        natural, cols = (h, None) if base is None else base
        if h.dim <= 6:
            for m in enumerate_automorphisms(natural)[1:3]:
                if cols is None:
                    out.append((m.matrix, h, h))
                else:
                    change = Matrix.from_cols(field, cols, rows=h.dim)
                    out.append((inverse(change).mul(m.matrix).mul(change), h, h))
    k2, gpd2 = direct_sum(preset("k", field), preset("k", field)), preset("gpd2", field)
    rows = [[1 if lab == f"e{i + 1}" else 0 for i in range(2)] for lab in gpd2.labels]
    phi = Matrix(field, rows, cols=2)
    out.append((phi, k2, gpd2))
    cols = _scaled_cols(field, 2)
    alg, coa, _ = rebased(k2, cols)
    out.append((phi.mul(Matrix.from_cols(field, cols, rows=2)), build_weak_bialgebra(alg, coa), gpd2))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_map_verdicts_and_induced_coactions_match_reference(field):
    rng = random.Random(f"phi:{field}")
    reached = set()
    for phi, h, k in _maps(field):
        assert map_verdict(phi, h, k).ok
        bmap = WeakBialgebraMap(h, k, phi)
        for m in comodules(h)[:3]:
            _same(induced_coaction(phi, m, k), ref.induced_coaction(phi, m, k))
        forged = _bumped(phi, rng, 3) + [Matrix.zeros(field, k.dim, h.dim)]
        if field.characteristic != 2:
            forged.append(phi.scale(field.of(2)))
        for bad in [phi] + forged:
            # the unit morphism, or the image that escapes K_s
            _same(_phi_s_or_escape(bad, h, k), ref.phi_s_matrix(bad, h, k))
        for bad in forged:
            got = map_verdict(bad, h, k)
            _same(got, ref.map_verdict(bad, h, k))
            reached |= _laws(got)
        # the coalgebra layers of reconstruction on tables with a bumped regular coaction
        reg, un = regular_comodule(h), unit_comodule(h)
        fd = functor_from_map(bmap, [reg, un])
        for rho in [fd.assignments[0][1]] + _bumped(fd.assignments[0][1], rng, 2):
            table = FunctorData(h, k, [(reg, rho), fd.assignments[1]], fd.unit_map)
            res = reconstruct_coalgebra_map(table)
            want_phi, want_layers = _ref_coalgebra_layers(table)
            _same(res.phi, want_phi)
            assert repr(res.layers) == repr(want_layers)
            for _, verdict in res.layers:
                reached |= _laws(verdict)
    assert reached == {
        "not multiplicative", "unit mismatch", "not comultiplicative", "counit mismatch",
        "phi(H_s) in K_s", "phi(H_t) in K_t", "assignment 0 invalid over target",
        "rho^F != (id (x) phi) rho", "Delta_K . phi != (phi (x) id) rho^F",
    }


def _phi_s_or_escape(phi, h, k):
    try:
        return _phi_s_matrix(phi, h, k)
    except PhiSEscape as exc:
        return exc.img


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_target_tensor_product_is_the_source_quotient(field):
    """M^phi(a) (x)_{K_s} M^phi(b), built and verified over the target, is the quotient
    of a (x)_{H_s} b with (id (x) phi) of its coaction, for every map and comodule pair,
    and the comonoidal layer passes on each; the comodules `induced_functor`
    attaches unverified satisfy the axioms."""
    for phi, h, k in _maps(field):
        bmap = WeakBialgebraMap(h, k, phi)
        comods = comodules(h)
        induced = [induced_functor(bmap, m) for m in comods]
        for m_k in induced:
            assert coaction_verdict(k, m_k.dim, m_k.coaction).ok
        for m, m_k in zip(comods, induced):
            for m2, m2_k in zip(comods, induced):
                t_h = tensor_over_source(m, m2)
                assert comonoidal_structure(bmap, t_h).ok
                t_k = tensor_over_source(m_k, m2_k)
                assert t_k.reps == t_h.reps
                assert t_k.projection_ints() == t_h.projection_ints()
                _same(t_k.coaction, induced_coaction(phi, t_h, k))
                t_phi = induced_functor(bmap, t_h)
                assert coaction_verdict(k, t_phi.dim, t_phi.coaction).ok


def _ref_coalgebra_layers(fd):
    """The four coalgebra layers of reconstruction, on the reference loops."""
    h, k = fd.source, fd.target
    validity = []
    for idx, (m, rho) in enumerate(fd.assignments):
        v = ref.coaction_verdict(k, m.dim, rho)
        if not v.ok:
            validity.append(Violation(f"assignment {idx} invalid over target", (idx,), v.describe(), None))
    rho_reg = fd.assignments[0][1]
    phi = ref.coalgebra_layer_phi(rho_reg, h, k)
    feq = []
    for idx, (m, rho) in enumerate(fd.assignments):
        expected = ref.induced_coaction(phi, m, k)
        bad = [i for i in range(m.dim) if rho.col(i) != expected.col(i)]
        if bad:
            feq.append(Violation("rho^F != (id (x) phi) rho", (idx, bad[0]), rho.col(bad[0]), expected.col(bad[0])))
    return phi, (
        ("comodule-validity", Verdict(tuple(validity))),
        ("coalgebra-map", Verdict(tuple(ref.coalgebra_map_violations(phi, h, k)))),
        ("functor-equality", Verdict(tuple(feq))),
        ("comodule-map-property", Verdict(tuple(ref.remark32_violations(phi, rho_reg, h, k)))),
    )
